"""Command-line front end: verification suites with machine-readable reports.

Subcommands:

* ``verify`` -- build one family kernel and run the requested checks over a
  window, emitting a JSON report; exit status 0 iff every check passed.
* ``counterexample`` -- exact gap-2/3/4 discrepancies of the two beta
  reconstruction routes, compared against their known closed forms.
* ``eds`` -- divisibility-sequence table, recurrence/property checks, and the
  delta verification of the induced kernel.

Exact residuals are serialized as ``"0"`` or ``"num/den"`` strings, never
floats, so exact-mode reports are reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .errors import ConfigError, DomainError, VerificationError, located
from .families import (
    FAMILIES,
    check_eds_w2,
    eds_generate,
    eds_kernel,
    max_eds_property_residual,
)
from .identities import (
    max_anchored_tsi_residual,
    max_qsi_residual,
    max_tsi_residual,
)
from .kernels import (
    TriangularPair,
    max_antisymmetry_residual,
    pair_from_kernel,
    passes,
    verify_inversion,
    worst_of,
)
from .numerics import DEFAULT_POLICY, Ratio, Scalar, TruncationPolicy, is_exact
from .recursions import counterexample_discrepancies, counterexample_reference

CHECK_NAMES = (
    "antisym", "tsi", "qsi", "cond3", "delta",
    "closed-form", "counterexample", "eds-property",
)
PRESET_KEYS = ("family", "params", "window", "tolerance", "checks")
CONFIG_KEYS = PRESET_KEYS + ("truncation-tail", "truncation-max", "out")


# --- scalar/window parsing ------------------------------------------------------


def parse_scalar(text: str) -> Scalar:
    """``"p/q"`` -> Fraction, finite decimal/scientific -> float, else int."""
    t = text.strip()
    try:
        if "/" in t:
            return Fraction(t)
        if any(c in t for c in ".eE") and not t.lstrip("+-").isdigit():
            value = float(t)
            if not math.isfinite(value):
                raise ValueError
            return value
        return int(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse scalar {text!r}") from exc


def serialize_scalar(value: Scalar):
    """Exact values render as strings ('0', 'num/den'); finite floats stay
    numbers, and non-finite ones become 'nan', 'inf' or '-inf' (valid JSON)."""
    if is_exact(value):
        try:
            return str(Fraction(value))
        except ValueError as exc:  # past the interpreter's limit on int string digits
            raise DomainError(f"exact value past the {sys.get_int_max_str_digits()}-digit int str limit") from exc
    out = float(abs(value)) if isinstance(value, complex) else float(value)
    return out if math.isfinite(out) else str(out)


def parse_number(text: str | None, convert: Callable[[str], Scalar], flag: str) -> Scalar | None:
    """``convert(text)``, or None for an absent value; unparsable text is a
    ConfigError naming ``flag``."""
    if text is None:
        return None
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}") from exc


def parse_params(text: str) -> dict[str, Scalar]:
    out: dict[str, Scalar] = {}
    if not text.strip():
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"bad params item {item!r} (expected key=value)")
        key, _, value = item.partition("=")
        if key.strip() in out:
            raise ConfigError(f"params key {key.strip()!r} given twice")
        out[key.strip()] = parse_scalar(value)
    return out


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"bad window {text!r} (expected lo..hi)")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}") from exc
    if lo > hi:
        raise ConfigError(f"empty window {text!r}")
    return lo, hi


def parse_int_range(text: str) -> range:
    if ".." in text:
        lo, hi = parse_window(text)
        return range(lo, hi + 1)
    try:
        k = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad integer range {text!r}") from exc
    return range(k, k + 1)


def load_config_file(path: str) -> dict[str, str]:
    """Plain ``key=value`` lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, value = line.partition("=")
        if key.strip() in out:
            raise ConfigError(f"config key {key.strip()!r} given twice")
        out[key.strip()] = value.strip()
    return out


# --- check execution ---------------------------------------------------------------


def _closed_form_worst(pair: TriangularPair, closed) -> Scalar:
    """Largest difference between the printed closed forms and the pair's
    entry table; a domain error of a closed form names its entry.  An exact
    :class:`Ratio` is compared by cross-multiplication, with no Fraction for 0."""
    lo, hi = pair.window

    def diffs():
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                for name, form, rows in zip("FG", closed, (pair.F, pair.G)):
                    try:
                        c, e = form(n, k), rows[n - lo][k - lo]
                    except VerificationError as exc:
                        raise located(exc, f"closed-form {name}({n},{k})")
                    if not isinstance(c, Ratio):
                        yield c - e
                    elif cross := c.numerator * e.denominator - e.numerator * c.denominator:
                        yield Fraction(cross, c.denominator * e.denominator)

    return worst_of(diffs())


# Each check maps a built family ``(kernel, closed, eds_seq)``, a thunk of its F/G
# pair, the window and the tolerance to its worst residual.  The lambdas look the
# sweeps up by module name at call time, so wrapping a sweep here wraps the check.
CHECKS: dict[str, Callable] = {
    "antisym": lambda run, pair, window, tol: max_antisymmetry_residual(run[0], window),
    "tsi": lambda run, pair, window, tol: max_tsi_residual(run[0], window),
    "qsi": lambda run, pair, window, tol: max_qsi_residual(run[0], window),
    "cond3": lambda run, pair, window, tol: max_anchored_tsi_residual(run[0], window),
    "delta": lambda run, pair, window, tol: verify_inversion(pair(), tol).worst_value,
    "closed-form": lambda run, pair, window, tol: _closed_form_worst(pair(), run[1]),
    "eds-property": lambda run, pair, window, tol: max_eds_property_residual(run[2]),
}


def check_record(name: str, worst: Scalar, tol: float | None, start: float) -> dict:
    """The report entry of one check whose timing began at ``start``."""
    return {
        "name": name,
        "pass": passes(worst, tol),
        "exact": tol is None,
        "worst_residual": serialize_scalar(worst),
        "elapsed_ms": round((time.perf_counter() - start) * 1e3, 3),
    }


def _report(**fields) -> dict:
    """A report document: the artifact header, then ``fields`` in order."""
    return {"artifact": "invrel", "version": __version__, **fields}


def _run_checks(doc: dict, steps: Iterable[tuple[str, Callable]], tol: float | None) -> dict:
    """Time each ``(name, worst_fn)`` step into ``doc["checks"]`` and set
    ``doc["passed"]``, which needs at least one check.  A domain failure,
    raised by a step or by ``steps`` itself while it builds what the next
    step needs, ends the run as ``doc["error"]`` instead; so does float
    arithmetic that the input drives out of range (a huge exact parameter
    of a theta family, say)."""
    try:
        for name, worst_fn in steps:
            start = time.perf_counter()
            doc["checks"].append(check_record(name, worst_fn(), tol, start))
    except (VerificationError, OverflowError) as exc:
        doc["error"] = f"{type(exc).__name__}: {exc}"
        return doc
    doc["passed"] = bool(doc["checks"]) and all(c["pass"] for c in doc["checks"])
    return doc


def cmd_verify(
    family: str,
    params: dict | None = None,
    window: tuple[int, int] | None = None,
    tolerance: float | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
    checks: tuple[str, ...] | None = None,
) -> dict:
    """Run one family's suite; returns the report document.

    ``window``, ``tolerance`` and ``checks`` left as None fall back to the
    family preset (respectively every check the family offers).  Exact mode
    (no tolerance) takes exact params only: a float param ends the run as a
    domain error, raised after the build (which reads no kernel value), so
    a degenerate parameter is named first.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    preset = FAMILIES[family]
    if checks is not None:
        bad = set(checks) - set(CHECK_NAMES)
        if bad:
            raise ConfigError(f"unknown checks {sorted(bad)}; known: {CHECK_NAMES}")
        if len(set(checks)) < len(checks):
            raise ConfigError(f"checks {list(checks)} name a check twice")
        if "counterexample" in checks:
            raise ConfigError("the counterexample check runs via the counterexample subcommand")
        if "closed-form" in checks and "closed-form" not in preset.checks:
            raise ConfigError(f"{family}: no independent closed form is available")
        if "eds-property" in checks and "eds-property" not in preset.checks:
            raise ConfigError(f"{family}: eds-property applies only to the eds family")
    params = params or {}
    unknown = set(params) - set(preset.params)
    if unknown:
        raise ConfigError(f"{family}: unknown params {sorted(unknown)}")
    if tolerance is not None and not 0 < tolerance < math.inf:
        raise ConfigError("tolerance must be finite and positive")
    merged = {**preset.params, **params}
    window = preset.window if window is None else window
    tolerance = preset.tolerance if tolerance is None else tolerance
    checks = preset.checks if checks is None else checks

    def steps():
        run = preset.build(merged, window, policy)
        floats = [k for k, v in merged.items() if not is_exact(v)]
        if tolerance is None and floats:
            raise DomainError(
                f"{family}: exact mode needs exact params, but {', '.join(floats)} "
                "given as float; write each as p/q, or pass --tolerance"
            )
        pair = cache(partial(pair_from_kernel, run[0], window))
        for name in checks:
            yield name, partial(CHECKS[name], run, pair, window, tolerance)

    doc = _report(
        family=family,
        params={k: serialize_scalar(v) for k, v in merged.items()},
        window=f"{window[0]}..{window[1]}",
        tolerance=tolerance,
        truncation={"tail_bound": policy.tail_bound, "max_terms": policy.max_terms},
        mode="exact" if tolerance is None else "tolerance",
        checks=[],
        passed=False,
    )
    return _run_checks(doc, steps(), tolerance)


def cmd_counterexample(k_values) -> dict:
    """Exact gap discrepancies of the two beta routes for each k."""
    if any(k < 1 for k in k_values):
        raise ConfigError("k must be at least 1")
    rows = []
    for k in k_values:
        got = counterexample_discrepancies(k)
        want = counterexample_reference(k)
        rows.append(
            {
                "k": k,
                "gap2": serialize_scalar(got[0]),
                "gap3": serialize_scalar(got[1]),
                "gap4": serialize_scalar(got[2]),
                "expected_gap2": serialize_scalar(want[0]),
                "expected_gap3": serialize_scalar(want[1]),
                "expected_gap4": serialize_scalar(want[2]),
                "match": got == want,
            }
        )
    return _report(subcommand="counterexample", rows=rows, passed=all(r["match"] for r in rows))


def cmd_eds(seeds: tuple[Scalar, Scalar, Scalar], n_max: int, window=None) -> dict:
    """Table, recurrence round-trip, exhaustive property check, and delta."""
    check_eds_w2(seeds[0])
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if window is None:
        window = (1, max(1, min(6, n_max // 2)))
    doc = _report(
        subcommand="eds",
        seeds=[serialize_scalar(Fraction(s)) for s in seeds],
        n_max=n_max,
        checks=[],
        passed=False,
    )

    def steps():
        seq = eds_generate(*seeds, n_max)
        doc["table"] = [[n, serialize_scalar(seq.w(n))] for n in range(0, seq.n_max + 1)]
        yield "recurrence", lambda: worst_of(
            seq.recurrence_residual(n) for n in range(-(seq.n_max - 2), seq.n_max - 1)
        )
        yield "eds-property", lambda: max_eds_property_residual(seq)
        yield "delta", lambda: verify_inversion(
            pair_from_kernel(eds_kernel(seq), window)
        ).worst_value
        doc["window"] = f"{window[0]}..{window[1]}"

    return _run_checks(doc, steps(), None)


# --- argument plumbing ----------------------------------------------------------


def _emit(doc: dict, out: str | None) -> int:
    """Write the report; returns the exit status (0 iff it passed)."""
    text = json.dumps(doc, indent=2)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out!r}: {exc}") from exc
    else:
        print(text)
    return 0 if doc["passed"] else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="invrel",
        description="Window-exhaustive verification of triangular inversion pairs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pv = sub.add_parser("verify", help="run a family's check suite")
    pv.add_argument("--family", help=f"one of {sorted(FAMILIES)}")
    pv.add_argument("--params", help="comma-separated key=value scalars (rationals as p/q)")
    pv.add_argument("--window", help="closed index window lo..hi")
    pv.add_argument("--tolerance", help="residual tolerance for float families")
    pv.add_argument("--truncation-tail", help="series/product tail bound")
    pv.add_argument("--truncation-max", help="series/product term cap")
    pv.add_argument("--checks", help=f"comma-separated subset of {CHECK_NAMES}")
    pv.add_argument("--config", help="key=value config file (flags override)")
    pv.add_argument("--all-presets", action="store_true", help="run every family preset")
    pv.add_argument("--out", help="write the JSON report here instead of stdout")

    pc = sub.add_parser("counterexample", help="gap discrepancies of the two beta routes")
    pc.add_argument("--k", default="1..5", help="k value or range lo..hi (default 1..5)")
    pc.add_argument("--out")

    pe = sub.add_parser("eds", help="divisibility-sequence table and checks")
    pe.add_argument("--seeds", default="1,-1,1", help="W_2,W_3,W_4 (default 1,-1,1)")
    pe.add_argument("--n", default="12", help="table extent (default 12)")
    pe.add_argument("--window", help="delta-check window lo..hi (default 1..min(6, n//2))")
    pe.add_argument("--out")
    return parser


def _verify_main(args) -> int:
    cfg = load_config_file(args.config) if args.config else {}
    unknown = set(cfg) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; known: {CONFIG_KEYS}")

    def pick(flag_value, key):
        return flag_value if flag_value is not None else cfg.get(key)

    tail = parse_number(pick(args.truncation_tail, "truncation-tail"), float, "--truncation-tail")
    cap = parse_number(pick(args.truncation_max, "truncation-max"), int, "--truncation-max")
    try:
        policy = TruncationPolicy(
            DEFAULT_POLICY.tail_bound if tail is None else tail,
            DEFAULT_POLICY.max_terms if cap is None else cap,
        )
    except DomainError as exc:
        raise ConfigError(f"bad truncation policy: {exc}") from exc
    out = pick(args.out, "out")

    if args.all_presets:
        ignored = [f"--{k}" for k in PRESET_KEYS if pick(getattr(args, k), k) is not None]
        if ignored:
            raise ConfigError(f"--all-presets runs every preset unchanged; it takes no {', '.join(ignored)}")
        docs = [cmd_verify(name, policy=policy) for name in FAMILIES]
        return _emit(_report(all_presets=True, families=docs, passed=all(d["passed"] for d in docs)), out)

    tolerance = parse_number(pick(args.tolerance, "tolerance"), float, "--tolerance")
    window_text = pick(args.window, "window")
    window = parse_window(window_text) if window_text is not None else None
    checks_text = pick(args.checks, "checks")
    checks = None if checks_text is None else tuple(c.strip() for c in checks_text.split(","))
    params = parse_params(pick(args.params, "params") or "")
    family = pick(args.family, "family")
    if not family:
        raise ConfigError("--family is required (or use --all-presets)")
    doc = cmd_verify(family, params, window, tolerance, policy, checks)
    return _emit(doc, out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "verify":
            return _verify_main(args)
        if args.subcommand == "counterexample":
            doc = cmd_counterexample(list(parse_int_range(args.k)))
            return _emit(doc, args.out)
        seeds = [parse_scalar(s) for s in args.seeds.split(",")]
        if len(seeds) != 3:
            raise ConfigError("--seeds needs exactly three values W_2,W_3,W_4")
        window = parse_window(args.window) if args.window else None
        doc = cmd_eds(tuple(seeds), parse_number(args.n, int, "--n"), window)
        return _emit(doc, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
