"""Mutation harness for the verdict core.

Usage (from the repository root):

    python tests/mutants.py

The harness copies ``src/`` to a temporary directory and applies one mutant
at a time: an exact source replacement that must match exactly once, so a
refactor that moves or duplicates the line fails loudly instead of testing
nothing.  It then runs the test modules that own the mutated code with ``-x``
against the copy and reports whether the mutant was killed.  Before any
mutant it runs every owning module once against an unmutated copy, which must
pass.  The repository's own ``src/`` is only read.

Every mutant should be killed, except those in ``EXPECTED_SURVIVORS``: code
that no verdict depends on, such as a fast path that only saves work.  The
exit status is 1 when a mutant survives that is not listed there, when a
listed one is killed (the list is then stale), or when a replacement does not
match as declared; otherwise 0.  The file is not named ``test_*``, so tier-1
does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/invrel
    old: str
    new: str
    tests: tuple[str, ...]  # the owning modules, under tests/


QSI_SHORTCUT = "    if alternating and max_tsi_residual(kernel, window) == 0:\n        return 0\n"
ALTERNATING = ("    alternating = d is not None and all(Bi[k] == -B[k][i] for i, Bi in enumerate(B) "
               "for k in range(i, len(B)))\n")

MUTANTS = (
    # the QSI shortcut: the exact 0 from an all-zero TSI on an alternating int table
    Mutant("qsi-shortcut-unconditional", "identities.py", QSI_SHORTCUT,
           "    if True:\n        return 0\n", ("test_sweeps.py",)),
    Mutant("qsi-shortcut-without-tsi", "identities.py", QSI_SHORTCUT,
           "    if alternating:\n        return 0\n", ("test_sweeps.py",)),
    # the alternation flag that each window read decides once
    Mutant("alternating-always-true", "kernels.py", ALTERNATING,
           "    alternating = True\n", ("test_kernels.py", "test_sweeps.py")),
    Mutant("alternating-always-false", "kernels.py", ALTERNATING,
           "    alternating = False\n", ("test_kernels.py", "test_sweeps.py")),
    # the orbit folds on a beta that is not antisymmetric
    Mutant("alternating-ignores-beta", "kernels.py", ALTERNATING,
           "    alternating = d is not None\n", ("test_kernels.py", "test_sweeps.py")),
    # float bits: gasper's alpha with a changed association
    Mutant("gasper-alpha-association", "families.py",
           "        return (1 - ap(k) * q_pow(i)) * (1 - bp(k) * q_pow(i))\n",
           "        return (1 - a * (p_pow(k) * q_pow(i))) * (1 - bp(k) * q_pow(i))\n",
           ("test_families.py", "test_golden_reports.py")),
    # the shared window tables kept for the last window, whatever the kernel
    Mutant("tables-keyed-by-window", "kernels.py",
           "    return _tables(kernel, *check_window(window))\n",
           "    global _last\n"
           "    key = check_window(window)\n"
           "    if globals().get('_last', (None,))[0] != key:\n"
           "        _last = (key, _tables(kernel, *key))\n"
           "    return _last[1]\n",
           ("test_kernels.py", "test_sweeps.py")),
    # exact window tables scaled from unreduced Ratios: the least denominator
    Mutant("table-scale-without-gcd", "kernels.py",
           "    return ([[v // g for v in row] for row in scaled], m // g) if g > 1 else (scaled, m)\n",
           "    return scaled, m\n", ("test_kernels.py",)),
    # the window read takes the callables as given; the public readers reduce a Ratio
    Mutant("tables-read-the-memo", "kernels.py",
           "    alpha, beta = kernel.formula\n", "    alpha, beta = kernel.alpha, kernel.beta\n",
           ("test_kernels.py",)),
    Mutant("memo-keeps-the-ratio", "kernels.py",
           "v.fraction() if isinstance(v := f(i, k), Ratio) else v", "f(i, k)", ("test_kernels.py",)),
    # the kept TSI value: a fresh slot with each read, and cond3 answered only by its zero
    Mutant("tables-share-the-kept-slot", "kernels.py",
           "    return A, B, d, alternating, [None]\n",
           "    return A, B, d, alternating, globals().setdefault('_kept', [None])\n", ("test_sweeps.py",)),
    Mutant("cond3-shortcut-without-tsi-zero", "identities.py",
           "    if kept[0] == 0:\n", "    if kept[0] is not None:\n", ("test_sweeps.py",)),
    # the exact pair's neighbour steps: G's divisor alpha(k+1,k+1), and F's
    # fallback to f_entry, whose guard names a zero beta
    Mutant("g-step-divides-by-alpha-kk", "kernels.py",
           "last_g[i].denominator * A[j + 1][j + 1] * B[j][i]", "last_g[i].denominator * A[j][j] * B[j][i]",
           ("test_entry_table.py",)),
    Mutant("f-step-without-zero-beta-fallback", "kernels.py",
           "        if d is None or i == j or B[i][j] == 0:\n", "        if d is None or i == j:\n",
           ("test_entry_table.py", "test_kernels.py")),
    # a float composition that does not subtract the identity on the diagonal
    Mutant("float-diagonal-minus-zero", "kernels.py",
           "acc - (scale or 1) if n == k", "acc - (scale or 0) if n == k", ("test_kernels.py",)),
    Mutant("divided-difference-always-zero", "identities.py",
           "    return vals[0]\n", "    return 0 * vals[0]\n", ("test_identities.py",)),
    # guards whose refusal names the input
    Mutant("window-needs-two-bounds", "cli.py",
           "    if len(parts) != 2:\n", "    if False:\n", ("test_cli.py",)),
    Mutant("params-item-needs-equals", "cli.py",
           '        if "=" not in item:\n', "        if False:\n", ("test_cli.py",)),
    Mutant("f-entry-zero-beta-guard", "kernels.py",
           '        if b == 0:\n            raise ZeroDivisor(f"beta({i},{k}) = 0 in F(',
           '        if False:\n            raise ZeroDivisor(f"beta({i},{k}) = 0 in F(',
           ("test_kernels.py",)),
    Mutant("g-entry-zero-beta-guard", "kernels.py",
           '        if b == 0:\n            raise ZeroDivisor(f"beta({i},{n}) = 0 in G(',
           '        if False:\n            raise ZeroDivisor(f"beta({i},{n}) = 0 in G(',
           ("test_kernels.py",)),
    Mutant("prod-range-zero-guard", "numerics.py",
           "        if v == 0:\n            raise ZeroDivisor(f\"prod_range(",
           "        if False:\n            raise ZeroDivisor(f\"prod_range(",
           ("test_numerics.py",)),
    Mutant("slope-series-q-check", "numerics.py",
           '    if abs(q) >= 1:\n        raise DomainError("slope kernel requires',
           '    if False:\n        raise DomainError("slope kernel requires',
           ("test_numerics.py",)),
    Mutant("q-pochhammer-tail-bound", "numerics.py",
           "        if abs(f) < policy.tail_bound:\n            break\n",
           "        if False:\n            break\n",
           ("test_numerics.py",)),
    # theta's own check, the only one in front of the unchecked product loop
    Mutant("theta-q-check", "numerics.py",
           '    if not 0 < abs(q) < 1:\n        raise DomainError("theta requires',
           '    if False:\n        raise DomainError("theta requires',
           ("test_numerics.py",)),
    # each sweep's terms
    Mutant("antisym-term-difference", "kernels.py",
           "worst_of(Bi[k] + B[k][i] for", "worst_of(Bi[k] - B[k][i] for", ("test_sweeps.py",)),
    Mutant("tsi-term-transposed", "identities.py",
           "An[k] * B[p][q] for An in A", "An[k] * B[q][p] for An in A", ("test_sweeps.py",)),
    Mutant("cond3-term-transposed", "identities.py",
           "        Ap[x] * By[p] + Ap[y] * Bp[x] + Ap[p] * Bx[y]\n",
           "        Ap[x] * By[p] + Ap[y] * Bp[x] + Ap[p] * By[x]\n", ("test_sweeps.py",)),
    Mutant("qsi-term-sign", "identities.py",
           "        - Ax[x] * Ap[p] * Bq[y] * Bp[y]\n", "        + Ax[x] * Ap[p] * Bq[y] * Bp[y]\n",
           ("test_sweeps.py",)),
    # verdict rules
    Mutant("unscale-ignores-degree", "kernels.py",
           "Fraction(worst, d**degree)", "Fraction(worst, d)", ("test_kernels.py", "test_sweeps.py")),
    Mutant("passes-strict-bound", "numerics.py",
           "magnitude(worst) <= tol", "magnitude(worst) < tol", ("test_kernels.py",)),
    Mutant("gf-only-without-zero-check", "kernels.py",
           "    if exact and tol is None and not any(transposed.values()):\n",
           "    if exact and tol is None:\n", ("test_kernels.py", "test_entry_table.py")),
    Mutant("magnitude-overflow-reads-zero", "numerics.py",
           "    except OverflowError:\n        return math.inf\n",
           "    except OverflowError:\n        return 0.0\n", ("test_numerics.py",)),
    # the bilateral eds table: its bound, and W_{-n} = -W_n in its layout
    Mutant("eds-bound-excludes-n-max", "families.py",
           "        if abs(n) > self.n_max:\n", "        if abs(n) >= self.n_max:\n", ("test_families.py",)),
    Mutant("eds-layout-without-negation", "families.py",
           "*(-v for v in reversed(values[1:]))", "*reversed(values[1:])", ("test_families.py",)),
    # the unreduced int pairs that exact gasper and schlosser kernels run on
    Mutant("ratio-sub-operands-swapped", "numerics.py",
           "    def __sub__(self, other) -> Ratio:\n"
           "        return Ratio(self.numerator * other.denominator - other.numerator * self.denominator,\n",
           "    def __sub__(self, other) -> Ratio:\n"
           "        return Ratio(other.numerator * self.denominator - self.numerator * other.denominator,\n",
           ("test_closed_forms.py", "test_families.py")),
    Mutant("ratio-reciprocal-without-swap", "numerics.py",
           "else (self.denominator, self.numerator)", "else (self.numerator, self.denominator)",
           ("test_closed_forms.py", "test_families.py")),
    # all-int params lifted like every other exact set, so that their closed forms give Ratios
    Mutant("lift-skips-all-int-params", "families.py",
           "    if all(map(is_exact, params)):\n",
           "    if all(map(is_exact, params)) and not all(isinstance(v, int) for v in params):\n",
           ("test_closed_forms.py", "test_families.py")),
    # a registry builder that builds its closed form for every verdict
    Mutant("closed-form-built-eagerly", "families.py",
           "partial(gasper_closed_entries, **p)", "gasper_closed_entries(**p)", ("test_cli.py",)),
    # an eds term is an int only where it is integral
    Mutant("eds-int-for-non-integral-term", "families.py",
           "    return v.numerator if v.denominator == 1 else v\n", "    return int(v)\n", ("test_families.py",)),
    # the int product loop of (x;q)_m on Ratio pairs, which exact closed forms run
    Mutant("ratio-pochhammer-factor-negated", "families.py",
           "num * (v * tp - u * sp)", "num * (u * sp - v * tp)", ("test_closed_forms.py",)),
    Mutant("ratio-pochhammer-denominator-exponent", "families.py",
           "t ** (m * (m - 1) // 2)", "t ** (m * (m + 1) // 2)", ("test_closed_forms.py",)),
    # the eds closed forms on a table that is not all integral
    Mutant("eds-closed-form-unscaled", "families.py",
           "(v := W.w(i)).numerator * (d // v.denominator)", "(v := W.w(i)).numerator", ("test_closed_forms.py",)),
    # exact closed forms on Fractions in place of Ratio pairs
    Mutant("gasper-closed-form-unlifted", "families.py",
           '    """\n    a, b, p, q = _lift(a, b, p, q)\n', '    """\n', ("test_closed_forms.py", "test_families.py")),
    Mutant("schlosser-closed-form-unlifted", "families.py",
           '    """\n    a, b, c, q = _lift(a, b, c, q)\n', '    """\n', ("test_closed_forms.py", "test_families.py")),
    # the exactness both beta tables read their arithmetic from
    Mutant("every-seed-on-pairs", "recursions.py",
           "return a, all(map(is_exact, [*t_values, *a.values()]))", "return a, True", ("test_recursions.py",)),
    # beta_table_tsi's step on int pairs: the sign of its second term, and t(n-1) in it
    Mutant("tsi-pairs-term-sign-flipped", "recursions.py",
           "Fraction((pn * bn * qd * ud + qn * un * pd * bd) * dd", "Fraction((pn * bn * qd * ud - qn * un * pd * bd) * dd",
           ("test_recursions.py",)),
    Mutant("tsi-pairs-reads-t-k-for-t-m", "recursions.py",
           "a[m, m], u[m]\n", "a[m, m], u[k]\n", ("test_recursions.py",)),
    # counterexample_discrepancies' triple-sum side: row k of the TSI table, one gap short
    Mutant("counterexample-tsi-side-one-gap-short", "recursions.py",
           "- tsi[k, k + gap] for gap", "- tsi[k, k + gap - 1] for gap", ("test_recursions.py",)),
    # counterexample_reference's int Horner evaluation
    Mutant("reference-horner-coefficients-reversed", "recursions.py",
           "    for c in coeffs_desc:\n", "    for c in reversed(coeffs_desc):\n", ("test_recursions.py",)),
    # beta_table_inversion's solve on int pairs: the zero-S fallback, the F(n,k) step, the S product
    Mutant("pairs-zero-s-fallback-skipped", "recursions.py",
           "            if sn == 0:\n", "            if False:\n", ("test_recursions.py",)),
    Mutant("pairs-f-step-sign-flipped", "recursions.py",
           "F[n, k] = (-fn * bd, fd * bn)", "F[n, k] = (fn * bd, fd * bn)", ("test_recursions.py",)),
    Mutant("pairs-s-product-reads-g-for-f", "recursions.py",
           "(fn, fd), (gn, gd) = F[n, i], G[i, k]", "(fn, fd), (gn, gd) = G[n, i], G[i, k]",
           ("test_recursions.py",)),
    # fast paths that only save work
    Mutant("tsi-orbit-fold-off", "identities.py",
           "combinations(w, 3) if alternating else product(w, repeat=3)",
           "product(w, repeat=3)", ("test_sweeps.py",)),
    Mutant("exact-div-fast-path-off", "numerics.py",
           "    if isinstance(num, int) and isinstance(den, int) and den != 0:\n",
           "    if False:\n", ("test_numerics.py", "test_kernels.py", "test_families.py")),
)

# name -> why the suite cannot kill it
EXPECTED_SURVIVORS = {
    "tsi-orbit-fold-off": "speed only: the full fold meets the same first maximiser as the orbit fold",
    "exact-div-fast-path-off": "speed only: num * reciprocal(den) is the same Fraction as Fraction(num, den)",
}


def pytest_run(src: Path, modules) -> tuple[bool, str]:
    """``(passed, first failure)`` of ``-x`` runs of ``modules`` against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"tests/{m}" for m in modules)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, failed[0] if failed else (proc.stdout.strip().splitlines() or [""])[-1]


def mutated_copy(tmp: Path, mutant: Mutant | None) -> Path:
    """A fresh copy of ``src/`` under ``tmp``, with ``mutant`` applied."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "invrel" / mutant.path
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            raise LookupError(f"{mutant.name}: {found} matches in {mutant.path}, expected 1")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="invrel-mutants-") as tmp:
        tmp = Path(tmp)
        owners = sorted({t for m in MUTANTS for t in m.tests})
        passed, detail = pytest_run(mutated_copy(tmp, None), owners)
        if not passed:
            print(f"error: the unmutated copy fails: {detail}", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            try:
                src = mutated_copy(tmp, mutant)
            except LookupError as exc:
                print(f"STALE     {exc}")
                bad += 1
                continue
            survived, detail = pytest_run(src, mutant.tests)
            seconds = time.perf_counter() - start
            if survived and mutant.name in EXPECTED_SURVIVORS:
                print(f"survived  {mutant.name} ({seconds:.1f} s), as expected: {EXPECTED_SURVIVORS[mutant.name]}")
            elif survived:
                print(f"SURVIVED  {mutant.name} ({seconds:.1f} s): no test in {', '.join(mutant.tests)} fails")
                bad += 1
            elif mutant.name in EXPECTED_SURVIVORS:
                print(f"KILLED    {mutant.name} ({seconds:.1f} s), listed as a survivor: {detail}")
                bad += 1
            else:
                print(f"killed    {mutant.name} ({seconds:.1f} s): {detail}")
    print(f"{len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
