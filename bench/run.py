"""Verdict benchmark for invrel.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-exact --seed 1 --seconds 24 --trace 0

Each run is one workload in this single-threaded process.  A fixed pool of
inputs is drawn from ``--seed`` (whole rounds of the workload's slot list);
the pool is run once and then replayed, round by round, until the verdicts
have taken ``--seconds`` of measured time.  Every verdict is checked against
the oracle in ``workloads.py`` and the workload's negative controls must
fail.  ``attempted`` and ``failed`` in the result count the pool's distinct
inputs, so they depend on the seed and not on the speed of the host.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every input
twice, untraced and then traced (see ``tracer.py``), prints the per-layer
metrics, and writes the spans to ``.bench_out/trace-<workload>.tsv.gz``.
The last line of standard output is the JSON result; the lines before it
record the environment, the controls, and a replay command for every wrong
verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import clock
import workloads as W
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15

# Time from a fresh interpreter to the first report: ``import invrel`` plus
# the parser build, plus a trivial verdict so only public entry points are used.
# The reference loop runs afterwards in the same process, so it measures the
# speed of the core the set-up ran on without adding to the set-up.
SETUP_CODE = """
import contextlib, io, statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import invrel, invrel.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = invrel.cli.main(["verify", "--family=binomial", "--window=0..1", "--checks=antisym"])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import clock
print(seconds, statistics.median(clock.reference_sample() for _ in range(3)), code)
"""


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def environment(args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "invrel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds() -> float:
    """Median over fresh interpreters of import plus first report, each
    normalised by the reference loop run in the same process (see clock.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[2] != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
        samples.append(float(fields[0]) * clock.REFERENCE_S / float(fields[1]))
    return statistics.median(samples)


class Tally:
    """Verdict timings and oracle results of one kind of pass (plain or traced)."""

    def __init__(self):
        self.seconds: list[float] = []
        self.references: list[float] = []
        self.wrong: dict[int, dict] = {}  # pool index -> first wrong verdict of that input
        self.ratios: list[float] = []

    def add(self, index: int, case, outcome) -> None:
        self.seconds.append(outcome.seconds)
        judgement = W.judge(case, outcome)
        self.ratios.extend(judgement.ratios)
        if judgement.wrong and index not in self.wrong:
            self.wrong[index] = {**judgement.wrong[0], "problems": len(judgement.wrong)}


def run_pool(rounds, invrel, seconds, tracer=None) -> tuple[Tally, Tally]:
    """Replay the pool's rounds in order until every round has run once and
    the measured verdict time reaches ``seconds``, stopping after a whole round.

    Every execution is judged; an input counts as wrong once, whichever of
    its executions was wrong.  With a tracer, each input runs untraced and
    then traced, and both runs count toward the time.
    """
    numbered, index = [], 0
    for cases in rounds:
        numbered.append([(index + n, case) for n, case in enumerate(cases)])
        index += len(cases)
    plain, traced = Tally(), Tally()
    total = 0.0
    done = 0
    while done < len(numbered) or total < seconds:
        for index, case in numbered[done % len(numbered)]:
            plain.references.append(clock.reference_sample())
            outcome = W.execute(case, invrel)
            plain.add(index, case, outcome)
            total += outcome.seconds
            if tracer is not None:
                with tracer.active():
                    outcome = W.execute(case, invrel)
                traced.add(index, case, outcome)
                total += outcome.seconds
        done += 1
    return plain, traced


def slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(width)."""
    xs = [math.log(w) for w in points]
    ys = [math.log(t) for t in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_exponents(invrel) -> dict[str, float]:
    """Self-time exponents over three widths on fixed inputs.

    The widths are measured in turn, five times over, each call speed-
    normalised by reference samples taken just before it; the median of the
    five is kept per width and layer.
    """
    tracer = Tracer()

    def gasper():
        return invrel.gasper_kernel(2, 3, Fraction(1, 5), Fraction(1, 7))

    def beta_seed(width):
        return invrel.BetaSeed(alpha=lambda i, j: Fraction(i + j), t=lambda j: Fraction(j), window=(1, width))

    probes = (  # (widths, call at a width, layers timed by the call)
        ((4, 5, 6), lambda w: invrel.max_qsi_residual(gasper(), (0, w - 1)), ("identities.qsi",)),
        (
            (16, 24, 36),
            lambda w: invrel.verify_inversion(invrel.pair_from_kernel(invrel.binomial_kernel(), (0, w - 1))),
            ("kernels.entries", "kernels.verify"),
        ),
        ((7, 8, 9), lambda w: invrel.beta_table_inversion(beta_seed(w)), ("recursions.inversion",)),
    )
    samples: dict[tuple[str, int], list[float]] = {}
    with tracer.active():
        for _ in range(5):
            for widths, call, layers in probes:
                for width in widths:
                    speed = clock.REFERENCE_S / statistics.median(clock.reference_sample() for _ in range(3))
                    mark = tracer.mark()
                    call(width)
                    totals = tracer.layer_totals(mark)
                    for layer in layers:
                        samples.setdefault((layer, width), []).append(totals.get(layer, {}).get("self_s", 0.0) * speed)
    return {
        f"{layer}.scaling_exp": slope({w: statistics.median(samples[layer, w]) for w in widths})
        for widths, _, layers in probes
        for layer in layers
    }


def end_to_end(plain: Tally, setup_s: float) -> dict:
    samples = clock.normalised(plain.seconds, plain.references)
    return {
        "verdicts_per_s": {"value": len(samples) / sum(samples), "unit": "1/s"},
        "verdict_s.p50": {"value": statistics.median(samples), "unit": "s"},
        "verdict_s.p90": {"value": statistics.quantiles(samples, n=10)[-1], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(plain: Tally, traced: Tally, inputs: int, tracer: Tracer, exponents: dict) -> dict:
    n = len(traced.seconds)
    totals = tracer.layer_totals()

    def total(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    def per_verdict(value, unit):
        return {"value": value / n, "unit": unit}

    metrics = {
        "numerics.calls": per_verdict(total("numerics", "calls"), "count/verdict"),
        "numerics.self_s": per_verdict(total("numerics", "self_s"), "s/verdict"),
        "families.build_s": per_verdict(total("families.build", "incl_s"), "s/verdict"),
        "families.kernel_calls": per_verdict(tracer.count("families.kernel_calls"), "count/verdict"),
        "families.closed_form.self_s": per_verdict(total("families.closed_form", "self_s"), "s/verdict"),
        "families.eds.self_s": per_verdict(total("families.eds", "self_s"), "s/verdict"),
        "kernels.entries.calls": per_verdict(total("kernels.entries", "calls"), "count/verdict"),
        "kernels.entries.self_s": per_verdict(total("kernels.entries", "self_s"), "s/verdict"),
        "kernels.verify.self_s": per_verdict(total("kernels.verify", "self_s"), "s/verdict"),
        "identities.evals": per_verdict(tracer.count("identities.evals"), "count/verdict"),
        "identities.tsi.self_s": per_verdict(total("identities.tsi", "self_s"), "s/verdict"),
        "identities.qsi.self_s": per_verdict(total("identities.qsi", "self_s"), "s/verdict"),
        "identities.cond3.self_s": per_verdict(total("identities.cond3", "self_s"), "s/verdict"),
        "recursions.inversion.self_s": per_verdict(total("recursions.inversion", "self_s"), "s/verdict"),
        "recursions.tsi_route.self_s": per_verdict(total("recursions.tsi_route", "self_s"), "s/verdict"),
        "recursions.weight_calls": per_verdict(tracer.count("recursions.weight_calls"), "count/verdict"),
        "cli.self_s": per_verdict(total("cli", "self_s"), "s/verdict"),
        "trace.overhead_frac": {"value": sum(traced.seconds) / sum(plain.seconds) - 1, "unit": "ratio"},
        "wrong_verdict_frac": {"value": len(plain.wrong.keys() | traced.wrong.keys()) / inputs, "unit": "ratio"},
        "resid_over_tol.max": {"value": max(plain.ratios + traced.ratios, default=0.0), "unit": "ratio"},
    }
    metrics.update({name: {"value": value, "unit": "exponent"} for name, value in exponents.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "invrel" / "__init__.py").is_file():
        print(f"error: no invrel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import invrel
    import invrel.cli

    if Path(invrel.__file__).resolve().parent != SRC / "invrel":
        print(f"error: imported invrel from {invrel.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    emit(env=environment(args))
    rng = random.Random(f"{args.workload}:{args.seed}")
    controls = W.controls(args.workload, invrel, rng)
    emit(controls=controls)
    rounds = W.pool(args.workload, invrel, rng)
    inputs = sum(len(r) for r in rounds)

    if args.trace == 0:
        setup_s = setup_seconds()
        plain, traced = run_pool(rounds, invrel, args.seconds)
        metrics = end_to_end(plain, setup_s)
    else:
        tracer = Tracer()
        if tracer.missing:
            emit(missing=tracer.missing)
        plain, traced = run_pool(rounds, invrel, args.seconds, tracer)
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}.tsv.gz")
        metrics = per_layer(plain, traced, inputs, tracer, scaling_exponents(invrel))

    # attempted and failed count distinct inputs of the pool, so both depend
    # on the seed alone; the replays only add timing samples.
    wrong = [plain.wrong.get(i) or traced.wrong[i] for i in sorted(plain.wrong.keys() | traced.wrong.keys())]
    for record in wrong:
        emit(wrong=record)
    failed = len(wrong)
    emit(summary={
        "inputs": inputs,
        "verdicts_timed": len(plain.seconds) + len(traced.seconds),
        "raw_verdicts_per_s": len(plain.seconds) / sum(plain.seconds),
        "raw_verdict_s.p50": statistics.median(plain.seconds),
        "median_speed": statistics.median(clock.local_speeds(plain.references)),
        "beyond_p90": len(plain.seconds) - math.ceil(0.9 * len(plain.seconds)),
        "wrong_by_kind": dict(Counter(w["kind"] for w in wrong)),
        "wrong_verdict_frac": failed / inputs,
        "resid_over_tol.max": max(plain.ratios + traced.ratios, default=0.0),
        "controls_ok": all(c["ok"] for c in controls),
    })
    # Float verdicts over an absolute tolerance are counted as failed but do
    # not make the run incorrect: they are the known absolute-tolerance defect
    # of the float checks, not a wrong computed value.
    correct = all(c["ok"] for c in controls) and all(w["kind"] == "float-tol" for w in wrong)
    print(json.dumps({"correct": correct, "attempted": inputs, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
