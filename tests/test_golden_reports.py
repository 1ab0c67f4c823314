"""Golden reports: the CLI's stdout and exit code, byte for byte, with every
``elapsed_ms`` masked.

Each case's expected stdout is ``tests/data/reports/<name>.json``.  A change
that is meant to alter a report regenerates the files with

    PYTHONPATH=src python3 tests/test_golden_reports.py

and the diff of ``tests/data/reports/`` then shows exactly what changed.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from invrel import Kernel, families
from invrel.cli import main

REPORTS = Path(__file__).resolve().parent / "data" / "reports"
ELAPSED = re.compile(r'("elapsed_ms": )[^,\n}]+')

DELTA = "--checks=delta,closed-form"
SWEEPS = "--checks=antisym,tsi,qsi,cond3"


@contextlib.contextmanager
def gasper_scaled(table: str, at: tuple[int, int]):
    """Registry gasper kernels with the one ``table`` ("alpha" or "beta")
    entry ``at`` scaled by 1 + 1/1000."""
    original = families.gasper_kernel

    def kernel(*args, **kwargs):
        base = original(*args, **kwargs)
        values = {"alpha": base.alpha, "beta": base.beta}
        exact = values[table]

        def bumped(i, k):
            value = exact(i, k)
            return value * (1 + Fraction(1, 1000)) if (i, k) == at else value

        values[table] = bumped
        return Kernel(**values, name=base.name)

    families.gasper_kernel = kernel
    try:
        yield
    finally:
        families.gasper_kernel = original


def perturbed_gasper():
    """alpha(3,1) scaled: the pair is no longer an inversion, the closed forms
    no longer match, and no sweep's identity holds."""
    return gasper_scaled("alpha", (3, 1))


def one_sided_beta():
    """beta(3,1) scaled without beta(1,3), so beta is no longer antisymmetric."""
    return gasper_scaled("beta", (3, 1))


# (name, argv, exit status, context the run needs or None)
CASES = [
    ("all-presets", ["verify", "--all-presets"], 0, None),
    ("delta-binomial", ["verify", "--family=binomial", "--window=-3..41", DELTA], 0, None),
    ("delta-gasper", ["verify", "--family=gasper", "--params=a=3,b=-5,p=2/13,q=1/3", "--window=0..16", DELTA], 0, None),
    ("delta-schlosser", ["verify", "--family=schlosser", "--params=a=3/5,b=3,c=9,q=1/5", "--window=0..16", DELTA], 0, None),
    ("delta-eds", ["verify", "--family=eds", "--params=w2=1,w3=2,w4=4", "--window=1..12", DELTA], 0, None),
    ("delta-gasper-mixed", ["verify", "--family=gasper", "--params=q=0.2", "--tolerance=1e-9", "--window=0..8", DELTA], 0, None),
    ("delta-schlosser-mixed", ["verify", "--family=schlosser", "--params=q=0.2", "--tolerance=1e-9", "--window=0..8", DELTA], 0, None),
    ("perturbed-gasper", ["verify", "--family=gasper", DELTA], 1, perturbed_gasper),
    ("perturbed-sweeps", ["verify", "--family=gasper", SWEEPS], 1, perturbed_gasper),
    ("one-sided-beta", ["verify", "--family=gasper", SWEEPS], 1, one_sided_beta),
    ("singular-closed-form", ["verify", "--family=gasper", "--params=a=5,b=7,p=1/5,q=1/5", "--window=0..16", DELTA], 1, None),
    ("eds", ["eds", "--seeds=1,-1,1", "--n=12"], 0, None),
    ("counterexample", ["counterexample", "--k=1..3"], 0, None),
]


def run(argv, context) -> tuple[int, str]:
    """``(exit status, stdout with every elapsed_ms masked)`` of one CLI run."""
    out = io.StringIO()
    with context() if context else contextlib.nullcontext(), contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, ELAPSED.sub(r'\1"masked"', out.getvalue())


@pytest.mark.parametrize("name, argv, code, context", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, context):
    got_code, got = run(argv, context)
    assert got == (REPORTS / f"{name}.json").read_text()
    assert got_code == code


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, argv, code, context in CASES:
        got_code, text = run(argv, context)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (REPORTS / f"{name}.json").write_text(text)
        print(f"wrote {name}.json")
