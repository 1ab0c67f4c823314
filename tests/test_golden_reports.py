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


@contextlib.contextmanager
def perturbed_gasper():
    """Registry gasper kernels with alpha(3,1) scaled by 1 + 1/1000, so the
    pair is no longer an inversion and the closed forms no longer match."""
    original = families.gasper_kernel

    def kernel(*args, **kwargs):
        base = original(*args, **kwargs)

        def alpha(i, k):
            value = base.alpha(i, k)
            return value * (1 + Fraction(1, 1000)) if (i, k) == (3, 1) else value

        return Kernel(alpha=alpha, beta=base.beta, name=base.name)

    families.gasper_kernel = kernel
    try:
        yield
    finally:
        families.gasper_kernel = original


# (name, argv, exit status, context the run needs or None)
CASES = [
    ("all-presets", ["verify", "--all-presets"], 0, None),
    ("delta-binomial", ["verify", "--family=binomial", "--window=-3..41", DELTA], 0, None),
    ("delta-gasper", ["verify", "--family=gasper", "--params=a=3,b=-5,p=2/13,q=1/3", "--window=0..16", DELTA], 0, None),
    ("delta-schlosser", ["verify", "--family=schlosser", "--params=a=3/5,b=3,c=9,q=1/5", "--window=0..16", DELTA], 0, None),
    ("delta-eds", ["verify", "--family=eds", "--params=w2=1,w3=2,w4=4", "--window=1..12", DELTA], 0, None),
    ("delta-gasper-mixed", ["verify", "--family=gasper", "--params=q=0.2", "--tolerance=1e-9", "--window=0..8", DELTA], 0, None),
    ("perturbed-gasper", ["verify", "--family=gasper", DELTA], 1, perturbed_gasper),
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
