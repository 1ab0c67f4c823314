"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``PASS criterion N`` line (visible with ``pytest -s``
or by running this file as a script) and enforces its runtime budget.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from invrel import (
    FactorSequences,
    NodeSequences,
    affine_sequence,
    bilinear_kernel,
    binomial_kernel,
    constant_sequence,
    counterexample_discrepancies,
    divided_difference,
    divided_difference_sum,
    eds_generate,
    eds_kernel,
    eds_property_residual,
    elliptic_sum_closed_entries,
    elliptic_sum_kernel,
    f_entry,
    g_entry,
    gasper_closed_entries,
    gasper_kernel,
    kernel_to_nodes,
    max_anchored_tsi_residual,
    max_qsi_residual,
    max_tsi_residual,
    node_entries,
    pair_from_kernel,
    pair_from_nodes,
    partial_theta_kernel,
    partial_theta_slope_quotient,
    partial_theta_slope_series,
    product_ratio_kernel,
    schlosser_kernel,
    verify_inversion,
    warnaar_kernel,
    weierstrass_addition_residual,
)

GASPER_PARAMS = (Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))
SCHLOSSER_PARAMS = (Fraction(1, 2), Fraction(2), Fraction(7), Fraction(1, 3))


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.seconds}s"
            )


def _done(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_binomial_kernel():
    with _Budget(1.0):
        kernel = binomial_kernel()
        report = verify_inversion(pair_from_kernel(kernel, (0, 8)))
        assert report.passed and report.mode == "exact"
        assert all(v == 0 for v in report.residuals.values())
        assert all(v == 0 for v in report.transposed_residuals.values())
        assert max_tsi_residual(kernel, (-2, 4)) == 0
    _done(1, "binomial kernel delta exact on [0,8], triple sum zero on [-2,4]^4")


def test_criterion_02_gasper_family():
    with _Budget(5.0):
        kernel = gasper_kernel(*GASPER_PARAMS)
        assert max_tsi_residual(kernel, (-2, 4)) == 0
        report = verify_inversion(pair_from_kernel(kernel, (0, 6)))
        assert report.passed and report.worst == 0
        closed_f, closed_g = gasper_closed_entries(*GASPER_PARAMS)
        for k in range(0, 6):
            for n in range(k, 6):
                assert closed_f(n, k) == f_entry(kernel, n, k)
                assert closed_g(n, k) == g_entry(kernel, n, k)
    _done(2, "bibasic family: triple sum, delta, and closed forms all exact")


def test_criterion_03_schlosser_family():
    with _Budget(5.0):
        kernel = schlosser_kernel(*SCHLOSSER_PARAMS)
        assert max_tsi_residual(kernel, (-2, 3)) == 0
        report = verify_inversion(pair_from_kernel(kernel, (0, 6)))
        assert report.passed and report.worst == 0
    _done(3, "three-parameter family: triple sum and delta exact")


def test_criterion_04_counterexample_table():
    def poly(coeffs_desc, k):
        out = Fraction(0)
        for c in coeffs_desc:
            out = out * k + c
        return out

    with _Budget(1.0):
        for k in range(1, 6):
            gap2, gap3, gap4 = counterexample_discrepancies(k)
            assert gap2 == 0
            expected3 = poly((8, 32, 32, 5), k) / poly((8, 36, 52, 24), k)
            assert gap3 == expected3
        assert counterexample_discrepancies(1)[1] == Fraction(77, 120)
        assert counterexample_discrepancies(2)[1] == Fraction(87, 112)
        for k in (1, 2):
            gap4 = counterexample_discrepancies(k)[2]
            f_val = poly(
                (3072, 56320, 451904, 2085376, 6115168, 11884320,
                 15498308, 13457624, 7592100, 2669648, 540883, 47328),
                k,
            )
            g_val = poly((48, 544, 2452, 5656, 7216, 5232, 2175, 464), k)
            prefactor = Fraction(
                2 * k + 7,
                8 * (k + 1) * (k + 2) * (k + 3) * (2 * k + 3) * (2 * k + 5),
            )
            assert gap4 == prefactor * f_val / g_val
    _done(4, "recursion counterexample matches its printed rational functions exactly")


def test_criterion_05_divided_differences():
    rng = random.Random(20250809)
    with _Budget(1.0):
        for _ in range(100):
            n = rng.randint(1, 8)
            nodes = set()
            while len(nodes) < n + 1:
                nodes.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            shifts = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)
            )
            h = lambda x: math.prod((x + a for a in shifts), start=1)
            sum_form = divided_difference_sum(h, tuple(nodes))
            assert sum_form == 0
            assert divided_difference(h, tuple(nodes)) == sum_form
    _done(5, "divided differences: sum form exactly zero and equal to recursion, 100 trials")


def test_criterion_06_node_inversion_and_round_trip():
    rng = random.Random(12345)

    def nonzero():
        v = 0
        while v == 0:
            v = rng.randint(-5, 5)
        return Fraction(v)

    with _Budget(5.0):
        for _ in range(50):
            tables = {name: {n: nonzero() for n in range(0, 6)} for name in "abm"}
            base, svals = rng.randint(-8, 8), {}
            for n in range(0, 6):
                base += rng.randint(1, 3)
                svals[n] = Fraction(base)
            seqs = NodeSequences(
                a=lambda n, t=tables["a"]: t[n],
                b=lambda n, t=tables["b"]: t[n],
                s=lambda n: svals[n],
                m=lambda n, t=tables["m"]: t[n],
            )
            report = verify_inversion(pair_from_nodes(seqs, (0, 5)))
            assert report.passed and report.worst == 0

        for kernel in (binomial_kernel(), gasper_kernel(*GASPER_PARAMS)):
            lo, hi = 0, 5
            seqs = kernel_to_nodes(kernel, pivot=lo - 3)
            for k in range(lo, hi + 1):
                for n in range(k, hi + 1):
                    f_val, g_val = node_entries(seqs, n, k)
                    assert f_val == f_entry(kernel, n, k)
                    assert g_val == g_entry(kernel, n, k)
    _done(6, "node inversions exact for 50 random sequence sets; pivot round-trip exact")


def test_criterion_07_identity_equivalence():
    rng = random.Random(777)

    def nonzero():
        v = 0
        while v == 0:
            v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 3))

    xs = {i: nonzero() for i in range(-4, 6)}
    ys = {i: nonzero() for i in range(-4, 6)}
    ts = {i: nonzero() for i in range(-4, 6)}
    seq_tables = {name: {i: nonzero() for i in range(-4, 6)} for name in "abxy"}
    eds_seq = eds_generate(1, -1, 1, 16)

    suites = [
        (binomial_kernel(), (-2, 4)),
        (gasper_kernel(*GASPER_PARAMS), (-2, 4)),
        (schlosser_kernel(*SCHLOSSER_PARAMS), (-2, 3)),
        (
            product_ratio_kernel(
                FactorSequences(x=lambda i: xs[i], y=lambda i: ys[i], t=lambda i: ts[i])
            ),
            (-2, 3),
        ),
        (
            bilinear_kernel(
                a=lambda n: seq_tables["a"][n], b=lambda n: seq_tables["b"][n],
                x=lambda n: seq_tables["x"][n], y=lambda n: seq_tables["y"][n],
            ),
            (-2, 3),
        ),
        (eds_kernel(eds_seq), (1, 6)),
    ]
    with _Budget(20.0):
        for kernel, window in suites:
            assert max_tsi_residual(kernel, window) == 0, kernel.name
            assert max_qsi_residual(kernel, window) == 0, kernel.name
            assert max_anchored_tsi_residual(kernel, window) == 0, kernel.name
    _done(7, "triple, quintuple, and anchored identities vanish together per exact family")


def test_criterion_08_warnaar_family():
    with _Budget(5.0):
        kernel = warnaar_kernel(0.1, affine_sequence(2.0, 0.1), affine_sequence(0.3, 0.05))
        report = verify_inversion(pair_from_kernel(kernel, (0, 4)), tol=1e-9)
        assert report.passed and report.worst < 1e-9
        rng = random.Random(4242)
        for _ in range(10):
            x, y, u, v = (round(rng.uniform(0.2, 0.95), 3) for _ in range(4))
            assert abs(weierstrass_addition_residual(x, y, u, v, 0.1)) < 1e-10
    _done(8, "theta-factor family delta under 1e-9; addition residual under 1e-10 x10")


def test_criterion_09_partial_theta_family():
    with _Budget(5.0):
        q = 0.1
        rng = random.Random(9999)
        for _ in range(10):
            x = round(rng.uniform(-0.5, 0.5), 3)
            y = round(rng.uniform(-0.5, 0.5), 3)
            if x == y:
                y += 0.01
            series = partial_theta_slope_series(x, y, q)
            quotient = partial_theta_slope_quotient(x, y, q)
            assert abs(series - quotient) / max(abs(series), abs(quotient)) < 1e-10
        kernel = partial_theta_kernel(q, affine_sequence(1.0, 0.1), affine_sequence(0.2, 0.05))
        report = verify_inversion(pair_from_kernel(kernel, (0, 3)), tol=1e-8)
        assert report.passed and report.worst < 1e-8
    _done(9, "slope kernel paths agree to 1e-10 x10; partial-theta delta under 1e-8")


def test_criterion_10_elliptic_sum_family():
    with _Budget(5.0):
        args = (0.3, 0.7, 0.4, 0.1)
        kernel = elliptic_sum_kernel(*args, t_seq=constant_sequence(1.0))
        report = verify_inversion(pair_from_kernel(kernel, (0, 3)), tol=1e-8)
        assert report.passed and report.worst < 1e-8
        closed_f, _ = elliptic_sum_closed_entries(*args, t_seq=constant_sequence(1.0))
        for k in range(0, 4):
            for n in range(k, 4):
                assert abs(closed_f(n, k) - f_entry(kernel, n, k)) < 1e-10
    _done(10, "elliptic-factorial family delta under 1e-8; closed F within 1e-10")


def test_criterion_11_eds_family():
    with _Budget(2.0):
        seq = eds_generate(1, -1, 1, 16)
        for n in range(-10, 11):
            assert seq.recurrence_residual(n) == 0
        for k, p, q in product(range(-8, 9), repeat=3):
            assert eds_property_residual(seq, k, p, q) == 0
        kernel = eds_kernel(seq, window=(1, 6))
        report = verify_inversion(pair_from_kernel(kernel, (1, 6)))
        assert report.passed and report.worst == 0
    _done(11, "divisibility sequence: recurrence, property, and delta all exact")


ALL_CRITERIA = [
    test_criterion_01_binomial_kernel,
    test_criterion_02_gasper_family,
    test_criterion_03_schlosser_family,
    test_criterion_04_counterexample_table,
    test_criterion_05_divided_differences,
    test_criterion_06_node_inversion_and_round_trip,
    test_criterion_07_identity_equivalence,
    test_criterion_08_warnaar_family,
    test_criterion_09_partial_theta_family,
    test_criterion_10_elliptic_sum_family,
    test_criterion_11_eds_family,
]


if __name__ == "__main__":
    failures = 0
    for idx, criterion in enumerate(ALL_CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL criterion {idx}: {exc}")
    raise SystemExit(1 if failures else 0)
