"""Tests for entry builders, node sequences, and the window verifier."""

import contextlib
import dataclasses
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from test_golden_reports import one_sided_beta
from test_sweeps import TAMPERINGS, shifted, tamperings

from invrel import (
    FAMILIES,
    Kernel,
    NodeSequences,
    PivotDegenerate,
    TriangularPair,
    VerificationError,
    ZeroDenominator,
    ZeroDiagonal,
    ZeroDivisor,
    binomial_kernel,
    eds_generate,
    eds_kernel,
    f_entry,
    g_entry,
    gasper_closed_entries,
    gasper_kernel,
    kernel_to_nodes,
    max_antisymmetry_residual,
    max_qsi_residual,
    max_tsi_residual,
    node_entries,
    pair_from_entries,
    pair_from_kernel,
    pair_from_nodes,
    schlosser_kernel,
    verify_inversion,
)
from invrel import kernels
from invrel.cli import cmd_verify
from invrel.kernels import check_window, integer_rows, passes, unscale, window_tables, worst_of
from invrel.numerics import Ratio, is_exact

GASPER_PARAMS = (Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))


class TestEntryBuilders:
    def test_diagonal_entries_are_one(self):
        for kernel in (binomial_kernel(), gasper_kernel(*GASPER_PARAMS)):
            for k in (-2, 0, 3):
                assert f_entry(kernel, k, k) == 1
                assert g_entry(kernel, k, k) == 1

    def test_binomial_values(self):
        kernel = binomial_kernel()
        assert f_entry(kernel, 3, 1) == Fraction(1, 2)
        assert g_entry(kernel, 3, 1) == Fraction(1, 2)
        for k in (-1, 0, 4):
            assert g_entry(kernel, k + 1, k) == -1

    def test_gasper_matches_closed_form(self):
        kernel = gasper_kernel(*GASPER_PARAMS)
        closed_f, closed_g = gasper_closed_entries(*GASPER_PARAMS)
        for k in range(0, 6):
            for n in range(k, 6):
                assert f_entry(kernel, n, k) == closed_f(n, k)
                assert g_entry(kernel, n, k) == closed_g(n, k)

    def test_zero_divisor_names_indices(self):
        kernel = Kernel(alpha=lambda i, k: 1, beta=lambda i, k: i - k - 1, name="shifted")
        with pytest.raises(ZeroDivisor, match=r"beta\(2,1\)"):
            f_entry(kernel, 3, 1)

    def test_zero_diagonal(self):
        kernel = Kernel(alpha=lambda i, k: i, beta=lambda i, k: i - k)
        with pytest.raises(ZeroDiagonal):
            g_entry(kernel, 0, -2)

    @pytest.mark.parametrize("entry", [
        lambda: f_entry(binomial_kernel(), 1, 2),
        lambda: g_entry(binomial_kernel(), 1, 2),
        lambda: node_entries(NodeSequences(*(lambda n: 1,) * 4), 1, 2),
    ])
    def test_requires_lower_triangle(self, entry):
        from invrel import DomainError

        with pytest.raises(DomainError, match=re.escape("requires n >= k, got (1,2)")):
            entry()


class TestVerifyInversion:
    def test_identity_pair(self):
        delta = lambda n, k: 1 if n == k else 0
        pair = pair_from_entries(lambda n, k: (delta(n, k), delta(n, k)), (-3, 3))
        report = verify_inversion(pair)
        assert report.passed and report.worst == 0 and report.mode == "exact"

    def test_binomial_window(self):
        pair = pair_from_kernel(binomial_kernel(), (0, 8))
        report = verify_inversion(pair)
        assert report.passed
        assert all(v == 0 for v in report.residuals.values())
        assert all(v == 0 for v in report.transposed_residuals.values())

    def test_both_composition_orders_agree(self):
        # mismatched F and G fail in both orders; matched ones pass in both
        binom = pair_from_kernel(binomial_kernel(), (0, 5))
        gasp = pair_from_kernel(gasper_kernel(*GASPER_PARAMS), (0, 5))
        broken = TriangularPair(binom.F, gasp.G, (0, 5))
        report = verify_inversion(broken)
        assert not report.passed
        assert any(v != 0 for v in report.residuals.values())
        assert any(v != 0 for v in report.transposed_residuals.values())

    def test_tolerance_mode(self):
        delta = lambda n, k: 1.0 if n == k else 0.0
        pair = pair_from_entries(lambda n, k: (delta(n, k) + 1e-12, delta(n, k)), (0, 3))
        ok = verify_inversion(pair, tol=1e-6)
        assert ok.passed and ok.mode == "tolerance" and ok.tol == 1e-6
        assert not verify_inversion(pair, tol=1e-15).passed

    def test_exact_mode_rejects_drift(self):
        delta = lambda n, k: 1 if n == k else 0
        pair = pair_from_entries(lambda n, k: (delta(n, k) + Fraction(1, 10**30), delta(n, k)), (0, 2))
        assert not verify_inversion(pair).passed

    def test_nonpositive_tolerance_rejected(self):
        from invrel import DomainError

        pair = pair_from_kernel(binomial_kernel(), (0, 2))
        with pytest.raises(DomainError):
            verify_inversion(pair, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_that_is_not_finite_is_rejected(self, tol):
        from invrel import DomainError

        # worst residual 1/3: an infinite tolerance would pass it vacuously
        entries = lambda n, k: (Fraction(1, 3) if n > k else int(n == k), int(n == k))
        pair = pair_from_entries(entries, (0, 1))
        assert not verify_inversion(pair).passed
        with pytest.raises(DomainError, match="tolerance must be finite and positive"):
            verify_inversion(pair, tol)

    def test_residual_past_float_range_fails_with_infinite_worst(self):
        pair = TriangularPair([[1], [Fraction(10**400), 1]], [[1], [0, 1]], (0, 1))
        report = verify_inversion(pair)
        assert not report.passed and report.worst == math.inf
        assert report.worst_value == 10**400
        tolerant = verify_inversion(pair, 1e-9)
        assert not tolerant.passed and tolerant.worst == math.inf

    def test_nonpositive_tolerance_rejected_before_entries(self):
        from invrel import DomainError

        # tables that cannot be composed: only the tolerance check can raise
        with pytest.raises(DomainError):
            verify_inversion(TriangularPair(None, None, (0, 2)), tol=-1.0)


class TestPairFromEntries:
    def test_entry_error_names_its_entry(self):
        def entries(n, k):
            if (n, k) == (2, 1):
                raise ZeroDivisor("beta(2,1) = 0")
            return 1, 1

        with pytest.raises(ZeroDivisor, match=r"^entry \(2,1\): beta\(2,1\) = 0$") as info:
            pair_from_entries(entries, (0, 3))
        assert str(info.value.__cause__) == "beta(2,1) = 0"

    def test_structured_error_passes_through(self):
        error = ZeroDenominator(1, 3, (0, 0))

        def entries(n, k):
            raise error

        with pytest.raises(ZeroDenominator) as info:
            pair_from_entries(entries, (0, 3))
        assert info.value is error


class TestCheckWindow:
    def test_int_bounds(self):
        assert check_window((-2, 3)) == (-2, 3)
        assert check_window((4, 4)) == (4, 4)

    def test_empty_window_is_refused(self):
        from invrel import DomainError

        with pytest.raises(DomainError, match=re.escape("empty window [3,1]")):
            check_window((3, 1))

    @pytest.mark.parametrize(
        "window, shown",
        [
            ((0, 2.7), "(0, 2.7)"),
            ((2.0, 3), "(2.0, 3)"),
            ((Fraction(1, 2), 3), "(Fraction(1, 2), 3)"),
            ((Fraction(1), 3), "(Fraction(1, 1), 3)"),
            ((True, 3), "(True, 3)"),
            ((0, False), "(0, False)"),
        ],
    )
    def test_bound_that_is_not_an_int_is_refused(self, window, shown):
        from invrel import DomainError

        message = f"window {shown}: each bound must be an int"
        with pytest.raises(DomainError, match=re.escape(message)):
            check_window(window)
        # the window is refused before any entry is built, not truncated
        with pytest.raises(DomainError, match=re.escape(message)):
            pair_from_kernel(binomial_kernel(), window)


def validate_kernel_window(kernel: Kernel, window) -> None:
    """The window check that the families ran before any entry was built."""
    lo, hi = window
    for n in range(lo, hi + 1):
        if kernel.alpha(n, n) == 0:
            raise ZeroDiagonal(f"alpha({n},{n}) = 0 on window [{lo},{hi}]")
    for k in range(lo, hi + 1):
        for i in range(lo, hi + 1):
            if i != k and kernel.beta(i, k) == 0:
                raise ZeroDivisor(f"beta({i},{k}) = 0 on window [{lo},{hi}]")


class TestWindowValidation:
    def test_off_diagonal_zero_beta(self):
        kernel = Kernel(alpha=lambda i, k: 1, beta=lambda i, k: i - k - 1)
        with pytest.raises(ZeroDivisor, match=r"beta\(1,0\)"):
            validate_kernel_window(kernel, (0, 3))
        with pytest.raises(ZeroDivisor, match=r"^entry \(1,0\): beta\(1,0\) = 0 in F\(1,0\)$"):
            pair_from_kernel(kernel, (0, 3))

    def test_zero_diagonal_alpha(self):
        kernel = Kernel(alpha=lambda i, k: i + k, beta=lambda i, k: i - k)
        with pytest.raises(ZeroDiagonal):
            validate_kernel_window(kernel, (-1, 1))
        with pytest.raises(ZeroDiagonal, match=r"^entry \(0,0\): alpha\(0,0\) = 0 in G\(0,0\)$"):
            pair_from_kernel(kernel, (-1, 1))

    def test_zero_beta_above_the_diagonal_is_named(self):
        # beta(1,3) divides G(3,1) first, in the gap-2 row of the build
        base = binomial_kernel()
        kernel = Kernel(alpha=base.alpha, beta=lambda i, k: 0 if (i, k) == (1, 3) else base.beta(i, k))
        with pytest.raises(ZeroDivisor, match=r"^entry \(3,1\): beta\(1,3\) = 0 in G\(3,1\)$"):
            pair_from_kernel(kernel, (0, 4))

    def test_pair_from_kernel_validates_eagerly(self):
        cases = [
            # beta(i,i-1) = 0, below the diagonal only
            (Kernel(alpha=lambda i, k: 1, beta=lambda i, k: i - k - 1), ZeroDivisor),
            # beta(0,2) = 0 above the diagonal, beta(2,0) = 2
            (Kernel(alpha=lambda i, k: 1, beta=lambda i, k: 0 if (i, k) == (0, 2) else i - k), ZeroDivisor),
            # alpha(1,1) = 0
            (Kernel(alpha=lambda i, k: i + k - 2, beta=lambda i, k: i - k), ZeroDiagonal),
        ]
        for kernel, error in cases:
            with pytest.raises(error, match=r"^entry \(\d+,\d+\): ") as info:
                pair_from_kernel(kernel, (0, 3))
            assert type(info.value.__cause__) is error
            assert str(info.value).endswith(f": {info.value.__cause__}")
            with pytest.raises(error):
                validate_kernel_window(kernel, (0, 3))

    def test_pair_from_kernel_refuses_what_the_window_check_refuses(self):
        rng = random.Random(4711)
        outcomes = Counter()

        def value():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        for _ in range(400):
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(0, 4)
            idx = range(lo, hi + 1)
            alpha = {(i, k): value() for i in idx for k in idx}
            beta = {(i, k): value() for i in idx for k in idx}
            spots = [(alpha, (n, n)) for n in idx] + [(beta, (i, k)) for i in idx for k in idx if i != k]
            for table, key in rng.sample(spots, min(len(spots), rng.randint(0, 2))):
                table[key] = 0
            kernel = Kernel(alpha=lambda i, k, t=alpha: t[i, k], beta=lambda i, k, t=beta: t[i, k])
            try:
                validate_kernel_window(kernel, (lo, hi))
                expected = None
            except VerificationError as exc:
                expected = type(exc)
            try:
                pair = pair_from_kernel(kernel, (lo, hi))
            except VerificationError as exc:
                assert type(exc) is expected and type(exc.__cause__) is expected
                assert re.match(r"entry \(-?\d+,-?\d+\): ", str(exc))
                outcomes[expected.__name__] += 1
                continue
            assert expected is None
            for k in idx:
                for n in range(k, hi + 1):
                    assert pair.F[n - lo][k - lo] == f_entry(kernel, n, k)
                    assert pair.G[n - lo][k - lo] == g_entry(kernel, n, k)
            outcomes["built"] += 1
        assert min(outcomes[key] for key in ("ZeroDiagonal", "ZeroDivisor", "built")) >= 50

    def test_antisymmetry_residual(self):
        assert max_antisymmetry_residual(binomial_kernel(), (-3, 3)) == 0
        lopsided = Kernel(alpha=lambda i, k: 1, beta=lambda i, k: i + k)
        assert max_antisymmetry_residual(lopsided, (0, 3)) != 0


def counting_kernel(counts: Counter) -> Kernel:
    """The binomial kernel, counting each evaluation per ``(name, i, k)``."""

    def alpha(i, k):
        counts["alpha", i, k] += 1
        return 1

    def beta(i, k):
        counts["beta", i, k] += 1
        return i - k

    return Kernel(alpha=alpha, beta=beta, name="counting")


class TestKernelMemo:
    def test_each_value_is_evaluated_once_across_checks(self):
        counts = Counter()
        kernel = counting_kernel(counts)
        window = (0, 4)
        assert max_tsi_residual(kernel, window) == 0
        assert max_qsi_residual(kernel, window) == 0
        assert verify_inversion(pair_from_kernel(kernel, window)).passed
        assert {key[0] for key in counts} == {"alpha", "beta"}
        assert set(counts.values()) == {1}

    def test_replace_memoises_the_new_callables(self):
        counts = Counter()

        def alpha(i, k):
            counts[i, k] += 1
            return i + k

        kernel = dataclasses.replace(binomial_kernel(), alpha=alpha)
        for _ in range(3):
            assert kernel.alpha(2, 1) == 3
        assert counts == Counter({(2, 1): 1})


class TestSharedTableRead:
    """``window_tables`` keeps the tables of the last ``(kernel, window)``, so
    the checks of one verdict read and scale the window once, in any order."""

    ORDERS = list(permutations(("antisym", "tsi", "qsi", "cond3", "delta")))

    def test_one_verdict_scales_its_window_once(self, monkeypatch):
        scaled = []
        original = kernels.integer_rows

        def counted(rows, per_row=False):
            scaled.append((len(rows), per_row))
            return original(rows, per_row)

        monkeypatch.setattr(kernels, "integer_rows", counted)
        doc = cmd_verify(family="gasper")
        lo, hi = FAMILIES["gasper"].window
        assert [c["name"] for c in doc["checks"]] == list(FAMILIES["gasper"].checks) and doc["passed"]
        assert scaled.count((2 * (hi - lo + 1), False)) == 1

    @pytest.mark.parametrize(
        "family, context",
        [("gasper", contextlib.nullcontext), ("warnaar", contextlib.nullcontext), ("gasper", one_sided_beta)],
        ids=["exact-gasper", "float-warnaar", "one-sided-beta"],
    )
    def test_check_order_leaves_every_worst_residual(self, family, context):
        def worst(order):
            with context():
                doc = cmd_verify(family=family, checks=order)
            return {c["name"]: c["worst_residual"] for c in doc["checks"]}

        want = worst(self.ORDERS[0])
        assert all(worst(order) == want for order in self.ORDERS[1:])

    def test_interleaved_kernels_and_windows_keep_their_own_tables(self):
        gasper = gasper_kernel(*GASPER_PARAMS)
        # the same name and alpha, one beta value moved: equal tables would hide a stale hit
        moved = lambda i, k: gasper.beta(i, k) + (1 if (i, k) == (3, 1) else 0)
        tampered = Kernel(gasper.alpha, moved, name=gasper.name)
        reads = [(gasper, (0, 4)), (tampered, (0, 4)), (gasper, (0, 4)), (gasper, (1, 5)), (gasper, (0, 4))]
        for kernel, (lo, hi) in reads:
            assert window_tables(kernel, (lo, hi)) == kernels._tables.__wrapped__(kernel, lo, hi)
        assert max_antisymmetry_residual(gasper, (0, 4)) == 0
        assert max_antisymmetry_residual(tampered, (0, 4)) == Fraction(1)
        assert max_antisymmetry_residual(gasper, (0, 4)) == 0

    def test_list_window_shares_the_tuple_windows_tables(self):
        kernel = gasper_kernel(*GASPER_PARAMS)
        assert window_tables(kernel, [0, 6]) is window_tables(kernel, (0, 6))

    def test_failed_read_leaves_no_stale_tables(self):
        doc = cmd_verify(family="gasper", params={"q": 1e300}, tolerance=1e-9, checks=("antisym", "tsi"))
        assert doc["error"] == "DomainError: 1e+300**2 overflows" and doc["checks"] == []
        doc = cmd_verify(family="gasper")
        assert doc["passed"] and "error" not in doc


class TestWorstOf:
    def test_largest_magnitude_first_on_ties(self):
        assert worst_of([1, -3, Fraction(5, 2), 3]) == -3
        assert worst_of(iter([0.5, -0.25])) == 0.5

    def test_all_zero_sweep_reports_exact_zero(self):
        # float zeros never replace the exact start, so reports print "0"
        for values in ([], [0.0, -0.0], [0.0j]):
            worst = worst_of(values)
            assert worst == 0 and type(worst) is int

    def test_first_nan_is_the_worst(self):
        nan = float("nan")
        for values in ([nan], [nan, nan], [1.0, nan, 5.0], [0.0, complex(nan, 0)]):
            worst = worst_of(values)
            assert worst != worst
        marked = [1.0, float("-nan"), 5.0, nan]
        assert worst_of(marked) is marked[1]


class TestIntegerRows:
    def test_exact_rows_scale_by_the_common_denominator(self):
        rows = [[Fraction(1, 6), 2], [Fraction(-3, 4), Fraction(0)]]
        int_rows, d = integer_rows(rows)
        assert d == 12 and int_rows == [[2, 24], [-9, 0]]
        assert all(type(v) is int for row in int_rows for v in row)
        assert [[Fraction(v, d) for v in row] for row in int_rows] == rows

    def test_integer_rows_keep_scale_one(self):
        assert integer_rows([[1, -2], [0, 3]]) == ([[1, -2], [0, 3]], 1)

    def test_any_float_leaves_the_rows_unchanged(self):
        for rows in ([[Fraction(1, 3), 0.5]], [[1.0]], [[1, 2j]], [[True, 1]]):
            for per_row in (False, True):
                same, d = integer_rows(rows, per_row=per_row)
                assert same is rows and d is None

    def test_per_row_scales_each_row_by_its_own_denominator(self):
        # ragged rows, as lower-triangular tables and their columns are
        rows = [[Fraction(1, 2)], [Fraction(1, 3), Fraction(-5, 6)], [4, 0, 1], []]
        int_rows, d = integer_rows(rows, per_row=True)
        assert d == [2, 6, 1, 1] and int_rows == [[1], [2, -5], [4, 0, 1], []]
        assert all(type(v) is int for row in int_rows for v in row)
        assert [[Fraction(v, d[i]) for v in row] for i, row in enumerate(int_rows)] == rows


class ExactInt(int):
    pass


class ExactFraction(Fraction):
    pass


class TestIntegerRowsByType:
    """Exactness is decided once per value type, exactly as ``is_exact`` says,
    with :class:`Ratio` exact too."""

    @pytest.mark.parametrize("value", [True, False, ExactInt(3), ExactFraction(2, 3), 0.5, 1j, 7, Fraction(-1, 4)])
    def test_each_type_as_is_exact_says(self, value):
        for per_row in (False, True):
            rows = [[Fraction(1, 6), value], [Ratio(2, -4)]]
            got, d = integer_rows(rows, per_row=per_row)
            assert (d is not None) == is_exact(value)
            if d is None:
                assert got is rows

    def test_subclass_values_scale_to_plain_ints(self):
        rows, d = integer_rows([[ExactInt(3), ExactFraction(2, 3)], [Ratio(-6, 4)]])
        assert (rows, d) == ([[18, 4], [-9]], 6) and all(type(v) is int for row in rows for v in row)

    def test_unreduced_ratios_scale_to_the_least_denominator(self):
        # denominators 8, -20 and 12 have lcm 120; the reduced ones, 1, 5 and 3, have lcm 15
        rows = [[Ratio(8, 8), Ratio(-4, -20)], [Ratio(4, 12), Ratio(0, 7)]]
        assert integer_rows(rows) == ([[15, 3], [5, 0]], 15)
        assert integer_rows([[Ratio(0, 9), Ratio(0, -4)]]) == ([[0, 0]], 1)


def fraction_tables(kernel: Kernel, lo: int, hi: int) -> tuple:
    """The window tables built from each value as its own Fraction, as
    :func:`integer_rows` scales them."""
    idx = range(lo, hi + 1)
    rows = [[Fraction(f(i, k)) for k in idx] for f in (kernel.alpha, kernel.beta) for i in idx]
    scaled, d = integer_rows(rows)
    return scaled[: len(idx)], scaled[len(idx) :], d


EXACT_TABLES = {
    "binomial": (binomial_kernel, ()),
    "gasper-preset": (gasper_kernel, GASPER_PARAMS),
    "gasper-perturbed": (gasper_kernel, (3, -5, Fraction(2, 13), Fraction(1, 3))),
    "gasper-ints": (gasper_kernel, (2, 3, 2, 3)),
    "gasper-integral-fractions": (gasper_kernel, (Fraction(4), Fraction(-1), Fraction(-2), Fraction(5))),
    "schlosser-preset": (schlosser_kernel, (Fraction(1, 2), Fraction(2), Fraction(7), Fraction(1, 3))),
    "schlosser-perturbed": (schlosser_kernel, (Fraction(3, 5), 3, 9, Fraction(1, 5))),
    "schlosser-ints": (schlosser_kernel, (2, 3, 5, 2)),
    "eds-preset": (lambda: eds_kernel(eds_generate(1, -1, 1, 16)), ()),
    "eds-perturbed": (lambda: eds_kernel(eds_generate(2, -3, Fraction(1, 2), 16)), ()),
}


@pytest.mark.parametrize("window", [(0, 6), (1, 5), (-4, -1), (-3, 2)], ids=str)
@pytest.mark.parametrize("family", EXACT_TABLES)
def test_window_tables_are_the_fraction_tables(family, window):
    make, params = EXACT_TABLES[family]
    kernel = make(*params)
    A, B, d, _, _ = window_tables(kernel, window)
    assert (A, B, d) == fraction_tables(kernel, *window)
    assert type(d) is int and all(type(v) is int for row in A + B for v in row)
    assert (kernel.lifted is not None) == family.startswith(("gasper", "schlosser"))


class TestAlternatingFlag:
    """A read's ``alternating`` flag is ``d is not None`` and an exact zero
    antisym residual on the same tables."""

    @staticmethod
    def flag(kernel: Kernel, window) -> bool:
        _, _, d, alternating, _ = window_tables(kernel, window)
        assert alternating is (d is not None and max_antisymmetry_residual(kernel, window) == 0)
        return alternating

    @pytest.mark.parametrize("window", [(0, 6), (-3, 2)], ids=str)
    @pytest.mark.parametrize("family", EXACT_TABLES)
    def test_exact_tables(self, family, window):
        make, params = EXACT_TABLES[family]
        assert self.flag(make(*params), window)

    @pytest.mark.parametrize("tampering", TAMPERINGS)
    @pytest.mark.parametrize("family", ["gasper-preset", "eds-preset"])
    def test_tampered_tables(self, family, tampering):
        make, params = EXACT_TABLES[family]
        alpha, beta, antisymmetric = tamperings((0, 4), 2, 0, Fraction(1, 1000))[tampering]
        assert self.flag(shifted(make(*params), alpha, beta), (0, 4)) is antisymmetric

    def test_float_table(self):
        # an exact antisymmetric beta next to a float alpha: the tables stay unscaled
        kernel = gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), 0.2, window=(0, 6))
        assert max_antisymmetry_residual(kernel, (0, 6)) == 0
        assert self.flag(kernel, (0, 6)) is False


class TestUnscale:
    def test_nonzero_worst_divides_back_to_the_fraction(self):
        assert unscale(-9, 12) == Fraction(-3, 4) and type(unscale(-9, 12)) is Fraction

    def test_degree_counts_the_table_factors(self):
        # a TSI term has two table factors, a QSI term four
        assert unscale(-9, 12, 2) == Fraction(-1, 16) and unscale(6, 2, 4) == Fraction(3, 8)

    def test_zero_stays_the_exact_int(self):
        assert unscale(0, 12) == 0 and type(unscale(0, 12)) is int

    def test_unscaled_sweep_is_unchanged(self):
        value = -5.960464477539063e-08
        assert unscale(value, None) is value


class TestPasses:
    def test_exact_rule_needs_zero(self):
        assert passes(0, None) and passes(Fraction(0), None) and passes(0.0, None)
        assert not passes(Fraction(1, 10**30), None) and not passes(1e-300, None)

    def test_tolerance_rule_bounds_magnitude(self):
        assert passes(-1e-9, 1e-9) and passes(Fraction(-1, 2), 0.5) and passes(3e-10j, 1e-9)
        assert not passes(2e-9, 1e-9)

    def test_nan_never_passes(self):
        nan = float("nan")
        assert not passes(nan, None) and not passes(nan, 1.0) and not passes(complex(nan, 0), 1.0)


def eager_node_check(seqs: NodeSequences, lo: int, hi: int) -> None:
    """The window check that ``pair_from_nodes`` ran before its entries."""
    svals = {n: seqs.s(n) for n in range(lo, hi + 1)}
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            if svals[i] == svals[j]:
                raise ZeroDivisor(f"s({i}) = s({j}) on window [{lo},{hi}]")
    for n in range(lo, hi + 1):
        if seqs.a(n) == 0:
            raise ZeroDivisor(f"a({n}) = 0 on window [{lo},{hi}]")
        if seqs.b(n) == 0:
            raise ZeroDivisor(f"b({n}) = 0 on window [{lo},{hi}]")


class TestNodeSequences:
    def test_diagonal(self):
        seqs = NodeSequences(
            a=lambda n: Fraction(1),
            b=lambda n: Fraction(-1),
            s=lambda n: Fraction(n),
            m=lambda n: Fraction(1),
        )
        assert node_entries(seqs, 2, 2) == (1, 1)

    def test_degenerate_product_sequence(self):
        # s_i = i, a = 1, b = -1, m = 1: F is identically 1 and G collapses
        seqs = NodeSequences(
            a=lambda n: Fraction(1),
            b=lambda n: Fraction(-1),
            s=lambda n: Fraction(n),
            m=lambda n: Fraction(1),
        )
        for k in range(-1, 3):
            for n in range(k, k + 5):
                f_val, g_val = node_entries(seqs, n, k)
                assert f_val == 1
                if n == k:
                    assert g_val == 1
                elif n == k + 1:
                    assert g_val == -1
                else:
                    assert g_val == 0

    def test_random_sequences_invert_exactly(self):
        rng = random.Random(20240811)

        def nonzero():
            v = 0
            while v == 0:
                v = rng.randint(-5, 5)
            return Fraction(v)

        for _ in range(50):
            vals = {
                "a": {n: nonzero() for n in range(0, 6)},
                "b": {n: nonzero() for n in range(0, 6)},
                "m": {n: nonzero() for n in range(0, 6)},
            }
            base = rng.randint(-10, 10)
            svals = {}
            for n in range(0, 6):
                base += rng.randint(1, 4)
                svals[n] = Fraction(base)
            seqs = NodeSequences(
                a=lambda n, t=vals["a"]: t[n],
                b=lambda n, t=vals["b"]: t[n],
                s=lambda n: svals[n],
                m=lambda n, t=vals["m"]: t[n],
            )
            report = verify_inversion(pair_from_nodes(seqs, (0, 5)))
            assert report.passed and report.worst == 0

    def test_every_node_pair_is_a_kernel_pair(self):
        # the node pair of (a, b, s, m) is the kernel pair of
        # alpha(j,k) = (s_k - s_j + a_j b_j m_j) b_{j+1} m_{j+1} / b_j and beta(i,k) = s_k - s_i,
        # a kernel that reads b and m one index past the window
        rng = random.Random(20250109)
        lo, hi = -2, 4
        idx = range(lo - 1, hi + 2)

        def nonzero():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        for _ in range(100):
            vals = {field: {n: nonzero() for n in idx} for field in "abm"}
            den = rng.randint(1, 5)
            vals["s"] = {n: Fraction(v, den) for n, v in zip(idx, rng.sample(range(-30, 30), len(idx)))}
            a, b, s, m = (lambda n, t=vals[field]: t[n] for field in "absm")
            kernel = Kernel(
                alpha=lambda j, k: (s(k) - s(j) + a(j) * b(j) * m(j)) * b(j + 1) * m(j + 1) / b(j),
                beta=lambda i, k: s(k) - s(i),
            )
            nodes = pair_from_nodes(NodeSequences(a, b, s, m), (lo, hi))
            pair = pair_from_kernel(kernel, (lo, hi))
            assert (nodes.F, nodes.G) == (pair.F, pair.G)
            assert max_tsi_residual(kernel, (lo, hi)) == 0

    def test_duplicate_nodes_rejected(self):
        seqs = NodeSequences(
            a=lambda n: 1, b=lambda n: 1, s=lambda n: n * n, m=lambda n: 1
        )
        with pytest.raises(ZeroDivisor, match="s"):
            pair_from_nodes(seqs, (-2, 2))  # s(-1) == s(1)
        distinct = dataclasses.replace(seqs, s=lambda n: n)
        for seqs, factor in (
            (seqs, "s(-1) = s(1)"),
            (dataclasses.replace(distinct, a=lambda n: 1 - n), "a(1) = 0"),
            (dataclasses.replace(distinct, b=lambda n: 1 - n), "b(1) = 0"),
        ):
            with pytest.raises(ZeroDivisor, match=r"^entry \(-?\d+,-?\d+\): " + re.escape(factor)) as info:
                pair_from_nodes(seqs, (-2, 2))
            assert type(info.value.__cause__) is ZeroDivisor
            assert str(info.value).endswith(f": {info.value.__cause__}")
        # s = 0, 1, 1: F(2,0) divides by s(0) - s(i) only, G(2,0) by s(2) - s(1) = 0
        repeated = dataclasses.replace(distinct, s=lambda n: min(n, 1))
        with pytest.raises(ZeroDivisor, match=re.escape("s(2) = s(1) in node G(2,0)")):
            node_entries(repeated, 2, 0)

    def test_pair_from_nodes_refuses_what_the_window_check_refuses(self):
        rng = random.Random(1729)
        outcomes = Counter()

        def nonzero():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        for _ in range(400):
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(0, 4)
            idx = range(lo, hi + 1)
            vals = {field: {n: nonzero() for n in idx} for field in "abm"}
            vals["s"] = dict(zip(idx, rng.sample(range(-20, 20), len(idx))))
            for _ in range(rng.randint(0, 2)):
                field, n = rng.choice("abs"), rng.choice(idx)
                vals[field][n] = vals["s"][rng.choice(idx)] if field == "s" else 0
            seqs = NodeSequences(*(lambda n, t=vals[field]: t[n] for field in "absm"))
            try:
                eager_node_check(seqs, lo, hi)
                expected = None
            except ZeroDivisor:
                expected = ZeroDivisor
            try:
                pair = pair_from_nodes(seqs, (lo, hi))
            except VerificationError as exc:
                assert type(exc) is expected and type(exc.__cause__) is expected
                assert re.match(r"entry \(-?\d+,-?\d+\): ", str(exc))
                outcomes["refused"] += 1
                continue
            assert expected is None
            for k in idx:
                for n in range(k, hi + 1):
                    assert (pair.F[n - lo][k - lo], pair.G[n - lo][k - lo]) == node_entries(seqs, n, k)
            outcomes["built"] += 1
        assert min(outcomes.values()) >= 50 and len(outcomes) == 2


class TestKernelToNodes:
    def test_binomial_round_trip(self):
        kernel = binomial_kernel()
        seqs = kernel_to_nodes(kernel, pivot=-5)
        for k in range(0, 5):
            for n in range(k, 5):
                f_val, g_val = node_entries(seqs, n, k)
                assert f_val == f_entry(kernel, n, k)
                assert g_val == g_entry(kernel, n, k)

    def test_gasper_round_trip(self):
        kernel = gasper_kernel(*GASPER_PARAMS)
        seqs = kernel_to_nodes(kernel, pivot=-3)
        for k in range(0, 5):
            for n in range(k, 5):
                f_val, g_val = node_entries(seqs, n, k)
                assert f_val == f_entry(kernel, n, k)
                assert g_val == g_entry(kernel, n, k)

    def test_pivot_degenerate(self):
        seqs = kernel_to_nodes(binomial_kernel(), pivot=2)
        with pytest.raises(PivotDegenerate):
            seqs.s(2)  # beta(p, p) = 0
