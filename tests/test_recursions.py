"""Tests for the two beta reconstruction routes and their divergence."""

import math
import random
from collections import Counter
import re
from fractions import Fraction

import pytest

from invrel import recursions
from invrel import (
    BetaSeed,
    DomainError,
    Kernel,
    MissingBeta,
    ZeroDenominator,
    ZeroDiagonal,
    beta_closed_tsi,
    beta_from_inversion,
    beta_step_tsi,
    beta_table_inversion,
    beta_table_tsi,
    counterexample_discrepancies,
    counterexample_reference,
    f_weight,
    g_weight,
    max_tsi_residual,
    pair_from_kernel,
    verify_inversion,
)


def sum_seed(window):
    # the canonical divergent seed: alpha(i,j) = i+j, t(j) = j
    return BetaSeed(
        alpha=lambda i, j: Fraction(i + j),
        t=lambda j: Fraction(j),
        window=window,
    )


def int_sum_seed(window):
    # the same seed on int values, as counterexample_discrepancies builds it
    return BetaSeed(alpha=lambda i, j: i + j, t=lambda j: j, window=window)


def random_seed(rng, window):
    lo, hi = window
    alpha_vals = {}
    for i in range(lo - 1, hi + 2):
        for j in range(lo - 1, hi + 2):
            v = 0
            while v == 0:
                v = rng.randint(-6, 6)
            alpha_vals[(i, j)] = Fraction(v, rng.randint(1, 3))
    t_vals = {j: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for j in range(lo, hi)}
    return BetaSeed(
        alpha=lambda i, j: alpha_vals[(i, j)],
        t=lambda j: t_vals[j],
        window=window,
    )


def reference_inversion_table(seed):
    # the window-delta route solved through the weights alone, gap by gap
    lo, hi = seed.window
    table = {(k, k + 1): seed.t(k) for k in range(lo, hi)}
    for gap in range(2, hi - lo + 1):
        for k in range(lo, hi - gap + 1):
            table[(k, k + gap)] = beta_from_inversion(seed, k, k + gap, table)
    return table


def stepped_tsi_table(seed):
    # the triple-sum route as iterated beta_step_tsi calls, row by row
    lo, hi = seed.window
    table = {}
    for k in range(lo, hi):
        table[(k, k + 1)] = seed.t(k)
        for n in range(k + 2, hi + 1):
            table[(k, n)] = beta_step_tsi(seed, table[(k, n - 1)], k, n)
    return table


def table_or_error(build, seed):
    try:
        return build(seed)
    except ZeroDenominator as err:
        return (err.k, err.n, err.g_values)


def antisymmetric_kernel(seed, table):
    def beta(i, k):
        if i == k:
            return Fraction(0)
        return table[(i, k)] if i < k else -table[(k, i)]

    return Kernel(alpha=seed.alpha, beta=beta, name="inversion-route")


class TestTripleSumRoute:
    def test_gap_one_is_the_seed(self):
        seed = sum_seed((1, 5))
        assert beta_closed_tsi(seed, 2, 3) == 2
        assert beta_table_tsi(seed)[(2, 3)] == 2

    def test_hand_value(self):
        seed = sum_seed((1, 5))
        # one step from beta(1,2) = 1: (5/4)*1 + (3/4)*2
        assert beta_step_tsi(seed, Fraction(1), 1, 3) == Fraction(11, 4)
        assert beta_closed_tsi(seed, 1, 3) == Fraction(11, 4)

    def test_constant_alpha_unit_seed_counts_gap(self):
        # alpha = 1, t = 1: each step adds 1, so beta(k, n) = n - k
        seed = BetaSeed(alpha=lambda i, j: 1, t=lambda j: 1, window=(0, 8))
        for k in range(0, 8):
            for n in range(k + 1, 9):
                assert beta_closed_tsi(seed, k, n) == n - k

    def test_closed_matches_iterated_step(self):
        rng = random.Random(321)
        for _ in range(50):
            seed = random_seed(rng, (0, 6))
            for k in range(0, 6):
                value = seed.t(k)
                for n in range(k + 2, 7):
                    value = beta_step_tsi(seed, value, k, n)
                    assert value == beta_closed_tsi(seed, k, n)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDiagonal):
            BetaSeed(alpha=lambda i, j: Fraction(i + j), t=lambda j: 1, window=(0, 3))

    @pytest.mark.parametrize("route, error, message", [
        (lambda seed: beta_step_tsi(seed, 1, -1, 1), ZeroDiagonal, "alpha(0,0) = 0 in beta step (-1,1)"),
        (lambda seed: beta_closed_tsi(seed, 2, 1), DomainError, "beta_closed_tsi requires k <= n, got (2,1)"),
        (lambda seed: beta_closed_tsi(seed, 0, 2), ZeroDiagonal, "alpha(0,0) = 0 in beta(0,2)"),
        # alpha(-2,-2) = -4 divides the first term, and alpha(0,0) = 0 its product
        (lambda seed: beta_closed_tsi(seed, -2, 1), ZeroDiagonal, "alpha(0,0) = 0 in beta(-2,1)"),
    ])
    def test_routes_guard_index_order_and_diagonal(self, route, error, message):
        seed = BetaSeed(alpha=lambda i, j: Fraction(i + j), t=lambda j: 1, window=(1, 3))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            route(seed)

    def test_exact_table_gives_the_stepped_values_and_types(self):
        # int and Fraction seeds step on int pairs; the table must hold what
        # beta_step_tsi gives, key order and types included: the raw t(k) at
        # gap 1 and Fractions from gap 2 on
        rng = random.Random(31)
        for draw in range(80):
            lo = rng.randint(-5, -1)
            seed = random_seed(rng, (lo, lo + rng.randint(1, 8)))
            if draw % 2:
                seed = BetaSeed(
                    alpha=lambda i, j, s=seed: s.alpha(i, j).numerator,
                    t=lambda j, s=seed: s.t(j).numerator,
                    window=seed.window,
                )
            table, expected = beta_table_tsi(seed), stepped_tsi_table(seed)
            assert list(table.items()) == list(expected.items())
            assert all(type(v) is (type(seed.t(k)) if n - k == 1 else Fraction) for (k, n), v in table.items())

    @pytest.mark.parametrize("alpha, t, expected", [
        # float alpha and t
        (lambda i, j: 0.5 * i + j + 0.25, lambda j: 1.5 * j - 0.2, {
            (-1, 1): "-0x1.f99999999999ap+2", (0, 2): "0x1.f15f15f15f160p-3", (1, 3): "0x1.d1b91b91b91b9p+1",
            (-1, 2): "-0x1.9333333333333p+3", (0, 3): "0x1.64fe4fe4fe4ffp+0", (-1, 3): "-0x1.042f42f42f42fp+4",
        }),
        # Fraction alpha, float t
        (lambda i, j: Fraction(i + j + 7), lambda j: j + 0.1, {
            (-1, 1): "-0x1.e2be2be2be2bdp-1", (0, 2): "0x1.16c16c16c16c2p+0", (1, 3): "0x1.8df6b0df6b0e0p+1",
            (-1, 2): "-0x1.895895895894ep-3", (0, 3): "0x1.73f9cb3f9cb40p+1", (-1, 3): "0x1.5157fe3a122cfp+0",
        }),
        # float alpha, Fraction t
        (lambda i, j: (i + j + 7) / 3, lambda j: Fraction(j), {
            (-1, 1): "-0x1.2492492492492p+0", (0, 2): "0x1.c71c71c71c71cp-1", (1, 3): "0x1.745d1745d1747p+1",
            (-1, 2): "-0x1.f7df7df7df7ddp-2", (0, 3): "0x1.4d9364d9364dap+1", (-1, 3): "0x1.d5e32fa7578cep-1",
        }),
    ])
    def test_float_and_mixed_tables_keep_their_bits(self, alpha, t, expected):
        table = beta_table_tsi(BetaSeed(alpha=alpha, t=t, window=(-1, 3)))
        assert {kn: v.hex() for kn, v in table.items() if kn[1] - kn[0] >= 2} == expected
        for k in range(-1, 3):
            assert table[(k, k + 1)] == t(k) and type(table[(k, k + 1)]) is type(t(k))

    @pytest.mark.parametrize("window", [(2, 3), (-1, 5)])
    @pytest.mark.parametrize("alpha_type, t_type", [
        (Fraction, Fraction), (int, int), (float, float), (Fraction, float), (float, Fraction),
    ], ids=["fraction", "int", "float", "fraction-alpha-float-t", "float-alpha-fraction-t"])
    def test_table_reads_each_t_and_alpha_value_once(self, window, alpha_type, t_type):
        reads = Counter()

        def alpha(i, j):
            reads[(i, j)] += 1
            return alpha_type(i + j + 7)

        def t(j):
            reads[j] += 1
            return t_type(j)

        seed = BetaSeed(alpha=alpha, t=t, window=window)
        expected = stepped_tsi_table(seed)
        reads.clear()  # the seed reads its diagonal on construction
        assert beta_table_tsi(seed) == expected
        # each step reads alpha(m,m+1), alpha(m,k), alpha(m,m) and t(m), m = n-1
        lo, hi = window
        needed = set(range(lo, hi))
        for m in range(lo + 1, hi):
            needed |= {(m, m + 1), (m, m)} | {(m, k) for k in range(lo, m)}
        assert set(reads) == needed and set(reads.values()) == {1}

    def test_reconstruction_consistent_for_tsi_kernels(self):
        # when alpha admits a triple-sum-compatible beta, the reconstruction
        # from (alpha, first superdiagonal) must return exactly that beta
        from invrel import gasper_kernel

        kernel = gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))
        seed = BetaSeed(
            alpha=kernel.alpha, t=lambda k: kernel.beta(k, k + 1), window=(0, 5)
        )
        table = beta_table_tsi(seed)
        for (k, n), value in table.items():
            assert value == kernel.beta(k, n)

        def rebuilt_beta(i, k):
            if i == k:
                return Fraction(0)
            return table[(i, k)] if i < k else -table[(k, i)]

        assert max_tsi_residual(Kernel(kernel.alpha, rebuilt_beta), (0, 5)) == 0


class TestWeights:
    def test_interior_g_weight_single_alpha(self):
        # n = k+2, i = k+1: only pair (k, k+2) is gap-2 and excluded
        seed = sum_seed((1, 5))
        betas = {(1, 2): seed.t(1), (2, 3): seed.t(2)}
        assert g_weight(seed.alpha, betas, 1, 3, 2) == -seed.alpha(2, 2)

    def test_boundary_f_weights(self):
        seed = sum_seed((1, 5))
        betas = {(1, 2): seed.t(1), (2, 3): seed.t(2)}
        assert f_weight(seed.alpha, betas, 1, 3, 1) == seed.t(2) * seed.alpha(2, 1)
        assert f_weight(seed.alpha, betas, 1, 3, 3) == seed.t(1) * seed.alpha(2, 3)

    def test_missing_beta_is_named(self):
        seed = sum_seed((1, 5))
        with pytest.raises(MissingBeta, match=r"beta\(1,3\)"):
            f_weight(seed.alpha, {(1, 2): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1}, 1, 4, 2)

    def test_sign_of_a_zero_float_weight(self):
        # f(0,3;0) = -beta(1,2) beta(1,3) beta(2,3) alpha(1,0) alpha(2,0): an
        # exact 0 beta times float betas is 0.0, and the sign makes it -0.0
        betas = {(1, 2): 0, (1, 3): 2.0, (2, 3): 3.0}
        for weight in (f_weight, g_weight):
            value = weight(lambda i, k: 1.5, betas, 0, 3, 0)
            assert value == 0 and math.copysign(1, value) == -1


class TestInversionRoute:
    def test_gap_two_closed_formula(self):
        # beta(k, k+2) = (alpha(k+1,k+2) t_k + alpha(k+1,k) t_{k+1}) / alpha(k+1,k+1)
        rng = random.Random(77)
        for _ in range(50):
            seed = random_seed(rng, (0, 4))
            for k in range(0, 3):
                expected = (
                    seed.alpha(k + 1, k + 2) * seed.t(k)
                    + seed.alpha(k + 1, k) * seed.t(k + 1)
                ) / seed.alpha(k + 1, k + 1)
                assert beta_from_inversion(seed, k, k + 2, {}) == expected

    def test_gap_two_agrees_with_triple_sum_route(self):
        rng = random.Random(13)
        for _ in range(50):
            seed = random_seed(rng, (0, 4))
            for k in range(0, 3):
                assert beta_from_inversion(seed, k, k + 2, {}) == beta_closed_tsi(
                    seed, k, k + 2
                )

    def test_hand_value(self):
        seed = sum_seed((1, 5))
        assert beta_from_inversion(seed, 1, 3, {}) == Fraction(11, 4)

    def test_needs_gap_at_least_two(self):
        with pytest.raises(DomainError):
            beta_from_inversion(sum_seed((1, 5)), 1, 2, {})

    def test_missing_shorter_gap(self):
        seed = sum_seed((1, 6))
        with pytest.raises(MissingBeta):
            beta_from_inversion(seed, 1, 4, {})  # gap-2 values absent

    def test_zero_denominator_reported(self):
        # alpha = 1, t = 1: the gap-3 g-weights cancel pairwise
        seed = BetaSeed(alpha=lambda i, j: 1, t=lambda j: 1, window=(0, 4))
        table = {(k, k + 2): beta_from_inversion(seed, k, k + 2, {}) for k in (0, 1)}
        with pytest.raises(ZeroDenominator) as excinfo:
            beta_from_inversion(seed, 0, 3, table)
        err = excinfo.value
        assert (err.k, err.n) == (0, 3)
        assert sum(err.g_values) == 0 and any(g != 0 for g in err.g_values)
        # the table route meets the same undetermined constraint, with the same payload
        with pytest.raises(ZeroDenominator) as excinfo:
            beta_table_inversion(seed)
        assert (excinfo.value.k, excinfo.value.n, excinfo.value.g_values) == (0, 3, err.g_values)


class TestInversionTable:
    # beta_table_inversion solves each constraint on the induced pair's F/G
    # tables; the weights of beta_from_inversion are the reference.

    def test_equals_the_weight_route_on_random_seeds(self):
        rng = random.Random(2024)
        outcomes = {"table": 0, "error": 0, "zero t": 0, "wide table": 0}
        for _ in range(200):
            lo = rng.randint(-2, 3)
            seed = random_seed(rng, (lo, lo + rng.randint(1, 9)))
            got = table_or_error(beta_table_inversion, seed)
            assert got == table_or_error(reference_inversion_table, seed)
            outcomes["table" if isinstance(got, dict) else "error"] += 1
            lo, hi = seed.window
            outcomes["zero t"] += any(seed.t(k) == 0 for k in range(lo, hi))
            outcomes["wide table"] += hi - lo >= 8 and isinstance(got, dict) and 0 not in got.values()
        # both outcomes occur, some seeds have a zero t, which takes the fallback,
        # and some tables of width 9-10, where the unreduced F and G grow most,
        # have no zero entry
        assert min(outcomes.values()) >= 10, outcomes

    def test_equals_the_weight_route_on_the_canonical_seed(self):
        # 12 indices, past every window the random seeds draw, where the unreduced F and G grow most
        for window in ((1, 5), (1, 8), (3, 9), (1, 12)):
            seed = sum_seed(window)
            assert beta_table_inversion(seed) == reference_inversion_table(seed)

    @pytest.fixture
    def weight_route_calls(self, monkeypatch):
        # every (k, n) that beta_table_inversion hands to the reference route
        calls = []

        def counted(seed, k, n, known_betas):
            calls.append((k, n))
            return beta_from_inversion(seed, k, n, known_betas)

        monkeypatch.setattr(recursions, "beta_from_inversion", counted)
        return calls

    @staticmethod
    def every_entry_of_gap_two_or_more(seed):
        lo, hi = seed.window
        return [(k, k + gap) for gap in range(2, hi - lo + 1) for k in range(lo, hi - gap + 1)]

    def test_zero_solved_beta_takes_the_fallback(self, weight_route_calls):
        # beta(0,3) solves to 0, so F(3,0) and G(3,0) are undefined and the
        # weights solve the whole table
        t_values = (-2, 2, 2, -2, 1)
        seed = BetaSeed(
            alpha=lambda i, j: Fraction(1 if i == j else i + j + 1),
            t=lambda j: Fraction(t_values[j]),
            window=(0, 5),
        )
        table = beta_table_inversion(seed)
        assert table[(0, 3)] == 0
        assert table == reference_inversion_table(seed)
        assert weight_route_calls == self.every_entry_of_gap_two_or_more(seed)

    def test_defined_pair_never_calls_the_weights(self, weight_route_calls):
        seeds = [sum_seed(window) for window in ((1, 5), (1, 8), (3, 9))]
        rng = random.Random(7)
        while len(seeds) < 28:
            lo = rng.randint(-2, 3)
            seed = random_seed(rng, (lo, lo + rng.randint(2, 7)))
            reference = table_or_error(reference_inversion_table, seed)
            if isinstance(reference, dict) and all(v != 0 for v in reference.values()):
                seeds.append(seed)  # every t, S and solved beta is nonzero
        for seed in seeds:
            assert beta_table_inversion(seed) == reference_inversion_table(seed)
        assert weight_route_calls == []

    def test_zero_t_takes_the_weights_for_every_entry(self, weight_route_calls):
        seed = BetaSeed(
            alpha=lambda i, j: Fraction(1 if i == j else i + j + 1),
            t=lambda j: Fraction(j),
            window=(0, 5),
        )
        assert beta_table_inversion(seed) == reference_inversion_table(seed)
        assert weight_route_calls == self.every_entry_of_gap_two_or_more(seed)

    @pytest.mark.parametrize("alpha, t, expected", [
        # float alpha and t
        (lambda i, j: 0.5 * i + j + 0.25, lambda j: 1.5 * j - 0.2, {
            (1, 3): "0x1.d1b91b91b91b8p+1", (2, 4): "0x1.b2308158ed231p+2", (3, 5): "0x1.3b851eb851eb8p+3",
            (1, 4): "0x1.0b74d443bfc83p+3", (2, 5): "0x1.ca588a9622b6ep+2", (1, 5): "0x1.bc1a31ed8c827p+2",
        }),
        # Fraction alpha, float t
        (lambda i, j: Fraction(i + j), lambda j: j + 0.1, {
            (1, 3): "0x1.799999999999bp+1", (2, 4): "0x1.4222222222222p+2", (3, 5): "0x1.c4cccccccccccp+2",
            (1, 4): "0x1.9799999999988p+2", (2, 5): "0x1.37f507507508bp+3", (1, 5): "0x1.bbdf264af3b01p+3",
        }),
        # float alpha, Fraction t
        (lambda i, j: (i + j) / 3, lambda j: Fraction(j), {
            (1, 3): "0x1.6000000000000p+1", (2, 4): "0x1.3555555555555p+2", (3, 5): "0x1.b800000000000p+2",
            (1, 4): "0x1.7666666666660p+2", (2, 5): "0x1.26db6db6db6e5p+3", (1, 5): "0x1.78539ecc1605ap+3",
        }),
    ])
    def test_float_and_mixed_seeds_keep_their_bits(self, alpha, t, expected):
        # these seeds take the Scalar loop, rounding included
        table = beta_table_inversion(BetaSeed(alpha=alpha, t=t, window=(1, 5)))
        assert {kn: v.hex() for kn, v in table.items() if kn[1] - kn[0] >= 2} == expected
        for k in range(1, 5):
            assert table[(k, k + 1)] == t(k) and type(table[(k, k + 1)]) is type(t(k))

    def test_int_seed_keeps_the_raw_t_and_gives_fractions(self):
        table = beta_table_inversion(BetaSeed(alpha=lambda i, j: i + j, t=lambda j: j, window=(1, 6)))
        assert table == reference_inversion_table(sum_seed((1, 6)))
        assert all(type(v) is (int if n - k == 1 else Fraction) for (k, n), v in table.items())

    @pytest.mark.parametrize("window", [(1, 2), (1, 5), (3, 9)])
    @pytest.mark.parametrize("alpha_type, t_type", [
        (Fraction, Fraction), (float, float), (Fraction, float), (float, Fraction),
    ], ids=["exact", "float", "fraction-alpha-float-t", "float-alpha-fraction-t"])
    def test_seeds_read_the_scalar_loops_alpha_pairs_once_each(self, window, alpha_type, t_type):
        reads = Counter()

        def alpha(i, j):
            reads[(i, j)] += 1
            return alpha_type(i + j)

        seed = BetaSeed(alpha=alpha, t=lambda j: t_type(j), window=window)
        reads.clear()  # the seed reads its diagonal on construction
        expected = reference_inversion_table(sum_seed(window))
        if float in (alpha_type, t_type):
            expected = pytest.approx(expected, rel=1e-9)
        assert beta_table_inversion(seed) == expected
        # what the Scalar loop reads: alpha(k,k) for each F(k+1,k) and G(k+1,k),
        # then alpha(n-1,k), alpha(k,k), alpha(k+1,n), alpha(k+1,k+1) per step
        lo, hi = window
        scalar_loop = {(k, k) for k in range(lo, hi)}
        for gap in range(2, hi - lo + 1):
            for k in range(lo, hi - gap + 1):
                n = k + gap
                scalar_loop |= {(n - 1, k), (k, k), (k + 1, n), (k + 1, k + 1)}
        assert set(reads) == scalar_loop and set(reads.values()) == {1}

    def test_table_passes_delta_exactly_and_a_perturbation_fails(self):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            lo = rng.randint(-1, 2)
            window = (lo, lo + rng.randint(2, 5))
            seed = random_seed(rng, window)
            try:
                table = beta_table_inversion(seed)
            except ZeroDenominator:
                continue
            if any(v == 0 for v in table.values()):
                continue  # the induced pair is undefined
            report = verify_inversion(pair_from_kernel(antisymmetric_kernel(seed, table), window))
            assert report.passed and report.mode == "exact" and report.worst_value == 0
            # negative control: one entry of gap 2 or more, moved by 1, breaks delta
            k, n = rng.choice([kn for kn, v in table.items() if kn[1] - kn[0] >= 2 and v != -1])
            table[(k, n)] += 1
            report = verify_inversion(pair_from_kernel(antisymmetric_kernel(seed, table), window))
            assert not report.passed and report.worst_value != 0
            checked += 1


class Degree:
    """Upper bounds ``(deg num, deg den)`` of an unreduced rational function
    of one variable, carried through ``+ - *``, negation and ``1/x``; an int
    is a constant.  ``==`` is always False: a generic value is nonzero, so no
    zero guard fires on it."""

    def __init__(self, num: int, den: int = 0):
        self.num, self.den = num, den

    @staticmethod
    def of(value) -> "Degree":
        return value if isinstance(value, Degree) else Degree(0)

    def __add__(self, other) -> "Degree":
        o = Degree.of(other)
        return Degree(max(self.num + o.den, o.num + self.den), self.den + o.den)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other) -> "Degree":
        o = Degree.of(other)
        return Degree(self.num + o.num, self.den + o.den)

    __rmul__ = __mul__

    def __neg__(self) -> "Degree":
        return self

    def __rtruediv__(self, other) -> "Degree":
        o = Degree.of(other)
        return Degree(o.num + self.den, o.den + self.num)

    def __eq__(self, other) -> bool:
        return False

    __hash__ = None


class TestCounterexample:
    def test_gap_two_always_agrees(self):
        for k in range(1, 6):
            assert counterexample_discrepancies(k)[0] == 0

    def test_gap_three_known_values(self):
        assert counterexample_discrepancies(1)[1] == Fraction(77, 120)
        assert counterexample_discrepancies(2)[1] == Fraction(87, 112)

    def test_matches_reference_closed_forms(self):
        for k in range(1, 6):
            assert counterexample_discrepancies(k) == counterexample_reference(k)

    def test_matches_reference_for_every_k_the_benchmark_draws(self):
        for k in range(1, 65):
            got = counterexample_discrepancies(k)
            assert got == counterexample_reference(k), k
            assert all(type(v) is Fraction for v in got), k

    def test_matches_reference_for_every_k(self, monkeypatch):
        """A proof by evaluation that each discrepancy is its printed rational
        function of k.  The canonical seed on window ``(k, k+4)`` is linear
        in k in every value, so running the unmodified tables and reference on
        :class:`Degree` values bounds the degree ``D`` of the numerator of
        code minus reference; a numerator that vanishes at ``D + 1`` points
        is zero.  Soundness:

        * The bound run takes the Scalar loops (a Degree is not exact) and
          the CLI's evaluations the int-pair loops.  Both solve the same
          formula; here they must give the same values at every point.
        * A point counts only if no divisor vanishes there.  A zero ``t``,
          ``S`` or solved beta sends the solve to the weight route, which is
          made to raise here; any other zero divisor raises on its own.
        * So the identity holds as rational functions, and the program's
          output equals the printed forms at every integer ``k >= 1`` where
          no divisor vanishes.  A ``k`` where one does would take the weight
          route; excluding such a ``k`` is open.
        """
        k = Degree(1)
        seed = BetaSeed(alpha=lambda i, j: 2 * k + i + j, t=lambda j: k + j, window=(0, 4))
        inv, tsi = beta_table_inversion(seed), beta_table_tsi(seed)
        with monkeypatch.context() as m:  # the reference's Fraction(num, den) as num * (1/den)
            m.setattr(recursions, "Fraction", lambda num, den=1: num * (1 / Degree.of(den)))
            reference = counterexample_reference(k)
        bounds = [(inv[0, gap] - tsi[0, gap] - want).num for gap, want in zip((2, 3, 4), reference)]
        points = range(1, max(bounds) + 2)

        def fallback(*args):
            raise AssertionError(f"weight route taken at {args[1:3]}")

        monkeypatch.setattr(recursions, "beta_from_inversion", fallback)
        on_pairs = [counterexample_discrepancies(k) for k in points]
        monkeypatch.setattr(recursions, "is_exact", lambda value: False)
        on_scalars = [counterexample_discrepancies(k) for k in points]
        assert on_pairs == on_scalars == [counterexample_reference(k) for k in points]

    def test_triple_sum_row_is_the_closed_form(self):
        # the CLI reads row k of the TSI table; the paper's closed form must agree there
        for k in range(1, 65):
            seed = int_sum_seed((k, k + 4))
            tsi = beta_table_tsi(seed)
            for gap in (2, 3, 4):
                assert tsi[k, k + gap] == beta_closed_tsi(seed, k, k + gap), (k, gap)

    def test_int_and_fraction_seeds_give_the_same_tables(self):
        # why the int seed changes no report: from gap 2 on, both tables hold
        # the same Fractions; at gap 1 each holds its own seed's t
        for k in range(1, 21):
            window = (k, k + 4)
            for build in (beta_table_inversion, beta_table_tsi):
                on_ints, on_fractions = build(int_sum_seed(window)), build(sum_seed(window))
                assert list(on_ints) == list(on_fractions)
                for (i, n), v in on_ints.items():
                    w = on_fractions[i, n]
                    assert v == w, (build.__name__, i, n)
                    want = (int, Fraction) if n - i == 1 else (Fraction, Fraction)
                    assert (type(v), type(w)) == want, (build.__name__, i, n)

    def test_reference_equals_a_fraction_horner_evaluation(self):
        def horner(coeffs_desc, k):
            out = Fraction(0)
            for c in coeffs_desc:
                out = out * k + c
            return out

        f = (3072, 56320, 451904, 2085376, 6115168, 11884320,
             15498308, 13457624, 7592100, 2669648, 540883, 47328)
        g = (48, 544, 2452, 5656, 7216, 5232, 2175, 464)
        for k in [*range(1, 201), 10**6, 10**30]:
            gap3 = horner((8, 32, 32, 5), k) / horner((8, 36, 52, 24), k)
            scale = Fraction(2 * k + 7, 8 * (k + 1) * (k + 2) * (k + 3) * (2 * k + 3) * (2 * k + 5))
            gap4 = scale * horner(f, k) / horner(g, k)
            got = counterexample_reference(k)
            assert got == (0, gap3, gap4) and all(type(v) is Fraction for v in got)

    def test_requires_positive_k(self):
        with pytest.raises(DomainError):
            counterexample_discrepancies(0)

    def test_routes_genuinely_differ(self):
        seed = sum_seed((1, 5))
        tsi = beta_table_tsi(seed)
        inv = beta_table_inversion(seed)
        assert inv[(1, 2)] == tsi[(1, 2)]
        assert inv[(1, 3)] == tsi[(1, 3)]
        assert inv[(1, 4)] != tsi[(1, 4)]
        assert inv[(1, 5)] != tsi[(1, 5)]

    def test_delta_passes_exactly_where_triple_sum_fails(self):
        # The headline claim as its own negative control: the window-delta
        # route's beta, extended antisymmetrically, gives a pair that passes
        # the delta check exactly while the triple sum identity fails.
        seed = sum_seed((1, 5))
        kernel = antisymmetric_kernel(seed, beta_table_inversion(seed))
        report = verify_inversion(pair_from_kernel(kernel, (1, 5)))
        assert report.passed and report.mode == "exact" and report.worst_value == 0
        assert max_tsi_residual(kernel, (1, 5)) == Fraction(-3124407, 123340)
