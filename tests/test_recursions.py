"""Tests for the two beta reconstruction routes and their divergence."""

import math
import random
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
        outcomes = {"table": 0, "error": 0, "zero t": 0}
        for _ in range(120):
            lo = rng.randint(-2, 3)
            seed = random_seed(rng, (lo, lo + rng.randint(1, 7)))
            got = table_or_error(beta_table_inversion, seed)
            assert got == table_or_error(reference_inversion_table, seed)
            outcomes["table" if isinstance(got, dict) else "error"] += 1
            lo, hi = seed.window
            outcomes["zero t"] += any(seed.t(k) == 0 for k in range(lo, hi))
        # both outcomes occur, and some seeds have a zero t, which takes the fallback
        assert min(outcomes.values()) >= 10, outcomes

    def test_equals_the_weight_route_on_the_canonical_seed(self):
        for window in ((1, 5), (1, 8), (3, 9)):
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
