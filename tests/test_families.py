"""Tests for every concrete kernel family and the generic solution patterns."""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from invrel import (
    DEFAULT_POLICY,
    FAMILIES,
    DegenerateParams,
    DomainError,
    EdsSequence,
    FactorSequences,
    IndexOutOfTable,
    ZeroBeta,
    ZeroDivisor,
    affine_sequence,
    bilinear_kernel,
    binomial_closed_entries,
    binomial_kernel,
    constant_sequence,
    eds_closed_entries,
    eds_generate,
    eds_kernel,
    eds_property_residual,
    elliptic_pochhammer,
    elliptic_sum_closed_entries,
    elliptic_sum_kernel,
    f_entry,
    g_entry,
    gasper_kernel,
    max_anchored_tsi_residual,
    max_antisymmetry_residual,
    max_qsi_residual,
    max_recurrence_residual,
    max_tsi_residual,
    pair_from_kernel,
    partial_theta,
    partial_theta_kernel,
    product_ratio_kernel,
    prod_range,
    schlosser_closed_entries,
    schlosser_kernel,
    theta,
    tsi_residual,
    verify_inversion,
    warnaar_kernel,
    weierstrass_addition_residual,
)
from invrel.numerics import exact_div, is_exact, power


def rational_nonzero(rng, span=5):
    v = 0
    while v == 0:
        v = rng.randint(-span, span)
    return Fraction(v, rng.randint(1, 3))


class TestProductRatioKernel:
    def test_first_superdiagonal_is_the_seed(self):
        seqs = FactorSequences(
            x=lambda i: Fraction(2), y=lambda i: Fraction(3), t=lambda i: Fraction(i)
        )
        kernel = product_ratio_kernel(seqs)
        for k in (-3, 0, 4):
            assert kernel.beta(k, k + 1) == k + 1

    def test_hand_sum(self):
        # x_i = 2, y_i = 3, t_i = 1:
        # beta(0,2) = t_1 x_2 + t_2 / x_1 = 2 + 1/2
        seqs = FactorSequences(
            x=lambda i: Fraction(2), y=lambda i: Fraction(3), t=lambda i: Fraction(1)
        )
        kernel = product_ratio_kernel(seqs)
        assert kernel.beta(0, 2) == Fraction(5, 2)

    def test_triple_sum_holds_for_random_sequences(self):
        rng = random.Random(1001)
        for _ in range(20):
            xs = {i: rational_nonzero(rng) for i in range(-4, 7)}
            ys = {i: rational_nonzero(rng) for i in range(-4, 7)}
            ts = {i: rational_nonzero(rng) for i in range(-4, 7)}
            kernel = product_ratio_kernel(
                FactorSequences(x=lambda i: xs[i], y=lambda i: ys[i], t=lambda i: ts[i])
            )
            assert max_tsi_residual(kernel, (-2, 5)) == 0

    def test_partial_sum_telescoping(self):
        # beta(k,n)/(X_k X_n) + beta(n,m)/(X_n X_m) = beta(k,m)/(X_k X_m)
        rng = random.Random(55)
        xs = {i: rational_nonzero(rng) for i in range(-4, 7)}
        seqs = FactorSequences(
            x=lambda i: xs[i], y=lambda i: Fraction(1), t=lambda i: Fraction(1)
        )
        kernel = product_ratio_kernel(seqs)
        X = lambda m: Fraction(prod_range(seqs.x, 1, m))
        for k, n, m in product(range(-2, 5), repeat=3):
            lhs = kernel.beta(k, n) / (X(k) * X(n)) + kernel.beta(n, m) / (X(n) * X(m))
            assert lhs == kernel.beta(k, m) / (X(k) * X(m))

    def test_delta_on_window(self):
        rng = random.Random(31)
        xs = {i: rational_nonzero(rng) for i in range(-2, 7)}
        ys = {i: rational_nonzero(rng) for i in range(-2, 7)}
        kernel = product_ratio_kernel(
            FactorSequences(x=lambda i: xs[i], y=lambda i: ys[i], t=lambda i: Fraction(1))
        )
        assert verify_inversion(pair_from_kernel(kernel, (0, 5))).passed

    def test_zero_x_is_reported(self):
        seqs = FactorSequences(
            x=lambda i: Fraction(i), y=lambda i: Fraction(1), t=lambda i: Fraction(1)
        )
        kernel = product_ratio_kernel(seqs)
        with pytest.raises(ZeroDivisor):
            kernel.beta(-2, 3)  # partial sums cross x_0 = 0

    @pytest.mark.parametrize("x, y, entry, message", [
        # X(-3) X(-2) = 1e-600 * 1e-400 underflows to 0
        (constant_sequence(1e200), constant_sequence(1.0), lambda kern: kern.beta(-3, 0),
         "x partial product through -2 vanishes"),
        (constant_sequence(1.0), lambda i: float(i != 2), lambda kern: kern.alpha(2, 0),
         "y partial product through 2 vanishes"),
    ])
    def test_vanishing_partial_product_is_named(self, x, y, entry, message):
        kernel = product_ratio_kernel(FactorSequences(x=x, y=y, t=constant_sequence(1.0)))
        with pytest.raises(ZeroDivisor, match=f"^{message}$"):
            entry(kernel)


class TestBilinearKernel:
    def test_diagonal_beta_vanishes(self):
        kernel = bilinear_kernel(
            a=lambda n: Fraction(n), b=lambda n: Fraction(1),
            x=lambda n: Fraction(1), y=lambda n: Fraction(n),
        )
        for k in range(-3, 4):
            assert kernel.beta(k, k) == 0

    def test_recovers_sum_alpha_with_consistent_beta(self):
        # a_n = n, b_n = 1, x_k = 1, y_k = k gives alpha(k,n) = k+n and
        # beta(k,n) = n-k, a triple-sum-compatible completion of that alpha
        kernel = bilinear_kernel(
            a=lambda n: Fraction(n), b=lambda n: Fraction(1),
            x=lambda n: Fraction(1), y=lambda n: Fraction(n),
        )
        for k, n in product(range(-3, 4), repeat=2):
            assert kernel.alpha(k, n) == k + n
            assert kernel.beta(k, n) == n - k
        assert max_tsi_residual(kernel, (-2, 3)) == 0

    def test_triple_sum_holds_for_random_sequences(self):
        rng = random.Random(2002)
        for _ in range(20):
            seqs = {
                name: {i: rational_nonzero(rng) for i in range(-3, 6)}
                for name in "abxy"
            }
            kernel = bilinear_kernel(
                a=lambda n: seqs["a"][n], b=lambda n: seqs["b"][n],
                x=lambda n: seqs["x"][n], y=lambda n: seqs["y"][n],
            )
            assert max_tsi_residual(kernel, (-2, 4)) == 0


class TestBinomialFamily:
    def test_closed_entries(self):
        kernel = binomial_kernel()
        closed_f, closed_g = binomial_closed_entries()
        for k in range(0, 7):
            for n in range(k, 7):
                assert closed_f(n, k) == f_entry(kernel, n, k)
                assert closed_g(n, k) == g_entry(kernel, n, k)


class TestGasperFamily:
    PARAMS = (Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))

    def test_beta_diagonal_vanishes(self):
        kernel = gasper_kernel(*self.PARAMS)
        for k in range(-3, 4):
            assert kernel.beta(k, k) == 0

    def test_antisymmetry(self):
        assert max_antisymmetry_residual(gasper_kernel(*self.PARAMS), (-3, 3)) == 0

    def test_degenerate_a(self):
        with pytest.raises(DegenerateParams):
            gasper_kernel(Fraction(0), Fraction(3), Fraction(1, 5), Fraction(1, 7))

    def test_degenerate_p(self):
        with pytest.raises(DegenerateParams):
            gasper_kernel(Fraction(2), Fraction(3), Fraction(1), Fraction(1, 7))
        with pytest.raises(DegenerateParams):
            gasper_kernel(Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 7))

    def test_window_admissibility_catches_beta_zero(self):
        # b/a = p^5 makes the second beta factor vanish whenever k+i = 5
        p = Fraction(1, 5)
        with pytest.raises(DegenerateParams, match=r"beta"):
            gasper_kernel(Fraction(2), 2 * p**5, p, Fraction(1, 7), window=(0, 4))
        # built without a window, the kernel is refused by its pair, in the first entry beta(3,2) divides
        kernel = gasper_kernel(Fraction(2), 2 * p**5, p, Fraction(1, 7))
        with pytest.raises(ZeroDivisor, match=r"^entry \(3,2\): beta\(3,2\) = 0 in F\(3,2\)$"):
            pair_from_kernel(kernel, (0, 4))


class TestSchlosserFamily:
    PARAMS = (Fraction(1, 2), Fraction(2), Fraction(7), Fraction(1, 3))

    def test_beta_diagonal_vanishes(self):
        kernel = schlosser_kernel(*self.PARAMS)
        for k in range(-3, 4):
            assert kernel.beta(k, k) == 0

    def test_antisymmetry(self):
        assert max_antisymmetry_residual(schlosser_kernel(*self.PARAMS), (-3, 3)) == 0

    def test_triple_sum_exact(self):
        assert max_tsi_residual(schlosser_kernel(*self.PARAMS), (-2, 3)) == 0

    def test_delta_exact(self):
        pair = pair_from_kernel(schlosser_kernel(*self.PARAMS), (0, 6))
        report = verify_inversion(pair)
        assert report.passed and report.mode == "exact"

    def test_closed_entries(self):
        kernel = schlosser_kernel(*self.PARAMS)
        closed_f, closed_g = schlosser_closed_entries(*self.PARAMS)
        for k in range(0, 7):
            for n in range(k, 7):
                assert closed_f(n, k) == f_entry(kernel, n, k)
                assert closed_g(n, k) == g_entry(kernel, n, k)

    def test_degenerate_params(self):
        with pytest.raises(DegenerateParams):
            schlosser_kernel(Fraction(1), Fraction(0), Fraction(7), Fraction(1, 3))
        # c chosen to kill beta(1,0) on the window
        a, b, q = Fraction(1, 2), Fraction(2), Fraction(1, 3)
        c = (a + b) * (a + b * q)
        with pytest.raises(DegenerateParams):
            schlosser_kernel(a, b, c, q, window=(0, 3))
        with pytest.raises(ZeroDivisor, match=r"^entry \(1,0\): beta\(1,0\) = 0 in F\(1,0\)$"):
            pair_from_kernel(schlosser_kernel(a, b, c, q), (0, 3))

    @pytest.mark.parametrize("q", [0, 1, -1])
    def test_degenerate_base(self, q):
        a, b, c, _ = self.PARAMS
        with pytest.raises(DegenerateParams, match=r"q not in \{0, 1, -1\}"):
            schlosser_kernel(a, b, c, Fraction(q))


# The printed kernel formulas, each factor evaluated where it is met.
PRINTED = {
    gasper_kernel: (
        lambda a, b, p, q, i, k: (1 - a * power(p, k) * power(q, i)) * (1 - b * power(p, -k) * power(q, i)),
        lambda a, b, p, q, i, k: (power(p, i) - power(p, k)) * (1 - exact_div(b, a) * power(p, -k - i)),
    ),
    schlosser_kernel: (
        lambda a, b, c, q, i, k: (power(q, k) - exact_div(power(q, i), b)) * (
            c - (a + b * power(q, k)) * (a + power(q, i))),
        lambda a, b, c, q, i, k: (power(q, k) - power(q, i)) * (c - (a + b * power(q, k)) * (a + b * power(q, i))),
    ),
}
FORMULA_WINDOW = range(-4, 7)


def outcome(f, *args):
    """``(type, repr)`` of ``f(*args)``, or of the exception it raises, with its message."""
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


def assert_matches_printed(kernel, build, params):
    """Every alpha and beta of ``kernel`` on ``FORMULA_WINDOW`` squared is the
    printed formula's value for ``build(*params)``, type and repr included, or
    raises its exception with its message.  All-exact params are read as
    Fractions, so that every value is a Fraction, an int one included."""
    printed = tuple(map(Fraction, params)) if all(map(is_exact, params)) else params
    for read, formula in zip((kernel.alpha, kernel.beta), PRINTED[build]):
        for i, k in product(FORMULA_WINDOW, repeat=2):
            assert outcome(read, i, k) == outcome(formula, *printed, i, k), (build.__name__, params, i, k)


def random_params(rng, build, exact):
    """Nonzero parameters for ``build``, each base (gasper's p and q,
    schlosser's q) also not a unit: ints and Fractions when ``exact``, else
    float bases and each other parameter a float or a Fraction."""

    def draw(base):
        v = rational_nonzero(rng)
        while base and abs(v) == 1:
            v = rational_nonzero(rng)
        if not exact and (base or rng.random() < 0.5):
            return float(v) * rng.uniform(0.5, 1.5)
        return int(v) if exact and v.denominator == 1 and rng.random() < 0.5 else v

    bases = (2, 3) if build is gasper_kernel else (3,)
    return tuple(draw(j in bases) for j in range(4))


class TestKernelsMatchPrintedFormulas:
    @pytest.mark.parametrize("build", [gasper_kernel, schlosser_kernel], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_random_draws(self, build, exact):
        rng = random.Random(1700 + exact)
        for _ in range(40):
            params = random_params(rng, build, exact)
            assert_matches_printed(build(*params), build, params)

    @pytest.mark.parametrize("build, params", [
        (gasper_kernel, (2, 3, 5, 7)),
        (gasper_kernel, (Fraction(2), Fraction(3), Fraction(1, 5), 1e300)),
        (gasper_kernel, (2.0, 3.0, 1e-200, 0.5)),
        (gasper_kernel, (Fraction(10**400), Fraction(3), 0.5, Fraction(1, 7))),
        (schlosser_kernel, (Fraction(1, 2), Fraction(2), Fraction(7), 1e300)),
        (schlosser_kernel, (Fraction(1, 2), Fraction(10**400), Fraction(7), 0.5)),
        (schlosser_kernel, (Fraction(1, 2), 2.0, float("inf"), 0.5)),
    ], ids=["gasper-ints", "gasper-q-overflow", "gasper-p-overflow", "gasper-huge-a", "schlosser-q-overflow",
            "schlosser-huge-b", "schlosser-inf-c"])
    def test_fixed_params(self, build, params):
        assert_matches_printed(build(*params), build, params)

    @pytest.mark.parametrize("build", [gasper_kernel, schlosser_kernel], ids=lambda b: b.__name__)
    def test_factors_are_per_kernel(self, build):
        first, second = (Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7)), (3, -5, Fraction(2, 13), 0.25)
        kernels = build(*first), build(*second)
        assert kernels[0].alpha(2, 1) != kernels[1].alpha(2, 1)
        for kernel, params in zip(kernels, (first, second)):
            assert_matches_printed(kernel, build, params)


class TestExactLiftEdges:
    """Exact params, all-int ones included, run the formulas on unreduced int
    pairs; every value is the printed formula's on the params as Fractions,
    type and repr included, and a Fraction."""

    @pytest.mark.parametrize("build, params", [
        (gasper_kernel, (3, -5, 2, 7)),
        (schlosser_kernel, (2, 3, 7, 3)),
        (gasper_kernel, (2, 3, Fraction(1, 5), 7)),
        (gasper_kernel, (Fraction(2), 3, 5, 7)),
        (schlosser_kernel, (1, 2, Fraction(7), 3)),
        (gasper_kernel, (2, 3, Fraction(-1, 5), Fraction(-2, 7))),
        (schlosser_kernel, (Fraction(1, 2), -2, 7, Fraction(-1, 3))),
        (gasper_kernel, (Fraction(10**400, 7), Fraction(3), Fraction(1, 5), Fraction(1, 7))),
        (schlosser_kernel, (Fraction(1, 2), Fraction(10**400, 3), Fraction(7), Fraction(1, 3))),
    ], ids=["gasper-ints", "schlosser-ints", "gasper-one-fraction", "gasper-integral-fraction",
            "schlosser-integral-fraction", "gasper-negative-bases", "schlosser-negative-q",
            "gasper-huge-numerator", "schlosser-huge-numerator"])
    def test_fixed_params(self, build, params):
        kernel = build(*params)
        assert_matches_printed(kernel, build, params)
        types = {type(read(i, k)) for read in (kernel.alpha, kernel.beta) for i, k in product(FORMULA_WINDOW, repeat=2)}
        assert types == {Fraction}


WARNAAR_Q = 0.1
WARNAAR_B = affine_sequence(2.0, 0.1)
WARNAAR_X = affine_sequence(0.3, 0.05)


class TestWarnaarFamily:
    def kernel(self):
        return warnaar_kernel(WARNAAR_Q, WARNAAR_B, WARNAAR_X)

    def test_beta_diagonal_vanishes(self):
        kernel = self.kernel()
        for k in range(0, 5):
            assert kernel.beta(k, k) == 0

    def test_antisymmetry_numeric(self):
        kernel = self.kernel()
        assert abs(max_antisymmetry_residual(kernel, (0, 4))) < 1e-12

    def test_triple_sum_numeric(self):
        kernel = self.kernel()
        assert abs(max_tsi_residual(kernel, (0, 4))) < 1e-10

    def test_triple_sum_is_the_addition_formula(self):
        # tsi(n,k,p,q) = b_p b_k * addition residual at (x_n, b_p, b_q, b_k)
        kernel = self.kernel()
        for n, k, p, q in ((4, 0, 2, 1), (3, 1, 4, 0), (2, 0, 3, 4)):
            lhs = tsi_residual(kernel, n, k, p, q)
            rhs = (
                WARNAAR_B(p)
                * WARNAAR_B(k)
                * weierstrass_addition_residual(
                    WARNAAR_X(n), WARNAAR_B(p), WARNAAR_B(q), WARNAAR_B(k), WARNAAR_Q
                )
            )
            assert abs(lhs - rhs) < 1e-12

    def test_delta_within_tolerance(self):
        report = verify_inversion(pair_from_kernel(self.kernel(), (0, 4)), tol=1e-9)
        assert report.passed


class TestEllipticSumFamily:
    ARGS = (0.3, 0.7, 0.4, 0.1)

    def kernel(self):
        return elliptic_sum_kernel(*self.ARGS, t_seq=constant_sequence(1.0))

    def test_beta_diagonal_vanishes(self):
        kernel = self.kernel()
        for k in range(0, 4):
            assert kernel.beta(k, k) == 0

    def test_delta_within_tolerance(self):
        report = verify_inversion(pair_from_kernel(self.kernel(), (0, 3)), tol=1e-8)
        assert report.passed

    def test_closed_entries_match_generic(self):
        kernel = self.kernel()
        closed_f, closed_g = elliptic_sum_closed_entries(
            *self.ARGS, t_seq=constant_sequence(1.0)
        )
        for k in range(0, 4):
            for n in range(k, 4):
                assert abs(closed_f(n, k) - f_entry(kernel, n, k)) < 1e-10
                assert abs(closed_g(n, k) - g_entry(kernel, n, k)) < 1e-10

    def test_triple_sum_numeric(self):
        assert abs(max_tsi_residual(self.kernel(), (0, 3))) < 1e-9

    def test_closed_form_factorials_are_the_theta_products(self):
        """``(z;q,p)_m`` in the closed form is the product of
        ``theta(z q^(j-1); p)`` over ``j = 1..m``, bit for bit, for every
        integer ``m``."""
        rng = random.Random(77)
        draws = [self.ARGS] + [
            (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.2, 0.6), rng.uniform(0.05, 0.3))
            for _ in range(2)
        ]
        for x, y, q, p in draws:
            for z in (x, y):
                for m in range(-4, 7):
                    old = prod_range(lambda j: theta(z * power(q, j - 1), p, DEFAULT_POLICY), 1, m)
                    assert repr(elliptic_pochhammer(z, q, p, m, DEFAULT_POLICY)) == repr(old)


PT_Q = 0.1
PT_A = affine_sequence(1.0, 0.1)
PT_B = affine_sequence(0.2, 0.05)


class TestPartialThetaFamily:
    def kernel(self):
        return partial_theta_kernel(PT_Q, PT_A, PT_B)

    def test_beta_diagonal_vanishes(self):
        kernel = self.kernel()
        for k in range(0, 4):
            assert kernel.beta(k, k) == 0

    def test_antisymmetry_numeric(self):
        assert abs(max_antisymmetry_residual(self.kernel(), (0, 3))) < 1e-12

    def test_beta_is_partial_theta_difference(self):
        # (b_i - b_k) L(b_i, b_k) telescopes to Theta(q;b_i) - Theta(q;b_k)
        kernel = self.kernel()
        for i, k in product(range(0, 4), repeat=2):
            expected = partial_theta(PT_Q, PT_B(i)) - partial_theta(PT_Q, PT_B(k))
            assert abs(kernel.beta(i, k) - expected) < 1e-12

    def test_delta_within_tolerance(self):
        report = verify_inversion(pair_from_kernel(self.kernel(), (0, 3)), tol=1e-8)
        assert report.passed

    def test_triple_sum_numeric(self):
        assert abs(max_tsi_residual(self.kernel(), (0, 3))) < 1e-9

    def test_repeated_b_rejected(self):
        kernel = partial_theta_kernel(PT_Q, PT_A, constant_sequence(0.3))
        with pytest.raises(DegenerateParams):
            kernel.beta(0, 1)
        # with a window, the kernel's own refusal is raised as it is, not prefixed again
        with pytest.raises(DegenerateParams, match=r"^partial-theta: b\(0\) == b\(1\)$"):
            partial_theta_kernel(PT_Q, PT_A, constant_sequence(0.2), window=(0, 2))


class TestEdsSequence:
    def test_generated_values(self):
        seq = eds_generate(1, -1, 1, 12)
        assert [seq.w(n) for n in range(0, 10)] == [0, 1, 1, -1, 1, 2, -1, -3, -5, 7]
        assert seq.w(-5) == -2

    def test_recurrence_round_trip(self):
        seq = eds_generate(1, -1, 1, 16)
        for n in range(-(seq.n_max - 2), seq.n_max - 1):
            assert seq.recurrence_residual(n) == 0

    def test_property_residual_exhaustive(self):
        seq = eds_generate(1, -1, 1, 12)
        for k, p, q in product(range(-6, 7), repeat=3):
            assert eds_property_residual(seq, k, p, q) == 0

    def test_property_for_rational_seeds(self):
        seq = eds_generate(2, 1, 6, 12)
        for k, p, q in product(range(-6, 7), repeat=3):
            assert eds_property_residual(seq, k, p, q) == 0

    def test_zero_divisor_reports_index(self):
        # seeds (1,1,1) force W_5 = 0, so W_9 cannot be generated
        with pytest.raises(ZeroDivisor, match=r"W\(9\).*W\(5\)"):
            eds_generate(1, 1, 1, 12)

    @pytest.mark.parametrize("n_max", [9, 12])
    def test_index_out_of_table(self, n_max):
        seq = eds_generate(1, -1, 1, n_max)
        assert seq.w(-n_max) == -seq.w(n_max) != 0
        for n in (n_max + 1, -n_max - 1):
            with pytest.raises(IndexOutOfTable, match=rf"^W\({n}\) outside generated table \(\|n\| <= {n_max}\)$"):
                seq.w(n)

    def test_tampered_w0_is_read_as_given(self):
        # W_0 is stored once, not negated; every other W_{-n} reads -W_n
        values = [Fraction(1, 3), *(eds_generate(1, -1, 1, 6).w(n) for n in range(1, 7))]
        seq = EdsSequence(values)
        assert [seq.w(n) for n in range(7)] == values
        assert [seq.w(-n) for n in range(1, 7)] == [-v for v in values[1:]]

    def test_recurrence_on_a_one_term_table_reaches_past_it(self):
        # n = 0 is always folded, so a table with no full index is an error, not a pass
        with pytest.raises(IndexOutOfTable, match=r"W\(2\)"):
            max_recurrence_residual(eds_generate(1, -1, 1, 1))

    @pytest.mark.parametrize("seeds", [
        (1, -1, 1), (2, 1, 6), (-1, 3, -2), (Fraction(4, 2), 3, 1),
        (Fraction(1, 2), -1, 1), (Fraction(1, 2), 3, Fraction(-5, 7)),
    ])
    def test_integral_terms_are_ints(self, seeds):
        # the reference: the forward recurrence in Fraction arithmetic
        want = [Fraction(0), Fraction(1), *map(Fraction, seeds)]
        for n in range(3, 14):
            want.append((want[n + 1] * want[n - 1] * want[2] ** 2 - want[3] * want[n] ** 2) / want[n - 2])
        seq = eds_generate(*seeds, 15)
        assert any(v.denominator == 1 for v in want[2:]) and seq.n_max == len(want) - 1
        for n in range(-15, 16):
            v, w = seq.w(n), want[n] if n >= 0 else -want[-n]
            assert v == w and type(v) is (int if w.denominator == 1 else Fraction), (n, v, w)

    def test_float_seeds_are_refused(self):
        with pytest.raises(DomainError, match=(
            r"^eds: exact mode needs exact seeds, but W_2, W_4 given as float; write each as p/q$"
        )):
            eds_generate(0.1, -1, 0.5, 6)

    def test_empty_table_is_refused(self):
        with pytest.raises(IndexOutOfTable, match="n_max must be at least 1"):
            eds_generate(1, -1, 1, 0)


class TestNegativeControls:
    """Each check rejects a tampered input, so its pass is not vacuous."""

    def test_antisymmetry_sees_one_scaled_beta(self):
        kernel = gasper_kernel(**FAMILIES["gasper"].params)
        assert max_antisymmetry_residual(kernel, (0, 6)) == 0
        beta = kernel.beta
        scaled = dataclasses.replace(
            kernel, beta=lambda i, k: beta(i, k) * Fraction(1001, 1000) if (i, k) == (3, 1) else beta(i, k)
        )
        # beta(3,1) + beta(1,3) is then beta(3,1) / 1000
        assert max_antisymmetry_residual(scaled, (0, 6)) == Fraction(5619, 31250) == beta(3, 1) / 1000

    def test_recurrence_sees_one_scaled_seed(self):
        seq = eds_generate(Fraction(1, 2), 3, Fraction(-5, 7), 10)
        assert max_recurrence_residual(seq) == 0
        table = [seq.w(n) for n in range(seq.n_max + 1)]
        table[3] *= Fraction(1001, 1000)
        tampered = EdsSequence(table)
        worst = max_recurrence_residual(tampered)
        assert worst == Fraction(68195550272547, 19275612160)
        # the first largest-magnitude pointwise residual over |n| <= n_max - 2, with its sign
        assert worst == max((tampered.recurrence_residual(n) for n in range(-8, 9)), key=abs)


class TestEdsKernel:
    def seq(self):
        return eds_generate(1, -1, 1, 16)

    def test_antisymmetry(self):
        kernel = eds_kernel(self.seq())
        assert max_antisymmetry_residual(kernel, (1, 6)) == 0

    def test_triple_sum_equals_property_residual(self):
        seq = self.seq()
        kernel = eds_kernel(seq)
        for n, k, p, q in ((3, 1, 2, 4), (6, 2, 1, 5), (4, 4, 3, 2)):
            assert tsi_residual(kernel, n, k, p, q) == eds_property_residual(seq, p, q, k)
            assert tsi_residual(kernel, n, k, p, q) == 0

    def test_delta_exact(self):
        kernel = eds_kernel(self.seq(), window=(1, 6))
        assert verify_inversion(pair_from_kernel(kernel, (1, 6))).passed

    def test_closed_entries(self):
        # below 0 as well: no product of the closed forms crosses W_0 = 0
        seq = self.seq()
        kernel = eds_kernel(seq)
        closed_f, closed_g = eds_closed_entries(seq)
        for lo, hi in ((1, 6), (-3, -1), (-5, -2), (-6, -1)):
            for k in range(lo, hi + 1):
                for n in range(k, hi + 1):
                    assert closed_f(n, k) == f_entry(kernel, n, k)
                    assert closed_g(n, k) == g_entry(kernel, n, k)

    def test_window_with_vanishing_beta_rejected(self):
        # seeds (1,1,1) give W_5 = 0, so beta(2,3) = W_5 W_{-1} = 0
        seq = eds_generate(1, 1, 1, 8)
        with pytest.raises(ZeroBeta):
            eds_kernel(seq, window=(1, 4))
        with pytest.raises(ZeroDivisor, match=r"^entry \(3,2\): beta\(3,2\) = 0 in F\(3,2\)$"):
            pair_from_kernel(eds_kernel(seq), (1, 4))
