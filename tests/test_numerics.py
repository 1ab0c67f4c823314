"""Tests for the scalar domain helpers and q-series numerics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invrel import (
    DEFAULT_POLICY,
    DomainError,
    NonConvergent,
    TruncationPolicy,
    ZeroDivisor,
    elliptic_pochhammer,
    is_exact,
    magnitude,
    partial_theta,
    partial_theta_slope_quotient,
    partial_theta_slope_series,
    prod_range,
    q_pochhammer,
    q_pochhammer_infinite,
    theta,
    weierstrass_addition_residual,
)
from invrel.numerics import power, reciprocal

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestProdRange:
    def test_forward_product(self):
        assert prod_range(lambda i: i + 1, 0, 2) == 6

    def test_empty_product_is_one(self):
        assert prod_range(lambda i: 99, 2, 1) == 1

    def test_reciprocal_branch(self):
        # k=2, n=0: 1 / f(1) = 1/2
        assert prod_range(lambda i: i + 1, 2, 0) == Fraction(1, 2)

    def test_reciprocal_branch_zero(self):
        with pytest.raises(ZeroDivisor):
            prod_range(lambda i: i, 3, -1)  # hits f(0) = 0

    @given(
        shift=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=10),
        k=st.integers(-6, 6),
        n=st.integers(-6, 6),
    )
    def test_reciprocity(self, shift, k, n):
        # f(i) = i + shift is never zero at integers for non-integer shift
        f = lambda i: i + shift
        assert prod_range(f, k, n) * prod_range(f, n + 1, k - 1) == 1


class TestQPochhammer:
    def test_empty(self):
        assert q_pochhammer(Fraction(3, 7), Fraction(1, 2), 0) == 1

    def test_positive(self):
        # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6)
        assert q_pochhammer(Fraction(1, 2), Fraction(1, 3), 2) == Fraction(5, 12)

    def test_negative(self):
        # (1/2; 1/3)_{-1} = 1 / (1 - (1/2) * 3)
        assert q_pochhammer(Fraction(1, 2), Fraction(1, 3), -1) == -2

    def test_negative_zero_factor(self):
        # 1 - a q^{-1} = 0 for a = q
        with pytest.raises(ZeroDivisor):
            q_pochhammer(Fraction(1, 3), Fraction(1, 3), -1)

    def test_int_arguments_stay_exact(self):
        # (3;2)_{-1} = 1/(1 - 3/2); plain ints must not leak into floats
        assert q_pochhammer(3, 2, -1) == -2
        assert q_pochhammer(2, 3, 2) == 5

    @given(
        a=rationals,
        q=st.fractions(min_value=-2, max_value=2, max_denominator=6),
        m=st.integers(-3, 3),
        n=st.integers(-3, 3),
    )
    def test_index_splitting(self, a, q, m, n):
        # (a;q)_{m+n} = (a;q)_m * (a q^m; q)_n wherever all pieces are defined
        if q == 0 and m < 0:
            return
        try:
            lhs = q_pochhammer(a, q, m + n)
            rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, n)
        except ZeroDivisor:
            return
        assert lhs == rhs



def reference_q_pochhammer(a, q, n):
    """The Fraction product ``(a;q)_n`` factor by factor, kept apart from
    ``q_pochhammer`` as its reference."""
    if n >= 0:
        out = 1
        for i in range(n):
            out = out * (1 - a * power(q, i))
        return out
    out = 1
    for j in range(1, -n + 1):
        factor = 1 - a * power(q, -j)
        if factor == 0:
            raise ZeroDivisor(f"(a;q)_{n}: factor 1 - a*q^(-{j}) vanishes")
        out = out * factor
    return reciprocal(out)


def outcome(fn, *args):
    """``(type, repr)`` of the value, or of the error and its message."""
    try:
        value = fn(*args)
    except ZeroDivisor as exc:
        return ZeroDivisor, str(exc)
    return type(value), repr(value)


class TestIntegerQPochhammer:
    exact = st.one_of(rationals, st.integers(-5, 5))

    @given(a=exact, q=exact, n=st.integers(-8, 8))
    def test_matches_the_fraction_product(self, a, q, n):
        assert outcome(q_pochhammer, a, q, n) == outcome(reference_q_pochhammer, a, q, n)

    def test_vanishing_negative_factor_names_it(self):
        # 1 - (1/9) q^(-2) = 0 for q = 1/3
        with pytest.raises(ZeroDivisor, match=r"^\(a;q\)_-3: factor 1 - a\*q\^\(-2\) vanishes$"):
            q_pochhammer(Fraction(1, 9), Fraction(1, 3), -3)

    def test_zero_base_in_the_negative_branch(self):
        assert outcome(q_pochhammer, Fraction(1, 2), 0, -2) == (ZeroDivisor, "0**-1")

    @pytest.mark.parametrize(
        "a, q",
        [(0.3, Fraction(1, 3)), (Fraction(1, 2), 0.25), (0.3, 0.7), (-1.5, -0.4), (2, 0.5), (0.5 + 0.1j, 0.3)],
    )
    @pytest.mark.parametrize("n", [-4, -1, 0, 1, 5])
    def test_float_and_mixed_arguments_are_bit_identical(self, a, q, n):
        assert outcome(q_pochhammer, a, q, n) == outcome(reference_q_pochhammer, a, q, n)


class TestTheta:
    def test_zero_at_one(self):
        assert theta(1.0, 0.37) == 0

    def test_q_over_x_symmetry(self):
        x, q = 0.3, 0.1
        assert abs(theta(q / x, q) - theta(x, q)) <= 1e-12

    def test_long_product_oracle(self):
        x, q = 0.5, 0.1
        expected = 1.0
        for i in range(60):
            expected *= (1 - x * q**i) * (1 - (q / x) * q**i)
        assert abs(theta(x, q) - expected) <= 1e-12

    def test_policy_refinement_stability(self):
        policy = TruncationPolicy(tail_bound=1e-8, max_terms=64)
        v1 = theta(0.45, 0.35, policy)
        v2 = theta(0.45, 0.35, TruncationPolicy(policy.tail_bound / 2, policy.max_terms * 2))
        assert abs(v1 - v2) < policy.tail_bound

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(0.5, 1.0)
        with pytest.raises(DomainError):
            theta(0.0, 0.1)
        with pytest.raises(DomainError):
            theta(0.5, 0.0)

    def test_exact_domain_refused(self):
        with pytest.raises(DomainError):
            theta(Fraction(1, 2), Fraction(1, 10))


class TestPartialTheta:
    def test_x_zero(self):
        assert partial_theta(0.3, 0.0) == 1
        assert partial_theta(Fraction(1, 3), Fraction(0)) == 1

    def test_q_zero_exact(self):
        x = Fraction(3, 7)
        assert partial_theta(Fraction(0), x) == 1 - x
        assert partial_theta(0, x) == Fraction(4, 7)

    def test_brute_force_oracle(self):
        q, x = 0.1, 0.5
        expected = sum((-1) ** n * q ** (n * (n - 1) // 2) * x**n for n in range(50))
        assert abs(partial_theta(q, x) - expected) <= 1e-14

    def test_nonconvergent_is_an_error(self):
        with pytest.raises(NonConvergent):
            partial_theta(0.99, 1e6, TruncationPolicy(1e-17, max_terms=16))

    def test_exact_nonterminating_refused(self):
        with pytest.raises(DomainError):
            partial_theta(Fraction(1, 10), Fraction(1, 2))

    def test_bad_q(self):
        with pytest.raises(DomainError):
            partial_theta(1.2, 0.5)


class TestSlopeKernel:
    def test_series_matches_quotient(self):
        # direct check of the two exposed evaluation paths
        x, y, q = 1 / 3, 1 / 5, 1 / 10
        s = partial_theta_slope_series(x, y, q)
        r = partial_theta_slope_quotient(x, y, q)
        assert abs(s - r) <= 1e-10

    def test_symmetry(self):
        assert abs(
            partial_theta_slope_series(0.2, 0.4, 0.1)
            - partial_theta_slope_series(0.4, 0.2, 0.1)
        ) <= 1e-12

    def test_quotient_oracle(self):
        x, y, q = 0.2, 0.4, 0.1
        expected = (partial_theta(q, x) - partial_theta(q, y)) / (x - y)
        assert abs(partial_theta_slope_series(x, y, q) - expected) <= 1e-12

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.3, -0.2])
    def test_agreement_grid(self, q):
        points = [-0.5, -0.3, -0.1, 0.1, 0.3, 0.5]
        for x in points:
            for y in points:
                if x == y:
                    continue
                s = partial_theta_slope_series(x, y, q)
                r = partial_theta_slope_quotient(x, y, q)
                assert abs(s - r) <= 1e-10 * max(1.0, abs(s))

    def test_quotient_requires_distinct(self):
        with pytest.raises(DomainError):
            partial_theta_slope_quotient(0.2, 0.2, 0.1)

    def test_series_requires_q_inside_the_unit_disc(self):
        with pytest.raises(DomainError, match="requires"):
            q_pochhammer_infinite(0.5, 1.0)
        with pytest.raises(DomainError, match="requires"):
            partial_theta_slope_series(0.3, 0.2, 1.0)

    def test_series_refuses_a_vanishing_denominator(self):
        # x y = 1: the first term divides by 1 - x y q^0 = 0
        with pytest.raises(DomainError, match=r"^slope kernel series degenerate at term 1$"):
            partial_theta_slope_series(2.0, 0.5, 0.1)

    def test_series_past_the_term_cap_is_an_error(self):
        with pytest.raises(NonConvergent, match="8 terms"):
            partial_theta_slope_series(0.3, 0.2, 0.1, TruncationPolicy(1e-17, 8))


class TestEllipticPochhammer:
    def test_empty(self):
        assert elliptic_pochhammer(0.3, 0.2, 0.1, 0) == 1

    def test_single_factor(self):
        assert elliptic_pochhammer(0.3, 0.2, 0.1, 1) == theta(0.3, 0.1)

    def test_two_factor_oracle(self):
        got = elliptic_pochhammer(0.3, 0.2, 0.1, 2)
        assert abs(got - theta(0.3, 0.1) * theta(0.06, 0.1)) <= 1e-12

    def test_negative_index_reciprocity(self):
        # (x;q,p)_{-1} * theta(x q^{-1}; p) = 1 by the bilateral convention
        x, q, p = 0.3, 0.2, 0.1
        assert abs(elliptic_pochhammer(x, q, p, -1) * theta(x / q, p) - 1) <= 1e-12


class TestWeierstrassResidual:
    @pytest.mark.parametrize(
        "x,y,u,v,q",
        [(0.9, 0.7, 0.5, 0.3, 0.1), (0.8, 0.6, 0.4, 0.2, 0.05)],
    )
    def test_sampled_points(self, x, y, u, v, q):
        assert abs(weierstrass_addition_residual(x, y, u, v, q)) < 1e-10

    def test_u_equals_y_collapses(self):
        # middle theta product contains theta(1;q) = 0 and the outer terms cancel
        assert weierstrass_addition_residual(0.9, 0.7, 0.7, 0.3, 0.1) == 0


class TestScalarDomain:
    def test_is_exact(self):
        assert is_exact(3) and is_exact(Fraction(1, 2))
        assert not is_exact(0.5) and not is_exact(1 + 2j) and not is_exact(True)

    def test_power_overflow_is_a_domain_error(self):
        for base, exponent in ((1e200, 2), (1e-300, -2), (-1e300, 3)):
            with pytest.raises(DomainError):
                power(base, exponent)
        assert power(Fraction(10) ** 200, 2) == 10**400

    def test_magnitude(self):
        assert magnitude(Fraction(-3, 2)) == 1.5
        assert magnitude(3 + 4j) == 5.0

    def test_complex_arguments(self):
        # theta and the partial theta series accept complex scalars
        value = theta(0.3 + 0.1j, 0.1)
        assert isinstance(value, complex) and abs(value) > 0
        assert abs(theta((0.1) / (0.3 + 0.1j), 0.1) - value) <= 1e-12
        series = partial_theta(0.1, 0.2 + 0.05j)
        brute = sum(
            (-1) ** n * 0.1 ** (n * (n - 1) // 2) * (0.2 + 0.05j) ** n
            for n in range(40)
        )
        assert abs(series - brute) <= 1e-14


class TestTruncationPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.tail_bound == 1e-17
        assert DEFAULT_POLICY.max_terms == 256

    def test_invariants(self):
        with pytest.raises(DomainError):
            TruncationPolicy(tail_bound=1.0)
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=4)

    def test_infinite_pochhammer_exact_refused(self):
        with pytest.raises(DomainError):
            q_pochhammer_infinite(Fraction(1, 2), Fraction(1, 10))
