"""Tests for the sum-identity residuals and divided differences."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invrel import (
    DomainError,
    DuplicateNodes,
    anchored_tsi_residual,
    binomial_kernel,
    divided_difference,
    divided_difference_sum,
    gasper_kernel,
    max_anchored_tsi_residual,
    max_qsi_residual,
    max_tsi_residual,
    qsi_residual,
    schlosser_kernel,
    tsi_residual,
)

GASPER = gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))
SCHLOSSER = schlosser_kernel(Fraction(1, 2), Fraction(2), Fraction(7), Fraction(1, 3))


class TestTripleSum:
    def test_binomial_vanishes(self):
        kernel = binomial_kernel()
        for n, k, p, q in product(range(-2, 3), repeat=4):
            assert tsi_residual(kernel, n, k, p, q) == 0

    def test_gasper_vanishes_exactly(self):
        assert max_tsi_residual(GASPER, (-2, 2)) == 0

    def test_coincident_lower_indices(self):
        # k = p = q collapses to 3 alpha(n,k) beta(k,k) = 0 for antisymmetric beta
        for kernel in (binomial_kernel(), GASPER):
            for n in range(-2, 3):
                for k in range(-2, 3):
                    assert tsi_residual(kernel, n, k, k, k) == 0


class TestAnchoredTripleSum:
    def test_equal_columns_cancel(self):
        for kernel in (binomial_kernel(), GASPER):
            for x in range(-2, 3):
                for p in range(-2, 3):
                    assert anchored_tsi_residual(kernel, x, p, x) == 0

    def test_binomial_triples(self):
        assert max_anchored_tsi_residual(binomial_kernel(), (-3, 3)) == 0

    def test_schlosser_triples(self):
        assert max_anchored_tsi_residual(SCHLOSSER, (-2, 3)) == 0

    def test_is_a_tsi_specialisation(self):
        # anchored(x, p, y) is literally tsi(n=p, k=p, p=x, q=y)
        for kernel in (binomial_kernel(), GASPER, SCHLOSSER):
            for x, p, y in product(range(-2, 2), repeat=3):
                assert anchored_tsi_residual(kernel, x, p, y) == tsi_residual(
                    kernel, p, p, x, y
                )


class TestQuintupleSum:
    def test_equal_rows_vanish(self):
        for kernel in (binomial_kernel(), GASPER):
            for x, p, q in product(range(-2, 3), repeat=3):
                assert qsi_residual(kernel, x, x, p, q) == 0

    def test_binomial_quadruples(self):
        assert max_qsi_residual(binomial_kernel(), (-2, 3)) == 0

    def test_gasper_quadruples(self):
        assert max_qsi_residual(GASPER, (-2, 2)) == 0


def horner(coeffs):
    """The polynomial with ``coeffs`` in ascending powers."""

    def h(x):
        out = 0
        for c in reversed(coeffs):
            out = out * x + c
        return out

    return h


def shifted(shifts):
    """The product form ``prod_j (x + a_j)``."""
    return lambda x: math.prod((x + a for a in shifts), start=1)


BOTH_FORMS = pytest.mark.parametrize("form", [divided_difference, divided_difference_sum])


class TestDividedDifference:
    @BOTH_FORMS
    def test_needs_a_node(self, form):
        with pytest.raises(DomainError, match="at least one node"):
            form(horner((1,)), ())

    @BOTH_FORMS
    def test_duplicate_nodes(self, form):
        with pytest.raises(DuplicateNodes, match="node 0 repeated"):
            form(horner((1,)), (0, 1, 0))

    def test_single_node(self):
        assert divided_difference(horner((0, 0, 1)), (Fraction(7),)) == 49

    def test_square_two_nodes(self):
        assert divided_difference(horner((0, 0, 1)), (0, 1)) == 1

    def test_square_four_nodes_vanishes(self):
        assert divided_difference(horner((0, 0, 1)), (0, 1, 2, 3)) == 0

    def test_two_node_sum_is_zero(self):
        assert divided_difference_sum(shifted(()), (Fraction(2), Fraction(5))) == 0

    def test_monic_degree_n_gives_one(self):
        # negative control for the vanishing statement: with n+1 nodes a monic
        # product of n factors has leading coefficient, hence divided difference, 1
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(0, 8)
            nodes = set()
            while len(nodes) < n + 1:
                nodes.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            h = shifted([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)])
            assert divided_difference_sum(h, tuple(nodes)) == 1
            assert divided_difference(h, tuple(nodes)) == 1

    @given(
        shifts=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=8),
            min_size=0, max_size=7,
        ),
        data=st.data(),
    )
    def test_product_form_sum_vanishes(self, shifts, data):
        # with len(shifts)+2 distinct nodes, deg H = len(nodes)-2 < len(nodes)-1
        count = len(shifts) + 2
        nodes = data.draw(
            st.lists(
                st.fractions(min_value=-6, max_value=6, max_denominator=8),
                min_size=count, max_size=count, unique=True,
            )
        )
        assert divided_difference_sum(shifted(shifts), nodes) == 0
        assert divided_difference(shifted(shifts), nodes) == 0

    def test_recursive_equals_sum_on_nonvanishing_instances(self):
        # same polynomial through coefficients, with degree >= node count
        rng = random.Random(7)
        for _ in range(25):
            n_nodes = rng.randint(2, 6)
            vals = set()
            while len(vals) < n_nodes:
                vals.add(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
            coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n_nodes + 2))
            h = horner(coeffs)
            assert divided_difference(h, tuple(vals)) == divided_difference_sum(h, tuple(vals))

    def test_shift_expansion_cross_check(self):
        # expand prod (x + a_j) to coefficients and compare the two routes
        rng = random.Random(11)
        for _ in range(20):
            shifts = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
            coeffs = [Fraction(1)]
            for a in shifts:
                coeffs = [Fraction(0)] + coeffs
                lower = [c * a for c in coeffs[1:]] + [Fraction(0)]
                coeffs = [c + l for c, l in zip(coeffs, lower)]
            nodes = set()
            while len(nodes) < 4:
                nodes.add(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            nodes = tuple(nodes)
            by_shifts, by_coeffs = shifted(shifts), horner(coeffs)
            assert divided_difference(by_shifts, nodes) == divided_difference(by_coeffs, nodes)
            assert divided_difference_sum(by_shifts, nodes) == divided_difference(by_shifts, nodes)
