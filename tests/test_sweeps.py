"""The tabulated residual sweeps against the pointwise reference.

Each ``max_*`` sweep evaluates its kernel once into tables and, when every
value is exact, sweeps in integer arithmetic.  The reference here folds the
public pointwise residual over the same tuples in the same order, so the two
must agree exactly: equal as numbers with the same printed Fraction on exact
kernels, and ``repr``-identical wherever a float enters the tables.
"""

from fractions import Fraction
from itertools import product

import pytest

from invrel import (
    DEFAULT_POLICY,
    FAMILIES,
    EdsSequence,
    FactorSequences,
    Kernel,
    affine_sequence,
    anchored_tsi_residual,
    bilinear_kernel,
    eds_generate,
    eds_property_residual,
    gasper_kernel,
    max_anchored_tsi_residual,
    max_eds_property_residual,
    max_qsi_residual,
    max_tsi_residual,
    product_ratio_kernel,
    qsi_residual,
    tsi_residual,
)
from invrel.kernels import worst_of

SWEEPS = {
    "tsi": (max_tsi_residual, tsi_residual, 4),
    "qsi": (max_qsi_residual, qsi_residual, 4),
    "cond3": (max_anchored_tsi_residual, anchored_tsi_residual, 3),
}


def reference(check: str, kernel: Kernel, window) -> object:
    _, pointwise, arity = SWEEPS[check]
    idx = range(window[0], window[1] + 1)
    return worst_of(pointwise(kernel, *t) for t in product(idx, repeat=arity))


def preset(family: str) -> tuple[Kernel, tuple[int, int]]:
    """The family's preset kernel and window, as the CLI builds them."""
    spec = FAMILIES[family]
    return spec.build(spec.params, spec.window, DEFAULT_POLICY)[0], spec.window


def perturbed(kernel: Kernel, at: tuple[int, int]) -> Kernel:
    """``kernel`` with the one alpha entry ``at`` scaled by ``1 + 1/1000``."""
    bump = Fraction(1001, 1000)
    return Kernel(
        alpha=lambda i, k: kernel.alpha(i, k) * bump if (i, k) == at else kernel.alpha(i, k),
        beta=kernel.beta,
        name=kernel.name,
    )


def fraction_sequence(start: int, step: int, den: int):
    return affine_sequence(Fraction(start, den), Fraction(step, den))


# every exact family: the registry's exact presets, plus the two generic
# patterns over Fraction sequences (small windows keep the reference quick)
EXACT = {
    **{name: preset(name) for name in ("binomial", "gasper", "schlosser", "eds")},
    "bilinear": (
        bilinear_kernel(
            fraction_sequence(2, 1, 3), fraction_sequence(-1, 2, 5),
            fraction_sequence(1, 3, 7), fraction_sequence(4, -1, 2),
        ),
        (-2, 3),
    ),
    "product-ratio": (
        product_ratio_kernel(FactorSequences(
            x=fraction_sequence(7, 2, 3), y=fraction_sequence(5, 1, 4), t=fraction_sequence(1, 1, 2),
        )),
        (0, 4),
    ),
}


def assert_same_exact(got, want):
    assert got == want
    assert str(Fraction(got)) == str(Fraction(want))


@pytest.mark.parametrize("check", SWEEPS)
@pytest.mark.parametrize("family", EXACT)
class TestExactSweeps:
    def test_preset_matches_reference(self, family, check):
        kernel, window = EXACT[family]
        got = SWEEPS[check][0](kernel, window)
        assert_same_exact(got, reference(check, kernel, window))
        assert got == 0 and type(got) is int

    def test_perturbed_alpha_matches_reference(self, family, check):
        kernel, window = EXACT[family]
        bad = perturbed(kernel, (window[0] + 1, window[0]))
        want = reference(check, bad, window)
        got = SWEEPS[check][0](bad, window)
        assert want != 0
        assert_same_exact(got, want)
        assert type(got) is Fraction


class TestMixedAndFloatTables:
    """Float values must reach the sweep unchanged: no table is scaled unless
    every alpha and every beta value is exact."""

    KERNELS = {
        # float alpha (q enters alpha only) next to an exact Fraction beta
        "gasper-float-q": (gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), 0.2, window=(0, 6)), (0, 6)),
        **{name: preset(name) for name in ("warnaar", "elliptic-sum", "partial-theta")},
    }

    @pytest.mark.parametrize("check", SWEEPS)
    @pytest.mark.parametrize("name", KERNELS)
    def test_repr_identical_to_reference(self, name, check):
        kernel, window = self.KERNELS[name]
        got = SWEEPS[check][0](kernel, window)
        assert repr(got) == repr(reference(check, kernel, window))
        assert isinstance(got, float)

    def test_gasper_float_q_keeps_the_float_residual(self):
        # the exact beta table alone must not be scaled next to float alpha
        kernel, window = self.KERNELS["gasper-float-q"]
        assert max_tsi_residual(kernel, window) == -5.960464477539063e-08


class TestEdsPropertySweep:
    @staticmethod
    def reference(seq: EdsSequence):
        idx = range(-(seq.n_max // 2), seq.n_max // 2 + 1)
        return worst_of(eds_property_residual(seq, k, p, q) for k, p, q in product(idx, repeat=3))

    @pytest.mark.parametrize(
        "seeds, n_max",
        [((1, -1, 1), 12), ((-1, 2, 3), 14), ((Fraction(1, 2), 3, Fraction(-5, 7)), 10), ((1, 2, 3), 2)],
    )
    def test_matches_reference(self, seeds, n_max):
        seq = eds_generate(*seeds, n_max)
        got = max_eds_property_residual(seq)
        assert_same_exact(got, self.reference(seq))
        assert got == 0

    @pytest.mark.parametrize("n_max", [9, 10])
    def test_perturbed_table_matches_reference(self, n_max):
        seq = eds_generate(Fraction(1, 2), 3, Fraction(-5, 7), n_max)
        table = {n: seq.w(n) for n in range(seq.n_max + 1)}
        table[3] *= Fraction(1001, 1000)
        bad = EdsSequence(seq.seeds, table)
        want = self.reference(bad)
        assert want != 0
        assert_same_exact(max_eds_property_residual(bad), want)
