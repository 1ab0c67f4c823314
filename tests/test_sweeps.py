"""The tabulated residual sweeps against the pointwise reference.

Each ``max_*`` sweep evaluates its kernel once into tables and, when every
value is exact, sweeps in integer arithmetic.  The reference here folds the
public pointwise residual over every tuple in the full order and keeps the
first largest value.  On ``int`` tables QSI gives the same ``int`` per tuple,
regrouped; TSI and cond3 with antisymmetric beta, and eds-property with
``W_0 = 0``, fold one representative per symmetry orbit, the orbit's first
member in the full order, so they meet the same first maximiser.  Either way
the two must agree exactly: equal as numbers with the same printed Fraction
on exact kernels, and ``repr``-identical wherever a float enters the tables.
"""

import random
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
    eds_kernel,
    eds_property_residual,
    gasper_kernel,
    max_anchored_tsi_residual,
    max_antisymmetry_residual,
    max_eds_property_residual,
    max_qsi_residual,
    max_recurrence_residual,
    max_tsi_residual,
    product_ratio_kernel,
    qsi_residual,
    schlosser_kernel,
    tsi_residual,
)
from invrel.errors import VerificationError
from invrel.identities import _alternating
from invrel.kernels import window_tables, worst_of


def antisymmetry_residual(kernel: Kernel, i: int, k: int):
    """``beta(i,k) + beta(k,i)``: over ``window^2`` its first largest value is
    the one first met over ``i <= k``, as each pair gives one sum twice."""
    return kernel.beta(i, k) + kernel.beta(k, i)


SWEEPS = {
    "antisym": (max_antisymmetry_residual, antisymmetry_residual, 2),
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


def shifted(kernel: Kernel, alpha: dict, beta: dict) -> Kernel:
    """``kernel`` with ``alpha[i, k]`` added to ``alpha(i, k)`` and ``beta[i, k]``
    to ``beta(i, k)`` wherever those are given."""
    return Kernel(
        alpha=lambda i, k: kernel.alpha(i, k) + alpha.get((i, k), 0),
        beta=lambda i, k: kernel.beta(i, k) + beta.get((i, k), 0),
        name=kernel.name,
    )


def tamperings(window, i: int, k: int, by: Fraction) -> dict:
    """``name -> (alpha shifts, beta shifts, whether beta stays antisymmetric)``,
    each shifting by ``by`` at the window's ``(i, k)``-th indices, ``i != k``."""
    i, k = window[0] + i, window[0] + k
    return {
        "alpha-below": ({(max(i, k), min(i, k)): by}, {}, True),
        "alpha-above": ({(min(i, k), max(i, k)): by}, {}, True),
        "beta-pair": ({}, {(i, k): by, (k, i): -by}, True),
        "beta-one-sided": ({}, {(i, k): by}, False),
        "beta-diagonal": ({}, {(i, i): by}, False),
    }


def assert_identical(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


def orbit_fold(kernel: Kernel, window) -> bool:
    """Whether TSI and cond3 fold one representative per orbit here."""
    return _alternating(*window_tables(kernel, window)[1:])


TAMPERINGS = tuple(tamperings((0, 0), 2, 0, Fraction(1)))


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
        assert_same_exact(got, want)
        if check == "antisym":  # its residual has no alpha term
            assert got == 0 and type(got) is int
        else:
            assert want != 0 and type(got) is Fraction

    @pytest.mark.parametrize("tampering", TAMPERINGS)
    def test_tampered_matches_reference(self, family, check, tampering):
        """Alpha on either side of the diagonal and an antisymmetric beta pair
        take the orbit fold; a one-sided beta or a nonzero beta diagonal the
        full fold, and only those two move antisym off 0.  The window is the
        preset's first five indices, to keep the reference quick."""
        kernel, (lo, _) = EXACT[family]
        window = (lo, lo + 4)
        alpha, beta, antisymmetric = tamperings(window, 2, 0, Fraction(1, 1000))[tampering]
        bad = shifted(kernel, alpha, beta)
        assert orbit_fold(bad, window) is antisymmetric
        want = reference(check, bad, window)
        assert (want != 0) is (check != "antisym" or not antisymmetric)
        assert_identical(SWEEPS[check][0](bad, window), want)


class TestTiedOrbits:
    """alpha = 1 and beta zero but for beta(0,1) = 1 and beta(2,3) = -1, with
    their antisymmetric partners: orbits of magnitude 1 and either sign, so
    only the first maximiser met fixes the sign."""

    BETA = {(0, 1): 1, (1, 0): -1, (2, 3): -1, (3, 2): 1}
    KERNEL = Kernel(alpha=lambda i, k: Fraction(1), beta=lambda i, k: Fraction(TestTiedOrbits.BETA.get((i, k), 0)))

    @pytest.mark.parametrize("check", SWEEPS)
    def test_first_maximiser_sets_the_sign(self, check):
        assert_identical(SWEEPS[check][0](self.KERNEL, (0, 3)), reference(check, self.KERNEL, (0, 3)))

    def test_signs(self):
        # TSI: (k,p,q) = (0,1,2) gives +1 before (1,2,3) gives -1;
        # cond3: (x,p,y) = (0,1,2) gives -1 before (0,2,1) gives +1
        assert orbit_fold(self.KERNEL, (0, 3))
        assert max_tsi_residual(self.KERNEL, (0, 3)) == 1
        assert max_anchored_tsi_residual(self.KERNEL, (0, 3)) == -1


def random_draw(rng: random.Random) -> tuple[Kernel, tuple, EdsSequence | None]:
    """A random gasper, schlosser or eds kernel on a random window of width 4,
    with the eds sequence it was built from."""
    while True:
        family = rng.choice(("gasper", "schlosser", "eds"))
        pick = rng.choice
        try:
            if family == "eds":
                lo = rng.randint(-2, 1)
                hi = lo + 3
                seq = eds_generate(pick((1, -1, 2)), pick((-3, -1, 1, 2, 3)), pick((-2, 1, 3, Fraction(1, 2))),
                                   2 * max(abs(lo), abs(hi)))
                return eds_kernel(seq), (lo, hi), seq
            lo = rng.randint(0, 2)
            hi = lo + 3
            if family == "gasper":
                kernel = gasper_kernel(Fraction(pick((2, 3, -2))), Fraction(pick((3, 5, -3))),
                                       Fraction(pick((1, 2)), pick((5, 7, 11))), Fraction(1, pick((3, 5, 7))))
            else:
                kernel = schlosser_kernel(Fraction(pick((1, 2)), pick((3, 5))), Fraction(pick((2, 3, -2))),
                                          Fraction(pick((5, 7, 9))), Fraction(pick((1, 2)), pick((3, 5, 7))))
            window_tables(kernel, (lo, hi))
            return kernel, (lo, hi), None
        except VerificationError:
            continue


@pytest.mark.parametrize("draw", range(200))
def test_random_draw_matches_reference(draw):
    """Each draw gets one random tampering; eds draws also tamper one or two
    ``W_n`` of their sequence, ``W_0`` among them now and then."""
    rng = random.Random(draw)
    kernel, window, seq = random_draw(rng)
    i, k = rng.sample(range(window[1] - window[0] + 1), 2)
    by = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((7, 1000)))
    alpha, beta, antisymmetric = rng.choice(list(tamperings(window, i, k, by).values()))
    bad = shifted(kernel, alpha, beta)
    assert orbit_fold(bad, window) is antisymmetric
    for check, (sweep, _, _) in SWEEPS.items():
        assert_identical(sweep(bad, window), reference(check, bad, window))
    if seq is not None:
        table = {n: seq.w(n) for n in range(seq.n_max + 1)}
        for n in rng.sample(range(seq.n_max + 1), rng.choice((1, 2))):
            table[n] += by
        tampered = EdsSequence(seq.seeds, table)
        assert_identical(max_eds_property_residual(tampered), TestEdsPropertySweep.reference(tampered))
        assert_identical(max_recurrence_residual(tampered), TestEdsPropertySweep.recurrence_reference(tampered))


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
        # antisym's residual has no alpha term: an exact beta (gasper-float-q)
        # or one that is antisymmetric to the bit (elliptic-sum) gives the exact 0
        assert isinstance(got, float) or check == "antisym" and type(got) is int and got == 0

    def test_gasper_float_q_keeps_the_float_residual(self):
        # the exact beta table alone must not be scaled next to float alpha
        kernel, window = self.KERNELS["gasper-float-q"]
        assert max_tsi_residual(kernel, window) == -5.960464477539063e-08


class TestEdsPropertySweep:
    @staticmethod
    def reference(seq: EdsSequence):
        idx = range(-(seq.n_max // 2), seq.n_max // 2 + 1)
        return worst_of(eds_property_residual(seq, k, p, q) for k, p, q in product(idx, repeat=3))

    @staticmethod
    def recurrence_reference(seq: EdsSequence):
        return worst_of(seq.recurrence_residual(n) for n in range(-(seq.n_max - 2), seq.n_max - 1))

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

    @pytest.mark.parametrize(
        "tamper",
        [{0: Fraction(1, 3)}, {0: Fraction(-2)}, {3: Fraction(1, 7), 5: Fraction(-2, 3)}, {2: Fraction(1, 2), 6: Fraction(1)}],
        ids=["w0-third", "w0-minus-two", "w3-w5", "w2-w6"],
    )
    def test_tampered_table_matches_reference(self, tamper):
        # a nonzero W_0 breaks the orbit argument, so those take the full fold
        seq = eds_generate(-1, 2, 3, 12)
        table = {n: seq.w(n) for n in range(seq.n_max + 1)}
        for n, by in tamper.items():
            table[n] += by
        bad = EdsSequence(seq.seeds, table)
        want = self.reference(bad)
        assert want != 0
        assert_identical(max_eds_property_residual(bad), want)
        assert_identical(max_recurrence_residual(bad), self.recurrence_reference(bad))

    def test_recurrence_tie_keeps_the_first_sign(self):
        # W_7 - 1 in the (1, -1, 1) table: the residual is -7 at n = 7 and +7 at
        # n = 8, so the ascending full fold meets n = -8 first and returns +7
        seq = eds_generate(1, -1, 1, 10)
        table = {n: seq.w(n) for n in range(seq.n_max + 1)}
        table[7] -= 1
        bad = EdsSequence(seq.seeds, table)
        assert [bad.recurrence_residual(n) for n in (7, 8)] == [-7, 7]
        assert_identical(max_recurrence_residual(bad), self.recurrence_reference(bad))
        assert max_recurrence_residual(bad) == 7
