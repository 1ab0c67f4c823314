"""The tabulated entries and integer compositions against the reference.

``pair_from_kernel`` builds F and G once per window and ``verify_inversion``
composes the two tables, in ``int`` when every entry is exact, G.F first and
F.G only when G.F is not an exact-mode ``int`` zero.  The references
here are the public entry functions ``f_entry``/``g_entry`` on the kernel
itself, plain factor-by-factor loops over the kernel, and a plain
left-to-right Fraction sum over the entries, so the table must agree
exactly: equal with the same printed Fraction and type on exact kernels,
``repr``-identical wherever a float enters.
"""

import random
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest

from invrel import (
    DEFAULT_POLICY,
    FAMILIES,
    FactorSequences,
    Kernel,
    TriangularPair,
    VerificationError,
    affine_sequence,
    bilinear_kernel,
    binomial_kernel,
    f_entry,
    g_entry,
    gasper_kernel,
    pair_from_entries,
    pair_from_kernel,
    product_ratio_kernel,
    kernels,
    verify_inversion,
)
from invrel.numerics import is_exact, reciprocal


def loop_f(kernel, n, k):
    """``F(n,k)``: the alpha factors, then the beta factors, each multiplied
    in from the left, and one quotient; the diagonal, two empty products, is
    the int 1."""
    if n == k:
        return 1
    num = 1
    for i in range(k, n):
        num = num * kernel.alpha(i, k)
    den = 1
    for i in range(k + 1, n + 1):
        den = den * kernel.beta(i, k)
    return num * reciprocal(den)


def loop_g(kernel, n, k):
    """``G(n,k)`` in the same way, from ``alpha(k,k)`` and ``alpha(n,n)``;
    the diagonal is the int 1 where ``alpha(n,n)`` is exact."""
    if n == k and is_exact(kernel.alpha(n, n)):
        return 1
    num = kernel.alpha(k, k)
    for i in range(k + 1, n + 1):
        num = num * kernel.alpha(i, n)
    den = kernel.alpha(n, n)
    for i in range(k, n):
        den = den * kernel.beta(i, n)
    return num * reciprocal(den)


def reference_compose(left, right, window) -> dict:
    """``sum_i left(n,i) right(i,k) - delta_{n,k}`` over entry functions,
    summed left to right, ``k`` outer and ``n`` inner."""
    lo, hi = window
    out = {}
    for k in range(lo, hi + 1):
        for n in range(k, hi + 1):
            acc = 0
            for i in range(k, n + 1):
                acc = acc + left(n, i) * right(i, k)
            out[(n, k)] = acc - (1 if n == k else 0)
    return out


def preset(family: str) -> tuple[Kernel, tuple[int, int]]:
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


def random_exact_kernel(family: str, seed: int, window=None) -> tuple[Kernel, tuple[int, int]]:
    """A bilinear or product-ratio kernel over affine sequences with small
    random Fraction coefficients, on ``window`` or else a random window of
    width 5 to 7, drawn again until its pair builds there."""
    rng = random.Random(f"{family}:{seed}")

    def sequence():
        return fraction_sequence(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 9))

    while True:
        lo = rng.randint(-3, 3)
        drawn = window or (lo, lo + rng.randint(4, 6))
        if family == "bilinear":
            kernel = bilinear_kernel(sequence(), sequence(), sequence(), sequence())
        else:
            kernel = product_ratio_kernel(FactorSequences(x=sequence(), y=sequence(), t=sequence()))
        try:
            pair_from_kernel(kernel, drawn)
        except VerificationError:
            continue
        return kernel, drawn


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
    **{
        f"{family}-random-{seed}": random_exact_kernel(family, seed)
        for family in ("bilinear", "product-ratio")
        for seed in range(3)
    },
}

# where one off-diagonal alpha is perturbed, relative to the window's low
# end: below the diagonal it enters F (alpha(i,k), i > k), above it G
# (alpha(i,n), i < n)
PERTURBATIONS = {"preset": None, "alpha-below": (2, 0), "alpha-above": (1, 3)}


def exact_case(family: str, perturbation: str) -> tuple[Kernel, tuple[int, int]]:
    kernel, window = EXACT[family]
    at = PERTURBATIONS[perturbation]
    if at is not None:
        kernel = perturbed(kernel, (window[0] + at[0], window[0] + at[1]))
    return kernel, window


def assert_same_exact(got, want):
    assert got == want
    assert str(Fraction(got)) == str(Fraction(want))


def assert_same_residuals(got: dict, want: dict, same):
    assert list(got) == list(want)  # same keys in the same order
    for key in want:
        same(got[key], want[key])


@pytest.fixture
def compositions(monkeypatch):
    """The ``(left, right)`` tables of every composition ``verify_inversion``
    runs, in order."""
    calls = []
    compose = kernels._residuals

    def counted(left, right, lo):
        calls.append((left, right))
        return compose(left, right, lo)

    monkeypatch.setattr(kernels, "_residuals", counted)
    return calls


def assert_orders(calls: list, pair: TriangularPair, orders: list[str]):
    tables = {"G.F": (pair.G, pair.F), "F.G": (pair.F, pair.G)}
    assert len(calls) == len(orders)
    for (left, right), order in zip(calls, orders):
        assert left is tables[order][0] and right is tables[order][1]


def assert_exact_report(pair: TriangularPair, f, g, calls: list):
    """``verify_inversion(pair)`` in exact mode against the two-order
    Fraction sums of the entry functions ``f`` and ``g``: every report field
    is the same, and F.G is composed, after G.F, unless G.F is all zero."""
    report = verify_inversion(pair)
    want, want_t = reference_compose(f, g, pair.window), reference_compose(g, f, pair.window)
    assert_same_residuals(report.residuals, want, assert_same_exact)
    assert_same_residuals(report.transposed_residuals, want_t, assert_same_exact)
    worst = max(chain(want.values(), want_t.values()), key=abs)
    assert_same_exact(report.worst_value, worst)
    assert report.passed == (worst == 0)
    assert_orders(calls, pair, ["G.F"] if all(v == 0 for v in want_t.values()) else ["G.F", "F.G"])
    return report


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
@pytest.mark.parametrize("family", EXACT)
class TestExactTable:
    def test_entries_match_the_entry_functions(self, family, perturbation):
        kernel, (lo, hi) = exact_case(family, perturbation)
        pair = pair_from_kernel(kernel, (lo, hi))
        F, G = pair.F, pair.G
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                for got, reference in ((F, f_entry), (F, loop_f), (G, g_entry), (G, loop_g)):
                    value, expected = got[n - lo][k - lo], reference(kernel, n, k)
                    assert_same_exact(value, expected)
                    assert type(value) is type(expected) is (int if n == k else Fraction)

    def test_residuals_match_the_fraction_sums(self, family, perturbation, compositions):
        kernel, window = exact_case(family, perturbation)
        f, g = (lambda n, k: f_entry(kernel, n, k)), (lambda n, k: g_entry(kernel, n, k))
        report = assert_exact_report(pair_from_kernel(kernel, window), f, g, compositions)
        if perturbation == "preset":
            assert report.passed and report.worst_value == 0
        else:
            assert any(report.residuals.values()) and any(report.transposed_residuals.values())
            assert not report.passed


def test_mismatched_pair_matches_the_fraction_sums(compositions):
    # F of one kernel against G of another
    window = (0, 5)
    binom, gasp = binomial_kernel(), gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), Fraction(1, 7))
    pair = TriangularPair(pair_from_kernel(binom, window).F, pair_from_kernel(gasp, window).G, window)
    f, g = (lambda n, k: f_entry(binom, n, k)), (lambda n, k: g_entry(gasp, n, k))
    report = assert_exact_report(pair, f, g, compositions)
    assert any(report.residuals.values()) and any(report.transposed_residuals.values())


@pytest.mark.parametrize("seed", range(3))
def test_random_mismatched_pair_matches_the_fraction_sums(seed, compositions):
    one, window = random_exact_kernel("bilinear", seed)
    other, _ = random_exact_kernel("product-ratio", seed, window)
    pair = TriangularPair(pair_from_kernel(one, window).F, pair_from_kernel(other, window).G, window)
    f, g = (lambda n, k: f_entry(one, n, k)), (lambda n, k: g_entry(other, n, k))
    assert not assert_exact_report(pair, f, g, compositions).passed


def test_callable_pair_tabulates_in_window_order():
    pair = pair_from_entries(lambda n, k: (Fraction(n, k or 1), n - k), (-1, 2))
    assert pair.F == [[1], [0, 0], [-1, 1, 1], [-2, 2, 2, 1]]
    assert pair.G == [[0], [1, 0], [2, 1, 0], [3, 2, 1, 0]]


class TestFloatAndMixedTables:
    """No table is scaled unless every value is exact, so float entries and
    residuals are the same bits as the entry functions and the plain sums."""

    KERNELS = {
        # float alpha (q enters alpha only) next to an exact Fraction beta
        "gasper-float-q": (
            gasper_kernel(Fraction(2), Fraction(3), Fraction(1, 5), 0.2, window=(0, 6)), (0, 6), 1e-9
        ),
        **{name: (*preset(name), FAMILIES[name].tolerance) for name in ("warnaar", "elliptic-sum", "partial-theta")},
    }

    @pytest.mark.parametrize("name", KERNELS)
    def test_entries_repr_identical(self, name):
        kernel, (lo, hi), _ = self.KERNELS[name]
        pair = pair_from_kernel(kernel, (lo, hi))
        F, G = pair.F, pair.G
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                for got, reference in ((F, f_entry), (F, loop_f), (G, g_entry), (G, loop_g)):
                    assert repr(got[n - lo][k - lo]) == repr(reference(kernel, n, k))

    @pytest.mark.parametrize("name", KERNELS)
    def test_residuals_repr_identical(self, name, compositions):
        kernel, window, tol = self.KERNELS[name]
        pair = pair_from_kernel(kernel, window)
        report = verify_inversion(pair, tol)
        f, g = (lambda n, k: f_entry(kernel, n, k)), (lambda n, k: g_entry(kernel, n, k))

        def same(got, want):
            assert repr(got) == repr(want)

        assert_same_residuals(report.residuals, reference_compose(f, g, window), same)
        assert_same_residuals(report.transposed_residuals, reference_compose(g, f, window), same)
        assert any(isinstance(v, float) for v in report.residuals.values())
        assert_orders(compositions, pair, ["G.F", "F.G"])


def drawn_float_preset(family: str, seed: int | None) -> tuple[Kernel, tuple[int, int]]:
    """A float family's preset kernel on its window, or, for a seed, one
    whose every parameter is the preset's scaled by a random factor in
    0.9..1.1, drawn again until its pair builds."""
    spec = FAMILIES[family]
    rng = random.Random(f"{family}:{seed}")
    while True:
        params = spec.params if seed is None else {k: v * rng.uniform(0.9, 1.1) for k, v in spec.params.items()}
        try:
            kernel = spec.build(params, spec.window, DEFAULT_POLICY)[0]
            pair_from_kernel(kernel, spec.window)
        except VerificationError:
            continue
        return kernel, spec.window


class TestDiagonals:
    """``F(n,n)`` is the int 1 in every pair, and so is ``G(n,n)`` where
    ``alpha(n,n)`` is exact, so a float table or pair holds no Fraction."""

    @pytest.mark.parametrize("seed", [None, *range(4)])
    @pytest.mark.parametrize("family", ["warnaar", "elliptic-sum", "partial-theta"])
    def test_float_tables_and_pairs_hold_no_fraction(self, family, seed):
        kernel, window = drawn_float_preset(family, seed)
        A, B, d, _, _ = kernels.window_tables(kernel, window)
        pair = pair_from_kernel(kernel, window)
        assert d is None
        for table in (A, B, pair.F, pair.G):
            assert not any(isinstance(v, Fraction) for row in table for v in row)

    @pytest.mark.parametrize("family", EXACT)
    def test_exact_diagonals_are_the_int_one(self, family):
        kernel, window = EXACT[family]
        pair = pair_from_kernel(kernel, window)
        for i in range(len(pair.F)):
            assert type(pair.F[i][i]) is int and pair.F[i][i] == 1
            assert type(pair.G[i][i]) is int and pair.G[i][i] == 1

    def test_float_diagonal_of_g_keeps_its_quotient(self):
        # 49 * (1/49) is 0.9999999999999999 in floats
        kernel = Kernel(alpha=lambda i, k: 49.0, beta=lambda i, k: float(k - i))
        pair = pair_from_kernel(kernel, (0, 2))
        assert [row[-1] for row in pair.F] == [1, 1, 1] and all(type(row[-1]) is int for row in pair.F)
        assert [row[-1] for row in pair.G] == [49.0 * (1 / 49.0)] * 3 != [1.0] * 3


class TestBothCompositions:
    """F.G is composed, after G.F, whenever G.F did not run in ``int`` or
    the check has a tolerance, even where every residual is zero."""

    @pytest.mark.parametrize("one, zero", [(1.0, 0.0), (1, 0.0), (Fraction(1), 0.0)])
    def test_float_pair_with_all_zero_residuals(self, one, zero, compositions):
        pair = pair_from_entries(lambda n, k: (one, one) if n == k else (zero, zero), (-2, 3))
        report = verify_inversion(pair)
        for residuals in (report.residuals, report.transposed_residuals):
            assert all(v == 0 for v in residuals.values())
            assert any(isinstance(v, float) for v in residuals.values())
        assert report.passed and report.worst_value == 0
        assert_orders(compositions, pair, ["G.F", "F.G"])

    @pytest.mark.parametrize("name", EXACT)
    def test_exact_tables_under_a_tolerance(self, name, compositions):
        kernel, window = EXACT[name]
        pair = pair_from_kernel(kernel, window)
        report = verify_inversion(pair, 1e-9)
        assert report.passed and report.worst_value == 0
        assert_orders(compositions, pair, ["G.F", "F.G"])


def pointwise_pair(kernel: Kernel, window) -> TriangularPair:
    """The pair from ``f_entry``/``g_entry`` at every entry, over the same
    window tables as ``pair_from_kernel``, through ``pair_from_entries``."""
    lo, _ = window
    A, B, *_ = kernels.window_tables(kernel, window)
    values = SimpleNamespace(alpha=lambda i, k: A[i - lo][k - lo], beta=lambda i, k: B[i - lo][k - lo])
    return pair_from_entries(lambda n, k: (f_entry(values, n, k), g_entry(values, n, k)), window)


def assert_same_pair(got: TriangularPair, want: TriangularPair):
    """Equal entry by entry, in value and in type: the int 1 on the diagonal
    of an exact pair, a Fraction off it."""
    assert got.window == want.window
    for table, reference in ((got.F, want.F), (got.G, want.G)):
        assert [len(row) for row in table] == [len(row) for row in reference]
        for row, reference_row in zip(table, reference):
            for value, expected in zip(row, reference_row):
                assert type(value) is type(expected) and value == expected


def bench_like_draw(family: str, seed: int) -> tuple[Kernel, tuple[int, int]]:
    """A gasper or schlosser kernel on 0..16, or an eds kernel on 1..11 to
    1..13, with parameters drawn from the benchmark's choice lists, drawn
    again until its pair builds."""
    rng = random.Random(f"delta-exact:{family}:{seed}")
    pick = rng.choice
    while True:
        window = (1, rng.randint(11, 13)) if family == "eds" else (0, 16)
        if family == "gasper":
            params = {"a": Fraction(pick((2, 3, 4, 5, -2, -3))), "b": Fraction(pick((3, 5, 7, -3, -5, -7))),
                      "p": Fraction(pick((1, 2, 3)), pick((5, 7, 11, 13))), "q": Fraction(1, pick((3, 5, 7, 9)))}
        elif family == "schlosser":
            params = {"a": Fraction(pick((1, 2, 3)), pick((2, 3, 5))), "b": Fraction(pick((2, 3, 5, -2, -3))),
                      "c": Fraction(pick((5, 6, 7, 8, 9, 11))), "q": Fraction(pick((1, 2)), pick((3, 5, 7)))}
        else:
            params = {"w2": Fraction(pick((1, -1))), "w3": Fraction(pick((-4, -3, -2, -1, 1, 2, 3, 4))),
                      "w4": Fraction(pick((-4, -3, -2, -1, 1, 2, 3, 4)))}
        try:
            kernel = FAMILIES[family].build(params, window, DEFAULT_POLICY)[0]
            pair_from_kernel(kernel, window)
        except VerificationError:
            continue
        return kernel, window


DELTA_WINDOWS = {
    **{f"binomial-{lo}..{lo + 44}": (lambda lo=lo: (binomial_kernel(), (lo, lo + 44))) for lo in range(-3, 4)},
    **{
        f"{family}-draw-{seed}": (lambda family=family, seed=seed: bench_like_draw(family, seed))
        for family in ("gasper", "schlosser", "eds")
        for seed in range(4)
    },
}


class TestNeighbourSteps:
    """On scaled int tables each off-diagonal entry is its neighbour times one
    alpha/beta factor; the pair is the pointwise one, entry for entry and error
    for error."""

    @pytest.mark.parametrize("name", DELTA_WINDOWS)
    def test_exact_pair_is_the_pointwise_pair(self, name):
        kernel, window = DELTA_WINDOWS[name]()
        assert kernels.window_tables(kernel, window)[2] is not None
        pair = pair_from_kernel(kernel, window)
        assert_same_pair(pair, pointwise_pair(kernel, window))
        assert all(type(row[-1]) is int for row in chain(pair.F, pair.G))
        assert all(type(v) is Fraction for row in chain(pair.F, pair.G) for v in row[:-1])

    @staticmethod
    def tampered(alpha_zero=(), beta_zero=()) -> Kernel:
        """Gasper's preset with the alpha entries ``alpha_zero`` and the beta
        entries ``beta_zero`` set to 0."""
        base, _ = EXACT["gasper"]
        return Kernel(
            alpha=lambda i, k: 0 if (i, k) in alpha_zero else base.alpha(i, k),
            beta=lambda i, k: 0 if (i, k) in beta_zero else base.beta(i, k),
        )

    @pytest.mark.parametrize(
        "zeros, message",
        [
            ({"beta_zero": {(3, 2)}}, "entry (3,2): beta(3,2) = 0 in F(3,2)"),  # below, gap 1
            ({"beta_zero": {(4, 2)}}, "entry (4,2): beta(4,2) = 0 in F(4,2)"),  # below, gap 2
            ({"beta_zero": {(5, 2)}}, "entry (5,2): beta(5,2) = 0 in F(5,2)"),  # below, gap 3
            ({"beta_zero": {(5, 2), (2, 5)}}, "entry (5,2): beta(5,2) = 0 in F(5,2)"),  # F before G
            ({"beta_zero": {(2, 5)}}, "entry (5,2): beta(2,5) = 0 in G(5,2)"),  # above only
            ({"beta_zero": {(4, 5)}}, "entry (5,4): beta(4,5) = 0 in G(5,4)"),  # above only, gap 1
            ({"alpha_zero": {(3, 3)}}, "entry (3,3): alpha(3,3) = 0 in G(3,3)"),  # mid-window diagonal
            ({"alpha_zero": {(3, 3)}, "beta_zero": {(2, 1)}}, "entry (3,3): alpha(3,3) = 0 in G(3,3)"),
        ],
    )
    def test_errors_are_the_pointwise_errors(self, zeros, message):
        kernel, window = self.tampered(**zeros), (0, 6)
        with pytest.raises(VerificationError) as want:
            pointwise_pair(kernel, window)
        with pytest.raises(VerificationError) as got:
            pair_from_kernel(kernel, window)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value) == message
        assert type(got.value.__cause__) is type(want.value.__cause__)

    @pytest.mark.parametrize("at", [(3, 1), (1, 3), (1, 0)])
    def test_zero_off_diagonal_alpha_stays_an_exact_zero(self, at):
        kernel, window = self.tampered(alpha_zero={at}), (0, 6)
        pair = pair_from_kernel(kernel, window)
        assert_same_pair(pair, pointwise_pair(kernel, window))
        i, k = at
        # below the diagonal alpha(i,k) enters F(n,k), n > i; above it, G(k,m), m < i
        zeros = [pair.F[n][k] for n in range(i + 1, 7)] if i > k else [pair.G[k][m] for m in range(i)]
        assert zeros and all(type(v) is Fraction and v == 0 for v in zeros)
