"""Residual evaluators for the sum identities, plus divided differences.

The triple sum identity (TSI) for a kernel ``(alpha, beta)`` reads

    alpha(n,p) beta(q,k) + alpha(n,q) beta(k,p) + alpha(n,k) beta(p,q) = 0

for all integer quadruples.  For antisymmetric ``beta`` it is equivalent to
the quintuple sum identity (QSI) and to its anchored three-term special case
(first row index pinned to the anchor); the ``max_*`` sweeps below check all
three exhaustively over finite windows.

The pointwise ``*_residual`` functions are the reference: a sweep returns the
largest-magnitude residual first met in their order.  Each sweep instead
folds over the tables of :func:`~invrel.kernels.window_tables`, one read of
``alpha`` and ``beta`` per window that every check of a verdict shares.
When every value is exact, the tables are scaled to integers by one
denominator ``d``, the sweep runs in ``int`` and its worst value is divided
back by ``d`` to the residual's degree, to the same Fraction.  There QSI gives
the same ``int`` per tuple, regrouped per ``(x, y, p)``.  TSI and the anchored
sweep, when beta is antisymmetric, fold one tuple per orbit of their
alternating indices, the orbit's first member in the full order, so they meet
the same first maximiser.  Otherwise the tables keep their values and the
sweeps evaluate the same terms in the same order, so float residuals are
bit-identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DomainError, DuplicateNodes
from .kernels import Kernel, Window, unscale, window_tables, worst_of
from .numerics import Scalar, reciprocal


def tsi_residual(kernel: Kernel, n: int, k: int, p: int, q: int) -> Scalar:
    """``alpha(n,p) beta(q,k) + alpha(n,q) beta(k,p) + alpha(n,k) beta(p,q)``."""
    a, b = kernel.alpha, kernel.beta
    return a(n, p) * b(q, k) + a(n, q) * b(k, p) + a(n, k) * b(p, q)


def anchored_tsi_residual(kernel: Kernel, x: int, p: int, y: int) -> Scalar:
    """Triple sum with the free row index anchored at ``p``:

    ``alpha(p,x) beta(y,p) + alpha(p,y) beta(p,x) + alpha(p,p) beta(x,y)``

    which is ``tsi_residual(kernel, p, p, x, y)``, term for term.
    """
    return tsi_residual(kernel, p, p, x, y)


def qsi_residual(kernel: Kernel, x: int, y: int, p: int, q: int) -> Scalar:
    """Five-term quintuple sum, two positive and three negative terms:

    ``alpha(x,p) alpha(p,y) beta(x,p) beta(q,y)
      + alpha(x,p) alpha(p,x) beta(q,y) beta(p,y)
      - alpha(x,y) alpha(p,y) beta(x,p) beta(q,p)
      - alpha(x,y) alpha(p,q) beta(x,p) beta(p,y)
      - alpha(x,x) alpha(p,p) beta(q,y) beta(p,y)``
    """
    a, b = kernel.alpha, kernel.beta
    return (
        a(x, p) * a(p, y) * b(x, p) * b(q, y)
        + a(x, p) * a(p, x) * b(q, y) * b(p, y)
        - a(x, y) * a(p, y) * b(x, p) * b(q, p)
        - a(x, y) * a(p, q) * b(x, p) * b(p, y)
        - a(x, x) * a(p, p) * b(q, y) * b(p, y)
    )


def _alternating(B: list, d: int | None) -> bool:
    """Whether the tables are ``int`` and ``B[i][k] == -B[k][i]`` everywhere,
    diagonal included, so that a transposition of two beta indices negates
    the TSI and anchored residuals and a repeated one gives 0."""
    return d is not None and all(Bi[k] == -B[k][i] for i, Bi in enumerate(B) for k in range(i, len(B)))


def max_tsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude TSI residual over all quadruples in ``window^4``,
    the first met in the order and with the terms of :func:`tsi_residual`.
    On an ``int`` table with antisymmetric beta the residual is alternating
    in ``(k, p, q)``, and a triple's sorted permutation is the first of its
    orbit in that order, so only ``k < p < q`` is folded; otherwise every
    ``(k, p, q)`` is."""
    A, B, d = window_tables(kernel, window)
    w = range(len(B))
    triples = list(combinations(w, 3) if _alternating(B, d) else product(w, repeat=3))
    return unscale(worst_of(
        An[p] * B[q][k] + An[q] * B[k][p] + An[k] * B[p][q] for An in A for k, p, q in triples
    ), d, 2)


def max_anchored_tsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude anchored residual over all triples in ``window^3``,
    the first met in the order and with the terms of
    :func:`anchored_tsi_residual`.  On an ``int`` table with antisymmetric
    beta, swapping ``x`` and ``y`` negates the residual and ``(x, p, y)`` with
    ``x < y`` is met first, so only ``y > x`` is folded."""
    A, B, d = window_tables(kernel, window)
    alternating = _alternating(B, d)
    return unscale(worst_of(
        Ap[x] * By[p] + Ap[y] * Bp[x] + Ap[p] * Bx[y]
        for x, Bx in enumerate(B)
        for p, (Ap, Bp) in enumerate(zip(A, B))
        for y, By in (enumerate(B[x + 1 :], x + 1) if alternating else enumerate(B))
    ), d, 2)


def max_qsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude QSI residual over all quadruples in ``window^4``,
    in the order of :func:`qsi_residual`.  On an ``int`` table each residual
    is regrouped per ``(x, y, p)`` as ``c1 B[q][y] - c2 B[q][p] - c3 A[p][q]``,
    the same ``int`` from 3 products per ``q``; otherwise with its terms."""
    A, B, d = window_tables(kernel, window)
    if d is not None:
        return unscale(worst_of(_regrouped_qsi(A, B)), d, 4)
    r = range(len(A))
    return unscale(worst_of(
        Ax[p] * Ap[y] * Bx[p] * Bq[y]
        + Ax[p] * Ap[x] * Bq[y] * Bp[y]
        - Ax[y] * Ap[y] * Bx[p] * Bq[p]
        - Ax[y] * Ap[q] * Bx[p] * Bp[y]
        - Ax[x] * Ap[p] * Bq[y] * Bp[y]
        for x, (Ax, Bx) in enumerate(zip(A, B))
        for y in r
        for p, (Ap, Bp) in enumerate(zip(A, B))
        for q, Bq in enumerate(B)
    ), d, 4)


def _regrouped_qsi(A: list, B: list):
    """The ``int`` QSI residuals in sweep order, ``c1``, ``c2``, ``c3`` per ``(x, y, p)``."""
    C = list(zip(*B))  # C[y][q] = B[q][y]
    for x, (Ax, Bx) in enumerate(zip(A, B)):
        for y, Cy in enumerate(C):
            for p, (Ap, Bp, Cp) in enumerate(zip(A, B, C)):
                c1 = Ax[p] * (Ap[y] * Bx[p] + Ap[x] * Bp[y]) - Ax[x] * Ap[p] * Bp[y]
                c2 = Ax[y] * Ap[y] * Bx[p]
                c3 = Ax[y] * Bx[p] * Bp[y]
                for by, bp, aq in zip(Cy, Cp, Ap):
                    yield c1 * by - c2 * bp - c3 * aq


@dataclass(frozen=True)
class DividedDifferenceProblem:
    """Pairwise-distinct nodes plus a polynomial.

    The polynomial is given either as ``coeffs`` (ascending powers) or as
    ``shifts`` ``(a_1, ..., a_d)`` for the product form ``prod_j (x + a_j)``;
    the product form is kept separate because the vanishing statement below
    is naturally posed for it.  With ``n + 1`` nodes, any polynomial of
    degree ``< n`` has divided difference zero.
    """

    nodes: tuple[Scalar, ...]
    coeffs: tuple[Scalar, ...] | None = None
    shifts: tuple[Scalar, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.shifts is not None:
            object.__setattr__(self, "shifts", tuple(self.shifts))
        if (self.coeffs is None) == (self.shifts is None):
            raise DomainError("supply exactly one of coeffs or shifts")
        if not self.nodes:
            raise DomainError("at least one node required")
        seen = list(self.nodes)
        for i, xi in enumerate(seen):
            for xj in seen[i + 1 :]:
                if xi == xj:
                    raise DuplicateNodes(f"node {xi!r} repeated")

    @property
    def degree(self) -> int:
        if self.shifts is not None:
            return len(self.shifts)
        deg = -1
        for i, c in enumerate(self.coeffs):
            if c != 0:
                deg = i
        return deg

    def h(self, x: Scalar) -> Scalar:
        """Evaluate the polynomial at ``x``."""
        if self.shifts is not None:
            out: Scalar = 1
            for a in self.shifts:
                out = out * (x + a)
            return out
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def divided_difference(problem: DividedDifferenceProblem) -> Scalar:
    """Recursive divided difference ``[x_0, ..., x_n]H`` via the standard table:

    ``[x_0]H = H(x_0)`` and
    ``[x_0..x_n]H = ([x_0..x_{n-1}]H - [x_1..x_n]H) / (x_0 - x_n)``.
    """
    nodes = problem.nodes
    vals = [problem.h(x) for x in nodes]
    n = len(nodes) - 1
    for level in range(1, n + 1):
        for i in range(n - level + 1):
            vals[i] = (vals[i] - vals[i + 1]) * reciprocal(nodes[i] - nodes[i + level])
    return vals[0]


def divided_difference_sum(problem: DividedDifferenceProblem) -> Scalar:
    """Explicit form ``sum_i H(x_i) / prod_{j != i} (x_i - x_j)``.

    Exactly zero whenever ``deg H < len(nodes) - 1``; always equal to the
    recursive form.
    """
    nodes = problem.nodes
    total: Scalar = 0
    for i, xi in enumerate(nodes):
        den: Scalar = 1
        for j, xj in enumerate(nodes):
            if j != i:
                den = den * (xi - xj)
        total = total + problem.h(xi) * reciprocal(den)
    return total
