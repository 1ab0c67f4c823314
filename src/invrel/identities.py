"""Residual evaluators for the sum identities, plus divided differences.

The triple sum identity (TSI) for a kernel ``(alpha, beta)`` reads

    alpha(n,p) beta(q,k) + alpha(n,q) beta(k,p) + alpha(n,k) beta(p,q) = 0

for all integer quadruples.  For antisymmetric ``beta`` it is equivalent to
the quintuple sum identity (QSI) and to its anchored three-term special case
(first row index pinned to the anchor); the ``max_*`` sweeps below check all
three exhaustively over finite windows.  On a window with tables ``A, B`` and
``B`` antisymmetric, diagonal included, every QSI residual there is

    QSI(x,y,p,q) = A[x][y] B[x][p] TSI(p,y,p,q)
                 + B[q][y] (A[x][p] TSI(p,p,y,x) - A[p][p] TSI(x,x,p,y)).

The pointwise ``*_residual`` functions are the reference: a sweep returns the
largest-magnitude residual first met in their order.  Each sweep folds over
the tables of :func:`~invrel.kernels.window_tables`, one read per window that
every check of a verdict shares.  When every value is exact, the tables are
scaled to integers by one denominator ``d``, the sweep runs in ``int`` and its
worst value is divided back by ``d`` to the residual's degree, to the same
Fraction.  The read also says whether the tables are alternating (scaled, and
``B`` antisymmetric, diagonal included); there TSI and the anchored sweep
fold one tuple per orbit of their alternating indices, the orbit's first
member in the full order, so they meet the same first maximiser, and QSI is
the exact ``0`` when TSI is.  Float or mixed tables keep their values and the
sweeps evaluate the same terms in the same order, so float residuals are
bit-identical to the reference.  This module keeps no state: TSI keeps its
worst value in the slot that the read returns with the tables, so the value
ends with them.  QSI's rule reads it, and since the anchored ``(x, p, y)`` is
TSI's ``(p, p, x, y)`` term for term, cond3 is the exact ``0`` with no fold
in every domain when the TSI value kept with its tables is.

The divided differences ``[x_0..x_n]h`` of any callable ``h`` over
pairwise-distinct nodes come in a recursive and an explicit-sum form.  Both
are exactly zero for a polynomial of degree ``< n``: the vanishing statement
that makes the node-sequence pairs of :mod:`invrel.kernels` inversions.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Callable, Sequence

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


def max_tsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude TSI residual over all quadruples in ``window^4``,
    the first met in the order and with the terms of :func:`tsi_residual`.
    On alternating tables the residual is alternating in ``(k, p, q)``, and a
    triple's sorted permutation is the first of its orbit in that order, so
    only ``k < p < q`` is folded; otherwise every ``(k, p, q)`` is.  The
    worst value is kept in the tables' slot, and read from there again."""
    A, B, d, alternating, kept = window_tables(kernel, window)
    if kept[0] is None:
        w = range(len(B))
        triples = list(combinations(w, 3) if alternating else product(w, repeat=3))
        kept[0] = unscale(worst_of(
            An[p] * B[q][k] + An[q] * B[k][p] + An[k] * B[p][q] for An in A for k, p, q in triples
        ), d, 2)
    return kept[0]


def max_anchored_tsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude anchored residual over all triples in ``window^3``,
    the first met in the order and with the terms of
    :func:`anchored_tsi_residual`; the exact ``0`` when the TSI value kept
    with the tables is.  On alternating tables, swapping ``x`` and ``y``
    negates the residual and ``(x, p, y)`` with ``x < y`` is met first, so
    only ``y > x`` is folded."""
    A, B, d, alternating, kept = window_tables(kernel, window)
    if kept[0] == 0:
        return 0
    return unscale(worst_of(
        Ap[x] * By[p] + Ap[y] * Bp[x] + Ap[p] * Bx[y]
        for x, Bx in enumerate(B)
        for p, (Ap, Bp) in enumerate(zip(A, B))
        for y, By in (enumerate(B[x + 1 :], x + 1) if alternating else enumerate(B))
    ), d, 2)


def max_qsi_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest-magnitude QSI residual over all quadruples in ``window^4``,
    in the order and with the terms of :func:`qsi_residual`; by the identity
    above, the exact ``0`` on alternating tables with an all-zero TSI sweep."""
    A, B, d, alternating, _ = window_tables(kernel, window)
    if alternating and max_tsi_residual(kernel, window) == 0:
        return 0
    return unscale(worst_of(
        Ax[p] * Ap[y] * Bx[p] * Bq[y]
        + Ax[p] * Ap[x] * Bq[y] * Bp[y]
        - Ax[y] * Ap[y] * Bx[p] * Bq[p]
        - Ax[y] * Ap[q] * Bx[p] * Bp[y]
        - Ax[x] * Ap[p] * Bq[y] * Bp[y]
        for x, (Ax, Bx) in enumerate(zip(A, B))
        for y in range(len(A))
        for p, (Ap, Bp) in enumerate(zip(A, B))
        for q, Bq in enumerate(B)
    ), d, 4)


def _checked_nodes(nodes: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """``nodes`` as a tuple, refused unless non-empty and pairwise distinct."""
    nodes = tuple(nodes)
    if not nodes:
        raise DomainError("at least one node required")
    for i, xi in enumerate(nodes):
        for xj in nodes[i + 1 :]:
            if xi == xj:
                raise DuplicateNodes(f"node {xi!r} repeated")
    return nodes


def divided_difference(h: Callable[[Scalar], Scalar], nodes: Sequence[Scalar]) -> Scalar:
    """Recursive divided difference ``[x_0, ..., x_n]h`` via the standard table:

    ``[x_0]h = h(x_0)`` and
    ``[x_0..x_n]h = ([x_0..x_{n-1}]h - [x_1..x_n]h) / (x_0 - x_n)``.

    The nodes must be pairwise distinct.  For a polynomial ``h`` of degree
    ``< n`` the result is zero.
    """
    nodes = _checked_nodes(nodes)
    vals = [h(x) for x in nodes]
    n = len(nodes) - 1
    for level in range(1, n + 1):
        for i in range(n - level + 1):
            vals[i] = (vals[i] - vals[i + 1]) * reciprocal(nodes[i] - nodes[i + level])
    return vals[0]


def divided_difference_sum(h: Callable[[Scalar], Scalar], nodes: Sequence[Scalar]) -> Scalar:
    """Explicit form ``sum_i h(x_i) / prod_{j != i} (x_i - x_j)``.

    Exactly zero whenever ``h`` is a polynomial of degree ``< len(nodes) - 1``;
    always equal to the recursive form.
    """
    nodes = _checked_nodes(nodes)
    total: Scalar = 0
    for i, xi in enumerate(nodes):
        den = math.prod(xi - xj for j, xj in enumerate(nodes) if j != i)
        total = total + h(xi) * reciprocal(den)
    return total
