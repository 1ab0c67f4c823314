"""Kernel pairs, triangular entry builders, and the finite-window verifier.

A :class:`Kernel` is a pair of two-index coefficient functions
``(alpha, beta)`` with ``beta`` expected antisymmetric.  It induces a pair of
lower-triangular matrices

    F(n,k) = prod_{i=k}^{n-1} alpha(i,k) / prod_{i=k+1}^{n} beta(i,k)
    G(n,k) = (alpha(k,k)/alpha(n,n))
             * prod_{i=k+1}^{n} alpha(i,n) / prod_{i=k}^{n-1} beta(i,n)

and :func:`verify_inversion` checks ``sum_i F(n,i) G(i,k) = delta_{n,k}``
exhaustively over a finite index window, G.F first and F.G unless G.F is an
exact-mode ``int`` zero (over Q, a square ``G.F = I`` gives ``F.G = I``).

:func:`window_tables` reads ``alpha`` and ``beta`` over ``window^2``, scaled
to integers by one common denominator when all values are exact; every sweep
and the pair fold over its tables, which one verdict's checks share.
:func:`pair_from_kernel` runs :func:`f_entry` and :func:`g_entry`, whose
guards name any zero divisor, over them into a :class:`TriangularPair` of two
tables; the scale cancels, as each entry has as many table factors above its
fraction bar as below.
When every entry is exact, :func:`verify_inversion` composes in ``int`` (row
``n`` of the left factor scaled by its least common denominator ``r_n``,
column ``k`` of the right factor by ``c_k``) and divides only nonzero
residuals back by ``r_n c_k``; otherwise products and sums keep the
reference's left-to-right order, so float values are the same bits.  G.F has
small scales: a row of G has denominators ``alpha(n,n) prod_{i=k}^{n-1}
beta(i,n)``, nested as ``k`` falls, a column of F ``prod_{i=k+1}^{n} beta(i,k)``,
nested as ``n`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain
from math import lcm
from operator import add, mul
from types import SimpleNamespace
from typing import Callable, Iterable

from .errors import (
    DomainError,
    PivotDegenerate,
    VerificationError,
    ZeroDiagonal,
    ZeroDivisor,
    located,
)
from .numerics import Scalar, exact_div, is_exact, magnitude, passes, reciprocal

Window = tuple[int, int]


def worst_of(values: Iterable[Scalar]) -> Scalar:
    """The largest-magnitude value (the first on ties), or the exact ``0``
    when there is none, so an all-zero sweep reports ``0`` in every domain.
    The first NaN met is returned at once: it is no smaller than anything."""
    worst: Scalar = 0
    for v in values:
        if not abs(v) <= abs(worst):
            if v != v:
                return v
            worst = v
    return worst


def integer_rows(
    rows: list[list[Scalar]], per_row: bool = False
) -> tuple[list[list[Scalar]], int | list[int] | None]:
    """``(int_rows, d)`` with ``rows == int_rows / d`` and ``d`` the least
    common denominator, when every value is exact; otherwise ``(rows, None)``
    with the rows unchanged.  A sweep over several tables scales all of them
    or none, so that exact and float values never meet in one residual.
    ``per_row=True`` scales each row by its own least common denominator and
    returns the list of those as ``d``; to scale the columns of a table,
    pass its columns as the rows."""
    if not all(is_exact(v) for row in rows for v in row):
        return rows, None
    if per_row:
        d = [lcm(*(v.denominator for v in row)) for row in rows]
        return [[v.numerator * (dn // v.denominator) for v in row] for row, dn in zip(rows, d)], d
    d = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d


def unscale(worst: Scalar, d: int | None, degree: int = 1) -> Scalar:
    """A worst value of a sweep over tables scaled by ``d`` divided back by
    ``d**degree`` (``degree`` table factors per term), as a Fraction; unchanged
    when ``d`` is None, and an all-zero sweep stays the exact ``0``."""
    return worst if d is None or worst == 0 else Fraction(worst, d**degree)


def check_window(window: Window) -> Window:
    """Validate a closed integer window ``(lo, hi)`` and normalize it."""
    lo, hi = window
    if not all(isinstance(b, int) and not isinstance(b, bool) for b in (lo, hi)):
        raise DomainError(f"window {window!r}: each bound must be an int")
    if lo > hi:
        raise DomainError(f"empty window [{lo},{hi}]")
    return int(lo), int(hi)


@dataclass(frozen=True)
class Kernel:
    """Two-index coefficient pair driving the entry builders.

    ``alpha`` and ``beta`` are memoised here, also in a kernel rebuilt by
    :func:`dataclasses.replace`, so they must be pure.  ``beta_antisymmetric``
    records the expectation ``beta(i,k) = -beta(k,i)``; nothing reads it, and
    only the benchmark harness (``bench/workloads.py``) still passes it.
    """

    alpha: Callable[[int, int], Scalar]
    beta: Callable[[int, int], Scalar]
    beta_antisymmetric: bool = True
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alpha", lru_cache(maxsize=None)(self.alpha))
        object.__setattr__(self, "beta", lru_cache(maxsize=None)(self.beta))


@dataclass(frozen=True)
class NodeSequences:
    """Four bilateral sequences (a, b, s, m) that generate a matrix inversion.

    The node values ``s`` must be pairwise distinct and ``a``, ``b`` nonzero
    wherever entries are built; violations surface as named errors.
    """

    a: Callable[[int], Scalar]
    b: Callable[[int], Scalar]
    s: Callable[[int], Scalar]
    m: Callable[[int], Scalar]


@dataclass(frozen=True)
class TriangularPair:
    """F and G over a closed integer window as lower-triangular list rows,
    ``F[n-lo][k-lo]`` for ``lo <= k <= n <= hi``; for ``n < k`` both
    matrices are conceptually zero and not stored."""

    F: list[list[Scalar]]
    G: list[list[Scalar]]
    window: Window


@dataclass(frozen=True)
class VerificationReport:
    """Residual table for a delta check, with a verdict.

    ``residuals`` holds ``sum_i F(n,i)G(i,k) - delta_{n,k}`` per ``(n,k)``,
    ``transposed_residuals`` the same for the G.F composition; an exact-mode
    G.F that is zero in ``int`` stands for F.G, all exact ``0``.  ``mode`` is
    ``"exact"`` (every residual must be zero) or ``"tolerance"`` (every
    magnitude must be ``<= tol``).
    """

    residuals: dict[tuple[int, int], Scalar]
    transposed_residuals: dict[tuple[int, int], Scalar]
    worst: float
    worst_value: Scalar
    passed: bool
    mode: str
    tol: float | None = None


def f_entry(kernel: Kernel, n: int, k: int) -> Scalar:
    """``F(n,k) = prod_{i=k}^{n-1} alpha(i,k) / prod_{i=k+1}^{n} beta(i,k)``."""
    if n < k:
        raise DomainError(f"f_entry requires n >= k, got ({n},{k})")
    num: Scalar = 1
    for i in range(k, n):
        num = num * kernel.alpha(i, k)
    den: Scalar = 1
    for i in range(k + 1, n + 1):
        b = kernel.beta(i, k)
        if b == 0:
            raise ZeroDivisor(f"beta({i},{k}) = 0 in F({n},{k})")
        den = den * b
    return exact_div(num, den)


def g_entry(kernel: Kernel, n: int, k: int) -> Scalar:
    """``G(n,k) = (alpha(k,k)/alpha(n,n)) prod_{i=k+1}^{n} alpha(i,n)
    / prod_{i=k}^{n-1} beta(i,n)``."""
    if n < k:
        raise DomainError(f"g_entry requires n >= k, got ({n},{k})")
    diag = kernel.alpha(n, n)
    if diag == 0:
        raise ZeroDiagonal(f"alpha({n},{n}) = 0 in G({n},{k})")
    num = kernel.alpha(k, k)
    for i in range(k + 1, n + 1):
        num = num * kernel.alpha(i, n)
    den = diag
    for i in range(k, n):
        b = kernel.beta(i, n)
        if b == 0:
            raise ZeroDivisor(f"beta({i},{n}) = 0 in G({n},{k})")
        den = den * b
    return exact_div(num, den)


def node_entries(seqs: NodeSequences, n: int, k: int) -> tuple[Scalar, Scalar]:
    """``(F(n,k), G(n,k))`` built from four sequences:

    F(n,k) = (b_n/b_k) prod_{i=k+1}^{n}
                 m_i (s_k - s_{i-1} + a_{i-1} b_{i-1} m_{i-1}) / (s_k - s_i)
    G(n,k) = (a_k/a_n) prod_{i=k}^{n-1}
                 m_i (s_n - s_{i+1} + a_{i+1} b_{i+1} m_{i+1}) / (s_n - s_i)
    """
    if n < k:
        raise DomainError(f"node_entries requires n >= k, got ({n},{k})")
    a, b, s, m = seqs.a, seqs.b, seqs.s, seqs.m
    if b(k) == 0:
        raise ZeroDivisor(f"b({k}) = 0 in node F({n},{k})")
    if a(n) == 0:
        raise ZeroDivisor(f"a({n}) = 0 in node G({n},{k})")

    f_val: Scalar = b(n) * reciprocal(b(k))
    sk = s(k)
    for i in range(k + 1, n + 1):
        diff = sk - s(i)
        if diff == 0:
            raise ZeroDivisor(f"s({k}) = s({i}) in node F({n},{k})")
        f_val = f_val * m(i) * (sk - s(i - 1) + a(i - 1) * b(i - 1) * m(i - 1))
        f_val = f_val * reciprocal(diff)

    g_val: Scalar = a(k) * reciprocal(a(n))
    sn = s(n)
    for i in range(k, n):
        diff = sn - s(i)
        if diff == 0:
            raise ZeroDivisor(f"s({n}) = s({i}) in node G({n},{k})")
        g_val = g_val * m(i) * (sn - s(i + 1) + a(i + 1) * b(i + 1) * m(i + 1))
        g_val = g_val * reciprocal(diff)
    return f_val, g_val


def kernel_to_nodes(kernel: Kernel, pivot: int) -> NodeSequences:
    """Collapse a kernel into node sequences through row/column ``pivot``:

    ``s_n = alpha(p,n)/beta(p,n)``, ``m_n = alpha(n,p)/beta(n,p)``,
    ``a_n = -alpha(n,n)/alpha(n,p)``, ``b_n = alpha(p,p)/alpha(n,p)``.

    For a kernel satisfying the triple sum identity the resulting node
    entries reproduce :func:`f_entry`/:func:`g_entry` exactly on any window
    that excludes the pivot (keeping ``beta(p,n) != 0``); ``pivot = lo - 3``
    is a safe default for a window ``[lo, hi]``.
    """
    p = pivot

    def _guarded(num: Scalar, den: Scalar, what: str, n: int) -> Scalar:
        if den == 0:
            raise PivotDegenerate(f"{what} undefined at n={n}: denominator is 0 (pivot {p})")
        return num * reciprocal(den)

    return NodeSequences(
        a=lambda n: _guarded(-kernel.alpha(n, n), kernel.alpha(n, p), "a", n),
        b=lambda n: _guarded(kernel.alpha(p, p), kernel.alpha(n, p), "b", n),
        s=lambda n: _guarded(kernel.alpha(p, n), kernel.beta(p, n), "s", n),
        m=lambda n: _guarded(kernel.alpha(n, p), kernel.beta(n, p), "m", n),
    )


def max_antisymmetry_residual(kernel: Kernel, window: Window) -> Scalar:
    """Largest ``beta(i,k) + beta(k,i)``, ``i <= k``, over the window (0 if
    antisymmetric), folded over :func:`window_tables`, which reads alpha too."""
    _, B, d = window_tables(kernel, window)
    return unscale(worst_of(Bi[k] + B[k][i] for i, Bi in enumerate(B) for k in range(i, len(B))), d)


def window_tables(kernel: Kernel, window: Window) -> tuple[list, list, int | None]:
    """``alpha`` and ``beta`` over ``window^2`` as rows ``A[i][k]``, ``B[i][k]``
    (list indices count from the window's low end), each value read once.
    When every value is exact, both come back scaled to integers by one common
    denominator ``d``; otherwise both come back unchanged with ``d = None``.
    The tables of the last ``(kernel, window)`` are kept, so every check of
    one verdict shares one read; callers must not modify them."""
    return _tables(kernel, *check_window(window))


@lru_cache(maxsize=1)
def _tables(kernel: Kernel, lo: int, hi: int) -> tuple[list, list, int | None]:
    idx = range(lo, hi + 1)
    rows = [[kernel.alpha(i, k) for k in idx] for i in idx]
    rows += [[kernel.beta(i, k) for k in idx] for i in idx]
    scaled, d = integer_rows(rows)
    return scaled[: len(idx)], scaled[len(idx) :], d


def pair_from_entries(entries: Callable[[int, int], tuple], window: Window) -> TriangularPair:
    """The pair whose entries ``(F(n,k), G(n,k)) = entries(n, k)`` are
    evaluated once each, by gap ``n - k`` and then ``k``, so the diagonal
    comes first; an entry error is re-raised naming its index."""
    lo, hi = check_window(window)
    F = [[0] * (n - lo + 1) for n in range(lo, hi + 1)]
    G = [[0] * (n - lo + 1) for n in range(lo, hi + 1)]
    for gap in range(hi - lo + 1):
        for k in range(lo, hi - gap + 1):
            n = k + gap
            try:
                F[n - lo][k - lo], G[n - lo][k - lo] = entries(n, k)
            except VerificationError as exc:
                raise located(exc, f"entry ({n},{k})")
    return TriangularPair(F, G, (lo, hi))


def pair_from_kernel(kernel: Kernel, window: Window) -> TriangularPair:
    """Build the F/G pair of a kernel over a window: :func:`f_entry` and
    :func:`g_entry` over :func:`window_tables`.  Their guards are the only
    admissibility check of a window, and they name the entry: a zero
    ``alpha(n,n)`` divides ``G(n,n)``, a zero ``beta(i,k)`` divides
    ``F(hi,k)`` below the diagonal and ``G(k,lo)`` above it.
    """
    lo, hi = check_window(window)
    A, B, _ = window_tables(kernel, (lo, hi))
    values = SimpleNamespace(alpha=lambda i, k: A[i - lo][k - lo], beta=lambda i, k: B[i - lo][k - lo])
    return pair_from_entries(lambda n, k: (f_entry(values, n, k), g_entry(values, n, k)), (lo, hi))


def pair_from_nodes(seqs: NodeSequences, window: Window) -> TriangularPair:
    """Build the F/G pair of node sequences over a window.

    The guards of :func:`node_entries` name the failing entry: a zero
    ``b(k)`` or ``a(n)`` divides the diagonal entry, and two equal nodes
    ``s(i) = s(j)``, ``i < j``, meet in ``F(j,i)``.
    """
    return pair_from_entries(partial(node_entries, seqs), window)


def _residuals(left: list[list[Scalar]], right: list[list[Scalar]], lo: int) -> tuple[dict, bool]:
    """``sum_{k<=i<=n} left(n,i) right(i,k) - delta_{n,k}`` of two
    lower-triangular tables, keyed ``(n,k)`` from the window's low end ``lo``,
    ``k`` outer and ``n`` inner, and whether it ran in ``int`` (both exact)."""
    columns = [[row[k] for row in right[k:]] for k in range(len(right))]
    L, r = integer_rows(left, per_row=True)
    C, c = integer_rows(columns, per_row=True)
    if r is None or c is None:
        L, C, r = left, columns, None
    out: dict[tuple[int, int], Scalar] = {}
    for k, column in enumerate(C):
        for n in range(k, len(L)):
            scale = None if r is None else r[n] * c[k]
            acc = reduce(add, map(mul, L[n][k:], column), 0)
            out[(n + lo, k + lo)] = unscale(acc - (scale or 1) if n == k else acc, scale)
    return out, r is not None


def verify_inversion(pair: TriangularPair, tol: float | None = None) -> VerificationReport:
    """Check ``F.G = delta`` and ``G.F = delta`` exhaustively on the window.

    ``tol=None`` demands exact equality (exact-domain entries); otherwise
    every residual magnitude must be ``<= tol``.  G.F is composed first;
    F.G is skipped only in exact mode when G.F ran in ``int`` and is zero.
    """
    if tol is not None and tol <= 0:
        raise DomainError("tolerance must be positive")
    lo, _ = check_window(pair.window)
    transposed, exact = _residuals(pair.G, pair.F, lo)
    if exact and tol is None and not any(transposed.values()):
        residuals = dict.fromkeys(transposed, 0)  # square G.F = I over Q: G = F^-1
    else:
        residuals, _ = _residuals(pair.F, pair.G, lo)

    worst_value = worst_of(chain(residuals.values(), transposed.values()))
    return VerificationReport(
        residuals=residuals,
        transposed_residuals=transposed,
        worst=magnitude(worst_value),
        worst_value=worst_value,
        passed=passes(worst_value, tol),
        mode="exact" if tol is None else "tolerance",
        tol=tol,
    )
