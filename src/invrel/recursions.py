"""Two ways to reconstruct beta from alpha and the first superdiagonal.

Given ``alpha`` and the seed ``t(k) = beta(k, k+1)``, the full antisymmetric
``beta`` is forced in two a-priori different ways:

* the triple-sum-identity route (:func:`beta_step_tsi`,
  :func:`beta_closed_tsi`, :func:`beta_table_tsi`), a first-order recursion
  in the gap ``n - k``;
* the window-delta route (:func:`beta_table_inversion`), which solves the
  lowest nontrivial orthogonality constraint of the induced F/G pair,
  ``sum_{i=k}^{n} F(n,i) G(i,k) = 0``, for ``beta(k, n)``, gap by gap on the
  pair's own F/G tables.  :func:`beta_from_inversion` solves the same
  constraint through the cleared-denominator weights :func:`f_weight` and
  :func:`g_weight`; it is the reference, and fills the whole table where the
  induced pair is undefined.

Both table builders read each ``t(k)`` and alpha value once, and on exact
seeds run on int pairs whose only gcd is each stored beta's ``Fraction``.

The two routes agree at gap 2 for every seed but diverge from gap 3 on;
:func:`counterexample_discrepancies` shows it exactly on the canonical seed
``alpha(i,j) = i + j``, ``t(j) = j``, built in ``int``, from both tables' row k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .errors import DomainError, MissingBeta, ZeroDenominator, ZeroDiagonal, ZeroDivisor
from .kernels import Window, check_window
from .numerics import Scalar, is_exact, reciprocal


@dataclass(frozen=True)
class BetaSeed:
    """alpha table plus the first superdiagonal ``t(k) = beta(k, k+1)``.

    Diagonal values ``alpha(k,k)`` are denominators of both routes and are
    checked to be nonzero on the declared window at construction.
    """

    alpha: Callable[[int, int], Scalar]
    t: Callable[[int], Scalar]
    window: Window

    def __post_init__(self):
        lo, hi = check_window(self.window)
        object.__setattr__(self, "window", (lo, hi))
        for k in range(lo, hi + 1):
            if self.alpha(k, k) == 0:
                raise ZeroDiagonal(f"alpha({k},{k}) = 0 on seed window [{lo},{hi}]")


def beta_step_tsi(seed: BetaSeed, beta_prev: Scalar, k: int, n: int) -> Scalar:
    """One step of the triple-sum route: ``beta(k,n)`` from ``beta(k,n-1)``:

    ``(alpha(n-1,n) beta(k,n-1) + alpha(n-1,k) t(n-1)) / alpha(n-1,n-1)``.
    """
    diag = seed.alpha(n - 1, n - 1)
    if diag == 0:
        raise ZeroDiagonal(f"alpha({n - 1},{n - 1}) = 0 in beta step ({k},{n})")
    return _tsi_step(seed.alpha(n - 1, n), beta_prev, seed.alpha(n - 1, k), seed.t(n - 1), diag)


def _tsi_step(up: Scalar, beta_prev: Scalar, back: Scalar, t: Scalar, diag: Scalar) -> Scalar:
    """:func:`beta_step_tsi`'s formula on values already read: ``(up beta_prev + back t) / diag``."""
    return (up * beta_prev + back * t) * reciprocal(diag)


def beta_closed_tsi(seed: BetaSeed, k: int, n: int) -> Scalar:
    """Closed form of the iterated step, for ``k <= n``:

    ``beta(k,n) = sum_{i=k+1}^{n} (alpha(i-1,k)/alpha(i-1,i-1))
                  * prod_{j=i+1}^{n} (alpha(j-1,j)/alpha(j-1,j-1)) * t(i-1)``.
    """
    if n < k:
        raise DomainError(f"beta_closed_tsi requires k <= n, got ({k},{n})")
    total: Scalar = 0
    for i in range(k + 1, n + 1):
        diag = seed.alpha(i - 1, i - 1)
        if diag == 0:
            raise ZeroDiagonal(f"alpha({i - 1},{i - 1}) = 0 in beta({k},{n})")
        coeff = seed.alpha(i - 1, k) * reciprocal(diag)
        for j in range(i + 1, n + 1):
            dj = seed.alpha(j - 1, j - 1)
            if dj == 0:
                raise ZeroDiagonal(f"alpha({j - 1},{j - 1}) = 0 in beta({k},{n})")
            coeff = coeff * seed.alpha(j - 1, j) * reciprocal(dj)
        total = total + coeff * seed.t(i - 1)
    return total


def _weight(
    alpha: Callable[[int, int], Scalar],
    betas: Mapping[tuple[int, int], Scalar],
    k: int, n: int, i: int, max_gap: int,
) -> Scalar:
    out: Scalar = 1
    for j1, j2 in combinations(range(k, n + 1), 2):
        if j1 == i or j2 == i or j2 - j1 > max_gap:
            continue
        try:
            out = out * betas[(j1, j2)]
        except KeyError:
            raise MissingBeta(f"beta({j1},{j2}) required but not yet determined") from None
    # the sign goes on after the betas: -1 times an int 0 beta product would
    # lose the sign that a float zero keeps
    out = (-1) ** (n - i) * out
    for j in range(k + 1, n):
        out = out * alpha(j, i)
    return out


def f_weight(
    alpha: Callable[[int, int], Scalar],
    betas: Mapping[tuple[int, int], Scalar],
    k: int, n: int, i: int,
) -> Scalar:
    """``f(k,n;i) = (-1)^{n-i} prod_{k<=j1<j2<=n, j1,j2 != i} beta(j1,j2)
    * prod_{j=k+1}^{n-1} alpha(j,i)``."""
    return _weight(alpha, betas, k, n, i, n - k)


def g_weight(
    alpha: Callable[[int, int], Scalar],
    betas: Mapping[tuple[int, int], Scalar],
    k: int, n: int, i: int,
) -> Scalar:
    """Like :func:`f_weight` but with pairs restricted to gap ``<= n-k-1``,
    so the unknown ``beta(k,n)`` is excluded: ``f(k,n;i) = g(k,n;i) beta(k,n)``
    for interior ``i``."""
    return _weight(alpha, betas, k, n, i, n - k - 1)


def beta_from_inversion(
    seed: BetaSeed, k: int, n: int,
    known_betas: Mapping[tuple[int, int], Scalar],
) -> Scalar:
    """Window-delta route: solve the orthogonality constraint for ``beta(k,n)``:

    ``beta(k,n) = -(f(k,n;k) + f(k,n;n)) / sum_{i=k+1}^{n-1} g(k,n;i)``

    All ``beta(j1,j2)`` with ``j2 - j1 < n - k`` inside ``[k,n]`` must already
    be in ``known_betas`` (gap-1 values fall back to the seed).  A vanishing
    g-weight sum means the constraint does not determine ``beta(k,n)``; that
    is reported as :class:`~invrel.errors.ZeroDenominator`, not a crash.
    """
    if n - k < 2:
        raise DomainError(f"beta_from_inversion needs gap >= 2, got ({k},{n})")
    betas = {(j, j + 1): seed.t(j) for j in range(k, n)}
    betas.update(known_betas)
    num = f_weight(seed.alpha, betas, k, n, k) + f_weight(seed.alpha, betas, k, n, n)
    g_values = [g_weight(seed.alpha, betas, k, n, i) for i in range(k + 1, n)]
    den: Scalar = 0
    for g in g_values:
        den = den + g
    if den == 0:
        raise ZeroDenominator(k, n, g_values)
    return -num * reciprocal(den)


def beta_table_tsi(seed: BetaSeed) -> dict[tuple[int, int], Scalar]:
    """Every ``beta(k,n)``, ``lo <= k < n <= hi`` on the seed window, by the triple-sum route.

    Each row applies :func:`beta_step_tsi`'s formula from the raw ``t(k)``,
    reading each ``t(k)`` and each needed ``alpha(m,m)``, ``alpha(m,m+1)``
    and ``alpha(m,k)`` once.  Exact seeds step on int pairs with one gcd per
    stored beta, its ``Fraction``; float and mixed seeds keep the step's
    Scalar operations, and so its bits.
    """
    lo, hi = seed.window
    t = {k: seed.t(k) for k in range(lo, hi)}
    a, exact = _read_alpha(seed, ((m, j) for m in range(lo + 1, hi) for j in range(lo, m + 2)), t.values())
    table: dict[tuple[int, int], Scalar] = {}
    if exact:
        a = {ij: (v.numerator, v.denominator) for ij, v in a.items()}
        u = {m: (v.numerator, v.denominator) for m, v in t.items()}
        for k in range(lo, hi):
            table[k, k + 1] = beta = t[k]
            bn, bd = u[k]
            for m in range(k + 1, hi):
                (pn, pd), (qn, qd), (dn, dd), (un, ud) = a[m, m + 1], a[m, k], a[m, m], u[m]
                table[k, m + 1] = beta = Fraction((pn * bn * qd * ud + qn * un * pd * bd) * dd, pd * bd * qd * ud * dn)
                bn, bd = beta.numerator, beta.denominator
    else:
        for k in range(lo, hi):
            table[k, k + 1] = beta = t[k]
            for m in range(k + 1, hi):
                table[k, m + 1] = beta = _tsi_step(a[m, m + 1], beta, a[m, k], t[m], a[m, m])
    return table


def _read_alpha(seed: BetaSeed, pairs: Iterable[tuple[int, int]], t_values: Iterable[Scalar]) -> tuple[dict, bool]:
    """The alpha values at ``pairs``, each read once, and whether they and ``t_values`` are all exact."""
    a = {ij: seed.alpha(*ij) for ij in pairs}
    return a, all(map(is_exact, [*t_values, *a.values()]))


def beta_table_inversion(seed: BetaSeed) -> dict[tuple[int, int], Scalar]:
    """Every ``beta(k,n)``, ``lo <= k < n <= hi`` on the seed window, by the window-delta route.

    Built bottom-up by gap, since each gap consumes every shorter one, on the
    induced pair's entries ``F(n,k)``, ``G(n,k)`` for ``k < n``, seeded by
    ``F(k+1,k) = -alpha(k,k)/t(k)`` and ``G(k+1,k) = alpha(k,k)/t(k)``.  The
    constraint ``sum_{i=k}^{n} F(n,i) G(i,k) = 0`` is
    ``(Gm - Fm)/beta(k,n) + S = 0`` with ``Fm = F(n-1,k) alpha(n-1,k)``,
    ``Gm = G(n,k+1) alpha(k,k) alpha(k+1,n)/alpha(k+1,k+1)`` and
    ``S = sum_{i=k+1}^{n-1} F(n,i) G(i,k)``, so
    ``beta(k,n) = (Fm - Gm)/S``, ``F(n,k) = -Fm/beta(k,n)`` and
    ``G(n,k) = Gm/beta(k,n)``: the weight equation of
    :func:`beta_from_inversion` divided by ``alpha(k,k)`` and every
    shorter-gap beta in ``[k,n]``.

    Every alpha value the solve needs (the diagonal but ``alpha(hi,hi)``,
    each ``alpha(n-1,k)`` and ``alpha(k+1,n)``) is read once.  Exact seeds
    (every ``t(k)`` and alpha value ``int`` or ``Fraction``) run on int
    pairs whose only gcd is each stored beta's ``Fraction``; float and mixed
    seeds run the Scalar loop.  Where the induced pair is undefined (a zero
    ``t(k)``, ``S`` or solved beta), :func:`beta_from_inversion` fills the
    whole table instead, raising :class:`~invrel.errors.ZeroDenominator`
    when the constraint leaves ``beta(k,n)`` undetermined.
    """
    lo, hi = seed.window
    table = {(k, k + 1): seed.t(k) for k in range(lo, hi)}
    try:
        w = range(lo, hi + 1)
        a, exact = _read_alpha(seed, ((i, j) for i in w for j in w if lo < i < j or j <= i < hi), table.values())
        (_solve_on_pairs if exact else _solve_on_scalars)(a, table, lo, hi)
    except ZeroDivisor:
        # no induced pair: the weights solve every entry, from shorter gaps only
        for gap in range(2, hi - lo + 1):
            for k in range(lo, hi - gap + 1):
                table[(k, k + gap)] = beta_from_inversion(seed, k, k + gap, table)
    return table


def _solve_on_scalars(a: dict, table: dict, lo: int, hi: int) -> None:
    """:func:`beta_table_inversion`'s solve in Scalar arithmetic, on the alpha values ``a``."""
    F: dict[tuple[int, int], Scalar] = {}
    G: dict[tuple[int, int], Scalar] = {}
    for k in range(lo, hi):
        ratio = a[k, k] * reciprocal(table[k, k + 1])
        F[k + 1, k], G[k + 1, k] = -ratio, ratio
    for gap in range(2, hi - lo + 1):
        for k in range(lo, hi - gap + 1):
            n = k + gap
            s: Scalar = 0
            for i in range(k + 1, n):
                s = s + F[n, i] * G[i, k]
            fm = F[n - 1, k] * a[n - 1, k]
            gm = G[n, k + 1] * a[k, k] * a[k + 1, n] * reciprocal(a[k + 1, k + 1])
            beta = (fm - gm) * reciprocal(s)
            inv = reciprocal(beta)
            table[k, n] = beta
            F[n, k] = -fm * inv
            G[n, k] = gm * inv


def _solve_on_pairs(a: dict, table: dict, lo: int, hi: int) -> None:
    """:func:`beta_table_inversion`'s solve on int pairs ``(num, den)``, for exact ``a`` and ``t``."""
    a = {ij: (v.numerator, v.denominator) for ij, v in a.items()}
    F: dict[tuple[int, int], tuple[int, int]] = {}
    G: dict[tuple[int, int], tuple[int, int]] = {}
    for k in range(lo, hi):
        t, (an, ad) = table[k, k + 1], a[k, k]
        if t == 0:
            raise ZeroDivisor(f"t({k}) = 0")
        G[k + 1, k] = gn, gd = an * t.denominator, ad * t.numerator
        F[k + 1, k] = (-gn, gd)
    for gap in range(2, hi - lo + 1):
        for k in range(lo, hi - gap + 1):
            n = k + gap
            sn, sd = 0, 1
            for i in range(k + 1, n):
                (fn, fd), (gn, gd) = F[n, i], G[i, k]
                pd = fd * gd
                sn, sd = sn * pd + fn * gn * sd, sd * pd
            if sn == 0:
                raise ZeroDivisor(f"S = 0 at ({k},{n})")
            (fn, fd), (an, ad) = F[n - 1, k], a[n - 1, k]
            fn, fd = fn * an, fd * ad  # Fm
            (gn, gd), (bn, bd), (cn, cd), (en, ed) = G[n, k + 1], a[k, k], a[k + 1, n], a[k + 1, k + 1]
            gn, gd = gn * bn * cn * ed, gd * bd * cd * en  # Gm
            beta = Fraction((fn * gd - gn * fd) * sd, fd * gd * sn)
            if beta == 0:
                raise ZeroDivisor(f"beta({k},{n}) = 0")
            table[k, n] = beta
            bn, bd = beta.numerator, beta.denominator
            F[n, k] = (-fn * bd, fd * bn)
            G[n, k] = (gn * bd, gd * bn)


def counterexample_discrepancies(k: int) -> tuple[Scalar, Scalar, Scalar]:
    """Gap-2/3/4 differences (delta-route minus triple-sum route) for the seed
    ``alpha(i,j) = i + j``, ``t(j) = j``, as exact rationals.

    The seed is built in ``int``; both sides are row ``k`` of the tables'
    int-pair solves, :func:`beta_table_inversion` and :func:`beta_table_tsi`
    (equal to :func:`beta_closed_tsi`), with ``Fraction`` values from gap 2 on.

    The gap-2 difference is identically zero; the higher gaps are not, which
    is what makes the triple sum identity strictly stronger than
    delta-orthogonality of the induced pair.  Requires ``k >= 1`` so that no
    diagonal ``alpha(j,j) = 2j`` vanishes.
    """
    if k < 1:
        raise DomainError("counterexample seed needs k >= 1 (alpha(0,0) = 0)")
    seed = BetaSeed(alpha=lambda i, j: i + j, t=lambda j: j, window=(k, k + 4))
    inv, tsi = beta_table_inversion(seed), beta_table_tsi(seed)
    return tuple(inv[k, k + gap] - tsi[k, k + gap] for gap in (2, 3, 4))


def _poly(coeffs_desc: tuple[int, ...], k: int) -> int:
    out = 0
    for c in coeffs_desc:
        out = out * k + c
    return out


def counterexample_reference(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Known closed forms of the three discrepancies, for cross-checking:

    gap 2: 0
    gap 3: (8k^3 + 32k^2 + 32k + 5) / (8k^3 + 36k^2 + 52k + 24)
    gap 4: (2k+7) / (8 (k+1)(k+2)(k+3)(2k+3)(2k+5)) * f(k)/g(k)

    with ``f`` of degree 11 and ``g`` of degree 7 as spelled out below.
    """
    gap3 = Fraction(_poly((8, 32, 32, 5), k), _poly((8, 36, 52, 24), k))
    f_num = _poly(
        (3072, 56320, 451904, 2085376, 6115168, 11884320,
         15498308, 13457624, 7592100, 2669648, 540883, 47328),
        k,
    )
    g_den = _poly((48, 544, 2452, 5656, 7216, 5232, 2175, 464), k)
    gap4 = Fraction(
        (2 * k + 7) * f_num,
        8 * (k + 1) * (k + 2) * (k + 3) * (2 * k + 3) * (2 * k + 5) * g_den,
    )
    return Fraction(0), gap3, gap4
