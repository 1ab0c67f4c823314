"""Concrete kernel families and their printed closed-form entries.

Exact families (binomial, the bibasic and three-parameter q-series pairs,
the two generic solution patterns, divisibility sequences) run over exact
rationals; the theta-based families run over floats under a
:class:`~invrel.numerics.TruncationPolicy`.

Each ``*_kernel`` constructor returns a :class:`~invrel.kernels.Kernel`.  A
zero diagonal alpha or off-diagonal beta on a window is refused only by the
guard of an entry it divides; passing ``window`` builds the pair there up
front and reports a refusal as :class:`~invrel.errors.DegenerateParams`
(eds: as the entry's own error).  Where an independent closed form
of the entries exists, ``*_closed_entries`` returns ``(F, G)`` callables to
compare against the generic builders.  The gasper, schlosser and eds forms
are each the plain formula of their docstring.  Gasper and schlosser, kernel
and closed form alike, run it on the parameters :func:`_lift` returns: on
unreduced int pairs (:class:`Ratio`) when every parameter is exact, else on
the parameters as given, so that float and mixed closed forms keep their
printed order of operations, ``mono * (N_1 N_2 ...) * reciprocal(D_1 D_2
...)``, bit for bit.  The kernels reduce each alpha and beta value to its
Fraction once, and hand the window tables the unreduced Ratios.
A divisibility sequence keeps each integral term as an ``int``, so no gcd is
taken where none is needed, and its closed forms run on the terms scaled to
ints.  The checks of these claims live here too:
:func:`max_closed_form_residual` and, for divisibility sequences,
:func:`max_recurrence_residual` and :func:`max_eds_property_residual`.
:data:`FAMILIES` registers each family's preset, checks and builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import factorial, lcm, prod
from typing import Callable

from .errors import (
    DegenerateParams,
    DomainError,
    IndexOutOfTable,
    VerificationError,
    ZeroDivisor,
    located,
)
from .kernels import (
    Kernel,
    TriangularPair,
    Window,
    integer_rows,
    pair_from_kernel,
    unscale,
    worst_of,
)
from .numerics import (
    DEFAULT_POLICY,
    Ratio,
    Scalar,
    TruncationPolicy,
    exact_div,
    is_exact,
    partial_theta,
    partial_theta_slope_series,
    power,
    prod_range,
    q_pochhammer,
    reciprocal,
    theta,
)


def affine_sequence(start: Scalar, step: Scalar) -> Callable[[int], Scalar]:
    """The sequence ``i -> start + step * i``."""
    return lambda i: start + step * i


def constant_sequence(value: Scalar) -> Callable[[int], Scalar]:
    return lambda i: value


def _validated(kernel: Kernel, window: Window | None) -> Kernel:
    """``kernel``, once its pair builds on ``window`` (when one is given)."""
    if window is not None:
        try:
            pair_from_kernel(kernel, window)
        except DegenerateParams:
            raise
        except VerificationError as exc:
            raise DegenerateParams(f"{kernel.name}: {exc}") from exc
    return kernel


# --- generic solution patterns ------------------------------------------------


@dataclass(frozen=True)
class FactorSequences:
    """Sequences (x, y, t) feeding :func:`product_ratio_kernel`; the x values
    must be nonzero wherever partial products are taken."""

    x: Callable[[int], Scalar]
    y: Callable[[int], Scalar]
    t: Callable[[int], Scalar]


def _product_ratio_sums(seqs: FactorSequences) -> tuple[Callable, Callable, Callable]:
    """The memoised ``(X, Y, sigma)`` of :func:`product_ratio_kernel`; sigma
    names the x partial product whose zero it would divide by."""
    X = lru_cache(maxsize=None)(lambda m: prod_range(seqs.x, 1, m))
    Y = lru_cache(maxsize=None)(lambda m: prod_range(seqs.y, 1, m))

    @lru_cache(maxsize=None)
    def sigma(m: int) -> Scalar:
        if m == 0:
            return 0
        if m > 0:
            den = X(m - 1) * X(m)
            if den == 0:
                raise ZeroDivisor(f"x partial product through {m} vanishes")
            return sigma(m - 1) + seqs.t(m) * reciprocal(den)
        den = X(m) * X(m + 1)
        if den == 0:
            raise ZeroDivisor(f"x partial product through {m + 1} vanishes")
        return sigma(m + 1) - seqs.t(m + 1) * reciprocal(den)

    return X, Y, sigma


def product_ratio_kernel(seqs: FactorSequences, name: str = "product-ratio") -> Kernel:
    """Kernel with alpha a ratio of bilateral partial products and beta a
    partial-sum telescope:

        alpha(i,k) = X_k / Y_i,  X_m = prod_{j=1}^{m} x_j,  Y_m = prod y_j
        beta(i,k)  = X_i X_k (sigma(k) - sigma(i)),
        sigma(m)   = sum_{j=1}^{m} t_j / (X_{j-1} X_j)   (bilateral)

    so that ``beta(k, k+1) = t(k+1)`` and antisymmetry is structural.  The
    telescoping sum makes the pair satisfy the triple sum identity for
    arbitrary ``y`` and ``t``.
    """
    X, Y, sigma = _product_ratio_sums(seqs)

    def alpha(i: int, k: int) -> Scalar:
        if i == 0:  # Y_0 is the empty product
            return X(k)
        yi = Y(i)
        if yi == 0:
            raise ZeroDivisor(f"y partial product through {i} vanishes")
        return X(k) * reciprocal(yi)

    def beta(i: int, k: int) -> Scalar:
        return X(i) * X(k) * (sigma(k) - sigma(i))

    return Kernel(alpha=alpha, beta=beta, name=name)


def bilinear_kernel(
    a: Callable[[int], Scalar],
    b: Callable[[int], Scalar],
    x: Callable[[int], Scalar],
    y: Callable[[int], Scalar],
) -> Kernel:
    """Kernel with bilinear alpha and determinant beta:

        alpha(i,k) = x_i a_k + y_i b_k,   beta(i,k) = a_k b_i - a_i b_k

    The triple sum identity holds identically for arbitrary sequences.
    """
    return Kernel(
        alpha=lambda i, k: x(i) * a(k) + y(i) * b(k),
        beta=lambda i, k: a(k) * b(i) - a(i) * b(k),
    )


def _lift(*params: Scalar) -> tuple[tuple, bool]:
    """``(params, True)`` with each parameter as a :class:`Ratio` when all are
    exact; else ``(params, False)`` unchanged.  A lifted gasper or schlosser
    value, reduced once, is the Fraction that the params as Fractions give."""
    if all(map(is_exact, params)):
        return tuple(Ratio(v.numerator, v.denominator) for v in params), True
    return params, False


def _kernel(alpha: Callable, beta: Callable, name: str, lifted: bool) -> Kernel:
    """The kernel of ``alpha`` and ``beta``; on lifted params (:func:`_lift`)
    each value becomes its Fraction once, and ``Kernel.lifted`` its Ratio."""
    if not lifted:
        return Kernel(alpha, beta, name=name)
    kernel = Kernel(lambda i, k: alpha(i, k).fraction(), lambda i, k: beta(i, k).fraction(), name=name)
    object.__setattr__(kernel, "lifted", (alpha, beta))
    return kernel


def _poch(x: Scalar, q: Scalar, m: int) -> Scalar:
    """``(x;q)_m`` for ``m >= 0``.  On a :class:`Ratio` ``x = u/v`` and
    ``q = s/t`` it is one int pair, each factor ``1 - x q^e`` read as
    ``(v t^e - u s^e) / (v t^e)``; otherwise :func:`~invrel.numerics.q_pochhammer`."""
    if not isinstance(x, Ratio):
        return q_pochhammer(x, q, m)
    u, v, s, t = x.numerator, x.denominator, q.numerator, q.denominator
    num, sp, tp = 1, 1, 1
    for _ in range(m):
        num, sp, tp = num * (v * tp - u * sp), sp * s, tp * t
    return Ratio(num, v**m * t ** (m * (m - 1) // 2))


def max_closed_form_residual(pair: TriangularPair, closed) -> Scalar:
    """Largest difference between the printed closed forms and the pair's
    entry table; a domain error of a closed form names its entry.  An exact
    :class:`Ratio` is compared by cross-multiplication, with no Fraction for 0."""
    lo, hi = pair.window

    def diffs():
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                for name, form, rows in zip("FG", closed, (pair.F, pair.G)):
                    try:
                        c, e = form(n, k), rows[n - lo][k - lo]
                    except VerificationError as exc:
                        raise located(exc, f"closed-form {name}({n},{k})")
                    if not isinstance(c, Ratio):
                        yield c - e
                    elif cross := c.numerator * e.denominator - e.numerator * c.denominator:
                        yield Fraction(cross, c.denominator * e.denominator)

    return worst_of(diffs())


# --- exact q-series families --------------------------------------------------


def binomial_kernel() -> Kernel:
    """The simplest antisymmetric kernel: alpha = 1, beta(i,k) = i - k.

    Induces F(n,k) = 1/(n-k)! and G(n,k) = (-1)^(n-k)/(n-k)!, whose
    orthogonality is the alternating binomial identity.
    """
    return Kernel(
        alpha=lambda i, k: 1,
        beta=lambda i, k: i - k,
        name="binomial",
    )


def binomial_closed_entries() -> tuple[Callable, Callable]:
    """``F(n,k) = 1/(n-k)!`` and ``G(n,k) = (-1)^(n-k)/(n-k)!`` as :class:`Ratio` pairs."""
    return lambda n, k: Ratio(1, factorial(n - k)), lambda n, k: Ratio((-1) ** (n - k), factorial(n - k))


def gasper_kernel(
    a: Scalar, b: Scalar, p: Scalar, q: Scalar,
    window: Window | None = None,
) -> Kernel:
    """Bibasic kernel behind Euler-transformation-style inversions:

        alpha(i,k) = (1 - a p^k q^i)(1 - b p^{-k} q^i)
        beta(i,k)  = (p^i - p^k)(1 - (b/a) p^{-k-i})

    Each single-index factor (``p^j``, ``q^j``, ``a p^k``, ``b p^{-k}`` and
    ``1 - (b/a) p^{-s}`` with ``s = i + k``) is built once per kernel; alpha
    and beta combine them in the printed order, so values and errors are the
    formula's own.  Exact params are lifted to :class:`Ratio` pairs
    (:func:`_lift`).
    """
    if a == 0:
        raise DegenerateParams("gasper: a must be nonzero")
    if p in (0, 1, -1) or q == 0:
        raise DegenerateParams("gasper: need p not in {0, 1, -1} and q != 0")
    (a, b, p, q), lifted = _lift(a, b, p, q)
    ba = exact_div(b, a)
    p_pow = lru_cache(maxsize=None)(lambda j: power(p, j))
    q_pow = lru_cache(maxsize=None)(lambda j: power(q, j))
    ap = lru_cache(maxsize=None)(lambda k: a * p_pow(k))
    bp = lru_cache(maxsize=None)(lambda k: b * p_pow(-k))
    tail = lru_cache(maxsize=None)(lambda s: 1 - ba * p_pow(-s))

    def alpha(i: int, k: int) -> Scalar:
        return (1 - ap(k) * q_pow(i)) * (1 - bp(k) * q_pow(i))

    def beta(i: int, k: int) -> Scalar:
        return (p_pow(i) - p_pow(k)) * tail(k + i)

    return _validated(_kernel(alpha, beta, "gasper", lifted), window)


def gasper_closed_entries(a: Scalar, b: Scalar, p: Scalar, q: Scalar) -> tuple[Callable, Callable]:
    """Printed closed forms of the bibasic entries, with ``m = n - k``:

        F(n,k) = (-1)^m p^{-mk} (a p^k q^k, b p^{-k} q^k; q)_m / (p, (b/a) p^{-n-k}; p)_m
        G(n,k) = p^{binom(k,2) - binom(n,2)} (1 - a p^k q^k)(1 - b p^{-k} q^k) (a p^n q^k, b q^k p^{-n}; q)_m
                 / ((1 - a p^n q^k)(1 - b p^{-n} q^k) (p, (b/a) p^{1-2n}; p)_m)
    """
    (a, b, p, q), _ = _lift(a, b, p, q)
    ba = exact_div(b, a)
    p_pow = lru_cache(maxsize=None)(lambda j: power(p, j))
    q_pow = lru_cache(maxsize=None)(lambda j: power(q, j))
    ap = lru_cache(maxsize=None)(lambda j: a * p_pow(j))
    bp = lru_cache(maxsize=None)(lambda j: b * p_pow(-j))
    p_fact = lru_cache(maxsize=None)(lambda m: _poch(p, p, m))

    def f_closed(n: int, k: int) -> Scalar:
        m = n - k
        num = _poch(ap(k) * q_pow(k), q, m) * _poch(bp(k) * q_pow(k), q, m)
        den = p_fact(m) * _poch(ba * p_pow(-n - k), p, m)
        return (-1) ** m * p_pow(-m * k) * num * reciprocal(den)

    def g_closed(n: int, k: int) -> Scalar:
        m = n - k
        num = (1 - ap(k) * q_pow(k)) * (1 - bp(k) * q_pow(k)) * _poch(ap(n) * q_pow(k), q, m) * _poch(
            b * q_pow(k) * p_pow(-n), q, m)
        den = (1 - ap(n) * q_pow(k)) * (1 - bp(n) * q_pow(k)) * p_fact(m) * _poch(
            ba * p_pow(1 - 2 * n), p, m)
        return p_pow((k * (k - 1) - n * (n - 1)) // 2) * num * reciprocal(den)

    return f_closed, g_closed


def schlosser_kernel(
    a: Scalar, b: Scalar, c: Scalar, q: Scalar,
    window: Window | None = None,
) -> Kernel:
    """Three-parameter kernel behind bilateral series transformations:

        alpha(i,k) = (q^k - q^i / b)(c - (a + b q^k)(a + q^i))
        beta(i,k)  = (q^k - q^i)(c - (a + b q^k)(a + b q^i))

    Each single-index factor (``q^j``, ``q^j / b``, ``a + q^j`` and
    ``a + b q^j``) is built once per kernel; alpha and beta combine them in
    the printed order, so values and errors are the formula's own.  Exact
    params are lifted to :class:`Ratio` pairs (:func:`_lift`).
    """
    if b == 0:
        raise DegenerateParams("schlosser: b must be nonzero")
    if q in (0, 1, -1):
        raise DegenerateParams("schlosser: need q not in {0, 1, -1}")
    (a, b, c, q), lifted = _lift(a, b, c, q)
    q_pow = lru_cache(maxsize=None)(lambda j: power(q, j))
    q_by_b = lru_cache(maxsize=None)(lambda j: exact_div(q_pow(j), b))
    a_q = lru_cache(maxsize=None)(lambda j: a + q_pow(j))
    a_bq = lru_cache(maxsize=None)(lambda j: a + b * q_pow(j))

    def alpha(i: int, k: int) -> Scalar:
        return (q_pow(k) - q_by_b(i)) * (c - a_bq(k) * a_q(i))

    def beta(i: int, k: int) -> Scalar:
        return (q_pow(k) - q_pow(i)) * (c - a_bq(k) * a_bq(i))

    return _validated(_kernel(alpha, beta, "schlosser", lifted), window)


def schlosser_closed_entries(a: Scalar, b: Scalar, c: Scalar, q: Scalar) -> tuple[Callable, Callable]:
    """Printed closed forms of the three-parameter entries, with ``m = n - k``,
    ``B_j = a + b q^j``, ``R_j = c - a B_j`` and ``C_j = c - B_j (a + q^j)``
    (each built once per index):

        F(n,k) = (1/b, B_k q^k / R_k; q)_m / (q, B_k b q^{k+1} / R_k; q)_m
        G(n,k) = (-1)^m q^{binom(m,2)} (C_k / C_n) (q^{1-m} / b, B_n q^{k+1} / R_n; q)_m
                 / (q, B_n b q^k / R_n; q)_m
    """
    (a, b, c, q), _ = _lift(a, b, c, q)
    inv_b = reciprocal(b)
    q_pow = lru_cache(maxsize=None)(lambda j: power(q, j))
    big = lru_cache(maxsize=None)(lambda j: a + b * q_pow(j))
    row = lru_cache(maxsize=None)(lambda j: (big(j), reciprocal(c - a * big(j))))
    lam = lru_cache(maxsize=None)(lambda j: c - big(j) * (a + q_pow(j)))
    q_fact = lru_cache(maxsize=None)(lambda m: _poch(q, q, m))

    def f_closed(n: int, k: int) -> Scalar:
        m, (big_k, inv_rest) = n - k, row(k)
        num = _poch(inv_b, q, m) * _poch(big_k * q_pow(k) * inv_rest, q, m)
        return num * reciprocal(q_fact(m) * _poch(big_k * b * q_pow(k + 1) * inv_rest, q, m))

    def g_closed(n: int, k: int) -> Scalar:
        m, (big_n, inv_rest) = n - k, row(n)
        num = _poch(inv_b * q_pow(1 - m), q, m) * _poch(big_n * q_pow(k + 1) * inv_rest, q, m)
        den = q_fact(m) * _poch(big_n * b * q_pow(k) * inv_rest, q, m)
        return (-1) ** m * q_pow(m * (m - 1) // 2) * lam(k) * reciprocal(lam(n)) * num * reciprocal(den)

    return f_closed, g_closed


# --- theta families (numeric domain) ------------------------------------------


def warnaar_kernel(
    q: Scalar,
    b_seq: Callable[[int], Scalar],
    x_seq: Callable[[int], Scalar],
    policy: TruncationPolicy = DEFAULT_POLICY,
    window: Window | None = None,
) -> Kernel:
    """Elliptic kernel built from theta factors:

        alpha(i,k) = b_k theta(x_i b_k; q) theta(x_i / b_k; q)
        beta(i,k)  = b_k theta(b_i b_k; q) theta(b_i / b_k; q)

    Antisymmetry follows from the theta inversion rule
    ``theta(1/z; q) = -(1/z) theta(z; q)``.  The triple sum identity is the
    theta addition formula (see
    :func:`~invrel.numerics.weierstrass_addition_residual`).
    """

    def factor(u: Scalar, k: int) -> Scalar:  # b_k theta(u b_k; q) theta(u / b_k; q)
        bk = b_seq(k)
        return bk * theta(u * bk, q, policy) * theta(u / bk, q, policy)

    def beta(i: int, k: int) -> Scalar:
        return 0.0 if i == k else factor(b_seq(i), k)

    return _validated(Kernel(lambda i, k: factor(x_seq(i), k), beta, name="warnaar"), window)


def _elliptic_sequences(
    x: Scalar, y: Scalar, q: Scalar, p: Scalar, t_seq: Callable[[int], Scalar], policy: TruncationPolicy
) -> FactorSequences:
    """``x_i = theta(x q^{i-1}; p)``, ``y_i = theta(y q^{i-1}; p)`` and ``t_seq``,
    each theta evaluated once."""

    def factors(z: Scalar) -> Callable[[int], Scalar]:
        return lru_cache(maxsize=None)(lambda i: theta(z * power(q, i - 1), p, policy))

    return FactorSequences(factors(x), factors(y), t_seq)


def elliptic_sum_kernel(
    x: Scalar, y: Scalar, q: Scalar, p: Scalar,
    t_seq: Callable[[int], Scalar] = constant_sequence(1.0),
    policy: TruncationPolicy = DEFAULT_POLICY,
    window: Window | None = None,
) -> Kernel:
    """Elliptic-factorial kernel: the product-ratio pattern instantiated with
    ``x_i = theta(x q^{i-1}; p)`` and ``y_i = theta(y q^{i-1}; p)``, so that

        alpha(i,k) = (x;q,p)_k / (y;q,p)_i
        beta(i,k)  = (x;q,p)_i (x;q,p)_k S(i,k)

    with ``S(i,k) = sum_{j=i+1}^{k} t_j / ((x;q,p)_{j-1} (x;q,p)_j)``
    extended antisymmetrically (``S(i,k) = -S(k,i)``).
    """
    seqs = _elliptic_sequences(x, y, q, p, t_seq, policy)
    return _validated(product_ratio_kernel(seqs, name="elliptic-sum"), window)


def elliptic_sum_closed_entries(
    x: Scalar, y: Scalar, q: Scalar, p: Scalar,
    t_seq: Callable[[int], Scalar] = constant_sequence(1.0),
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[Callable, Callable]:
    """Collapsed product form of the elliptic-factorial entries:

        F(n,k) = prod_{i=k+1}^{n} 1 / ((x;q,p)_i (y;q,p)_{i-1} S(i,k))
        G(n,k) = prod_{i=k}^{n-1} 1 / ((x;q,p)_{i+1} (y;q,p)_i S(i,n))

    The factorials and ``S`` are built as in :func:`elliptic_sum_kernel`, so
    the check tests how the entries collapse to these products.
    """
    X, Y, sigma = _product_ratio_sums(_elliptic_sequences(x, y, q, p, t_seq, policy))

    def f_closed(n: int, k: int) -> Scalar:
        return prod_range(lambda i: reciprocal(X(i) * Y(i - 1) * (sigma(k) - sigma(i))), k + 1, n)

    def g_closed(n: int, k: int) -> Scalar:
        return prod_range(lambda i: reciprocal(X(i + 1) * Y(i) * (sigma(n) - sigma(i))), k, n - 1)

    return f_closed, g_closed


def partial_theta_kernel(
    q: Scalar,
    a_seq: Callable[[int], Scalar],
    b_seq: Callable[[int], Scalar],
    policy: TruncationPolicy = DEFAULT_POLICY,
    window: Window | None = None,
) -> Kernel:
    """Partial-theta kernel:

        alpha(i,k) = a_i + Theta(q; b_k)
        beta(i,k)  = (b_i - b_k) L(b_i, b_k)

    where ``L`` is the symmetric slope kernel
    (:func:`~invrel.numerics.partial_theta_slope_series`), so beta equals
    the antisymmetric difference ``Theta(q; b_i) - Theta(q; b_k)``.  Requires
    the ``b_i`` pairwise distinct on the window.
    """
    theta_at = lru_cache(maxsize=None)(lambda k: partial_theta(q, b_seq(k), policy))

    def alpha(i: int, k: int) -> Scalar:
        return a_seq(i) + theta_at(k)

    def beta(i: int, k: int) -> Scalar:
        bi, bk = b_seq(i), b_seq(k)
        if i != k and bi == bk:
            raise DegenerateParams(f"partial-theta: b({i}) == b({k})")
        return (bi - bk) * partial_theta_slope_series(bi, bk, q, policy)

    return _validated(Kernel(alpha, beta, name="partial-theta"), window)


# --- elliptic divisibility sequences -------------------------------------------


class EdsSequence:
    """Bilateral table ``W_{-N}..W_N`` of the divisibility recurrence

        W_{n+2} W_{n-2} = W_{n+1} W_{n-1} W_2^2 - W_1 W_3 W_n^2

    with ``W_1 = 1`` and ``W_{-n} = -W_n``, built from ``values = W_0..W_N``.
    ``table`` lays it out once as ``W_0..W_N`` followed by ``-W_N..-W_1``, so
    that ``table[n]`` is ``W_n`` for every ``|n| <= N = n_max`` by Python's
    negative indexing; ``W_0`` is stored as given, without the negation.
    :func:`eds_generate` gives each integral term as an ``int`` and each other
    one as a Fraction, so the kernel reads and sweeps of an integral table
    run in ``int``."""

    def __init__(self, values: list[int | Fraction]):
        self.table = [*values, *(-v for v in reversed(values[1:]))]
        self.n_max = len(values) - 1

    def w(self, n: int) -> int | Fraction:
        """``W_n`` with the odd bilateral extension."""
        if abs(n) > self.n_max:
            raise IndexOutOfTable(f"W({n}) outside generated table (|n| <= {self.n_max})")
        return self.table[n]

    def recurrence_residual(self, n: int) -> int | Fraction:
        """``W_{n+2} W_{n-2} - W_{n+1} W_{n-1} W_2^2 + W_1 W_3 W_n^2``;
        zero at every tabulated index."""
        w = self.w
        return w(n + 2) * w(n - 2) - w(n + 1) * w(n - 1) * w(2) ** 2 + w(1) * w(3) * w(n) ** 2


def _integral(v: int | Fraction) -> int | Fraction:
    """An exact ``v`` as an ``int`` when it is integral."""
    return v.numerator if v.denominator == 1 else v


def eds_generate(w2: Scalar, w3: Scalar, w4: Scalar, n_max: int) -> EdsSequence:
    """Generate ``W_0..W_{n_max}`` from the seeds by the forward recurrence

        W_{n+2} = (W_{n+1} W_{n-1} W_2^2 - W_1 W_3 W_n^2) / W_{n-2}

    raising :class:`~invrel.errors.ZeroDivisor` (naming the index) at the
    first step whose divisor ``W_{n-2}`` vanishes.  The seeds must be exact:
    a float seed is a :class:`~invrel.errors.DomainError` naming each one.
    """
    if floats := [f"W_{i}" for i, s in enumerate((w2, w3, w4), 2) if not is_exact(s)]:
        raise DomainError(
            f"eds: exact mode needs exact seeds, but {', '.join(floats)} given as float; write each as p/q"
        )
    if n_max < 1:
        raise IndexOutOfTable("n_max must be at least 1")
    w = [0, 1, *map(_integral, (w2, w3, w4))][: n_max + 1]
    for n in range(3, n_max - 1):
        if w[n - 2] == 0:
            raise ZeroDivisor(f"W({n + 2}) needs division by W({n - 2}) = 0")
        w.append(_integral(exact_div(w[n + 1] * w[n - 1] * w[2] ** 2 - w[3] * w[n] ** 2, w[n - 2])))
    return EdsSequence(w)


def max_recurrence_residual(W: EdsSequence) -> Scalar:
    """Largest-magnitude :meth:`EdsSequence.recurrence_residual` over
    ``|n| <= top = max(n_max - 2, 0)``, the first met in ascending order: every
    index whose terms lie in the table, and ``n = 0`` at least, so a table too
    short for any index raises :class:`~invrel.errors.IndexOutOfTable`.  When
    ``W_0 = 0`` the residual at ``-n`` equals the one at ``n``, so ``n = top``
    down to ``0`` is folded: descending, it meets the same first maximum, sign
    included."""
    top = max(W.n_max - 2, 0)
    indices = range(top, -1, -1) if W.w(0) == 0 else range(-top, top + 1)
    return worst_of(W.recurrence_residual(n) for n in indices)


def eds_property_residual(W: EdsSequence, k: int, p: int, q: int) -> int | Fraction:
    """``W_k^2 W_{p+q} W_{p-q} + W_p^2 W_{q+k} W_{q-k} + W_q^2 W_{k+p} W_{k-p}``;
    identically zero for any divisibility sequence."""
    w = W.w
    return (
        w(k) ** 2 * w(p + q) * w(p - q)
        + w(p) ** 2 * w(q + k) * w(q - k)
        + w(q) ** 2 * w(k + p) * w(k - p)
    )


def max_eds_property_residual(W: EdsSequence) -> Scalar:
    """Largest-magnitude :func:`eds_property_residual` over all triples
    ``(k, p, q)`` with ``|k|, |p|, |q| <= h = n_max // 2``, the first met in
    that order, with its terms.  :attr:`EdsSequence.table` is read once,
    scaled to integers by the least common denominator ``L``; each term has
    degree 4, so the worst is divided back by ``L^4``.  When ``W_0 = 0`` the
    residual is alternating in ``(k, p, q)`` and even in each index, so an
    orbit's first member is ``(-c, -b, -a)`` with ``0 <= a < b < c``, and only
    ``-h <= k < p < q <= 0`` is folded."""
    h = W.n_max // 2
    (w,), d = integer_rows([W.table])
    idx = range(-h, h + 1)
    triples = combinations(range(-h, 1), 3) if d is not None and w[0] == 0 else product(idx, repeat=3)
    worst = worst_of(
        w[k] ** 2 * w[p + q] * w[p - q]
        + w[p] ** 2 * w[q + k] * w[q - k]
        + w[q] ** 2 * w[k + p] * w[k - p]
        for k, p, q in triples
    )
    return unscale(worst, d, 4)


def eds_kernel(W: EdsSequence, window: Window | None = None) -> Kernel:
    """Kernel of a divisibility sequence:

        alpha(i,k) = W_k^2,   beta(i,k) = W_{i+k} W_{i-k}

    Antisymmetry comes from the odd extension; the triple sum identity is
    exactly :func:`eds_property_residual` = 0.  Windows must avoid index
    pairs where ``W_{i+k} W_{i-k} = 0`` (in particular ``k = 0`` and
    ``i = -k``); with ``window``, the pair is built there first.
    """
    kern = Kernel(
        alpha=lambda i, k: W.w(k) ** 2,
        # beta(i,i) = W_{2i} W_0 = W_0 without reading W_{2i}, which may lie past the table
        beta=lambda i, k: W.w(i + k) * W.w(i - k) if i != k else W.w(0),
        name="eds",
    )
    if window is not None:
        pair_from_kernel(kern, window)
    return kern


def eds_closed_entries(W: EdsSequence) -> tuple[Callable, Callable]:
    """Printed closed forms of the divisibility-sequence entries, with ``m = n - k``:

        F(n,k) = W_k^{2m} / (prod_{i=2k+1}^{n+k} W_i * prod_{i=1}^{m} W_i)
        G(n,k) = (-1)^m (W_k^2/W_n^2) W_n^{2m} / (prod_{i=n+k}^{2n-1} W_i * prod_{i=1}^{m} W_i)

    Each product has ``m`` factors, so none crosses ``W_0 = 0`` where the pair
    is defined.  Both forms are homogeneous of degree 0 in ``W``, so they run
    on the terms scaled by their least common denominator, each read once, and
    give each entry as one int pair (a :class:`Ratio`)."""
    d = lcm(*(v.denominator for v in W.table))
    w = lru_cache(maxsize=None)(lambda i: (v := W.w(i)).numerator * (d // v.denominator))

    def over(num: int, den: int) -> Ratio:
        if den == 0:
            raise ZeroDivisor("reciprocal of zero")
        return Ratio(num, den)

    def f_closed(n: int, k: int) -> Ratio:
        m = n - k
        return over(w(k) ** (2 * m), prod(map(w, range(2 * k + 1, n + k + 1))) * prod(map(w, range(1, m + 1))))

    def g_closed(n: int, k: int) -> Ratio:
        m, wn = n - k, w(n)
        num = (-1) ** m * w(k) ** 2 * wn ** (2 * m)
        return over(num, wn**2 * prod(map(w, range(n + k, 2 * n))) * prod(map(w, range(1, m + 1))))

    return f_closed, g_closed


# --- family registry -------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One registered family: a reproducible preset, its checks and its builder.

    ``params`` names every accepted parameter with its preset value; a
    ``tolerance`` of None marks an exact family.  ``checks`` lists, in report
    order, every check the family offers: its default suite, and the only list
    ``verify`` consults.  ``build(params, window, policy)`` returns ``(kernel,
    closed, eds_seq)``: the kernel, a zero-argument builder of the printed
    ``(F, G)`` closed forms, called by the closed-form check alone, and the
    divisibility sequence, the last two None exactly when ``checks`` lacks
    ``closed-form``, respectively ``eds-property``.  Builders call the
    constructors through their module names, so wrapping a constructor in
    this module also wraps the registry.
    """

    params: dict[str, Scalar]
    window: Window
    tolerance: float | None
    checks: tuple[str, ...]
    build: Callable[[dict, Window, TruncationPolicy], tuple]


def _build_elliptic_sum(p: dict, window: Window, policy: TruncationPolicy) -> tuple:
    args = (p["x"], p["y"], p["q"], p["p"], constant_sequence(p["t"]), policy)
    return elliptic_sum_kernel(*args), partial(elliptic_sum_closed_entries, *args), None


def _build_eds(p: dict, window: Window, policy: TruncationPolicy) -> tuple:
    seq = eds_generate(p["w2"], p["w3"], p["w4"], n_max=2 * max(abs(window[0]), abs(window[1])))
    return eds_kernel(seq), partial(eds_closed_entries, seq), seq


# the checks every family offers, then those that also have a printed closed form
_COMMON = ("antisym", "tsi", "qsi", "cond3", "delta")
_CLOSED = _COMMON + ("closed-form",)

FAMILIES: dict[str, Family] = {
    "binomial": Family(
        {}, (0, 8), None, _CLOSED,
        lambda p, w, policy: (binomial_kernel(), binomial_closed_entries, None),
    ),
    "gasper": Family(
        {"a": Fraction(2), "b": Fraction(3), "p": Fraction(1, 5), "q": Fraction(1, 7)}, (0, 6), None, _CLOSED,
        lambda p, w, policy: (gasper_kernel(**p), partial(gasper_closed_entries, **p), None),
    ),
    "schlosser": Family(
        {"a": Fraction(1, 2), "b": Fraction(2), "c": Fraction(7), "q": Fraction(1, 3)}, (0, 6), None, _CLOSED,
        lambda p, w, policy: (schlosser_kernel(**p), partial(schlosser_closed_entries, **p), None),
    ),
    "warnaar": Family(
        {"q": 0.1, "b0": 2.0, "bstep": 0.1, "x0": 0.3, "xstep": 0.05}, (0, 4), 1e-9, _COMMON,
        lambda p, w, policy: (warnaar_kernel(
            p["q"], affine_sequence(p["b0"], p["bstep"]), affine_sequence(p["x0"], p["xstep"]), policy
        ), None, None),
    ),
    "elliptic-sum": Family(
        {"x": 0.3, "y": 0.7, "q": 0.4, "p": 0.1, "t": 1.0}, (0, 3), 1e-8, _CLOSED, _build_elliptic_sum
    ),
    "partial-theta": Family(
        {"q": 0.1, "a0": 1.0, "astep": 0.1, "b0": 0.2, "bstep": 0.05}, (0, 3), 1e-8, _COMMON,
        lambda p, w, policy: (partial_theta_kernel(
            p["q"], affine_sequence(p["a0"], p["astep"]), affine_sequence(p["b0"], p["bstep"]), policy
        ), None, None),
    ),
    "eds": Family({"w2": Fraction(1), "w3": Fraction(-1), "w4": Fraction(1)}, (1, 6), None,
                  _CLOSED + ("eds-property",), _build_eds),
}
