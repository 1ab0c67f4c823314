"""Scalar domains, the bilateral product convention, and q-series numerics.

Two scalar domains are used throughout the library: exact values are plain
``int`` or ``fractions.Fraction`` (equality is decidable and exact), numeric
values are ``float`` or ``complex`` (equality means ``|a - b| <= tol`` for a
caller-supplied tolerance).  The genuinely infinite objects (theta products,
the partial theta series and its slope kernel) evaluate only in the numeric
domain and are truncated by a :class:`TruncationPolicy`; exact inputs are
refused except where a series terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import DomainError, NonConvergent, ZeroDivisor

Scalar = Union[int, Fraction, float, complex]


def is_exact(value: Scalar) -> bool:
    """True for values carrying exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class Ratio:
    """An exact value as an unreduced int pair ``numerator/denominator`` (the
    denominator nonzero, of either sign); ``==`` cross-multiplies, with no gcd."""

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator

    def __eq__(self, other) -> bool:
        if not (is_exact(other) or isinstance(other, Ratio)):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator


def reciprocal(value: Scalar) -> Scalar:
    """1/value, staying exact for exact input."""
    if value == 0:
        raise ZeroDivisor("reciprocal of zero")
    if isinstance(value, int):
        return Fraction(1, value)
    return 1 / value


def exact_div(num: Scalar, den: Scalar) -> Scalar:
    """num/den without silently leaving the exact domain for int inputs;
    two ints make one Fraction."""
    if isinstance(num, int) and isinstance(den, int) and den != 0:
        return Fraction(num, den)
    return num * reciprocal(den)


def power(base: Scalar, exponent: int) -> Scalar:
    """base**exponent for any integer exponent, exact for exact base; a float
    result out of range is a :class:`~invrel.errors.DomainError`."""
    if exponent < 0 and base == 0:
        raise ZeroDivisor(f"0**{exponent}")
    if exponent < 0 and isinstance(base, int):
        base = Fraction(base)
    try:
        return base**exponent
    except OverflowError as exc:
        raise DomainError(f"{base!r}**{exponent} overflows") from exc


def magnitude(value: Scalar) -> float:
    """|value| as a float, for tolerance comparisons and reports."""
    return float(abs(value))


def scalars_close(a: Scalar, b: Scalar, tol: float | None = None) -> bool:
    """Exact equality when ``tol`` is None, else ``|a - b| <= tol``."""
    if tol is None:
        return a == b
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return passes(a - b, tol)


def passes(worst: Scalar, tol: float | None) -> bool:
    """The verdict on a worst residual: exactly zero when ``tol`` is None,
    else ``|worst| <= tol`` (never true for NaN)."""
    return worst == 0 if tol is None else magnitude(worst) <= tol


@dataclass(frozen=True)
class TruncationPolicy:
    """Cutoff rule for infinite products and series.

    A product factor ``1 - f`` is dropped once ``|f| < tail_bound``; a series
    is stopped once the next term falls below ``tail_bound``.  ``max_terms``
    caps the work; series that hit the cap first raise
    :class:`~invrel.errors.NonConvergent` rather than return a best effort.
    """

    tail_bound: float = 1e-17
    max_terms: int = 256

    def __post_init__(self):
        if not 0 <= self.tail_bound < 1:
            raise DomainError("tail_bound must satisfy 0 <= tail_bound < 1")
        if self.max_terms < 8:
            raise DomainError("max_terms must be at least 8")


DEFAULT_POLICY = TruncationPolicy()


def _to_numeric(name: str, *values: Scalar) -> tuple:
    """Coerce arguments to the numeric domain; refuse all-exact input."""
    if all(is_exact(v) for v in values):
        raise DomainError(f"{name} evaluates only in the numeric (float) domain")
    return tuple(float(v) if is_exact(v) else v for v in values)


def prod_range(f: Callable[[int], Scalar], k: int, n: int) -> Scalar:
    """Bilateral product of ``f(i)`` for ``i = k..n``.

    Ordinary product for ``n >= k``, empty (1) for ``n == k-1``, and the
    reciprocal ``1/(f(n+1)...f(k-1))`` for ``n <= k-2``, so that
    ``prod_range(f, k, n) * prod_range(f, n+1, k-1) == 1`` whenever both
    sides are defined.
    """
    if n >= k:
        out: Scalar = 1
        for i in range(k, n + 1):
            out = out * f(i)
        return out
    if n == k - 1:
        return 1
    out = 1
    for i in range(n + 1, k):
        v = f(i)
        if v == 0:
            raise ZeroDivisor(f"prod_range({k},{n}): reciprocal branch hit f({i}) = 0")
        out = out * v
    return reciprocal(out)


def q_pochhammer(a: Scalar, q: Scalar, n: int) -> Scalar:
    """q-shifted factorial ``(a;q)_n`` for any integer ``n``.

    ``(a;q)_0 = 1``, ``(a;q)_n = prod_{i=0}^{n-1} (1 - a q^i)`` for positive
    ``n``, and the reciprocal extension
    ``(a;q)_{-m} = 1 / prod_{j=1}^{m} (1 - a q^{-j})`` for negative ``n``.
    """
    out: Scalar = 1
    for e in range(n) if n >= 0 else range(1, 1 - n):
        factor = 1 - a * power(q, e if n > 0 else -e)
        if factor == 0 and n < 0:
            raise ZeroDivisor(f"(a;q)_{n}: factor 1 - a*q^(-{e}) vanishes")
        out = out * factor
    return out if n >= 0 else reciprocal(out)


def q_pochhammer_infinite(a: Scalar, q: Scalar, policy: TruncationPolicy = DEFAULT_POLICY) -> Scalar:
    """Truncated ``(a;q)_inf = prod_{i>=0} (1 - a q^i)``; numeric domain only."""
    a, q = _to_numeric("(a;q)_inf", a, q)
    if abs(q) >= 1:
        raise DomainError("(a;q)_inf requires |q| < 1")
    out = 1.0
    f = a
    for _ in range(policy.max_terms):
        if abs(f) < policy.tail_bound:
            break
        out = out * (1 - f)
        f = f * q
    return out


def theta(x: Scalar, q: Scalar, policy: TruncationPolicy = DEFAULT_POLICY) -> Scalar:
    """Modified Jacobi theta ``theta(x;q) = (x;q)_inf (q/x;q)_inf``.

    Requires ``0 < |q| < 1`` and ``x != 0``; deterministic for a fixed policy.
    """
    x, q = _to_numeric("theta", x, q)
    if x == 0:
        raise DomainError("theta requires x != 0")
    if not 0 < abs(q) < 1:
        raise DomainError("theta requires 0 < |q| < 1")
    return q_pochhammer_infinite(x, q, policy) * q_pochhammer_infinite(q / x, q, policy)


def theta_product(args: Iterable[Scalar], q: Scalar, policy: TruncationPolicy = DEFAULT_POLICY) -> Scalar:
    """``theta(a_1;q) theta(a_2;q) ... theta(a_m;q)``."""
    out: Scalar = 1.0
    for a in args:
        out = out * theta(a, q, policy)
    return out


def partial_theta(q: Scalar, x: Scalar, policy: TruncationPolicy = DEFAULT_POLICY) -> Scalar:
    """Partial theta series ``sum_{n>=0} (-1)^n q^{n(n-1)/2} x^n``.

    Exact inputs are accepted only where the series terminates (``q = 0``
    gives ``1 - x``, ``x = 0`` gives 1).  Numeric evaluation truncates once
    the next term drops below the tail bound and raises
    :class:`~invrel.errors.NonConvergent` if ``max_terms`` is reached first
    (possible for large ``|x|``).
    """
    if abs(q) >= 1:
        raise DomainError("partial theta requires |q| < 1")
    if is_exact(q) and is_exact(x):
        if x == 0:
            return 1
        if q == 0:
            return 1 - x
        raise DomainError("exact partial theta terminates only for q = 0 or x = 0")
    q, x = (float(v) if is_exact(v) else v for v in (q, x))
    total = 0.0
    term = 1.0
    for n in range(policy.max_terms):
        total = total + term
        term = term * (-x) * q**n
        if abs(term) < policy.tail_bound:
            return total + term
    raise NonConvergent(
        f"partial theta: {policy.max_terms} terms without tail < {policy.tail_bound}"
    )


def partial_theta_slope_series(
    x: Scalar, y: Scalar, q: Scalar, policy: TruncationPolicy = DEFAULT_POLICY
) -> Scalar:
    """Series form of the symmetric slope kernel of the partial theta function:

    ``-(q, xq, yq; q)_inf * sum_{n>=0} (xy;q)_{2n} q^n / ((q, xq, yq, xy; q)_n)``

    Symmetric in ``x, y`` and equal to
    ``(partial_theta(q,x) - partial_theta(q,y)) / (x - y)``, which
    :func:`partial_theta_slope_quotient` computes directly.
    """
    x, y, q = _to_numeric("slope kernel", x, y, q)
    if abs(q) >= 1:
        raise DomainError("slope kernel requires |q| < 1")
    prefactor = -(
        q_pochhammer_infinite(q, q, policy)
        * q_pochhammer_infinite(x * q, q, policy)
        * q_pochhammer_infinite(y * q, q, policy)
    )
    total = 0.0
    term = 1.0
    for n in range(policy.max_terms):
        total = total + term
        num = (1 - x * y * q ** (2 * n)) * (1 - x * y * q ** (2 * n + 1)) * q
        den = (
            (1 - q ** (n + 1))
            * (1 - x * q ** (n + 1))
            * (1 - y * q ** (n + 1))
            * (1 - x * y * q**n)
        )
        if den == 0:
            raise DomainError(f"slope kernel series degenerate at term {n + 1}")
        term = term * num / den
        if abs(term) < policy.tail_bound:
            return prefactor * (total + term)
    raise NonConvergent(
        f"slope kernel: {policy.max_terms} terms without tail < {policy.tail_bound}"
    )


def partial_theta_slope_quotient(
    x: Scalar, y: Scalar, q: Scalar, policy: TruncationPolicy = DEFAULT_POLICY
) -> Scalar:
    """Difference-quotient form ``(Theta(q,x) - Theta(q,y)) / (x - y)``."""
    if x == y:
        raise DomainError("quotient form requires x != y")
    x, y, q = _to_numeric("slope kernel", x, y, q)
    return (partial_theta(q, x, policy) - partial_theta(q, y, policy)) / (x - y)


def elliptic_pochhammer(
    x: Scalar, q: Scalar, p: Scalar, n: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> Scalar:
    """Elliptic shifted factorial ``(x;q,p)_n = prod_{k=0}^{n-1} theta(x q^k; p)``,
    extended to negative ``n`` by the bilateral product convention."""
    return prod_range(lambda k: theta(x * power(q, k), p, policy), 0, n - 1)


def weierstrass_addition_residual(
    x: Scalar, y: Scalar, u: Scalar, v: Scalar, q: Scalar,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> Scalar:
    """Residual of the theta addition formula

    ``theta(xy, x/y, uv, u/v; q) - theta(xv, x/v, yu, u/y; q)
      - (u/y) theta(xu, x/u, yv, y/v; q)``

    which vanishes identically; near zero when truncation is tight.
    """
    t1 = theta_product((x * y, x / y, u * v, u / v), q, policy)
    t2 = theta_product((x * v, x / v, y * u, u / y), q, policy)
    t3 = theta_product((x * u, x / u, y * v, y / v), q, policy)
    return t1 - t2 - (u / y) * t3
