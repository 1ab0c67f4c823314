"""Exception types shared across the library.

Every domain failure derives from :class:`VerificationError`, so callers
(notably the CLI) can render it as a failed report instead of a traceback.
:class:`ConfigError` is not a domain failure: it marks bad input, which the
CLI refuses with exit status 2 before any report is written.
"""


class VerificationError(Exception):
    """Base class for all library-specific failures."""


class ZeroDivisor(VerificationError):
    """A reciprocal or denominator factor vanished; the message names it."""


class DomainError(VerificationError):
    """Arguments outside the domain of an operation (|q| >= 1, x = 0, ...)."""


class NonConvergent(VerificationError):
    """A truncated series hit its term cap before meeting the tail bound."""


class ZeroDiagonal(VerificationError):
    """A diagonal coefficient alpha(n, n) needed as a denominator is zero."""


class DuplicateNodes(VerificationError):
    """Divided-difference nodes are not pairwise distinct."""


class MissingBeta(VerificationError):
    """A beta value required by a weight product has not been computed yet."""


class ZeroDenominator(VerificationError):
    """The window-delta constraint does not determine beta(k, n): the g-weight
    sum vanished.  Carries the offending indices and the individual weights."""

    def __init__(self, k, n, g_values):
        self.k = k
        self.n = n
        self.g_values = tuple(g_values)
        super().__init__(
            f"g-weight sum for beta({k},{n}) is zero; weights: {self.g_values}"
        )


class PivotDegenerate(VerificationError):
    """A pivot-based substitution hit a vanishing denominator."""


class DegenerateParams(VerificationError):
    """Family parameters violate admissibility on the requested window."""


class ZeroBeta(VerificationError):
    """A divisibility-sequence kernel has beta(i, k) = 0 off the diagonal."""


class IndexOutOfTable(VerificationError):
    """A sequence lookup fell outside the generated table."""


class ConfigError(Exception):
    """Malformed CLI arguments or config file."""


def located(exc: VerificationError, where: str) -> VerificationError:
    """``exc`` again, as the same type with ``where: `` before its message and
    ``exc`` as its cause; ``exc`` itself when its type takes structured
    arguments instead."""
    try:
        wrapped = type(exc)(f"{where}: {exc}")
    except TypeError:
        return exc
    wrapped.__cause__ = exc
    return wrapped
