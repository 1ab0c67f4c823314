"""The printed closed forms against a frozen reference.

The reference below is the earlier evaluation of the binomial, gasper,
schlosser and eds closed forms: every value a reduced ``Fraction`` (or the
float arithmetic of the parameters), and the closed-form check a plain fold
of ``form(n, k) - entry``.  Exact forms now come as unreduced int pairs
compared by cross-multiplication; these tests hold them to the reference's
worst residual as a string, its error type and message on singular draws,
and, for float and mixed parameters, its values bit for bit.  The
elliptic-sum reference builds its factorials with ``elliptic_pochhammer`` and
its own sigma; the closed form now shares the kernel's partial products and
sigma, and keeps the reference's values bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from invrel import (
    VerificationError,
    binomial_closed_entries,
    binomial_kernel,
    constant_sequence,
    eds_closed_entries,
    eds_generate,
    eds_kernel,
    elliptic_sum_closed_entries,
    elliptic_sum_kernel,
    gasper_closed_entries,
    gasper_kernel,
    max_closed_form_residual,
    pair_from_kernel,
    schlosser_closed_entries,
    schlosser_kernel,
)
from invrel.cli import main
from invrel.errors import located
from invrel.families import Ratio
from invrel.kernels import TriangularPair, worst_of
from invrel.numerics import (
    DEFAULT_POLICY,
    elliptic_pochhammer,
    exact_div,
    power,
    prod_range,
    q_pochhammer,
    reciprocal,
)


def _binom2(m):
    return m * (m - 1) // 2


# --- the reference forms ------------------------------------------------------


def ref_binomial():
    return (
        lambda n, k: Fraction(1, factorial(n - k)),
        lambda n, k: Fraction((-1) ** (n - k), factorial(n - k)),
    )


def ref_gasper(a, b, p, q):
    ba = exact_div(b, a)

    def f_closed(n, k):
        num = q_pochhammer(a * power(p, k) * power(q, k), q, n - k) * q_pochhammer(
            b * power(p, -k) * power(q, k), q, n - k
        )
        den = q_pochhammer(p, p, n - k) * q_pochhammer(ba * power(p, -n - k), p, n - k)
        return (-1) ** (n - k) * power(p, -(n - k) * k) * num * reciprocal(den)

    def g_closed(n, k):
        num = (
            (1 - a * power(p, k) * power(q, k))
            * (1 - b * power(p, -k) * power(q, k))
            * q_pochhammer(a * power(p, n) * power(q, k), q, n - k)
            * q_pochhammer(b * power(q, k) * power(p, -n), q, n - k)
        )
        den = (
            (1 - a * power(p, n) * power(q, k))
            * (1 - b * power(p, -n) * power(q, k))
            * q_pochhammer(p, p, n - k)
            * q_pochhammer(ba * power(p, 1 - 2 * n), p, n - k)
        )
        return power(p, -_binom2(n) + _binom2(k)) * num * reciprocal(den)

    return f_closed, g_closed


def ref_schlosser(a, b, c, q):
    def f_closed(n, k):
        big = a + b * power(q, k)
        rest = c - a * big
        num = q_pochhammer(reciprocal(b), q, n - k) * q_pochhammer(
            big * power(q, k) * reciprocal(rest), q, n - k
        )
        den = q_pochhammer(q, q, n - k) * q_pochhammer(
            big * b * power(q, k + 1) * reciprocal(rest), q, n - k
        )
        return num * reciprocal(den)

    def g_closed(n, k):
        big = a + b * power(q, n)
        rest = c - a * big
        lam = (
            (-1) ** (n - k)
            * power(q, _binom2(n - k))
            * (c - (a + b * power(q, k)) * (a + power(q, k)))
            * reciprocal(c - (a + b * power(q, n)) * (a + power(q, n)))
        )
        num = q_pochhammer(power(q, k - n + 1) * reciprocal(b), q, n - k) * q_pochhammer(
            big * power(q, k + 1) * reciprocal(rest), q, n - k
        )
        den = q_pochhammer(q, q, n - k) * q_pochhammer(
            big * b * power(q, k) * reciprocal(rest), q, n - k
        )
        return lam * num * reciprocal(den)

    return f_closed, g_closed


def ref_eds(W):
    """The earlier eds forms; G divides ``prod_{1}^{n+k-1} W`` by
    ``prod_{1}^{2n-1} W``, which crosses ``W_0 = 0`` below 0."""

    def f_closed(n, k):
        den = prod_range(W.w, 2 * k + 1, n + k) * prod_range(W.w, 1, n - k)
        return W.w(k) ** (2 * (n - k)) * reciprocal(den)

    def g_closed(n, k):
        num = W.w(k) ** 2 * W.w(n) ** (2 * (n - k)) * prod_range(W.w, 1, n + k - 1)
        den = W.w(n) ** 2 * prod_range(W.w, 1, 2 * n - 1) * prod_range(W.w, 1, n - k)
        return (-1) ** (n - k) * num * reciprocal(den)

    return f_closed, g_closed


def ref_elliptic_sum(x, y, q, p, t_seq, policy=DEFAULT_POLICY):
    """The earlier elliptic-sum forms: ``(x;q,p)_m`` and ``(y;q,p)_m`` from
    ``elliptic_pochhammer`` and a sigma of their own, unguarded."""
    E = lru_cache(maxsize=None)(lambda m: elliptic_pochhammer(x, q, p, m, policy))
    D = lru_cache(maxsize=None)(lambda m: elliptic_pochhammer(y, q, p, m, policy))

    @lru_cache(maxsize=None)
    def sigma(m):
        if m == 0:
            return 0
        if m > 0:
            return sigma(m - 1) + t_seq(m) * reciprocal(E(m - 1) * E(m))
        return sigma(m + 1) - t_seq(m + 1) * reciprocal(E(m) * E(m + 1))

    def s(i, k):
        return sigma(k) - sigma(i)

    def f_closed(n, k):
        return prod_range(lambda i: reciprocal(E(i) * D(i - 1) * s(i, k)), k + 1, n)

    def g_closed(n, k):
        return prod_range(lambda i: reciprocal(E(i + 1) * D(i) * s(i, n)), k, n - 1)

    return f_closed, g_closed


def ref_fold(pair, closed):
    """The earlier closed-form check: the worst ``form(n, k) - entry``."""
    lo, hi = pair.window

    def diffs():
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                for name, form, rows in zip("FG", closed, (pair.F, pair.G)):
                    try:
                        yield form(n, k) - rows[n - lo][k - lo]
                    except VerificationError as exc:
                        raise located(exc, f"closed-form {name}({n},{k})")

    return worst_of(diffs())


# --- cases ----------------------------------------------------------------------


def _outcome(fn):
    """``str`` of the worst residual, or the error's type and message."""
    try:
        return str(fn())
    except VerificationError as exc:
        return f"{type(exc).__name__}: {exc}"


def value(ratio) -> Fraction:
    return Fraction(ratio.numerator, ratio.denominator)


def perturbed(pair: TriangularPair, n: int, k: int) -> TriangularPair:
    """``pair`` with ``F(n,k)`` scaled by 1 + 1/1000."""
    lo, _ = pair.window
    F = [row[:] for row in pair.F]
    F[n - lo][k - lo] *= 1 + Fraction(1, 1000)
    return TriangularPair(F, pair.G, pair.window)


def assert_same_check(kernel, window, closed, reference) -> bool:
    """The closed-form check equals the reference fold, as is and with one
    entry perturbed, when the pair exists; whether it does."""
    try:
        pair = pair_from_kernel(kernel, window)
    except VerificationError:
        return False
    reference = tuple(lru_cache(maxsize=None)(form) for form in reference)
    assert _outcome(lambda: max_closed_form_residual(pair, closed)) == _outcome(lambda: ref_fold(pair, reference))
    lo, hi = window
    n = (lo + hi + 1) // 2
    bad = perturbed(pair, *((n, lo) if pair.F[n - lo][0] != 0 else (lo, lo)))
    got = _outcome(lambda: max_closed_form_residual(bad, closed))
    assert got == _outcome(lambda: ref_fold(bad, reference))
    assert got != "0"
    return True


def _exact(rng, choices):
    return Fraction(rng.choice(choices), rng.choice((1, 2, 3, 5, 7)))


def gasper_draw(rng):
    return {
        "a": _exact(rng, (1, 2, 3, 5, -2, -3)), "b": _exact(rng, (2, 3, 5, 7, -3, -5)),
        "p": Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((5, 7, 11, 13))),
        "q": Fraction(rng.choice((1, 2, -1)), rng.choice((3, 5, 7))),
    }


def schlosser_draw(rng):
    return {
        "a": _exact(rng, (1, 2, 3, -1)), "b": _exact(rng, (2, 3, 5, -2, -3)),
        "c": _exact(rng, (5, 6, 7, 9, 11, -4)),
        "q": Fraction(rng.choice((1, 2, -1)), rng.choice((3, 5, 7))),
    }


EXACT_DRAWS = 50


def test_ratio_equals_exact_values_only():
    assert Ratio(2, 4) == Fraction(1, 2) == Ratio(-1, -2) and Ratio(3, 1) == 3
    assert not Ratio(1, 2) == 0.5


class TestExactAgainstTheReference:
    @pytest.mark.parametrize("lo", range(-3, 4))
    def test_binomial(self, lo):
        window = (lo, lo + 44)
        assert_same_check(binomial_kernel(), window, binomial_closed_entries(), ref_binomial())

    @pytest.mark.parametrize("params, window", [
        ({"a": Fraction(2), "b": Fraction(3), "p": Fraction(1, 5), "q": Fraction(1, 7)}, (0, 16)),
        ({"a": Fraction(3), "b": Fraction(-5), "p": Fraction(2, 13), "q": Fraction(1, 3)}, (0, 16)),
        ({"a": 2, "b": 3, "p": 3, "q": 2}, (0, 8)),
    ])
    def test_gasper_presets(self, params, window):
        kernel = gasper_kernel(**params)
        assert_same_check(kernel, window, gasper_closed_entries(**params), ref_gasper(**params))

    def test_gasper_draws(self):
        rng, tested = random.Random(11), 0
        while tested < EXACT_DRAWS:
            params = gasper_draw(rng)
            window = (0, 16) if tested < 2 else (0, rng.randint(3, 6))
            try:
                kernel = gasper_kernel(**params)
            except VerificationError:
                continue
            tested += assert_same_check(kernel, window, gasper_closed_entries(**params), ref_gasper(**params))

    def test_gasper_singular_draw(self):
        params = {"a": Fraction(5), "b": Fraction(7), "p": Fraction(1, 5), "q": Fraction(1, 5)}
        pair = pair_from_kernel(gasper_kernel(**params), (0, 16))
        got = _outcome(lambda: max_closed_form_residual(pair, gasper_closed_entries(**params)))
        assert got == _outcome(lambda: ref_fold(pair, ref_gasper(**params)))
        assert got == "ZeroDivisor: closed-form G(1,0): reciprocal of zero"

    @pytest.mark.parametrize("params, window", [
        ({"a": Fraction(1, 2), "b": Fraction(2), "c": Fraction(7), "q": Fraction(1, 3)}, (0, 16)),
        ({"a": Fraction(3, 5), "b": Fraction(3), "c": Fraction(9), "q": Fraction(1, 5)}, (0, 16)),
        ({"a": 1, "b": 2, "c": 7, "q": 3}, (0, 8)),
    ])
    def test_schlosser_presets(self, params, window):
        kernel = schlosser_kernel(**params)
        assert_same_check(kernel, window, schlosser_closed_entries(**params), ref_schlosser(**params))

    def test_schlosser_draws(self):
        rng, tested = random.Random(12), 0
        while tested < EXACT_DRAWS:
            params = schlosser_draw(rng)
            window = (0, 16) if tested < 2 else (0, rng.randint(3, 6))
            try:
                kernel = schlosser_kernel(**params)
            except VerificationError:
                continue
            tested += assert_same_check(kernel, window, schlosser_closed_entries(**params), ref_schlosser(**params))

    def test_schlosser_singular_rest(self):
        # R_k = c - a (a + b q^k) = 0 at k = 0: every F(n,0) divides by it
        params = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3), "q": Fraction(1, 3)}
        closed, reference = schlosser_closed_entries(**params), ref_schlosser(**params)
        for n in range(4):
            for form, ref in zip(closed, reference):
                assert _outcome(lambda: value(form(n, 0))) == _outcome(lambda: ref(n, 0))
        assert _outcome(lambda: closed[0](0, 0)) == "ZeroDivisor: reciprocal of zero"
        assert closed[1](1, 0) == reference[1](1, 0)

    @pytest.mark.parametrize("seeds, window", [
        ((1, -1, 1), (1, 12)), ((1, 2, 4), (1, 12)), ((1, 3, 4), (1, 11)), ((-1, 2, -3), (1, 13)),
    ])
    def test_eds_presets(self, seeds, window):
        seq = eds_generate(*seeds, 2 * window[1])
        assert_same_check(eds_kernel(seq), window, eds_closed_entries(seq), ref_eds(seq))

    def test_eds_draws(self):
        rng, tested = random.Random(13), 0
        picks = (-4, -3, -2, -1, 1, 2, 3, 4)
        while tested < EXACT_DRAWS:
            seeds = (rng.choice((1, -1)), rng.choice(picks), rng.choice(picks))
            window = (1, rng.randint(6, 12))
            try:
                seq = eds_generate(*seeds, 2 * window[1])
                kernel = eds_kernel(seq, window=window)
            except VerificationError:
                continue
            tested += assert_same_check(kernel, window, eds_closed_entries(seq), ref_eds(seq))

    @pytest.mark.parametrize("window", [(-3, -1), (-5, -2), (-6, -1)])
    def test_eds_below_zero(self, window):
        """Below 0 the earlier G crosses ``W_0``; the new one equals the entries."""
        seq = eds_generate(1, 2, 4, 2 * abs(window[0]))
        kernel = eds_kernel(seq, window=window)
        pair = pair_from_kernel(kernel, window)
        f_closed, g_closed = eds_closed_entries(seq)
        lo, hi = window
        for k in range(lo, hi + 1):
            for n in range(k, hi + 1):
                assert f_closed(n, k) == pair.F[n - lo][k - lo]
                assert g_closed(n, k) == pair.G[n - lo][k - lo]
        assert max_closed_form_residual(pair, (f_closed, g_closed)) == 0
        assert "ZeroDivisor" in _outcome(lambda: ref_fold(pair, ref_eds(seq)))


def mixed(rng, exact, ranges):
    """``exact`` with each parameter a float from its range half of the time,
    and at least one of them a float."""
    params = {k: rng.uniform(*ranges[k]) if rng.random() < 0.5 else v for k, v in exact.items()}
    if all(isinstance(v, Fraction) for v in params.values()):
        key = rng.choice(sorted(params))
        params[key] = rng.uniform(*ranges[key])
    return params


class TestFloatAndMixedKeepTheirBits:
    """With any float parameter the forms are the reference's arithmetic."""

    def _same_bits(self, closed, reference, hi):
        for k in range(hi + 1):
            for n in range(k, hi + 1):
                for form, ref in zip(closed, reference):
                    assert _outcome(lambda: repr(form(n, k))) == _outcome(lambda: repr(ref(n, k)))

    def test_gasper(self):
        rng = random.Random(21)
        ranges = {"a": (0.5, 3.0), "b": (-3.0, 5.0), "p": (0.05, 0.6), "q": (0.05, 0.6)}
        for _ in range(50):
            params = mixed(rng, gasper_draw(rng), ranges)
            self._same_bits(gasper_closed_entries(**params), ref_gasper(**params), 6)

    def test_schlosser(self):
        rng = random.Random(22)
        ranges = {"a": (0.2, 2.0), "b": (-3.0, 4.0), "c": (3.0, 11.0), "q": (0.05, 0.6)}
        for _ in range(50):
            params = mixed(rng, schlosser_draw(rng), ranges)
            self._same_bits(schlosser_closed_entries(**params), ref_schlosser(**params), 6)


ELLIPTIC_SUM = {"x": 0.3, "y": 0.7, "q": 0.4, "p": 0.1, "t": 1.0}


def elliptic_sum_args(params):
    return params["x"], params["y"], params["q"], params["p"], constant_sequence(params["t"])


def elliptic_sum_draw(rng):
    """A draw in the benchmark's theta-scan ranges, rounded as it rounds them."""
    ranges = {"x": (0.2, 0.4), "y": (0.5, 0.9), "q": (0.2, 0.3), "p": (0.02, 0.3), "t": (0.5, 1.5)}
    return {name: round(rng.uniform(*r), 6) for name, r in ranges.items()}


class TestEllipticSumAgainstTheReference:
    """The closed form's partial products and sigma are the kernel's own."""

    @pytest.mark.parametrize("window", [(0, 3), (-2, 2)])
    def test_preset_and_draws_keep_their_bits(self, window):
        rng = random.Random(31)
        lo, hi = window
        for params in [ELLIPTIC_SUM] + [elliptic_sum_draw(rng) for _ in range(20)]:
            args = elliptic_sum_args(params)
            closed, reference = elliptic_sum_closed_entries(*args), ref_elliptic_sum(*args)
            for k in range(lo, hi + 1):
                for n in range(k, hi + 1):
                    for form, ref in zip(closed, reference):
                        got = _outcome(lambda: repr(form(n, k)))
                        assert got == _outcome(lambda: repr(ref(n, k)))
                        assert "Error" not in got and "ZeroDivisor" not in got

    def test_vanishing_x_factor_is_named(self):
        """With ``x = p``, ``theta(x; p) = 0``: sigma names the partial product,
        where the earlier forms raised a bare reciprocal of zero."""
        args = elliptic_sum_args({**ELLIPTIC_SUM, "x": 0.1, "p": 0.1})
        (f_closed, _), (ref_f, _) = elliptic_sum_closed_entries(*args), ref_elliptic_sum(*args)
        assert f_closed(0, 0) == ref_f(0, 0) == 1
        for n in (1, 2):
            assert _outcome(lambda: f_closed(n, 0)) == "ZeroDivisor: x partial product through 1 vanishes"
            assert _outcome(lambda: ref_f(n, 0)) == "ZeroDivisor: reciprocal of zero"

    def test_vanishing_x_factor_report(self, capsys):
        """The CLI stops at the kernel's own sigma, with the same message."""
        code = main(["verify", "--family=elliptic-sum", "--params=x=0.1,p=0.1", "--checks=closed-form"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (doc["checks"], doc["passed"]) == ([], False)
        assert doc["error"] == "ZeroDivisor: x partial product through 1 vanishes"

    def test_one_scaled_alpha_fails_the_check(self):
        """Negative control: ``alpha(1,0)`` scaled by 1 + 1e-6 moves ``F(2,0)``
        and ``F(3,0)`` off the printed products by more than the tolerance."""
        args = elliptic_sum_args(ELLIPTIC_SUM)
        kernel, closed = elliptic_sum_kernel(*args), elliptic_sum_closed_entries(*args)
        scaled = dataclasses.replace(
            kernel, alpha=lambda i, k: kernel.alpha(i, k) * (1 + 1e-6) if (i, k) == (1, 0) else kernel.alpha(i, k)
        )
        assert abs(max_closed_form_residual(pair_from_kernel(kernel, (0, 3)), closed)) <= 1e-8
        assert abs(max_closed_form_residual(pair_from_kernel(scaled, (0, 3)), closed)) > 1e-8
