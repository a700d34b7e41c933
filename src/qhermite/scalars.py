"""Scalar backends: exact rationals and high-precision floats.

All public functions in this package accept plain ints, ``fractions.Fraction``
and mpmath ``mpf`` values interchangeably.  Arithmetic stays exact as long as
every operand is rational and every exponent is an integer; anything else is
promoted to mpf at the ambient mpmath precision.  ``qpow`` is the single
gateway for powers, so the exact backend fails loudly (ExactBackendError)
instead of silently rounding when a non-integer exponent sneaks in.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, lt
from typing import Union

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_div,
                          mpf_lt, mpf_mul, mpf_neg, mpf_pow_int, mpf_sub,
                          round_nearest, to_str)

from .errors import DomainError, ExactBackendError

Numeric = Union[int, Fraction, mpf]

_EXACT_TYPES = (int, Fraction)


def is_exact(value) -> bool:
    """True for scalars the exact backend can keep exact."""
    return isinstance(value, _EXACT_TYPES)


def to_mpf(value) -> mpf:
    """Coerce any supported scalar (including numeric strings) to mpf."""
    if isinstance(value, mpf):
        return value
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


def unify(*values):
    """Bring a group of scalars onto one backend.

    If every value is an int or Fraction the tuple is returned unchanged
    (exact mode); otherwise every value is coerced to mpf.
    """
    exact = floats = True
    for v in values:
        exact = exact and isinstance(v, _EXACT_TYPES)
        floats = floats and isinstance(v, mpf)
    if exact or floats:
        return values
    return tuple(map(to_mpf, values))


def as_int_if_integral(e):
    """Collapse an exponent to int when it is integral, else return it as-is."""
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction):
        return int(e) if e.denominator == 1 else e
    if isinstance(e, float):
        return int(e) if e == int(e) else e
    if isinstance(e, mpf):
        if mp.isint(e):
            return int(e)
        return e
    return e


def qpow(base, exponent):
    """base**exponent with backend discipline.

    Integer exponents preserve exactness (Fraction**int stays a Fraction).
    Non-integer exponents require an mpf base; an exact base raises
    ExactBackendError, a negative base raises DomainError (no complex branch
    is taken anywhere in this package).
    """
    e = as_int_if_integral(exponent)
    if isinstance(e, int):
        if isinstance(base, _EXACT_TYPES):
            if e >= 0:
                return base ** e
            if base == 0:
                raise DomainError("0 cannot be raised to a negative power")
            return Fraction(1, 1) / Fraction(base) ** (-e)
        b = to_mpf(base)
        return b ** e
    # non-integer exponent
    if is_exact(base):
        raise ExactBackendError(
            "non-integer exponent %r requires the float backend (got exact base %r)"
            % (exponent, base)
        )
    b = to_mpf(base)
    if b < 0:
        raise DomainError(
            "negative base %s with non-integer exponent %s has no real value"
            % (b, exponent)
        )
    if b == 0:
        if to_mpf(exponent) > 0:
            return mpf(0)
        raise DomainError("0 cannot be raised to a non-positive non-integer power")
    return b ** to_mpf(e)


class Arithmetic(namedtuple("Arithmetic", "add sub mul div neg abs pow_int lt "
                                          "raw value one zero")):
    """The operations of a loop that runs on either backend: one loop, two
    arithmetics, the same operation order.

    A kernel takes its operands with raw, calls op(a, b, prec, rnd),
    neg(a, prec, rnd), abs(a, prec, rnd), pow_int(a, n, prec, rnd) and
    lt(a, b), starts from one and zero, and hands a result back with value.
    RAW's members are libmp's own functions on raw mpf tuples, each rounding
    to prec, so a loop on RAW has the bits of the same expressions on mpf
    values at mp.prec = prec, with no Python frame per operation added.
    EXACT's are Python's operators on ints and Fractions, which ignore prec
    and rnd, so the same loop is exact.
    """

    __slots__ = ()


EXACT = Arithmetic(
    lambda a, b, prec, rnd: a + b, lambda a, b, prec, rnd: a - b,
    lambda a, b, prec, rnd: a * b, lambda a, b, prec, rnd: a / b,
    lambda a, prec, rnd: -a, lambda a, prec, rnd: abs(a),
    lambda a, n, prec, rnd: qpow(a, n), lt, lambda v: v, lambda v: v,
    Fraction(1), Fraction(0))
RAW = Arithmetic(mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_neg, mpf_abs,
                 mpf_pow_int, mpf_lt, attrgetter("_mpf_"), mp.make_mpf,
                 fone, fzero)


def arithmetic(value) -> Arithmetic:
    """EXACT for an int or Fraction, else RAW: the arithmetic of a group of
    operands that `unify` brought onto value's backend."""
    return EXACT if isinstance(value, _EXACT_TYPES) else RAW


GUARD_BITS = 32  # bits beyond mp.prec that running products of q-powers keep


def guarded_mul(a, b):
    """a * b for a running product of q-powers: exact on the exact backend,
    else rounded to mp.prec + GUARD_BITS bits, so that N < 2^20 such products
    stay as accurate at mp.prec as the correctly rounded power they replace."""
    if is_exact(a) and is_exact(b):
        return a * b
    return mp.make_mpf(mpf_mul(to_mpf(a)._mpf_, to_mpf(b)._mpf_,
                               mp.prec + GUARD_BITS, round_nearest))


def qpowers(q, step: int, first):
    """q^first, q^(first+step), q^(first+2*step), ... as a running product:
    q^step and q^first are taken once with the guard bits, then each next
    power by guarded_mul."""
    with mp.workprec(mp.prec + GUARD_BITS):
        ratio = q ** step
        power = qpow(q, first)
    while True:
        yield power
        power = guarded_mul(power, ratio)


@lru_cache(maxsize=128)
def _ten_power(exponent: int, prec: int) -> mpf:
    """10^exponent at prec bits, the bits of mpf(10) ** exponent at mp.prec =
    prec: the default tolerances, taken once per precision."""
    return mp.make_mpf(mpf_pow_int(from_int(10), exponent, prec, round_nearest))


def binom2(k: int) -> int:
    """Binomial coefficient C(k, 2) = k(k-1)/2, the standard q-series exponent."""
    return k * (k - 1) // 2


class CompensatedSum:
    """Kahan-style compensated accumulator.

    Works for both backends; for exact scalars the compensation term is
    identically zero, for mpf it absorbs the rounding of each addition.
    """

    __slots__ = ("total", "_c")

    def __init__(self, zero=0):
        self.total = zero
        self._c = zero

    def add(self, term):
        y = term - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
        return self.total


def fmt_scalar(x, digits: int) -> str:
    """Deterministic scientific-notation rendering with `digits` significant digits."""
    # what mp.nstr does for an mpf, without its type dispatch
    return to_str(to_mpf(x)._mpf_, digits, min_fixed=1, max_fixed=0,
                  show_zero_exponent=True, strip_zeros=False)
