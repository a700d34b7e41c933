"""Scalar backends: exact rationals and high-precision floats.

All public functions in this package accept plain ints, ``fractions.Fraction``
and mpmath ``mpf`` values interchangeably.  One backend per call: a public
entry point brings its point and its (q, alpha) onto one backend with
``unify``, once, at its working digits, and what it calls takes those
operands and picks no backend again.  So an exact (q, alpha) at a float
point computes as floats, converted at the call's working digits, and an
all-exact call stays exact.  ``qpow`` is the single gateway for powers, so
the exact backend fails loudly instead of silently rounding.  A loop
written once runs on any of three arithmetics (``Arithmetic``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter
from typing import Union

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, from_man_exp,
                          fzero, mpf_add, mpf_div, mpf_mul, mpf_neg,
                          mpf_pow_int, mpf_sub, round_nearest, to_fixed,
                          to_str)

from .errors import DomainError, ExactBackendError

Numeric = Union[int, Fraction, mpf]

_EXACT_TYPES = (int, Fraction)


def is_exact(value) -> bool:
    """True for scalars the exact backend can keep exact; an mpf is ruled out
    first, as isinstance against Fraction, an ABC, costs ten times more."""
    return not isinstance(value, mpf) and isinstance(value, _EXACT_TYPES)


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
    for v in values:  # the cheap mpf test first, as in is_exact
        floats = floats and isinstance(v, mpf)
        exact = exact and not floats and isinstance(v, _EXACT_TYPES)
    if exact or floats:
        return values
    return tuple(map(to_mpf, values))


def qpow(base, exponent):
    """base**exponent with backend discipline.

    Integer exponents, an integral Fraction or mpf too, preserve exactness
    (Fraction**int stays a Fraction); a float or numeric string exponent is
    taken as an mpf.
    A non-integer Fraction exponent num/r of an exact base > 0 that is a
    perfect r-th power gives the exact value, root**num; any other
    non-integer power of an exact base raises ExactBackendError.  A negative
    base raises DomainError (no complex branch is taken anywhere in this
    package), and so does a non-finite exponent.
    """
    e = exponent
    if not isinstance(e, int):
        e = mpf(e) if isinstance(e, (float, str)) else e
        if isinstance(e, mpf):
            if mp.isint(e):
                e = int(e)
            elif e._mpf_ in (finf, fninf, fnan):
                raise DomainError("exponent must be finite: got %s" % e)
        elif isinstance(e, Fraction) and e.denominator == 1:
            e = int(e)
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
        if isinstance(e, Fraction) and base > 0:
            num, den = (_int_root(v, e.denominator)
                        for v in (base.numerator, base.denominator))
            if num and den:
                return Fraction(num, den) ** e.numerator
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


def _int_root(n: int, r: int):
    """The r-th root of the int n >= 1 if it is an int, else None: Newton's
    step on ints from above, down to the floor of the root."""
    x = 1 << -(-n.bit_length() // r)  # above the root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x if x ** r == n else None
        x = y


class Arithmetic(namedtuple("Arithmetic", "add sub mul div neg pow_int raw "
                                          "value one zero")):
    """The operations of a loop that runs on any of three arithmetics: one
    loop, the same operation order.

    A kernel takes its operands with raw, calls op(a, b, prec, rnd),
    neg(a, prec, rnd) and pow_int(a, n, prec, rnd), starts from one and
    zero, and hands a result back with value.
    RAW's members are libmp's own functions on raw mpf tuples, each rounding
    to prec, so a loop on RAW has the bits of the same expressions on mpf
    values at mp.prec = prec, with no Python frame per operation added.
    EXACT's operands are pairs (numerator, denominator) of ints with
    denominator > 0, not reduced: a product, quotient or power multiplies
    ints, a sum puts both over the least common denominator, one gcd, and
    value builds the `Fraction`, the one reduction.  They ignore prec and
    rnd, so the same loop is exact.  `fixed(wp)`'s are Python's operators
    on ints scaled by 2^wp, each product and quotient rounded down to a
    unit of 2^-wp whatever prec and rnd say, raw the one entry into fixed
    point, which raises DomainError for a non-finite value, and value rounds
    to mp.prec once.  Only on RAW does an addition round.
    """

    __slots__ = ()


def _pair_add(a, b, prec, rnd):
    (n, d), (m, e) = a, b
    if d == e:
        return n + m, d
    g = gcd(d, e)
    return n * (e // g) + m * (d // g), d // g * e


def _pair_sub(a, b, prec, rnd):
    (n, d), (m, e) = a, b
    if d == e:
        return n - m, d
    g = gcd(d, e)
    return n * (e // g) - m * (d // g), d // g * e


def _pair_div(a, b, prec, rnd):
    (n, d), (m, e) = a, b
    if not m:
        raise ZeroDivisionError("division by zero")
    return (n * e, d * m) if m > 0 else (-n * e, -d * m)


def _pair_pow(a, k, prec, rnd):
    n, d = a
    if k < 0:
        if not n:
            raise DomainError("0 cannot be raised to a negative power")
        n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
    return n ** k, d ** k


EXACT = Arithmetic(
    _pair_add, _pair_sub,
    lambda a, b, prec, rnd: (a[0] * b[0], a[1] * b[1]), _pair_div,
    lambda a, prec, rnd: (-a[0], a[1]), _pair_pow,
    attrgetter("numerator", "denominator"), lambda v: Fraction(*v), (1, 1), (0, 1))
RAW = Arithmetic(mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_neg, mpf_pow_int,
                 attrgetter("_mpf_"), mp.make_mpf, fone, fzero)


def arithmetic(value) -> Arithmetic:
    """EXACT for an int or Fraction, else RAW: the arithmetic of a group of
    operands that `unify` brought onto value's backend."""
    return EXACT if is_exact(value) else RAW


GUARD_BITS = 32  # bits beyond mp.prec that running products of q-powers keep


def finite_raw(value) -> tuple:
    """value's raw libmp tuple, or DomainError if it is not finite: the rule
    for every operand of a sum, and fixed point's entry, as libmp's
    to_fixed takes a non-finite value as 0."""
    raw = to_mpf(value)._mpf_
    if raw in (finf, fninf, fnan):
        raise DomainError("a sum's operand must be finite: got %s"
                          % mp.make_mpf(raw))
    return raw


@lru_cache(maxsize=64)
def fixed(wp: int) -> Arithmetic:
    """The fixed-point arithmetic at wp bits (see `Arithmetic`), on ints."""
    one = 1 << wp

    return Arithmetic(
        lambda a, b, prec, rnd: a + b, lambda a, b, prec, rnd: a - b,
        lambda a, b, prec, rnd: a * b >> wp,
        lambda a, b, prec, rnd: (a << wp) // b,
        lambda a, prec, rnd: -a,
        # n >= 0: the exact power, rounded down once
        lambda a, n, prec, rnd: a ** n >> wp * (n - 1) if n else one,
        lambda value: to_fixed(finite_raw(value), wp),
        lambda v: mp.make_mpf(from_man_exp(v, -wp, mp.prec, round_nearest)),
        one, 0)


def fixed_bits(tol, count: int) -> int:
    """The bits of a fixed-point sum that stops at tol and rounds to mp.prec:
    mp.prec, or tol's bits if finer, plus GUARD_BITS, plus the bits of the
    count of its roundings, so a stop limit never rounds to 0."""
    _, _, exp, bc = to_mpf(tol)._mpf_
    return max(mp.prec, -exp - bc) + GUARD_BITS + count.bit_length()


def fixed_sum(run, tol, count: int) -> tuple:
    """(run(wp), wp) for a fixed-point sum run(wp) that returns (total,
    largest |term|, ...) as ints scaled by 2^wp, wp = fixed_bits(tol,
    count).  A total below its largest term by more than half of
    GUARD_BITS, the part of the guard that cancellation may take, is
    summed once more with the bits between them added to wp."""
    wp = fixed_bits(tol, count)
    out = run(wp)
    lost = out[1].bit_length() - abs(out[0]).bit_length()
    if lost > GUARD_BITS // 2:
        wp += lost
        out = run(wp)
    return out, wp


@lru_cache(maxsize=128)
def _ten_power(exponent: int, prec: int) -> mpf:
    """10^exponent at prec bits, the bits of mpf(10) ** exponent at mp.prec =
    prec: the default tolerances, taken once per precision."""
    return mp.make_mpf(mpf_pow_int(from_int(10), exponent, prec, round_nearest))


class CompensatedSum:
    """Kahan-style compensated accumulator, for both backends: for exact
    scalars the compensation term is identically zero.  No kernel sums with
    it; it stays for the tests and the bench tracer until ROADMAP item 15."""

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
