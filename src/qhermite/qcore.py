"""Core q-calculus building blocks.

q-shifted factorials (finite and infinite), the parity-indexed generalized
q-shifted factorial, Hahn's q-addition powers, and the Truncation budget
every infinite sum and product reads.  Everything downstream (series,
polynomial families, identity checks) is assembled from these; the finite
(a;q)_n, (q;q)_{n,alpha} and (x (+)_q y)^n all read one loop, `_products`,
over the arithmetic of their operands (scalars.Arithmetic), and (a;q)_inf
reads `_infinite_product`: the factors down to |a q^j| < (1 - q)/2, then
Euler's series for the rest on fixed-point ints, rounded once.

One rule sets the lifetime of every memoized value:

- `kept(f, *args)`, for a value of (q, alpha) alone: inside a shared-value
  scope (`shared_scope`) computed once and kept across scopes, in one LRU
  cache of `_KEPT_CAP` entries, the least recently used dropped first.
- `shared(f, *args)`, for a value that holds a point (x, y, omega or t):
  computed once and kept until its scope ends.
- A direct polynomial check runs in a call-local scope (`_call_local`)
  when none is open: both memoize in its own memo, whose values end with
  the call and never enter the LRU.
- Outside every scope both just compute.

Where they memoize, f runs once per operands, their types and mp.prec.
A finite table grows to the longest n asked, a shorter request reading its
prefix, bit for bit the table built to that n.  A table holds operands of
its arithmetic, which the kernels read as they are; only the public
single values, (a;q)_n, (q;q)_{n,alpha} and (x (+)_q y)^n, make a value.

Conventions: 0 < q < 1 throughout, alpha finite and > -1 where alpha
appears, and the empty product is 1.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps
from itertools import count, islice
from threading import Lock
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_man_exp, mpf_abs, mpf_lt, mpf_mul,
                          mpf_shift, mpf_sub, round_nearest, to_fixed)

from .errors import ConvergenceError, DomainError, ExactBackendError
from .scalars import (GUARD_BITS, Numeric, _ten_power, arithmetic, is_exact,
                      qpow, to_mpf, unify)

__all__ = [
    "QParams",
    "Truncation",
    "q_pochhammer",
    "parity_indicator",
    "gen_q_shifted_factorial",
    "hahn_add_power",
]


def _check_q(q) -> None:
    qf = to_mpf(q)
    if not (0 < qf < 1):
        raise DomainError("q out of range (0,1): got %s" % qf)


def _check_degree(n: int, name: str = "degree n") -> None:
    """The one index rule: an int, not a bool, and "<name> must be >= 0: got <n>"."""
    if type(n) is not int:
        raise DomainError("%s must be an int: got %r" % (name, n))
    if n < 0:
        raise DomainError("%s must be >= 0: got %d" % (name, n))


def _check_alpha(alpha) -> None:
    af = to_mpf(alpha)
    if not (-1 < af < mp.inf):
        raise DomainError("alpha out of range (-1, inf): got %s" % af)


@dataclass(frozen=True)
class QParams:
    """Base q in (0,1) and a finite family parameter alpha > -1.

    Either field may be an int/Fraction (exact backend) or an mpf.  The
    derived quantity q^(2*alpha+2) shows up in every generalized factorial;
    it stays exact whenever 2*alpha is an integer, otherwise it is computed
    as an mpf real power.
    """

    q: Numeric
    alpha: Numeric
    # compared and hashed with the values, so no memo serves one backend's
    # value for the other's equal QParams
    _backend: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_q(self.q)
        _check_alpha(self.alpha)
        object.__setattr__(self, "_backend", (type(self.q), type(self.alpha)))


@dataclass(frozen=True)
class Truncation:
    """Budget for infinite sums/products.

    max_terms, an int, is a hard cap; tail_tol is the size at which a tail is
    declared negligible.  An explicit tail_tol, finite and > 0, is stored as
    an mpf; None stays None and means 10^-(mp.dps+10) at the precision of
    the sum that reads it (`effective_tail_tol`), so a Truncation built only
    to change the cap tightens with every sum's own working digits.
    """

    max_terms: int = 100_000
    tail_tol: Optional[Numeric] = None

    def __post_init__(self):
        if type(self.max_terms) is not int:  # a bool is no count
            raise DomainError("max_terms must be an int: got %r"
                              % (self.max_terms,))
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1: got %s" % self.max_terms)
        if self.tail_tol is not None:
            if not (0 < to_mpf(self.tail_tol) < mp.inf):
                raise DomainError(
                    "tail_tol must be finite and > 0: got %s" % self.tail_tol)
            object.__setattr__(self, "tail_tol", to_mpf(self.tail_tol))

    def effective_tail_tol(self) -> mpf:
        """tail_tol, or 10^-(mp.dps+10) at the precision in force now."""
        if self.tail_tol is not None:
            return self.tail_tol
        return _ten_power(-(mp.dps + 10), mp.prec)


_DEFAULT_TRUNCATION = Truncation()  # shared: a Truncation holds no call state

# The open shared-value scope, else None: (memo, call-local), where a
# call-local scope keeps its kept values in its memo.
_SCOPE: ContextVar[Optional[tuple]] = ContextVar("_SCOPE", default=None)
# A (q, alpha) block of DEFAULT_GRID keeps about 220 values: the cap holds
# the three blocks of an identity_sweep seed and more, and a larger one
# costs the orthogonality sweep, a fresh (q, alpha) per call, peak RSS.
_KEPT_CAP = 1024


def _value(f, prec: int, *args):
    """f(*args) at mp.prec = prec: the one entry of both memos, each an
    lru_cache(typed=True), so Fraction(1, 2) and mpf(0.5), equal and hashing
    alike, get separate entries and a raise is kept by neither."""
    return f(*args)


_kept = lru_cache(maxsize=_KEPT_CAP, typed=True)(_value)


@contextmanager
def _scope(local: bool):
    """Open a scope with a fresh memo; see `shared_scope` and `_call_local`."""
    token = _SCOPE.set((lru_cache(maxsize=None, typed=True)(_value), local))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def shared_scope():
    """A block inside which `shared` and `kept` compute each value once;
    the memo of `shared` is gone after the block, raised or not."""
    return _scope(False)


def _call_local(check):
    """check, run in a call-local scope of its own when no scope is open,
    else in the open one."""
    @wraps(check)
    def run(*args, **kwargs):
        if _SCOPE.get() is not None:
            return check(*args, **kwargs)
        with _scope(True):
            return check(*args, **kwargs)
    return run


def shared(f, *args):
    """f(*args) for a value that holds a point, by the module's rule."""
    scope = _SCOPE.get()
    return f(*args) if scope is None else scope[0](f, mp.prec, *args)


def kept(f, *args):
    """f(*args) for a value of (q, alpha) alone, by the module's rule."""
    scope = _SCOPE.get()
    if scope is None:
        return f(*args)
    return (scope[0] if scope[1] else _kept)(f, mp.prec, *args)


class _Rows(list):
    """The rows a stream has yielded, grown under a lock to the longest n
    asked.  A growth that raises, an interrupt too, keeps its whole rows and
    drops the stream, which the next growth restarts past them."""

    def __init__(self, *stream):
        super().__init__()
        self._start, self._rest, self._lock = partial(*stream), None, Lock()

    def upto(self, n: int) -> list:
        if len(self) <= n:
            with self._lock:
                rest, self._rest = self._rest, None  # back once grown
                if rest is None:
                    rest = islice(self._start(), len(self), None)
                self.extend(islice(rest, max(0, n + 1 - len(self))))
                self._rest = rest
        return self

    def each(self):
        """The rows in order, each grown when first read: for a series that
        finds how many rows it needs only as it reads them."""
        for k in count():
            yield self[k] if k < len(self) else self.upto(k)[k]


def _infinite_product(value, q, trunc: Optional[Truncation] = None):
    """(a; q)_infinity: a short product, then Euler's series for the rest.

    The factors 1 - a q^j are multiplied while |a q^j| >= (1 - q)/2.  The
    rest, (z; q)_inf at z = a q^J, is Euler's sum
    sum_k (-1)^k q^C(k,2) z^k / (q;q)_k, each term the last times
    -z q^k / (1 - q^(k+1)), a ratio of at most 1/2: no term cancels, the sum
    is above 1/2 and the rest after a term is at most that term.  The sum
    stops at the first term of at most half of trunc's tail tolerance, read
    at the caller's precision, so what it drops is below tail_tol times the
    sum.  The product runs on raw libmp values GUARD_BITS above mp.prec; the
    series on ints scaled by 2^wp, with wp that precision, or the stop
    limit's, if finer, plus bits for the roundings of its terms.  Their
    product is rounded to mp.prec once, at the end.  max_terms counts the
    factors and the series terms together; a non-finite a raises
    DomainError before the first factor.
    """
    a = to_mpf(value)
    if not mp.isfinite(a):
        raise DomainError("(a;q)_inf needs a finite a: got a=%s" % a)
    tr = trunc or _DEFAULT_TRUNCATION
    tail = tr.effective_tail_tol()
    out, prec, rnd = mp.prec, mp.prec + GUARD_BITS, round_nearest
    limit = mpf_shift(tail._mpf_, -1)
    step = to_mpf(q)._mpf_
    gap = mpf_shift(mpf_sub(fone, step, prec, rnd), -1)  # (1 - q)/2
    a_q = a._mpf_  # a q^j, then z q^k = a q^(J+k)
    prod, budget = fone, tr.max_terms
    while budget and not mpf_lt(mpf_abs(a_q), gap):
        prod = mpf_mul(prod, mpf_sub(fone, a_q, prec, rnd), prec, rnd)
        a_q = mpf_mul(a_q, step, prec, rnd)
        budget -= 1
    # the guarded precision, or the limit's if finer, plus bits for the
    # roundings of the terms: each is at most half the last, so there are
    # fewer than wp of them
    wp = max(prec, -limit[2] - limit[3]) + prec.bit_length()
    one, step, bound = 1 << wp, to_fixed(step, wp), to_fixed(limit, wp)
    a_q = to_fixed(a_q, wp)
    total = term = power = one  # power = q^(k+1) after its update
    for _ in range(budget):
        power = power * step >> wp
        term = -(term * a_q) // (one - power)
        total += term
        a_q = a_q * step >> wp
        if abs(term) <= bound:
            total = from_man_exp(total, -wp)
            return mp.make_mpf(mpf_mul(prod, total, out, rnd))
    raise ConvergenceError(
        "(a;q)_inf did not meet tail_tol=%s within max_terms=%d "
        "(|a q^k|=%s)" % (tail, tr.max_terms,
                          mp.make_mpf(from_man_exp(abs(a_q), -wp))))


def q_pochhammer(a, q, n=None, *, trunc: Optional[Truncation] = None):
    """q-shifted factorial (a; q)_n.

    (a;q)_0 = 1, (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k), and n=None gives
    (a;q)_infinity to within trunc's tail tolerance times its size
    (`_infinite_product`).  `a` may be a tuple, meaning the
    product of the individual shifted factorials (a1, ..., am; q)_n.
    """
    if isinstance(a, tuple):
        out = None
        for ai in a:
            term = q_pochhammer(ai, q, n, trunc=trunc)
            out = term if out is None else out * term
        return out if out is not None else 1

    if n is None:
        _check_q(q)
        if is_exact(a) and is_exact(q):
            raise ExactBackendError(
                "(a;q)_infinity is an infinite product; use mpf operands"
            )
        return kept(_infinite_product, a, q, trunc)

    if not isinstance(n, int):
        raise DomainError("n must be a nonnegative integer or None: got %r" % (n,))
    return _product(1, a, q, n)


def parity_indicator(n: int) -> int:
    """1 for even n, 0 for odd n."""
    _check_degree(n, "n")
    return 1 - (n & 1)


def _products(c, a, q, n: int, lift=1, point=False) -> list:
    """[P_0, ..., P_n] with P_0 = 1 and P_(m+1) = P_m (c - a q^m), a q^m
    times lift for even m, as one running product GUARD_BITS above mp.prec
    (its entries keep those bits), operands of the arithmetic of the
    unified (c, a, q, lift).  Exact operands stay exact, and a factor
    c - a is 0 exactly when c = a.  Inside a shared scope one table per
    operands and precision grows to the longest n asked; it is `kept` unless
    point says that c or a holds a point (Hahn's x, y, omega), then `shared`."""
    return _grown(*unify(c, a, q, lift), n, point)[:n + 1]


def _grown(c, a, q, lift, n: int, point) -> _Rows:
    """The table of `_products` on unified operands, grown through P_n."""
    _check_degree(n, "n")
    return (shared if point else kept)(_product_table, c, a, q, lift).upto(n)


def _product(c, a, q, n: int, lift=1, point=False):
    """P_n of `_products`, as a value, read in its table, not copied."""
    c, a, q, lift = unify(c, a, q, lift)
    return arithmetic(q).value(_grown(c, a, q, lift, n, point)[n])


def _product_table(c, a, q, lift) -> _Rows:
    """The rows P_0, P_1, ... of `_products`, on unified operands."""
    return _Rows(_product_rows, c, a, q, lift, mp.prec + GUARD_BITS)


def _product_rows(c, power, q, lift, prec: int):
    """P_0, P_1, ... of `_products` in the arithmetic of q, at prec bits."""
    ar = arithmetic(q)
    mul, sub, rnd = ar.mul, ar.sub, round_nearest
    c, power, q, lift = map(ar.raw, (c, power, q, lift))  # power = a q^m
    out = ar.one
    for m in count():
        yield out
        factor = power if m & 1 else mul(power, lift, prec, rnd)
        out = mul(out, sub(c, factor, prec, rnd), prec, rnd)
        power = mul(power, q, prec, rnd)


def _odd_lift(q, alpha):
    """q^(2 alpha + 1), GUARD_BITS above mp.prec."""
    with mp.workprec(mp.prec + GUARD_BITS):
        return qpow(q, 2 * alpha + 1)


def _gen_q_shifted_prefix(n: int, q, alpha) -> list:
    """[(q;q)_{0,alpha}, ..., (q;q)_{n,alpha}]: the running product of the
    recursion below, as operands of the arithmetic of unified (q, alpha)."""
    if not n:  # (q;q)_{0,alpha} = 1 needs no power, exact or not
        return [arithmetic(q).one]
    return _products(1, q, q, n, kept(_odd_lift, q, alpha))


def _gen_q_shifted(n: int, q, alpha):
    """(q;q)_{n,alpha} of the unified (q, alpha), as a value."""
    return arithmetic(q).value(_gen_q_shifted_prefix(n, q, alpha)[-1])


def gen_q_shifted_factorial(n: int, params: QParams):
    """Generalized q-shifted factorial (q; q)_{n, alpha}:

        (q;q)_{0,alpha} = 1
        (q;q)_{m+1,alpha} = (1 - q^(m+1+theta_m*(2*alpha+1))) * (q;q)_{m,alpha}

    At alpha = -1/2 it collapses to the plain (q;q)_n.
    """
    # here, not only in _products: at exact q with 2 alpha not an integer,
    # the prefix takes q^(2 alpha + 1), which the exact backend rejects
    _check_degree(n, "n")
    return _gen_q_shifted(n, *unify(params.q, params.alpha))


def hahn_add_power(x, y, q, n: int):
    """Hahn q-addition power (x (+)_q y)^n = prod_{j=0}^{n-1} (x + q^j y).

    The product keeps structural zeros (a vanishing factor) exact.
    """
    _check_q(q)
    return _product(x, -y, q, n, point=True)
