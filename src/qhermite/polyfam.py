"""Polynomial families: q-Laguerre, Stieltjes-Wigert, the two-variable
generalized discrete q-Hermite II family and its relatives.

The central object is gdqh2(n, x, y, params): degree n in x, with y the
second (scaling) variable and params = (q, alpha), 0 < q < 1 and alpha
finite and > -1.  Three representations are provided and must agree
wherever they are all defined:

  definition_sum   the defining double-indexed sum (total; the fallback)
  phi_form         prefactor * x^n * 2-phi-1(...; q^2, -y q^(2a+3)/x^2)
  laguerre_form    prefactor * (-y)^m * q-Laguerre at x^2 y^-1 q^(-2a-1)

The recurrence

  (1 - q^(n+1+theta_n(2a+1))) / (1 - q^(n+1)) * h_{n+1}
      = x h_n - y q^(-2n+1) (1 - q^n) h_{n-1}

runs in one kernel, `_recurrence`, on coefficients of (q, alpha) alone.

Each form reads its factors of (n, q, alpha) alone from one row that
qcore.kept serves (_gdqh2_terms, _phi_row, _laguerre_row, _q_laguerre_row),
computed by the form's own expressions in their order, so a kept row gives
the bits of a fresh one; what holds the point each call computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, count, islice, repeat
from typing import Iterator

from mpmath import mp, mpf
from mpmath.libmp import round_nearest

from .errors import DomainError, RepresentationDomainError
from .qcore import (
    QParams,
    _Rows,
    _alpha_power,
    _check_degree,
    _check_q,
    _gen_q_shifted,
    _gen_q_shifted_prefix,
    _odd_lift,
    _products,
    kept,
    q_pochhammer,
)
from .qseries import _phi_loop, phi
from .scalars import (EXACT, GUARD_BITS, Numeric, arithmetic, qpow, to_mpf,
                      unify)

__all__ = [
    "q_laguerre",
    "stieltjes_wigert",
    "gdqh2",
    "RecurrenceState",
    "gdqh2_recurrence_step",
    "gdqh2_recurrence_values",
    "gdqh2_recurrence_ladder",
    "discrete_q_hermite2",
    "mu_hermite",
    "rosenblum_hermite",
]


def _q_laguerre_row(n: int, qa1, q) -> tuple:
    """q_laguerre's factors of (n, q^(alpha+1), q) alone: q^-n, q^(alpha+1),
    -q^n q^(alpha+1) and (q^(alpha+1);q)_n / (q;q)_n, the caller's
    q^(alpha+1) a power of its own (q, alpha) (`_alpha_power`)."""
    with mp.workprec(mp.prec + GUARD_BITS):
        down, step = qpow(q, -n), -qpow(q, n) * qa1
    return down, qa1, step, q_pochhammer(qa1, q, n) / q_pochhammer(q, q, n)


def q_laguerre(n: int, alpha, x, q, rep: str = "phi11"):
    """q-Laguerre polynomial L_n^(alpha)(x; q).

    phi11:  (q^(a+1);q)_n / (q;q)_n * 1-phi-1(q^-n; q^(a+1); q, -q^(n+a+1) x)
    phi21:  1/(q;q)_n * 2-phi-1(q^-n, -x; 0; q, q^(n+a+1))

    Note the phi21 argument is q^(n+a+1) alone; x enters only through the
    upper parameter -x.
    """
    _check_degree(n)
    if rep not in ("phi11", "phi21"):
        raise DomainError("rep must be 'phi11' or 'phi21': got %r" % rep)
    alpha, x, q = unify(alpha, x, q)
    _check_q(q)
    down, qa1, step, front = kept(_q_laguerre_row, n,
                                  _alpha_power(q, alpha, 1, 1), q)
    if rep == "phi11":
        return front * phi((down,), (qa1,), q, step * x, terminate_at=n)
    # phi's sum, whose one lower parameter, 0, is no pole, with a factor
    # table `shared`, as -x holds the point; q^n q^(alpha+1) = -step exactly:
    # rounding is symmetric in sign
    total = _phi_loop(q, -step, (down, -x), (x - x,), True, n)[0]
    return arithmetic(q).value(total) / q_pochhammer(q, q, n)


def stieltjes_wigert(n: int, x, q):
    """Stieltjes-Wigert polynomial
    S_n(x; q) = 1/(q;q)_n * 1-phi-1(q^-n; 0; q, -q^(n+1) x)."""
    _check_degree(n)
    x, q = unify(x, q)
    _check_q(q)
    series = phi((qpow(q, -n),), (x - x,), q, -qpow(q, n + 1) * x,
                 terminate_at=n)
    return series / q_pochhammer(q, q, n)


def _q_power(q, e: int):
    """q^e with the guard bits: q^2 is the base of (q^2;q^2)_k, of Hahn's
    powers in base q^2 and of the forms' sums."""
    ar = arithmetic(q)
    return ar.value(ar.pow_int(ar.raw(q), e, mp.prec + GUARD_BITS,
                               round_nearest))


def _gdqh2_terms(n: int, q, alpha) -> tuple:
    """The row ((k, sign, den, c) for k = 0..n//2), where the definition
    sum's k-th term is sign * x^(n-2k) y^k / den = c * x^(n-2k) y^k: sign =
    (-1)^k q^(-2nk+k(2k+1)), den = (q;q)_{n-2k,alpha} (q^2;q^2)_k and c =
    sign / den, operands of q's arithmetic.  The sums multiply by c alone;
    the orthogonality sweep reads sign and den."""
    ar = arithmetic(q)
    mul, rnd, prec, guard = ar.mul, round_nearest, mp.prec, mp.prec + GUARD_BITS
    # (q;q)_{m,alpha} for m = 0..n and (q^2;q^2)_k for k = 0..n//2
    q2 = _q_power(q, 2)
    gen_fact = _gen_q_shifted_prefix(n, q, alpha)
    poch_q2 = _products(1, q2, q2, n // 2)
    # the sign runs by its ratio -q^(-2n+4k+3) = (-q)^(-2n+4k+3), itself a
    # running product from (-q)^(3-2n) by (-q)^4, each with the guard bits
    minus_q = ar.neg(ar.raw(q), prec, rnd)
    power, step = (ar.pow_int(minus_q, e, guard, rnd) for e in (3 - 2 * n, 4))
    sign, row = ar.one, []
    for k in range(n // 2 + 1):
        den = mul(gen_fact[n - 2 * k], poch_q2[k], prec, rnd)
        row.append((k, sign, den, ar.div(sign, den, guard, rnd)))
        sign, power = mul(sign, power, guard, rnd), mul(power, step, guard, rnd)
    return tuple(row)


def _term_sum(n: int, q, alpha, first, second):
    """sum_k c_k first_k second_k, k = 0..n//2, over the coefficients c_k of
    `_gdqh2_terms` and operands of q's arithmetic, each product and the sum
    GUARD_BITS above mp.prec, as a value: the one loop of the definition
    sum and of the descending expansion (identities._descending_sum)."""
    ar, rnd, prec = arithmetic(q), round_nearest, mp.prec + GUARD_BITS
    total, terms = ar.zero, kept(_gdqh2_terms, n, q, alpha)
    for (_, _, _, c), a, b in zip(terms, first, second):
        term = ar.mul(ar.mul(c, a, prec, rnd), b, prec, rnd)
        total = ar.add(total, term, prec, rnd)
    return ar.value(total)


def _gdqh2_definition(n: int, x, y, q, alpha):
    """(q;q)_n times the sum of the terms c * x^(n-2k) * y^k of
    `_gdqh2_terms` (`_term_sum`), rounded once by the product with
    (q;q)_n.  The powers are running products GUARD_BITS above mp.prec,
    x^(n-2k) = x^(n mod 2) (x^2)^(n//2-k), and y^k."""
    ar, m = arithmetic(q), n // 2
    times = partial(ar.mul, prec=mp.prec + GUARD_BITS, rnd=round_nearest)
    x, y = ar.raw(x), ar.raw(y)
    xs = accumulate(repeat(times(x, x), m), times,
                    initial=x if n & 1 else ar.one)
    ys = accumulate(repeat(y, m), times, initial=ar.one)
    total = _term_sum(n, q, alpha, reversed([*xs]), ys)
    return kept(q_pochhammer, q, q, n) * total


def _phi_row(n: int, q, alpha) -> tuple:
    """The phi form's factors of (n, q, alpha) alone: its upper parameters,
    q^2, q^(2 alpha + 3) and (q;q)_n / (q;q)_{n,alpha}."""
    m = n // 2
    upper = (_q_power(q, -2 * m), _alpha_power(q, alpha, -2, -2 * (m + n % 2)))
    return (upper, _q_power(q, 2), _alpha_power(q, alpha, 2, 3),
            q_pochhammer(q, q, n) / _gen_q_shifted(n, q, alpha))


def _gdqh2_phi(n: int, x, y, q, alpha):
    if to_mpf(x) == 0:
        # the 2-phi-1 form divides by x^2; the definition is total
        return _gdqh2_definition(n, x, y, q, alpha)
    upper, q2, scale, ratio = kept(_phi_row, n, q, alpha)
    with mp.workprec(mp.prec + GUARD_BITS):
        z = -y * scale / (x * x)
    # phi's sum, whose one lower parameter, 0, is no pole
    total = _phi_loop(q2, z, upper, (x - x,), False, n // 2)[0]
    return ratio * qpow(x, n) * arithmetic(q).value(total)


def _laguerre_row(n: int, q, alpha) -> tuple:
    """The Laguerre form's factors of (n, q, alpha) alone: q^2,
    q^(-2 alpha - 1), its prefactor and (q^2)^(order + 1) of its q-Laguerre
    order alpha + n % 2, the q-Laguerre row's operand."""
    m, odd, q2 = n // 2, n % 2, _q_power(q, 2)
    pref = (  # at the working precision, q^(2 alpha + 2) too
        qpow(q, -m * (2 * m - 1 + 2 * odd))
        * q_pochhammer(q, q, 2 * m + odd)
        / q_pochhammer(+_alpha_power(q, alpha, 2, 2), q2, m + odd)
    )
    return (q2, _alpha_power(q, alpha, -2, -1), pref,
            _alpha_power(q, alpha, 2, 2 + 2 * odd))


def _gdqh2_laguerre(n: int, x, y, q, alpha):
    if to_mpf(y) == 0:
        return _gdqh2_definition(n, x, y, q, alpha)
    if to_mpf(y) < 0:
        raise RepresentationDomainError(
            "laguerre_form needs y > 0 (real-power argument); "
            "use definition_sum for y < 0"
        )
    q2, scale, pref, qa1 = kept(_laguerre_row, n, q, alpha)
    # q_laguerre's phi11 sum, whose lower parameter (q^2)^(order+1) < 1 is no pole
    down, qa1, step, front = kept(_q_laguerre_row, n // 2, qa1, q2)
    with mp.workprec(mp.prec + GUARD_BITS):
        z = step * (x * x / y * scale)
    total = _phi_loop(q2, z, (down,), (qa1,), False,
                      n // 2)[0]
    laguerre = front * arithmetic(q).value(total)
    if n % 2:
        pref = pref * x
    return pref * qpow(-y, n // 2) * laguerre


def gdqh2(n: int, x, y, params: QParams, rep: str = "definition_sum"):
    """Two-variable generalized discrete q-Hermite II polynomial of degree n.

    rep selects the representation: 'definition_sum' (total), 'phi_form'
    (routes to the definition at x = 0), or 'laguerre_form' (y > 0; routes
    to the definition at y = 0).  All inputs may be exact rationals as long
    as 2*alpha is an integer; the result is then exact, in every form (the
    Laguerre form's (q^2)^(alpha+1) is q^(2 alpha + 2), which `qpow` takes
    exactly), and an exact (q, alpha) at a float x or y computes as floats.
    """
    _check_degree(n)
    x, y, q, alpha = unify(x, y, params.q, params.alpha)
    if rep == "definition_sum":
        return _gdqh2_definition(n, x, y, q, alpha)
    if rep == "phi_form":
        return _gdqh2_phi(n, x, y, q, alpha)
    if rep == "laguerre_form":
        return _gdqh2_laguerre(n, x, y, q, alpha)
    raise DomainError(
        "rep must be 'definition_sum', 'phi_form' or 'laguerre_form': got %r" % rep
    )


@dataclass(frozen=True)
class RecurrenceState:
    """Ladder state: degree n together with values at n and n-1."""

    n: int
    current: Numeric
    previous: Numeric


def _recurrence_rows(q, lift, prec: int) -> Iterator:
    """The step's coefficients of (q, alpha) alone, one row per n = 0, 1,
    ...: (1 / lead_n, beta_n), as operands of q's arithmetic GUARD_BITS
    above prec, with lead_n = (1 - q^(n+1+theta_n(2a+1))) / (1 - q^(n+1)) and beta_n =
    q^(1-2n) (1 - q^n), q^n and q^(1-2n) running products by q and by
    q^-2 and lift = q^(2 alpha + 1).  At odd n, theta_n = 0 and 1 / lead_n is the
    arithmetic's one, the quotient (1 - q^(n+1)) / (1 - q^(n+1)) without
    the division."""
    ar = arithmetic(q)
    mul, sub, rnd = ar.mul, ar.sub, round_nearest
    guard, q, lift = prec + GUARD_BITS, ar.raw(q), ar.raw(lift)
    q_n = one = ar.one
    power, step = q, ar.pow_int(q, -2, guard, rnd)  # q^(1-2n), q^-2
    for n in count():
        q_n1 = mul(q_n, q, guard, rnd)
        inverse = one if n & 1 else ar.div(
            sub(one, q_n1, guard, rnd),
            sub(one, mul(q_n1, lift, guard, rnd), guard, rnd), guard, rnd)
        yield inverse, mul(power, sub(one, q_n, guard, rnd), guard, rnd)
        q_n, power = q_n1, mul(power, step, guard, rnd)


def _recurrence(x, y, q, alpha, n: int = 0, current=None,
                previous=None) -> Iterator:
    """h_n, h_(n+1), ... at one point, from h_n = current and h_(n-1) =
    previous (h_0 = 1 by default), as operands of q's arithmetic: the one
    recurrence kernel, h_(n+1) = (x h_n - (y beta_n) h_(n-1)) / lead_n, on
    the kept `_recurrence_rows` of the precision in force when each value
    is pulled, rounded at that precision: three products a step, and a
    fourth, by 1 / lead_n, at even n only.  A caller may send back the
    value it pulled as the operand to carry on: on EXACT, the pair of its
    `Fraction`, in lowest terms, so the pairs grow as the values do, not by
    the factors each step leaves."""
    ar = arithmetic(q)
    mul, sub, rnd = ar.mul, ar.sub, round_nearest
    x, y = ar.raw(x), ar.raw(y)
    if current is None:
        current, previous = ar.one, ar.zero
    else:
        current, previous = ar.raw(current), ar.raw(previous)
    prec = None
    while True:
        sent = yield current
        if sent is not None:
            current = sent
        if mp.prec != prec:
            prec, table = mp.prec, kept(_Rows, _recurrence_rows, q,
                                        kept(_odd_lift, q, alpha), mp.prec)
        inverse, beta = table.upto(n)[n]
        nxt = mul(x, current, prec, rnd)
        if n:
            nxt = sub(nxt, mul(mul(y, beta, prec, rnd), previous, prec, rnd),
                      prec, rnd)
        previous, current = current, (nxt if n & 1
                                      else mul(nxt, inverse, prec, rnd))
        n += 1


def gdqh2_recurrence_step(state: RecurrenceState, x, y, params: QParams) -> RecurrenceState:
    """One step of the three-term recurrence, n -> n+1: the kernel started
    at the state's (n, current, previous), with x, y, params and the
    state's values on one backend (`unify`)."""
    x, y, q, alpha, current, previous = unify(
        x, y, params.q, params.alpha, state.current, state.previous)
    values = _recurrence(x, y, q, alpha, state.n, current, previous)
    next(values)
    return RecurrenceState(state.n + 1, arithmetic(q).value(next(values)),
                           state.current)


def gdqh2_recurrence_values(x, y, params: QParams) -> Iterator:
    """h_0, h_1, ... at one point, one recurrence step per value pulled.

    The values are computed at the precision in force when each is pulled,
    with that precision's coefficient table, so read the stream inside the
    caller's working-precision block."""
    x, y, q, alpha = unify(x, y, params.q, params.alpha)
    ar, kernel = arithmetic(q), _recurrence(x, y, q, alpha)
    return map(ar.value, kernel) if ar is not EXACT else _reduced(kernel)


def _reduced(kernel) -> Iterator:
    """The values of an exact kernel, each sent back to it as the pair it
    carries on: the one gcd a step, which each `Fraction` takes anyway,
    keeps that pair in lowest terms."""
    value = EXACT.value(next(kernel))
    while True:
        yield value
        value = EXACT.value(kernel.send(EXACT.raw(value)))


def gdqh2_recurrence_ladder(n: int, x, y, params: QParams) -> list:
    """Values for all degrees 0..n at one point, via the recurrence."""
    _check_degree(n)
    return list(islice(gdqh2_recurrence_values(x, y, params), n + 1))


def discrete_q_hermite2(n: int, x, q):
    """Discrete q-Hermite II polynomial: the alpha = -1/2, y = 1 member."""
    x, one, q, alpha = unify(x, 1, q, Fraction(-1, 2))
    return gdqh2(n, x, one, QParams(q, alpha))


def mu_hermite(n: int, mu, x, q):
    """mu-deformed q-Hermite polynomial H_n^(mu)(x; q), mu > -1/2.

    H_{2m}^(mu)(x;q)   = (-1)^m (q;q)_m L_m^(mu-1/2)(x^2; q)
    H_{2m+1}^(mu)(x;q) = (-1)^m (q;q)_m x L_m^(mu+1/2)(x^2; q)
    """
    _check_degree(n)
    mu, x, q, half = unify(mu, x, q, Fraction(1, 2))
    if not (to_mpf(mu) > -0.5):
        raise DomainError("mu must be > -1/2: got %s" % to_mpf(mu))
    m = n // 2
    sign_poch = (-1) ** m * q_pochhammer(q, q, m)
    if n % 2 == 0:
        return sign_poch * q_laguerre(m, mu - half, x * x, q)
    return sign_poch * x * q_laguerre(m, mu + half, x * x, q)


def _laguerre_classical(n: int, a, z):
    """Classical Laguerre polynomial L_n^(a)(z) =
    sum_k (-1)^k binom(n+a, n-k) z^k / k!."""
    a, z = to_mpf(a), to_mpf(z)
    total = mpf(0)
    for k in range(n + 1):
        total += (-1) ** k * mp.binomial(n + a, n - k) * z ** k / mp.factorial(k)
    return total


def rosenblum_hermite(n: int, mu, x):
    """Generalized (mu-deformed) Hermite polynomial, classical limit family.

    h_{2m}^mu(x)   = (-1)^m 2^(2m)   m! L_m^(mu-1/2)(x^2)
    h_{2m+1}^mu(x) = (-1)^m 2^(2m+1) m! x L_m^(mu+1/2)(x^2)

    Normalized so that mu = 0 gives the physicists' Hermite polynomials H_n.
    """
    _check_degree(n)
    mu, x = to_mpf(mu), to_mpf(x)
    if not (mu >= 0):
        raise DomainError("mu must be >= 0: got %s" % mu)
    m = n // 2
    front = (-1) ** m * mpf(2) ** (2 * m) * mp.factorial(m)
    if n % 2 == 0:
        return front * _laguerre_classical(m, mu - mpf(0.5), x * x)
    return 2 * front * x * _laguerre_classical(m, mu + mpf(0.5), x * x)

