"""Basic hypergeometric series and the q-special functions built on them.

The r-phi-s engine sums

    phi(a1..ar; b1..bs; q, z)
      = sum_k [(-1)^k q^C(k,2)]^(1+s-r) * prod (ai;q)_k / prod (bj;q)_k
              * z^k / (q;q)_k

with a term-ratio recurrence, in one loop, `_phi_loop`.  It terminates at
PhiSpec.terminate_at, else at the least m of an upper parameter exactly
q^(-m) (bit for bit on mpf); a lower parameter exactly q^(-m) inside that
range is a pole.  alpha is finite and > -1 (QParams).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import fone, fzero, mpf_mul, mpf_sub, round_nearest

from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    PoleError,
)
from .qcore import (_DEFAULT_TRUNCATION, QParams, Truncation, _alpha_power,
                    _check_degree, _check_q, _infinite_product, _Rows, kept,
                    q_pochhammer, shared)
from .scalars import (EXACT, GUARD_BITS, RAW, Numeric, arithmetic, finite_raw,
                      fixed, fixed_sum, is_exact, qpow, to_mpf, unify)

__all__ = [
    "PhiSpec",
    "SeriesValue",
    "phi_rs",
    "phi",
    "euler_e",
    "gen_E",
    "q_bessel2",
    "q_cos_alpha",
    "q_sin_alpha",
]


@dataclass(frozen=True)
class SeriesValue:
    """A summed series: value, number of terms, and a bound on what was cut."""

    value: Numeric
    terms_used: int
    tail_estimate: Numeric


@dataclass(frozen=True)
class PhiSpec:
    """Parameters of an r-phi-s basic hypergeometric series.

    terminate_at, when given, asserts that the summand vanishes for
    k > terminate_at (callers that build q^(-n) upper parameters know this
    index exactly and should pass it; else only an upper parameter equal to
    qpow(q, -m) at the working precision terminates the series).
    """

    upper: tuple
    lower: tuple
    q: Numeric
    z: Numeric
    terminate_at: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        _check_q(self.q)
        if self.terminate_at is not None:
            _check_degree(self.terminate_at, "terminate_at")


def _neg_q_power_index(a, q) -> Optional[int]:
    """m >= 0 if a == qpow(q, -m) at the working precision (bit for bit on
    mpf, exactly on the exact backend), with m the nearest integer to
    log(a) / -log(q), from one rounded log, for 1 <= a < inf."""
    af = to_mpf(a)
    if not 1 <= af < mp.inf:
        return None
    m = int(mp.nint(mp.log(af) / -mp.log(to_mpf(q))))
    return m if a == qpow(q, -m) else None


def phi_rs(spec: PhiSpec, trunc: Optional[Truncation] = None) -> SeriesValue:
    """Sum a basic hypergeometric series.

    A non-finite z or parameter raises DomainError (`scalars.finite_raw`).
    Terminating series are summed through their last nonzero term, exactly
    on the exact backend, else on raw libmp values GUARD_BITS above
    mp.prec, whatever trunc says: a finite sum has no tail to cut.
    Non-terminating series require r <= s+1 (r = s+1 additionally needs
    |z| < 1), run on ints scaled by 2^wp (`scalars.fixed`, wp from
    `scalars.fixed_sum` at the tail tolerance and max_terms, which reruns a
    sum that cancelled) and stop when the absolute term drops below
    tail_tol with a geometric tail bound recorded, rounded up by one unit
    of 2^-wp so that it is never 0.  Each is rounded to mp.prec once.
    """
    r, s = len(spec.upper), len(spec.lower)
    vals = unify(spec.q, spec.z, *spec.upper, *spec.lower)
    q, z = vals[0], vals[1]
    upper = vals[2 : 2 + r]
    lower = vals[2 + r :]
    for v in vals[1:] if not is_exact(q) else ():
        finite_raw(v)

    n_term = spec.terminate_at
    if n_term is None:
        hits = (_neg_q_power_index(a, q) for a in upper)
        n_term = min((m for m in hits if m is not None), default=None)

    # a lower parameter q^(-m) kills the denominator at k = m+1
    for b in lower:
        mb = _neg_q_power_index(b, q)
        if mb is not None and (n_term is None or mb < n_term):
            raise PoleError(
                "lower parameter %s = q^-%d vanishes inside the summation range"
                % (b, mb)
            )

    if n_term is not None:
        total, _, used, _ = _phi_loop(q, z, upper, lower, False, n_term)
        return SeriesValue(arithmetic(q).value(total), used, q - q)
    if is_exact(q):
        # exact backend only makes sense for terminating sums
        raise DivergenceError(
            "non-terminating series on the exact backend; "
            "pass terminate_at or use mpf operands"
        )
    if r > s + 1:
        raise DivergenceError(
            "r=%d > s+1=%d diverges for z != 0 unless terminating" % (r, s + 1)
        )
    if r == s + 1 and not abs(z) < 1:
        raise DivergenceError(
            "r = s+1 requires |z| < 1 for convergence: got |z|=%s" % abs(z)
        )
    tr = trunc or _DEFAULT_TRUNCATION
    (total, _, used, tail), wp = fixed_sum(
        lambda wp: _phi_loop(q, z, upper, lower, False, wp=wp, tr=tr),
        tr.effective_tail_tol(), tr.max_terms)
    ar = fixed(wp)
    return SeriesValue(ar.value(total), used, ar.value(tail + 1))


def _phi_loop(q, z, upper, lower, point: bool, n_term=None, wp=None,
              tr=None) -> tuple:
    """phi_rs's one loop, over the arithmetic of q, or over fixed(wp) when
    wp is given, a compensated sum on RAW alone, where an addition rounds:
    (total, largest |term|, terms used, tail bound) as operands of that
    arithmetic, through term n_term, else, on fixed(wp) alone, until the
    tail meets tr's tail tolerance within tr's max_terms: a terminating sum
    reads no Truncation.  Each term ratio is z times one coefficient of
    the table of `_phi_factor_rows`, `shared` if point says a parameter
    holds a point."""
    ar = arithmetic(q) if wp is None else fixed(wp)
    add, sub, mul, div = ar.add, ar.sub, ar.mul, ar.div
    one, zero = ar.one, ar.zero
    prec, rnd, compensate = mp.prec, round_nearest, ar is RAW
    wide = prec + GUARD_BITS
    # a terminating sum, exact or not, has no tail to compare
    z, limit = ar.raw(z), n_term is None and ar.raw(tr.effective_tail_tol())
    table = (shared if point else kept)(_Rows, _phi_factor_rows, q, upper,
                                        lower, prec, wp)
    # a terminating sum's rows in one growth
    rows = table.each() if n_term is None else iter(table.upto(n_term - 1))
    total = term = peak = one  # term_0 = 1
    comp, k = zero, 0
    while True:
        if n_term is not None and k >= n_term:
            return add(total, zero, prec, rnd), peak, k + 1, zero
        if n_term is None and k + 1 >= tr.max_terms:
            raise ConvergenceError(
                "phi series needed more than max_terms=%d terms (last |term|=%s)"
                % (tr.max_terms, abs(to_mpf(ar.value(term))))
            )
        ratio = mul(z, next(rows), wide, rnd)
        term = mul(term, ratio, wide, rnd)
        if compensate:
            low = sub(term, comp, wide, rnd)
            high = add(total, low, wide, rnd)
            comp = sub(sub(high, total, wide, rnd), low, wide, rnd)
            total = high
        else:
            total = add(total, term, wide, rnd)
        k += 1
        if n_term is None:
            size = abs(term)
            peak = max(peak, size)
            if size < limit:
                rho = abs(ratio)
                if rho < one:
                    tail = div(mul(size, rho, prec, rnd),
                               sub(one, rho, prec, rnd), prec, rnd)
                    if tail < limit:
                        return total, peak, k + 1, tail


def _phi_factor_rows(q, upper, lower, prec: int, wp):
    """The coefficients of phi_rs's term ratios, z aside, one per k = 0, 1,
    ...: prod (1 - a q^k) * bracket / ((1 - q^(k+1)) prod (1 - b q^k)),
    over a in upper and b in lower, bracket = (-1)^e q^(k e) with e =
    1+s-r (none at e = 0), in the arithmetic of q GUARD_BITS above prec,
    or in fixed(wp) when wp is given, q^k a running product: as many
    operations as the ratio they fold.  A lower factor is a pole where
    1 - b q^k rounds to 0 at prec with q^k that product at prec on raw
    values, or is 0, and its row raises PoleError."""
    ar = arithmetic(q) if wp is None else fixed(wp)
    mul, sub, rnd, one = ar.mul, ar.sub, round_nearest, ar.one
    wide, power_exponent = prec + GUARD_BITS, 1 + len(lower) - len(upper)
    exact, near = ar is EXACT, fone  # near: q^k at prec on raw values
    step, q, qk = None if exact else q._mpf_, ar.raw(q), one  # qk = q^k
    ups, lows = [ar.raw(a) for a in upper], [ar.raw(b) for b in lower]
    for k in count():
        num = None
        if power_exponent:
            num = ar.pow_int(qk, power_exponent, wide, rnd)
            if power_exponent & 1:
                num = ar.neg(num, wide, rnd)
        for a in ups:
            factor = sub(one, mul(a, qk, wide, rnd), wide, rnd)
            num = factor if num is None else mul(num, factor, wide, rnd)
        den = sub(one, mul(q, qk, wide, rnd), wide, rnd)
        for i, b in enumerate(lows):
            factor = sub(one, mul(b, qk, wide, rnd), wide, rnd)
            # a pole: a pair (num, den) of EXACT at num = 0, whatever den;
            # else a factor of 0, or 1 - b q^k that rounds to 0 at prec
            if (not factor[0] if exact else factor == ar.zero or mpf_sub(
                    fone, mpf_mul(lower[i]._mpf_, near, prec, rnd), prec,
                    rnd) == fzero):
                raise PoleError("lower parameter %s hits a pole at k=%d"
                                % (lower[i], k + 1))
            den = mul(den, factor, wide, rnd)
        yield ar.div(one if num is None else num, den, wide, rnd)
        qk = mul(qk, q, wide, rnd)
        if not exact:
            near = mpf_mul(near, step, prec, rnd)


def phi(upper, lower, q, z, terminate_at=None, trunc=None):
    """Convenience wrapper: the value of phi_rs."""
    return phi_rs(
        PhiSpec(tuple(upper), tuple(lower), q, z, terminate_at=terminate_at),
        trunc=trunc,
    ).value


def euler_e(x, q, trunc: Optional[Truncation] = None):
    """Small q-exponential e_q(x) = sum x^k / (q;q)_k = 1/(x;q)_inf, |x| < 1,
    taken as the reciprocal of the product, which is not kept: x is a point."""
    x, q = to_mpf(x), to_mpf(q)
    if not abs(x) < 1:
        raise DomainError("e_q requires |x| < 1: got |x|=%s" % abs(x))
    _check_q(q)
    return 1 / _infinite_product(x, q, trunc)


def _alpha_powers(q, alpha) -> tuple:
    """The real powers of mpf (q, alpha) that the parity halves and the Bessel
    forms read, at the working precision: q^(2a+2), q^(2a+4), q^(-a-1/2)
    (`_alpha_power`) and q^((a+h)(a+1/2)) for h = 0, 1."""
    half = mpf("0.5")
    b, b_q2 = (+_alpha_power(q, alpha, 2, shift) for shift in (2, 4))
    return (b, b_q2, mp.sqrt(_alpha_power(q, alpha, -2, -1)),
            tuple(qpow(q, (alpha + h) * (alpha + half)) for h in (0, 1)))


def _parity_half(half: int, sign: int, x, params: QParams, trunc):
    """The even (half 0) or odd (half 1) terms of sum_k sign^(k//2)
    q^C(k,2) x^k / (q;q)_{k,alpha}, sign = +-1, with b = q^(2a+2):
      half 0: 0-phi-1(-; b; q^2, sign q x^2)
      half 1: x/(1-b) * 0-phi-1(-; b q^2; q^2, sign q^3 x^2),
    on the float backend: the series are infinite."""
    x, q, alpha = map(to_mpf, (x, params.q, params.alpha))
    b, b_q2 = kept(_alpha_powers, q, alpha)[:2]
    if not half:
        return phi((), (b,), q * q, sign * q * x * x, trunc=trunc)
    return x / (1 - b) * phi((), (b_q2,), q * q, sign * q ** 3 * x * x,
                             trunc=trunc)


def gen_E(x, params: QParams, trunc: Optional[Truncation] = None):
    """Generalized big q-exponential sum_k q^C(k,2) x^k / (q;q)_{k,alpha},
    its two halves at sign +1; at alpha=-1/2 it is E_q(x) = (-x; q)_inf."""
    return (_parity_half(0, 1, x, params, trunc)
            + _parity_half(1, 1, x, params, trunc))


def q_bessel2(nu, z, q, trunc: Optional[Truncation] = None):
    """Jackson's second q-Bessel function J_nu^(2)(z; q).

    (q^(nu+1);q)_inf / (q;q)_inf * (z/2)^nu
        * 0-phi-1(-; q^(nu+1); q, -q^(nu+1) z^2 / 4)

    Float backend (the prefactor is an infinite product).  z must be > 0
    unless nu is a nonnegative integer; z = 0 returns the limit value.
    """
    nu, z, q = map(to_mpf, (nu, z, q))
    _check_q(q)
    nu_int = mp.isint(nu)
    if z < 0 and not nu_int:
        raise DomainError(
            "q_bessel2 needs z >= 0 for non-integer nu (real power branch): got z=%s" % z
        )
    a = qpow(q, nu + 1)
    if z == 0:
        if nu == 0:
            front = mpf(1)
        elif nu > 0:
            return mpf(0)
        else:
            raise DomainError("q_bessel2 at z=0 needs nu >= 0: got nu=%s" % nu)
    else:
        front = qpow(z / 2, nu)
    series = phi((), (a,), q, -a * z * z / 4, trunc=trunc)
    pref = q_pochhammer(a, q, None, trunc=trunc) / q_pochhammer(q, q, None, trunc=trunc)
    return pref * front * series


def q_cos_alpha(x, params: QParams, trunc: Optional[Truncation] = None):
    """Generalized q-cosine sum_n (-1)^n q^(n(2n-1)) x^(2n) / (q;q)_{2n,alpha},
    the even half of gen_E's series with sign -1 (_parity_half)."""
    return _parity_half(0, -1, x, params, trunc)


def q_sin_alpha(x, params: QParams, trunc: Optional[Truncation] = None):
    """Generalized q-sine sum_n (-1)^n q^(n(2n+1)) x^(2n+1) / (q;q)_{2n+1,alpha},
    the odd half of gen_E's series with sign -1 (_parity_half)."""
    return _parity_half(1, -1, x, params, trunc)
