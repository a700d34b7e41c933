"""Numerical verification of the orthogonality relation for the one-variable
family h_n(x; q) = gdqh2(n, x, 1), by a bilateral Jackson q-sum over the
lattice {±q^k} checked against the closed-form constants.

The pair of points ±q^k carries the measure (1-q) q^k |x|^(2a+1) w_a(x),
with w_a(x) = 1/(-c x^2; q^2)_inf and c = q^(-2a-1).  So the pair (n, m)
adds m_k E(q^k) at k, where m_k = q^(k(2a+2)) w_a(q^k) and
E(x) = h_n h_m(x) + h_n h_m(-x): 0 for odd n + m, and for even n + m
2 h_n h_m(x) = sum_l e_l x^(2l), whose sum is sum_l e_l M_l over the
lattice moments M_l = sum_k m_k x_k^(2l), l <= N, the top degree.

The sweep walks out from k = 0.  One infinite product gives w_a(1); every
other weight follows from the running ratio
(-c q^(2k); q^2)_inf = (1 + c q^(2k)) (-c q^(2k+2); q^2)_inf.  Each point
adds its exact terms m_k x_k^(2l) into the N+1 moments, summed on Python
ints; no pair is read per point.  Then each even pair is the dot product
of its exact e_l (from the definition sum's coefficients) with the
moments, plus its small-x tail, rounded to the working precision once.
That dot product cancels, so the walk and the coefficients run GUARD_BITS
above the working precision; w_a(1) stays at it, bit for bit the first
factor of the constants, which one shared-value scope (qcore.shared_scope)
takes once.  Odd pairs alone walk no lattice.  mpf exponents do not
overflow, so a term is non-finite only when m_k is: that raises.

Each end's rest is at most tail_tol sqrt(W_n W_m) per pair, W_n the sum
of (n, n) over the points walked so far: its residual's scale.

- k -> -inf (large |x|): moment l's terms fall from j to j-1 by
  q^(-(2a+2+2l)) / (1 + c q^(2j-2)), at most
  rho = q^(-(2a+2+2N)) / (1 + c q^(2k)) for all j <= k and l <= N.  With
  rho < 1, the walk stops at the first k where every moment's term over
  1 - rho (the term and its rest) is below tail_tol times the moment's
  largest term, and every pair's sum_l |e_l| m_k x_k^(2l) / (1 - rho) is
  below tail_tol sqrt(W_n W_m).
- k -> +inf (points crowding 0): the terms decay only like q^(k(2a+2)),
  slowly as a -> -1.  The walk stops before the first k > 0 with
  c q^(2k) <= z_max = min(tail_tol^(1/8), (1-q^2)/2), and
  `_small_x_tail` adds the rest in closed form.

The stop rules, the weight product and the constants all use one
truncation, the caller's; a tail_tol left unset resolves to 10^-(dps+10)
at the sweep's working precision, whatever the cap.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, from_man_exp, fzero,
                          mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul,
                          mpf_pow_int, mpf_sqrt, mpf_sub, mpf_sum, round_nearest,
                          to_fixed)

from .errors import ConvergenceError, EvaluationError
from .identities import _params, _report, _tolerance, _work_digits
# the ladder is bound here, though the sweep reads no recurrence, for the
# benchmark's tracer, which wraps it at every module that binds it
from .polyfam import _gdqh2_terms, gdqh2_recurrence_ladder  # noqa: F401
from .qcore import (QParams, Truncation, _check_degree, gen_q_shifted_factorial,
                    kept, q_pochhammer, shared_scope)
from .scalars import GUARD_BITS, qpow, to_mpf

__all__ = [
    "orthogonality_weight",
    "orthogonality_rhs",
    "orthogonality_check",
    "orthogonality_gram",
]


def orthogonality_weight(x, p: QParams, trunc: Optional[Truncation] = None):
    """w_alpha(x) = 1 / (-q^(-2 alpha - 1) x^2; q^2)_inf."""
    q, alpha, x = to_mpf(p.q), to_mpf(p.alpha), to_mpf(x)
    return 1 / q_pochhammer(-qpow(q, -2 * alpha - 1) * x * x, q * q, None,
                            trunc=trunc)


def _rhs_by_degree(p: QParams, trunc: Optional[Truncation]):
    """n -> orthogonality_rhs(n, p, trunc), taking its products once; q and
    alpha are mpfs, as the infinite products are."""
    q, alpha = p.q, p.alpha
    q2 = q * q
    neg_q = q_pochhammer(-q, q2, None, trunc=trunc)
    num = neg_q * neg_q * q_pochhammer(q2, q2, None, trunc=trunc)
    den = q_pochhammer(
        (-qpow(q, -2 * alpha - 1), -qpow(q, 2 * alpha + 3), qpow(q, 2 * alpha + 2)),
        q2, None, trunc=trunc)

    def rhs(n: int):
        pn = q_pochhammer(q, q, n)
        return (2 * qpow(q, -n * n) * (1 - q) * num / den
                * pn * pn / gen_q_shifted_factorial(n, p))
    return rhs


def orthogonality_rhs(n: int, p: QParams, trunc: Optional[Truncation] = None):
    """Diagonal normalization constant:

      2 q^(-n^2) (1-q) (-q, -q, q^2; q^2)_inf
        / (-q^(-2a-1), -q^(2a+3), q^(2a+2); q^2)_inf
        * (q;q)_n^2 / (q;q)_{n,alpha}.

    It opens a shared-value scope, so its products and tables are kept and
    a call at the same (q, alpha), precision and truncation reads them.
    """
    with shared_scope():
        return _rhs_by_degree(QParams(to_mpf(p.q), to_mpf(p.alpha)), trunc)(n)


def _coefficients(n: int, p: QParams) -> list:
    """[A_0, ..., A_{n//2}] with h_n(x) = sum_k A_k x^(n-2k), from the
    definition sum's terms at y = 1."""
    q, prec, rnd = p.q, mp.prec, round_nearest
    front = q_pochhammer(q, q, n)._mpf_
    return [mp.make_mpf(mpf_div(mpf_mul(front, sign, prec, rnd), den, prec, rnd))
            for _, sign, den in kept(_gdqh2_terms, n, q, p.alpha)]


def _plus(a: tuple, b: tuple) -> tuple:
    """The exact sum of two dyadic numbers, each a pair (man, exp) with a
    signed int man, meaning man 2^exp."""
    (x, ex), (y, ey) = a, b
    if ex > ey:
        (x, ex), (y, ey) = b, a
    return x + (y << (ey - ex)), ex


def _dyadic(value) -> tuple:
    """A finite raw libmp value as the pair (man, exp) of `_plus`."""
    sign, man, exp, _ = value
    return (-man if sign else man), exp


def _small_x_tail(k: int, p: QParams, trunc: Truncation):
    """tail(even, floor) = the closed form of
    sum_{j >= k} q^(j(2a+2)) E(q^j) / (-c q^(2j); q^2)_inf, for
    E(x) = sum_l even[l] x^(2l) and c = q^(-2a-1), with c q^(2k) < 1 - q^2:
    exact, from exact coefficients, each a pair (man, exp) of `_plus`, to
    within floor, a raw libmp value.

    Summing the q-binomial series of the weight over j gives
    sum_l even[l] M_l, with the lattice moments
    M_l = sum_{j >= k} q^(j s_l) w_a(q^j) = U_l sum_i d_i g_(l+i), where
    s_l = 2a+2+2l, U_l = q^(k s_l), d_i = (-c q^(2k))^i / (q^2;q^2)_i and
    g_i = 1/(1 - q^(s_i)).  The closure keeps the moments, summed on ints
    scaled by 2^wp, with wp the working precision, or tail_tol's if finer,
    plus GUARD_BITS; U_l is rounded at wp bits.  A call takes the terms
    with l + i <= I, for the first I >= len(even) - 1 at which the bound on
    the rest is at most floor: past I the d-series falls by
    r = c q^(2k) / (1-q^2) per term at most and g falls, so the rest is at
    most r/(1-r) g_I sum_l |even[l]| U_l |d_(I-l)|.
    """
    q, alpha = p.q, p.alpha
    tail_tol = trunc.effective_tail_tol()._mpf_
    wp = max(mp.prec, -tail_tol[2] - tail_tol[3]) + GUARD_BITS
    one, rnd = 1 << wp, round_nearest
    with mp.workprec(wp):
        u = qpow(q, 2 * k)  # x_k^2
        z = qpow(q, -2 * alpha - 1) * u
        r = z / (1 - q * q)
        lead = qpow(q, 2 * alpha + 2)
        start = qpow(lead, k)._mpf_  # U_0 = q^(k(2a+2))
        q2, neg_z, bound = (to_fixed(v._mpf_, wp)
                            for v in (q * q, -z, r / (1 - r)))
        lead = to_fixed(lead._mpf_, wp)
    # per index i: q^(2i), d_i and g_i scaled by 2^wp; per l: U_l as a
    # pair, and the partial sums of d_i g_(l+i), scaled by 2^(2 wp)
    power, d, g, u_l, moment = [one], [one], [], [], []

    def grow(i: int):
        while len(g) <= i:
            j = len(g)
            if j:
                power.append(power[-1] * q2 >> wp)
                d.append(d[-1] * neg_z // (one - power[j]))
            g.append(one * one // (one - (lead * power[j] >> wp)))

    def tail(even: list, floor) -> tuple:
        while len(u_l) < len(even):
            u_l.append(_dyadic(mpf_mul(start, mpf_pow_int(
                u._mpf_, len(u_l), wp, rnd), wp, rnd)))
            moment.append([])
        # even[l] U_l, exactly, on one exponent
        weights = [(e * w, ee + we) for (e, ee), (w, we) in zip(even, u_l)]
        low = min(exp for _, exp in weights)
        weights = [man << (exp - low) for man, exp in weights]
        # the bound on the rest, scaled by 2^(3 wp - low), against floor
        shift = 3 * wp - low + floor[2]
        cap = floor[1] << shift if shift >= 0 else floor[1]
        for i in range(len(even) - 1, trunc.max_terms):
            grow(i)
            rest = bound * g[i] * sum(abs(w * d[i - l]) for l, w
                                      in enumerate(weights))
            if (rest if shift >= 0 else rest << -shift) <= cap:
                break
        else:
            raise ConvergenceError(
                "closed-form lattice tail from k = %d did not meet %s within "
                "max_terms=%d" % (k, mp.nstr(mp.make_mpf(floor), 4),
                                  trunc.max_terms))
        dot = 0
        for l, w in enumerate(weights):
            sums = moment[l]
            while len(sums) <= i - l:
                j = len(sums)
                sums.append((sums[-1] if j else 0) + d[j] * g[l + j])
            dot += w * sums[i - l]
        return dot, low - 2 * wp
    return tail


def _walk(p: QParams, w_one, step: int) -> Iterator:
    """(k, x_k, m_k) for k = 0, step, 2 step, ...: the lattice point
    x_k = q^k and its measure factor m_k = q^(k(2a+2)) w_a(x_k), each from
    the last by the running ratio w_a(x_(k+1)) = w_a(x_k) (1 + c x_k^2)."""
    q, alpha = p.q, p.alpha
    prec, rnd = mp.prec, round_nearest
    c = qpow(q, -2 * alpha - 1)._mpf_
    lead = qpow(q, 2 * alpha + 2)._mpf_
    k, xk, mk = 0, fone, w_one._mpf_
    while True:
        yield k, mp.make_mpf(xk), mp.make_mpf(mk)
        x_next = mpf_pow_int(q._mpf_, k + step, prec, rnd)
        x = xk if step > 0 else x_next
        grow = mpf_add(mpf_mul(mpf_mul(c, x, prec, rnd), x, prec, rnd), fone,
                       prec, rnd)  # 1 + c x^2
        mk = (mpf_mul(mpf_mul(mk, lead, prec, rnd), grow, prec, rnd) if step > 0
              else mpf_div(mk, mpf_mul(lead, grow, prec, rnd), prec, rnd))
        k, xk = k + step, x_next


def _dot(even: list, moments: list) -> tuple:
    """sum_l even[l] moments[l], exactly, as a pair of `_plus`."""
    total = (0, 0)
    for (e, ee), (m, em) in zip(even, moments):
        total = _plus(total, (e * m, ee + em))
    return total


def _orthogonality_sweep(pairs, p: QParams, tol,
                         trunc: Optional[Truncation]) -> list:
    """Reports for the (n, m) pairs, in order: `_lattice_sums` for the
    pairs of even n + m; a pair of odd n + m is 0 and counts its points."""
    if not pairs:
        return []
    tol = _tolerance(tol)
    with mp.workdps(_work_digits("sweep")), shared_scope():
        trunc = trunc or Truncation()
        tail = trunc.effective_tail_tol()
        given, p = p, QParams(to_mpf(p.q), to_mpf(p.alpha))
        top = max(max(pair) for pair in pairs)
        summed = [pair for pair in pairs if sum(pair) % 2 == 0]
        lhs_of, points = (_lattice_sums(summed, p, trunc, tail) if summed
                          else ({}, 0))
        rhs_of = list(map(_rhs_by_degree(p, trunc), range(top + 1)))
        reports = []
        for n, m in pairs:
            lhs = lhs_of.get((n, m), mpf(0))
            if n == m:
                rhs, residual = rhs_of[n], None
            else:
                scale = mp.sqrt(rhs_of[n] * rhs_of[m])
                rhs, residual = 0, (abs(lhs), abs(lhs) / scale)
            reports.append(_report("orthogonality", _params(given, n=n, m=m),
                                   lhs, rhs, tol, trunc, terms_used=points,
                                   residual=residual))
        return reports


def _lattice_sums(pairs, p: QParams, trunc: Truncation, tail) -> tuple:
    """({(n, m): lhs}, points walked) for pairs of even n + m, with p's q
    and alpha mpfs and tail the resolved tail_tol.  The walk feeds the
    moments from k = 0 down to the negative end, then from k = 1 up; a
    non-finite m_k raises at its point, and an end that reaches
    trunc.max_terms points raises there."""
    prec, rnd = mp.prec, round_nearest
    q, alpha = p.q, p.alpha
    w_one = orthogonality_weight(1, p, trunc)
    z_max = min(tail ** (mpf(1) / 8), (1 - q * q) / 2)._mpf_
    tail_tol, nonfinite = tail._mpf_, {fnan, finf, fninf}
    degrees = {n for pair in pairs for n in pair}
    top = max(degrees)  # N
    with mp.workprec(prec + GUARD_BITS):
        wp = mp.prec
        exact = [[_dyadic(a._mpf_) for a in _coefficients(n, p)]
                 for n in range(top + 1)]
        even = {}  # per pair e_l, 2 h_n h_m(x) = sum_l e_l x^(2l), exactly
        for n, m in {*pairs, *((n, n) for n in degrees)}:
            half = (n + m) // 2
            row = even[(n, m)] = [(0, 0)] * (half + 1)
            for a, (an, ea) in enumerate(exact[n]):
                for b, (bm, eb) in enumerate(exact[m]):
                    row[half - a - b] = _plus(row[half - a - b],
                                              (an * bm, ea + eb + 1))
        size = {pair: [from_man_exp(abs(e), exp, wp, rnd)  # |e_l|
                       for e, exp in even[pair]] for pair in pairs}
        moments, largest = [(0, 0)] * (top + 1), [fzero] * (top + 1)
        c = qpow(q, -2 * alpha - 1)._mpf_
        reach = qpow(q, -2 * alpha - 2 - 2 * top)._mpf_

        def visit(xk, mk) -> list:
            # m_k x_k^(2l) for l <= N, exactly, into the moments
            if mk._mpf_ in nonfinite:
                raise EvaluationError("integrand non-finite at lattice point "
                                      "x = %s" % mp.nstr(xk, 8))
            sign, term, exp, _ = mk._mpf_
            _, man, x_exp, _ = xk._mpf_
            term, x2, terms = -term if sign else term, man * man, []
            for l in range(top + 1):
                terms.append((term, exp))
                moments[l] = _plus(moments[l], terms[-1])
                term, exp = term * x2, exp + 2 * x_exp
            return terms

        def floors() -> dict:
            # per pair tail_tol sqrt(W_n W_m), from the moments walked so far
            w = {n: from_man_exp(*_dot(even[(n, n)], moments), wp, rnd)
                 for n in degrees}
            return {(n, m): mpf_mul(tail_tol, mpf_sqrt(
                mpf_mul(w[n], w[m], wp, rnd), wp, rnd), wp, rnd)
                for n, m in pairs}

        def settled(terms, left) -> bool:
            # with left = 1 - rho: every moment's term / left below tail_tol
            # times its largest (the highest, slowest to fall, first), then
            # every pair's sum_l |e_l| term_l / left below its floor
            cap = mpf_mul(tail_tol, left, wp, rnd)
            if not all(mpf_le(t, mpf_mul(cap, big, wp, rnd))
                       for t, big in zip(terms[::-1], largest[::-1])):
                return False
            return all(mpf_le(mpf_sum([mpf_mul(s, t, wp, rnd) for s, t
                                       in zip(size[pair], terms)], wp, rnd),
                              mpf_mul(floor, left, wp, rnd))
                       for pair, floor in floors().items())

        def exhausted(k, end):
            return ConvergenceError(
                "lattice walk reached %s %d at max_terms=%d before its tail "
                "met tail_tol %s" % (end, k, trunc.max_terms,
                                     mp.nstr(tail, 4)))

        def c_x2(x):  # the stop rules' c x^2, rounded as c * x * x
            return mpf_mul(mpf_mul(c, x, wp, rnd), x, wp, rnd)

        # k = 0, -1, -2, ...: rho = reach / (1 + c x^2)
        for k, xk, mk in _walk(p, w_one, -1):
            terms = [from_man_exp(t, e, wp, rnd) for t, e in visit(xk, mk)]
            largest = [t if mpf_lt(big, t) else big
                       for t, big in zip(terms, largest)]
            rho = mpf_div(reach, mpf_add(c_x2(xk._mpf_), fone, wp, rnd),
                          wp, rnd)
            if mpf_lt(rho, fone) and settled(terms,
                                             mpf_sub(fone, rho, wp, rnd)):
                break
            if 1 - k >= trunc.max_terms:
                raise exhausted(k, "k_min")
        points = 1 - k

        # k = 1, 2, ...: up to the first k the closed-form tail can take
        for k, xk, mk in islice(_walk(p, w_one, 1), 1, None):
            if mpf_le(c_x2(xk._mpf_), z_max):
                break
            if k > trunc.max_terms:
                raise exhausted(k - 1, "k_max")
            visit(xk, mk)
        points += k - 1
        floor = floors()

    # after the walk, so that a cap on max_terms stops the walk first
    small_x = _small_x_tail(k, p, trunc)
    return {pair: (1 - q) * mp.make_mpf(from_man_exp(*_plus(
        _dot(even[pair], moments), small_x(even[pair], floor[pair])),
        prec, rnd)) for pair in pairs}, points


def orthogonality_check(n: int, m: int, p: QParams, tol=None,
                        trunc: Optional[Truncation] = None):
    """Quadrature vs closed form for the weighted pairing of degrees n and m,
    as one IdentityReport.

    n == m: relative residual against the closed-form constant.
    n != m: |quadrature| / scale with scale = sqrt(rhs(n) rhs(m)), reported
    with rhs = 0.
    """
    _check_degree(n)
    _check_degree(m, "degree m")
    return _orthogonality_sweep([(n, m)], p, tol, trunc)[0]


def orthogonality_gram(n_max: int, p: QParams, tol=None,
                       trunc: Optional[Truncation] = None) -> list:
    """`orthogonality_check` for every pair m <= n <= n_max, ordered by n
    then m, from one lattice sweep.  The sweep walks as far as its furthest
    pair needs, so each lhs agrees with the one-pair check's to the working
    precision.  Empty when n_max < 0."""
    pairs = [(n, m) for n in range(n_max + 1) for m in range(n + 1)]
    return _orthogonality_sweep(pairs, p, tol, trunc)
