"""Numerical verification of the orthogonality relation for the one-variable
family h_n(x; q) = gdqh2(n, x, 1), by a bilateral Jackson q-sum over the
lattice {±q^k} checked against the closed-form constants.

The pair of points ±q^k carries the measure (1-q) q^k |x|^(2a+1) w_a(x),
with w_a(x) = 1/(-c x^2; q^2)_inf and c = q^(-2a-1).  So the pair (n, m)
adds m_k E(q^k) at k, where m_k = q^(k(2a+2)) w_a(q^k) and
E(x) = h_n h_m(x) + h_n h_m(-x).

The sweep walks out from k = 0.  One infinite product gives w_a(1); every
other weight follows from the running ratio
(-c q^(2k); q^2)_inf = (1 + c q^(2k)) (-c q^(2k+2); q^2)_inf, one
multiplication per point.  One recurrence ladder per point x, read raw from
the float recurrence kernel (polyfam._recurrence), feeds all the pairs
(at -x, the same ladder with the odd degrees negated); the closed
form's products and the small-x tail's lattice moments are computed once
per sweep.
The sweep opens one shared-value scope (qcore.shared_scope), so w_a(1)'s
product, bit for bit the first factor of the constants' denominator, is
taken once, the coefficients and the constants read one (q;q)_n and one
(q;q)_{n,alpha} table, and every ladder reads one table of recurrence
coefficients.  A
pair of odd n + m has E = 0 exactly at every point: it gets no sum, only
the test that its factors are finite, and its lhs is 0.  The walk and the
ladders run on raw libmp values, with the operations, order and precision
of the same loop on mpf values.  A pair of even n + m sums on Python ints:
the exact products m_k 2 h_n h_m of those values, then its exact small-x
tail, rounded to the working precision once.  mpf exponents do not
overflow, so a product is non-finite only when a factor is: the pairs test
their own factors only at a point whose weight or ladder is not finite.

- k -> -inf (large |x|): for |x| >= 1, |h_n(x)| <= S_n |x|^n, where S_n
  is the sum of the absolute coefficients of h_n.  The envelope
  m_j x_j^(2N) of the degrees up to N falls from j to j-1 by
  q^(-(2a+2+2N)) / (1 + c q^(2j-2)), which is at most
  rho = q^(-(2a+2+2N)) / (1 + c q^(2k)) for every j <= k.  The walk stops
  at the first k where every pair's term is below tail_tol times its
  largest and, with rho < 1, the bound 2 S_n S_m m_k x_k^(2N) rho / (1 - rho)
  on the rest is too.  A pair of odd n + m, whose terms are exactly 0, has
  no largest term and is held to tail_tol itself.
- k -> +inf (points crowding 0): the terms decay only like q^(k(2a+2)),
  slowly as a -> -1.  The walk stops before the first k > 0 with
  c q^(2k) <= z_max = min(tail_tol^(1/8), (1-q^2)/2) and adds the rest in
  closed form (`_small_x_tail`): the q-binomial theorem gives
  w_a(x) = sum_j (-c x^2)^j / (q^2;q^2)_j, and E is an even polynomial,
  so the rest is a dot product of E's coefficients with lattice moments.

The walk's stop rule, the weight product and the closed-form constants all
use one truncation, the caller's; a tail_tol left unset resolves to
10^-(dps+10) at the sweep's working precision, whatever the cap.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, from_man_exp, fzero,
                          mpf_add, mpf_div, mpf_le, mpf_lt, mpf_mul,
                          mpf_pow_int, mpf_shift, mpf_sub, round_nearest,
                          to_fixed)

from .errors import ConvergenceError, EvaluationError
from .identities import _params, _report, _tolerance, _work_digits
from .polyfam import _gdqh2_terms, _recurrence
# bound here, though the sweep reads the recurrence kernel, for the benchmark's
# tracer, which wraps the ladder at every module that binds it
from .polyfam import gdqh2_recurrence_ladder  # noqa: F401
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


def _orthogonality_sweep(pairs, p: QParams, tol,
                         trunc: Optional[Truncation]) -> list:
    """Reports for the (n, m) pairs, in order, from one lattice walk.

    Each pair of even n + m keeps its own exact sum, fed in walk order:
    k = 0 down to the negative end, then k = 1 up to the positive end, then
    its small-x tail; a pair of odd n + m sums nothing.  After the walk
    the pairs are finished in order, and the first one whose sum hit a
    non-finite term raises.  A walk that reaches trunc.max_terms points at
    one end raises there.
    """
    if not pairs:
        return []
    tol = _tolerance(tol)
    with mp.workdps(_work_digits("sweep")), shared_scope():
        prec, rnd = mp.prec, round_nearest
        trunc = trunc or Truncation()
        tail = trunc.effective_tail_tol()
        given, p = p, QParams(to_mpf(p.q), to_mpf(p.alpha))
        q, alpha = p.q, p.alpha
        c, one = qpow(q, -2 * alpha - 1)._mpf_, mpf(1)
        top = max(max(pair) for pair in pairs)
        coef = [_coefficients(n, p) for n in range(top + 1)]
        size = [sum(abs(a) for a in row) for row in coef]  # S_n
        # per pair: S_n S_m, its exact sum, its largest term, and the first
        # x whose term is non-finite (which stops it)
        s_nm = [(size[n] * size[m])._mpf_ for n, m in pairs]
        total, largest = [(0, 0)] * len(pairs), [fzero] * len(pairs)
        bad_x = [None] * len(pairs)
        summed = [i for i, (n, m) in enumerate(pairs) if (n + m) % 2 == 0]
        nonfinite = {fnan, finf, fninf}

        def visit(xk, mk):
            # h_j(-x) = (-1)^j h_j(x): the recurrence at -x flips the sign of
            # every odd degree exactly, so one ladder serves both points and
            # their products sum to h_n h_m (1 + (-1)^(n+m)), bit for bit
            lad = list(islice(_recurrence(xk, one, q, alpha), top + 1))
            mk = mk._mpf_
            if mk in nonfinite or not nonfinite.isdisjoint(lad):
                # a product is non-finite exactly when a factor is (mpf
                # exponents do not overflow): each pair stops at its own
                # factors, a pair of odd n + m (not summed) included
                for i, (n, m) in enumerate(pairs):
                    if bad_x[i] is None and {mk, lad[n], lad[m]} & nonfinite:
                        bad_x[i] = xk
            sign, man, exp, _ = mk
            terms = [fzero] * len(pairs)
            for i in summed:
                if bad_x[i] is None:
                    n, m = pairs[i]
                    sn, man_n, exp_n, _ = lad[n]
                    sm, man_m, exp_m, _ = lad[m]
                    # m_k 2 h_n h_m, exactly, and rounded for the stop rules
                    term = man * man_n * man_m
                    exp_t = exp + exp_n + exp_m + 1
                    terms[i] = from_man_exp(term, exp_t, prec, rnd)
                    if mpf_lt(largest[i], terms[i]):
                        largest[i] = terms[i]
                    total[i] = _plus(total[i], (-term if sign ^ sn ^ sm
                                                else term, exp_t))
            return terms

        def floor(i):
            # relative to the pair's largest term; a pair with no nonzero
            # term (odd n + m, whose terms are exactly 0) has no scale and
            # takes tail_tol itself, so the walk still stops
            return mpf_mul(tail._mpf_, largest[i] if largest[i] != fzero
                           else fone, prec, rnd)

        def exhausted(k, end):
            return ConvergenceError(
                "lattice walk reached %s %d at max_terms=%d before its tail "
                "met tail_tol %s" % (end, k, trunc.max_terms,
                                     mp.nstr(tail, 4)))

        def c_x2(x):  # the stop rules' c x^2, rounded as c * x * x
            return mpf_mul(mpf_mul(c, x, prec, rnd), x, prec, rnd)

        w_one = orthogonality_weight(1, p, trunc)
        # k = 0, -1, -2, ...: rho = reach / (1 + c x^2) and the rest bound
        # 2 m_k x^(2N) rho / (1 - rho), on raw values rounded as on mpfs
        reach = qpow(q, -2 * alpha - 2 - 2 * top)._mpf_
        for k, xk, mk in _walk(p, w_one, -1):
            far = visit(xk, mk)
            x = xk._mpf_
            rho = mpf_div(reach, mpf_add(c_x2(x), fone, prec, rnd), prec, rnd)
            if mpf_lt(rho, fone):
                rest = mpf_mul(mpf_shift(mk._mpf_, 1),
                               mpf_pow_int(x, 2 * top, prec, rnd), prec, rnd)
                rest = mpf_div(mpf_mul(rest, rho, prec, rnd),
                               mpf_sub(fone, rho, prec, rnd), prec, rnd)
                if all(mpf_le(far[i], f) and
                       mpf_le(mpf_mul(s_nm[i], rest, prec, rnd), f)
                       for i, f in enumerate(map(floor, range(len(pairs))))):
                    break
            if 1 - k >= trunc.max_terms:
                raise exhausted(k, "k_min")
        points = 1 - k

        # k = 1, 2, ...: up to the first k the closed-form tail can take
        z_max = min(tail ** (mpf(1) / 8), (1 - q * q) / 2)._mpf_
        for k, xk, mk in islice(_walk(p, w_one, 1), 1, None):
            if mpf_le(c_x2(xk._mpf_), z_max):
                break
            if k > trunc.max_terms:
                raise exhausted(k - 1, "k_max")
            visit(xk, mk)
        points += k - 1

        # after the walk, so that a cap on max_terms stops the walk first
        small_x = _small_x_tail(k, p, trunc)
        rhs_of = list(map(_rhs_by_degree(p, trunc), range(top + 1)))
        exact = [[_dyadic(a._mpf_) for a in row] for row in coef]
        reports = []
        for i, (n, m) in enumerate(pairs):
            if bad_x[i] is not None:
                raise EvaluationError(
                    "integrand non-finite at lattice point x = %s"
                    % mp.nstr(bad_x[i], 8))
            if (n + m) % 2 == 0:
                # E(x) = 2 h_n h_m(x): the coefficient of x^(2l) in it
                half = (n + m) // 2
                even = [(0, 0)] * (half + 1)
                for a, (an, ea) in enumerate(exact[n]):
                    for b, (bm, eb) in enumerate(exact[m]):
                        even[half - a - b] = _plus(even[half - a - b],
                                                   (an * bm, ea + eb + 1))
                total[i] = _plus(total[i], small_x(even, floor(i)))
            lhs = (1 - q) * mp.make_mpf(from_man_exp(*total[i], prec, rnd))
            if n == m:
                rhs, residual = rhs_of[n], None
            else:
                scale = mp.sqrt(rhs_of[n] * rhs_of[m])
                rhs, residual = 0, (abs(lhs), abs(lhs) / scale)
            reports.append(_report("orthogonality", _params(given, n=n, m=m),
                                   lhs, rhs, tol, trunc, terms_used=points,
                                   residual=residual))
        return reports


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
