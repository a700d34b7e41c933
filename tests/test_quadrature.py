"""Bilateral Jackson sums and the discrete orthogonality relation."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import count, islice

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from qhermite import polyfam, qcore, quadrature
from qhermite.errors import ConvergenceError, DomainError, EvaluationError
from qhermite.polyfam import gdqh2
from qhermite.qcore import (QParams, Truncation, gen_q_shifted_factorial,
                            q_pochhammer)
from qhermite.quadrature import (
    orthogonality_check,
    orthogonality_gram,
    orthogonality_rhs,
    orthogonality_weight,
)
from qhermite.scalars import GUARD_BITS, qpow


def test_weight_is_even_and_decaying():
    p = QParams(mpf("0.5"), mpf("0.5"))
    w1 = orthogonality_weight(mpf("0.7"), p)
    assert orthogonality_weight(mpf("-0.7"), p) == w1
    assert orthogonality_weight(mpf("2.1"), p) < w1


@pytest.mark.parametrize("q, alpha, dps", [("0.5", "0.5", 50),
                                           ("0.3", "-0.9", 80)])
def test_walked_weights_match_mpmath_qp(q, alpha, dps, monkeypatch):
    # differential oracle: mpmath's own (a; q^2)_inf at k = 0 and at both
    # ends of the walk, where the running ratio has run longest
    seen = {}
    monkeypatch.setattr(quadrature, "_walk", _recording_walk(seen))
    p = QParams(mpf(q), mpf(alpha))
    with mp.workdps(dps):
        orthogonality_gram(3, p)
        assert min(seen) < -5 and max(seen) > 5
        for k in (min(seen), 0, max(seen)):
            xk, mk = seen[k]
            assert abs(xk - qpow(p.q, k)) <= mpf(10) ** -dps * xk
            a = -qpow(p.q, -2 * p.alpha - 1) * xk * xk
            want = qpow(p.q, k * (2 * p.alpha + 2)) / mp.qp(a, p.q ** 2)
            assert abs(mk - want) <= mpf(10) ** (10 - dps) * abs(want), k


def _dyadics(values) -> list:
    """mpf values as the exact (man, exp) pairs `_small_x_tail` reads."""
    return [quadrature._dyadic(v._mpf_) for v in values]


def _value(pair):
    """An exact (man, exp) pair as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(*pair))


def test_small_x_tail_matches_brute_force():
    # sum_{k > 12} of the (0, 0) terms 2 q^(k(2a+2)) w_a(q^k) at
    # q = 0.3, alpha = -0.9, where they fall only by 0.3^0.2 per point:
    # 1400 points reach 1e-146.  Then the (2, 2) terms, whose three even
    # coefficients read the moments the first call left at several depths
    with mp.workdps(60):
        p = QParams(mpf("0.3"), mpf("-0.9"))
        q, alpha = p.q, p.alpha
        c = qpow(q, -2 * alpha - 1)
        ks = range(13, 13 + 1400)
        mass = [qpow(q, k * (2 * alpha + 2)) / mp.qp(-c * qpow(q, 2 * k), q * q)
                for k in ks]
        tail = quadrature._small_x_tail(13, p, Truncation(max_terms=100))
        floor = mpf(10) ** -(mp.dps + 10)
        brute = mp.fsum(2 * m for m in mass)
        got = _value(tail(_dyadics([mpf(2)]), floor._mpf_))
        assert abs(got - brute) <= mpf(10) ** (1 - mp.dps) * brute
        # h_2(x) = a0 x^2 + a1
        a0, a1 = map(_value, quadrature._coefficients(2, p))
        brute = mp.fsum(2 * gdqh2(2, qpow(q, k), mpf(1), p,
                                  rep="definition_sum") ** 2 * m
                        for k, m in zip(ks, mass))
        got = _value(tail(_dyadics([2 * a1 * a1, 4 * a0 * a1, 2 * a0 * a0]),
                          floor._mpf_))
        assert abs(got - brute) <= mpf(10) ** (1 - mp.dps) * brute


def _record_sweep(monkeypatch):
    """What one sweep reads: {k: (x_k, m_k)} of the points it walks and,
    per small-x tail call, (k, even, floor, tail)."""
    walked, tails = {}, []
    small_x = quadrature._small_x_tail

    def recording_tail(k, p, trunc):
        tail = small_x(k, p, trunc)

        def call(even, floor):
            tails.append((k, even, floor, tail(even, floor)))
            return tails[-1][-1]
        return call

    monkeypatch.setattr(quadrature, "_walk", _recording_walk(walked))
    monkeypatch.setattr(quadrature, "_small_x_tail", recording_tail)
    return walked, tails


def _recording_walk(seen):
    """`quadrature._walk`, putting (x_k, m_k) of every point it yields
    into seen[k], as mpfs."""
    walk = quadrature._walk

    def recording(*lattice):
        for k, xk, cx2, mk, grow in walk(*lattice):
            seen[k] = (mp.make_mpf(xk), mp.make_mpf(mk))
            yield k, xk, cx2, mk, grow
    return recording


def _fraction(value) -> F:
    """A finite raw libmp value or (man, exp) pair as an exact Fraction."""
    man, exp = value if len(value) == 2 else quadrature._dyadic(value)
    return man * F(2) ** exp


@pytest.mark.parametrize("q, alpha", [("0.22", "1.3"), ("0.3", "-0.9")])
def test_pair_sums_are_their_exact_terms_rounded_once(q, alpha, monkeypatch):
    # each even pair's lhs is (1 - q) times sum_l e_l M_l plus its small-x
    # tail, rounded once: the moments M_l = sum_k m_k x_k^(2l) over the
    # points visited and the coefficients e_l of 2 h_n h_m, exact from the
    # raw values the sweep read at its working precision plus the guard
    walked, tails = _record_sweep(monkeypatch)
    p = QParams(mpf(q), mpf(alpha))
    reports = orthogonality_gram(3, p)
    even = [r for r in reports if (r.params["n"] + r.params["m"]) % 2 == 0]
    assert len(tails) == len(even) == 6
    k_stop = tails[0][0]  # the first point the small-x walk does not visit
    visited = [walked[k] for k in walked if k < k_stop]
    assert len(visited) == reports[0].terms_used
    with mp.workdps(quadrature._work_digits("sweep")):
        prec = mp.prec
        with mp.workprec(prec + GUARD_BITS):
            coef = [[_fraction(a) for a in quadrature._coefficients(n, p)]
                    for n in range(4)]
        moments = [sum(_fraction(m._mpf_) * _fraction(x._mpf_) ** (2 * l)
                       for x, m in visited) for l in range(4)]
        for r, (_, want, _, tail) in zip(even, tails):
            n, m = r.params["n"], r.params["m"]
            e = [F(0)] * ((n + m) // 2 + 1)
            for a, an in enumerate(coef[n]):
                for b, bm in enumerate(coef[m]):
                    e[(n + m) // 2 - a - b] += 2 * an * bm
            assert e == [_fraction(pair) for pair in want], (n, m)
            exact = _fraction(tail) + sum(el * ml for el, ml in zip(e, moments))
            total = mp.make_mpf(from_rational(exact.numerator,
                                              exact.denominator, prec,
                                              round_nearest))
            assert ((1 - p.q) * total)._mpf_ == r.lhs._mpf_, (n, m)
        assert all(r.lhs == 0 for r in reports if r not in even)


@pytest.mark.parametrize("q, alpha", [("0.22", "1.3"), ("0.3", "-0.9"),
                                      ("0.7", "2.5")])
def test_moment_tail_is_the_lattice_sum_from_its_k_within_the_floor(
        q, alpha, monkeypatch):
    # every pair's closed-form tail against the direct sum over the lattice
    # points q^j, j >= k, with mpmath's own (a; q^2)_inf, 40 digits above
    # the sweep's: they differ by at most the pair's floor
    _, tails = _record_sweep(monkeypatch)
    p = QParams(mpf(q), mpf(alpha))
    orthogonality_gram(2, p)
    assert len(tails) == 4
    with mp.workdps(quadrature._work_digits("sweep") + 40):
        c = p.q ** (-2 * p.alpha - 1)
        k = tails[0][0]
        direct = [[] for _ in range(3)]  # per l: q^(j s_l) w_a(q^j)
        for j in count(k):
            x2 = p.q ** (2 * j)
            mass = p.q ** (j * (2 * p.alpha + 2)) / mp.qp(-c * x2, p.q ** 2)
            for l, row in enumerate(direct):
                row.append(mass * x2 ** l)
            if mass < mpf(10) ** -(mp.dps + 5) * direct[0][0]:
                break
        moments = [mp.fsum(row) for row in direct]
        for _, even, floor, tail in tails:
            want = mp.fsum(_value(e) * moment
                           for e, moment in zip(even, moments))
            assert abs(_value(tail) - want) <= mp.make_mpf(floor)


def _jackson_reference(pairs, p, ks):
    """{(n, m): [term at k for k in ks]} of the bilateral sum over ±q^k,
    each term (1-q) q^k |x|^(2a+1) / (-c x^2; q^2)_inf h_n h_m summed over
    x = ±q^k, from mpmath's own product and the definition sum at each
    point: no code shared with the walk."""
    q, alpha = p.q, p.alpha
    c = q ** (-2 * alpha - 1)
    top = max(max(pair) for pair in pairs)
    terms = {pair: [] for pair in pairs}
    for k in ks:
        x = q ** k
        mass = (1 - q) * x * x ** (2 * alpha + 1) / mp.qp(-c * x * x, q * q)
        at = {s: [gdqh2(n, s * x, mpf(1), p, rep="definition_sum")
                  for n in range(top + 1)] for s in (1, -1)}
        for n, m in pairs:
            terms[(n, m)].append(
                mass * (at[1][n] * at[1][m] + at[-1][n] * at[-1][m]))
    return terms


# k ranges of the reference, each wide enough to be checked converged below
_REFERENCE_K = {("0.5", "0.5"): (-21, 72), ("0.22", "1.3"): (-16, 26),
                ("0.7", "2.5"): (-27, 64)}


@lru_cache(maxsize=None)
def _wide_lattice(q, alpha, dps) -> dict:
    """{(n, m): the reference sum} for m <= n <= 4 over _REFERENCE_K's
    range, at dps + 10 digits, each row checked converged at both ends."""
    k_lo, k_hi = _REFERENCE_K[(q, alpha)]
    p = QParams(mpf(q), mpf(alpha))
    pairs = [(n, m) for n in range(5) for m in range(n + 1)]
    with mp.workdps(dps + 10):
        terms = _jackson_reference(pairs, p, range(k_lo, k_hi + 1))
        for pair, row in terms.items():
            largest = max(abs(t) for t in row)
            assert max(abs(row[0]), abs(row[-1])) \
                <= mpf(10) ** -(dps + 10) * largest, pair
        return {pair: mp.fsum(row) for pair, row in terms.items()}


@pytest.mark.parametrize("q, alpha", list(_REFERENCE_K))
def test_adaptive_gram_matches_wide_lattice(q, alpha):
    p = QParams(mpf(q), mpf(alpha))
    wide = _wide_lattice(q, alpha, mp.dps)
    for a in orthogonality_gram(4, p):
        n, m = a.params["n"], a.params["m"]
        scale = mp.sqrt(orthogonality_rhs(n, p) * orthogonality_rhs(m, p))
        assert abs(a.lhs - wide[(n, m)]) <= mpf(10) ** -mp.dps * scale, (n, m)


@pytest.mark.parametrize("q, alpha", list(_REFERENCE_K))
@pytest.mark.parametrize("tail_tol", ["1e-8", "1e-26", "1e-40"])
def test_every_pair_within_tail_tol_of_its_scale(q, alpha, tail_tol):
    # each end's rest is at most tail_tol sqrt(W_n W_m), W_n the diagonal
    # sum walked: against the wide lattice the whole of each lhs, (1 - q)
    # times the pair's sum, stays within tail_tol sqrt(lhs_nn lhs_mm)
    p, tail = QParams(mpf(q), mpf(alpha)), mpf(tail_tol)
    wide = _wide_lattice(q, alpha, mp.dps)
    gram = orthogonality_gram(4, p, trunc=Truncation(tail_tol=tail))
    diagonal = {r.params["n"]: r.lhs for r in gram
                if r.params["n"] == r.params["m"]}
    for a in gram:
        n, m = a.params["n"], a.params["m"]
        scale = mp.sqrt(diagonal[n] * diagonal[m])
        assert abs(a.lhs - wide[(n, m)]) <= tail * scale, (n, m)


@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("q", ["0.2", "0.5", "0.95"])
def test_high_degree_pairs_match_the_sweep_at_40_more_digits(n, q):
    # the dot products of e_l with the moments cancel; with the walk and
    # the coefficients GUARD_BITS above the working precision a diagonal
    # is its working precision's rounding off, and a pair whose exact
    # value is 0 is 0 to five digits beyond that
    p = QParams(mpf(q), mpf("0.3"))
    pairs = [(n, n), (n, n - 2), (n, 0), (n - 1, 1)]
    got = quadrature._orthogonality_sweep(pairs, p, None, None)
    with mp.workdps(mp.dps + 40):
        want = quadrature._orthogonality_sweep(pairs, p, None, None)
    digits = quadrature._work_digits("sweep")
    for a, b in zip(got, want):
        i, j = a.params["n"], a.params["m"]
        scale = mp.sqrt(orthogonality_rhs(i, p) * orthogonality_rhs(j, p))
        bound = mpf(10) ** (1 - digits if i == j else -digits - 5)
        assert abs(a.lhs - b.lhs) <= bound * scale, (i, j)


@pytest.mark.parametrize("q, alpha", [("0.2", "10"), ("0.5", "40"),
                                      ("0.8", "40")])
def test_large_alpha_diagonals_exact_to_working_precision(q, alpha):
    # at large alpha every term is far below 1: the walk's stop rule must
    # be relative to each pair's own terms, not to 1
    p = QParams(mpf(q), mpf(alpha))
    reports = orthogonality_gram(4, p)
    assert all(r.passed for r in reports)
    for r in reports:
        if r.params["n"] == r.params["m"]:
            assert abs(r.lhs - r.rhs) <= mpf(10) ** -mp.dps * r.rhs, r.params


def test_alpha_near_minus_one_converges():
    for q, alpha, n_max in (("0.3", "-0.9", 2), ("0.5", "-0.95", 1)):
        reports = orthogonality_gram(n_max, QParams(mpf(q), mpf(alpha)))
        assert all(r.passed for r in reports), (q, alpha)


def test_truncation_reaches_weights_walk_and_rhs():
    # a loose tail_tol moves both sides, and the two stay within it
    p = QParams(mpf("0.5"), mpf("0.5"))
    loose = orthogonality_gram(1, p, tol=mpf("1e-10"),
                               trunc=Truncation(tail_tol=mpf("1e-12")))
    tight = orthogonality_gram(1, p, tol=mpf("1e-10"))
    for a, b in zip(loose, tight):
        assert a.passed and b.passed
        if a.params["n"] == a.params["m"]:
            assert a.lhs != b.lhs and a.rhs != b.rhs
    assert loose[0].terms_used < tight[0].terms_used


@pytest.mark.parametrize("cap", [100_000, 1_000])
def test_cap_alone_leaves_the_sweep_unchanged(cap):
    # a Truncation built only to change max_terms keeps the sweep's own
    # tail_tol, 10^-(dps+10) at its working digits, so every report matches
    p = QParams(mpf("0.5"), mpf("0.5"))
    capped = orthogonality_gram(2, p, trunc=Truncation(max_terms=cap))
    default = orthogonality_gram(2, p)
    assert [(r.lhs, r.rhs, r.abs_residual, r.rel_residual, r.terms_used)
            for r in capped] == \
        [(r.lhs, r.rhs, r.abs_residual, r.rel_residual, r.terms_used)
         for r in default]


@pytest.mark.parametrize("q, alpha, cap, end", [("0.5", "0", 5, "k_min -4"),
                                                ("0.2", "10", 14, "k_max 14")])
def test_walk_max_terms_names_the_end(q, alpha, cap, end, monkeypatch):
    # the weight product w_a(1) gets the default truncation here, since at
    # the cap it would stop first.  At q = 0.2, alpha = 10 the walk toward
    # large x stops within 14 points, but the small-x tail needs
    # c q^(2k) <= tail_tol^(1/8) = 10^-10 with c = 0.2^(-21): k >= 18
    weight = quadrature.orthogonality_weight
    monkeypatch.setattr(quadrature, "orthogonality_weight",
                        lambda x, p, trunc=None: weight(x, p))
    with pytest.raises(ConvergenceError, match="reached %s at max_terms=%d"
                       % (end, cap)):
        orthogonality_gram(1, QParams(mpf(q), mpf(alpha)),
                           trunc=Truncation(max_terms=cap))


def test_small_x_tail_short_of_its_floor_at_max_terms_raises():
    # at q = 0.05 the walk ends within 6 points each way, but the
    # closed-form tail from k = 1 falls by about c q^2 / (1 - q^2) = 0.05 a
    # term and needs more than 6 terms to meet its floor
    with pytest.raises(ConvergenceError, match="closed-form lattice tail "
                       "from k = 1 did not meet .* within max_terms=6"):
        orthogonality_gram(2, QParams(mpf("0.05"), mpf(0)),
                           trunc=Truncation(max_terms=6,
                                            tail_tol=mpf("1e-10")))


@pytest.mark.parametrize("q, alpha, n_max, tail_tol, points", [
    ("0.9", "-0.5", 2, "1e-2", 20), ("0.8", "2", 8, "1e-2", 21),
    ("0.9", "10", 6, "1e-2", 37)])
def test_large_x_stop_by_moment_and_pair_bounds(
        q, alpha, n_max, tail_tol, points):
    # cells found by a scan: at the first, the walk stops one point later
    # than with the per-moment test gone or with its term not divided by
    # 1 - rho; at the second, one point later than with the pair test gone
    # or with its bound not divided by 1 - rho; at the third, two points
    # later than with the pair test gone
    reports = orthogonality_gram(n_max, QParams(mpf(q), mpf(alpha)),
                                 trunc=Truncation(tail_tol=mpf(tail_tol)))
    assert {r.terms_used for r in reports} == {points}


@pytest.mark.parametrize("k", [6, 8, 12])
def test_walk_toward_zero_stops_before_c_x2_equal_to_z_max(k):
    # at q = 1/2, alpha = 1/2, c = q^(-2 alpha - 1) = 4 and c x_k^2 =
    # 2^(2-2k) exactly; tail_tol = 2^(16-16k) makes z_max = tail_tol^(1/8)
    # that very number.  The walk stops before the first k with c x^2 <=
    # z_max, so at equality it visits what it visits at a tail_tol a little
    # above, and one point less than at one a little below
    p, tail = QParams(mpf("0.5"), mpf("0.5")), mpf(2) ** (16 - 16 * k)
    points = [orthogonality_check(2, 2, p, trunc=Truncation(tail_tol=t)).terms_used
              for t in (tail, tail * (1 + mpf(2) ** -30), tail * (1 - mpf(2) ** -30))]
    assert points[0] == points[1] == points[2] - 1


def test_rhs_two_path():
    # the closed form uses infinite products; rebuild it from partial
    # products long enough that the tails are below target precision
    p = QParams(mpf("0.5"), mpf("0.5"))
    q = p.q
    for n in (0, 1, 3):
        M = 400
        num = (q_pochhammer(-q, q * q, M) ** 2
               * q_pochhammer(q * q, q * q, M))
        den = (q_pochhammer(-q ** (-2 * p.alpha - 1), q * q, M)
               * q_pochhammer(-q ** (2 * p.alpha + 3), q * q, M)
               * q_pochhammer(q ** (2 * p.alpha + 2), q * q, M))
        direct = (2 * q ** (-mpf(n) ** 2) * (1 - q) * num / den
                  * q_pochhammer(q, q, n) ** 2
                  / gen_q_shifted_factorial(n, p))
        closed = orthogonality_rhs(n, p)
        assert abs(direct - closed) / abs(closed) < mpf("1e-45"), n


def test_orthogonality_diagonal_base_case():
    r = orthogonality_check(0, 0, QParams(mpf("0.5"), mpf(0)))
    assert r.passed and r.rel_residual < mpf("1e-12")


def test_orthogonality_diagonal_n3_alpha_half():
    r = orthogonality_check(3, 3, QParams(mpf("0.5"), mpf("0.5")))
    assert r.passed and r.rel_residual < mpf("1e-10")


def test_orthogonality_opposite_parity_exact_zero():
    # integrand is odd in x, so the bilateral sum cancels term by term
    r = orthogonality_check(2, 1, QParams(mpf("0.5"), mpf(0)))
    assert r.lhs == 0 and r.rel_residual == 0


def test_orthogonality_equal_parity_off_diagonal():
    r = orthogonality_check(4, 2, QParams(mpf("0.5"), mpf("0.5")))
    assert r.passed and r.rel_residual < mpf("1e-12")


def _one_pair_walk(n_max, p):
    """What the pairs m <= n <= n_max give checked one by one, in order:
    every report, or the first error raised."""
    reports = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            reports.append(orthogonality_check(n, m, p))
    return reports


@pytest.mark.parametrize("q, alpha", [("0.5", "0.5"), ("0.22", "1.3")])
def test_gram_reports_equal_one_pair_checks(q, alpha):
    # the walk serves all the pairs at once, so it may walk further than one
    # pair's, and agrees to the working precision
    p = QParams(mpf(q), mpf(alpha))
    gram, one = orthogonality_gram(4, p), _one_pair_walk(4, p)
    assert [r.params for r in gram] == [r.params for r in one]
    for g, r in zip(gram, one):
        assert g.rhs == r.rhs and g.passed and r.passed
        assert abs(g.lhs - r.lhs) <= mpf(10) ** -mp.dps * max(abs(r.rhs), 1)


def test_gram_takes_its_infinite_products_once_per_sweep(monkeypatch):
    # five for the closed-form constants, with (-q; q^2)_inf taken once and
    # squared, whatever the number of degrees; the weight w_a(1) is the
    # denominator's first factor, bit for bit, and at alpha = 0 so is
    # (q^(2a+2); q^2)_inf the numerator's (q^2; q^2)_inf
    calls = []
    product = qcore._infinite_product
    monkeypatch.setattr(qcore, "_infinite_product",
                        lambda *a: calls.append(a[0]) or product(*a))
    for alpha, distinct in ((0, 4), (mpf("0.3"), 5)):
        for n_max in (0, 1, 4):
            qcore._kept.cache_clear()  # each sweep's builds from a cold start
            calls.clear()
            reports = orthogonality_gram(n_max, QParams(0.22, alpha))
            assert len(reports) == (n_max + 1) * (n_max + 2) // 2
            assert len(calls) == distinct, (alpha, n_max)
    calls.clear()
    assert orthogonality_gram(-1, QParams(0.22, 0)) == [] and calls == []


def test_orthogonality_check_names_the_negative_degree():
    p = QParams(mpf("0.5"), mpf(0))
    with pytest.raises(DomainError, match=r"^degree n must be >= 0: got -1$"):
        orthogonality_check(-1, 0, p)
    with pytest.raises(DomainError, match=r"^degree m must be >= 0: got -2$"):
        orthogonality_check(0, -2, p)


@pytest.mark.parametrize("q, alpha", [("0.5", "0.5"), ("0.3", "-0.9")])
@pytest.mark.parametrize("trunc", [None, Truncation(tail_tol=mpf("1e-40"))],
                         ids=["default", "tail_tol=1e-40"])
def test_public_rhs_equals_gram_diagonal_bit_for_bit(q, alpha, trunc):
    # the sweep takes its constants at 20 digits over the caller's, through
    # the same products and degree part as the one-degree public call
    p = QParams(mpf(q), mpf(alpha))
    gram = orthogonality_gram(4, p, trunc=trunc)
    diagonal = {r.params["n"]: r.rhs for r in gram
                if r.params["n"] == r.params["m"]}
    with mp.workdps(mp.dps + 20):
        public = {n: orthogonality_rhs(n, p, trunc) for n in range(5)}
    assert {n: v._mpf_ for n, v in public.items()} == \
        {n: v._mpf_ for n, v in diagonal.items()}


def test_sweep_builds_no_recurrence_ladder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("recurrence kernel called")

    monkeypatch.setattr(polyfam, "_recurrence", refuse)
    reports = orthogonality_gram(3, QParams(mpf("0.22"), mpf("1.3")))
    assert len(reports) == 10 and all(r.passed for r in reports)


def test_sweep_keeps_no_terms_row():
    # each sweep draws its own (q, alpha), which no later call is likely to
    # read: its terms rows, products and constants end with the call, and
    # none reaches the kept memo
    qcore._kept.cache_clear()
    orthogonality_gram(4, QParams(mpf("0.22"), mpf("1.3")))
    assert qcore._kept.cache_info().currsize == 0


def test_odd_pairs_alone_walk_no_lattice(monkeypatch):
    # E = 0 exactly at every point: no weight, no walk, lhs = 0, no terms
    def refuse(*args):
        raise AssertionError("lattice walked")

    monkeypatch.setattr(quadrature, "_walk", refuse)
    monkeypatch.setattr(quadrature, "orthogonality_weight", refuse)
    p = QParams(mpf("0.5"), mpf("0.5"))
    for n, m in [(1, 0), (3, 2), (0, 5)]:
        r = orthogonality_check(n, m, p)
        assert (r.lhs, r.rhs, r.abs_residual, r.rel_residual, r.terms_used) \
            == (0, 0, 0, 0, 0) and r.passed, (n, m)


@pytest.mark.parametrize("k, bad", [(3, mp.nan), (-2, -mp.inf)])
def test_nonfinite_weight_stops_every_pair_at_its_point(monkeypatch, k, bad):
    # a non-finite m_k makes every moment's term non-finite at x_k, which
    # the walk reaches on either end for every pair of even n + m here
    # (k = 3: x = 0.22^3 on the small-x end; k = -2: x = 0.22^-2 toward
    # large x).  The Gram matrix and every one-pair check of even n + m
    # raise naming that x; a pair of odd n + m alone walks no lattice
    walk = quadrature._walk

    def poisoned(*lattice):
        for j, xj, cx2, mj, grow in walk(*lattice):
            yield j, xj, cx2, (bad._mpf_ if j == k else mj), grow

    monkeypatch.setattr(quadrature, "_walk", poisoned)
    p = QParams(mpf("0.22"), mpf(0))
    message = ("integrand non-finite at lattice point x = %s"
               % mp.nstr(qpow(p.q, k), 8))
    with pytest.raises(EvaluationError) as gram:
        orthogonality_gram(3, p)
    assert str(gram.value) == message
    for n, m in [(n, m) for n in range(4) for m in range(n + 1)
                 if (n + m) % 2 == 0]:
        with pytest.raises(EvaluationError) as one:
            orthogonality_check(n, m, p)
        assert str(one.value) == message, (n, m)


@pytest.mark.parametrize("dps", [50, 80])
@pytest.mark.parametrize("q, alpha", [("0.5", "0"), ("0.22", "1.3"),
                                      ("0.7", "2.5"), ("0.3", "-0.9")])
def test_constants_satisfy_favard_with_the_recurrence(q, alpha, dps):
    # x h_n = lead_n h_(n+1) + beta_n h_(n-1) with beta_n = q (1 - q^n) / q^(2n)
    # at y = 1, so <x h_n, h_(n+1)> read from both sides gives
    # lead_n d_(n+1) = beta_(n+1) d_n: the closed-form constants against the
    # recurrence's own leading factors, at every degree up to 38
    with mp.workdps(dps):
        p = QParams(mpf(q), mpf(alpha))
        rows = qcore._Rows(polyfam._recurrence_rows, p.q,
                           qcore._odd_lift(p.q, p.alpha), mp.prec).upto(37)
        d = [orthogonality_rhs(n, p) for n in range(39)]
        for n in range(38):
            beta = p.q * (1 - qpow(p.q, n + 1)) / qpow(p.q, 2 * (n + 1))
            lead = mp.make_mpf(rows[n][0])
            assert abs(lead * d[n + 1] - beta * d[n]) \
                <= mpf(10) ** (1 - dps) * abs(beta * d[n]), n


def _moment_ratio(l: int, p: QParams):
    """mu_l = (q;q)_{2l,alpha} q^(-l^2) / (q^2;q^2)_l, the closed-form
    L[x^(2l)] / L[1] of the functional L that orthogonality defines."""
    q = p.q
    return (gen_q_shifted_factorial(2 * l, p) * qpow(q, -l * l)
            / q_pochhammer(q * q, q * q, l))


def _power_coefficients(n: int, p: QParams) -> list:
    """[a_0, ..., a_n] with h_n(x, 1) = sum_i a_i x^i, solved exactly from
    the exact values of gdqh2 at x = 0..n; the Vandermonde matrix's leading
    minors are nonzero, so the elimination needs no pivoting."""
    rows = [[F(x) ** i for i in range(n + 1)] + [gdqh2(n, F(x), 1, p)]
            for x in range(n + 1)]
    for c in range(n + 1):
        for r in range(n + 1):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


@pytest.mark.parametrize("q, alpha", [(F(1, 2), 0), (F(2, 3), F(1, 2)),
                                      (F(3, 5), 1), (F(17, 25), F(-1, 2))],
                         ids=["1/2-0", "2/3-1/2", "3/5-1", "17/25--1/2"])
def test_orthogonality_is_a_moment_identity_exactly(q, alpha):
    # L[h_n h_m] / L[1] from the closed-form moments: the x^(2l)
    # coefficients c_l of h_n h_m(x, 1) give sum_l c_l mu_l = delta_nm
    # q^(-n^2) (q;q)_n^2 / (q;q)_{n,alpha}, equal as Fractions
    p = QParams(q, alpha)
    coefficients = [_power_coefficients(n, p) for n in range(7)]
    for n in range(7):
        for m in range(n % 2, 7, 2):
            c = [0] * (n + m + 1)
            for i, a in enumerate(coefficients[n]):
                for j, b in enumerate(coefficients[m]):
                    c[i + j] += a * b
            got = sum(c[2 * l] * _moment_ratio(l, p)
                      for l in range((n + m) // 2 + 1))
            want = 0 if n != m else (qpow(q, -n * n) * q_pochhammer(q, q, n) ** 2
                                     / gen_q_shifted_factorial(n, p))
            assert got == want, (n, m)


@pytest.mark.parametrize("q, alpha", [("0.5", "0"), ("0.25", "1.2"),
                                      ("0.6", "-0.3")])
def test_weight_moments_are_the_closed_form_moments(q, alpha):
    # the Jackson sums M_l = sum_k q^(k(2a+2+2l)) w_a(q^k), k = -40..399,
    # against the public weight at 80 digits: M_l / M_0 = mu_l for l <= 6
    with mp.workdps(80):
        p = QParams(mpf(q), mpf(alpha))
        lattice = [(k, orthogonality_weight(qpow(p.q, k), p))
                   for k in range(-40, 400)]
        moments = [mp.fsum(qpow(p.q, k * (2 * p.alpha + 2 + 2 * l)) * w
                           for k, w in lattice) for l in range(7)]
        for l in range(7):
            mu = _moment_ratio(l, p)
            assert abs(moments[l] / moments[0] - mu) <= mpf("1e-70") * mu, l


def test_public_rhs_keeps_its_products(monkeypatch):
    # one degree at a time, the public constant reads the five products
    # (the denominator's three and two more) its first call kept
    calls = []
    product = qcore._infinite_product
    monkeypatch.setattr(qcore, "_infinite_product",
                        lambda *a: calls.append(a) or product(*a))
    p = QParams(mpf("0.7"), mpf("2.5"))
    first = [orthogonality_rhs(n, p)._mpf_ for n in range(39)]
    assert [orthogonality_rhs(n, p)._mpf_ for n in range(39)] == first
    assert len(calls) <= 5


def _mpf_walk(q, c, lead, w_one, step):
    """`quadrature._walk` as the loop on mpf values that it runs on raw
    libmp values: the reference for its bits."""
    k, xk, mk = 0, mpf(1), w_one
    while True:
        grow = 1 + c * xk * xk
        yield k, xk, c * xk * xk, mk, grow
        x_next = qpow(q, k + step)
        if step > 0:
            mk = mk * lead * grow
        else:
            mk = mk / (lead * (1 + c * x_next * x_next))
        k, xk = k + step, x_next


@pytest.mark.parametrize("q, alpha", [("0.3", "-0.9"), ("0.7", "2.5"),
                                      ("0.22", "1.3")])
def test_raw_walk_gives_the_mpf_loops_bits(q, alpha):
    p = QParams(mpf(q), mpf(alpha))
    with mp.workdps(70):
        lattice = (p.q, qpow(p.q, -2 * p.alpha - 1), qpow(p.q, 2 * p.alpha + 2),
                   orthogonality_weight(1, p))
        for step in (-1, 1):
            raw = islice(quadrature._walk(*(v._mpf_ for v in lattice), step), 60)
            ref = islice(_mpf_walk(*lattice, step), 60)
            assert list(raw) == [(j, x._mpf_, cx2._mpf_, m._mpf_, g._mpf_)
                                 for j, x, cx2, m, g in ref]
