"""Bilateral Jackson sums and the discrete orthogonality relation."""

import pytest
from mpmath import mp, mpf

from qhermite import quadrature
from qhermite.errors import ConvergenceError, DomainError, EvaluationError
from qhermite.qcore import QParams, gen_q_shifted_factorial, q_pochhammer
from qhermite.quadrature import (
    LatticeSpec,
    default_lattice,
    orthogonality_check,
    orthogonality_gram,
    orthogonality_rhs,
    orthogonality_weight,
)
from qhermite.scalars import qpow
from test_qcore import reference_infinite_product


def test_lattice_validation():
    with pytest.raises(DomainError, match=r"q out of range \(0,1\)"):
        LatticeSpec(mpf("1.5"), -10, 10)
    with pytest.raises(DomainError):
        LatticeSpec(mpf("0.5"), 5, 10)   # k_min must sit below zero
    with pytest.raises(DomainError):
        LatticeSpec(mpf("0.5"), -5, 0)


def test_default_lattice_width():
    lat = default_lattice(mpf("0.5"))
    # 120/log10(2) = 398.6..., rounded up
    assert lat.k_max == 399 and lat.k_min == -399
    lat = default_lattice(mpf("1e-40"))
    assert lat.k_max == 3  # ceil(120/40)


def test_weight_is_even_and_decaying():
    p = QParams(mpf("0.5"), mpf("0.5"))
    w1 = orthogonality_weight(mpf("0.7"), p)
    assert orthogonality_weight(mpf("-0.7"), p) == w1
    assert orthogonality_weight(mpf("2.1"), p) < w1


def _reference_weight_vector(p, lat):
    """The lattice measure factors as built before the shared product
    kernel: one one-value (-q^(-2a-1) x^2; q^2)_inf loop per point."""
    q, alpha = p.q, p.alpha
    out = []
    for k in range(lat.k_min, lat.k_max + 1):
        xk = qpow(q, k)
        w = (1 / reference_infinite_product(-qpow(q, -2 * alpha - 1) * xk * xk,
                                            q * q)
             * qpow(abs(xk), 2 * alpha + 1))
        out.append((xk, qpow(q, k) * w))
    return out


@pytest.mark.parametrize("q, alpha, dps", [("0.5", "0.5", 50),
                                           ("0.22", "1.3", 50),
                                           ("0.3", "-0.9", 80),
                                           ("0.7", "2.5", 30)])
def test_weight_vector_bit_identical_to_per_point_products(q, alpha, dps):
    p = QParams(mpf(q), mpf(alpha))
    with mp.workdps(dps):
        lat = default_lattice(p.q)
        got = quadrature._weight_vector(p, lat, mp.prec)
        want = _reference_weight_vector(p, lat)
    assert [(x._mpf_, w._mpf_) for x, w in got] == \
        [(x._mpf_, w._mpf_) for x, w in want]


@pytest.mark.parametrize("q, alpha, dps", [("0.5", "0.5", 50),
                                           ("0.3", "-0.9", 80)])
def test_weight_vector_matches_mpmath_qp(q, alpha, dps):
    # differential oracle: mpmath's own (a; q^2)_inf at sampled lattice
    # points, the far end k_min (largest |a|) included
    p = QParams(mpf(q), mpf(alpha))
    with mp.workdps(dps):
        lat = default_lattice(p.q)
        weights = quadrature._weight_vector(p, lat, mp.prec)
        for k in (lat.k_min, lat.k_min + 1, lat.k_min // 2, -1, 0, 1,
                  lat.k_max // 2, lat.k_max):
            xk, wk = weights[k - lat.k_min]
            a = -qpow(p.q, -2 * p.alpha - 1) * xk * xk
            want = xk * qpow(abs(xk), 2 * p.alpha + 1) / mp.qp(a, p.q ** 2)
            assert abs(wk - want) <= mpf(10) ** (10 - dps) * abs(want), k


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


def test_orthogonality_lattice_widening_stability():
    p = QParams(mpf("0.5"), mpf(0))
    base = default_lattice(p.q)
    wide = LatticeSpec(p.q, base.k_min - 10, base.k_max + 10)
    a = orthogonality_check(1, 1, p, lat=base)
    b = orthogonality_check(1, 1, p, lat=wide)
    assert abs(a.lhs - b.lhs) < mpf("1e-45") * abs(a.lhs)


def test_orthogonality_narrow_lattice_flagged():
    with pytest.raises(ConvergenceError, match="widen the lattice"):
        orthogonality_check(1, 1, QParams(mpf("0.5"), mpf(0)),
                            lat=LatticeSpec(mpf("0.5"), -3, 3))


def _one_pair_walk(n_max, p, lat=None):
    """What the pairs m <= n <= n_max give checked one by one, in order:
    every report, or the first error raised."""
    reports = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            reports.append(orthogonality_check(n, m, p, lat=lat))
    return reports


@pytest.mark.parametrize("q, alpha", [("0.5", "0.5"), ("0.22", "1.3")])
def test_gram_reports_equal_one_pair_checks(q, alpha):
    p = QParams(mpf(q), mpf(alpha))
    gram = orthogonality_gram(4, p)
    one = _one_pair_walk(4, p)
    assert [r.params for r in gram] == [r.params for r in one]
    for g, r in zip(gram, one):
        for field in ("lhs", "rhs", "abs_residual", "rel_residual", "passed",
                      "terms_used"):
            assert getattr(g, field) == getattr(r, field), (r.params, field)


def test_gram_narrow_lattice_raises_the_one_pair_error():
    p = QParams(mpf("0.5"), mpf(0))
    lat = LatticeSpec(mpf("0.5"), -3, 3)
    with pytest.raises(ConvergenceError) as one:
        _one_pair_walk(1, p, lat=lat)
    with pytest.raises(ConvergenceError) as gram:
        orthogonality_gram(1, p, lat=lat)
    assert str(gram.value) == str(one.value)


def test_gram_nonfinite_term_raises_at_the_first_pair_that_meets_it(monkeypatch):
    # degree 2 is non-finite at the lattice points ±0.22^4: (2, 0) is the
    # first pair in order that meets it, after three pairs that pass
    ladder = quadrature.gdqh2_recurrence_ladder

    def poisoned(n, x, y, p):
        out = ladder(n, x, y, p)
        if mpf("0.002") < abs(x) < mpf("0.003") and n >= 2:
            out[2] = mp.nan
        return out

    monkeypatch.setattr(quadrature, "gdqh2_recurrence_ladder", poisoned)
    p = QParams(mpf("0.22"), mpf(0))
    lat = default_lattice(p.q)
    assert all(r.passed for r in _one_pair_walk(1, p, lat=lat))
    with pytest.raises(EvaluationError) as one:
        orthogonality_check(2, 0, p, lat=lat)
    with pytest.raises(EvaluationError) as gram:
        orthogonality_gram(2, p, lat=lat)
    assert str(gram.value) == str(one.value)


def test_gram_rhs_once_per_degree(monkeypatch):
    calls = []
    rhs = quadrature.orthogonality_rhs
    monkeypatch.setattr(quadrature, "orthogonality_rhs",
                        lambda n, p, trunc=None: calls.append(n) or rhs(n, p, trunc))
    assert len(orthogonality_gram(3, QParams(mpf("0.22"), mpf(0)))) == 10
    assert sorted(calls) == [0, 1, 2, 3]
    assert orthogonality_gram(-1, QParams(mpf("0.22"), mpf(0))) == []


def test_gram_builds_one_ladder_per_lattice_point(monkeypatch):
    calls = []
    ladder = quadrature.gdqh2_recurrence_ladder
    monkeypatch.setattr(quadrature, "gdqh2_recurrence_ladder",
                        lambda *a: calls.append(a[1]) or ladder(*a))
    p = QParams(mpf("0.22"), mpf("0.7"))
    lat = default_lattice(p.q)
    assert len(orthogonality_gram(3, p, lat=lat)) == 10
    assert len(calls) == lat.k_max - lat.k_min + 1
    assert all(x > 0 for x in calls)
