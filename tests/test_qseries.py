"""Basic hypergeometric engine, q-exponentials, q-trig, q-Bessel."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qhermite.errors import DivergenceError, DomainError, PoleError
from qhermite.qcore import (
    QParams,
    Truncation,
    hahn_add_power,
    q_pochhammer,
)
from qhermite.qseries import (
    PhiSpec,
    euler_E,
    euler_e,
    gen_E,
    gen_e,
    phi,
    phi_rs,
    q_bessel2,
    q_cos_alpha,
    q_sin_alpha,
)
from qhermite.scalars import qpow

qs = st.floats(min_value=0.1, max_value=0.9)


# --- the phi engine -------------------------------------------------------------


def test_phi10_q_binomial_theorem_terminating():
    # 1phi0(q^-n; -; q, z) = (q^-n z; q)_n.  Exact rationals end to end.
    q, z, n = F(1, 2), F(3, 10), 2
    got = phi((qpow(q, -2),), (), q, z, terminate_at=n)
    want = q_pochhammer(qpow(q, -n) * z, q, n)
    assert got == want
    # and at z = q^n the product has a unit factor: value is exactly 0
    assert phi((qpow(q, -2),), (), q, q ** 2, terminate_at=2) == 0


def test_phi_auto_termination_detection():
    q = mpf("0.5")
    a = phi((q ** -5,), (q ** 2,), q, mpf("0.7"), terminate_at=5)
    b = phi((q ** -5,), (q ** 2,), q, mpf("0.7"))  # detected from the parameter
    assert a == b


def test_phi_pole_in_lower_parameter():
    q = mpf("0.5")
    # lower parameter q^-3 hits a zero denominator at k = 4 <= n = 6
    with pytest.raises(PoleError):
        phi((q ** -6,), (q ** -3,), q, mpf("0.2"), terminate_at=6)
    # ...but a pole beyond the truncation range is harmless
    phi((q ** -2,), (q ** -9,), q, mpf("0.2"), terminate_at=2)


def test_phi_divergence_rules():
    q = mpf("0.5")
    with pytest.raises(DivergenceError):   # r > s + 1, non-terminating
        phi((mpf("0.3"), mpf("0.4"), mpf("0.5")), (mpf("0.6"),), q, mpf("0.1"))
    with pytest.raises(DivergenceError):   # r = s + 1 needs |z| < 1
        phi((mpf("0.3"),), (), q, mpf("1.5"))


def test_phi_rs_reports_terms_and_tail():
    q = mpf("0.5")
    sv = phi_rs(PhiSpec(upper=(q ** -4,), lower=(q,), q=q, z=mpf("0.3"),
                        terminate_at=4))
    assert sv.terms_used == 5
    assert sv.tail_estimate == 0


def test_phi_exact_backend_requires_termination():
    with pytest.raises(DivergenceError):
        phi((F(1, 3),), (), F(1, 2), F(1, 4))


# --- q-exponentials -------------------------------------------------------------


def test_euler_E_is_product():
    # E_q(x) = (-x; q)_inf : series engine vs infinite product
    q = mpf("0.5")
    for x in (mpf("0.3"), mpf(1), mpf("-0.4"), mpf(3)):
        assert abs(euler_E(x, q) - q_pochhammer(-x, q, None)) < mpf("1e-45")


def test_euler_e_is_reciprocal_product():
    q = mpf("0.5")
    for x in (mpf("0.3"), mpf("0.9"), mpf("-0.4")):
        assert abs(euler_e(x, q) * q_pochhammer(x, q, None) - 1) < mpf("1e-45")
    with pytest.raises(DomainError):
        euler_e(mpf("1.1"), q)


def test_euler_pair_inverse():
    q = mpf("0.7")
    x = mpf("0.55")
    assert abs(euler_e(x, q) * euler_E(-x, q) - 1) < mpf("1e-45")


def test_gen_exponentials_reduce_at_minus_half():
    p = QParams(mpf("0.5"), mpf("-0.5"))
    x = mpf("0.3")
    assert abs(gen_E(x, p) - euler_E(x, mpf("0.5"))) < mpf("1e-45")
    assert abs(gen_e(x, p) - euler_e(x, mpf("0.5"))) < mpf("1e-45")


def test_gen_exponential_product_inverse():
    # gen_e_{q^2,a}(x) * gen_E_{q^2,a}(-x) = 1 at a = -1/2
    p = QParams(mpf("0.6"), mpf("-0.5"))
    x = mpf("0.42")
    assert abs(gen_e(x, p, m=2) * gen_E(-x, p, m=2) - 1) < mpf("1e-45")


def test_hahn_addition_theorem_for_exponentials():
    # e~_{q^2}(x) E~_{q^2}(y) = sum_n (x (+)_{q^2} y)^n / (q^2;q^2)_n
    q2 = mpf("0.25")
    p = QParams(mpf("0.5"), mpf("-0.5"))
    x, y = mpf("0.35"), mpf("0.6")
    lhs = gen_e(x, p, m=2) * gen_E(y, p, m=2)
    total = mpf(0)
    poch = mpf(1)
    for n in range(0, 220):
        if n > 0:
            poch *= 1 - q2 ** n
        term = hahn_add_power(x, y, q2, n) / poch
        total += term
        if n > 10 and abs(term) < mpf("1e-70"):
            break
    assert abs(lhs - total) < mpf("1e-45")


# --- q-Bessel and q-trig ---------------------------------------------------------


def _bessel2_direct(nu, z, q):
    # (q^{nu+1};q)_inf/(q;q)_inf (z/2)^nu  sum_k q^{k(k-1)} (-z^2 q^{nu+1}/4)^k
    #                                         / [(q;q)_k (q^{nu+1};q)_k]
    front = (q_pochhammer(q ** (nu + 1), q, None) / q_pochhammer(q, q, None)
             * (z / 2) ** nu)
    total = mpf(0)
    pq = pnu = mpf(1)
    for k in range(0, 200):
        if k > 0:
            pq *= 1 - q ** k
            pnu *= 1 - q ** (nu + k)
        term = (q ** (k * (k - 1)) * (-z * z * q ** (nu + 1) / 4) ** k
                / (pq * pnu))
        total += term
        if k > 8 and abs(term) < mpf("1e-75"):
            break
    return front * total


def test_q_bessel2_vs_direct_sum():
    q = mpf("0.5")
    for nu in (mpf(0), mpf("0.5"), mpf(2), mpf("1.3")):
        for z in (mpf("0.4"), mpf("1.7")):
            got = q_bessel2(nu, z, q)
            want = _bessel2_direct(nu, z, q)
            assert abs(got - want) <= mpf("1e-44") * max(1, abs(want))


def test_q_bessel2_edge_cases():
    q = mpf("0.5")
    assert q_bessel2(mpf(0), mpf(0), q) == 1
    assert q_bessel2(mpf(2), mpf(0), q) == 0
    with pytest.raises(DomainError):
        q_bessel2(mpf("0.5"), mpf("-1"), q)   # (z/2)^nu branch
    assert mp.isfinite(q_bessel2(mpf(3), mpf("-1"), q))  # integer order is fine


def test_q_trig_series_vs_phi():
    for alpha in (mpf(0), mpf("0.25"), mpf("1.5")):
        p = QParams(mpf("0.5"), alpha)
        for x in (mpf("0.3"), mpf("0.9"), mpf("-0.7")):
            c1 = q_cos_alpha(x, p)
            c2 = q_cos_alpha(x, p, rep="phi")
            s1 = q_sin_alpha(x, p)
            s2 = q_sin_alpha(x, p, rep="phi")
            assert abs(c1 - c2) < mpf("1e-44")
            assert abs(s1 - s2) < mpf("1e-44")


def test_q_trig_at_zero_and_parity():
    p = QParams(mpf("0.5"), mpf("0.25"))
    assert q_cos_alpha(mpf(0), p) == 1
    assert q_sin_alpha(mpf(0), p) == 0
    x = mpf("0.6")
    assert abs(q_cos_alpha(-x, p) - q_cos_alpha(x, p)) < mpf("1e-46")
    assert abs(q_sin_alpha(-x, p) + q_sin_alpha(x, p)) < mpf("1e-46")


@given(q=qs, x=st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_euler_product_pair_property(q, x):
    q, x = mpf(q), mpf(x)
    assert abs(euler_e(x, q) * euler_E(-x, q) - 1) < mpf("1e-40")


def test_near_terminating_parameter_is_summed_as_non_terminating():
    # a = q^-2 (1 + 1e-13) is not q^-2 at 50 digits: the q-binomial theorem
    # gives (a z; q)_inf / (z; q)_inf, not the 3-term polynomial
    q, z = mpf("0.5"), mpf("0.3")
    a = q ** -2 * (1 + mpf("1e-13"))
    s = phi_rs(PhiSpec((a,), (), q, z))
    assert s.terms_used > 3 and s.tail_estimate > 0
    ref = mp.qp(a * z, q) / mp.qp(z, q)
    assert abs(s.value - ref) <= mpf("1e-45") * abs(ref)


@pytest.mark.parametrize("dps", [15, 50, 120])
def test_exact_negative_power_still_terminates(dps):
    with mp.workdps(dps):
        q, z = mpf("0.37"), mpf("0.3")
        s = phi_rs(PhiSpec((qpow(q, -7),), (), q, z))
        assert s.terms_used == 8 and s.tail_estimate == 0
        ref = q_pochhammer(qpow(q, -7) * z, q, 7)
        assert abs(s.value - ref) <= 100 * mp.eps * abs(ref)
