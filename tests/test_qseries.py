"""Basic hypergeometric engine, q-exponentials, q-trig, q-Bessel.

The big q-exponential E_q and the generalized small q-exponential live here
as test-local oracles: no library path uses them, and they pair with the
library's e_q and generalized big exponential in the inverse-pair identities.
"""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qhermite import qcore, qseries
from qhermite.errors import ConvergenceError, DivergenceError, DomainError, PoleError
from qhermite.polyfam import q_laguerre
from qhermite.qcore import (
    QParams,
    Truncation,
    gen_q_shifted_factorial,
    hahn_add_power,
    q_pochhammer,
    shared_scope,
)
from qhermite.qseries import (
    PhiSpec,
    SeriesValue,
    euler_e,
    gen_E,
    phi,
    phi_rs,
    q_bessel2,
    q_cos_alpha,
    q_sin_alpha,
)
from qhermite.scalars import CompensatedSum, qpow, to_mpf, unify

qs = st.floats(min_value=0.1, max_value=0.9)


def euler_E(x, q):
    """Big q-exponential E_q(x) = sum q^C(k,2) x^k / (q;q)_k = (-x;q)_inf,
    as the 0-phi-0 series."""
    return phi((), (), to_mpf(q), -to_mpf(x))


def gen_e(x, p: QParams):
    """Generalized small q-exponential sum_k x^k / (q;q)_{k,alpha}, |x| < 1,
    as its even and odd halves with b = q^(2a+2):
      2-phi-1(0, 0; b; q^2, x^2) + x/(1-b) * 2-phi-1(0, 0; b q^2; q^2, x^2)."""
    x, q, alpha = (to_mpf(v) for v in unify(x, p.q, p.alpha))
    assert abs(x) < 1
    b, bq2 = qpow(q, 2 * alpha + 2), qpow(q, 2 * alpha + 4)
    return (phi((0, 0), (b,), q * q, x * x)
            + x / (1 - b) * phi((0, 0), (bq2,), q * q, x * x))


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
    # on the exact backend 32 = (1/2)^-5 exactly: the 1-phi-0 stops after 6
    # terms and is the q-binomial product (q^-5 z; q)_5
    sv = phi_rs(PhiSpec((F(32),), (), F(1, 2), F(3, 10)))
    assert sv.terms_used == 6 and sv.tail_estimate == 0
    assert sv.value == q_pochhammer(F(48, 5), F(1, 2), 5) == F(11438, 3125)


def test_phi_pole_in_lower_parameter():
    q = mpf("0.5")
    # lower parameter q^-3 hits a zero denominator at k = 4 <= n = 6
    with pytest.raises(PoleError):
        phi((q ** -6,), (q ** -3,), q, mpf("0.2"), terminate_at=6)
    # ...but a pole beyond the truncation range is harmless
    phi((q ** -2,), (q ** -9,), q, mpf("0.2"), terminate_at=2)
    # the pole is found where q^-3 is no binary fraction too, built by qpow
    q = mpf("0.37")
    with pytest.raises(PoleError):
        phi((qpow(q, -6),), (qpow(q, -3),), q, mpf("0.2"), terminate_at=6)


def test_phi_rejects_a_negative_terminate_at():
    with pytest.raises(DomainError, match=r"^terminate_at must be >= 0: got -1$"):
        PhiSpec((mpf("0.5"),), (), mpf("0.5"), mpf("0.2"), terminate_at=-1)


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


def test_euler_e_near_its_radius_is_the_reciprocal_product():
    # x = 0.99 at q = 0.999: the series would need far more than 100,000
    # terms; the product takes a few thousand factors and a short series.
    # The oracle is mpmath.qp's product of the first 5000 factors, times
    # (z; q)_inf = exp(-sum_m z^m / (m (1 - q^m))) at z = x q^5000 < 0.007
    # for the rest, which mpmath.qp would take in 300,000 more factors
    x, q = mpf("0.99"), mpf("0.999")
    with mp.workdps(mp.dps + 40):
        z = x * q ** 5000
        rest = mp.exp(-mp.fsum(z ** m / (m * (1 - q ** m))
                               for m in range(1, 70)))
        want = 1 / (mpmath.qp(x, q, 5000, maxterms=5000) * rest)
    got = euler_e(x, q)
    assert abs(got - want) <= mpf(10) ** (1 - mp.dps) * want


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
    p = QParams(mpf("0.6") ** 2, mpf("-0.5"))
    x = mpf("0.42")
    assert abs(gen_e(x, p) * gen_E(-x, p) - 1) < mpf("1e-45")


def test_hahn_addition_theorem_for_exponentials():
    # e~_{q^2}(x) E~_{q^2}(y) = sum_n (x (+)_{q^2} y)^n / (q^2;q^2)_n
    q2 = mpf("0.25")
    p = QParams(q2, mpf("-0.5"))
    x, y = mpf("0.35"), mpf("0.6")
    lhs = gen_e(x, p) * gen_E(y, p)
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


# each function as its defining series sum_k c_k x^k / (q;q)_{k,alpha} over
# the k it keeps, and as its even/odd 0-phi-1 / 2-phi-1 halves in base q^2
# with b = q^(2a+2), summed by mpmath.qhyper
_DEFINING = {
    q_cos_alpha: lambda k, q: (-1) ** (k // 2) * q ** (k * (k - 1) // 2) * (1 - k % 2),
    q_sin_alpha: lambda k, q: (-1) ** (k // 2) * q ** (k * (k - 1) // 2) * (k % 2),
    gen_E: lambda k, q: q ** (k * (k - 1) // 2),
    gen_e: lambda k, q: 1,
}
_HALVES = {
    q_cos_alpha: ((), lambda q, x: -q * x * x, None),
    q_sin_alpha: ((), None, lambda q, x: -q ** 3 * x * x),
    gen_E: ((), lambda q, x: q * x * x, lambda q, x: q ** 3 * x * x),
    gen_e: ((0, 0), lambda q, x: x * x, lambda q, x: x * x),
}


def _defining_sum(fn, x, p):
    # up to two consecutive terms below 1e-75: the trig series skip every
    # other k
    total, small, k = mpf(0), 0, 0
    while small < 2:
        term = _DEFINING[fn](k, p.q) * x ** k / gen_q_shifted_factorial(k, p)
        total += term
        small = small + 1 if abs(term) < mpf("1e-75") else 0
        k += 1
    return total


def _qhyper_halves(fn, x, p):
    q = p.q
    b = q ** (2 * p.alpha + 2)
    upper, z_even, z_odd = _HALVES[fn]
    total = mpf(0)
    if z_even:
        total += mp.qhyper(upper, [b], q * q, z_even(q, x))
    if z_odd:
        total += x / (1 - b) * mp.qhyper(upper, [b * q * q], q * q, z_odd(q, x))
    return total


@pytest.mark.parametrize("fn", list(_DEFINING), ids=lambda f: f.__name__)
@pytest.mark.parametrize("alpha", ["-0.9", "0", "1.5"])
def test_q_exp_trig_vs_independent_sums(fn, alpha):
    # gen_e needs |x| < 1 and its defining sum about 70/log10(1/|x|) terms
    p = QParams(mpf("0.5"), mpf(alpha))
    for x in ((mpf("0.3"), mpf("-0.4")) if fn is gen_e
              else (mpf("0.3"), mpf("-0.55"), mpf("0.9"))):
        got = fn(x, p)
        with mp.workdps(mp.dps + 20):
            want_sum = _defining_sum(fn, x, p)
            want_qhyper = _qhyper_halves(fn, x, p)
        for want in (want_sum, want_qhyper):
            assert abs(got - want) <= mpf("1e-45") * max(1, abs(want))


@pytest.mark.parametrize("fn", list(_DEFINING), ids=lambda f: f.__name__)
def test_q_exp_trig_exact_inputs_equal_mpf_inputs(fn):
    for x, q, alpha in ((F(3, 10), F(1, 2), F(3, 2)), (F(-11, 20), F(2, 5), F(-9, 10))):
        got = fn(x, QParams(q, alpha))
        assert got == fn(to_mpf(x), QParams(to_mpf(q), to_mpf(alpha)))
        assert isinstance(got, mpf)


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
    # a = q^-m (1 + off) is not q^-m at 50 digits: the q-binomial theorem
    # gives (a z; q)_inf / (z; q)_inf, not the (m+1)-term polynomial.  The
    # second a is four ulps off qpow(q, -5): termination takes bit equality,
    # not a match within a tolerance
    z = mpf("0.3")
    for q, m, off in ((mpf("0.5"), 2, mpf("1e-13")), (mpf("0.37"), 5, 4 * mp.eps)):
        a = qpow(q, -m) * (1 + off)
        s = phi_rs(PhiSpec((a,), (), q, z))
        assert s.terms_used > m + 1 and s.tail_estimate > 0
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


# --- the raw float summation loop ------------------------------------------------


def reference_phi_rs(spec: PhiSpec, trunc=None) -> SeriesValue:
    """phi_rs by mpf expressions, the reference of its one loop: the same
    pole and divergence rules, then a CompensatedSum of term-ratio steps."""
    tr = trunc or Truncation()
    r, s = len(spec.upper), len(spec.lower)
    vals = unify(spec.q, spec.z, *spec.upper, *spec.lower)
    q, z, upper, lower = vals[0], vals[1], vals[2:2 + r], vals[2 + r:]
    n_term = spec.terminate_at
    if n_term is None:
        hits = (qseries._neg_q_power_index(a, q) for a in upper)
        n_term = min((m for m in hits if m is not None), default=None)
    for b in lower:
        mb = qseries._neg_q_power_index(b, q)
        assert mb is None or (n_term is not None and mb >= n_term)
    assert n_term is not None or r < s + 1 or abs(z) < 1
    power_exponent = 1 + s - r
    tail_tol = tr.effective_tail_tol()
    total = CompensatedSum(q - q)
    term = q - q + 1
    total.add(term)
    qk = q - q + 1
    k = 0
    while True:
        if n_term is not None and k >= n_term:
            return SeriesValue(total.total, k + 1, q - q)
        if k + 1 >= tr.max_terms:
            raise ConvergenceError(
                "phi series needed more than max_terms=%d terms (last |term|=%s)"
                % (tr.max_terms, abs(to_mpf(term))))
        ratio = z / (1 - q * qk)
        for a in upper:
            ratio *= 1 - a * qk
        for b in lower:
            denom = 1 - b * qk
            if denom == 0:
                raise PoleError("lower parameter %s hits a pole at k=%d" % (b, k + 1))
            ratio /= denom
        if power_exponent:
            ratio *= ((-1) ** power_exponent) * qpow(qk, power_exponent)
        term = term * ratio
        total.add(term)
        qk *= q
        k += 1
        if n_term is None and abs(to_mpf(term)) < tail_tol:
            rho = abs(to_mpf(ratio))
            if rho < 1:
                tail = abs(to_mpf(term)) * rho / (1 - rho)
                if tail < tail_tol:
                    return SeriesValue(total.total, k + 1, tail)


def _wide(value):
    """value - 1e-(dps+60), with more bits than the working precision holds."""
    with mp.workdps(mp.dps + 70):
        return mpf(value) - mpf(10) ** -(mp.dps + 60)


def _phi_cases():
    """Terminating sums: the phi and Laguerre forms, a 2-phi-0 (1+s-r = -1)
    and an upper q^(-m) found by its exact value, then the exact cases."""
    q, x = mpf("0.68"), mpf("0.9")
    q2, b = q * q, qpow(q, 2 * mpf("0.37") + 2)
    m = 6
    return [
        PhiSpec((qpow(q, -2 * m), qpow(q, -2 * m - mpf("0.74"))), (0,), q2,
                -mpf("0.4") * qpow(q, mpf("3.74")) / (x * x), terminate_at=m),
        PhiSpec((qpow(q2, -m),), (b,), q2, -qpow(q2, m) * b * x, terminate_at=m),
        PhiSpec((qpow(q, -5), _wide("0.3")), (), q, mpf("0.2"), terminate_at=5),
        PhiSpec((qpow(q, -7),), (_wide("0.5"),), q, mpf("-1.3")),
    ] + _exact_phi_cases()


def _convergent_phi_cases():
    """Non-terminating sums: 0-phi-1 (1+s-r = 2), 1-phi-0 (0), 0-phi-0 (1),
    1-phi-1, 2-phi-1, with operands wider than the working precision."""
    q, x = mpf("0.68"), mpf("0.9")
    q2, b = q * q, qpow(q, 2 * mpf("0.37") + 2)
    return [
        PhiSpec((), (b,), q2, -q * x * x),
        PhiSpec((0,), (), q2, mpf("-0.05")),
        PhiSpec((), (), q, mpf("-0.8")),
        PhiSpec((_wide("0.4"),), (_wide("0.25"),), q, _wide("0.7")),
        PhiSpec((0, _wide("-0.6")), (b,), q2, mpf("0.09")),
    ]


def _exact_phi_cases():
    """Terminating sums on Fractions: the same loop run exactly."""
    q, x = F(17, 25), F(9, 10)
    q2, b, m = q * q, q ** 3, 6
    return [
        PhiSpec((q ** (-2 * m), q ** (-2 * m - 1)), (0,), q2,
                F(-2, 5) * q ** 3 / (x * x), terminate_at=m),
        PhiSpec((q2 ** -m,), (b,), q2, -q2 ** m * b * x, terminate_at=m),
        PhiSpec((q ** -7,), (F(1, 2),), q, F(-13, 10)),
    ]


def _bits(series: SeriesValue) -> tuple:
    """A sum's raw bits, of mpf values, or type and value, of exact ones."""
    return tuple(getattr(v, "_mpf_", (type(v), v)) for v in
                 (series.value, series.terms_used, series.tail_estimate))


def test_exact_sum_with_a_negative_bracket_power_stays_exact():
    # a 2-phi-0 (1+s-r = -1) on Fractions is the Fraction sum of its terms;
    # (-1)^(1+s-r) taken as a Python power was the float -1.0, which made
    # the sum a float
    q, a, z = F(17, 25), (F(17, 25) ** -5, F(3, 10)), F(1, 5)
    got = phi_rs(PhiSpec(a, (), q, z, terminate_at=5))
    want = sum(q_pochhammer(a, q, k) / q_pochhammer(q, q, k) * z ** k
               / ((-1) ** k * q ** (k * (k - 1) // 2)) for k in range(6))
    assert type(got.value) is F and got.value == want


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_phi_rs_bit_identical_to_mpf_loop(dps):
    with mp.workdps(dps):
        for trunc in (None, Truncation(tail_tol=mpf("1e-30"))):
            for spec in _phi_cases():
                got, want = phi_rs(spec, trunc), reference_phi_rs(spec, trunc)
                assert _bits(got) == _bits(want), spec


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_convergent_phi_rs_matches_qhyper_at_40_more_digits(dps, monkeypatch):
    # a non-terminating sum on fixed-point ints is within 2^(1-prec) of
    # mpmath.qhyper at 40 more digits relative to the sum, plus 2 tail_tol
    # for its absolute stop rule, with a tail bound above 0 and below
    # tail_tol.  q_cos_alpha at q = 0.95, x = 10 has terms near 2^29 times
    # its value, past the guard bits, so it is summed twice, the second
    # time with those bits added
    loops = []
    loop = qseries._phi_loop
    monkeypatch.setattr(qseries, "_phi_loop",
                        lambda *a, **k: loops.append(k.get("wp")) or loop(*a, **k))
    with mp.workdps(dps):
        q, x = mpf("0.95"), mpf("10")
        p = QParams(q, mpf(0))
        cancelling = PhiSpec((), (qpow(q, 2 * p.alpha + 2),), q * q, -q * x * x)
        for trunc in (None, Truncation(tail_tol=mpf("1e-30"))):
            tail = (trunc or Truncation()).effective_tail_tol()
            for spec in _convergent_phi_cases() + [cancelling]:
                loops.clear()
                got = phi_rs(spec, trunc)
                bound = mpf(2) ** (1 - mp.prec)
                with mp.workdps(dps + 40):
                    want = mp.qhyper(spec.upper, spec.lower, spec.q, spec.z)
                    assert abs(got.value - want) <= bound * abs(want) + 2 * tail, spec
                assert 0 < got.tail_estimate < tail
                assert len(loops) == 1 + (spec is cancelling), spec
                assert loops[-1] > mp.prec + 32
            assert q_cos_alpha(x, p) == phi_rs(cancelling).value


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_phi_rs_errors_match_mpf_loop(dps):
    # the max_terms message prints the last |term| as the mpf loop had it;
    # an in-loop pole is a lower parameter 1/q^m that is not qpow(q, -m)
    # bit for bit, so the exact pre-check passes it and the running q^m
    # meets it
    with mp.workdps(dps):
        q = mpf("0.3")
        capped = (PhiSpec((), (mpf("0.5"),), q, mpf("7.5")), Truncation(max_terms=4))
        running, poles = mpf(1), []
        for m in range(1, 40):
            running *= q
            b = 1 / running
            if b != qpow(q, -m) and 1 - b * running == 0:
                poles.append((PhiSpec((), (b,), q, mpf("0.2")), None))
        assert poles
        for (spec, trunc), error in [(capped, ConvergenceError),
                                     (poles[0], PoleError)]:
            with pytest.raises(error) as want:
                reference_phi_rs(spec, trunc)
            with pytest.raises(error) as got:
                phi_rs(spec, trunc)
            assert str(got.value) == str(want.value)


def test_phi_rs_in_a_scope_gives_the_bits_of_a_sum_outside_one():
    # a scope reads the factors that hold no z from one kept table per
    # (q, upper, lower) and precision: euler_e's 1-phi-0, a parity half's
    # 0-phi-1 and the phi form's terminating 2-phi-1 give the value, terms
    # and tail of a sum outside a scope, cold and warm, at 50 digits, at 80
    # with tables of their own, and at 50 again
    q, x, m = mpf("0.68"), mpf("0.9"), 6
    q2, b = q * q, qpow(q, 2 * mpf("0.37") + 2)
    specs = [
        PhiSpec((mpf(0),), (), q, mpf("0.4")),
        PhiSpec((), (b,), q2, q * x * x),
        PhiSpec((qpow(q, -2 * m), qpow(q, -2 * m - mpf("0.74"))), (mpf(0),), q2,
                -mpf("0.4") * qpow(q, mpf("3.74")) / (x * x), terminate_at=m),
    ]

    def bits(sv):
        return sv.value._mpf_, sv.terms_used, sv.tail_estimate._mpf_

    qcore._kept.cache_clear()
    for dps in (50, 80, 50):
        with mp.workdps(dps):
            want = [bits(phi_rs(spec)) for spec in specs]
            for _ in range(2):  # cold at the first dps, then warm
                with shared_scope():
                    assert [bits(phi_rs(spec)) for spec in specs] == want
    assert qcore._kept.cache_info().hits


def test_phi_rs_outside_a_scope_keeps_nothing_and_gives_the_scoped_bits():
    # with no scope open a sum builds its factor table for itself: the kept
    # cache is not read or written, cold or warm, and the value, terms and
    # tail are those of the sum in a scope, for a convergent 0-phi-1, a
    # terminating 1-phi-1 and q_laguerre's phi21 form, whose upper -x holds
    # a point
    q, x = mpf("0.68"), mpf("0.9")
    b = qpow(q, 2 * mpf("0.37") + 2)
    specs = [PhiSpec((), (b,), q * q, q * x * x),
             PhiSpec((qpow(q, -5),), (b,), q, -mpf("0.3"), terminate_at=5)]

    def bits():
        sums = [phi_rs(spec) for spec in specs]
        return ([(sv.value._mpf_, sv.terms_used, sv.tail_estimate._mpf_)
                 for sv in sums],
                q_laguerre(4, mpf("0.37"), x, q, rep="phi21")._mpf_)

    qcore._kept.cache_clear()
    for _ in range(2):  # cold, then with the scoped tables kept
        before = qcore._kept.cache_info()
        direct = bits()
        assert qcore._kept.cache_info() == before
        with shared_scope():
            assert bits() == direct
    assert qcore._kept.cache_info().hits


def test_phi21_tables_end_with_their_scope(monkeypatch):
    # q_laguerre's phi21 form sums a phi whose upper -x holds a point: its
    # factor table is shared, so a scope builds one per x and keeps none of
    # them in qcore._kept past its end, and the bits are those of the same
    # calls outside any scope
    builds = []
    factors = qseries._phi_factors
    monkeypatch.setattr(qseries, "_phi_factors",
                        lambda q, upper, lower, *wp: builds.append(upper[1])
                        or factors(q, upper, lower, *wp))
    q, alpha = mpf("0.3"), mpf("1.2")
    xs = [mpf("0.8"), mpf("-1.5"), mpf("2.25")]

    def values():
        return [q_laguerre(3, alpha, x, q, rep="phi21")._mpf_ for x in xs]

    qcore._kept.cache_clear()
    direct = values()
    for _ in range(2):  # the second scope finds none of the first's tables
        builds.clear()
        with shared_scope():
            assert values() == direct and values() == direct
        assert builds == [-x for x in xs]
    assert values() == direct


def test_phi21_keeps_no_factor_table_that_holds_x(monkeypatch):
    # in a scope, q_laguerre's phi21 form keeps its row of (n, alpha, q) but
    # no factor table of its sum, whose upper parameter -x holds the point
    reached = []
    kept = qcore._kept
    monkeypatch.setattr(qcore, "_kept",
                        lambda f, prec, *args: reached.append((f, args))
                        or kept(f, prec, *args))
    q, alpha = mpf("0.3"), mpf("1.2")
    xs = [mpf("0.8"), mpf("-1.5")]
    with shared_scope():
        for x in xs:
            q_laguerre(3, alpha, x, q, rep="phi21")
    assert "_q_laguerre_row" in {f.__name__ for f, _ in reached}
    held = {(-x)._mpf_ for x in xs}
    assert not [(f.__name__, args) for f, args in reached
                if f is qseries._phi_factors
                and any(getattr(a, "_mpf_", None) in held for a in args[1])]


def test_phi_rs_in_a_scope_raises_the_poles_of_a_sum_outside_one():
    # a lower parameter q^-m, found exactly or met by the running q^k, is
    # the same PoleError at the same k in a scope, cold and warm, as outside
    q = mpf("0.3")
    running, specs = mpf(1), [PhiSpec((qpow(q, -6),), (qpow(q, -3),), q,
                                      mpf("0.2"), terminate_at=6)]
    for m in range(1, 40):
        running *= q
        b = 1 / running
        if b != qpow(q, -m) and 1 - b * running == 0:
            specs.append(PhiSpec((), (b,), q, mpf("0.2")))
            break
    assert len(specs) == 2

    def message(spec):
        with pytest.raises(PoleError) as err:
            phi_rs(spec)
        return str(err.value)

    want = [message(spec) for spec in specs]
    assert "hits a pole at k=" in want[1]
    qcore._kept.cache_clear()
    for _ in range(2):
        with shared_scope():
            assert [message(spec) for spec in specs] == want
