"""q-Pochhammer symbols, generalized factorials and Hahn q-addition.

The Gaussian binomial, the sum form of the Hahn power and the closed form of
the generalized factorial live here as test-local oracles: no library path
uses them, and each checks one library function by another route.
"""

import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import count, product

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import round_nearest

from qhermite import identities, polyfam, qcore, qseries, quadrature
from qhermite.errors import ConvergenceError, DomainError, ExactBackendError
from qhermite.identities import IdentityGrid, run_identity_suite
from qhermite.polyfam import gdqh2_recurrence_ladder
from qhermite.qcore import (
    QParams,
    Truncation,
    _gen_q_shifted_prefix,
    _infinite_product,
    _products,
    gen_q_shifted_factorial,
    hahn_add_power,
    kept,
    q_pochhammer,
    shared,
    shared_scope,
)
from qhermite.quadrature import orthogonality_rhs
from qhermite.scalars import (EXACT, GUARD_BITS, CompensatedSum, arithmetic,
                              qpow, to_mpf, unify)

qs = st.floats(min_value=0.05, max_value=0.95)
alphas = st.floats(min_value=-0.9, max_value=3.0)
reals = st.floats(min_value=-2.0, max_value=2.0)


def q_binomial(n: int, k: int, q):
    """Gaussian binomial [n choose k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    (q,) = unify(q)
    return (q_pochhammer(q, q, n) / q_pochhammer(q, q, k)
            / q_pochhammer(q, q, n - k))


def hahn_add_power_sum(x, y, q, n: int):
    """(x (+)_q y)^n by its expansion sum_k [n,k]_q q^C(k,2) x^(n-k) y^k."""
    x, y, q = unify(x, y, q)
    total = CompensatedSum(q - q)
    for k in range(n + 1):
        total.add(q_binomial(n, k, q) * qpow(q, k * (k - 1) // 2)
                  * qpow(x, n - k) * qpow(y, k))
    return total.total


def gen_q_shifted_factorial_closed_form(n: int, p: QParams):
    """(q;q)_{n,alpha} by its closed form:
        (q;q)_{2m,alpha}   = (q^2;q^2)_m (q^(2a+2);q^2)_m
        (q;q)_{2m+1,alpha} = (q^2;q^2)_m (q^(2a+2);q^2)_{m+1}"""
    q, alpha = unify(p.q, p.alpha)
    q2 = q * q
    half, rem = divmod(n, 2)
    return (q_pochhammer(q2, q2, half)
            * q_pochhammer(qpow(q, 2 * alpha + 2), q2, half + rem))


def test_qparams_validation():
    QParams(mpf("0.5"), mpf("0.25"))
    with pytest.raises(DomainError, match=r"q out of range \(0,1\)"):
        QParams(mpf("1.5"), mpf(0))
    with pytest.raises(DomainError, match=r"q out of range \(0,1\)"):
        QParams(mpf(0), mpf(0))
    with pytest.raises(DomainError, match="alpha out of range"):
        QParams(mpf("0.5"), mpf(-1))
    with pytest.raises(DomainError, match=r"alpha out of range \(-1, inf\)"):
        QParams(mpf("0.5"), mpf("inf"))


def test_truncation_validation():
    with pytest.raises(DomainError):
        Truncation(max_terms=0)
    with pytest.raises(DomainError):
        Truncation(tail_tol=mpf(0))
    # a cap that is not an int would fail only inside the first sum or
    # product that reads it, as a TypeError or an AttributeError
    for cap in (2.5, mpf(3), F(3)):
        with pytest.raises(DomainError, match="max_terms must be an int"):
            Truncation(max_terms=cap)


def test_unset_tail_tol_resolves_at_the_reading_precision():
    # a Truncation built only to change the cap keeps tail_tol unset, and
    # each sum reads 10^-(dps+10) at its own working digits, a precision
    # met again included
    trunc = Truncation(max_terms=5)
    assert trunc.tail_tol is None
    for dps in (15, 50, 70, 50, 15):
        with mp.workdps(dps):
            want = (mpf(10) ** -(dps + 10))._mpf_
            assert trunc.effective_tail_tol()._mpf_ == want
    explicit = Truncation(tail_tol="1e-30")
    assert isinstance(explicit.tail_tol, mpf)
    with mp.workdps(70):
        assert explicit.effective_tail_tol() == explicit.tail_tol


@pytest.mark.parametrize("tail_tol", [mp.inf, "inf"], ids=["mpf", "str"])
def test_truncation_rejects_infinite_tail_tol(tail_tol):
    # an infinite tail_tol would stop every series after its first term
    with pytest.raises(DomainError, match="tail_tol must be finite"):
        Truncation(tail_tol=tail_tol)


def test_pochhammer_exact_small():
    # (1/2; 1/2)_2 = (1 - 1/2)(1 - 1/4) = 3/8
    assert q_pochhammer(F(1, 2), F(1, 2), 2) == F(3, 8)
    assert q_pochhammer(F(1, 2), F(1, 2), 0) == 1


def test_pochhammer_takes_one_scalar_a_and_an_int_n():
    # mpf reads an int pair as (mantissa, exponent): (3, 1) would be 6
    q = mpf("0.4")
    for n in (5, None):
        with pytest.raises(DomainError, match=r"^a must be a scalar: got \(3, 1\)$"):
            q_pochhammer((3, 1), q, n)
    with pytest.raises(DomainError, match=r"^n must be an int: got 2\.0$"):
        q_pochhammer(mpf("0.3"), q, 2.0)


@pytest.mark.parametrize("q", [0, 1, mpf("1.5"), mpf("-0.5"), F(3, 2)],
                         ids=["0", "1", "1.5", "-0.5", "3/2"])
def test_pochhammer_checks_q_at_every_n(q):
    # one q check serves the finite and the infinite product alike
    for n in (3, None):
        with pytest.raises(DomainError, match=r"^q out of range \(0,1\)"):
            q_pochhammer(mpf("0.5"), q, n)


def test_pochhammer_infinite_vs_partial_product():
    # (-1; 0.5)_inf by brute partial product, good to ~60 digits at k = 200
    q = mpf("0.5")
    brute = mpf(1)
    for k in range(200):
        brute *= 1 + q ** k
    got = q_pochhammer(mpf(-1), q, None)
    assert abs(got - brute) < mpf("1e-48")
    assert abs(got - mpf("4.768462058062743448299798577356794477543239033")) < mpf("1e-44")


def test_pochhammer_infinite_exact_backend_refuses():
    with pytest.raises(ExactBackendError):
        q_pochhammer(F(1, 2), F(1, 2), None)


def test_pochhammer_max_terms_exhausted():
    with pytest.raises(ConvergenceError):
        q_pochhammer(mpf("0.9999"), mpf("0.999999"), None,
                     trunc=Truncation(max_terms=10))


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
def test_pochhammer_infinite_rejects_a_non_finite_operand(a):
    # told before the first factor, however large the budget
    with pytest.raises(DomainError, match=r"needs a finite a: got a="):
        q_pochhammer(mpf(a), mpf("0.5"), None,
                     trunc=Truncation(max_terms=10 ** 9))


def qp_oracle(a, q):
    """(a; q)_inf by mpmath.qp at 120 digits, 40 above the most the tests
    ask.  The factors down to |a q^j| < 1 go to mpmath's finite product,
    because its infinite one returns 0 for (-2^800; 1/4)_inf."""
    with mp.workdps(120):
        j = 0
        while abs(a) * q ** j >= 1:
            j += 1
        return mpmath.qp(a, q, j) * mpmath.qp(a * q ** j, q, maxterms=10 ** 6)


def _ulps(got, exact):
    """|got - exact| in units of the last place of exact at mp.prec."""
    ulp = mpf(2) ** (mp.frexp(exact)[1] - mp.prec)
    with mp.workdps(120):
        return abs(got - exact) / ulp


def _wide(num, den):
    """num/den - 1e-110 at 120 digits: more bits than 50 digits hold."""
    with mp.workdps(120):
        return mpf(num) / den - mpf(10) ** -110


def _infinite_product_cases():
    rng = random.Random(20191)
    cases = [(mpf(rng.uniform(0.02, 0.97)),
              rng.choice((-1, 1)) * mpf(10) ** rng.uniform(-3, 3))
             for _ in range(16)]
    cases += [(mpf(q), mpf(a)) for q, a in (("0.9", "-7.5"), ("0.93", "0.8"),
                                            ("0.97", "3.1"), ("0.5", "0"))]
    wide = _wide(1, 3)
    cases += [(mpf("0.25"), a) for a in (-mpf(2) ** 800, wide, -wide,
                                         _wide(72, 997), mpf(1) / 7)]
    # the orthogonality weights' (-q^(-2a-1) x^2; q^2)_inf at lattice
    # points x = q^k toward both ends
    cases += [(q * q, -qpow(q, -2 * alpha - 1) * q ** (2 * k))
              for q in (mpf("0.2"), mpf("0.23"), mpf("0.25"), mpf("0.9"))
              for alpha in (mpf("-0.4"), mpf("1.5"))
              for k in (-12, 0, 6, 20)]
    return cases


def test_infinite_products_within_one_ulp_of_qp():
    # -2^800 is -q^(-2a-1) x^2 at x = 2^399, alpha = 0.5 in base q^2 = 1/4;
    # the _wide operands have more bits than any of these precisions hold
    cases = _infinite_product_cases()
    with mp.workdps(80):
        assert _wide(1, 3).man.bit_length() > mp.prec + GUARD_BITS
    exact = [qp_oracle(a, q) for q, a in cases]
    for dps in (50, 70, 80):
        with mp.workdps(dps):
            for (q, a), want in zip(cases, exact):
                got = _infinite_product(a, q)
                assert _ulps(got, want) <= 1, (dps, q, a)
                assert q_pochhammer(a, q, None)._mpf_ == got._mpf_


def test_infinite_product_keeps_a_zero_factor_exact():
    # 1 - a q^j = 0 at j = 2 and at j = 0: the product is exactly 0
    for a, q in ((4, "0.5"), (16, "0.25"), (1, "0.9")):
        assert _infinite_product(mpf(a), mpf(q)) == 0
        assert q_pochhammer(mpf(a), mpf(q), None) == 0


def _series_terms(tail):
    """The most terms Euler's series for the rest can take: term k is at most
    2^-k / k! in size, since |z| < (1 - q)/2 and 1 - q^i >= i (1 - q) q^(i-1),
    and the sum stops at the first term of at most tail/2."""
    k, term = 1, mpf(1) / 2
    while term > tail / 2:
        k += 1
        term /= 2 * k
    return k


def _factors(a, q):
    """How many factors 1 - a q^j have |a q^j| >= (1 - q)/2."""
    j = 0
    while abs(a) * q ** j >= (1 - q) / 2:
        j += 1
    return j


@pytest.mark.parametrize("q, a", [("0.99", "-40"), ("0.999", "0.5")])
def test_infinite_product_terms_are_bounded_near_q_one(q, a):
    # the plain product runs until |a q^j| < 10^-60: about 13,700 factors
    # at q = 0.99 and 138,000 at q = 0.999 for a = 0.5
    q, a = mpf(q), mpf(a)
    budget = _factors(a, q) + 1 + _series_terms(mpf(10) ** -(mp.dps + 10))
    got = _infinite_product(a, q, Truncation(max_terms=budget))
    if q < mpf("0.995"):  # mpmath's product of 30,000 factors, else 300,000
        assert _ulps(got, qp_oracle(a, q)) <= 1


def _terms_needed(a, q, tail_tol=None):
    """The least max_terms at which (a; q)_inf meets its tail tolerance."""
    for cap in count(1):
        try:
            _infinite_product(a, q, Truncation(max_terms=cap, tail_tol=tail_tol))
        except ConvergenceError:
            continue
        return cap


def test_infinite_product_honours_the_callers_tail_tol():
    # a stop rule read from the caller's tail_tol: within it, in fewer terms
    # than the default 10^-60 at 50 digits takes
    tol = mpf("1e-20")
    for q, a in ((mpf("0.5"), mpf("0.3")), (mpf("0.9"), mpf("-2.5"))):
        got = _infinite_product(a, q, Truncation(tail_tol=tol))
        want = qp_oracle(a, q)
        with mp.workdps(120):
            assert 0 < abs(got - want) <= tol * abs(want)
        assert _terms_needed(a, q, tol) < _terms_needed(a, q)


@pytest.mark.parametrize("q, a, cap", [("0.999999", "0.9999", 10),
                                       ("0.5", "0.3", 5)],
                         ids=["factors", "series"])
def test_infinite_products_max_terms_message(q, a, cap):
    # exhausted among the factors or in Euler's series: the message names
    # tail_tol, the cap and the next |a q^k|, at k = the cap either way
    q, a = mpf(q), mpf(a)
    for call in (partial(q_pochhammer, a, q, None),
                 partial(_infinite_product, a, q)):
        with pytest.raises(ConvergenceError) as got:
            call(trunc=Truncation(max_terms=cap))
        match = re.fullmatch(
            r"\(a;q\)_inf did not meet tail_tol=(\S+) within "
            r"max_terms=%d \(\|a q\^k\|=(\S+)\)" % cap, str(got.value))
        assert match, str(got.value)
        assert mpf(match[1]) == mpf(10) ** -(mp.dps + 10)
        assert abs(mpf(match[2]) / (a * q ** cap) - 1) < mpf(10) ** -45


@given(a=reals, q=qs, n=st.integers(min_value=0, max_value=12))
@settings(max_examples=40, deadline=None)
def test_pochhammer_recursion_property(a, q, n):
    a, q = mpf(a), mpf(q)
    lhs = q_pochhammer(a, q, n + 1)
    rhs = q_pochhammer(a, q, n) * (1 - a * q ** n)
    assert abs(lhs - rhs) <= mpf("1e-40") * max(1, abs(lhs))


def test_gen_q_shifted_factorial_frozen():
    p = QParams(F(1, 2), F(0))
    # n=1: 1 - q^(2a+2) = 3/4; n=2: (3/4)(1 - q^2) = 9/16
    assert gen_q_shifted_factorial(1, p) == F(3, 4)
    assert gen_q_shifted_factorial(2, p) == F(9, 16)


@given(q=qs, alpha=alphas, n=st.integers(min_value=0, max_value=16))
@settings(max_examples=40, deadline=None)
def test_gen_q_shifted_factorial_recursion_vs_closed(q, alpha, n):
    p = QParams(mpf(q), mpf(alpha))
    a = gen_q_shifted_factorial(n, p)
    b = gen_q_shifted_factorial_closed_form(n, p)
    assert abs(a - b) <= mpf("1e-45") * max(1, abs(a))


def test_gen_q_shifted_factorial_collapses_at_minus_half():
    p = QParams(F(2, 5), F(-1, 2))
    for n in range(9):
        assert gen_q_shifted_factorial(n, p) == q_pochhammer(F(2, 5), F(2, 5), n)


def test_q_binomial_frozen():
    # [4 choose 2]_q = (1+q+q^2)(1+q^2) = 35/16 at q = 1/2
    assert q_binomial(4, 2, F(1, 2)) == F(35, 16)
    assert q_binomial(5, 0, F(1, 2)) == 1
    assert q_binomial(3, 3, F(1, 2)) == 1


def test_hahn_add_power_frozen():
    # (1 (+) 1)^2 at q=1/2: (1+1)(1+1/2) = 3
    assert hahn_add_power(F(1), F(1), F(1, 2), 2) == 3
    assert hahn_add_power(F(2), F(3), F(1, 2), 0) == 1


def test_hahn_structural_zero():
    # first factor (x + y) with y = -x kills every power n >= 1, exactly
    for n in range(1, 6):
        assert hahn_add_power(F(-3, 7), F(3, 7), F(1, 2), n) == 0


@pytest.mark.parametrize("kind", ["pochhammer", "hahn"])
def test_finite_products_within_one_ulp(kind):
    # the running product keeps guard bits: (q;q)_100 and a Hahn power of 30
    # factors in base q^2, once rounded to the working precision, are within
    # 1 ulp of the same product of the same operands taken at 150 digits
    q = mpf("0.68")
    product, args = {
        "pochhammer": (q_pochhammer, (q, q, 100)),
        "hahn": (hahn_add_power, (mpf("0.3"), mpf("-0.9"), q * q, 30)),
    }[kind]
    got = product(*args)
    with mp.workdps(150):
        exact = product(*args)
    ulp = mpf(2) ** (mp.frexp(exact)[1] - mp.prec)
    assert abs(+got - exact) <= ulp  # +got: got rounded once to mp.prec


@given(x=reals, y=reals, q=qs, n=st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_hahn_product_vs_sum(x, y, q, n):
    x, y, q = mpf(x), mpf(y), mpf(q)
    a = hahn_add_power(x, y, q, n)
    b = hahn_add_power_sum(x, y, q, n)
    assert abs(a - b) <= mpf("1e-40") * max(1, abs(a))


def test_negative_n_rejected():
    # one rule and one message for every index the products take; at exact q
    # with 2 alpha not an integer, gen_q_shifted_factorial checks n before
    # its prefix takes q^(2 alpha + 1), which the exact backend rejects
    for call in (lambda: q_pochhammer(mpf(1), mpf("0.5"), -1),
                 lambda: gen_q_shifted_factorial(-1, QParams(F(1, 2), F(1, 3)))):
        with pytest.raises(DomainError, match=r"^n must be >= 0: got -1$"):
            call()


# --- the raw finite-product loop and the shared-value scope ------------------------


def reference_products(c, a, q, n: int, lift=1) -> list:
    """[P_0, ..., P_n] by the mpf expressions, the reference of the one loop
    on both backends."""
    c, a, q, lift = unify(c, a, q, lift)
    out = q - q + 1
    table = [out]
    with mp.workprec(mp.prec + GUARD_BITS):
        power = a
        for m in range(n):
            out *= c - (power if m & 1 else power * lift)
            table.append(out)
            power *= q
    return table


def _lift(q, alpha):
    """q^(2 alpha + 1) with the guard bits, as the generalized factorial takes it."""
    with mp.workprec(mp.prec + GUARD_BITS):
        return qpow(q, 2 * alpha + 1)


def _product_cases():
    q, e = mpf("0.68"), F(17, 25)
    lift = _lift(q, mpf("0.37"))
    wide = _wide(5, 7)  # more bits than the working precision holds
    return [(1, q, q, 40, 1), (1, q, q, 40, lift), (1, q * q, q * q, 20, 1),
            (mpf("0.3"), mpf("-0.9"), q * q, 30, 1), (wide, -wide, q, 12, wide),
            (0, mpf("1.7"), mpf("0.2"), 9, 1), (mpf(1), mpf(1), q, 5, 1),
            # exact: the same loop on Fractions, a lift of alpha = 1 and a
            # factor that vanishes exactly
            (1, e, e, 14, 1), (1, e, e, 14, e ** 3),
            (F(3, 10), F(-9, 10), e * e, 10, 1), (0, F(17, 10), F(1, 5), 9, 1),
            (1, 1, e, 5, 1)]


def _bits(values) -> list:
    """The raw bits of mpf values, the type and value of exact ones."""
    return [getattr(v, "_mpf_", (type(v), v)) for v in values]


def product_values(c, a, q, n: int, lift=1) -> list:
    """`_products`' rows through P_n, operands of their arithmetic, as values."""
    value = arithmetic(unify(c, a, q, lift)[2]).value
    return [value(v) for v in _products(c, a, q, n, lift)[:n + 1]]


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_finite_products_bit_identical_to_mpf_loop(dps):
    with mp.workdps(dps):
        for case in _product_cases():
            want = _bits(reference_products(*case))
            assert _bits(product_values(*case)) == want, case


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_scoped_table_prefix_equals_a_table_built_to_that_n(dps):
    # grown past a request or grown by one, a scoped table's prefix is the
    # table built to that n, bit for bit
    with mp.workdps(dps):
        for c, a, q, n, lift in _product_cases():
            want = [_bits(reference_products(c, a, q, k, lift))
                    for k in range(n + 1)]
            for order in (range(n + 1), reversed(range(n + 1))):
                qcore._kept.cache_clear()  # each order grows its own tables
                with shared_scope():
                    got = {k: _bits(product_values(c, a, q, k, lift))
                           for k in order}
                assert [got[k] for k in range(n + 1)] == want


def test_exact_and_float_operands_never_share_an_entry():
    # Fraction(1, 2) == mpf(0.5) and both hash alike; the scope keys each
    # operand by its type, so each backend computes its own value
    calls = []
    with shared_scope():
        exact = product_values(1, F(1, 2), F(1, 2), 4)
        floats = product_values(1, mpf(0.5), mpf(0.5), 4)
        exact_gen = gen_q_shifted_factorial(3, QParams(F(1, 2), 1))
        float_gen = gen_q_shifted_factorial(3, QParams(mpf(0.5), mpf(1)))
        for v in (F(1, 2), mpf(0.5), F(1, 2), mpf(0.5), 1, mpf(1), F(1),
                  QParams(F(1, 2), 1), QParams(mpf(0.5), mpf(1))):
            shared(calls.append, v)
    assert all(type(v) is F for v in exact[1:]) and exact == floats
    assert all(type(v) is mpf for v in floats)
    assert type(exact_gen) is F and type(float_gen) is mpf
    assert exact_gen == float_gen
    assert [type(v) for v in calls] == [F, mpf, int, mpf, F, QParams, QParams]


def test_scope_is_per_precision_and_closes():
    builds = []
    with shared_scope():
        assert qcore._SCOPE.get() is not None
        for dps in (50, 120, 50):
            with mp.workdps(dps):
                shared(builds.append, mp.prec)
                prefix = _gen_q_shifted_prefix(6, mpf("0.3"), mpf("0.2"))
                assert list(map(mp.make_mpf, prefix)) == reference_products(
                    1, mpf("0.3"), mpf("0.3"), 6, _lift(mpf("0.3"), mpf("0.2")))
    assert len(builds) == 2 and qcore._SCOPE.get() is None
    shared(builds.append, 1)
    shared(builds.append, 1)
    assert len(builds) == 4
    with pytest.raises(DomainError):
        with shared_scope():
            q_pochhammer(mpf(1), mpf("0.5"), -1)
    assert qcore._SCOPE.get() is None


def test_unify_keeps_objects_and_backends():
    # all exact or all mpf: the very values; any other mix: each as an mpf,
    # an mpf passed through as the same object
    half, third, one = mpf("0.5"), F(1, 3), 1
    for values in ((), (one, third), (half, mpf(2)), (half, third, one),
                   (third, "0.25", half), (0.5, one)):
        got = unify(*values)
        assert len(got) == len(values)
        if all(isinstance(v, (int, F)) for v in values) or \
                all(isinstance(v, mpf) for v in values):
            assert all(g is v for g, v in zip(got, values))
        else:
            assert all(type(g) is mpf and g == to_mpf(v)
                       for g, v in zip(got, values))
            assert all(g is v for g, v in zip(got, values) if type(v) is mpf)


@pytest.mark.parametrize("base, exponent, want", [
    (F(1, 2), 2.0, F(1, 4)),        # an integral float is an int exponent
    (mpf(4), "0.5", mpf(2)),        # a numeric string, as to_mpf takes it
    (mpf(0), mpf("0.5"), mpf(0)),
    (0, -1, DomainError),
    (mpf(0), mpf("-0.5"), DomainError),
])
def test_qpow_at_zero_and_for_other_exponent_types(base, exponent, want):
    if want is DomainError:
        with pytest.raises(DomainError, match="0 cannot be raised to a"):
            qpow(base, exponent)
    else:
        got = qpow(base, exponent)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("base", [mpf(2), mpf("0.5"), F(1, 2)],
                         ids=["mpf-2", "mpf-half", "Fraction"])
@pytest.mark.parametrize("exponent", [
    float("inf"), float("-inf"), float("nan"), mp.inf, -mp.inf, mp.nan,
    "inf", "-inf", "nan"],
    ids=["float-inf", "float-neginf", "float-nan",
         "mpf-inf", "mpf-neginf", "mpf-nan", "str-inf", "str-neginf", "str-nan"])
def test_qpow_rejects_a_non_finite_exponent(base, exponent):
    # not int()'s OverflowError or ValueError on a float, nor mpf's own
    # +inf, 0 or nan: the exponent is named as invalid input
    with pytest.raises(DomainError, match="exponent must be finite: got"):
        qpow(base, exponent)


@pytest.mark.parametrize("base, exponent, want", [
    (F(289, 625), F(3, 2), F(17, 25) ** 3),
    (F(289, 625), F(-3, 2), F(25, 17) ** 3),
    (F(8, 27), F(2, 3), F(4, 9)),
    (4, F(1, 2), F(2)),
    (F(7, 3) ** 35, F(1, 35), F(7, 3)),
    (F(2, 5), F(1, 2), ExactBackendError),  # 2/5 is no square
    (F(8, 25), F(2, 3), ExactBackendError),  # 25 is no cube
    (F(1, 2), F(5, 3), ExactBackendError),
    (F(4, 9), 0.5, ExactBackendError),  # a float exponent takes mpf
    (F(4, 9), mpf("0.5"), ExactBackendError),
])
def test_qpow_takes_exact_roots_of_perfect_powers(base, exponent, want):
    # an exact base that is a perfect r-th power, r the exponent's
    # denominator, gives its exact power; any other non-integer power of an
    # exact base refuses, and an mpf base keeps its bits
    if want is ExactBackendError:
        with pytest.raises(ExactBackendError, match="requires the float backend"):
            qpow(base, exponent)
        return
    got = qpow(base, exponent)
    assert got == want and type(got) is F
    with mp.workdps(60):
        wide = qpow(to_mpf(base), to_mpf(exponent))
        assert wide._mpf_ == (to_mpf(base) ** to_mpf(exponent))._mpf_
        assert abs(wide - to_mpf(want)) <= mpf(10) ** -55 * abs(wide)


# (scale, shift) of q^(scale alpha + shift) at every caller of _alpha_power:
# the odd lift, the weight's c (whose root is the parity rows' q^(-a-1/2)),
# the constants, the forms' rows, q_laguerre, and the lattice's reach at
# N = 4 and 40
_LINEAR_POWERS = [(2, 1), (-2, -1), (2, 2), (2, 3), (2, 4), (1, 1),
                  (-2, -4), (-2, -10), (-2, -82)]


@pytest.mark.parametrize("dps", [50, 300])
def test_alpha_powers_are_qpow_within_the_guard_bits(dps):
    # each linear power from the one kept q^alpha is within
    # 2^-(prec + GUARD_BITS - 4) of qpow's power 40 digits higher, at alpha
    # near -1, at 2.5 and at seeded (q, alpha)
    rng = random.Random(45)
    cells = [("0.3", "-0.9"), ("0.22", "-0.9999"), ("0.7", "2.5"),
             ("0.9", "-0.5")] + [("%.6f" % rng.uniform(0.05, 0.95),
                                  "%.6f" % rng.uniform(-0.99, 3.0))
                                 for _ in range(6)]
    with mp.workdps(dps):
        bound = mpf(2) ** -(mp.prec + GUARD_BITS - 4)
        for (q, alpha), (scale, shift) in product(cells, _LINEAR_POWERS):
            q, alpha = mpf(q), mpf(alpha)
            got = qcore._alpha_power(q, alpha, scale, shift)
            with mp.workdps(dps + 40):
                want = qpow(q, scale * alpha + shift)
                assert abs(got - want) <= bound * want, (q, alpha, scale, shift)


@pytest.mark.parametrize("q, alpha", [(F(17, 25), F(3, 2)),
                                      (F(17, 25), F(1, 3)),
                                      (F(289, 625), F(1, 4)), (F(2, 3), 2)])
def test_alpha_powers_of_exact_operands_are_qpows(q, alpha):
    # exact operands take qpow's exact path: an exact power where qpow has
    # one, a perfect-power root too, and ExactBackendError where it has none
    for scale, shift in _LINEAR_POWERS:
        try:
            want = qpow(q, scale * alpha + shift)
        except ExactBackendError:
            with pytest.raises(ExactBackendError):
                qcore._alpha_power(q, alpha, scale, shift)
            continue
        got = qcore._alpha_power(q, alpha, scale, shift)
        assert got == want and type(got) is F, (scale, shift)
    if alpha == F(1, 3):
        with pytest.raises(ExactBackendError):
            gen_q_shifted_factorial(3, QParams(q, alpha))
    else:
        assert type(gen_q_shifted_factorial(3, QParams(q, alpha))) is F


def _real_powers(monkeypatch) -> Counter:
    """Counts, per mp.prec, the calls of qpow that take its non-integer
    branch, at every module that binds qpow."""
    counts, real = Counter(), qpow

    def spy(base, exponent):
        if not mp.isint(to_mpf(exponent)):
            counts[mp.prec] += 1
        return real(base, exponent)
    for module in (qcore, polyfam, qseries, quadrature, identities):
        monkeypatch.setattr(module, "qpow", spy)
    return counts


def test_a_cold_check_takes_one_real_power_per_precision(monkeypatch):
    # a (q, alpha) pays one exp/log per precision: the representations at
    # n = 60, and the sweep, whose coefficients run GUARD_BITS higher, two
    counts = _real_powers(monkeypatch)
    qcore._kept.cache_clear()
    p, x, y = QParams(mpf("0.6713"), mpf("0.377")), mpf("0.9"), mpf("0.5")
    reports = identities.check_representations(60, p, x, y)
    assert len(reports) == 2 and all(r.passed for r in reports)
    assert counts and set(counts.values()) == {1}
    counts.clear()
    gram = quadrature.orthogonality_gram(4, QParams(mpf("0.2213"),
                                                    mpf("0.731")))
    assert len(gram) == 15 and all(r.passed for r in gram)
    assert 0 < sum(counts.values()) <= 2


_rationals = st.fractions(max_denominator=10 ** 6).filter(lambda v: abs(v) < 10 ** 6)


def _pair(value: F, scale: int) -> tuple:
    """value as EXACT's pair, unreduced by scale."""
    n, d = EXACT.raw(value)
    return n * scale, d * scale


@given(a=_rationals, b=_rationals, k=st.integers(min_value=-6, max_value=6),
       scales=st.tuples(*[st.integers(min_value=1, max_value=10 ** 9)] * 2),
       exact_int=st.booleans())
@settings(max_examples=300, deadline=None)
def test_exact_pairs_are_fraction_arithmetic(a, b, k, scales, exact_int):
    # every member of EXACT, on pairs reduced or not, is the Fraction
    # operation: value of the result equals it, with a positive denominator
    if exact_int:
        a = int(a)
    value, prec, rnd = EXACT.value, 0, round_nearest
    x, y = _pair(F(a), scales[0]), _pair(b, scales[1])
    assert EXACT.raw(a) == (F(a).numerator, F(a).denominator)
    assert value(x) == a and type(value(x)) is F
    results = [(EXACT.add(x, y, prec, rnd), a + b),
               (EXACT.sub(x, y, prec, rnd), a - b),
               (EXACT.mul(x, y, prec, rnd), F(a) * b),
               (EXACT.neg(x, prec, rnd), -F(a))]
    if b:
        results.append((EXACT.div(x, y, prec, rnd), F(a) / b))
    else:
        with pytest.raises(ZeroDivisionError):
            EXACT.div(x, y, prec, rnd)
    if a or k >= 0:
        results.append((EXACT.pow_int(x, k, prec, rnd), F(a) ** k))
    else:
        with pytest.raises(DomainError):
            EXACT.pow_int(x, k, prec, rnd)
    for pair, want in results:
        assert pair[1] > 0 and value(pair) == want
    assert value(EXACT.one) == 1 and value(EXACT.zero) == 0


# --- the tables, powers and products kept across scopes --------------------------


@pytest.mark.parametrize("serve", [shared, kept])
def test_each_memo_keeps_a_value_for_its_lifetime(serve):
    # shared: once per scope; kept: once across scopes at one precision.
    # Neither holds a value outside a scope, nor a call that raised, and
    # Fraction(1, 2) and mpf(0.5) get separate entries in both
    qcore._kept.cache_clear()
    builds = []

    def build(v):
        builds.append((type(v), mp.dps))
        if v < 0:
            raise ValueError(v)
        return v

    def scope(dps):
        with shared_scope(), mp.workdps(dps):
            for v in (F(1, 2), mpf(0.5), F(1, 2), mpf(0.5)):
                assert type(serve(build, v)) is type(v)
            for _ in range(2):
                with pytest.raises(ValueError):
                    serve(build, F(-1))

    def once(dps):
        return [(F, dps), (mpf, dps), (F, dps), (F, dps)]

    scope(50)
    scope(50)
    scope(80)
    if serve is shared:
        assert builds == once(50) + once(50) + once(80)
    else:
        assert builds == once(50) + [(F, 50)] * 2 + once(80)
    builds.clear()
    for _ in range(2):
        assert serve(build, F(1, 2)) == serve(build, mpf(0.5))
    assert builds == [(F, 50), (mpf, 50)] * 2


def test_kept_cache_stays_within_its_cap():
    # each public orthogonality constant at a fresh (q, alpha) keeps nine
    # entries, q^alpha one of them: a sixth of the cap's count of them, a
    # few (q, alpha) drawn twice, pass the cap, which then holds, dropping
    # the least recently used first
    qcore._kept.cache_clear()
    rng = random.Random(3)
    sizes = []
    for _ in range(qcore._KEPT_CAP // 6):
        p = QParams(mpf("%.4f" % rng.uniform(0.2, 0.25)),
                    mpf("%.4f" % rng.uniform(-0.4, 1.5)))
        orthogonality_rhs(2, p)
        sizes.append(qcore._kept.cache_info().currsize)
    assert max(sizes) == sizes[-1] == qcore._KEPT_CAP
    assert sizes[:8] == [9 * i for i in range(1, 9)]
    misses = qcore._kept.cache_info().misses
    orthogonality_rhs(2, p)  # the most recent call's values are all kept
    assert qcore._kept.cache_info().misses == misses


def test_kept_values_hold_no_point(monkeypatch):
    # a suite block keeps values of (q, alpha) alone: no x, y, omega or t
    # reaches a kept kernel, while every kept kernel is reached
    points = {"x": "1.37", "y": "0.61", "omega": "0.73", "t": "0.19"}
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.7",),
                        n_values=tuple(range(6)),
                        **{k + "_values": (v,) for k, v in points.items()})
    raw = {sign * mpf(v) for v in points.values() for sign in (1, -1)}
    raw = {v._mpf_ for v in raw}
    reached = []
    kept = qcore._kept
    monkeypatch.setattr(qcore, "_kept",
                        lambda f, prec, *args: reached.append((f, args))
                        or kept(f, prec, *args))
    assert all(r.passed for r in run_identity_suite(grid))
    # a table by the stream it grows
    assert {(args[0] if f is qcore._Rows else f).__name__
            for f, args in reached} == {
        "_product_rows", "_odd_lift", "_infinite_product", "_recurrence_rows",
        "_work_digits", "_gdqh2_terms", "_phi_row", "_laguerre_row",
        "_q_laguerre_row", "_phi_factor_rows", "_gf_row_stream",
        "_alpha_powers", "q_pochhammer", "_gen_q_shifted", "qpow"}

    def operands(args):  # a row's QParams field by field, a phi's
        for a in args:       # parameter tuples element by element
            if isinstance(a, QParams):
                yield from (a.q, a.alpha)
            else:
                yield from a if isinstance(a, tuple) else (a,)

    assert not [(f.__name__, args) for f, args in reached
                if any(getattr(a, "_mpf_", None) in raw for a in operands(args))]


def test_threads_extend_one_table_as_one_thread_does():
    # four threads grow the same kept tables at once, in four orders; every
    # row is the one a single thread computes, bit for bit.  mp.prec is one
    # per process, and taking a table's first powers raises it for a moment,
    # so the tables are made before the threads start and only grown in them
    q, lift = mpf("0.68"), _lift(mpf("0.68"), mpf("0.37"))
    p, x, y = QParams(q, mpf("0.37")), mpf("0.9"), mpf("0.5")
    degrees = list(range(0, 150, 3))

    def work(order):
        with shared_scope():
            return {n: [[v._mpf_ for v in rows] for rows in (
                product_values(1, q, q, n, lift),
                product_values(1, q * q, q * q, n),
                gdqh2_recurrence_ladder(n, x, y, p))] for n in order}

    qcore._kept.cache_clear()
    want = work(degrees)
    got, errors = [], []

    def run(order):
        try:
            got.append(work(order))
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    orders = [degrees, degrees[::-1]] + [
        random.Random(seed).sample(degrees, len(degrees)) for seed in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            qcore._kept.cache_clear()
            work([1])
            threads = [threading.Thread(target=run, args=(order,))
                       for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and got == [want] * (2 * len(orders))


@pytest.mark.parametrize("stream", ["_product_rows", "_recurrence_rows"])
def test_interrupted_growth_never_serves_a_short_table(monkeypatch, stream):
    # an interrupt inside a table's growth leaves the rows it completed; the
    # next call grows the table on, to every row it asks for
    from qhermite import polyfam
    q, p = mpf("0.3"), QParams(mpf("0.3"), mpf("0.2"))
    x, y = mpf("1.1"), mpf("0.4")
    if stream == "_product_rows":
        home, build = qcore, lambda n: product_values(1, q, q, n)
        want = [v._mpf_ for v in reference_products(1, q, q, 20)]
    else:
        home, build = polyfam, lambda n: gdqh2_recurrence_ladder(n, x, y, p)
        want = [h._mpf_ for h in build(20)]  # outside a scope: its own table
    real, armed = getattr(home, stream), [True]

    def interrupted(*args):
        for i, row in enumerate(real(*args)):
            if i == 7 and armed:
                armed.pop()
                raise KeyboardInterrupt
            yield row

    monkeypatch.setattr(home, stream, interrupted)
    qcore._kept.cache_clear()
    with shared_scope(), pytest.raises(KeyboardInterrupt):
        build(3)
        build(20)
    with shared_scope():
        assert [v._mpf_ for v in build(20)] == want
