"""Polynomial families: values, representation agreement, recurrence."""

import inspect
import random
from fractions import Fraction as F
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qhermite import polyfam
from qhermite.errors import DomainError, ExactBackendError, RepresentationDomainError
from qhermite.identities import stieltjes_wigert_limit
from qhermite.polyfam import (
    _gdqh2_terms,
    discrete_q_hermite2,
    gdqh2,
    gdqh2_recurrence_ladder,
    gdqh2_recurrence_step,
    gdqh2_recurrence_values,
    RecurrenceState,
    mu_hermite,
    q_laguerre,
    rosenblum_hermite,
    stieltjes_wigert,
)
from qhermite.qcore import (
    QParams,
    _gen_q_shifted_prefix,
    _odd_lift,
    gen_q_shifted_factorial,
    q_pochhammer,
    shared_scope,
)
from qhermite.qseries import phi, q_bessel2
from qhermite.scalars import GUARD_BITS, arithmetic, qpow, unify

qs = st.floats(min_value=0.15, max_value=0.85)
alphas = st.floats(min_value=-0.8, max_value=2.5)


# --- q-Laguerre / Stieltjes-Wigert ----------------------------------------------


def test_q_laguerre_at_zero():
    q, alpha = mpf("0.3"), mpf("0.7")
    for n in range(6):
        want = (q_pochhammer(q ** (alpha + 1), q, n) / q_pochhammer(q, q, n))
        assert abs(q_laguerre(n, alpha, mpf(0), q) - want) < mpf("1e-46")


def test_q_laguerre_degree_one_by_hand():
    # L_1^(a)(x;q) = (1 - q^(a+1) - q^(a+1) x) / (1-q), from the two-term sum
    q, alpha, x = F(1, 2), F(2), F(3, 4)
    want = (1 - qpow(q, alpha + 1) - qpow(q, alpha + 1) * x) / (1 - q)
    assert q_laguerre(1, alpha, x, q) == want
    assert q_laguerre(1, alpha, x, q, rep="phi21") == want


@pytest.mark.parametrize("rep", ["phi11", "phi21"])
@pytest.mark.parametrize("q", ["1.5", "-0.5"])
def test_q_laguerre_rejects_q_outside_the_unit_interval(q, rep):
    with pytest.raises(DomainError, match="q out of range"):
        q_laguerre(2, mpf(0), mpf("0.7"), mpf(q), rep=rep)


@pytest.mark.parametrize("q", [0, 1])
def test_q_families_check_q_before_their_rows(q):
    # at q = 0 or 1 the rows divide by q^n or (q;q)_n = 0: the q check
    # comes first, for both q_laguerre forms and the families built on them
    q, x = mpf(q), mpf("0.7")
    for call in (lambda: q_laguerre(2, mpf("0.5"), x, q),
                 lambda: q_laguerre(2, mpf("0.5"), x, q, rep="phi21"),
                 lambda: mu_hermite(3, mpf("0.5"), x, q),
                 lambda: stieltjes_wigert(2, x, q)):
        with pytest.raises(DomainError, match=r"q out of range \(0,1\)"):
            call()


def test_real_exponent_parameters_must_be_finite():
    # alpha, mu and nu are real exponents that no range check bounds above:
    # an inf or nan one is invalid input, not an inf, 0 or nan value
    x, q = mpf("0.7"), mpf("0.5")
    for call in (lambda: q_laguerre(2, mp.inf, x, q),
                 lambda: mu_hermite(2, mp.inf, x, q),
                 lambda: q_bessel2(mp.nan, x, q)):
        with pytest.raises(DomainError, match="exponent must be finite"):
            call()


@given(q=qs, alpha=alphas, x=st.floats(min_value=0.0, max_value=3.0),
       n=st.integers(min_value=0, max_value=8))
@settings(max_examples=30, deadline=None)
def test_q_laguerre_reps_agree(q, alpha, x, n):
    q, alpha, x = mpf(q), mpf(alpha), mpf(x)
    a = q_laguerre(n, alpha, x, q)
    b = q_laguerre(n, alpha, x, q, rep="phi21")
    assert abs(a - b) <= mpf("1e-40") * max(1, abs(a))


def test_q_laguerre_reps_agree_exactly_for_integer_alpha():
    q, x = F(2, 5), F(7, 3)
    for n in range(6):
        assert (q_laguerre(n, F(1), x, q)
                == q_laguerre(n, F(1), x, q, rep="phi21"))


def test_stieltjes_wigert_values():
    q = mpf("0.3")
    for n in range(6):
        assert abs(stieltjes_wigert(n, mpf(0), q)
                   - 1 / q_pochhammer(q, q, n)) < mpf("1e-46")
    # degree 1 by hand: S_1(x;q) = (1 - qx) / (1-q)
    qe, xe = F(1, 2), F(3, 7)
    assert stieltjes_wigert(1, xe, qe) == (1 - qe * xe) / (1 - qe)


def test_finite_sums_take_no_truncation():
    # each family is a finite sum, so no caller's Truncation reaches it
    for family in (gdqh2, q_laguerre, stieltjes_wigert, mu_hermite,
                   discrete_q_hermite2, stieltjes_wigert_limit):
        assert "trunc" not in inspect.signature(family).parameters, family


# --- the central family ----------------------------------------------------------


def test_gdqh2_degree_zero_and_one():
    p = QParams(mpf("0.5"), mpf("0.25"))
    x, y = mpf("1.3"), mpf("0.7")
    assert gdqh2(0, x, y, p) == 1
    # h_1 = (1-q) x / (1 - q^(2a+2))
    want = (1 - p.q) * x / (1 - p.q ** (2 * p.alpha + 2))
    assert abs(gdqh2(1, x, y, p) - want) < mpf("1e-48")


def test_gdqh2_frozen_exact_value():
    # degree 2, alpha 0, x = y = 1, q = 1/2 -> exactly -1/3
    p = QParams(F(1, 2), F(0))
    assert gdqh2(2, F(1), F(1), p) == F(-1, 3)


def test_gdqh2_reps_agree_exactly_on_rationals():
    # 2*alpha integral keeps every code path in Fraction arithmetic; the
    # three representations and the recurrence must agree bit for bit
    for alpha in (F(0), F(1), F(-1, 2), F(3, 2)):
        p = QParams(F(2, 5), alpha)
        for n in range(7):
            a = gdqh2(n, F(3, 2), F(2, 3), p)
            assert gdqh2(n, F(3, 2), F(2, 3), p, rep="phi_form") == a
            assert gdqh2_recurrence_ladder(n, F(3, 2), F(2, 3), p)[-1] == a
            assert isinstance(a, F)
            assert gdqh2(n, F(3, 2), F(2, 3), p, rep="laguerre_form") == a


@pytest.mark.parametrize("q, alpha, reps", [
    (F(2, 3), F(1), ("phi_form", "laguerre_form")),
    (F(3, 5), F(1, 2), ("phi_form", "laguerre_form")),
])
def test_forms_agree_exactly_on_a_product_grid(q, alpha, reps):
    # each form and the recurrence is a polynomial of degree n in x and
    # n//2 in y; agreeing on n+1 x's times n//2+1 y's, they are one
    # polynomial (Alon's Combinatorial Nullstellensatz, 1999): each identity
    # holds at this (q, alpha) for n <= 12
    p = QParams(q, alpha)
    for n in range(13):
        for x, y in product((F(i, 7) for i in range(1, n + 2)),
                            (F(j, 5) for j in range(1, n // 2 + 2))):
            want = gdqh2(n, x, y, p)
            assert type(want) is F
            assert gdqh2_recurrence_ladder(n, x, y, p)[n] == want, (n, x, y)
            for rep in reps:
                assert gdqh2(n, x, y, p, rep=rep) == want, (rep, n, x, y)


def test_gdqh2_laguerre_form_is_exact_at_half_integer_alpha():
    # the Laguerre route takes the power (q^2)^(alpha+1) = q^(2 alpha + 2),
    # a rational at a half-integer alpha, which qpow takes as the exact
    # power of the root q; where 2 alpha is no integer it still refuses
    for n, x, y, p in ((2, F(3, 2), F(2, 3), QParams(F(2, 5), F(-1, 2))),
                       (8, F(9, 10), F(7, 10), QParams(F(17, 25), F(1, 2)))):
        got = gdqh2(n, x, y, p, rep="laguerre_form")
        assert type(got) is F and got == gdqh2(n, x, y, p)
    with pytest.raises(ExactBackendError):
        gdqh2(2, F(3, 2), F(2, 3), QParams(F(2, 5), F(1, 3)),
              rep="laguerre_form")


@given(q=qs, alpha=alphas, x=st.floats(min_value=-2, max_value=2),
       y=st.floats(min_value=0.05, max_value=2),
       n=st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_gdqh2_reps_agree_float(q, alpha, x, y, n):
    p = QParams(mpf(q), mpf(alpha))
    x, y = mpf(x), mpf(y)
    a = gdqh2(n, x, y, p)
    scale = max(1, abs(a))
    assert abs(gdqh2(n, x, y, p, rep="phi_form") - a) <= mpf("1e-30") * scale
    assert abs(gdqh2(n, x, y, p, rep="laguerre_form") - a) <= mpf("1e-30") * scale
    assert abs(gdqh2_recurrence_ladder(n, x, y, p)[-1] - a) <= mpf("1e-30") * scale


def test_gdqh2_rep_edge_routing():
    p = QParams(mpf("0.5"), mpf("0.25"))
    # x = 0: the phi form divides by x^2 and must route to the definition
    assert gdqh2(4, mpf(0), mpf("0.7"), p, rep="phi_form") \
        == gdqh2(4, mpf(0), mpf("0.7"), p)
    # y = 0: the Laguerre argument divides by y
    assert gdqh2(4, mpf("1.3"), mpf(0), p, rep="laguerre_form") \
        == gdqh2(4, mpf("1.3"), mpf(0), p)
    # y = 0 collapses to the single k=0 term
    want = (q_pochhammer(p.q, p.q, 4) / gen_q_shifted_factorial(4, p)
            * mpf("1.3") ** 4)
    assert abs(gdqh2(4, mpf("1.3"), mpf(0), p) - want) < mpf("1e-46")
    with pytest.raises(RepresentationDomainError):
        gdqh2(4, mpf("1.3"), mpf(-1), p, rep="laguerre_form")
    with pytest.raises(DomainError):
        gdqh2(2, mpf(1), mpf(1), p, rep="nonsense")
    with pytest.raises(DomainError):
        gdqh2(-1, mpf(1), mpf(1), p)


def _public_phi_form(n, x, y, q, alpha):
    """The phi form through phi: its row, its argument GUARD_BITS above the
    working precision, then the 2-phi-1 by the public series entry point."""
    upper, q2, scale, ratio = polyfam._phi_row(n, q, alpha)
    with mp.workprec(mp.prec + GUARD_BITS):
        z = -y * scale / (x * x)
    return ratio * qpow(x, n) * phi(upper, (x - x,), q2, z,
                                    terminate_at=n // 2)


def _public_laguerre_form(n, x, y, q, alpha):
    """The Laguerre form through phi: its row and q_laguerre's, its
    argument GUARD_BITS above the working precision, then q_laguerre's
    phi11 sum by the public series entry point."""
    q2, scale, pref, order = polyfam._laguerre_row(n, q, alpha)
    down, qa1, step, front = polyfam._q_laguerre_row(n // 2, order, q2)
    with mp.workprec(mp.prec + GUARD_BITS):
        z = step * (x * x / y * scale)
    laguerre = front * phi((down,), (qa1,), q2, z, terminate_at=n // 2)
    if n % 2:
        pref = pref * x
    return pref * qpow(-y, n // 2) * laguerre


def _form_cells(seed: int, count: int):
    """Seeded (q, alpha, x, y) cells, half mpf and half exact; exact alphas
    are integers, where the Laguerre form is exact too."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            den = rng.randint(3, 9)
            yield (F(rng.randint(1, den - 1), den), rng.randint(0, 2),
                   F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)),
                   F(rng.randint(1, 9), rng.randint(1, 9)))
        else:
            yield tuple(mpf("%.6f" % v) for v in (
                rng.uniform(0.15, 0.85), rng.uniform(-0.8, 2.5),
                rng.choice((-1, 1)) * rng.uniform(0.2, 2.0),
                rng.uniform(0.1, 2.0)))


def _exact_bits(v):
    return v._mpf_ if isinstance(v, mpf) else (type(v), v)


@pytest.mark.parametrize("dps", [50, 90])
def test_forms_on_the_series_kernel_are_the_public_route_bit_for_bit(dps):
    # the phi and Laguerre forms sum on their rows' operands; on seeded
    # float and exact cells, at both parities, they give the bits of the
    # same expressions through phi and q_laguerre, and route x = 0 and y = 0
    # to the definition sum
    with mp.workdps(dps):
        for cell in _form_cells(36, 12):
            x, y, q, alpha = unify(cell[2], cell[3], cell[0], cell[1])
            for n in range(10):
                for lean, public in ((polyfam._gdqh2_phi, _public_phi_form),
                                     (polyfam._gdqh2_laguerre,
                                      _public_laguerre_form)):
                    got = lean(n, x, y, q, alpha)
                    assert _exact_bits(got) == _exact_bits(
                        public(n, x, y, q, alpha))
                    assert isinstance(got, F) == isinstance(q, F)
                zero_x, zero_y = x - x, y - y
                definition = polyfam._gdqh2_definition
                assert _exact_bits(polyfam._gdqh2_phi(
                    n, zero_x, y, q, alpha)) == _exact_bits(
                        definition(n, zero_x, y, q, alpha))
                assert _exact_bits(polyfam._gdqh2_laguerre(
                    n, x, zero_y, q, alpha)) == _exact_bits(
                        definition(n, x, zero_y, q, alpha))
                with pytest.raises(RepresentationDomainError):
                    polyfam._gdqh2_laguerre(n, x, -y, q, alpha)


@pytest.mark.parametrize("num, cases", [
    (mpf, [(mpf("0.37"), ("definition_sum", "phi_form", "laguerre_form")),
           (mpf("1.5"), ("definition_sum", "phi_form", "laguerre_form"))]),
    (F, [(F(1, 2), ("definition_sum", "phi_form")), (F(1), ("laguerre_form",))]),
], ids=["mpf", "Fraction"])
def test_kept_rows_change_no_bit(num, cases):
    # each form and the descending sum, at every n, two alphas and two
    # precisions, and on the x = 0 and y = 0 routes to the definition sum,
    # give the same bits outside a scope, in a scope that builds the rows of
    # (n, q, alpha) and in a later one that reads them kept
    from qhermite import qcore
    from qhermite.identities import _descending_sum
    q, omega = num("0.6"), num("0.4")
    points = [(num("1.3"), num("0.7")), (num(0), num("0.7")), (num("1.3"), num(0))]

    def values():
        out = []
        for dps, (alpha, reps), n, (x, y) in product(
                (50, 80), cases, range(14), points):
            p = QParams(q, alpha)
            with mp.workdps(dps):
                out += [gdqh2(n, x, y, p, rep=rep) for rep in reps]
                out.append(_descending_sum(n, x, y, omega, q, p))
        return [v._mpf_ if isinstance(v, mpf) else v for v in out]

    qcore._kept.cache_clear()
    plain = values()
    with shared_scope():
        built = values()
    misses = qcore._kept.cache_info().misses
    with shared_scope():
        read = values()
    assert qcore._kept.cache_info().misses == misses  # every row was kept
    assert plain == built == read
    assert all(isinstance(v, F) for v in plain) == (num is F)


@given(q=qs, alpha=alphas, x=st.floats(min_value=0.1, max_value=2),
       n=st.integers(min_value=0, max_value=9))
@settings(max_examples=30, deadline=None)
def test_gdqh2_parity(q, alpha, x, n):
    p = QParams(mpf(q), mpf(alpha))
    a = gdqh2(n, mpf(x), mpf("0.8"), p)
    b = gdqh2(n, -mpf(x), mpf("0.8"), p)
    assert abs(b - (-1) ** n * a) <= mpf("1e-38") * max(1, abs(a))


def test_recurrence_step_by_step():
    p = QParams(mpf("0.5"), mpf("0.25"))
    x, y = mpf("1.1"), mpf("0.6")
    state = RecurrenceState(0, mpf(1), mpf(0))
    for n in range(1, 8):
        state = gdqh2_recurrence_step(state, x, y, p)
        assert state.n == n
        assert abs(state.current - gdqh2(n, x, y, p)) < mpf("1e-44")
    ladder = gdqh2_recurrence_ladder(7, x, y, p)
    assert len(ladder) == 8
    assert ladder[7] == state.current


@pytest.mark.parametrize("q, alpha, x, y", [
    (mpf("0.5"), mpf("0.25"), mpf("1.1"), mpf("0.6")),
    (F(1, 3), F(1), F(-5, 4), F(2, 7)),
])
def test_step_from_a_state_without_powers(q, alpha, x, y):
    # from a hand-built mid-ladder state the step lands on the stream's value
    p = QParams(q, alpha)
    h = gdqh2_recurrence_ladder(6, x, y, p)
    state = gdqh2_recurrence_step(RecurrenceState(5, h[5], h[4]), x, y, p)
    assert state.n == 6
    assert state.current == h[6]


def test_step_reads_the_table_of_its_own_params():
    # a state stepped at one (q, alpha), then stepped at another (q, alpha)
    # or at equal values on the other backend, reads the coefficients of the
    # params it is stepped at: it lands where a fresh state at them does
    with mp.workdps(30):
        x, y = mpf("0.7"), mpf("0.9")
        first, other = QParams(mpf("0.5"), mpf(0)), QParams(mpf("0.3"), mpf("1.2"))
        state = gdqh2_recurrence_step(RecurrenceState(0, mpf(1), mpf(0)), x, y, first)
        carried = gdqh2_recurrence_step(state, x, y, other)
        fresh = gdqh2_recurrence_step(
            RecurrenceState(1, state.current, state.previous), x, y, other)
        assert carried.current == fresh.current
        assert abs(fresh.current - mpf("-1.77333333333333333333")) < mpf("1e-20")
    with mp.workdps(50):
        first, other = QParams(F(1, 2), F(1, 2)), QParams(mpf("0.5"), mpf("0.5"))
        state = gdqh2_recurrence_step(RecurrenceState(0, F(1), F(0)),
                                      F(7, 10), F(9, 10), first)
        carried, fresh = state, RecurrenceState(1, state.current, state.previous)
        for _ in range(8):
            carried = gdqh2_recurrence_step(carried, x, y, other)
            fresh = gdqh2_recurrence_step(fresh, x, y, other)
            assert carried.current._mpf_ == fresh.current._mpf_, carried.n


def test_exact_prefix_needs_no_power_at_degree_zero():
    # (q;q)_{0,alpha} = 1 takes no power; from degree 1 on the real power
    # q^(2 alpha + 1) has no exact value
    q, alpha = F(1, 2), F(1, 3)
    assert list(map(arithmetic(q).value, _gen_q_shifted_prefix(0, q, alpha))) == [1]
    with pytest.raises(ExactBackendError):
        _gen_q_shifted_prefix(1, q, alpha)


@pytest.mark.parametrize("alpha", ["0.37", "-0.5"])
def test_running_powers_within_two_ulps(alpha):
    # the running products of the prefix (q;q)_{m,alpha} and of the
    # definition sum's signs against powers taken one by one at 40 more
    # digits; at alpha = -1/2 the prefix is the plain (q;q)_m that
    # connection and inversion read
    n, q, alpha = 60, mpf("0.68"), mpf(alpha)
    prefix = list(map(mp.make_mpf, _gen_q_shifted_prefix(n, q, alpha)))
    signs = [mp.make_mpf(sign) for _, sign, _, _ in _gdqh2_terms(n, q, alpha)]
    with mp.workdps(mp.dps + 40):
        want_prefix = [mpf(1)]
        for m in range(n):
            exponent = m + 1 + (1 - m % 2) * (2 * alpha + 1)
            want_prefix.append(want_prefix[-1] * (1 - qpow(q, exponent)))
        want_signs = [(-1) ** k * qpow(q, -2 * n * k + k * (2 * k + 1))
                      for k in range(n // 2 + 1)]
    for got, want in zip(prefix + signs, want_prefix + want_signs):
        ulp = mpf(2) ** (mp.frexp(want)[1] - mp.prec)
        assert abs(got - want) <= 2 * ulp
    assert len(prefix) == n + 1 and len(signs) == n // 2 + 1


@pytest.mark.parametrize("q, alpha, x, y", [
    (mpf("0.5"), mpf("0.25"), mpf("1.1"), mpf("0.6")),
    (mpf("0.22"), mpf("-0.7"), mpf("-0.3"), mpf("-1.4")),
    (F(1, 3), F(3, 2), F(-5, 4), F(2, 7)),
])
def test_recurrence_values_prefix_is_the_ladder(q, alpha, x, y):
    p = QParams(q, alpha)
    stream = gdqh2_recurrence_values(x, y, p)
    assert [next(stream) for _ in range(13)] == gdqh2_recurrence_ladder(12, x, y, p)
    with pytest.raises(DomainError):
        gdqh2_recurrence_ladder(-1, x, y, p)


def guarded_mul(a, b):
    """a * b, exact on Fractions, else rounded GUARD_BITS above mp.prec."""
    if isinstance(a, F) and isinstance(b, F):
        return a * b
    with mp.workprec(mp.prec + GUARD_BITS):
        return a * b


def _ladder_with_own_powers(n, x, y, p):
    """h_0..h_n from a step that carries q^n, q^(1-2n) and q^(2 alpha + 1)
    itself, its coefficients 1 / lead_n and beta_n = q^(1-2n) (1 - q^n)
    rounded GUARD_BITS above the working precision: the step before the
    coefficient table, as the reference."""
    x, y, q, alpha = unify(x, y, p.q, p.alpha)
    with mp.workprec(mp.prec + GUARD_BITS):
        lift, step = qpow(q, 2 * alpha + 1), qpow(q, -2)
    q_n, power = q - q + 1, q
    previous, current = q - q, q - q + 1
    out = [current]
    for k in range(n):
        q_n1 = guarded_mul(q_n, q)
        with mp.workprec(mp.prec + GUARD_BITS):
            inverse = (1 - q_n1) / (1 - (q_n1 * lift if k % 2 == 0 else q_n1))
            beta = power * (1 - q_n)
        nxt = x * current
        if k >= 1:
            nxt = nxt - y * beta * previous
        previous, current = current, nxt * inverse
        q_n, power = q_n1, guarded_mul(power, step)
        out.append(current)
    return out


@pytest.mark.parametrize("dps", [50, 181, 750])
@pytest.mark.parametrize("alpha", ["0.37", "-0.5", "1.5"])
def test_coefficient_table_is_bit_for_bit_the_carried_powers(dps, alpha):
    # in one scope the later points read the table the first one grew, and
    # outside one each ladder builds its own: both are the same bits
    mp.dps = dps
    p = QParams(mpf("0.68"), mpf(alpha))
    points = [(mpf(x), mpf(y)) for x in ("0.9", "-1.7") for y in ("0.5", "-0.3")]
    with shared_scope():
        scoped = [gdqh2_recurrence_ladder(60, x, y, p) for x, y in points]
    for (x, y), got in zip(points, scoped):
        want = [h._mpf_ for h in _ladder_with_own_powers(60, x, y, p)]
        assert [h._mpf_ for h in got] == want
        assert [h._mpf_ for h in gdqh2_recurrence_ladder(60, x, y, p)] == want


@pytest.mark.parametrize("dps", [50, 700])
@pytest.mark.parametrize("q, alpha, x, y", [
    ("0.68", "0.37", "0.9", "-0.5"),
    (F(17, 25), F(3, 2), F(-9, 10), F(1, 2)),
], ids=["mpf", "Fraction"])
def test_odd_leads_are_exact_ones_that_change_no_bit(q, alpha, x, y, dps):
    # theta_n = 0 at odd n, so 1 / lead_n = (1 - q^(n+1)) / (1 - q^(n+1))
    # is the backend's exact one, and the ladder that skips multiplying by
    # it has the bits of the one that multiplies at every n
    # (_ladder_with_own_powers)
    with mp.workdps(dps):
        q, alpha, x, y = (v if isinstance(v, F) else mpf(v) for v in (q, alpha, x, y))
        rows = list(islice(polyfam._recurrence_rows(q, _odd_lift(q, alpha),
                                                    mp.prec), 61))
        one, value = q - q + 1, arithmetic(q).value
        for lead in (value(row[0]) for row in rows[1::2]):
            assert type(lead) is type(one) and lead == 1
            assert getattr(lead, "_mpf_", None) == getattr(one, "_mpf_", None)
        p = QParams(q, alpha)
        got = gdqh2_recurrence_ladder(60, x, y, p)
        want = _ladder_with_own_powers(60, x, y, p)
        assert [getattr(h, "_mpf_", h) for h in got] \
            == [getattr(h, "_mpf_", h) for h in want]
        assert all(type(h) is type(one) for h in got)


def test_exact_ladder_sends_its_values_back_in_lowest_terms(monkeypatch):
    # each step leaves common factors of its coefficients in its pair; the
    # ladder sends each value back to the kernel as the pair it carries
    # on, so h_100 at q = 2/3 leaves the kernel as 10,979/8,180-bit ints
    # (10,819/8,020 reduced), where a kernel that carried its own pairs
    # would reach 20,373/17,574
    pairs, kernel = [], polyfam._recurrence

    def spy(*args):
        stream, sent = kernel(*args), None
        while True:
            pairs.append(stream.send(sent))
            sent = yield pairs[-1]

    monkeypatch.setattr(polyfam, "_recurrence", spy)
    q, alpha, x, y = F(2, 3), F(1), F(5, 7), F(3, 11)
    ladder = gdqh2_recurrence_ladder(100, x, y, QParams(q, alpha))
    assert [F(*pair) for pair in pairs] == ladder
    assert [v.bit_length() for v in pairs[100]] == [10979, 8180]
    assert [v.bit_length() for v in (ladder[100].numerator,
                                     ladder[100].denominator)] == [10819, 8020]


def _step_chain(x, y, p):
    """h_0, h_1, ... by gdqh2_recurrence_step, one state per value: the
    kernel restarted from each state."""
    state = RecurrenceState(0, mpf(1), mpf(0))
    while True:
        yield state.current
        state = gdqh2_recurrence_step(state, x, y, p)


@pytest.mark.parametrize("alpha", ["0.37", "-0.5", "1.5"])
def test_float_kernel_is_the_step_chain_bit_for_bit(alpha):
    # the kernel's raw values are the step chain's and the ladder that
    # carries its own powers', at 50, 181 and 750 digits, pulled in lockstep
    # across precision changes, and at non-finite points
    p = QParams(mpf("0.68"), mpf(alpha))
    points = [(mpf(x), mpf(y)) for x, y in (("0.9", "0.5"), ("-1.7", "-0.3"),
                                            ("inf", "0.5"), ("0.9", "nan"))]
    for x, y in points:
        for dps in (50, 181, 750):
            with mp.workdps(dps):
                got = list(islice(polyfam._recurrence(x, y, p.q, p.alpha), 61))
                assert got == [h._mpf_ for h in islice(_step_chain(x, y, p), 61)]
                assert got == [h._mpf_ for h in _ladder_with_own_powers(60, x, y, p)]
        kernel = polyfam._recurrence(x, y, p.q, p.alpha)
        chain = _step_chain(x, y, p)
        for dps in (50, 750, 181, 50, 181):
            with mp.workdps(dps):
                for _ in range(7):
                    assert next(kernel) == next(chain)._mpf_


@pytest.mark.parametrize("dps", [50, 181, 750])
def test_definition_sum_is_the_mpf_expression_bit_for_bit(dps):
    # the loop rounds c * x^(n-2k) * y^k and the running sum GUARD_BITS
    # above the working precision as the mpf expression below does, its
    # powers running products, x^(n mod 2) (x^2)^j and y^k, at x = 0, y = 0
    # and y < 0 too
    def reference(n, x, y, p):
        total, value = p.q - p.q, arithmetic(p.q).value
        terms = _gdqh2_terms(n, p.q, p.alpha)
        with mp.workprec(mp.prec + GUARD_BITS):
            x2, y_k, powers = x * x, y - y + 1, [x if n % 2 else x - x + 1]
            for _ in range(n // 2):
                powers.append(powers[-1] * x2)
            for k, _, _, c in terms:
                total = total + value(c) * powers[n // 2 - k] * y_k
                y_k = y_k * y
        return q_pochhammer(p.q, p.q, n) * total

    def bits(v):
        return getattr(v, "_mpf_", (type(v), v))

    with mp.workdps(dps):
        cells = [(QParams(mpf("0.68"), mpf("0.37")), mpf),
                 (QParams(F(17, 25), F(3, 2)), F)]  # exact: the same loop
        for p, kind in cells:
            points = [(kind(x), kind(y)) for x, y in (
                ("0", "0.6"), ("0.9", "0"), ("0", "0"), ("0.9", "-0.5"),
                ("-1.7", "0.3"))]
            for (x, y), n in product(points, range(25)):
                assert bits(gdqh2(n, x, y, p)) == bits(reference(n, x, y, p)), \
                    (x, y, n)


def test_coefficient_table_takes_the_generalized_factorials_lift(monkeypatch):
    # the recurrence's q^(2 alpha + 1) is (q;q)_{n,alpha}'s, bit for bit: its
    # exponent too is rounded with the guard bits
    lifts, rows = [], polyfam._recurrence_rows
    monkeypatch.setattr(polyfam, "_recurrence_rows",
                        lambda q, lift, prec: lifts.append(lift)
                        or rows(q, lift, prec))
    q, alpha = mpf("0.68"), mpf("0.37")
    gdqh2_recurrence_ladder(3, mpf("0.9"), mpf("0.5"), QParams(q, alpha))
    assert [v._mpf_ for v in lifts] == [_odd_lift(q, alpha)._mpf_]


@pytest.mark.parametrize("alpha", [F(3, 2), F(-1, 2), F(0)])
def test_coefficient_table_exact_values(alpha):
    p = QParams(F(1, 3), alpha)
    for x, y in ((F(-5, 4), F(2, 7)), (F(3, 2), F(-1, 5))):
        got = gdqh2_recurrence_ladder(12, x, y, p)
        assert got == _ladder_with_own_powers(12, x, y, p)
        assert all(isinstance(h, (int, F)) for h in got)
        assert got[12] == gdqh2(12, x, y, p)


def test_stream_reads_the_table_of_the_precision_it_is_pulled_at():
    # pulled across precision changes, each value is the step from the two
    # before it with the coefficients of the precision it is pulled at: a
    # lead rounded at 50 digits would not give the 80-digit bits
    p = QParams(mpf("0.68"), mpf("0.37"))
    x, y = mpf("0.9"), mpf("-0.5")
    stream = gdqh2_recurrence_values(x, y, p)
    values, precs = [], []
    for dps in (50, 80, 50, 181, 80):
        with mp.workdps(dps):
            for _ in range(4):
                values.append(next(stream))
                precs.append(mp.prec)
    previous = mpf(0)
    for n in range(len(values) - 1):
        with mp.workprec(precs[n + 1]):
            state = RecurrenceState(n, values[n], previous)
            want = gdqh2_recurrence_step(state, x, y, p).current
        assert values[n + 1]._mpf_ == want._mpf_, n
        previous = values[n]


@pytest.mark.parametrize("q, alpha, x", [
    ("0.5", "0", "1.3"), ("0.22", "1.3", "0.0031"), ("0.9", "-0.6", "27.5"),
    ("0.35", "4", "1e-9"),
])
def test_recurrence_ladder_at_minus_x_negates_odd_degrees(q, alpha, x):
    # bit for bit: the orthogonality sweep reads the -x ladder off this one
    mp.dps = 70
    p = QParams(mpf(q), mpf(alpha))
    ladder = gdqh2_recurrence_ladder(30, mpf(x), mpf(1), p)
    assert gdqh2_recurrence_ladder(30, -mpf(x), mpf(1), p) == [
        (-1) ** k * h for k, h in enumerate(ladder)]


def test_discrete_q_hermite2_is_special_case():
    q = mpf("0.5")
    p = QParams(q, mpf("-0.5"))
    for n in range(7):
        assert discrete_q_hermite2(n, mpf("0.8"), q) \
            == gdqh2(n, mpf("0.8"), mpf(1), p)


# --- mu-deformed and classical-limit families ------------------------------------


def test_mu_hermite_low_degrees():
    q, mu, x = mpf("0.3"), mpf("0.3"), mpf("0.4")
    assert mu_hermite(0, mu, x, q) == 1
    assert mu_hermite(1, mu, x, q) == x
    with pytest.raises(DomainError):
        mu_hermite(2, mpf("-0.6"), x, q)


def test_mu_hermite_vs_one_variable_family():
    # H_n^(0)(x; q^2) = q^(n(n-1)/2) h_n(x; q).  The exponent is the
    # triangular number C(n,2), pinned by n = 2: both sides are degree-2
    # polynomials whose ratio is exactly q.
    q = mpf("0.5")
    x = mpf("0.3")
    for n in range(11):
        lhs = mu_hermite(n, mpf(0), x, q * q)
        rhs = qpow(q, n * (n - 1) // 2) * discrete_q_hermite2(n, x, q)
        assert abs(lhs - rhs) <= mpf("1e-44") * max(1, abs(lhs))


@pytest.mark.parametrize("call, message", [
    (lambda: q_laguerre(2, mpf(0), mpf("0.7"), mpf("0.5"), rep="phi_form"),
     "rep must be 'phi11' or 'phi21': got 'phi_form'"),
    (lambda: rosenblum_hermite(2, mpf("-0.5"), mpf(1)), "mu must be >= 0"),
])
def test_a_family_rejects_a_rep_or_mu_it_does_not_take(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_rosenblum_hermite_reduces_to_hermite():
    # mu = 0: physicists' Hermite polynomials
    for n, x, want in [
        (0, mpf("0.5"), mpf(1)),
        (1, mpf("0.5"), mpf(1)),            # H_1 = 2x
        (2, mpf(1), mpf(2)),                # H_2 = 4x^2 - 2
        (3, mpf("0.7"), 8 * mpf("0.7") ** 3 - 12 * mpf("0.7")),
        (4, mpf("0.3"), 16 * mpf("0.3") ** 4 - 48 * mpf("0.3") ** 2 + 12),
    ]:
        assert abs(rosenblum_hermite(n, mpf(0), x) - want) < mpf("1e-44")


def test_rosenblum_hermite_vs_mpmath_laguerre():
    # even/odd reduction against mpmath's own Laguerre implementation
    mu, x = mpf("0.8"), mpf("1.1")
    for m in range(4):
        even = rosenblum_hermite(2 * m, mu, x)
        want = ((-1) ** m * mpf(4) ** m * mp.factorial(m)
                * mp.laguerre(m, mu - mpf("0.5"), x * x))
        assert abs(even - want) <= mpf("1e-40") * max(1, abs(want))
        odd = rosenblum_hermite(2 * m + 1, mu, x)
        want = ((-1) ** m * 2 * mpf(4) ** m * mp.factorial(m) * x
                * mp.laguerre(m, mu + mpf("0.5"), x * x))
        assert abs(odd - want) <= mpf("1e-40") * max(1, abs(want))

