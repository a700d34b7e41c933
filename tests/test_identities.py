"""Connection, inversion, generating functions, Bessel forms, limit trends."""

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_neg

import qhermite as qh
from qhermite import identities, polyfam, qcore, qseries
from qhermite.errors import (ConvergenceError, DomainError, ExactBackendError,
                             QHermiteError)
from qhermite.identities import (
    DEFAULT_GRID,
    IDENTITY_IDS,
    IdentityGrid,
    check_bessel_forms,
    check_connection,
    check_even_odd_gf,
    check_generating_function,
    check_inversion,
    check_recurrence,
    check_representations,
    default_identity_tol,
    hermite_scaled_deviation,
    residuals,
    run_identity_suite,
    stieltjes_wigert_limit,
    summarize_reports,
)
from qhermite.polyfam import (RecurrenceState, gdqh2, gdqh2_recurrence_ladder,
                              gdqh2_recurrence_step)
from qhermite.qcore import QParams, Truncation, q_pochhammer, shared_scope
from qhermite.qseries import (euler_e, gen_E, q_bessel2, q_cos_alpha,
                              q_sin_alpha)
from qhermite.quadrature import orthogonality_check, orthogonality_gram
from qhermite.scalars import fixed_bits, fmt_scalar, to_mpf


def test_residual_normalization():
    a, r = residuals(mpf(2), mpf(2))
    assert a == 0 and r == 0
    a, r = residuals(mpf("1e6"), mpf("1e6") + 1)
    assert abs(r - 1 / (mpf("1e6") + 1)) < mpf("1e-50")
    # below 1 in magnitude the relative residual degrades to the absolute one
    a, r = residuals(mpf("0.25"), mpf("0.5"))
    assert a == r == mpf("0.25")


def _operand(man: int, exp: int):
    """An mpf of every bit of man * 2^exp, as many bits as man has."""
    return mp.make_mpf(from_man_exp(man, exp))


operands = st.builds(_operand, st.one_of(st.just(0),
                                         st.integers(-2 ** 400, 2 ** 400)),
                     st.integers(-420, 20))


@given(lhs=operands, rhs=operands, same=st.sampled_from((None, 1, -1)),
       dps=st.sampled_from((15, 50, 90)))
@settings(max_examples=200, deadline=None)
def test_residuals_are_the_mpf_expressions_bit_for_bit(lhs, rhs, same, dps):
    # on raw values, with operands of more bits than mp.prec, zeros and
    # equal sides: the bits of |lhs - rhs| / max(1, |lhs|, |rhs|) on mpfs
    if same is not None:  # rhs = +-lhs, every bit kept
        rhs = lhs if same == 1 else mp.make_mpf(mpf_neg(lhs._mpf_))
    with mp.workdps(dps):
        a = abs(lhs - rhs)
        want = a, a / max(mpf(1), abs(lhs), abs(rhs))
        got = residuals(lhs, rhs)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_default_tolerance_is_half_the_digits_at_each_precision():
    # 10^-(dps//2), bit for bit, at each precision and again on its return
    for dps in (15, 50, 80, 50, 181, 15):
        with mp.workdps(dps):
            want = (mpf(10) ** -(dps // 2))._mpf_
            assert default_identity_tol()._mpf_ == want


@pytest.mark.parametrize("tol", [0, -1, mp.nan, mp.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_every_check_rejects_a_tolerance_that_is_not_positive(tol, monkeypatch):
    # a tol of 0, -1 or nan would fail every row and +inf pass every row,
    # whatever the residual; the suite and the sweep reject it before any
    # work, an empty sweep too
    p, x, y, t = QParams(mpf("0.5"), mpf("0.7")), mpf("1.1"), mpf("0.4"), mpf("0.3")

    def no_work():
        raise AssertionError("tol is checked before any block runs")

    monkeypatch.setattr(identities, "shared_scope", no_work)
    calls = [lambda: check_representations(3, p, x, y, tol),
             lambda: check_recurrence(3, p, x, y, tol),
             lambda: check_connection(3, p, x, y, mpf("0.6"), tol),
             lambda: check_inversion(3, p, x, y, tol),
             lambda: check_generating_function(t, x, y, p, tol),
             lambda: check_even_odd_gf(t, x, y, p, tol),
             lambda: check_bessel_forms(t, x, y, p, tol),
             lambda: orthogonality_check(2, 0, p, tol),
             lambda: orthogonality_gram(2, p, tol),
             lambda: orthogonality_gram(-1, p, tol),
             lambda: run_identity_suite(DEFAULT_GRID, tol)]
    for call in calls:
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            call()


REPS = ("definition_sum", "phi_form", "laguerre_form")


def _one_backend_bits(p, x, y) -> list:
    """The bits of each form, the ladder, a step, the four polynomial
    checks and the two-degree orthogonality sweep at (x, y) for p."""
    state = RecurrenceState(2, mpf("0.7"), mpf("-0.4"))
    values = [gdqh2(9, x, y, p, rep=rep) for rep in REPS]
    values += gdqh2_recurrence_ladder(9, x, y, p)
    values.append(gdqh2_recurrence_step(state, x, y, p).current)
    reports = [*check_representations(9, p, x, y),
               check_recurrence(9, p, x, y),
               check_connection(9, p, x, y, mpf("0.3")),
               check_inversion(9, p, x, y), *orthogonality_gram(2, p)]
    values += [v for r in reports for v in (r.lhs, r.rhs, r.rel_residual)]
    return [v._mpf_ for v in values]


@pytest.mark.parametrize("q, alpha", [(F(5, 8), F(3, 8)), (F(1, 2), F(1, 4))])
def test_exact_params_at_a_float_point_compute_as_floats(q, alpha):
    # one backend per call: an exact (q, alpha) with 2 alpha not an integer
    # at a float point is converted at each call's working digits, and a
    # dyadic value converts to one mpf at any digits, so every result has
    # the bits of the all-float call, at the checks' raised digits too
    x, y = mpf("0.9"), mpf("0.5")
    floats = QParams(to_mpf(q), to_mpf(alpha))
    assert (_one_backend_bits(QParams(q, alpha), x, y)
            == _one_backend_bits(floats, x, y))


def test_non_dyadic_exact_params_convert_at_the_ambient_digits():
    p, x, y = QParams(F(2, 3), F(1, 3)), mpf("0.9"), mpf("0.5")
    floats = QParams(to_mpf(p.q), to_mpf(p.alpha))
    for n in range(4, 14):
        for rep in REPS:
            assert (gdqh2(n, x, y, p, rep=rep)._mpf_
                    == gdqh2(n, x, y, floats, rep=rep)._mpf_), (n, rep)
    # an all-exact call still has no exact q^(2 alpha + 1)
    for rep in REPS:
        with pytest.raises(ExactBackendError):
            gdqh2(5, F(9, 10), F(1, 2), p, rep=rep)


def test_connection_reference_point():
    r = check_connection(5, QParams(mpf("0.5"), mpf("0.3")),
                         mpf("1.2"), mpf("0.4"), mpf("0.9"))
    assert r.passed
    assert r.rel_residual < mpf("1e-30")


def test_connection_structural_zero_exact():
    # omega = y kills every k >= 1 coefficient through the Hahn product;
    # on rationals the two sides agree exactly
    p = QParams(F(1, 2), F(1))
    r = check_connection(6, p, F(5, 4), F(2, 3), F(2, 3))
    assert r.abs_residual == 0
    assert r.rel_residual == 0


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 9))


@given(q=st.builds(F, st.integers(1, 8), st.just(9)), two_alpha=st.integers(-1, 5),
       x=rationals, y=rationals, omega=rationals, n=st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_terminating_identities_are_exact_on_rationals(q, two_alpha, x, y, omega, n):
    # on the exact backend every running power is a rational, so a wrong
    # offset in any running exponent leaves a nonzero residual
    p = QParams(q, F(two_alpha, 2))
    reports = [check_recurrence(n, p, x, y), check_connection(n, p, x, y, omega),
               check_inversion(n, p, x, y)]
    # the Laguerre form takes (q^2)^(alpha+1), rational only at integer
    # alpha; at y < 0 the check leaves it out
    laguerre = two_alpha % 2 == 0 and y > 0
    reports += check_representations(n, p, x, y if laguerre else -abs(y))
    ids = [r.identity_id for r in reports]
    assert "representation_phi" in ids
    assert "representation_laguerre" in ids or not laguerre
    assert [r.rel_residual for r in reports] == [0] * len(reports)


def test_connection_y_zero_collapses_to_definition():
    r = check_connection(7, QParams(mpf("0.5"), mpf("0.3")),
                         mpf("1.2"), mpf(0), mpf("0.9"))
    assert r.passed and r.rel_residual < mpf("1e-30")


def test_inversion_reference_points():
    r = check_inversion(6, QParams(mpf("0.7"), mpf("1.5")), mpf("0.8"), mpf("1.3"))
    assert r.passed and r.rel_residual < mpf("1e-30")
    r = check_inversion(0, QParams(mpf("0.7"), mpf("1.5")), mpf("0.8"), mpf("1.3"))
    assert r.lhs == 1 and r.rel_residual == 0
    r = check_inversion(1, QParams(mpf("0.7"), mpf("1.5")), mpf("0.8"), mpf("1.3"))
    assert r.rel_residual < mpf("1e-45")


def test_inversion_severe_cancellation_regime():
    # q^(-2nk+3k^2) coefficients reach ~1e114 at n=20, q=0.2 while the
    # reconstructed monomial is O(1); the internal escalation must absorb it
    r = check_inversion(20, QParams(mpf("0.2"), mpf("-0.4")), mpf("1.7"), mpf(1))
    assert r.passed and r.rel_residual < mpf("1e-25")


def test_inversion_well_conditioned_near_one():
    r = check_inversion(20, QParams(mpf("0.99"), mpf("0.5")), mpf("1.1"), mpf(1))
    assert r.rel_residual < mpf("1e-12")


def test_generating_function_reference_point():
    r = check_generating_function(mpf("0.3"), mpf(1), mpf("0.5"),
                                  QParams(mpf("0.5"), mpf(0)))
    assert r.passed and r.rel_residual < mpf("1e-25")
    assert "binding bound" in r.note


@pytest.mark.parametrize("tail_tol", [F(1, 10 ** 60), "1e-60"], ids=["Fraction", "str"])
def test_gf_checks_take_any_tail_tol_truncation_accepts(tail_tol):
    # the adaptive sums compare each term against trunc.tail_tol
    trunc, p = Truncation(tail_tol=tail_tol), QParams(mpf("0.5"), mpf(0))
    args = (mpf("0.3"), mpf(1), mpf("0.5"), p)
    assert check_generating_function(*args, trunc=trunc).passed
    assert all(r.passed for r in check_even_odd_gf(*args, trunc=trunc))


@pytest.mark.parametrize("check", [check_generating_function, check_even_odd_gf,
                                   check_bessel_forms],
                         ids=lambda f: f.__name__)
def test_gf_checks_hand_the_caller_truncation_to_every_sum(check, monkeypatch):
    # every phi_rs series and infinite product behind a generating-function
    # check, closed forms and the e_{q^2}(+-y t^2) envelope included, reads
    # the caller's Truncation, so --tail-tol reaches all of them; the
    # envelope is one product, 1 / (+-y t^2; q^2)_inf, taken by euler_e
    seen = []
    phi_rs, infinite = qseries.phi_rs, qcore._infinite_product

    def phi_spy(spec, trunc=None):
        seen.append(("phi_rs", trunc))
        return phi_rs(spec, trunc)

    def spy(kind):
        def product(value, q, trunc=None):
            seen.append((kind, trunc))
            if kind == "envelope":
                assert abs(value) == y * t * t and q == p.q ** 2
            return infinite(value, q, trunc)
        return product

    monkeypatch.setattr(qseries, "phi_rs", phi_spy)
    monkeypatch.setattr(qcore, "_infinite_product", spy("infinite"))
    monkeypatch.setattr(qseries, "_infinite_product", spy("envelope"))
    trunc = Truncation(tail_tol=mpf("1e-20"))
    t, x, y = mpf("0.3"), mpf("0.8"), mpf("0.5")
    p = QParams(mpf("0.5"), mpf("0.7"))
    check(t, x, y, p, trunc=trunc)
    kinds = Counter(kind for kind, _ in seen)
    assert kinds["phi_rs"] == 2 and kinds["envelope"] == 1, kinds
    assert all(got is trunc for _, got in seen), seen


def test_generating_function_trivial_points():
    p = QParams(mpf("0.5"), mpf("0.25"))
    r = check_generating_function(mpf(0), mpf(1), mpf("0.5"), p)
    assert r.lhs == 1 and r.rhs == 1
    r = check_generating_function(mpf("0.3"), mpf("0.8"), mpf(0), p)
    assert r.rel_residual < mpf("1e-40")


def test_generating_function_domain():
    p = QParams(mpf("0.5"), mpf(0))
    with pytest.raises(DomainError, match=r"\|y\*t\| < 1"):
        check_generating_function(mpf("0.9"), mpf(1), mpf(2), p)
    # |yt| binds at t < 1, |yt^2| quoted when t > 1 would bind -- note names it
    r = check_generating_function(mpf("0.2"), mpf(1), mpf(1), p)
    assert r.note == "binding bound: |y*t|"


def test_generating_function_taylor_coefficients():
    # finite Taylor coefficients of the closed form at t = 0 must reproduce
    # the series-side coefficients q^C(n,2) h_n / (q;q)_n, degree <= 6
    p = QParams(mpf("0.5"), mpf("0.25"))
    x, y = mpf("0.9"), mpf("0.6")
    q = p.q

    def closed(t):
        return euler_e(-y * t * t, q * q) * gen_E(x * t, p)

    with mp.workdps(mp.dps + 25):
        coeffs = mp.taylor(closed, 0, 6)
    for n in range(7):
        want = (q ** (n * (n - 1) // 2) * gdqh2(n, x, y, p)
                / q_pochhammer(q, q, n))
        assert abs(coeffs[n] - want) < mpf("1e-15"), n


def test_even_odd_gf_reference_point():
    ev, od = check_even_odd_gf(mpf("0.3"), mpf("0.6"), mpf("0.4"),
                               QParams(mpf("0.5"), mpf("0.25")))
    assert ev.passed and ev.rel_residual < mpf("1e-20")
    assert od.passed and od.rel_residual < mpf("1e-20")


def test_even_odd_gf_trivial_t():
    ev, od = check_even_odd_gf(mpf(0), mpf("0.6"), mpf("0.4"),
                               QParams(mpf("0.5"), mpf("0.25")))
    assert ev.lhs == 1 and ev.rhs == 1
    assert od.lhs == 0 and od.rhs == 0


def test_bessel_forms_reference_point():
    ev, od = check_bessel_forms(mpf("0.3"), mpf("0.6"), mpf("0.4"),
                                QParams(mpf("0.5"), mpf("0.25")))
    assert ev.passed and ev.rel_residual < mpf("1e-15")
    assert od.passed and od.rel_residual < mpf("1e-15")


def _counting_steps(monkeypatch, module, steps, kernel="_recurrence"):
    """module's stream `kernel`, the float recurrence kernel by default, with
    one entry in steps per value past the first: one recurrence step each."""
    stream_of = getattr(module, kernel)

    def counted(*args):
        stream = stream_of(*args)
        yield next(stream)
        for h in stream:
            steps.append(1)
            yield h

    monkeypatch.setattr(module, kernel, counted)


def test_gf_checks_read_the_recurrence_only_as_far_as_they_sum(monkeypatch):
    # the series stop after tens of terms; the term stream behind them is
    # stepped no further than the longest sum needs
    steps = []
    _counting_steps(monkeypatch, identities, steps, "_gf_term_stream")
    g = DEFAULT_GRID
    q, alpha, x, y, t = (mpf(v[-1]) for v in (
        g.q_values, g.alpha_values, g.x_values, g.y_values, g.t_values))
    p = QParams(q, alpha)
    for check in (check_generating_function, check_even_odd_gf,
                  check_bessel_forms):
        steps.clear()
        got = check(t, x, y, p)
        reports = got if isinstance(got, tuple) else (got,)
        assert all(r.passed for r in reports)
        assert 0 < len(steps) <= 2 * max(r.terms_used for r in reports) + 1


def _reference_terms(t, x, y, q, p, count):
    """The first count generating-function terms q^C(j,2) t^j h_j / (q;q)_j
    as mpf values at 40 more digits: a running weight, by a running q^j,
    times the float recurrence kernel's h_j."""
    with mp.workdps(mp.dps + 40):
        out, weight, power = [], mpf(1), mpf(1)
        for h in islice(polyfam.gdqh2_recurrence_values(x, y, p), count):
            out.append(weight * h)
            weight *= t * power / (1 - power * q)
            power *= q
        return out


def _gf_outcome(half, t, x, y, q, p, trunc):
    """(sum, terms used) of `_gf_series`, or the ConvergenceError raised."""
    try:
        return identities._gf_series(half, t, x, y, q, p, trunc)
    except ConvergenceError as exc:
        return exc


def _gf_bits(outcome) -> tuple:
    """An outcome of `_gf_outcome` as its sum's bits and terms, or its text."""
    if isinstance(outcome, ConvergenceError):
        return (str(outcome),)
    return outcome[0]._mpf_, outcome[1]


def _gf_cap(y, t, max_terms=Truncation().max_terms) -> int:
    """The series' term cap: 8*mp.dps + 1, or 5/4 of the 2 (dps + 10) /
    -log10|y t^2| terms that the decay |y t^2|^(n/2) takes to reach
    10^-(dps+10), up to max_terms, when more."""
    reach = 5 * (mp.dps + 10) / (-2 * mp.log10(abs(y * t * t)))
    return max(8 * mp.dps + 1, min(int(mp.ceil(reach)) + 1, max_terms))


# (q, alpha, t, x, y): a fast cell, a cell at alpha < 0 and x < 0, two slow
# ones, one whose halves cancel about 28 bits, past half the guard bits,
# and at q = 0.95 one whose terms fall like 0.95^(n/2), past 8*mp.dps + 1
_GF_CANCELLING = ("0.95", "0", "0.5", "20", "0.2")
_GF_SLOW = ("0.95", "0.5", "0.95", "1.1", "1.05")
_GF_CASES = [("0.68", "0.37", "-0.25", "0.9", "0.6"),
             ("0.2", "-0.4", "0.2", "-1.1", "0.3"),
             ("0.8", "1.5", "0.5", "1.7", "1.2"),
             ("0.5", "-0.9", "0.5", "-1.8", "1.2"),
             _GF_CANCELLING, _GF_SLOW]
# at q = 0.999 the terms grow until n is about 1790, where q^n x t = 1 -
# q^(n+1): every sum, whole or half, exhausts its cap at 50 to 181 digits,
# and 1 - q^(n+1) cancels about 10 bits in the stream's rows
_GF_CAPPED = ("0.999", "0.5", "0.5", "10", "1")


@pytest.mark.parametrize("dps", [50, 80, 181])
def test_gf_stream_and_sums_match_a_sum_at_40_more_digits(dps, monkeypatch):
    # the fixed-point term stream within 2^(16-wp) times the largest term (or
    # 1) of each term at 40 more digits; the whole series and both halves
    # within 2^(1-prec) of the sum of those terms relative to max(1, |sum|),
    # plus 100 tail_tol when the caller's tail_tol stops them early, each
    # after the terms the stop rule takes on the cap + 1 reference terms; the
    # cancelling halves read a second stream with more bits; at q = 0.999
    # the sums exhaust their cap; the same ints and bits outside a scope
    # and in one, cold and warm
    streams = []
    terms = identities._gf_term_stream
    monkeypatch.setattr(identities, "_gf_term_stream",
                        lambda *a: streams.append(a[-1]) or terms(*a))
    for case in (*_GF_CASES, _GF_CAPPED):
        with mp.workdps(dps):
            q, alpha, t, x, y = map(mpf, case)
            p, cap = QParams(q, alpha), _gf_cap(y, t)
            ref = _reference_terms(t, x, y, q, p, cap + 1)
        for trunc in (None, Truncation(tail_tol=mpf("1e-30"))):
            with mp.workdps(dps):
                tail = (trunc or Truncation()).effective_tail_tol()
                wp = fixed_bits(tail, cap)
                stream = qcore._Rows(identities._gf_term_stream, t, x, y, q,
                                     alpha, wp).upto(cap)
                with mp.workdps(dps + 40):
                    peak = max(1, *map(abs, ref))
                    assert max(abs(mpf(v) / 2 ** wp - want) for v, want
                               in zip(stream, ref)) <= 2 ** (16 - wp) * peak, case
                streams.clear()
                got = [_gf_outcome(half, t, x, y, q, p, trunc)
                       for half in (None, 0, 1)]
                # at 181 digits and tail_tol 1e-30 the capped halves first
                # stop on a sum that cancelled all its bits, then rerun
                rerun = case is _GF_CANCELLING or (
                    case is _GF_CAPPED and dps == 181 and trunc is not None)
                more = [bits for bits in streams if bits != wp]
                assert streams.count(wp) == 3 and all(b > wp for b in more)
                assert len(more) == (2 if rerun else 0), case
                qcore._kept.cache_clear()
                for _ in range(2):  # cold, then with the rows of (q, alpha) kept
                    with shared_scope():
                        again = [_gf_outcome(half, t, x, y, q, p, trunc)
                                 for half in (None, 0, 1)]
                        assert qcore._Rows(identities._gf_term_stream, t, x,
                                           y, q, alpha, wp).upto(cap) == stream
                    assert list(map(_gf_bits, again)) == list(map(_gf_bits, got))
                raised = [isinstance(v, ConvergenceError) for v in got]
                assert raised == [case is _GF_CAPPED] * 3, case
                if case is _GF_CAPPED:
                    continue
                for half, (total, used) in zip((None, 0, 1), got):
                    bound = mpf(2) ** (1 - mp.prec) + (0 if trunc is None
                                                       else 100 * tail)
                    with mp.workdps(dps + 40):  # mpf negation rounds
                        signed = _signed_terms(ref, half)
                        want = sum(signed)
                        assert abs(total - want) <= bound * max(1, abs(want)), (
                            case, half)
                        # the stop rule on the reference terms: two in a row
                        # below tail_tol * max(1, |partial sum|), from n = 4
                        partial, small = mpf(0), []
                        for v in signed:
                            partial += v
                            small.append(abs(v) < tail * max(1, abs(partial)))
                            if len(small) > 4 and small[-2] and small[-1]:
                                break
                        # within the reference terms, whose rest is below
                        # tail_tol
                        assert used == len(small) < len(signed), (case, half)


@pytest.mark.parametrize("q", ["0.5", "0.9"])
@pytest.mark.parametrize("t", ["0.75", "0.9", "0.97"])
def test_gf_checks_pass_where_the_terms_fall_slowly(q, t):
    # |y t^2| = 0.5625, 0.81 and 0.94 need 721 to 6876 terms at the
    # checks' 80 digits, past 8*mp.dps + 1 = 641: every row passes, each
    # sum within its cap
    p, x, y, t = QParams(mpf(q), mpf("0.5")), mpf("1.7"), mpf(1), mpf(t)
    reports = [check_generating_function(t, x, y, p),
               *check_even_odd_gf(t, x, y, p), *check_bessel_forms(t, x, y, p)]
    with mp.workdps(80):
        cap = _gf_cap(y, t)
    assert reports[0].terms_used > 641
    assert all(r.passed and r.error is None and r.terms_used <= cap
               for r in reports), [(r.identity_id, r.terms_used) for r in reports]


def test_gf_cap_stops_at_the_callers_max_terms():
    # the count the decay asks for, 2459 terms at |y t^2| = 0.81, is cut to
    # trunc's max_terms; a max_terms under 8*mp.dps + 1 leaves that cap
    q, t, x, y = mpf("0.5"), mpf("0.9"), mpf("1.7"), mpf(1)
    p = QParams(q, mpf("0.5"))
    with mp.workdps(80):
        for max_terms, cap in ((1000, 1000), (400, 641)):
            trunc = Truncation(max_terms=max_terms)
            outcome = _gf_outcome(None, t, x, y, q, p, trunc)
            assert "within %d terms" % cap in str(outcome)
        assert _gf_outcome(None, t, x, y, q, p, Truncation())[1] == 1965


def _signed_terms(terms, half) -> list:
    """The terms of the whole series (half None) or of one half, with the
    half's sign (-1)^(j//2)."""
    if half is None:
        return terms
    return [-v if j & 2 else v for j, v in islice(enumerate(terms), half, None, 2)]


def test_gf_adaptive_sum_that_exhausts_its_cap_raises():
    # every sum at the capped cell raises, at each precision and tail_tol,
    # with the cap's text and the last term read, to 4 digits of that term
    # at 40 more digits; and through the checks at their working digits
    q, alpha, t, x, y = map(mpf, _GF_CAPPED)
    p = QParams(q, alpha)
    for dps in (50, 80, 181):
        for trunc in (None, Truncation(tail_tol=mpf("1e-30"))):
            with mp.workdps(dps):
                tail = (trunc or Truncation()).effective_tail_tol()
                cap = _gf_cap(y, t)
                ref = _reference_terms(t, x, y, q, p, 2 * cap + 1)
                for half in (None, 0, 1):
                    with mp.workdps(dps + 40):
                        last = _signed_terms(ref, half)[cap - 1]
                    assert str(_gf_outcome(half, t, x, y, q, p, trunc)) == (
                        "generating-function series did not meet tail_tol=%s "
                        "within %d terms (last term %s)"
                        % (mp.nstr(tail, 4), cap, mp.nstr(abs(last), 4)))
    args = (t, x, y, p)
    with pytest.raises(ConvergenceError, match="within 641 terms"):
        check_bessel_forms(*args)
    mp.dps = 20
    with pytest.raises(ConvergenceError, match="within 401 terms"):
        check_generating_function(*args)


def test_bessel_forms_negative_x_domain_error():
    with pytest.raises(DomainError):
        check_bessel_forms(mpf("0.3"), mpf("-0.6"), mpf("0.4"),
                           QParams(mpf("0.5"), mpf("0.25")))


def test_representation_and_recurrence_checks():
    p = QParams(mpf("0.2"), mpf("1.5"))
    reps = check_representations(9, p, mpf("-1.1"), mpf("0.3"))
    assert {r.identity_id for r in reps} \
        == {"representation_phi", "representation_laguerre"}
    assert all(r.passed for r in reps)
    r = check_recurrence(25, QParams(mpf("0.8"), mpf("-0.4")), mpf("1.7"), mpf(1))
    assert r.passed and r.rel_residual < mpf("1e-25")


def test_a_truncation_reaches_no_finite_sum():
    # the phi and Laguerre forms at n = 10 sum at most 6 terms each, and
    # pass under a cap of 5; in the suite every representation row at
    # n = 0..12 passes, while the generating-function rows, infinite
    # series, still raise, and every row records the caller's truncation
    capped = Truncation(max_terms=5)
    p, x, y = QParams(mpf("0.5"), mpf("0.3")), mpf("0.7"), mpf("0.4")
    reps = check_representations(10, p, x, y, trunc=capped)
    assert len(reps) == 2 and all(r.passed and r.truncation is capped
                                  for r in reps)
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.3",),
                        x_values=("0.7",), y_values=("0.4",))
    rows = run_identity_suite(grid, trunc=capped)
    assert all(r.truncation is capped for r in rows)
    forms = [r for r in rows if r.identity_id.startswith("representation")]
    assert len(forms) == 26 and all(r.passed for r in forms)
    errors = [r for r in rows if r.error is not None]
    assert {r.identity_id for r in errors} == {
        "generating_function", "even_gf", "odd_gf", "bessel_even", "bessel_odd"}
    assert len(errors) == 5 and all("max_terms=5" in r.error for r in errors)


# --- limit trends -----------------------------------------------------------------


def test_stieltjes_wigert_limit_trend():
    q = mpf("0.5")
    x, y = mpf("0.9"), mpf("0.7")
    for n in range(5):
        devs = [abs(gdqh2(n, x, y, QParams(q, mpf(a)))
                    - stieltjes_wigert_limit(n, x, y, q))
                for a in (5, 10, 20, 40)]
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)) \
            or max(devs) < mpf("1e-30"), (n, devs)


@pytest.mark.parametrize("y", [mpf(0), F(0)], ids=["mpf", "Fraction"])
def test_stieltjes_wigert_limit_needs_a_nonzero_y(y):
    # its argument x^2 / y divides by y: a DomainError naming y, not the
    # ZeroDivisionError of the division
    for n in range(4):
        with pytest.raises(DomainError, match="y != 0"):
            stieltjes_wigert_limit(n, F(9, 10), y, F(1, 2))


def test_hermite_scaling_limit_trend():
    x = mpf("0.7")
    for n in range(5):
        devs = [hermite_scaled_deviation(n, x, mpf(qq))
                for qq in ("0.9", "0.99", "0.999")]
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1)) \
            or max(devs) < mpf("1e-30"), (n, devs)


# --- suite runner -----------------------------------------------------------------


def test_suite_empty_grid():
    grid = IdentityGrid(q_values=(), alpha_values=(), n_values=(),
                        x_values=(), y_values=(), omega_values=(), t_values=())
    assert run_identity_suite(grid) == []


def test_suite_small_grid_all_pass():
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.3",),
                        n_values=(0, 3, 6), x_values=("1.2",),
                        y_values=("0.4",), omega_values=("0.9",),
                        t_values=("0.25",))
    reports = run_identity_suite(grid)
    summary = summarize_reports(reports)
    assert summary["all_passed"], summary
    # every identity family shows up on a grid with x > 0
    assert {r.identity_id for r in reports} == {
        "representation_phi", "representation_laguerre", "recurrence",
        "connection", "inversion", "generating_function",
        "even_gf", "odd_gf", "bessel_even", "bessel_odd"}


def test_suite_single_identity_filter():
    # a single id gives exactly the rows of `all` under that id, at both
    # signs of x and y; an out-of-domain t gives one error row, its own
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.3",),
                        n_values=(0, 1, 4), x_values=("-0.7", "1.2"),
                        y_values=("-0.4", "0.6"), omega_values=("0.9",),
                        t_values=("0.25",))
    everything = run_identity_suite(grid)
    for ident in IDENTITY_IDS:
        alone = run_identity_suite(grid, identity_id=ident)
        assert alone and alone == [r for r in everything if r.identity_id == ident]
    ood = replace(grid, n_values=(), x_values=("1.2",), y_values=("1",),
                  t_values=("5",))
    for ident in IDENTITY_IDS[5:]:
        (row,) = run_identity_suite(ood, identity_id=ident)
        assert row.identity_id == ident and "|y*t| < 1" in row.error
        # the fields a printed row does not show
        assert row.truncation == Truncation()
        assert row.tolerance == default_identity_tol()
    with pytest.raises(DomainError):
        run_identity_suite(grid, identity_id="no_such_identity")


def test_suite_rejects_a_bad_q_before_any_check(monkeypatch):
    # every (q, alpha) is checked before the first block: q = 0.5's block
    # does not run ahead of q = 1.5's DomainError
    calls = []
    check = identities.check_representations
    monkeypatch.setattr(identities, "check_representations",
                        lambda *args: calls.append(args) or check(*args))
    with pytest.raises(DomainError, match=r"q out of range \(0,1\)"):
        run_identity_suite(IdentityGrid(q_values=("0.5", "1.5")))
    assert calls == []


# one (q, alpha, x, y) cell of DEFAULT_GRID, x > 0 so every id has rows
CELL = replace(DEFAULT_GRID, **{f: getattr(DEFAULT_GRID, f)[-1:] for f in (
    "q_values", "alpha_values", "x_values", "y_values")})


def test_suite_cell_computes_shared_values_once(monkeypatch):
    # one ladder to n_max, one generating-function stream read as far as the
    # longest sum, and per n the shared definition sum and connection's lhs
    steps, sums = [], Counter()
    definition = polyfam._gdqh2_definition
    _counting_steps(monkeypatch, polyfam, steps)  # the ladder's kernel
    _counting_steps(monkeypatch, identities, steps, "_gf_term_stream")
    monkeypatch.setattr(polyfam, "_gdqh2_definition",
                        lambda n, *a: sums.update([n]) or definition(n, *a))
    reports = run_identity_suite(CELL)
    assert all(r.passed for r in reports)
    used = {r.identity_id: r.terms_used for r in reports if "t" in r.params}
    assert used["even_gf"] == used["bessel_even"] and used["odd_gf"] == used["bessel_odd"]
    # terms 0..g-1 of the whole series, even terms to 2e-2, odd to 2o-1
    stream = max(used["generating_function"], 2 * used["even_gf"] - 1,
                 2 * used["odd_gf"])
    n_max = max(CELL.n_values)
    assert len(steps) == n_max + stream - 1
    assert sums == {n: 2 for n in CELL.n_values}


def test_suite_block_builds_each_table_and_product_once(monkeypatch):
    # over one (q, alpha) and two (x, y) cells: every distinct finite table
    # (operands, backend and precision) and every distinct infinite product
    # is built once, and connection and inversion share one set of tables
    qcore._kept.cache_clear()  # builds counted from a cold start
    tables, products = Counter(), Counter()
    table, product = qcore._product_rows, qcore._infinite_product

    def key(args):
        return tuple((type(a), a) for a in args) + (mp.prec,)

    monkeypatch.setattr(qcore, "_product_rows",
                        lambda *a: tables.update([key(a)]) or table(*a))
    monkeypatch.setattr(qcore, "_infinite_product",
                        lambda *a: products.update([key(a)]) or product(*a))
    grid = replace(CELL, x_values=("0.9", "1.3"), y_values=("0.4",))
    reports = run_identity_suite(grid)
    assert all(r.passed for r in reports) and len(reports) == 2 * (5 * 13 + 5)
    assert tables and set(tables.values()) == {1}
    assert products and set(products.values()) == {1}
    # the Hahn tables of connection (c = omega) and inversion (c = 0), one
    # per backend at the cells' ladder digits, not one per degree
    with mp.workdps(identities._work_digits("cancel", 12, mpf(grid.q_values[0]))):
        ladder_prec = mp.prec
    hahn = [k for k in tables if k[0][1] in (0, mpf(grid.omega_values[0]))]
    assert len(hahn) == 2 and {k[-1] for k in hahn} == {ladder_prec}


def test_direct_checks_build_each_table_once_and_keep_nothing(monkeypatch):
    # called outside any scope, each polynomial check builds every distinct
    # finite table and q^(2 alpha + 1) once, keeps none of them past the
    # call, and reports the bits of the same call inside a shared scope
    p = QParams(mpf("0.68"), mpf("0.37"))
    x, y, omega = mpf("0.9"), mpf("0.5"), mpf("0.3")
    calls = [(check_representations, (60, p, x, y)),
             (check_recurrence, (60, p, x, y)),
             (check_inversion, (60, p, x, y)),
             (check_connection, (60, p, x, y, omega))]
    builds = Counter()
    table, lift = qcore._product_rows, qcore._odd_lift

    def key(name, args):
        return (name,) + tuple((type(a), a) for a in args) + (mp.prec,)

    def counted_lift(*a):
        builds.update([key("lift", a)])
        return lift(*a)

    monkeypatch.setattr(qcore, "_product_rows",
                        lambda *a: builds.update([key("table", a)]) or table(*a))
    monkeypatch.setattr(qcore, "_odd_lift", counted_lift)
    monkeypatch.setattr(polyfam, "_odd_lift", counted_lift)
    size = qcore._kept.cache_info().currsize
    direct = []
    for check, args in calls:
        builds.clear()
        direct.append(check(*args))
        assert builds and set(builds.values()) == {1}, check.__name__
    assert qcore._kept.cache_info().currsize == size
    assert qcore._SCOPE.get() is None
    with shared_scope():
        scoped = [check(*args) for check, args in calls]

    def bits(got):
        return [(r.identity_id, r.lhs._mpf_, r.rhs._mpf_, r.rel_residual._mpf_)
                for r in (got if isinstance(got, list) else [got])]

    assert [bits(r) for r in direct] == [bits(r) for r in scoped]
    assert direct == scoped


@pytest.mark.parametrize("q, alpha, exact", [
    ("0.5", "1.5", False), ("0.68", "0.37", False), ("0.625", "0.375", True)])
def test_direct_calls_give_the_bits_of_a_shared_scope(q, alpha, exact):
    # the four polynomial checks at n = 60, each in a call-local scope of
    # its own, the three generating-function checks and the q-functions,
    # whose sums build their factor tables for themselves outside a scope,
    # give the bits they give inside one.  At 0.625 0.375 a Fraction
    # (q, alpha), which each call takes as floats at its working digits,
    # gives the mpf pass's bits: a dyadic value is one mpf at any digits
    x, y, omega, t = mpf("0.9"), mpf("0.5"), mpf("0.3"), mpf("0.2")

    def bits(num, scoped):
        p = QParams(num(q), num(alpha))
        qcore._kept.cache_clear()
        with shared_scope() if scoped else nullcontext():
            reports = [*check_representations(60, p, x, y),
                       check_recurrence(60, p, x, y),
                       check_inversion(60, p, x, y),
                       check_connection(60, p, x, y, omega),
                       check_generating_function(t, x, y, p),
                       *check_even_odd_gf(t, x, y, p),
                       *check_bessel_forms(t, x, y, p)]
            values = [euler_e(omega, p.q), gen_E(x, p), q_cos_alpha(x, p),
                      q_sin_alpha(x, p), q_bessel2(p.alpha, x, p.q),
                      polyfam.q_laguerre(4, p.alpha, x, p.q, rep="phi21")]
        return ([(r.identity_id, r.lhs._mpf_, r.rhs._mpf_,
                  r.rel_residual._mpf_, r.terms_used) for r in reports],
                [v._mpf_ for v in values])

    direct = bits(mpf, False)
    assert len(direct[0]) == 10
    assert bits(mpf, True) == direct
    if exact:
        assert bits(F, False) == direct


def test_suite_block_builds_each_form_row_once(monkeypatch):
    # over one (q, alpha) and two (x, y) cells: the rows of (n, q, alpha)
    # that the three forms, q_laguerre and the descending sum read are each
    # built once per operands and precision
    qcore._kept.cache_clear()  # builds counted from a cold start
    rows = Counter()

    def counted(name):
        row = getattr(polyfam, name)

        def build(*args):
            rows.update([(name, mp.prec) + tuple((type(a), a) for a in args)])
            return row(*args)
        monkeypatch.setattr(polyfam, name, build)
        return build

    monkeypatch.setattr(identities, "_gdqh2_terms", counted("_gdqh2_terms"))
    for name in ("_phi_row", "_laguerre_row", "_q_laguerre_row"):
        counted(name)
    grid = replace(CELL, x_values=("0.9", "1.3"), y_values=("0.4",))
    assert all(r.passed for r in run_identity_suite(grid))
    assert set(rows.values()) == {1}
    # per n: the forms' rows, and the terms at alpha for the definition sum
    # at the polynomial digits and for connection's lhs at the ladder digits,
    # and at alpha = -1/2 for the descending sum
    n_values = len(CELL.n_values)
    assert Counter(k[0] for k in rows) == Counter({
        "_gdqh2_terms": 3 * n_values, "_phi_row": n_values,
        "_laguerre_row": n_values, "_q_laguerre_row": n_values})


def test_suite_block_reads_one_coefficient_table_per_precision(monkeypatch):
    # the two cells' ladders (at the ladder digits) read one table of
    # recurrence coefficients, and their generating-function streams (at 30
    # more digits) one table of rows at the streams' fixed-point bits
    qcore._kept.cache_clear()  # builds counted from a cold start
    tables, rows = Counter(), Counter()
    table, gf_rows = polyfam._recurrence_rows, identities._gf_row_stream
    monkeypatch.setattr(polyfam, "_recurrence_rows",
                        lambda *a: tables.update([mp.prec]) or table(*a))
    monkeypatch.setattr(identities, "_gf_row_stream",
                        lambda q, alpha, wp: rows.update([wp]) or gf_rows(q, alpha, wp))
    grid = replace(CELL, x_values=("0.9", "1.3"), y_values=("0.4",))
    assert all(r.passed for r in run_identity_suite(grid))
    with mp.workdps(identities._work_digits("cancel", 12, mpf(grid.q_values[0]))):
        ladder_prec = mp.prec
    with mp.workdps(mp.dps + 30):
        wp = fixed_bits(Truncation().effective_tail_tol(), 8 * mp.dps + 1)
    assert tables == Counter({ladder_prec: 1}) and rows == Counter({wp: 1})


def test_suite_leaves_no_scope_open(monkeypatch):
    grid = replace(CELL, n_values=(0, 1))
    assert run_identity_suite(grid)
    assert qcore._SCOPE.get() is None and identities._BLOCK.get() is None

    def broken(*args):
        raise RuntimeError("not a check error")

    monkeypatch.setattr(identities, "check_inversion", broken)
    with pytest.raises(RuntimeError):
        run_identity_suite(grid)
    assert qcore._SCOPE.get() is None and identities._BLOCK.get() is None
    built = []
    qcore.shared(built.append, 1)
    qcore.shared(built.append, 1)
    assert built == [1, 1]


def test_a_second_default_grid_pass_reads_every_kept_value():
    # the kept LRU holds all that one pass over DEFAULT_GRID keeps, so a
    # caller that loops over the grid in one process rebuilds nothing
    qcore._kept.cache_clear()
    run_identity_suite(DEFAULT_GRID)
    first = qcore._kept.cache_info()
    run_identity_suite(DEFAULT_GRID)
    second = qcore._kept.cache_info()
    assert first.currsize == first.misses > 0
    assert second.misses == first.misses and second.hits > first.hits


def test_suite_rows_match_direct_calls():
    # representation and generating-function rows are the direct calls' bit
    # for bit; the shared ladder is more precise than a direct call's, which
    # moves only residuals far below the printed digits
    for r in run_identity_suite(CELL):
        a = r.params
        p, n = QParams(a["q"], a["alpha"]), a.get("n")
        if r.identity_id.startswith("representation"):
            assert r in check_representations(n, p, a["x"], a["y"])
        elif "t" in a:
            check = {"generating_function": check_generating_function,
                     "even_gf": check_even_odd_gf, "odd_gf": check_even_odd_gf,
                     "bessel_even": check_bessel_forms,
                     "bessel_odd": check_bessel_forms}[r.identity_id]
            got = check(a["t"], a["x"], a["y"], p)
            assert r in (got if isinstance(got, tuple) else (got,))
    # every row meets the bound; the printed digits are compared at the
    # first alpha and the first q, where the cell's ladder carries the most
    # digits beyond a direct call's (about 100 at n = 0)
    first = (mpf(DEFAULT_GRID.q_values[0]), mpf(DEFAULT_GRID.alpha_values[0]))
    for ident in ("recurrence", "connection", "inversion"):
        for r in run_identity_suite(DEFAULT_GRID, identity_id=ident):
            a = r.params
            assert r.rel_residual <= mpf(10) ** -(mp.dps + 25), (ident, a)
            if (a["q"], a["alpha"]) != first:
                continue
            p, n = QParams(a["q"], a["alpha"]), a["n"]
            if ident == "connection":
                d = check_connection(n, p, a["x"], a["y"], a["omega"])
            else:
                d = {"recurrence": check_recurrence,
                     "inversion": check_inversion}[ident](n, p, a["x"], a["y"])
            assert fmt_scalar(r.lhs, 50) == fmt_scalar(d.lhs, 50)
            assert fmt_scalar(r.rhs, 50) == fmt_scalar(d.rhs, 50)


def test_suite_rows_at_the_top_degree_are_the_direct_checks():
    # the grid's largest degree sets the cell's ladder and the block's
    # digits, the ones a direct check at that degree takes itself: there a
    # connection or inversion row is the direct check's, every field bit for
    # bit, in a grid whose top degree is 3 and in one whose top is 12
    def bits(r):
        return [v._mpf_ for v in (r.lhs, r.rhs, r.abs_residual, r.rel_residual)]

    for top in (3, 12):
        grid = replace(CELL, n_values=tuple(range(top + 1)))
        for ident, check in (("connection", check_connection),
                             ("inversion", check_inversion)):
            (r,) = [r for r in run_identity_suite(grid, identity_id=ident)
                    if r.params["n"] == top]
            a = r.params
            p = QParams(a["q"], a["alpha"])
            point = (a["x"], a["y"]) + ((a["omega"],) if "omega" in a else ())
            direct = check(top, p, *point)
            assert direct == r and bits(direct) == bits(r), (top, ident)


@pytest.mark.parametrize("n", [2.5, 2.0, True, mpf(2)],
                         ids=["2.5", "2.0", "True", "mpf(2)"])
def test_a_degree_that_is_not_an_int_is_a_domain_error(n):
    # 2.0 and mpf(2) are no degree and True is not h_1: each is a
    # DomainError, which the suite turns into one error row per id
    p = QParams(mpf("0.5"), mpf("0.3"))
    for rep in ("definition_sum", "phi_form", "laguerre_form"):
        with pytest.raises(DomainError, match="^degree n must be an int"):
            gdqh2(n, mpf("0.7"), mpf("0.4"), p, rep=rep)
    with pytest.raises(DomainError, match="^max_terms must be an int"):
        Truncation(max_terms=n)
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.3",), n_values=(n,),
                        x_values=("0.7",), y_values=("0.4",))
    (row,) = run_identity_suite(grid, identity_id="recurrence")
    assert row.identity_id == "recurrence" and "must be an int" in row.error
    rows = [r for r in run_identity_suite(grid) if "n" in r.params]
    assert len(rows) == 5 and all("must be an int" in r.error for r in rows)


@pytest.mark.parametrize("x", ["0.7", "0"])
@pytest.mark.parametrize("n", [-1, 2.0, True], ids=["-1", "2.0", "True"])
def test_every_polynomial_check_names_a_bad_degree(n, x):
    # the one index rule runs before any sum: at x = 0 inversion's x^n would
    # divide by zero first, and elsewhere a table's own check would name n
    p, y = QParams(mpf("0.5"), mpf("0.3")), mpf("0.4")
    message = ("degree n must be >= 0: got -1" if n == -1
               else "degree n must be an int: got %r" % n)
    for check, extra in ((check_representations, ()), (check_recurrence, ()),
                         (check_connection, (mpf("0.6"),)),
                         (check_inversion, ())):
        with pytest.raises(DomainError) as error:
            check(n, p, mpf(x), y, *extra)
        assert str(error.value) == message, check.__name__


def _nonfinite_probe_calls():
    """(name, call, finite arguments) for every public evaluator and check:
    call takes the arguments by name, each a finite real that the probe
    replaces in turn.  The polynomials are at n = 3 and the suite at n = 2,
    3, where every value depends on x and y."""
    def p(q, alpha):
        return qh.QParams(q, alpha)

    half, tol = mpf("0.5"), mpf("1e-30")
    qa = dict(q=half, alpha=mpf("0.3"))
    point = dict(qa, x=mpf("0.7"), y=mpf("0.4"))
    gf = dict(point, t=mpf("0.2"), tol=tol)
    series = dict(a=mpf("0.2"), b=mpf("0.3"), q=half, z=mpf("0.4"))
    calls = [
        ("q_pochhammer", lambda a, q: qh.q_pochhammer(a, q, 3), dict(a=half, q=half)),
        ("q_pochhammer_inf", qh.q_pochhammer, dict(a=half, q=half)),
        ("gen_q_shifted_factorial",
         lambda q, alpha: qh.gen_q_shifted_factorial(3, p(q, alpha)), qa),
        ("hahn_add_power", lambda x, y, q: qh.hahn_add_power(x, y, q, 3),
         dict(x=mpf("0.7"), y=mpf("0.4"), q=half)),
        ("phi", lambda a, b, q, z: qh.phi((a,), (b,), q, z), series),
        ("phi_rs", lambda b, q, z: qh.phi_rs(qh.PhiSpec((), (b,), q, z)),
         dict(b=mpf("0.2"), q=half, z=mpf("0.7"))),
        ("phi_terminating", lambda a, q, z: qh.phi((q ** -3, a), (), q, z,
                                                   terminate_at=3),
         dict(a=mpf("0.2"), q=half, z=mpf("0.4"))),
        ("euler_e", qh.euler_e, dict(x=mpf("0.3"), q=half)),
        ("q_bessel2", qh.q_bessel2, dict(nu=mpf("0.3"), z=mpf("0.7"), q=half)),
        ("gdqh2_recurrence_step",
         lambda x, y, q, alpha, h1, h0: qh.gdqh2_recurrence_step(
             qh.RecurrenceState(1, h1, h0), x, y, p(q, alpha)),
         dict(point, h1=mpf("0.7"), h0=mpf(1))),
        ("gdqh2_recurrence_ladder", lambda x, y, q, alpha:
         qh.gdqh2_recurrence_ladder(3, x, y, p(q, alpha)), point),
        ("discrete_q_hermite2", lambda x, q: qh.discrete_q_hermite2(3, x, q),
         dict(x=mpf("0.7"), q=half)),
        ("mu_hermite", lambda mu, x, q: qh.mu_hermite(3, mu, x, q),
         dict(mu=mpf("0.3"), x=mpf("0.7"), q=half)),
        ("rosenblum_hermite", lambda mu, x: qh.rosenblum_hermite(3, mu, x),
         dict(mu=mpf("0.3"), x=mpf("0.7"))),
        ("stieltjes_wigert", lambda x, q: qh.stieltjes_wigert(3, x, q),
         dict(x=mpf("0.7"), q=half)),
        ("stieltjes_wigert_limit", lambda x, y, q:
         stieltjes_wigert_limit(3, x, y, q), dict(x=mpf("0.7"), y=mpf("0.4"), q=half)),
        ("hermite_scaled_deviation", lambda x, q: hermite_scaled_deviation(3, x, q),
         dict(x=mpf("0.7"), q=half)),
        ("residuals", residuals, dict(lhs=half, rhs=half)),
        ("check_representations", lambda x, y, q, alpha, tol:
         check_representations(3, p(q, alpha), x, y, tol), dict(point, tol=tol)),
        ("check_recurrence", lambda x, y, q, alpha, tol:
         check_recurrence(3, p(q, alpha), x, y, tol), dict(point, tol=tol)),
        ("check_connection", lambda x, y, q, alpha, omega, tol:
         check_connection(3, p(q, alpha), x, y, omega, tol),
         dict(point, omega=mpf("0.6"), tol=tol)),
        ("check_inversion", lambda x, y, q, alpha, tol:
         check_inversion(3, p(q, alpha), x, y, tol), dict(point, tol=tol)),
        ("orthogonality_weight", lambda x, q, alpha:
         qh.orthogonality_weight(x, p(q, alpha)), dict(qa, x=mpf("0.7"))),
        ("orthogonality_rhs", lambda q, alpha: qh.orthogonality_rhs(2, p(q, alpha)), qa),
        ("orthogonality_check", lambda q, alpha, tol:
         qh.orthogonality_check(1, 1, p(q, alpha), tol), dict(qa, tol=tol)),
        ("orthogonality_gram", lambda q, alpha, tol:
         qh.orthogonality_gram(1, p(q, alpha), tol), dict(qa, tol=tol)),
    ]
    calls += [("q_laguerre_" + rep, lambda alpha, x, q, rep=rep:
               qh.q_laguerre(3, alpha, x, q, rep),
               dict(alpha=mpf("0.3"), x=mpf("0.7"), q=half))
              for rep in ("phi11", "phi21")]
    calls += [("gdqh2_" + rep, lambda x, y, q, alpha, rep=rep:
               gdqh2(3, x, y, p(q, alpha), rep), point)
              for rep in ("definition_sum", "phi_form", "laguerre_form")]
    calls += [(f.__name__, lambda x, q, alpha, f=f: f(x, p(q, alpha)),
               dict(qa, x=mpf("0.7")))
              for f in (qh.gen_E, qh.q_cos_alpha, qh.q_sin_alpha)]
    calls += [(check.__name__, lambda t, x, y, q, alpha, tol, check=check:
               check(t, x, y, p(q, alpha), tol), gf)
              for check in (check_generating_function, check_even_odd_gf,
                            check_bessel_forms)]
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0.3",),
                        n_values=(2, 3), x_values=("0.7",), y_values=("0.4",))
    calls += [("run_identity_suite", lambda tol, **values: run_identity_suite(
                   replace(grid, **{k: (str(v),) for k, v in values.items()}),
                   tol),
               {"tol": tol, field: mpf(getattr(grid, field)[0])})
              for field in ("q_values", "alpha_values", "x_values", "y_values",
                            "omega_values", "t_values")]
    return calls


def _flags_nonfinite(out) -> bool:
    """True for a non-finite value (any one of a list), or for reports of
    which none that holds a non-finite parameter passed."""
    if isinstance(out, identities.IdentityReport):
        out = [out]
    if isinstance(out, (list, tuple)) and out and all(
            isinstance(r, identities.IdentityReport) for r in out):
        return not any(r.passed for r in out
                       if not all(map(mp.isfinite, r.params.values())))
    if isinstance(out, (list, tuple)):
        return any(map(_flags_nonfinite, out))
    if isinstance(out, qh.SeriesValue):
        out = out.value
    if isinstance(out, qh.RecurrenceState):
        out = out.current
    return not mp.isfinite(out)


def test_a_nonfinite_argument_never_gives_a_finite_value_or_a_pass():
    # libmp's to_fixed takes inf and nan as 0, so a convergent phi, a
    # q-cosine and the parity halves once summed them as finite numbers;
    # every numeric argument of every public evaluator and check, set to
    # inf, -inf or nan, now raises a QHermiteError, gives a non-finite value
    # or gives reports none of which passes
    missed = []
    for name, call, args in _nonfinite_probe_calls():
        for key, bad in product(args, ("inf", "-inf", "nan")):
            try:
                out = call(**dict(args, **{key: mpf(bad)}))
            except QHermiteError:
                continue
            if not _flags_nonfinite(out):
                missed.append((name, key, bad))
    assert not missed


def test_summarize_counts():
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0",),
                        n_values=(1, 2), x_values=("0.4",), y_values=("1",),
                        omega_values=("0.6",), t_values=("0.2",))
    reports = run_identity_suite(grid, identity_id="recurrence")
    s = summarize_reports(reports)
    assert s["total"] == 2 and s["passed"] == 2
    assert s["failed"] == 0 and s["errors"] == 0
    assert "recurrence" in s["worst_rel_residual"]
