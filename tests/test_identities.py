"""Connection, inversion, generating functions, Bessel forms, limit trends."""

from collections import Counter
from contextlib import nullcontext
from copy import copy
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate, islice, pairwise
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from qhermite import identities, polyfam, qcore, qseries
from qhermite.errors import ConvergenceError, DomainError
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
from qhermite.polyfam import gdqh2
from qhermite.qcore import QParams, Truncation, q_pochhammer, shared_scope
from qhermite.qseries import euler_e, gen_E
from qhermite.scalars import binom2, fmt_scalar, qpowers


def test_residual_normalization():
    a, r = residuals(mpf(2), mpf(2))
    assert a == 0 and r == 0
    a, r = residuals(mpf("1e6"), mpf("1e6") + 1)
    assert abs(r - 1 / (mpf("1e6") + 1)) < mpf("1e-50")
    # below 1 in magnitude the relative residual degrades to the absolute one
    a, r = residuals(mpf("0.25"), mpf("0.5"))
    assert a == r == mpf("0.25")


def test_default_tolerance_is_half_the_digits_at_each_precision():
    # 10^-(dps//2), bit for bit, at each precision and again on its return
    for dps in (15, 50, 80, 50, 181, 15):
        with mp.workdps(dps):
            want = (mpf(10) ** -(dps // 2))._mpf_
            assert default_identity_tol()._mpf_ == want


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
        want = (q ** binom2(n) * gdqh2(n, x, y, p)
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


def _counting_steps(monkeypatch, module, steps):
    """module's float recurrence kernel, with one entry in steps per value
    past h_0: one recurrence step each."""
    kernel = module._recurrence

    def counted(*args):
        stream = kernel(*args)
        yield next(stream)
        for h in stream:
            steps.append(1)
            yield h

    monkeypatch.setattr(module, "_recurrence", counted)


def test_gf_checks_read_the_recurrence_only_as_far_as_they_sum(monkeypatch):
    # the series stop after tens of terms; the recurrence stream behind them
    # is stepped no further than the longest sum needs
    steps = []
    _counting_steps(monkeypatch, identities, steps)
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


def test_gf_terms_read_the_running_weight_of_the_expression_it_replaced():
    # the weight's factors read the kept rows (q^j, 1 - q^(j+1)) of q; the
    # terms are those of the running weight below, bit for bit, outside a
    # scope and in one, cold and warm, at each precision, for a q rounded
    # to fewer bits than the sum runs at and one to more
    def reference(t, x, y, q, p):
        weights = accumulate((t * a / (1 - b) for a, b
                              in pairwise(qpowers(q, 1, 0))), mul, initial=mpf(1))
        return map(mul, weights, polyfam.gdqh2_recurrence_values(x, y, p))

    t, x, y = mpf("-0.25"), mpf("0.9"), mpf("0.6")
    qs = [mpf("0.68")]
    with mp.workdps(80):
        qs.append(mpf("0.41"))
    qcore._kept.cache_clear()
    for dps in (80, 50, 80):
        with mp.workdps(dps):
            for q in qs:
                p = QParams(q, mpf("0.37"))
                want = [v._mpf_ for v in islice(reference(t, x, y, q, p), 120)]
                for scope in (nullcontext, shared_scope, shared_scope):
                    with scope():
                        got = map(mp.make_mpf, identities._gf_terms(t, x, y, q, p))
                        assert [v._mpf_ for v in islice(got, 120)] == want


def _reference_terms(t, x, y, q, p):
    """The generating-function terms as mpf expressions: a running weight
    over the recurrence step chain, the stream before the raw one."""
    def chain():
        state = polyfam.RecurrenceState(0, mpf(1), mpf(0))
        while True:
            yield state.current
            state = polyfam.gdqh2_recurrence_step(state, x, y, p)

    weights = accumulate((t * a / (1 - b) for a, b
                          in pairwise(qpowers(q, 1, 0))), mul, initial=mpf(1))
    return map(mul, weights, chain())


def _reference_series(terms, trunc):
    """The generating-function sum on mpf values, with its stop rule, cap
    and error text, as the reference for the raw one."""
    tail = (trunc or Truncation()).effective_tail_tol()
    total = mpf(0)
    small = used = 0
    for n, term in enumerate(islice(terms, 8 * mp.dps + 1)):
        total += term
        used = n + 1
        if abs(term) < tail * max(1, abs(total)):
            small += 1
            if small >= 2 and n >= 4:
                return total._mpf_, used
        else:
            small = 0
    raise ConvergenceError(
        "generating-function series did not meet tail_tol=%s within "
        "%d terms (last term %s)"
        % (mp.nstr(tail, 4), used, mp.nstr(abs(term), 4)))


def _outcome(series, *args):
    """(sum bits, terms used), or the text of the ConvergenceError raised."""
    try:
        total, used = series(*args)
    except ConvergenceError as exc:
        return str(exc)
    return getattr(total, "_mpf_", total), used


@pytest.mark.parametrize("dps", [50, 80, 181])
def test_gf_stream_and_sums_are_the_mpf_expressions_bit_for_bit(dps):
    # the raw term stream, the whole series and both halves against the mpf
    # loops they replaced, to the same bits, terms used and stop; at q =
    # 0.95 the sums exhaust their 8*mp.dps + 1 cap with the same text
    cases = [("0.68", "0.37", "-0.25", "0.9", "0.6"),
             ("0.2", "-0.4", "0.2", "-1.1", "0.3"),
             ("0.95", "0.5", "0.95", "1.1", "1.05")]
    for trunc in (None, Truncation(tail_tol=mpf("1e-30"))):
        for q, alpha, t, x, y in cases:
            with mp.workdps(dps):
                q, alpha, t, x, y = map(mpf, (q, alpha, t, x, y))
                p = QParams(q, alpha)
                terms = identities._gf_terms(t, x, y, q, p)
                assert list(islice(copy(terms), 200)) == [
                    v._mpf_ for v in islice(_reference_terms(t, x, y, q, p), 200)]
                got = [_outcome(identities._gf_series, copy(terms), trunc)]
                want = [_outcome(_reference_series,
                                 _reference_terms(t, x, y, q, p), trunc)]
                for half in (0, 1):
                    ref = ((-1) ** (j // 2) * w for j, w in islice(enumerate(
                        _reference_terms(t, x, y, q, p)), half, None, 2))
                    got.append(_outcome(identities._half_series, half, terms, trunc))
                    want.append(_outcome(_reference_series, ref, trunc))
                assert got == want
                capped = "within %d terms" % (8 * dps + 1)
                assert (capped in str(got[0])) == (q > mpf("0.9"))


def test_gf_adaptive_sum_that_exhausts_its_cap_raises():
    p = QParams(mpf("0.95"), mpf("0.5"))
    args = (mpf("0.95"), mpf("1.1"), mpf("1.05"), p)
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


# one (q, alpha, x, y) cell of DEFAULT_GRID, x > 0 so every id has rows
CELL = replace(DEFAULT_GRID, **{f: getattr(DEFAULT_GRID, f)[-1:] for f in (
    "q_values", "alpha_values", "x_values", "y_values")})


def test_suite_cell_computes_shared_values_once(monkeypatch):
    # one ladder to n_max, one generating-function stream read as far as the
    # longest sum, and per n the shared definition sum and connection's lhs
    steps, sums = [], Counter()
    definition = polyfam._gdqh2_definition
    for module in (polyfam, identities):  # the ladder's kernel, the stream's
        _counting_steps(monkeypatch, module, steps)
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
    table, product = qcore._product_table, qcore._infinite_product

    def key(args):
        return tuple((type(a), a) for a in args) + (mp.prec,)

    monkeypatch.setattr(qcore, "_product_table",
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
    table, lift = qcore._product_table, qcore._odd_lift

    def key(name, args):
        return (name,) + tuple((type(a), a) for a in args) + (mp.prec,)

    def counted_lift(*a):
        builds.update([key("lift", a)])
        return lift(*a)

    monkeypatch.setattr(qcore, "_product_table",
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
    assert qcore.scope_declared() is None
    with shared_scope():
        scoped = [check(*args) for check, args in calls]

    def bits(got):
        return [(r.identity_id, r.lhs._mpf_, r.rhs._mpf_, r.rel_residual._mpf_)
                for r in (got if isinstance(got, list) else [got])]

    assert [bits(r) for r in direct] == [bits(r) for r in scoped]
    assert direct == scoped


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
    # the two cells' ladders (at the ladder digits) and generating-function
    # streams (at 30 more digits) each read one table of their precision
    qcore._kept.cache_clear()  # builds counted from a cold start
    tables = Counter()
    table = polyfam._recurrence_table
    monkeypatch.setattr(polyfam, "_recurrence_table",
                        lambda *a: tables.update([mp.prec]) or table(*a))
    grid = replace(CELL, x_values=("0.9", "1.3"), y_values=("0.4",))
    assert all(r.passed for r in run_identity_suite(grid))
    with mp.workdps(identities._work_digits("cancel", 12, mpf(grid.q_values[0]))):
        ladder_prec = mp.prec
    with mp.workdps(mp.dps + 30):
        gf_prec = mp.prec
    assert tables == Counter({ladder_prec: 1, gf_prec: 1})


def test_suite_leaves_no_scope_open(monkeypatch):
    grid = replace(CELL, n_values=(0, 1))
    assert run_identity_suite(grid) and qcore.scope_declared() is None

    def broken(*args):
        raise RuntimeError("not a check error")

    monkeypatch.setattr(identities, "check_inversion", broken)
    with pytest.raises(RuntimeError):
        run_identity_suite(grid)
    assert qcore.scope_declared() is None
    built = []
    qcore.shared(built.append, 1)
    qcore.shared(built.append, 1)
    assert built == [1, 1]


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


def test_summarize_counts():
    grid = IdentityGrid(q_values=("0.5",), alpha_values=("0",),
                        n_values=(1, 2), x_values=("0.4",), y_values=("1",),
                        omega_values=("0.6",), t_values=("0.2",))
    reports = run_identity_suite(grid, identity_id="recurrence")
    s = summarize_reports(reports)
    assert s["total"] == 2 and s["passed"] == 2
    assert s["failed"] == 0 and s["errors"] == 0
    assert "recurrence" in s["worst_rel_residual"]
