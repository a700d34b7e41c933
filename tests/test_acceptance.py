"""Acceptance gate: one test per shipped guarantee, run with -v for the ledger.

Each test covers one contract line end to end at its stated tolerance.
Criterion 9 is recorded as a strict xfail: the widely printed exponent
n(n-1) is off by a factor of two (n = 2 already separates the sides), so
the stated form fails honestly and the corrected exponent n(n-1)/2 gets
its own passing companion directly below.
"""

import json
import time

import pytest
from mpmath import mp, mpf

from qhermite.cli import main
from qhermite.identities import (
    DEFAULT_GRID,
    check_bessel_forms,
    check_connection,
    check_even_odd_gf,
    check_generating_function,
    check_inversion,
    check_representations,
    hermite_scaled_deviation,
    stieltjes_wigert_limit,
)
from qhermite.polyfam import (
    discrete_q_hermite2,
    gdqh2,
    gdqh2_recurrence_ladder,
    mu_hermite,
)
from qhermite.qcore import QParams
from qhermite.quadrature import orthogonality_gram
from qhermite.scalars import qpow

TOL25 = mpf("1e-25")

GRID_Q = [mpf(s) for s in DEFAULT_GRID.q_values]
GRID_A = [mpf(s) for s in DEFAULT_GRID.alpha_values]
GRID_X = [mpf(s) for s in DEFAULT_GRID.x_values]
GRID_Y = [mpf(s) for s in DEFAULT_GRID.y_values]


def _combos():
    for q in GRID_Q:
        for a in GRID_A:
            p = QParams(q, a)
            for x in GRID_X:
                for y in GRID_Y:
                    yield p, x, y


def test_criterion_01_representation_equivalence():
    start = time.time()
    worst = mpf(0)
    for p, x, y in _combos():
        for n in range(21):
            for r in check_representations(n, p, x, y):
                assert r.passed, (r.identity_id, n, r.rel_residual)
                worst = max(worst, r.rel_residual)
    elapsed = time.time() - start
    assert worst < TOL25
    assert elapsed < 60, "representation sweep took %.1fs" % elapsed
    print("PASS criterion 01: representation equivalence, worst rel "
          "residual %s in %.1fs" % (mp.nstr(worst, 3), elapsed))


def test_criterion_02_recurrence_reproduces_family():
    worst = mpf(0)
    for p, x, y in _combos():
        ladder = gdqh2_recurrence_ladder(25, x, y, p)
        for n, got in enumerate(ladder):
            want = gdqh2(n, x, y, p)
            rel = abs(got - want) / max(1, abs(got), abs(want))
            assert rel < TOL25, (n, p.q, p.alpha, x, y, rel)
            worst = max(worst, rel)
    print("PASS criterion 02: three-term recurrence matches the series "
          "for n <= 25, worst rel residual %s" % mp.nstr(worst, 3))


def test_criterion_03_connection_formula():
    omega = mpf("0.6")
    worst = mpf(0)
    for p, x, y in _combos():
        for n in range(13):
            r = check_connection(n, p, x, y, omega)
            assert r.passed and r.rel_residual < TOL25, (n, r.rel_residual)
            worst = max(worst, r.rel_residual)
    # omega = y: every shift coefficient past k = 0 carries the factor
    # (y (-) y) = 0, so the identity collapses to h_n = h_n exactly
    from fractions import Fraction as F
    z = check_connection(8, QParams(F(1, 2), F(1, 2)), F(6, 5), F(2, 5),
                         F(2, 5))
    assert z.abs_residual == 0
    # y = 0 degenerates both sides to the plain definition
    c = check_connection(9, QParams(mpf("0.5"), mpf("0.3")), mpf("1.2"),
                         mpf(0), omega)
    assert c.passed
    print("PASS criterion 03: connection formula n <= 12 with structural "
          "zero and y = 0 collapse, worst rel residual %s" % mp.nstr(worst, 3))


def test_criterion_04_monomial_inversion():
    worst = mpf(0)
    for p, x, y in _combos():
        for n in range(21):
            r = check_inversion(n, p, x, y)
            assert r.passed and r.rel_residual < TOL25, (n, r.rel_residual)
            worst = max(worst, r.rel_residual)
    print("PASS criterion 04: monomial inversion n <= 20, worst rel "
          "residual %s" % mp.nstr(worst, 3))


def test_criterion_05_generating_function():
    tol = mpf("1e-20")
    worst = mpf(0)
    for p, x, y in _combos():
        for t in (mpf("0.2"), mpf("0.3")):
            r = check_generating_function(t, x, y, p, tol=tol)
            assert r.passed and r.rel_residual < tol, \
                (p.q, p.alpha, x, y, t, r.rel_residual)
            worst = max(worst, r.rel_residual)
    print("PASS criterion 05: generating function at t in {0.2, 0.3}, "
          "worst rel residual %s" % mp.nstr(worst, 3))


def test_criterion_06_parity_series_three_paths():
    tol = mpf("1e-15")
    t = mpf("0.3")
    y = mpf("0.4")
    worst = mpf(0)
    for q in GRID_Q:
        for a in (mpf(0), mpf("0.25"), mpf(1)):
            p = QParams(q, a)
            for x in (mpf("0.6"), mpf("1.5")):
                reports = (check_even_odd_gf(t, x, y, p)
                           + check_bessel_forms(t, x, y, p))
                for r in reports:
                    assert r.passed and r.rel_residual < tol, \
                        (r.identity_id, q, a, x, r.rel_residual)
                    worst = max(worst, r.rel_residual)
    print("PASS criterion 06: even/odd series, trig product and Bessel "
          "product agree, worst rel residual %s" % mp.nstr(worst, 3))


def test_criterion_07_discrete_orthogonality():
    start = time.time()
    q = mpf("0.5")
    for alpha in (mpf(0), mpf("0.5")):
        reports = orthogonality_gram(5, QParams(q, alpha))
        assert [(r.params["n"], r.params["m"]) for r in reports] == \
            [(n, m) for n in range(6) for m in range(n + 1)]
        for r in reports:
            n, m = r.params["n"], r.params["m"]
            if n == m:
                assert r.rel_residual < mpf("1e-10"), (n, r.rel_residual)
            else:
                assert r.rel_residual < mpf("1e-12"), (n, m, r.rel_residual)
    elapsed = time.time() - start
    assert elapsed < 120, "orthogonality sweep took %.1fs" % elapsed
    print("PASS criterion 07: discrete orthogonality q = 0.5, "
          "n, m <= 5 in %.1fs" % elapsed)


def test_criterion_08_limit_trends():
    floor = mpf("1e-30")
    q = mpf("0.5")
    x, y = mpf("0.9"), mpf("0.7")
    for n in range(5):
        devs = [abs(gdqh2(n, x, y, QParams(q, mpf(a)))
                    - stieltjes_wigert_limit(n, x, y, q))
                for a in (5, 10, 20, 40)]
        assert all(devs[i] > devs[i + 1] for i in range(3)) \
            or max(devs) < floor, (n, devs)
    xh = mpf("0.7")
    for n in range(5):
        devs = [hermite_scaled_deviation(n, xh, mpf(s))
                for s in ("0.9", "0.99", "0.999")]
        assert all(devs[i] > devs[i + 1] for i in range(2)) \
            or max(devs) < floor, (n, devs)
    print("PASS criterion 08: large-order and q -> 1 limits tighten "
          "monotonically")


@pytest.mark.xfail(strict=True,
                   reason="exponent n(n-1) overshoots by a factor of two; "
                          "n = 2 already separates the sides (see the "
                          "passing n(n-1)/2 companion)")
def test_criterion_09_zero_order_match_as_stated():
    q = mpf("0.5")
    x = mpf("0.3")
    for n in range(11):
        lhs = mu_hermite(n, mpf(0), x, q * q)
        rhs = q ** (n * (n - 1)) * discrete_q_hermite2(n, x, q)
        assert abs(lhs - rhs) <= TOL25 * max(1, abs(lhs)), n
    print("PASS criterion 09: zero-order match as stated")


def test_criterion_09_zero_order_match_corrected():
    q = mpf("0.5")
    x = mpf("0.3")
    for n in range(11):
        lhs = mu_hermite(n, mpf(0), x, q * q)
        rhs = qpow(q, n * (n - 1) // 2) * discrete_q_hermite2(n, x, q)
        assert abs(lhs - rhs) <= TOL25 * max(1, abs(lhs)), n
    print("PASS criterion 09 (corrected): zero-order family matches with "
          "exponent n(n-1)/2 for n <= 10")


def test_criterion_10_cli_contract(capsys, tmp_path):
    # golden value, byte-stable reruns, and the 0/1/2 exit code contract
    argv = ["--no-timestamp", "--format", "json", "eval", "gdqh2",
            "--n", "2", "--q", "0.5", "--alpha", "0", "--x", "1", "--y", "1"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == first
    row = json.loads(first)["rows"][0]
    assert row["value"].startswith("-3.33333333333333")

    for fmt in ("human", "csv"):
        targv = ["--no-timestamp", "--format", fmt, "table", "discrete-qh2",
                 "--n-max", "3", "--x", "0.7", "--q", "0.5"]
        assert main(list(targv)) == 0
        out1 = capsys.readouterr().out
        assert main(list(targv)) == 0
        assert capsys.readouterr().out == out1

    check = ["--no-timestamp", "check", "recurrence", "--q", "0.5",
             "--alpha", "0", "--n-max", "3", "--x", "0.8", "--y", "1",
             "--t", "0.2", "--omega", "0.6"]
    assert main(list(check)) == 0
    capsys.readouterr()
    assert main(["--rel-tol", "1e-90"] + check[1:]) == 1
    capsys.readouterr()
    assert main(["check", "all", "--q", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "q out of range (0,1)" in err
    print("PASS criterion 10: CLI determinism and exit code contract")
