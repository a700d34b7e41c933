"""The folded kernels against the same quantity 40 digits higher.

Each kernel's error is bounded by a few roundings per term, relative to
the sum of the absolute values of its terms: for the ladder, the
definition sum and the phi and Laguerre forms that is h_n at (|x|, -|y|),
where every term and every step of the recurrence is positive (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.3).  The
seeded cells include n = 60 and a point next to a zero of h_n, where the
sums cancel to far below their terms.
"""

import random

import pytest
from mpmath import mp, mpf

from qhermite import polyfam
from qhermite.identities import _descending_sum
from qhermite.qcore import QParams, _products
from qhermite.scalars import arithmetic

ROUNDINGS = 8  # per degree, a bound with room above the measured 1 or so


def _cells(seed: int, count: int):
    """Seeded mpf (q, alpha, x, y) cells with y > 0, for every form."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(mpf("%.6f" % v) for v in (
            rng.uniform(0.3, 0.8), rng.uniform(-0.8, 2.0),
            rng.choice((-1, 1)) * rng.uniform(0.2, 2.0), rng.uniform(0.1, 2.0)))


def _near_zero(n: int, y, p: QParams):
    """An x at the working precision next to the first positive zero of
    h_n(., y) on a grid of step 1/50, bisected 40 digits higher."""
    def positive(x):
        return polyfam.gdqh2_recurrence_ladder(n, x, y, p)[n] > 0
    with mp.workdps(30):
        xs = [mpf(i) / 50 for i in range(1, 400)]
        signs = [positive(x) for x in xs]
    i = next(i for i in range(len(xs) - 1) if signs[i] != signs[i + 1])
    low, high, steps = xs[i], xs[i + 1], mp.prec + 8
    with mp.workdps(mp.dps + 40):
        for _ in range(steps):
            mid = (low + high) / 2
            low, high = (mid, high) if positive(mid) == signs[i] else (low, mid)
    return +low


def _points(n: int):
    for q, alpha, x, y in _cells(44 + n, 3):
        yield q, alpha, x, y
    q, alpha, _, y = next(_cells(45 + n, 1))
    yield q, alpha, _near_zero(n, y, QParams(q, alpha)), y


@pytest.mark.parametrize("n", [12, 60])
def test_forms_and_ladder_are_within_their_rounding_bound(n):
    unit = mpf(2) ** -mp.prec
    for q, alpha, x, y in _points(n):
        p = QParams(q, alpha)
        got = {"definition": polyfam._gdqh2_definition(n, x, y, q, alpha),
               "phi": polyfam._gdqh2_phi(n, x, y, q, alpha),
               "laguerre": polyfam._gdqh2_laguerre(n, x, y, q, alpha)}
        ladder = polyfam.gdqh2_recurrence_ladder(n, x, y, p)
        with mp.workdps(mp.dps + 40):
            want = polyfam._gdqh2_definition(n, x, y, q, alpha)
            scale = polyfam.gdqh2_recurrence_ladder(n, abs(x), -abs(y), p)
            exact = polyfam.gdqh2_recurrence_ladder(n, x, y, p)
            for form, value in got.items():
                bound = ROUNDINGS * (n + 1) * unit * scale[n]
                assert abs(value - want) <= bound, (form, n, x, y)
            for k in range(n + 1):
                bound = ROUNDINGS * (k + 1) * unit * scale[k]
                assert abs(ladder[k] - exact[k]) <= bound, ("ladder", k, x, y)


@pytest.mark.parametrize("n", [12, 60])
def test_descending_sum_is_within_its_rounding_bound(n):
    # sum_k c_k (omega (+) -y)^k h_(n-2k): each term's absolute value is at
    # most |c_k| prod_j (|omega| + |y| q^(2j)) H_(n-2k), H the ladder at
    # (|x|, -|y|), which bounds the ladder's error too
    unit, half = mpf(2) ** -mp.prec, mpf(-0.5)
    for q, alpha, x, y in _points(n):
        p, omega = QParams(q, alpha), y / 3
        got = _descending_sum(n, x, y, omega, q, p)
        with mp.workdps(mp.dps + 40):
            want = _descending_sum(n, x, y, omega, q, p)
            ladder = polyfam.gdqh2_recurrence_ladder(n, abs(x), -abs(y), p)
            hahn = _products(abs(omega), -abs(y), q * q, n // 2, point=True)
            value = arithmetic(q).value
            size = sum(abs(value(c)) * value(hahn[k]) * ladder[n - 2 * k]
                       for k, _, _, c in polyfam._gdqh2_terms(n, q, half))
            assert abs(got - want) <= ROUNDINGS * (n + 1) * unit * size, (n, x, y)
