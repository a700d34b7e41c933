"""Identity verification harness.

Every check evaluates both sides of one identity through *independent* code
paths and reports absolute and relative residuals.  The relative residual is

    |lhs - rhs| / max(1, |lhs|, |rhs|)

so identities remain checkable through zeros of either side (the residual
degrades to the absolute one there).

Checks escalate their internal working precision before summing: the
connection and inversion sums cancel terms of size roughly q^(-n^2), so a
result good to the ambient precision needs about n^2*log10(1/q) guard
digits.  run_identity_suite computes only the requested ids, and runs
each (q, alpha) block of its grid with the block set in _BLOCK and one
shared-value scope (qcore.shared_scope) open: in it each finite table,
recurrence-coefficient table, polynomial form's row of (n, q, alpha),
series factor row, real power, infinite product, working-digit count and
parity half-sum is computed once per backend, operands and precision,
across the block's (x, y) cells.  Each cell builds
one recurrence ladder to its largest n at the digits connection and
inversion need there; inside a block those two checks run at the ladder's
digits at every n, so one set of alpha = -1/2, (q^2;q^2) and Hahn tables
serves every degree; both read the definition sum's terms row
(polyfam._gdqh2_terms) at alpha = -1/2.  The four polynomial checks are
wrapped in qcore._call_local; each unifies (x, y, q, alpha) once and calls
polyfam's form bodies, and their shared definition sum, on those operands.
The generating-function checks read one term stream per cell (_gf_terms):
the series' terms q^C(j,2) t^j h_j / (q;q)_j follow one recurrence of
their own, on ints scaled by 2^wp (wp from scalars.fixed_sum), over
kept rows of (q, alpha, wp), and the whole series and both parity halves
(_gf_series) sum and compare those ints, each rounded once; the parity
reports run in a call-local scope when no scope is open, so both halves
read one stream.
Every IdentityReport, the suite's error rows and the orthogonality sweep's
included, is built by _report from parameters spelled by _params, with
residuals on raw libmp values.  Reports carry lhs, rhs and residuals at the
working precision of the check, not rounded back to the ambient context: a
printer that rounds them once to its own digits avoids rounding them twice.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_man_exp, mpf_abs, mpf_div, mpf_lt,
                          mpf_sub, round_nearest, to_fixed)

from .errors import ConvergenceError, DomainError, QHermiteError
from . import polyfam
from .polyfam import (
    _gdqh2_terms,
    _q_squared,
    gdqh2,
    gdqh2_recurrence_ladder,
    rosenblum_hermite,
    stieltjes_wigert,
)
from .qcore import (
    _DEFAULT_TRUNCATION,
    QParams,
    Truncation,
    _call_local,
    _check_degree,
    _products,
    _Rows,
    _gen_q_shifted,
    kept,
    q_pochhammer,
    shared,
    shared_scope,
)
from .qseries import _alpha_powers, euler_e, gen_E, q_bessel2, q_cos_alpha, q_sin_alpha
from .scalars import _ten_power, arithmetic, fixed_sum, is_exact, qpow, to_mpf, unify

__all__ = [
    "IdentityReport",
    "residuals",
    "default_identity_tol",
    "check_representations",
    "check_recurrence",
    "check_connection",
    "check_inversion",
    "check_generating_function",
    "check_even_odd_gf",
    "check_bessel_forms",
    "stieltjes_wigert_limit",
    "hermite_scaled_deviation",
    "IdentityGrid",
    "DEFAULT_GRID",
    "run_identity_suite",
    "summarize_reports",
    "IDENTITY_IDS",
]

IDENTITY_IDS = (
    "representation_phi",
    "representation_laguerre",
    "recurrence",
    "connection",
    "inversion",
    "generating_function",
    "even_gf",
    "odd_gf",
    "bessel_even",
    "bessel_odd",
)


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    lhs: mpf
    rhs: mpf
    abs_residual: mpf
    rel_residual: mpf
    truncation: Truncation
    tolerance: mpf
    passed: bool
    terms_used: int = 0
    note: str = ""
    error: Optional[str] = None


def residuals(lhs, rhs):
    """(absolute, relative) residual pair; relative uses max(1,|lhs|,|rhs|)."""
    prec, rnd = mp.prec, round_nearest
    lhs, rhs = to_mpf(lhs)._mpf_, to_mpf(rhs)._mpf_
    a = mpf_abs(mpf_sub(lhs, rhs, prec, rnd), prec, rnd)
    scale = fone  # max(1, |lhs|, |rhs|): the first of equals, as max keeps
    for side in (mpf_abs(lhs, prec, rnd), mpf_abs(rhs, prec, rnd)):
        scale = side if mpf_lt(scale, side) else scale
    return mp.make_mpf(a), mp.make_mpf(mpf_div(a, scale, prec, rnd))


def default_identity_tol():
    # half the ambient digits: 1e-25 at the standard 50-digit context
    return _ten_power(-(mp.dps // 2), mp.prec)


def _tolerance(tol) -> mpf:
    """A check's tolerance: tol as an mpf, else default_identity_tol()."""
    return to_mpf(tol) if tol is not None else default_identity_tol()


def _work_digits(kind: str, n: int = 0, q=None) -> int:
    """The ambient digits plus a margin, plus c n^2 log10(1/q) guard digits
    for a sum whose terms cancel from size q^(-c n^2): kind "poly" (the
    forms and the recurrence), "cancel" (connection and inversion), "gf"
    (the generating functions) or "sweep" (the orthogonality sweep)."""
    c, margin = {"poly": (0.5, 30), "cancel": (1.0, 30), "gf": (0, 30),
                 "sweep": (0, 20)}[kind]
    grow = mp.ceil(c * n * n * mp.log10(1 / to_mpf(q))) if c else 0
    return int(mp.dps + grow + margin)


def _params(p: QParams, **point) -> dict:
    """A report's parameters: q and alpha, then the point it was checked at."""
    return {"q": p.q, "alpha": p.alpha, **point}


def _report(identity_id, params, lhs, rhs, tol, trunc, terms_used=0, note="",
            residual=None, error=None):
    """A report against tol, as its public check resolved it up front.  The
    (absolute, relative) residual is residuals(lhs, rhs) unless the caller
    sets its own; error is the message of a check that raised."""
    abs_r, rel_r = residual if residual is not None else residuals(lhs, rhs)
    return IdentityReport(
        identity_id=identity_id,
        params=params,
        lhs=to_mpf(lhs),
        rhs=to_mpf(rhs),
        abs_residual=abs_r,
        rel_residual=rel_r,
        truncation=trunc or _DEFAULT_TRUNCATION,
        tolerance=tol,
        passed=bool(rel_r <= tol),
        terms_used=terms_used,
        note=note,
        error=error,
    )


# The (q, alpha) block that run_identity_suite is running, else None: the
# ids asked for, and the degree and digits of each (x, y) cell's one ladder,
# which connection and inversion also sum at.
_Block = namedtuple("_Block", "ids ladder_n ladder_dps")
_BLOCK: ContextVar[Optional[_Block]] = ContextVar("_BLOCK", default=None)


def _wanted(identity_id: str) -> bool:
    """False only inside a suite block that did not ask for identity_id."""
    block = _BLOCK.get()
    return block is None or identity_id in block.ids


def _ladder(n: int, x, y, p: QParams) -> list:
    """h_0..h_n, or the cell's longer ladder inside a suite block."""
    block = _BLOCK.get()
    if block is None:
        return gdqh2_recurrence_ladder(n, x, y, p)
    with mp.workdps(block.ladder_dps):
        return shared(gdqh2_recurrence_ladder, block.ladder_n, x, y, p)


def _cancel_digits(n: int, q) -> int:
    """The digits of connection and inversion at degree n: the cell's ladder
    digits inside a suite block, so one set of tables serves every n."""
    block = _BLOCK.get()
    if block is None:
        return kept(_work_digits, "cancel", n, q)
    return block.ladder_dps


# --- local families: representations and recurrence --------------------------


@_call_local
def check_representations(n: int, p: QParams, x, y,
                          tol=None, trunc: Optional[Truncation] = None):
    """definition_sum vs phi_form vs laguerre_form at one point.

    Returns up to two reports; laguerre_form is skipped (not failed) when
    y < 0, outside its real-power domain.
    """
    params = _params(p, n=n, x=x, y=y)
    tol = _tolerance(tol)
    forms = [(i, form) for i, form in (
                 ("representation_phi", polyfam._gdqh2_phi),
                 ("representation_laguerre", polyfam._gdqh2_laguerre))
             if _wanted(i) and (i == "representation_phi" or to_mpf(y) >= 0)]
    with mp.workdps(kept(_work_digits, "poly", n, p.q)):
        _check_degree(n)
        ops = unify(x, y, p.q, p.alpha)
        base = shared(polyfam._gdqh2_definition, n, *ops) if forms else None
        return [_report(i, params, base, form(n, *ops, trunc), tol, trunc)
                for i, form in forms]


@_call_local
def check_recurrence(n: int, p: QParams, x, y, tol=None,
                     trunc: Optional[Truncation] = None) -> IdentityReport:
    """Three-term recurrence ladder vs the definition sum at degree n."""
    params = _params(p, n=n, x=x, y=y)
    tol = _tolerance(tol)
    with mp.workdps(kept(_work_digits, "poly", n, p.q)):
        _check_degree(n)
        ops = unify(x, y, p.q, p.alpha)
        lhs = _ladder(n, x, y, p)[n]
        return _report("recurrence", params, lhs,
                       shared(polyfam._gdqh2_definition, n, *ops), tol, trunc)


# --- connection and inversion -------------------------------------------------


def _descending_sum(n: int, x, y, omega, q, p: QParams):
    """The expansion shared by connection and inversion,

      sum_k (-1)^k q^(-2nk+k(2k+1)) (omega (+)_{q^2} -y)^k
            / [(q^2;q^2)_k (q;q)_{n-2k}] * h_{n-2k}(x, y):

    the definition sum's terms at alpha = -1/2, where (q;q)_{m,-1/2} =
    (q;q)_m, with (omega (+)_{q^2} -y)^k h_{n-2k} for x^(n-2k) y^k, over one
    recurrence ladder.  At omega = 0, (0 (+)_{q^2} -y)^k = (-y)^k q^(k(k-1)).
    The Hahn powers are one product: omega = y zeroes every k >= 1 exactly.
    x, y, omega and q are unified with p.alpha, so the ladder is on q's
    backend.
    """
    ladder = _ladder(n, x, y, p)
    half = Fraction(-1, 2) if is_exact(q) else mpf(-0.5)  # exact at any precision
    hahn = _products(omega, y, _q_squared(q), n // 2, point=True)
    ar = arithmetic(q)
    mul, div, prec, rnd, total = ar.mul, ar.div, mp.prec, round_nearest, ar.zero
    for k, sign, den in kept(_gdqh2_terms, n, q, half):
        term = mul(div(mul(sign, hahn[k], prec, rnd), den, prec, rnd),
                   ar.raw(ladder[n - 2 * k]), prec, rnd)
        total = ar.add(total, term, prec, rnd)
    return ar.value(total)


@_call_local
def check_connection(n: int, p: QParams, x, y, omega, tol=None,
                     trunc: Optional[Truncation] = None) -> IdentityReport:
    """Parameter-shift expansion: the degree-n polynomial at second variable
    omega expanded in the family at second variable y,

      h_n(x, omega) = (q;q)_n sum_k q^(-2nk+k(2k+1)) (-omega (+)_{q^2} y)^k
                      / [(q^2;q^2)_k (q;q)_{n-2k}] * h_{n-2k}(x, y),

    _descending_sum at omega, since (-1)^k (omega (+)_{q^2} -y)^k is the
    Hahn power above.
    """
    params = _params(p, n=n, x=x, y=y, omega=omega)
    tol = _tolerance(tol)
    with mp.workdps(_cancel_digits(n, p.q)):
        _check_degree(n)
        x, y, omega, q, alpha = unify(x, y, omega, p.q, p.alpha)
        lhs = polyfam._gdqh2_definition(n, x, omega, q, alpha)
        rhs = kept(q_pochhammer, q, q, n) * _descending_sum(n, x, y, omega, q, p)
        return _report("connection", params, lhs, rhs, tol, trunc,
                       terms_used=n // 2 + 1)


@_call_local
def check_inversion(n: int, p: QParams, x, y, tol=None,
                    trunc: Optional[Truncation] = None) -> IdentityReport:
    """Monomial expansion, _descending_sum at omega = 0:
      x^n = (q;q)_{n,alpha} sum_k q^(-2nk+3k^2) y^k
            / [(q^2;q^2)_k (q;q)_{n-2k}] * h_{n-2k}(x, y)."""
    params = _params(p, n=n, x=x, y=y)
    tol = _tolerance(tol)
    with mp.workdps(_cancel_digits(n, p.q)):
        x, y, q, alpha = unify(x, y, p.q, p.alpha)
        lhs = qpow(x, n)
        rhs = kept(_gen_q_shifted, n, q, alpha) * _descending_sum(n, x, y, 0, q, p)
        return _report("inversion", params, lhs, rhs, tol, trunc,
                       terms_used=n // 2 + 1)


# --- generating functions ------------------------------------------------------


def _gf_domain(y, t):
    """Enforce both |yt| < 1 and |yt^2| < 1; return a note naming the binding
    (larger) bound."""
    b1, b2 = abs(to_mpf(y) * to_mpf(t)), abs(to_mpf(y) * to_mpf(t) ** 2)
    if not (b1 < 1 and b2 < 1):
        raise DomainError(
            "generating function needs |y*t| < 1 and |y*t^2| < 1: "
            "|y*t| = %s, |y*t^2| = %s" % (mp.nstr(b1, 6), mp.nstr(b2, 6))
        )
    return "binding bound: %s" % ("|y*t|" if b1 >= b2 else "|y*t^2|")


@contextmanager
def _gf_frame(t, x, y, p: QParams, tol):
    """The opening of a generating-function check, in this order: its
    params, the domain note, tol resolved at the ambient digits, then the
    working digits, at which x, y, t and q are taken as mpfs."""
    params = _params(p, x=x, y=y, t=t)
    note = _gf_domain(y, t)
    tol = _tolerance(tol)
    with mp.workdps(_work_digits("gf")):
        x, y, t, q = map(to_mpf, (x, y, t, p.q))
        yield params, note, tol, x, y, t, q


def _gf_rows(q, alpha, wp: int) -> _Rows:
    """The rows (q^n, 1 / (1 - q^(n+1+theta_n(2 alpha+1)))), n = 0, 1, ...,
    of the generating-function recurrence, as ints scaled by 2^wp: q^n a
    running product, q^(2 alpha + 1) taken once.  1 - q^(n+1) cancels up to
    the bits e of 1 / (1 - q), so both run at wp + e bits and each row is
    rounded down to 2^-wp."""
    return _Rows(_gf_row_stream, q, alpha, wp)


def _gf_row_stream(q, alpha, wp: int):
    """The rows of `_gf_rows`."""
    one = 1 << wp
    extra = (one // (one - to_fixed(q._mpf_, wp))).bit_length()
    hp = wp + extra
    with mp.workprec(hp):
        lift = to_fixed(qpow(q, 2 * alpha + 1)._mpf_, hp)
    one, q = 1 << hp, to_fixed(q._mpf_, hp)
    power = one
    for n in count():
        after = power * q >> hp  # q^(n+1)
        gap = one - (after if n & 1 else after * lift >> hp)
        yield power >> extra, (1 << wp + hp) // gap
        power = after


def _gf_terms(t, x, y, q, alpha, wp: int) -> _Rows:
    """The terms T_j = q^C(j,2) t^j h_j(x, y) / (q;q)_j of the
    generating-function series as ints scaled by 2^wp, one stream per cell
    that the whole series and both halves read.  Multiplying the
    polynomials' recurrence by the running weight gives one recurrence,

      T_(n+1) = t (x q^n T_n - y t T_(n-1)) / (1 - q^(n+1+theta_n(2a+1))),

    T_0 = 1, T_(-1) = 0, whose coefficients are bounded and whose solutions
    both fall like |y t^2|^(1/2) per step; it reads the kept rows of
    (q, alpha) (`_gf_rows`)."""
    return _Rows(_gf_term_stream, t, x, y, q, alpha, wp)


def _gf_term_stream(t, x, y, q, alpha, wp: int):
    """The terms of `_gf_terms`, each product rounded down to 2^-wp."""
    t, x, y = (to_fixed(v._mpf_, wp) for v in (t, x, y))
    tx, yt2 = t * x >> wp, (y * t >> wp) * t >> wp
    current, previous = 1 << wp, 0
    for power, inverse in kept(_gf_rows, q, alpha, wp).each():
        yield current
        step = ((tx * power >> wp) * current - yt2 * previous) >> wp
        current, previous = step * inverse >> wp, current


def _gf_series(half, t, x, y, q, p: QParams, trunc) -> tuple:
    """(sum, terms used) of the generating-function series (half None) or
    of one half of it, with the sign (-1)^(j//2),

      sum_n (-1)^n q^(n(2n-1)) t^(2n)   h_{2n}   / (q;q)_{2n}      (half 0)
      sum_n (-1)^n q^(n(2n+1)) t^(2n+1) h_{2n+1} / (q;q)_{2n+1}    (half 1),

    since C(2n,2) = n(2n-1) and C(2n+1,2) = n(2n+1), read from the cell's
    term stream (`_gf_terms`) at wp bits from scalars.fixed_sum, which
    reruns a sum that cancelled.  The sum stops after two consecutive terms
    below trunc's tail tolerance relative to the sum, |term| < tail_tol *
    max(1, |sum|), compared on the ints, and is rounded to mp.prec once.

    The terms fall like |y t^2|^(n/2), so 2 (dps + 10) / -log10|y t^2| of
    them reach 10^-(dps+10).  It reads at most 8*mp.dps + 1 terms, or that
    count with a margin of 5/4 when more, up to trunc's max_terms; if the
    stop rule is not met by then it raises ConvergenceError rather than
    return a truncated sum."""
    tail = (tr := trunc or _DEFAULT_TRUNCATION).effective_tail_tol()
    reach = 5 * (mp.dps + 10) / (-2 * mp.log10(abs(y * t * t)))
    cap = max(8 * mp.dps + 1, min(int(mp.ceil(reach)) + 1, tr.max_terms))
    (total, _, used), wp = fixed_sum(lambda wp: _gf_sum(half, shared(
        _gf_terms, t, x, y, q, to_mpf(p.alpha), wp), tail, wp, cap), tail, cap)
    return mp.make_mpf(from_man_exp(total, -wp, mp.prec, round_nearest)), used


def _gf_sum(half, stream: _Rows, tail, wp: int, cap: int) -> tuple:
    """(total, largest |term|, terms used) of `_gf_series` on the ints."""
    one, unit = 1 << wp, to_fixed(tail._mpf_, wp)
    terms = stream.each()
    if half is not None:
        terms = islice(terms, half, None, 2)
    total = peak = small = used = 0
    for n, term in enumerate(islice(terms, cap)):
        if half is not None and n & 1:
            term = -term
        total += term
        used, size = n + 1, abs(term)
        peak = max(peak, size)
        sum_size = abs(total)
        if size < (unit * sum_size >> wp if sum_size > one else unit):
            small += 1
            if small >= 2 and n >= 4:
                return total, peak, used
        else:
            small = 0
    raise ConvergenceError(
        "generating-function series did not meet tail_tol=%s within "
        "%d terms (last term %s)"
        % (mp.nstr(tail, 4), used,
           mp.nstr(mp.make_mpf(from_man_exp(size, -wp, mp.prec,
                                            round_nearest)), 4)))


@_call_local
def _parity_reports(ids, rhs, t, x, y, q, p: QParams, params, tol, trunc, note):
    """The wanted reports of ids = (even id, odd id): each half of the
    series (_gf_series) against rhs(half) * e_{q^2}(y t^2).  Both halves
    read one term stream, in a call-local scope when no scope is open."""
    envelope = shared(euler_e, y * t * t, q * q, trunc)
    out = []
    for half, ident in enumerate(ids):
        if _wanted(ident):
            lhs, used = shared(_gf_series, half, t, x, y, q, p, trunc)
            out.append(_report(ident, params, lhs, rhs(half) * envelope, tol,
                               trunc, terms_used=used, note=note))
    return tuple(out)


def check_generating_function(t, x, y, p: QParams, tol=None,
                              trunc: Optional[Truncation] = None
                              ) -> IdentityReport:
    """Closed form e_{q^2}(-y t^2) * bigE_{q,alpha}(x t) against the series
    sum_n q^C(n,2) t^n h_n(x,y) / (q;q)_n, truncated adaptively."""
    with _gf_frame(t, x, y, p, tol) as (params, note, tol, x, y, t, q):
        lhs = (shared(euler_e, -y * t * t, q * q, trunc)
               * gen_E(x * t, p, trunc))
        rhs, used = _gf_series(None, t, x, y, q, p, trunc)
        return _report("generating_function", params, lhs, rhs, tol, trunc,
                       terms_used=used, note=note)


def check_even_odd_gf(t, x, y, p: QParams, tol=None,
                      trunc: Optional[Truncation] = None):
    """Parity halves of the generating function (see _parity_reports):

      even half = Cos_{q,alpha}(x t) * e_{q^2}(y t^2)
      odd half  = Sin_{q,alpha}(x t) * e_{q^2}(y t^2)

    Returns (even_report, odd_report).
    """
    with _gf_frame(t, x, y, p, tol) as (params, note, tol, x, y, t, q):
        trig = (q_cos_alpha, q_sin_alpha)
        return _parity_reports(("even_gf", "odd_gf"),
                               lambda half: trig[half](x * t, p, trunc=trunc),
                               t, x, y, q, p, params, tol, trunc, note)


def check_bessel_forms(t, x, y, p: QParams, tol=None,
                       trunc: Optional[Truncation] = None):
    """The parity generating functions with the trig factor replaced by its
    second-Jackson-q-Bessel closed form (z = x t):

      even: q^(a(a+1/2))   (q^2;q^2)_inf/(q^(2a+2);q^2)_inf z^-a
              * J2_a(2 z q^(-a-1/2); q^2)     * e_{q^2}(y t^2)
      odd:  q^((a+1)(a+1/2)) (q^2;q^2)_inf/(q^(2a+2);q^2)_inf z^-a
              * J2_{a+1}(2 z q^(-a-1/2); q^2) * e_{q^2}(y t^2)

    Needs z > 0 unless alpha is an integer (real power z^-a).
    Returns (even_report, odd_report).
    """
    with _gf_frame(t, x, y, p, tol) as (params, note, tol, x, y, t, q):
        alpha, z, q2 = to_mpf(p.alpha), x * t, q * q
        b, _, root, lifts = kept(_alpha_powers, q, alpha)
        front = (q_pochhammer(q2, q2, None, trunc=trunc)
                 / q_pochhammer(b, q2, None, trunc=trunc) * qpow(z, -alpha))
        warg = 2 * z * root
        return _parity_reports(
            ("bessel_even", "bessel_odd"),
            lambda half: (lifts[half] * front
                          * q_bessel2(alpha + half, warg, q2, trunc=trunc)),
            t, x, y, q, p, params, tol, trunc, note)


# --- limit targets --------------------------------------------------------------


def stieltjes_wigert_limit(n: int, x, y, q, trunc: Optional[Truncation] = None):
    """Large-alpha limit of the degree-n polynomial:
      even n=2m:   q^(-m(2m-1)) (q;q)_{2m}    (-y)^m   S_m(x^2 y^-1 q^-1; q^2)
      odd  n=2m+1: q^(-m(2m+1)) (q;q)_{2m+1} x (-y)^m  S_m(x^2 y^-1 q;    q^2)

    The odd argument carries q, not q^-1: the order-(alpha+1) Laguerre factor
    rescales by one extra power of q^2 before the large-alpha limit.
    """
    x, y, q = unify(x, y, q)
    m = n // 2
    if n % 2 == 0:
        sw = stieltjes_wigert(m, x * x / y * qpow(q, -1), q * q, trunc=trunc)
        return qpow(q, -m * (2 * m - 1)) * q_pochhammer(q, q, 2 * m) * qpow(-y, m) * sw
    sw = stieltjes_wigert(m, x * x / y * q, q * q, trunc=trunc)
    return (qpow(q, -m * (2 * m + 1)) * q_pochhammer(q, q, 2 * m + 1)
            * x * qpow(-y, m) * sw)


def hermite_scaled_deviation(n: int, x, q):
    """|h_n(sqrt(1-q^2) x, 1) / (1-q^2)^(n/2) - H_n(x)/2^n| at alpha = -1/2,
    the distance from the classical Hermite scaling limit."""
    x, q = to_mpf(x), to_mpf(q)
    s = mp.sqrt(1 - q * q)
    p = QParams(q, mpf(-0.5))
    scaled = gdqh2(n, s * x, mpf(1), p) / s ** n
    target = rosenblum_hermite(n, 0, x) / mpf(2) ** n
    return abs(scaled - target)


# --- grid runner -----------------------------------------------------------------


@dataclass(frozen=True)
class IdentityGrid:
    """Cartesian parameter grid for the suite runner.  Values are decimal
    strings, but run_identity_suite rounds each to an mpf once, at the
    ambient precision, before any check raises its working digits: a check
    at more digits sees that binary neighbour, not the decimal literal."""

    q_values: tuple = ("0.2", "0.5", "0.8")
    alpha_values: tuple = ("-0.4", "0", "1.5")
    n_values: tuple = tuple(range(13))
    x_values: tuple = ("-1.1", "0.4", "1.7")
    y_values: tuple = ("0.3", "1")
    omega_values: tuple = ("0.6",)
    t_values: tuple = ("0.2",)


DEFAULT_GRID = IdentityGrid()


def _grid_mpf(values):
    return [to_mpf(v) for v in values]


def run_identity_suite(grid: IdentityGrid = DEFAULT_GRID, tol=None,
                       trunc: Optional[Truncation] = None,
                       identity_id: str = "all"):
    """Run the selected identity family (or all of them) over the grid.
    A check that raises becomes one error report, with its parameters, per
    requested id it stands for, instead of raising."""
    if identity_id not in ("all",) + IDENTITY_IDS:
        raise DomainError(
            "unknown identity id %r (expected 'all' or one of %s)"
            % (identity_id, ", ".join(IDENTITY_IDS)))
    reports = []
    asked = IDENTITY_IDS if identity_id == "all" else (identity_id,)

    def guard(ids, params, check, *args):
        """Run one check for its requested ids; one error report each if it raises."""
        ids = [i for i in ids if i in asked]
        if not ids:
            return
        try:
            got = check(*args)
        except (QHermiteError, ZeroDivisionError, OverflowError) as exc:
            reports.extend(_report(i, params, mp.nan, mp.nan, _tolerance(tol),
                                   trunc, residual=(mp.inf, mp.inf),
                                   error=str(exc)) for i in ids)
            return
        reports.extend(got if isinstance(got, (list, tuple)) else [got])

    qs = _grid_mpf(grid.q_values)
    alphas = _grid_mpf(grid.alpha_values)
    xs = _grid_mpf(grid.x_values)
    ys = _grid_mpf(grid.y_values)
    omegas = _grid_mpf(grid.omega_values)
    ts = _grid_mpf(grid.t_values)
    n_max = max(grid.n_values, default=0)

    for q, alpha in product(qs, alphas):
        p = QParams(q, alpha)
        block = _BLOCK.set(_Block(asked, n_max, _work_digits("cancel", n_max, q)))
        try:
            with shared_scope():
                for x, y in product(xs, ys):
                    for n in grid.n_values:
                        at = _params(p, n=n, x=x, y=y)
                        guard(("representation_phi", "representation_laguerre"), at,
                              check_representations, n, p, x, y, tol, trunc)
                        guard(("recurrence",), at, check_recurrence, n, p, x, y, tol, trunc)
                        for omega in omegas:
                            guard(("connection",), dict(at, omega=omega),
                                  check_connection, n, p, x, y, omega, tol, trunc)
                        guard(("inversion",), at, check_inversion, n, p, x, y, tol, trunc)
                    for t in ts:
                        at = _params(p, x=x, y=y, t=t)
                        guard(("generating_function",), at,
                              check_generating_function, t, x, y, p, tol, trunc)
                        guard(("even_gf", "odd_gf"), at,
                              check_even_odd_gf, t, x, y, p, tol, trunc)
                        if x * t > 0:
                            guard(("bessel_even", "bessel_odd"), at,
                                  check_bessel_forms, t, x, y, p, tol, trunc)
        finally:
            _BLOCK.reset(block)
    return reports


def summarize_reports(reports):
    """Aggregate: counts, per-identity worst relative residual, overall pass."""
    worst = {}
    n_pass = n_fail = n_err = 0
    for r in reports:
        if r.error is not None:
            n_err += 1
        elif r.passed:
            n_pass += 1
        else:
            n_fail += 1
        prev = worst.get(r.identity_id)
        if r.error is None and (prev is None or r.rel_residual > prev):
            worst[r.identity_id] = r.rel_residual
    return {
        "total": len(reports),
        "passed": n_pass,
        "failed": n_fail,
        "errors": n_err,
        "worst_rel_residual": worst,
        "all_passed": n_fail == 0 and n_err == 0 and len(reports) > 0,
    }
