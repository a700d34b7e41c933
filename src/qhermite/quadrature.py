"""Numerical verification of the orthogonality relation for the one-variable
family h_n(x; q) = gdqh2(n, x, 1), by a bilateral Jackson q-sum over the
lattice {±q^k} checked against the closed-form constants.

The measure assigns weight (1-q) q^k to the pair of points ±q^k.  Large |x|
(k very negative) is tamed by the super-geometrically decaying weight
function; the k -> +inf end (points crowding 0) is controlled by the q^k
factor itself, so a lattice reaching q^k ~ 1e-120 is converged far below
any tolerance used here.

`orthogonality_gram` checks every pair m <= n <= n_max in one sweep of the
lattice: one recurrence ladder per point x feeds all the pairs, its values
at -x being the same ladder with the odd degrees negated, and the
closed-form constant is computed once per degree.  The weights
1/(-q^(-2a-1) x^2; q^2)_inf of all lattice points come from one
`qcore._infinite_products` call, which shares one table of the powers q^(2j)
among them and gives each product bit for bit as the one-value loop does.
`orthogonality_check` is the one-pair case of the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from mpmath import mp, mpf

from .errors import ConvergenceError, DomainError, EvaluationError
from .identities import IdentityReport, residuals, default_identity_tol
from .polyfam import gdqh2_recurrence_ladder
from .qcore import (QParams, Truncation, _infinite_products, default_truncation,
                    gen_q_shifted_factorial, q_pochhammer)
from .scalars import CompensatedSum, qpow, to_mpf

__all__ = [
    "LatticeSpec",
    "default_lattice",
    "orthogonality_weight",
    "orthogonality_rhs",
    "orthogonality_check",
    "orthogonality_gram",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice exponents k_min..k_max for the bilateral sum over ±q^k."""

    q: mpf
    k_min: int
    k_max: int

    def __post_init__(self):
        q = to_mpf(self.q)
        if not (0 < q < 1):
            raise DomainError("q out of range (0,1): got %s" % q)
        if not (self.k_min < 0 < self.k_max):
            raise DomainError(
                "lattice needs k_min < 0 < k_max: got [%d, %d]"
                % (self.k_min, self.k_max))


def default_lattice(q) -> LatticeSpec:
    """Symmetric lattice reaching q^k ~ 1e-120 on the small-x end."""
    q = to_mpf(q)
    bound = min(int(mp.ceil(120 / abs(mp.log10(q)))), 4000)
    return LatticeSpec(q, -bound, bound)


def _weights(xs, p: QParams, trunc: Optional[Truncation] = None) -> list:
    """w_alpha(x) for each x in xs, in order, from one shared product loop."""
    q, alpha = to_mpf(p.q), to_mpf(p.alpha)
    scale = -qpow(q, -2 * alpha - 1)
    return [1 / prod for prod in
            _infinite_products([scale * x * x for x in xs], q * q, trunc)]


def orthogonality_weight(x, p: QParams, trunc: Optional[Truncation] = None):
    """w_alpha(x) = 1 / (-q^(-2 alpha - 1) x^2; q^2)_inf."""
    return _weights([to_mpf(x)], p, trunc)[0]


def orthogonality_rhs(n: int, p: QParams, trunc: Optional[Truncation] = None):
    """Diagonal normalization constant:

      2 q^(-n^2) (1-q) (-q, -q, q^2; q^2)_inf
        / (-q^(-2a-1), -q^(2a+3), q^(2a+2); q^2)_inf
        * (q;q)_n^2 / (q;q)_{n,alpha}.
    """
    q, alpha = to_mpf(p.q), to_mpf(p.alpha)
    q2 = q * q
    num = q_pochhammer((-q, -q, q2), q2, None, trunc=trunc)
    den = q_pochhammer(
        (-qpow(q, -2 * alpha - 1), -qpow(q, 2 * alpha + 3), qpow(q, 2 * alpha + 2)),
        q2, None, trunc=trunc)
    pn = q_pochhammer(q, q, n)
    return (2 * qpow(q, -n * n) * (1 - q) * num / den
            * pn * pn / gen_q_shifted_factorial(n, p))


@lru_cache(maxsize=8)
def _weight_vector(p: QParams, lat: LatticeSpec, prec: int):
    """Cached per-point measure factors q^k * w_alpha(x) |x|^(2a+1) for
    x = ±q^k over the lattice, all weights from one `_weights` call.  Keyed
    on the working precision so escalated contexts do not reuse
    low-precision values."""
    q, alpha = to_mpf(p.q), to_mpf(p.alpha)
    xs = [qpow(q, k) for k in range(lat.k_min, lat.k_max + 1)]
    return tuple((xk, xk * (w * qpow(abs(xk), 2 * alpha + 1)))
                 for xk, w in zip(xs, _weights(xs, p)))


def _orthogonality_sweep(pairs, p: QParams, lat: Optional[LatticeSpec],
                         tol, trunc: Optional[Truncation]) -> list:
    """Reports for the (n, m) pairs, in order, from one lattice sweep.

    Each pair keeps its own compensated sum, fed in lattice order, so its
    report is the one a sweep for that pair alone gives.  After the sweep the
    pairs are finished in order, and the first one whose sum hit a non-finite
    term or whose lattice tail did not converge raises.
    """
    if not pairs:
        return []
    tol = to_mpf(tol) if tol is not None else default_identity_tol()
    trunc = trunc or default_truncation()
    with mp.workdps(mp.dps + 20):
        q = to_mpf(p.q)
        lat = lat or default_lattice(q)
        weights = _weight_vector(p, lat, mp.prec)
        top = max(max(pair) for pair in pairs)
        # per pair: the sum, the magnitudes of its first, last and largest
        # terms, and the first x whose term is non-finite (which stops it)
        sums = [CompensatedSum() for _ in pairs]
        first = [None] * len(pairs)
        last = [mpf(0)] * len(pairs)
        largest = [mpf(0)] * len(pairs)
        bad_x = [None] * len(pairs)
        for xk, wk in weights:
            # h_k(-x) = (-1)^k h_k(x): the recurrence at -x flips the sign of
            # every odd degree exactly, so one ladder serves both points
            lad_p = gdqh2_recurrence_ladder(top, xk, mpf(1), p)
            lad_n = [-h if k % 2 else h for k, h in enumerate(lad_p)]
            for i, (n, m) in enumerate(pairs):
                if bad_x[i] is not None:
                    continue
                term = wk * (lad_p[n] * lad_p[m] + lad_n[n] * lad_n[m])
                if not mp.isfinite(term):
                    bad_x[i] = xk
                    continue
                last[i] = abs(term)
                if first[i] is None:
                    first[i] = last[i]
                if last[i] > largest[i]:
                    largest[i] = last[i]
                sums[i].add(term)

        rhs_at = lru_cache(maxsize=None)(
            lambda k: orthogonality_rhs(k, p, trunc=trunc))
        reports = []
        for i, (n, m) in enumerate(pairs):
            if bad_x[i] is not None:
                raise EvaluationError(
                    "integrand non-finite at lattice point x = %s"
                    % mp.nstr(bad_x[i], 8))
            lhs = (1 - q) * sums[i].total
            far_term, near_term, max_term = first[i], last[i], largest[i]
            floor = trunc.tail_tol * max(mpf(1), max_term)
            if near_term > floor or far_term > floor:
                end, where = ((near_term, "k_max %d" % lat.k_max)
                              if near_term >= far_term
                              else (far_term, "k_min %d" % lat.k_min))
                raise ConvergenceError(
                    "lattice tail not converged: end term %s vs tail_tol %s "
                    "(max term %s); widen the lattice beyond %s"
                    % (mp.nstr(end, 4), mp.nstr(trunc.tail_tol, 4),
                       mp.nstr(max_term, 4), where))
            if n == m:
                rhs = rhs_at(n)
                abs_r, rel_r = residuals(lhs, rhs)
            else:
                rhs = mpf(0)
                scale = mp.sqrt(rhs_at(n) * rhs_at(m))
                abs_r = abs(lhs)
                rel_r = abs(lhs) / scale
            reports.append(IdentityReport(
                identity_id="orthogonality",
                params={"n": n, "m": m, "q": p.q, "alpha": p.alpha},
                lhs=lhs,
                rhs=rhs,
                abs_residual=abs_r,
                rel_residual=rel_r,
                truncation=trunc,
                tolerance=tol,
                passed=bool(rel_r <= tol),
                terms_used=lat.k_max - lat.k_min + 1,
            ))
        return reports


def orthogonality_check(n: int, m: int, p: QParams,
                        lat: Optional[LatticeSpec] = None,
                        tol=None, trunc: Optional[Truncation] = None
                        ) -> IdentityReport:
    """Quadrature vs closed form for the weighted pairing of degrees n and m.

    n == m: relative residual against the closed-form constant.
    n != m: |quadrature| / scale with scale = sqrt(rhs(n) rhs(m)), reported
    with rhs = 0.
    """
    if n < 0 or m < 0:
        raise DomainError("degrees must be >= 0: got n=%d, m=%d" % (n, m))
    return _orthogonality_sweep([(n, m)], p, lat, tol, trunc)[0]


def orthogonality_gram(n_max: int, p: QParams,
                       lat: Optional[LatticeSpec] = None,
                       tol=None, trunc: Optional[Truncation] = None) -> list:
    """`orthogonality_check` for every pair m <= n <= n_max, ordered by n
    then m, from one lattice sweep; each report equals the one-pair check's.
    Empty when n_max < 0."""
    pairs = [(n, m) for n in range(n_max + 1) for m in range(n + 1)]
    return _orthogonality_sweep(pairs, p, lat, tol, trunc)
