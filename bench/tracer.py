"""Spans around the calls between qhermite's layers, and the per-layer metrics.

The wrappers live here, not in the program: ``install`` rebinds each traced
function at every module that imported it (for example both
``identities.gdqh2_recurrence_ladder`` and ``quadrature.gdqh2_recurrence_ladder``)
and in its defining module, so calls between modules and calls inside one
module are both seen.  ``CompensatedSum.add`` is wrapped on the class.

Every wrapped call records one span: name, start, end, parent span, item id
and a small ``info`` value taken from its arguments or result (the counts).
Spans stay in memory, in parallel arrays, until the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from array import array
from collections import Counter, defaultdict

from mpmath import mp

RAISED = "raised"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.items = array("l")
        self.info: list = []
        self.item = -1  # id of the item being run; set by the caller
        self._open: list = []

    def __len__(self):
        return len(self.names)

    def wrap(self, name: str, fn, after=None):
        """Wrap fn so each call records a span.

        after(args, kwargs, result) -> (name, info) may rename the span and
        attach info once the call has returned; it runs after the span ends.
        A call that raises keeps `name` and gets info RAISED.
        """
        clock = time.perf_counter
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        items, info, open_ = self.items, self.info, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            items.append(self.item)
            info.append(None)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                open_.pop()
                info[i] = RAISED
                raise
            ends[i] = clock()
            open_.pop()
            if after is not None:
                names[i], info[i] = after(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent", "item", "info"))
            t0 = self.starts[0] if len(self) else 0.0
            for i in range(len(self)):
                out.writerow((i, self.names[i], "%.9f" % (self.starts[i] - t0),
                              "%.9f" % (self.ends[i] - t0), self.parents[i],
                              self.items[i], "" if self.info[i] is None else self.info[i]))


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it covered by its child spans.

    Spans must be listed in order of their start, as the tracer records
    them; a child's parent is listed before the child.  Children that overlap
    each other are counted once; any part of a child outside its parent is
    ignored.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered part so far, per parent
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


# --- what is traced ------------------------------------------------------------------


def _reports(result) -> int:
    return len(result) if isinstance(result, (list, tuple)) else 1


def _terms(result) -> int:
    reports = result if isinstance(result, (list, tuple)) else [result]
    return sum(r.terms_used for r in reports)


def _pochhammer(args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs.get("n")
    if isinstance(args[0], tuple):
        kind = "product"  # a product of symbols; each factor is its own span
    else:
        kind = "finite" if isinstance(n, int) else "infinite"
    return "qcore.q_pochhammer." + kind, None


def _phi_rs(args, kwargs, result):
    kind = "terminating" if result.tail_estimate == 0 else "convergent"
    return "qseries.phi_rs." + kind, result.terms_used


def _named(name, info):
    return lambda args, kwargs, result: (name, info(args, kwargs, result))


GF_CHECKS = ("check_generating_function", "check_even_odd_gf", "check_bessel_forms")
CHECKS = ("check_representations", "check_recurrence", "check_connection",
          "check_inversion") + GF_CHECKS


# (defining module, attribute, span name, after) for every traced function
TRACED = [
    ("scalars", "qpow", "scalars.qpow", None),
    ("qcore", "q_pochhammer", "qcore.q_pochhammer", _pochhammer),
    ("qcore", "gen_q_shifted_factorial", "qcore.gen_q_shifted_factorial", None),
    ("qcore", "hahn_add_power", "qcore.hahn_add_power", None),
    ("qseries", "phi_rs", "qseries.phi_rs", _phi_rs),
]
TRACED += [("qseries", f, "qseries." + f, None)
           for f in ("euler_e", "gen_E", "q_cos_alpha", "q_sin_alpha", "q_bessel2")]
TRACED += [
    ("polyfam", "_gdqh2_definition", "polyfam.gdqh2.definition_sum", None),
    ("polyfam", "_gdqh2_phi", "polyfam.gdqh2.phi_form", None),
    ("polyfam", "_gdqh2_laguerre", "polyfam.gdqh2.laguerre_form", None),
    ("polyfam", "q_laguerre", "polyfam.q_laguerre", None),
    ("polyfam", "gdqh2_recurrence_ladder", "polyfam.gdqh2_recurrence_ladder",
     # degree, working digits at the call, entries built
     _named("polyfam.gdqh2_recurrence_ladder",
            lambda a, k, r: (a[0], mp.dps, len(r)))),
    ("polyfam", "gdqh2_recurrence_step", "polyfam.gdqh2_recurrence_step", None),
]
TRACED += [("identities", f, "identities." + f,
            _named("identities." + f, lambda a, k, r: (_reports(r), _terms(r))))
           for f in CHECKS]
TRACED += [
    ("identities", "run_identity_suite", "identities.run_identity_suite",
     _named("identities.run_identity_suite", lambda a, k, r: len(r))),
    ("quadrature", "orthogonality_check", "quadrature.orthogonality_check",
     _named("quadrature.orthogonality_check", lambda a, k, r: r.terms_used)),
    ("quadrature", "orthogonality_weight", "quadrature.orthogonality_weight", None),
    ("quadrature", "orthogonality_rhs", "quadrature.orthogonality_rhs", None),
    ("cli", "main", "cli.main", None),
]


def install(tracer: Tracer, lib) -> callable:
    """Wrap every traced function at each binding in the package; return undo."""
    modules = [lib.qhermite] + [getattr(lib, m) for m in
                                ("scalars", "qcore", "qseries", "polyfam",
                                 "identities", "quadrature", "cli")]
    undo = []
    for home, attr, name, after in TRACED:
        original = getattr(getattr(lib, home), attr)
        wrapped = tracer.wrap(name, original, after)
        for mod in modules:
            if vars(mod).get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    cls = lib.scalars.CompensatedSum
    undo.append((cls, "add", cls.add))
    cls.add = tracer.wrap("scalars.CompensatedSum.add", cls.add)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# --- per-layer metrics -----------------------------------------------------------------

CALLS_AND_SELF = (
    "scalars.qpow", "scalars.CompensatedSum.add",
    "qcore.q_pochhammer.finite", "qcore.q_pochhammer.infinite",
    "qcore.gen_q_shifted_factorial", "qcore.hahn_add_power",
    "qseries.phi_rs.terminating", "qseries.phi_rs.convergent",
    "polyfam.gdqh2.definition_sum", "polyfam.gdqh2.phi_form",
    "polyfam.gdqh2.laguerre_form",
    "polyfam.gdqh2_recurrence_ladder", "polyfam.gdqh2_recurrence_step",
) + tuple("identities." + f for f in CHECKS + ("run_identity_suite",)) + (
    "quadrature.orthogonality_check", "quadrature.orthogonality_weight",
    "quadrature.orthogonality_rhs", "cli.main",
)
SELF_ONLY = tuple("qseries." + f for f in
                  ("euler_e", "gen_E", "q_cos_alpha", "q_sin_alpha", "q_bessel2")
                  ) + ("polyfam.q_laguerre",)


def _under(tr: Tracer, i: int, names) -> bool:
    """True when span i has an ancestor with one of the given names."""
    p = tr.parents[i]
    while p >= 0:
        if tr.names[p] in names:
            return True
        p = tr.parents[p]
    return False


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer counts and self times over every recorded span."""
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    calls, self_s, terms = Counter(), defaultdict(float), Counter()
    for name, s, info in zip(tr.names, selfs, tr.info):
        calls[name] += 1
        self_s[name] += s
        if name.startswith("qseries.phi_rs."):
            terms[name] += info
    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    for name in SELF_ONLY:
        out[name + ".self_s"] = self_s[name]
    for kind in ("terminating", "convergent"):
        out["qseries.phi_rs.%s.terms" % kind] = terms["qseries.phi_rs." + kind]

    ladder = "polyfam.gdqh2_recurrence_ladder"
    gf = {"identities." + f for f in GF_CHECKS}
    suite, orth = "identities.run_identity_suite", "quadrature.orthogonality_check"
    steps = digits = ladders = built_in_gf = ladders_in_orth = 0
    produced = Counter()  # reports from the check calls under each suite span
    rows = {}  # suite span -> rows it returned
    terms_in_gf = 0
    lattice = {}  # item id -> lattice points of its configuration
    for i, name in enumerate(tr.names):
        info = tr.info[i]
        if name == ladder and info != RAISED:
            ladders += 1
            steps += info[0]
            digits += info[1]
            if _under(tr, i, gf):
                built_in_gf += info[2]
            if _under(tr, i, (orth,)):
                ladders_in_orth += 1
        elif name.startswith("identities.check_"):
            p = tr.parents[i]
            if p >= 0 and tr.names[p] == suite:
                # the suite turns a raised check into one error report
                produced[p] += 1 if info == RAISED else info[0]
            if name in gf and info != RAISED:
                terms_in_gf += info[1]
        elif name == suite and info != RAISED:
            rows[i] = info
        elif name == orth and info != RAISED:
            lattice[tr.items[i]] = max(lattice.get(tr.items[i], 0), info)
    out[ladder + ".steps"] = steps
    out[ladder + ".work_dps_mean"] = digits / ladders if ladders else 0.0
    out["identities.gf.ladder_use_ratio"] = (terms_in_gf / built_in_gf
                                             if built_in_gf else 0.0)
    out["identities.sibling_reports_discarded"] = sum(produced[i] - n
                                                      for i, n in rows.items())
    points = sum(lattice.values())
    out["quadrature.lattice_points"] = points
    out["quadrature.ladders_per_lattice_point"] = (ladders_in_orth / points
                                                   if points else 0.0)
    top = sum(s for s, p in zip(selfs, tr.parents) if p < 0)
    out["trace.top_level_self_s"] = top
    return out
