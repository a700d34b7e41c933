"""Seeded workload inputs, the calls that run them, and their output checks.

Input generation is stdlib-only and depends on nothing but the workload name
and the seed, so the program under test receives only the generated inputs.
Running and checking take a ``lib`` namespace holding the imported
``qhermite`` modules; every call goes through a module attribute so that the
traced run's wrappers are seen.

Each workload is a closed loop with one client: the next item is sent only
after the previous one has completed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
# Identities whose checks take the generating-function variable t.
T_IDS = ("generating_function", "even_gf", "odd_gf", "bessel_even", "bessel_odd")
BESSEL_IDS = ("bessel_even", "bessel_odd")
# Rows per identity for one (q, alpha, x, y) cell with n = 0..12, one omega
# and one t.  The Bessel rows exist only when x*t > 0, i.e. x > 0 here.
N_DEGREES = 13
ROWS_PER_ID = {
    "representation_phi": N_DEGREES,
    "representation_laguerre": N_DEGREES,  # y > 0 in every generated cell
    "recurrence": N_DEGREES,
    "connection": N_DEGREES,
    "inversion": N_DEGREES,
    "generating_function": 1,
    "even_gf": 1,
    "odd_gf": 1,
    "bessel_even": 1,
    "bessel_odd": 1,
}
DEFAULT_T = "0.2"

# Latencies cluster by identity, and every cluster moves by up to half as
# the machine's speed changes.  Each block of 24 puts the median inside the
# fifteen polynomial-identity items, whose costs spread smoothly with q,
# and the 11th-largest latency of a run inside the four `all` items, so
# neither jumps between clusters.
POLY_IDS = IDENTITY_IDS[:5]
SWEEP_BLOCK = ("all",) * 4 + POLY_IDS * 3 + T_IDS
# Half the items at N = 3 put the median inside one cluster whose costs
# spread with q.
GRAM_BLOCK = (2, 3, 3, 4)
HIGH_FLOAT_KINDS = ("recurrence", "representations", "inversion")
HIGH_BLOCK = HIGH_FLOAT_KINDS + ("exact",)
HIGH_REPS = ("definition_sum", "phi_form", "laguerre_form")

# Enough items for a 25-second run of any workload at ten times today's
# speed; a run that uses them all ends early.
MAX_ITEMS = 4000


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return "%.4f" % rng.uniform(lo, hi)


def _sweep_items(rng: random.Random, count: int) -> list:
    # Three (q, alpha) pairs, one per q stratum, are shared by every cell of
    # the run, so a per-parameter cache can hit across items.
    pool = [(_num(rng, lo, lo + 0.2), _num(rng, -0.4, 1.5)) for lo in (0.2, 0.4, 0.6)]
    items = []
    while len(items) < count:
        block = list(SWEEP_BLOCK)
        rng.shuffle(block)
        # `check all` skips the Bessel rows at x < 0 and takes about two
        # thirds of the time there.  Exactly one `all` item per block has
        # x < 0, so every run has as many slow `all` items per block and
        # the tail latency stays among them.
        all_negative = rng.choice([i for i, ident in enumerate(block) if ident == "all"])
        for i, ident in enumerate(block):
            q, alpha = pool[len(items) % len(pool)]
            x = rng.uniform(0.2, 1.8)
            # the Bessel forms are only defined for x*t > 0
            if ident == "all":
                if i == all_negative:
                    x = -x
            elif ident not in BESSEL_IDS and rng.random() < 1 / 3:
                x = -x
            items.append(_sweep_item(ident, q, alpha, x, _num(rng, 0.2, 1.2)))
    return items[:count]


def _sweep_item(ident: str, q: str, alpha: str, x: float, y: str, ood_t=None) -> dict:
    argv = ["--format", "json", "--no-timestamp", "check", ident,
            "--q", q, "--alpha", alpha, "--x", "%.4f" % x, "--y", y]
    if ood_t is not None:
        argv += ["--t", DEFAULT_T, ood_t]
    return {"ident": ident, "x_positive": x > 0, "ood": ood_t is not None,
            "argv": argv}


# The error path is probed outside the timed loop, with one call per
# identity that takes t and one `check all`, each given an extra
# out-of-domain t.  It is not part of the timed items: its outcome is a
# property of the program, and a count of it that grew with the number of
# items a run completes would differ from run to run.
OOD_PROBE = ("all",) + T_IDS


def ood_probe_items(seed: int) -> list:
    """Out-of-domain `check` calls at seeded cells; a pure function of the seed."""
    rng = random.Random("ood:%d" % seed)
    # |y t| >= 1 for every y >= 0.2: outside the generating-function domain
    return [_sweep_item(ident, _num(rng, 0.2, 0.8), _num(rng, -0.4, 1.5),
                        rng.uniform(0.2, 1.8), _num(rng, 0.2, 1.2), _num(rng, 5.0, 8.0))
            for ident in OOD_PROBE]


def ood_probe(lib, seed: int, precision: int) -> list:
    """Run the out-of-domain probe at mp.dps = precision and check each
    outcome: its verdicts."""
    verdicts = []
    for item in ood_probe_items(seed):
        lib.mpmath.mp.dps = precision
        verdicts.append(check_sweep(lib, item, run_cli(lib, item)))
    return verdicts


def _gram_items(rng: random.Random, count: int) -> list:
    items = []
    while len(items) < count:
        block = list(GRAM_BLOCK)
        rng.shuffle(block)
        for n in block:
            # a fresh (q, alpha) per item keeps the cached weight vector
            # cold, as it is in every CLI process
            argv = ["--format", "json", "--no-timestamp", "orthogonality",
                    "--n", str(n), "--q", _num(rng, 0.2, 0.25),
                    "--alpha", _num(rng, -0.4, 1.5)]
            items.append({"n": n, "argv": argv})
    return items[:count]


def _high_items(rng: random.Random, count: int) -> list:
    items = []
    blocks = 0
    while len(items) < count:
        block = list(HIGH_BLOCK)
        rng.shuffle(block)
        # One float check per block sits at the lowest degree, where the
        # fewest guard digits are added, so residual_digits, a minimum over
        # the first blocks, compares like with like from seed to seed.  One
        # sits at the highest, where the cost grows fastest with n, so the
        # tail latency falls among items that differ only in q, alpha, x, y.
        # The float kinds take the three degrees in turn, block after block:
        # n = 60 costs four times as much for two kinds as for the third, so
        # a seeded draw of who gets it would move the tail from run to run.
        degrees = [30, rng.randint(31, 45), 60]
        turn = blocks % len(degrees)
        degrees = degrees[turn:] + degrees[:turn]
        degree_of = dict(zip(HIGH_FLOAT_KINDS, degrees))
        blocks += 1
        for kind in block:
            if kind == "exact":
                den = rng.randint(3, 9)
                items.append({
                    "kind": "exact",
                    "n": rng.randint(10, 40),
                    "q": "%d/%d" % (rng.randint(1, den - 1), den),
                    "alpha": rng.randint(0, 2),
                    "x": "%d/%d" % (rng.choice((-1, 1)) * rng.randint(1, 9),
                                    rng.randint(1, 9)),
                    "y": "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9)),
                })
                continue
            x = rng.uniform(0.3, 1.5) * rng.choice((-1, 1))
            items.append({
                "kind": kind,
                "n": degree_of[kind],
                "q": _num(rng, 0.65, 0.7),
                "alpha": _num(rng, -0.4, 1.5),
                "x": "%.4f" % x,
                "y": _num(rng, 0.2, 1.2),
            })
    return items[:count]


# --- running one item ------------------------------------------------------------


def run_cli(lib, item) -> tuple:
    """In-process ``qhermite`` invocation: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = lib.cli.main(list(item["argv"]))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def run_high(lib, item):
    if item["kind"] == "exact":
        p = lib.qcore.QParams(Fraction(item["q"]), item["alpha"])
        x, y = Fraction(item["x"]), Fraction(item["y"])
        return [lib.polyfam.gdqh2(item["n"], x, y, p, rep=rep) for rep in HIGH_REPS]
    mpf = lib.mpmath.mpf
    p = lib.qcore.QParams(mpf(item["q"]), mpf(item["alpha"]))
    check = getattr(lib.identities, "check_" + item["kind"])
    return check(item["n"], p, mpf(item["x"]), mpf(item["y"]))


# --- checking one item's output -----------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one item's output check.

    ok: the outcome is the expected one.  numeric_ok: every number the item
    printed or returned is right; it is False only for wrong or missing
    values, not for a wrongly reported error.  digits: -log10 of the
    item's worst relative residual (None when the item has no float
    residual, or every residual is exactly zero).
    """

    ok: bool
    numeric_ok: bool
    digits: float | None
    reason: str = ""
    output_bytes: int = 0


def _digits(lib, residuals) -> float | None:
    mp = lib.mpmath.mp
    worst = max(residuals, default=None)
    if worst is None or worst == 0 or not mp.isfinite(worst):
        return None
    return float(-mp.log10(worst))


def _parse_rows(lib, out: str):
    try:
        rows = json.loads(out)["rows"]
        residuals = [lib.mpmath.mpf(r["rel_residual"]) for r in rows if not r["error"]]
    except (ValueError, KeyError, TypeError) as exc:
        return None, None, "unparseable output: %s" % exc
    return rows, residuals, ""


def check_sweep(lib, item, outcome) -> Verdict:
    rc, out = outcome
    size = len(out.encode())
    rows, residuals, why = _parse_rows(lib, out)
    if rows is None:
        return Verdict(False, False, None, why, size)
    ident = item["ident"]
    ids = [i for i in IDENTITY_IDS
           if ident in ("all", i) and (item["x_positive"] or i not in BESSEL_IDS)]
    want = sum(ROWS_PER_ID[i] for i in ids)
    good = [r for r in rows if not r["error"]]
    errors = [r for r in rows if r["error"]]
    digits = _digits(lib, residuals)
    numeric_ok = (len(good) == want and all(r["passed"] == "true" for r in good)
                  and all(r["identity"] in ids for r in good))
    if not numeric_ok:
        return Verdict(False, False, digits,
                       "%d in-domain rows (want %d), %d passed"
                       % (len(good), want, sum(r["passed"] == "true" for r in good)),
                       size)
    if not item["ood"]:
        ok = rc == 0 and not errors
        return Verdict(ok, ok, digits, "" if ok else "exit %d, %d error rows"
                       % (rc, len(errors)), size)
    # one correct outcome: exit 2 and an error row under a requested identity id
    labelled = [r for r in errors if r["identity"] in ids and r["identity"] in T_IDS]
    ok = rc == 2 and bool(labelled)
    reason = "" if ok else "out-of-domain t: exit %d, error rows labelled %s" % (
        rc, sorted({r["identity"] for r in errors}) or "[]")
    return Verdict(ok, True, digits, reason, size)


def check_gram(lib, item, outcome) -> Verdict:
    rc, out = outcome
    size = len(out.encode())
    rows, residuals, why = _parse_rows(lib, out)
    if rows is None:
        return Verdict(False, False, None, why, size)
    n = item["n"]
    want = (n + 1) * (n + 2) // 2
    ok = (rc == 0 and len(rows) == want
          and all(r["passed"] == "true" and r["identity"] == "orthogonality"
                  for r in rows))
    reason = "" if ok else "exit %d, %d rows (want %d)" % (rc, len(rows), want)
    return Verdict(ok, ok, _digits(lib, residuals), reason, size)


def check_high(lib, item, result) -> Verdict:
    if item["kind"] == "exact":
        exact = all(isinstance(v, (int, Fraction)) for v in result)
        ok = exact and result[0] == result[1] == result[2]
        return Verdict(ok, ok, None, "" if ok else "representations differ: %r" % (result,))
    reports = result if isinstance(result, list) else [result]
    ok = bool(reports) and all(r.passed and r.error is None for r in reports)
    digits = _digits(lib, [r.rel_residual for r in reports])
    return Verdict(ok, ok, digits, "" if ok else "report failed its tolerance")


# --- independent oracles, run outside the timed loop --------------------------------


def _flag(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _sweep_oracles(lib, items, rng):
    mpf, qp, qhyper = lib.mpmath.mpf, lib.mpmath.qp, lib.mpmath.qhyper
    poch, phi = lib.qcore.q_pochhammer, lib.qseries.phi
    cases = []
    for item in rng.sample(items, 3):
        a = item["argv"]
        q, alpha, x, y = (mpf(_flag(a, f)) for f in ("--q", "--alpha", "--x", "--y"))
        t, q2 = mpf(DEFAULT_T), q * q
        even = q ** (2 * alpha + 2)
        # the Bessel-form prefactor products, e_{q^2}(-y t^2) and the phi form
        # of the q-cosine, at the item's parameters
        cases += [
            ("qp(q^2; q^2)", poch(q2, q2, None), qp(q2, q2)),
            ("qp(q^(2a+2); q^2)", poch(even, q2, None), qp(even, q2)),
            ("1phi0(0; q^2, -y t^2)", phi((0,), (), q2, -y * t * t),
             qhyper([0], [], q2, -y * t * t)),
            ("0phi1(q^(2a+2); q^2, -q (x t)^2)", phi((), (even,), q2, -q * (x * t) ** 2),
             qhyper([], [even], q2, -q * (x * t) ** 2)),
        ]
    return cases


def _gram_oracles(lib, items, rng):
    mp, mpf, qp = lib.mpmath.mp, lib.mpmath.mpf, lib.mpmath.qp
    poch = lib.qcore.q_pochhammer
    cases = []
    for item in rng.sample(items, 3):
        a = item["argv"]
        q, alpha = mpf(_flag(a, "--q")), mpf(_flag(a, "--alpha"))
        q2 = q * q
        bound = int(mp.ceil(120 / abs(mp.log10(q))))
        cases.append(("qp(-q; q^2)", poch(-q, q2, None), qp(-q, q2)))
        # weight products 1/w(x) at lattice points x = q^k
        for k in rng.sample(range(-bound // 2, bound + 1), 3):
            c = -(q ** (-2 * alpha - 1)) * q ** (2 * k)
            cases.append(("qp(-q^(-2a-1) x^2; q^2), k=%d" % k,
                          poch(c, q2, None), qp(c, q2)))
    return cases


def _high_oracles(lib, items, rng):
    mp, mpf, qp, qhyper = lib.mpmath.mp, lib.mpmath.mpf, lib.mpmath.qp, lib.mpmath.qhyper
    poch, phi = lib.qcore.q_pochhammer, lib.qseries.phi
    cases = []
    for item in rng.sample([i for i in items if i["kind"] != "exact"], 3):
        n = item["n"]
        # the item's sums cancel terms of size about q^(-n^2); so does this one
        with mp.workdps(mp.dps + int(n * n * mp.log10(1 / mpf(item["q"])))):
            q, alpha, x, y = (mpf(item[k]) for k in ("q", "alpha", "x", "y"))
            m, q2 = n // 2, q * q
            # the terminating 1phi1 of laguerre_form at the even degree 2m
            lower = q2 ** (alpha + 1)
            z = -(q2 ** m) * lower * x * x / y * q ** (-2 * alpha - 1)
            cases += [
                ("qp(q; q)_%d" % n, poch(q, q, n), qp(q, q, n)),
                ("1phi1 laguerre_form, m=%d" % m,
                 phi((q2 ** -m,), (lower,), q2, z, terminate_at=m),
                 qhyper([q2 ** -m], [lower], q2, z)),
            ]
    return cases


def oracle_failures(lib, workload: str, items, seed: int) -> tuple:
    """Compare q_pochhammer with mpmath.qp and phi with mpmath.qhyper at a
    seeded sample of the parameters the items used: (cases, failure labels)."""
    mp = lib.mpmath.mp
    rng = random.Random("oracle:%s:%d" % (workload, seed))
    cases = WORKLOADS[workload].oracles(lib, items, rng)
    tol = lib.mpmath.mpf(10) ** (10 - mp.dps)
    bad = [label for label, got, ref in cases
           if not abs(got - ref) <= tol * max(abs(got), abs(ref))]
    return len(cases), bad


@dataclass(frozen=True)
class Workload:
    """How one workload is generated, run, checked and compared with oracles;
    BENCHMARK.json says why it was chosen."""

    name: str
    make: Callable[[random.Random, int], list]
    run: Callable
    check: Callable
    oracles: Callable
    # The first `prefix` items: residual_digits is taken over them and the
    # traced run replays exactly them.
    prefix: int
    # Whether a run also checks the error path with the out-of-domain probe.
    probes_errors: bool = False
    # Every run completes at least this many items, so that the tail latency
    # has ten samples beyond it at no lower a percentile than the median.
    min_items: int = 2 * 10 + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identity_sweep", _sweep_items, run_cli, check_sweep,
                 _sweep_oracles, len(SWEEP_BLOCK), probes_errors=True),
        # At today's speed a 25-second run stops at its minimum: six whole
        # blocks, so every run has the same mix of N.
        Workload("orthogonality_gram", _gram_items, run_cli, check_gram,
                 _gram_oracles, len(GRAM_BLOCK), min_items=6 * len(GRAM_BLOCK)),
        Workload("high_degree", _high_items, run_high, check_high,
                 _high_oracles, 10 * len(HIGH_BLOCK)),
    )
}


def make_items(workload: str, seed: int, count: int = MAX_ITEMS) -> list:
    """The first `count` inputs of a workload; a pure function of (workload, seed)."""
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload].make(rng, count)
