"""qhermite benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload identity_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree; the program is imported from the
``src`` directory there and nowhere else.  Metric names and units come from
``BENCHMARK.json`` at the same root.

--trace 0 measures the end-to-end metrics with tracing off: a closed loop
with one client sends the workload's seeded items one after the other for
--seconds (and at least the first block of items), checks every output, and
compares the program with mpmath oracles outside the timed loop.  set-up is
measured in separate processes and reported as a median.  Times are scaled
to a reference machine speed (REFERENCE_S); unscaled ones are printed too.

--trace 1 replays the first block of items once untraced, in a child
process, and once with spans around every call between qhermite's layers;
it reports the per-layer metrics and the tracing overhead, and writes the
spans to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PRECISION = 50  # the ambient mp.dps fixed by the roadmap
SETUP_REPEATS = 8
BEYOND = 10  # samples beyond the reported tail percentile
CHILD_TIMEOUT_S = 170
# The machine's speed swings by up to two times, in phases of seconds and
# states of minutes.  A fixed mpmath computation that does not touch qhermite
# is timed at least every REFERENCE_EVERY_S during a run; each timing is
# scaled to a machine on which it takes REFERENCE_S, the time it took in the
# fast phase of the machine the baseline was measured on.
REFERENCE_S = 0.006
REFERENCE_EVERY_S = 0.25


def load_program() -> SimpleNamespace:
    """Import qhermite from this tree's src/ and return its modules."""
    if not (SRC / "qhermite" / "__init__.py").is_file():
        raise SystemExit("bench: no qhermite sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import mpmath
    import qhermite
    import qhermite.cli
    from qhermite import identities, polyfam, qcore, qseries, quadrature, scalars

    if Path(qhermite.__file__).resolve().parent != (SRC / "qhermite").resolve():
        raise SystemExit("bench: qhermite imported from %s, not %s"
                         % (qhermite.__file__, SRC))
    mpmath.mp.dps = PRECISION
    return SimpleNamespace(mpmath=mpmath, qhermite=qhermite, scalars=scalars,
                           qcore=qcore, qseries=qseries, polyfam=polyfam,
                           identities=identities, quadrature=quadrature,
                           cli=qhermite.cli)


def tail(samples, beyond: int = BEYOND) -> tuple:
    """(value, percentile level, sample count) at the highest percentile
    that has at least `beyond` samples above it.  With too few samples no
    percentile qualifies, and the maximum is returned at level 100."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return s[-1], 100.0, n
    rank = n - beyond - 1
    return s[rank], 100.0 * (rank + 1) / n, n


def reference(mpmath) -> float:
    """Seconds taken by a fixed mpmath computation that does not use qhermite."""
    t0 = time.perf_counter()
    with mpmath.mp.workdps(80):
        a, s = mpmath.sqrt(2), mpmath.mpf(0)
        for j in range(1, 400):
            a = a * a / (a + j) + 1
            s += a / j
    return time.perf_counter() - t0


def speed_factors(n: int, refs) -> list:
    """Scale factor for each of n items, from reference timings (k, seconds)
    taken just before item k (k = n: after the last item): REFERENCE_S over
    the mean of the nearest timing before the item and the nearest after."""
    out = []
    j = 0
    for i in range(n):
        while refs[j + 1][0] <= i:  # the last timing has k = n > i
            j += 1
        out.append(REFERENCE_S / ((refs[j][1] + refs[j + 1][1]) / 2))
    return out


def closed_loop(lib, work, items, seconds: float, min_items: int, tracer=None):
    """Run items one after the other until `seconds` have passed and at least
    `min_items` are done: (latencies, verdicts, wall time of the loop,
    reference timings)."""
    latencies, verdicts, refs = [], [], []
    reference(lib.mpmath)  # first-call costs of mpmath are not the machine's speed
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    last_ref = float("-inf")
    for idx, item in enumerate(items):
        if idx >= min_items and clock() >= deadline:
            break
        if clock() - last_ref >= REFERENCE_EVERY_S:
            refs.append((idx, reference(lib.mpmath)))
            last_ref = clock()
        if tracer is not None:
            tracer.item = idx
        lib.mpmath.mp.dps = PRECISION
        t0 = clock()
        try:
            outcome = work.run(lib, item)
        except Exception as exc:  # one item's failure must not end the run
            latencies.append(clock() - t0)
            verdicts.append(wl.Verdict(False, False, None,
                                       "raised %s: %s" % (type(exc).__name__, exc)))
            continue
        latencies.append(clock() - t0)
        verdicts.append(work.check(lib, item, outcome))
    wall = clock() - start
    refs.append((len(latencies), reference(lib.mpmath)))
    return latencies, verdicts, wall, refs


def child(args: argparse.Namespace, mode: str) -> dict:
    """Run this script in a fresh process in one of its internal modes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def report(values: dict, units: dict, correct: bool, attempted: int, failed: int):
    if set(values) != set(units):
        raise SystemExit("bench: computed metrics %s differ from BENCHMARK.json"
                         % sorted(set(values) ^ set(units)))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def summarize_failures(verdicts) -> None:
    bad = [(i, v.reason) for i, v in enumerate(verdicts) if not v.ok]
    for i, reason in bad[:5]:
        print("item %d failed: %s" % (i, reason), file=sys.stderr)
    if len(bad) > 5:
        print("... and %d more failed items" % (len(bad) - 5), file=sys.stderr)


def error_probe(lib, args) -> tuple:
    """(probe verdicts, mishandled count) of the workload's out-of-domain
    probe, run outside the timed loop; none for a workload without one."""
    if not wl.WORKLOADS[args.workload].probes_errors:
        return [], 0
    verdicts = wl.ood_probe(lib, args.seed, PRECISION)
    bad = [v.reason for v in verdicts if not v.ok]
    for reason in bad:
        print("out-of-domain probe: %s" % reason, file=sys.stderr)
    print("out-of-domain probe: %d of %d calls give exit 2 with an error row under "
          "the identity id" % (len(verdicts) - len(bad), len(verdicts)))
    return verdicts, len(bad)


def run_untraced(args, units):
    work = wl.WORKLOADS[args.workload]
    lib = load_program()
    # half the set-ups before the loop and half after it, so that one slow
    # spell of the machine does not set the median
    setups = [child(args, "setup") for _ in range(SETUP_REPEATS // 2)]
    items = wl.make_items(args.workload, args.seed)
    raw, verdicts, wall, refs = closed_loop(lib, work, items, args.seconds,
                                            max(work.prefix, work.min_items))
    setups += [child(args, "setup") for _ in range(SETUP_REPEATS // 2)]
    lat = [t * f for t, f in zip(raw, speed_factors(len(raw), refs))]
    n_oracles, oracle_bad = wl.oracle_failures(lib, args.workload,
                                               items[:work.prefix], args.seed)
    probe, _ = error_probe(lib, args)
    n = len(lat)
    failed = sum(not v.ok for v in verdicts)
    digits = [v.digits for v in verdicts[:work.prefix] if v.digits is not None]
    tail_s, level, count = tail(lat)
    values = {
        "setup_s": statistics.median(p["setup_s"] * REFERENCE_S / p["reference_s"]
                                     for p in setups),
        "items_per_s": n / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_tail_ms": 1e3 * tail_s,
        "ok_frac": (n - failed) / n,
        "residual_digits": min(digits, default=0.0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    correct = (all(v.numeric_ok for v in verdicts + probe) and not oracle_bad
               and bool(digits))
    print("workload %s, seed %d: %d items in %.2f s, one client, mp.dps = %d"
          % (args.workload, args.seed, n, wall, PRECISION))
    print("timings are scaled to a %.0f ms reference; the reference took %.2f ms "
          "(median of %d), so the unscaled items took %.3f s in all"
          % (1e3 * REFERENCE_S, 1e3 * statistics.median(r for _, r in refs),
             len(refs), sum(raw)))
    notes = {
        "setup_s": "median of %d processes, unscaled %.4f s"
                   % (SETUP_REPEATS, statistics.median(p["setup_s"] for p in setups)),
        "item_p50_ms": "unscaled %.4g ms" % (1e3 * statistics.median(raw)),
        "item_tail_ms": "p%.1f, %d samples, %d beyond; unscaled %.4g ms" % (
            level, count, round(count * (100 - level) / 100), 1e3 * tail(raw)[0]),
        "ok_frac": "%d of %d items failed their output check" % (failed, n),
        "residual_digits": "min over the first %d items" % work.prefix,
    }
    for name, unit in units.items():
        print("%-16s %14.6g %-6s %s" % (name, values[name], unit, notes.get(name, "")))
    print("oracles: %d of %d comparisons with mpmath agree%s"
          % (n_oracles - len(oracle_bad), n_oracles,
             "" if not oracle_bad else "; disagree: " + ", ".join(oracle_bad)))
    summarize_failures(verdicts)
    report(values, units, correct, n, failed)


def run_traced(args, units):
    work = wl.WORKLOADS[args.workload]
    lib = load_program()
    untraced_wall = child(args, "untraced")["wall_s"]
    items = wl.make_items(args.workload, args.seed, work.prefix)
    tr = tracing.Tracer()
    restore = tracing.install(tr, lib)
    try:
        _, verdicts, wall, _ = closed_loop(lib, work, items, 0, len(items), tr)
    finally:
        restore()
    values = tracing.layer_metrics(tr)
    values["cli.output_bytes"] = sum(v.output_bytes for v in verdicts)
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    _, oracle_bad = wl.oracle_failures(lib, args.workload, items, args.seed)
    probe, values["identities.ood_errors_mishandled"] = error_probe(lib, args)
    failed = sum(not v.ok for v in verdicts)
    consistent = values["trace.top_level_self_s"] <= wall
    correct = (all(v.numeric_ok for v in verdicts + probe) and not oracle_bad
               and consistent)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("spans-%s-seed%d.csv.gz" % (args.workload, args.seed))
    tr.write(str(spans))
    print("workload %s, seed %d: %d items traced, %d spans written to %s"
          % (args.workload, args.seed, len(items), len(tr), spans.relative_to(ROOT)))
    print("tracing overhead %.3f s: traced %.3f s - untraced %.3f s; top-level self "
          "time %.3f s %s traced wall" % (values["trace.overhead_s"], wall, untraced_wall,
                                          values["trace.top_level_self_s"],
                                          "<=" if consistent else "EXCEEDS"))
    for name, unit in units.items():
        print("%-52s %14.6g %s" % (name, values[name], unit))
    summarize_failures(verdicts)
    report(values, units, correct, len(items), failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what the child processes of a run do
    ap.add_argument("--mode", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        t0 = time.perf_counter()
        lib = load_program()
        wl.make_items(args.workload, args.seed)
        setup = time.perf_counter() - t0
        reference(lib.mpmath)
        print(json.dumps({"setup_s": setup, "reference_s": reference(lib.mpmath)}))
        return 0
    if args.mode == "untraced":
        lib = load_program()
        work = wl.WORKLOADS[args.workload]
        items = wl.make_items(args.workload, args.seed, work.prefix)
        _, _, wall, _ = closed_loop(lib, work, items, 0, len(items))
        print(json.dumps({"wall_s": wall}))
        return 0

    units = declared_metrics()
    if args.trace:
        run_traced(args, units["per_layer"])
    else:
        run_untraced(args, units["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
