"""Command-line surface.

Commands
  eval           evaluate one polynomial at one point
  table          evaluate a family for n = 0..n_max over a list of points
  check          run identity suites over a parameter grid
  orthogonality  quadrature vs closed-form orthogonality constants

Global flags (before the command): --precision, --rel-tol, --tail-tol,
--format {human,json,csv}, --config <path>, --no-timestamp.

Precedence: command-line flags > config file > defaults.  Config files are
flat `key = value` text; '#' starts a comment.

Exit codes: 0 success; 1 at least one identity/orthogonality check failed
its tolerance; 2 invalid arguments or evaluation errors (the message names
the violated precondition).

All numbers are printed in scientific notation with precision-many
significant digits, so identical invocations produce byte-identical output
(the JSON/human timestamp is dropped under --no-timestamp).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import Optional

from mpmath import mp, mpf

from .errors import DomainError, QHermiteError
from .identities import (
    IDENTITY_IDS,
    IdentityGrid,
    run_identity_suite,
    summarize_reports,
)
from .polyfam import (
    discrete_q_hermite2,
    gdqh2,
    mu_hermite,
    q_laguerre,
    rosenblum_hermite,
    stieltjes_wigert,
)
from .qcore import QParams, Truncation, _check_degree
from .quadrature import orthogonality_check, orthogonality_gram
from .scalars import fmt_scalar

__all__ = ["main", "RunConfig"]

# CLI family name -> (evaluator of (n, x, args, rep), the representations
# it evaluates with, the default first, the parameters it reads, in the
# order q, alpha, x, y, mu)
_FAMILIES = {
    "gdqh2": (
        lambda n, x, a, rep: gdqh2(n, x, mpf(a.y), _params_from(a), rep=rep),
        ("definition_sum", "phi_form", "laguerre_form"),
        ("q", "alpha", "x", "y")),
    "discrete-qh2": (
        lambda n, x, a, rep: discrete_q_hermite2(n, x, mpf(a.q)),
        ("definition_sum",), ("q", "x")),
    "qlaguerre": (
        lambda n, x, a, rep: q_laguerre(n, mpf(a.alpha), x, mpf(a.q), rep=rep),
        ("phi11", "phi21"), ("q", "alpha", "x")),
    "stieltjes-wigert": (
        lambda n, x, a, rep: stieltjes_wigert(n, x, mpf(a.q)),
        ("phi11",), ("q", "x")),
    "mu-hermite": (
        lambda n, x, a, rep: mu_hermite(n, mpf(a.mu), x, mpf(a.q)),
        ("phi11",), ("q", "x", "mu")),
    "rosenblum-hermite": (
        lambda n, x, a, rep: rosenblum_hermite(n, mpf(a.mu), x),
        ("closed_sum",), ("x", "mu")),
}


@dataclass
class RunConfig:
    precision_digits: int = 50
    rel_tol: Optional[str] = None   # None -> derived default at run time
    tail_tol: Optional[str] = None
    fmt: str = "human"
    timestamp: bool = True

    def __post_init__(self):
        if self.precision_digits < 15:
            raise ValueError(
                "precision_digits must be >= 15: got %d" % self.precision_digits)
        if self.fmt not in ("human", "json", "csv"):
            raise ValueError("format must be human, json or csv: got %r" % self.fmt)
        for name in ("rel_tol", "tail_tol"):
            v = getattr(self, name)
            if v is not None and not (0 < mpf(v) < mp.inf):
                raise ValueError("%s must be finite and > 0: got %s" % (name, v))


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line is not key = value: %r" % raw.strip())
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False,
             "1": True, "0": False}


def resolve_config(args) -> RunConfig:
    """flags > config file > defaults."""
    merged = {"precision": "50", "rel_tol": None, "tail_tol": None,
              "format": "human", "timestamp": "true"}
    if getattr(args, "config", None):
        for k, v in _read_config_file(args.config).items():
            if k not in merged:
                raise ValueError("unknown config key %r" % k)
            merged[k] = v
    for k in ("precision", "rel_tol", "tail_tol", "format"):
        if getattr(args, k, None) is not None:
            merged[k] = str(getattr(args, k))
    if getattr(args, "no_timestamp", False):
        merged["timestamp"] = "false"
    timestamp = _BOOLEANS.get(merged["timestamp"].lower())
    if timestamp is None:
        raise ValueError("config key 'timestamp' must be one of %s: got %r"
                         % ("/".join(_BOOLEANS), merged["timestamp"]))
    return RunConfig(
        precision_digits=int(merged["precision"]),
        rel_tol=merged["rel_tol"],
        tail_tol=merged["tail_tol"],
        fmt=merged["format"],
        timestamp=timestamp,
    )


def _truncation(cfg: RunConfig) -> Optional[Truncation]:
    if cfg.tail_tol is None:
        return None
    return Truncation(tail_tol=mpf(cfg.tail_tol))


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _json_doc(rows: list, timestamp: Optional[str]) -> str:
    """json.dumps({"rows": rows, "timestamp": timestamp}, indent=2,
    sort_keys=True) + "\n", the timestamp left out when None, written as one
    string: the rows are flat dicts of strings."""
    enc = encode_basestring_ascii
    items = ["    {\n" + ",\n".join("      %s: %s" % (enc(k), enc(v))
                                   for k, v in sorted(row.items()))
             + "\n    }" if row else "    {}" for row in rows]
    body = '"rows": [\n%s\n  ]' % ",\n".join(items) if rows else '"rows": []'
    if timestamp is not None:
        body += ',\n  "timestamp": ' + enc(timestamp)
    return "{\n  %s\n}\n" % body


def _emit_rows(rows: list, cfg: RunConfig, out) -> None:
    """rows: list of dicts with string values, identical key order."""
    if cfg.fmt == "json":
        out.write(_json_doc(rows, _now() if cfg.timestamp else None))
        return
    if cfg.fmt == "csv":
        if not rows:
            return
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    # human
    if cfg.timestamp:
        out.write("# %s\n" % _now())
    for row in rows:
        out.write("  ".join("%s=%s" % kv for kv in row.items()) + "\n")


def _params_from(args) -> QParams:
    return QParams(mpf(args.q), mpf(args.alpha))


# --- commands -----------------------------------------------------------------


def _family(args):
    """The evaluator of args.family, the representation it uses and the
    parameters it reads.  --q and --alpha are checked for every family, so
    an out-of-range one exits 2 whether the family reads it or not."""
    evaluate, reps, reads = _FAMILIES[args.family]
    _params_from(args)
    rep = args.rep or reps[0]
    if rep not in reps:
        raise DomainError("%s evaluates with %s: got rep %r"
                          % (args.family, " or ".join(reps), rep))
    return evaluate, rep, reads


def cmd_eval(args, cfg: RunConfig) -> int:
    evaluate, rep, reads = _family(args)
    digits = cfg.precision_digits
    row = {"family": args.family, "n": str(args.n)}
    for name in reads:
        row[name] = fmt_scalar(mpf(getattr(args, name)), digits)
    row["value"] = fmt_scalar(evaluate(args.n, mpf(args.x), args, rep), digits)
    row["representation"] = rep
    _emit_rows([row], cfg, sys.stdout)
    return 0


def cmd_table(args, cfg: RunConfig) -> int:
    _check_degree(args.n_max, "n_max")
    evaluate, rep, _ = _family(args)
    digits = cfg.precision_digits
    rows = [{"n": str(n), "x": fmt_scalar(mpf(xs), digits),
             "value": fmt_scalar(evaluate(n, mpf(xs), args, rep), digits),
             "representation": rep}
            for n in range(args.n_max + 1) for xs in args.x]
    _emit_rows(rows, cfg, sys.stdout)
    return 0


def _report_row(r, digits: int, fmt) -> dict:
    return {
        "identity": r.identity_id,
        "params": ";".join("%s=%s" % (k, fmt(v, 8)) for k, v in sorted(r.params.items())),
        "lhs": fmt(r.lhs, digits),
        "rhs": fmt(r.rhs, digits),
        "abs_residual": fmt(r.abs_residual, 8),
        "rel_residual": fmt(r.rel_residual, 8),
        "tolerance": fmt(r.tolerance, 8),
        "terms": str(r.terms_used),
        "passed": str(bool(r.passed)).lower(),
        "error": r.error or "",
    }


def _finish_reports(reports, cfg: RunConfig) -> int:
    # parameters, tolerances and many values and residuals repeat across
    # rows: format each (value, digits) once, keyed on the raw value, which
    # hashes without mpf's own hash
    shown = {}

    def fmt(v, digits):
        key = getattr(v, "_mpf_", v), digits
        if key not in shown:
            shown[key] = fmt_scalar(v, digits)
        return shown[key]

    _emit_rows([_report_row(r, cfg.precision_digits, fmt) for r in reports],
               cfg, sys.stdout)
    summary = summarize_reports(reports)
    if cfg.fmt == "human":
        sys.stdout.write(
            "summary: total=%d passed=%d failed=%d errors=%d\n"
            % (summary["total"], summary["passed"], summary["failed"],
               summary["errors"]))
    if summary["errors"]:
        return 2
    return 0 if summary["all_passed"] else 1


def cmd_check(args, cfg: RunConfig) -> int:
    if args.n_max is not None:
        _check_degree(args.n_max, "n_max")
    # only the flags given; IdentityGrid's defaults fill the rest
    given = {name + "_values": tuple(getattr(args, name))
             for name in ("q", "alpha", "x", "y", "omega", "t")
             if getattr(args, name)}
    if args.n_max is not None:
        given["n_values"] = tuple(range(args.n_max + 1))
    grid = IdentityGrid(**given)
    # every (q, alpha) up front: a bad one exits 2 before any block runs
    for qs in grid.q_values:
        for al in grid.alpha_values:
            QParams(mpf(qs), mpf(al))
    reports = run_identity_suite(grid, tol=cfg.rel_tol,
                                 trunc=_truncation(cfg),
                                 identity_id=args.identity)
    if not reports:
        raise DomainError(
            "check %s ran no check on this grid: the Bessel forms need x*t > 0 "
            "and representation_laguerre needs y >= 0 at some grid point"
            % args.identity)
    return _finish_reports(reports, cfg)


def cmd_orthogonality(args, cfg: RunConfig) -> int:
    params, tol, trunc = _params_from(args), cfg.rel_tol, _truncation(cfg)
    if args.m is not None:
        reports = [orthogonality_check(args.n, args.m, params, tol, trunc)]
    else:
        _check_degree(args.n)
        reports = orthogonality_gram(args.n, params, tol, trunc)
    return _finish_reports(reports, cfg)


# --- parser --------------------------------------------------------------------


@functools.cache  # one per process: building costs more than parsing
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhermite",
        description="Generalized discrete q-Hermite II polynomials: "
                    "evaluation, identity checks, orthogonality quadrature.")
    ap.add_argument("--precision", type=int, default=None,
                    help="working significant digits (default 50, min 15)")
    ap.add_argument("--rel-tol", default=None,
                    help="relative tolerance for pass/fail decisions")
    ap.add_argument("--tail-tol", default=None,
                    help="series tail truncation tolerance")
    ap.add_argument("--format", choices=("human", "json", "csv"), default=None)
    ap.add_argument("--config", default=None, help="flat key = value config file")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp (byte-identical reruns)")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one polynomial")
    pe.add_argument("family", choices=sorted(_FAMILIES))
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--q", default="0.5")
    pe.add_argument("--alpha", default="0")
    pe.add_argument("--x", required=True)
    pe.add_argument("--y", default="1")
    pe.add_argument("--mu", default="0")
    pe.add_argument("--rep", default=None,
                    help="representation (family-specific, e.g. phi_form)")

    pt = sub.add_parser("table", help="table of values for n = 0..n_max")
    pt.add_argument("family", choices=sorted(_FAMILIES))
    pt.add_argument("--n-max", type=int, required=True)
    pt.add_argument("--q", default="0.5")
    pt.add_argument("--alpha", default="0")
    pt.add_argument("--x", nargs="+", required=True)
    pt.add_argument("--y", default="1")
    pt.add_argument("--mu", default="0")
    pt.add_argument("--rep", default=None)

    pc = sub.add_parser("check", help="run identity suites over a grid")
    pc.add_argument("identity", choices=("all",) + IDENTITY_IDS)
    pc.add_argument("--q", nargs="+", default=None)
    pc.add_argument("--alpha", nargs="+", default=None)
    pc.add_argument("--n-max", type=int, default=None)
    pc.add_argument("--x", nargs="+", default=None)
    pc.add_argument("--y", nargs="+", default=None)
    pc.add_argument("--omega", nargs="+", default=None)
    pc.add_argument("--t", nargs="+", default=None)

    po = sub.add_parser("orthogonality", help="orthogonality quadrature checks")
    po.add_argument("--n", type=int, required=True,
                    help="degree (or max degree when --m is omitted)")
    po.add_argument("--m", type=int, default=None)
    po.add_argument("--q", default="0.5")
    po.add_argument("--alpha", default="0")
    return ap


def _require_finite(args) -> None:
    """Reject an inf or nan numeric flag before anything is evaluated (a
    malformed one raises mpf's own ValueError, as the command would)."""
    for flag in ("q", "alpha", "x", "y", "mu", "omega", "t"):
        value = getattr(args, flag, None)
        for text in [value] if isinstance(value, str) else value or ():
            if not mp.isfinite(mpf(text)):
                raise DomainError("--%s must be finite: got %s" % (flag, text))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    caller_dps = mp.dps
    try:
        _require_finite(args)
        cfg = resolve_config(args)
        mp.dps = cfg.precision_digits
        # by name, so that a wrapped or patched command is the one called
        return globals()["cmd_" + args.command](args, cfg)
    except (QHermiteError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        mp.dps = caller_dps


if __name__ == "__main__":
    sys.exit(main())
