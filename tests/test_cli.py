"""Command-line surface: formats, determinism, exit codes, config precedence."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import qhermite
from qhermite import cli, qcore
from qhermite.cli import _FAMILIES, RunConfig, main, resolve_config
from qhermite.polyfam import (
    discrete_q_hermite2,
    gdqh2,
    mu_hermite,
    q_laguerre,
    rosenblum_hermite,
    stieltjes_wigert,
)
from qhermite.qcore import QParams
from qhermite.scalars import fmt_scalar


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(precision_digits=10)
    with pytest.raises(ValueError):
        RunConfig(fmt="xml")
    with pytest.raises(ValueError):
        RunConfig(rel_tol=0.0)


def test_eval_human_value(capsys):
    code, out, err = run(capsys, "--no-timestamp", "eval", "gdqh2",
                         "--n", "2", "--q", "0.5", "--alpha", "0",
                         "--x", "1", "--y", "1")
    assert code == 0 and err == ""
    assert "value=-3.3333333333333333333333333333333333333333333333333e-1" in out
    assert "representation=definition_sum" in out


def test_eval_json_shape(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json",
                       "eval", "gdqh2", "--n", "2", "--q", "0.5",
                       "--alpha", "0", "--x", "1", "--y", "1")
    assert code == 0
    doc = json.loads(out)
    assert "timestamp" not in doc
    row = doc["rows"][0]
    assert row["family"] == "gdqh2" and row["n"] == "2"
    assert row["value"].startswith("-3.33333333333333")


def test_determinism_all_formats(capsys):
    for fmt in ("human", "json", "csv"):
        argv = ("--no-timestamp", "--format", fmt, "table", "discrete-qh2",
                "--n-max", "4", "--x", "0.7", "--x", "1.3", "--q", "0.5")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first  # byte-identical reruns


def test_timestamp_lines_differ_from_stripped(capsys):
    argv = ("--format", "human", "eval", "gdqh2", "--n", "0", "--q", "0.5",
            "--alpha", "0", "--x", "1", "--y", "1")
    _, out, _ = run(capsys, *argv)
    assert out.splitlines()[0].startswith("# ")
    _, bare, _ = run(capsys, "--no-timestamp", *argv)
    assert not bare.startswith("#")


def test_table_discrete_family(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "--format", "csv",
                       "table", "discrete-qh2", "--n-max", "1",
                       "--x", "0.7", "--q", "0.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["0", "1"]
    assert rows[0]["value"].startswith("1.0000")
    assert rows[1]["value"].startswith("7.0000")
    assert out.splitlines()[0] == "n,x,value,representation"


# the library call each CLI family stands for, at q = 0.4, alpha = 0.6,
# y = 0.9, mu = 0.3
_DIRECT = {
    "gdqh2": lambda n, x, rep: gdqh2(n, x, mpf("0.9"),
                                     QParams(mpf("0.4"), mpf("0.6")), rep=rep),
    "discrete-qh2": lambda n, x, rep: discrete_q_hermite2(n, x, mpf("0.4")),
    "qlaguerre": lambda n, x, rep: q_laguerre(n, mpf("0.6"), x, mpf("0.4"),
                                              rep=rep),
    "stieltjes-wigert": lambda n, x, rep: stieltjes_wigert(n, x, mpf("0.4")),
    "mu-hermite": lambda n, x, rep: mu_hermite(n, mpf("0.3"), x, mpf("0.4")),
    "rosenblum-hermite": lambda n, x, rep: rosenblum_hermite(n, mpf("0.3"), x),
}
_FLAGS = ("--q", "0.4", "--alpha", "0.6", "--y", "0.9", "--mu", "0.3")


@pytest.mark.parametrize("family, rep", [
    (family, rep) for family, (_, reps, _) in sorted(_FAMILIES.items())
    for rep in reps])
def test_family_table_calls_the_library(capsys, family, rep):
    code, out, err = run(capsys, "--no-timestamp", "--format", "json", "eval",
                         family, "--n", "3", "--x", "0.7", "--rep", rep,
                         *_FLAGS)
    assert code == 0 and err == ""
    row = json.loads(out)["rows"][0]
    with mp.workdps(50):
        want = _DIRECT[family](3, mpf("0.7"), rep)
        assert row["value"] == fmt_scalar(want, 50)
    assert row["representation"] == rep
    code, out, err = run(capsys, "--no-timestamp", "eval", family,
                         "--n", "-1", "--x", "0.7", "--rep", rep, *_FLAGS)
    assert code == 2 and out == ""
    assert "degree" in err


def test_unknown_family_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "--no-timestamp", "eval", "borel", "--n", "1",
            "--x", "0.7")
    assert exc.value.code == 2
    assert "invalid choice: 'borel'" in capsys.readouterr().err


@pytest.mark.parametrize("family, reads", [
    ("gdqh2", ["q", "alpha", "x", "y"]),
    ("discrete-qh2", ["q", "x"]),
    ("qlaguerre", ["q", "alpha", "x"]),
    ("stieltjes-wigert", ["q", "x"]),
    ("mu-hermite", ["q", "x", "mu"]),
    ("rosenblum-hermite", ["x", "mu"]),
])
def test_eval_row_prints_the_parameters_the_family_reads(capsys, family,
                                                          reads):
    # a parameter the family ignores is not printed as if it had been used
    code, out, _ = run(capsys, "--no-timestamp", "--format", "csv", "eval",
                       family, "--n", "2", "--x", "0.7", "--mu", "0.3")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == ["family", "n", *reads, "value", "representation"]
    if "mu" in reads:
        assert row[header.index("mu")] == "3." + "0" * 49 + "e-1"


@pytest.mark.parametrize("argv, want", [
    (("eval", "stieltjes-wigert", "--n", "3", "--x", "0.4", "--rep", "bogus"),
     "stieltjes-wigert evaluates with phi11: got rep 'bogus'"),
    (("table", "mu-hermite", "--n-max", "1", "--x", "0.4", "--rep", "phi21"),
     "mu-hermite evaluates with phi11: got rep 'phi21'"),
    (("eval", "discrete-qh2", "--n", "3", "--x", "0.4",
      "--rep", "laguerre_form"),
     "discrete-qh2 evaluates with definition_sum: "
     "got rep 'laguerre_form'"),
])
def test_rep_a_family_does_not_evaluate_with_exit_two(capsys, argv, want):
    # the representation column must name the form that was used, so a form
    # the family has not got is invalid input, not a mislabelled row
    code, out, err = run(capsys, "--no-timestamp", *argv)
    assert code == 2
    assert out == ""
    assert want in err


@pytest.mark.parametrize("argv, want", [
    (("recurrence", "--n-max", "-1", "--q", "0.5", "--alpha", "0",
      "--x", "1", "--y", "1"), "n_max must be >= 0: got -1"),
    # x*t <= 0 at every cell: no Bessel form is defined on the grid
    (("bessel_even", "--q", "0.5", "--alpha", "0", "--x", "-1", "--y", "1",
      "--t", "0.2"), "check bessel_even ran no check on this grid"),
])
def test_check_that_runs_no_check_exit_two(capsys, argv, want):
    code, out, err = run(capsys, "--no-timestamp", "check", *argv)
    assert code == 2
    assert out == ""
    assert want in err


def test_check_small_grid_passes(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "check", "recurrence",
                       "--q", "0.5", "--alpha", "0", "--n-max", "3",
                       "--x", "0.8", "--y", "1", "--t", "0.2",
                       "--omega", "0.6")
    assert code == 0
    assert "summary: total=4 passed=4 failed=0 errors=0" in out


def test_check_full_suite_enumerates_identities(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "check", "all",
                       "--q", "0.5", "--alpha", "0.3", "--n-max", "4",
                       "--x", "1.2", "--y", "0.4", "--t", "0.25",
                       "--omega", "0.9")
    assert code == 0
    seen = {line.split()[0].split("=", 1)[1]
            for line in out.splitlines() if line.startswith("identity=")}
    assert len(seen) >= 6
    assert {"recurrence", "connection", "inversion",
            "generating_function"} <= seen


def test_check_invalid_q_exit_two(capsys):
    code, out, err = run(capsys, "check", "all", "--q", "1.5")
    assert code == 2
    assert "q out of range (0,1)" in err


def test_check_out_of_domain_t_gives_labelled_error_rows(capsys):
    # one error row per requested identity id, with the check's parameters,
    # for a single id as for `all`
    grid = ("--q", "0.5", "--alpha", "0", "--n-max", "2", "--x", "1.2",
            "--y", "1", "--t", "0.2", "5")
    for ident, want in (("generating_function", ["generating_function"]),
                        ("all", ["generating_function", "even_gf", "odd_gf",
                                 "bessel_even", "bessel_odd"])):
        code, out, _ = run(capsys, "--no-timestamp", "--format", "json",
                           "check", ident, *grid)
        assert code == 2
        errors = [r for r in json.loads(out)["rows"] if r["error"]]
        assert [r["identity"] for r in errors] == want
        assert all("t=5.0000000e+0" in r["params"] for r in errors)


@pytest.mark.parametrize("precision, ident", [("50", "bessel_odd"),
                                              ("20", "generating_function")])
def test_check_capped_adaptive_sum_is_an_error_row(capsys, precision, ident):
    # the series has not met its stop rule within its cap of terms: an
    # error, not a truncated sum reported as a failed identity
    code, out, _ = run(capsys, "--no-timestamp", "--precision", precision,
                       "--format", "json", "check", ident, "--q", "0.999",
                       "--alpha", "0.5", "--x", "10", "--y", "1",
                       "--t", "0.5")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert [r["identity"] for r in rows] == [ident]
    assert "did not meet tail_tol" in rows[0]["error"]
    assert "t=5.0000000e-1" in rows[0]["params"]


def test_check_tight_tol_exit_one(capsys):
    code, _, _ = run(capsys, "--no-timestamp", "--rel-tol", "1e-90",
                     "check", "recurrence", "--q", "0.5", "--alpha", "0",
                     "--n-max", "3", "--x", "0.8", "--y", "1",
                     "--t", "0.2", "--omega", "0.6")
    assert code == 1


def test_orthogonality_single_pair(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "orthogonality",
                       "--q", "0.5", "--alpha", "0", "--n", "1", "--m", "1")
    assert code == 0
    assert "passed=true" in out


@pytest.mark.parametrize("pair", [(), ("--m", "0")])
def test_orthogonality_negative_degree_exit_two(capsys, pair):
    code, out, err = run(capsys, "--no-timestamp", "orthogonality", "--q",
                         "0.5", "--alpha", "0", "--n", "-1", *pair)
    assert code == 2
    assert out == ""
    assert err == "error: degree n must be >= 0: got -1\n"


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_table_negative_n_max_exit_two(capsys, fmt):
    # an empty degree range is invalid input, as for check and orthogonality
    code, out, err = run(capsys, "--no-timestamp", "--format", fmt, "table",
                         "mu-hermite", "--n-max", "-1", "--x", "0.4",
                         "--rep", "bogus")
    assert code == 2
    assert out == ""
    assert "n_max must be >= 0" in err


@pytest.mark.parametrize("q, alpha, n", [("0.3", "-0.9", 2), ("0.5", "-0.95", 1)])
def test_orthogonality_alpha_near_minus_one_passes(capsys, q, alpha, n):
    # toward x = 0 the terms decay only like q^(k(2 alpha + 2)); the
    # closed-form small-x tail sums them
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json",
                       "orthogonality", "--q", q, "--alpha", alpha,
                       "--n", str(n))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == (n + 1) * (n + 2) // 2
    assert all(r["passed"] == "true" and r["error"] == "" for r in rows)


def test_orthogonality_loose_tail_tol_passes(capsys):
    # --tail-tol cuts the weights, the walk and the closed-form constants
    # alike, so the diagonal residuals stay below it
    code, out, _ = run(capsys, "--no-timestamp", "--tail-tol", "1e-12",
                       "--rel-tol", "1e-10", "orthogonality", "--q", "0.5",
                       "--alpha", "0.5", "--n", "1")
    assert code == 0
    assert out.count("passed=true") == 3


def test_orthogonality_narrow_lattice_exit_two(capsys):
    # the walk alone picks the lattice: a fixed range is a usage error
    with pytest.raises(SystemExit) as exc:
        run(capsys, "--no-timestamp", "orthogonality", "--q", "0.5",
            "--alpha", "0", "--n", "1", "--k-min", "-3", "--k-max", "3")
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "unrecognized arguments: --k-min -3 --k-max 3" in cap.err


def test_main_restores_caller_precision(capsys):
    mp.dps = 23
    code, out, _ = run(capsys, "--no-timestamp", "--precision", "60", "eval",
                       "gdqh2", "--n", "1", "--q", "0.5", "--alpha", "0",
                       "--x", "1", "--y", "1")
    assert code == 0 and "6." + "6" * 58 + "7e-1" in out   # 60 digits
    assert mp.dps == 23
    assert run(capsys, "--precision", "60", "eval", "gdqh2", "--n", "-1",
               "--x", "1")[0] == 2
    assert mp.dps == 23


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line, then a blank one\n\n"
                   "format=csv\nprecision=30  # digits\n")
    code, out, _ = run(capsys, "--no-timestamp", "--config", str(cfg),
                       "eval", "gdqh2", "--n", "1", "--q", "0.5",
                       "--alpha", "0", "--x", "1", "--y", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("family,")    # config picked csv
    assert "6.66666666666666666666666666667e-1" in out  # 30 digits, not 50
    # explicit flag outranks the file
    code, out, _ = run(capsys, "--no-timestamp", "--config", str(cfg),
                       "--format", "json", "eval", "gdqh2", "--n", "1",
                       "--q", "0.5", "--alpha", "0", "--x", "1", "--y", "1")
    assert code == 0
    assert json.loads(out)["rows"][0]["family"] == "gdqh2"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _, err = run(capsys, "--config", str(cfg), "eval", "gdqh2",
                       "--n", "1", "--q", "0.5", "--alpha", "0",
                       "--x", "1", "--y", "1")
    assert code == 2
    assert "unknown config key" in err


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format csv\n")
    code, out, err = run(capsys, "--config", str(cfg), "eval", "gdqh2",
                         "--n", "1", "--x", "1")
    assert code == 2 and out == ""
    assert "config line is not key = value: 'format csv'" in err


@pytest.mark.parametrize("value, stamped", [
    ("NO", False), ("0", False), ("Yes", True), ("true", True),
    ("off", None), ("flase", None),
])
def test_config_timestamp_takes_only_a_boolean(tmp_path, capsys, value,
                                               stamped):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timestamp = %s\n" % value)
    code, out, err = run(capsys, "--config", str(cfg), "eval", "gdqh2",
                         "--n", "0", "--x", "1")
    if stamped is None:
        assert code == 2 and out == ""
        assert "config key 'timestamp'" in err and repr(value) in err
    else:
        assert code == 0
        assert out.startswith("# ") is stamped


_CHECK_ONE_CELL = ("check", "even_gf", "--q", "0.4", "--alpha", "0.7",
                   "--x", "-1.1", "--y", "-0.9", "--t", "0.3")


@pytest.mark.parametrize("key", ["rel_tol", "tail_tol"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_infinite_tolerance_exit_two(tmp_path, capsys, key, where):
    # an infinite rel_tol would pass every check, an infinite tail_tol cut
    # every series to its first term
    if where == "flag":
        argv = ("--" + key.replace("_", "-"), "inf")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = inf\n" % key)
        argv = ("--config", str(cfg))
    code, out, err = run(capsys, "--no-timestamp", *argv, *_CHECK_ONE_CELL)
    assert code == 2 and out == ""
    assert "%s must be finite and > 0" % key in err


@pytest.mark.parametrize("argv, flag, value", [
    (("eval", "gdqh2", "--n", "2", "--x", "inf"), "x", "inf"),
    (("eval", "mu-hermite", "--n", "2", "--x", "0.4", "--mu=-inf"), "mu", "-inf"),
    (("table", "discrete-qh2", "--n-max", "1", "--x", "nan", "0.5"), "x", "nan"),
    (("check", "recurrence", "--n-max", "2", "--x", "inf", "--q", "0.5",
      "--alpha", "0", "--y", "1"), "x", "inf"),
    (("check", "all", "--q", "0.5", "--alpha", "0", "--n-max", "1",
      "--x", "0.8", "--y", "1", "--omega", "nan", "--t", "0.2"), "omega", "nan"),
    (("check", "generating_function", "--t", "0.2", "inf"), "t", "inf"),
    (("orthogonality", "--n", "1", "--alpha", "inf"), "alpha", "inf"),
    (("orthogonality", "--n", "1", "--m", "0", "--q", "nan"), "q", "nan"),
])
def test_non_finite_numeric_flag_exit_two(capsys, argv, flag, value):
    # an inf or nan parameter is invalid input, named before anything is
    # evaluated: not a nan row, a failed check or an exhausted product
    code, out, err = run(capsys, "--no-timestamp", *argv)
    assert code == 2
    assert out == ""
    assert "--%s must be finite: got %s" % (flag, value) in err


def test_eval_invalid_degree_exit_two(capsys):
    code, _, err = run(capsys, "eval", "gdqh2", "--n", "-2", "--q", "0.5",
                       "--alpha", "0", "--x", "1", "--y", "1")
    assert code == 2
    assert "degree" in err


def test_resolve_config_defaults():
    import argparse
    ns = argparse.Namespace(config=None, precision=None, rel_tol=None,
                            tail_tol=None, format=None, no_timestamp=True)
    cfg = resolve_config(ns)
    assert cfg.precision_digits == 50
    assert cfg.fmt == "human"
    assert cfg.timestamp is False


def fresh_process(*argv):
    """(exit code, stdout) of `python -m qhermite.cli` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qhermite.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "qhermite.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stdout


def test_one_parser_per_process_prints_what_a_fresh_process_prints(
        capsys, monkeypatch):
    # commands with different flags, one after another in one process, each
    # print the bytes of their own process
    for argv in (("--no-timestamp", "orthogonality", "--n", "2", "--q", "0.3",
                  "--alpha", "0.5"),
                 ("--no-timestamp", "--format", "csv", "--precision", "30",
                  "check", "recurrence", "--n-max", "3", "--q", "0.4", "0.6",
                  "--x", "1.2"),
                 ("--no-timestamp", "orthogonality", "--n", "1", "--m", "0")):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh_process(*argv)
    assert cli.build_parser() is cli.build_parser()
    # a patched command is the one called, through the parser built above
    monkeypatch.setattr(cli, "cmd_check", lambda args, cfg: 7)
    assert main(["check", "all"]) == 7


def sweep_block(monkeypatch) -> list:
    """The argv of the first seed-1 identity_sweep block of the benchmark."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    block = len(workloads.SWEEP_BLOCK)
    return [item["argv"] for item in workloads.make_items("identity_sweep", 1,
                                                          block)]


def test_kept_values_print_what_cold_ones_do(capsys, monkeypatch):
    # each item with the kept tables cleared, then the block twice over with
    # them kept: byte-identical output
    block = sweep_block(monkeypatch)
    cold = []
    for argv in block:
        qcore._kept.cache_clear()
        cold.append(run(capsys, *argv)[:2])
    for _ in range(2):
        hits = qcore._kept.cache_info().hits
        assert [run(capsys, *argv)[:2] for argv in block] == cold
        assert qcore._kept.cache_info().hits > hits
    assert all(code == 0 for code, _ in cold)


@pytest.mark.parametrize("argv", [
    ("check", "all", "--q", "0.5", "--alpha", "1.5"),
    ("--format", "json", "check", "all", "--q", "0.5", "--alpha", "1.5"),
    ("check", "all", "--q", "0.68", "--alpha", "0.37"),
    ("--format", "json", "check", "all", "--q", "0.68", "--alpha", "0.37"),
    ("orthogonality", "--n", "4", "--q", "0.22", "--alpha", "1.3"),
])
def test_a_warm_rerun_prints_the_cold_runs_bytes(capsys, argv):
    # a second run in one process reads the tables, powers, products and
    # series factor rows the first one kept, and prints the cold run's
    # bytes; at alpha = 0.37 (2 alpha not an integer) the recurrence and the
    # generalized factorial read the one kept q^(2 alpha + 1).  The
    # orthogonality sweep keeps nothing past its call, so its rerun is cold
    qcore._kept.cache_clear()
    cold = run(capsys, "--no-timestamp", *argv)
    hits = qcore._kept.cache_info().hits
    assert run(capsys, "--no-timestamp", *argv) == cold
    if argv[0] == "orthogonality":
        assert qcore._kept.cache_info().currsize == 0
    else:
        assert qcore._kept.cache_info().hits > hits
    assert cold[0] == 0 and cold[1]


@pytest.mark.parametrize("timestamp", [False, True])
def test_json_rows_are_the_bytes_json_dump_writes(monkeypatch, timestamp):
    # the rows are written as one string; it is json.dump's indent=2,
    # sort_keys=True document and a newline, escapes and all
    monkeypatch.setattr(cli, "_now", lambda: "2026-10-19T16:20:32Z")
    row = {"identity": "recurrence", "params": "alpha=0.0e+0;n=3;q=5.0e-1",
           "lhs": "1.25e+0", "passed": "true", "error": ""}
    cases = [
        [],
        [row],
        [row, dict(row, lhs="-3.5e-2", passed="false"), dict(row, identity="inversion")],
        [dict(row, passed="false", error='bad "t" at C:\\tmp\nnext line, |y·t| ≥ 1 ✓')],
    ]
    for rows in cases:
        out = io.StringIO()
        cli._emit_rows(rows, RunConfig(fmt="json", timestamp=timestamp), out)
        doc = dict({"rows": rows}, **({"timestamp": cli._now()} if timestamp else {}))
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _options(parser) -> tuple:
    """(option strings, positional names) of one argparse parser."""
    return ({s for a in parser._actions for s in a.option_strings},
            {a.dest for a in parser._actions if not a.option_strings
             and a.dest != "command"})


def test_each_command_takes_the_flags_it_always_took(capsys):
    top = cli.build_parser()
    sub = next(a for a in top._actions if a.dest == "command")
    assert _options(top) == ({"-h", "--help", "--precision", "--rel-tol",
                              "--tail-tol", "--format", "--config",
                              "--no-timestamp"}, set())
    help_ = {"-h", "--help"}
    assert {name: _options(p) for name, p in sub.choices.items()} == {
        "eval": (help_ | {"--n", "--q", "--alpha", "--x", "--y", "--mu",
                          "--rep"}, {"family"}),
        "table": (help_ | {"--n-max", "--q", "--alpha", "--x", "--y", "--mu",
                           "--rep"}, {"family"}),
        "check": (help_ | {"--q", "--alpha", "--n-max", "--x", "--y",
                           "--omega", "--t"}, {"identity"}),
        "orthogonality": (help_ | {"--n", "--m", "--q", "--alpha"}, set()),
    }
    for argv in ([], ["eval"], ["table"], ["check"], ["orthogonality"]):
        with pytest.raises(SystemExit) as done:
            main(argv + ["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qhermite")
