"""Byte-level golden outputs of the CLI under --no-timestamp.

Every printed digit is pinned: a change to the order of any check's
arithmetic, its truncation or its working precision shows here.  Each file
under golden/ is the stdout of `python3 -m qhermite.cli --no-timestamp` with
the arguments listed below, which exits 0 unless EXIT says otherwise;
rewrite one only for a deliberate change of output.  check_all_default.sha256
is the `sha256sum` line of `check all` on the whole default grid.
"""

import hashlib
from pathlib import Path

import pytest

from qhermite.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # every identity id: negative x, with x*t > 0 for the Bessel forms
    "check_all.json": ("--format", "json", "check", "all", "--q", "0.4",
                       "--alpha", "0.6", "--n-max", "6", "--x", "-0.9",
                       "--y", "0.6", "--t", "-0.25", "--omega", "0.5"),
    "orthogonality.txt": ("orthogonality", "--n", "3", "--q", "0.5",
                          "--alpha", "0.5"),
    # every pair m <= n <= 4, from one lattice sweep
    "orthogonality_n4.csv": ("--format", "csv", "orthogonality", "--n", "4",
                             "--q", "0.22", "--alpha", "1.3"),
    # every pair m <= n <= 10: moments to x^20, dot products that cancel
    "orthogonality_n10.txt": ("orthogonality", "--n", "10", "--q", "0.25",
                              "--alpha", "1.2"),
    # alpha near -1: a long walk toward 0 and the closed-form small-x tail
    "orthogonality_alpha_near_minus_one.txt": ("orthogonality", "--n", "5",
                                               "--q", "0.3", "--alpha", "-0.9"),
    # the caller's truncation reaches the walk, the weights and the constants
    "orthogonality_tail_tol.json": ("--format", "json", "--tail-tol", "1e-40",
                                    "orthogonality", "--n", "3", "--q", "0.7",
                                    "--alpha", "2.5"),
    # q near 1: long walks, and products of a few dozen factors and series
    # terms where the plain product takes hundreds
    "orthogonality_q_near_one.txt": ("orthogonality", "--n", "3", "--q", "0.9",
                                     "--alpha", "0.5"),
    # one pair of odd n + m: no sum, no walk, lhs = 0 and terms = 0
    "orthogonality_odd_pair.txt": ("orthogonality", "--n", "1", "--m", "0",
                                   "--q", "0.5", "--alpha", "0.5"),
    # one passing row and one error row (|y*t| >= 1): lhs = nan, exit 2
    "check_gf_out_of_domain.txt": ("check", "generating_function", "--q", "0.4",
                                   "--alpha", "0.6", "--x", "0.9", "--y", "0.6",
                                   "--t", "0.2", "6.0"),
    "check_even_gf.txt": ("check", "even_gf", "--q", "0.4", "--alpha", "0.7",
                          "--x", "-1.1", "--y", "-0.9", "--t", "0.3"),
    "check_odd_gf.txt": ("check", "odd_gf", "--q", "0.4", "--alpha", "0.7",
                         "--x", "-1.1", "--y", "-0.9", "--t", "0.3"),
    # every family at its default representation
    "eval_gdqh2.json": ("--format", "json", "eval", "gdqh2", "--n", "5",
                        "--q", "0.4", "--alpha", "0.6", "--x", "-0.9",
                        "--y", "0.6"),
    "eval_discrete_qh2.txt": ("eval", "discrete-qh2", "--n", "4", "--q", "0.5",
                              "--x", "0.7"),
    "eval_qlaguerre.txt": ("eval", "qlaguerre", "--n", "3", "--q", "0.3",
                           "--alpha", "1.2", "--x", "0.8"),
    "eval_stieltjes_wigert.txt": ("eval", "stieltjes-wigert", "--n", "3",
                                  "--q", "0.6", "--x", "0.4"),
    "eval_mu_hermite.txt": ("eval", "mu-hermite", "--n", "5", "--q", "0.5",
                            "--mu", "0.3", "--x", "0.7"),
    "eval_rosenblum_hermite.csv": ("--format", "csv", "eval",
                                   "rosenblum-hermite", "--n", "4",
                                   "--mu", "0.5", "--x", "1.3"),
    # the non-default representations of the two multi-form families
    "table_gdqh2_phi_form.txt": ("table", "gdqh2", "--rep", "phi_form",
                                 "--n-max", "4", "--q", "0.4", "--alpha", "0.6",
                                 "--x", "-0.9", "0.5", "--y", "0.6"),
    "table_qlaguerre_phi21.csv": ("--format", "csv", "table", "qlaguerre",
                                  "--rep", "phi21", "--n-max", "3", "--q", "0.3",
                                  "--alpha", "1.2", "--x", "0.8", "-1.5"),
}

# exit code per case, 0 unless listed
EXIT = {"check_gf_out_of_domain.txt": 2}


def test_check_all_on_the_default_grid_matches_its_digest(capsys):
    # all 3744 rows of DEFAULT_GRID, pinned by the digest CI checks too
    assert main(["--no-timestamp", "--format", "json", "check", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    line = (GOLDEN / "check_all_default.sha256").read_text(encoding="utf-8")
    assert line == digest + "  -\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(["--no-timestamp", *CASES[name]]) == EXIT.get(name, 0)
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
