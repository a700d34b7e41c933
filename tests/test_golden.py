"""Byte-level golden outputs of the CLI under --no-timestamp.

Every printed digit is pinned: a change to the order of any check's
arithmetic, its truncation or its working precision shows here.  Each file
under golden/ is the stdout of `python3 -m qhermite.cli --no-timestamp` with
the arguments listed below; rewrite one only for a deliberate change of
output.
"""

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
    "check_even_gf.txt": ("check", "even_gf", "--q", "0.4", "--alpha", "0.7",
                          "--x", "-1.1", "--y", "-0.9", "--t", "0.3"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(["--no-timestamp", *CASES[name]]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
