"""Print the worst relative residual per identity of `check all` on the
default grid, and of the orthogonality sweep on three cells: the record a
speed claim is checked against.

    python tools/worst_residuals.py [SRC]

SRC, the directory that holds the qhermite package, defaults to src/.
Runs `run_identity_suite` on `DEFAULT_GRID` at the CLI's 50 digits and
prints one line per identity id, in the suite's order: the id, its worst
relative residual (three significant digits), the row count and the
parameters of the worst row.  Then, at the same digits, `orthogonality_gram`
on the sweep cells that CI times (n = 5, q = 0.5, alpha = 0; n = 10,
q = 0.25, alpha = 1.2; n = 3, q = 0.9, alpha = 0.5) gives two more lines,
the worst diagonal pair and the worst off-diagonal pair, in the same form.
"""

from __future__ import annotations

import sys
from pathlib import Path


# (n_max, q, alpha) of the orthogonality sweeps that CI times
SWEEP_CELLS = ((5, "0.5", "0"), (10, "0.25", "1.2"), (3, "0.9", "0.5"))


def main(argv) -> int:
    sys.path.insert(0, str(Path(argv[1] if len(argv) > 1 else "src").resolve()))
    from mpmath import mp, mpf

    from qhermite.identities import IDENTITY_IDS, run_identity_suite
    from qhermite.qcore import QParams
    from qhermite.quadrature import orthogonality_gram
    from qhermite.scalars import fmt_scalar

    with mp.workdps(50):
        reports = [r for r in run_identity_suite() if r.error is None]
        sweep = [r for n, q, alpha in SWEEP_CELLS for r in orthogonality_gram(
            n, QParams(mpf(q), mpf(alpha)))]
    groups = [(ident, [r for r in reports if r.identity_id == ident])
              for ident in IDENTITY_IDS]
    groups += [("orthogonality_diagonal",
                [r for r in sweep if r.params["n"] == r.params["m"]]),
               ("orthogonality_off_diag",
                [r for r in sweep if r.params["n"] != r.params["m"]])]
    for ident, rows in groups:
        if not rows:
            continue
        worst = max(rows, key=lambda r: r.rel_residual)
        cell = " ".join("%s=%s" % (k, fmt_scalar(v, 3))
                        for k, v in sorted(worst.params.items()))
        print("%-24s %s  %4d rows  %s" % (ident, fmt_scalar(
            worst.rel_residual, 3), len(rows), cell))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
