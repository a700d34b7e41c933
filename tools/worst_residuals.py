"""Print the worst relative residual per identity of `check all` on the
default grid: the record a speed claim is checked against.

    python tools/worst_residuals.py [SRC]

SRC, the directory that holds the qhermite package, defaults to src/.
Runs `run_identity_suite` on `DEFAULT_GRID` at the CLI's 50 digits and
prints one line per identity id, in the suite's order: the id, its worst
relative residual (three significant digits), the row count and the
parameters of the worst row.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, str(Path(argv[1] if len(argv) > 1 else "src").resolve()))
    from mpmath import mp

    from qhermite.identities import IDENTITY_IDS, run_identity_suite
    from qhermite.scalars import fmt_scalar

    with mp.workdps(50):
        reports = [r for r in run_identity_suite() if r.error is None]
    for ident in IDENTITY_IDS:
        rows = [r for r in reports if r.identity_id == ident]
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
