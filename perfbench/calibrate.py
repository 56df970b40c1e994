"""Fixed pure-Python work that measures the host's current speed: `python3 calibrate.py`.

Counts the 1,619,790 cells of Hom(C_10, C_2^5) with the benchmark's own
`workloads.cell_count`, which walks multiset words with generators, tuples
and integer arithmetic, like the program does.  The work never changes, so
its time changes only with the speed of the host.  Exits 1 if the count is
wrong.
"""

from __future__ import annotations

import sys

from workloads import cell_count

SPEC = (2, 2, 2, 2, 2)
CELLS = 1619790


def main():
    got = cell_count(SPEC)
    if got != CELLS:
        print(f"calibration counted {got} cells, want {CELLS}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
