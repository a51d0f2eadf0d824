"""Host-speed meter: a fixed pure-Python kernel run in a loop beside the passes.

    python3 -I perfbench/meter.py [NICE]

On a shared host the speed of a CPU changes by up to 2x within seconds, CPU
time moves with it, and the two CPUs of a 2-core VM change independently.
So ``run.host_meter`` pins the meter and every pass to the same CPU, where
the scheduler gives them shares fixed by their nice values.  The meter records the monotonic time
at which each tick of its kernel ends, and a pass's time is reported as the
number of ticks during it: the pass's work in units of the meter's, the same
whether the CPU is fast, slow or busy with a third process.

The kernel imports nothing from contactcheck and its inputs never change, so
its rate moves only with the host.  It does the kind of work the library
does: exact Fraction elimination (big-int gcds, small-object churn) and a
sparse polynomial product in a dict keyed by exponent tuples.

Protocol: the meter raises its nice value by NICE (default 0), writes one byte when it starts ticking, then ticks until
its stdin is closed or has data, then writes the tick times as native doubles
(``array('d')``) and exits.
"""

from __future__ import annotations

import os
import select
import sys
import time
from array import array
from fractions import Fraction
from typing import List


def _eliminate(size: int) -> Fraction:
    rows = [
        [Fraction((i * 7 + j * 13) % 17 - 8, (i + 2 * j) % 5 + 1) for j in range(size)]
        for i in range(size)
    ]
    for i in range(size):
        rows[i][i] += size
    det = Fraction(1)
    for col in range(size):
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _poly_square(vars_: int) -> int:
    base = {tuple(int(k == v) for k in range(vars_)): Fraction(v + 1, v + 2) for v in range(vars_)}
    base[(0,) * vars_] = Fraction(-1, 3)
    out: dict = {}
    for ea, ca in base.items():
        for eb, cb in base.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


def tick() -> None:
    """One unit of work, about 1.5 ms on a 2-core x86-64 VM with Python 3.11."""
    _eliminate(7)
    _poly_square(4)


def main(argv: List[str]) -> int:
    if argv:
        os.nice(int(argv[0]))
    ticks = array("d")
    tick()
    sys.stdout.buffer.write(b".")
    sys.stdout.buffer.flush()
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], 0)[0]:
        tick()
        ticks.append(time.monotonic())
    sys.stdout.buffer.write(ticks.tobytes())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
