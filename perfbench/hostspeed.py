"""Host speed probe: a fixed piece of pure-Python work, timed between ops.

The benchmark runs on a few cores of a shared host.  Other tenants slow the
whole machine by a third or more for seconds to minutes at a time, and that
drift is wider than any bound a regression check could use.  So the runner
times this reference routine (sparse elimination of a fixed matrix over
``fractions.Fraction``, the kind of work the program does, but none of its
code) just before and just after every op, and reports the op's time scaled
by

    REFERENCE_S / reference time around the op,

that is, the op's time on a host where the routine takes REFERENCE_S.  The
routine never changes, so the scale does not depend on the program under
test: a slower program reads slower, a busier host does not.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The routine's quickest time on a quiet moment of the host the benchmark was
# written on: a 2-vCPU KVM guest on an Intel Xeon (family 6, model 207),
# with CPython 3.11.7.  Scaled times read as seconds on that host, quiet.
REFERENCE_S = 0.003
_N = 22  # rows and columns
_PER_ROW = 5  # nonzeros per row before elimination


def _matrix() -> "list[dict[int, Fraction]]":
    """A fixed sparse matrix from a linear congruential sequence."""
    x = 12345
    rows = []
    for _ in range(_N):
        row: dict = {}
        for _ in range(_PER_ROW):
            x = (1103515245 * x + 12345) % 2**31
            row[x % _N] = Fraction(1 + x % 7, 1 + (x >> 8) % 5)
        rows.append(row)
    return rows


_MATRIX = _matrix()


def reference_work() -> int:
    """Row-reduce the fixed matrix over dict rows; returns the rank."""
    pivots: dict = {}
    for source in _MATRIX:
        row = dict(source)
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            coeff = row[col]
            for k, v in pivots[col].items():
                val = row.get(k, 0) - coeff * v
                if val:
                    row[k] = val
                else:
                    row.pop(k, None)
    return len(pivots)


class HostSpeed:
    """Times the reference routine; keeps the time of every probe."""

    def __init__(self, reps: int = 5):
        self.reps = reps
        self.probes: "list[float]" = []

    def probe(self) -> float:
        """Median time of ``reps`` runs of the reference routine, now."""
        times = []
        for _ in range(self.reps):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        self.probes.append(statistics.median(times))
        return self.probes[-1]


def scaled(seconds: float, around: float) -> float:
    """An op's time on the reference host, given the reference time around it."""
    return seconds * REFERENCE_S / around
