"""The machine's pace, timed between operations.

The machine the bounds were set on changes speed by up to a factor of 1.7
within seconds, and by as much again over longer stretches: it shares its
cores with other machines, and its CPU time follows its wall time, so
neither clock removes the drift.  A run therefore times a slice of fixed
work, made of the benchmark's own code and never the package's, every
``EVERY`` seconds between operations, and scales the time of every operation
by ``REFERENCE`` over the median of the slices timed from ``WINDOW`` seconds
before it started to ``WINDOW`` seconds after it ended (over the median of
all the run's slices when the operation is longer than ``WINDOW``).  One
slice is too short to tell the pace (back-to-back slices differ by up to a
factor of 1.8); the forty or so in a window are not.  Scaled times read as
times on a machine that runs one slice in ``REFERENCE`` seconds, and a
change to the package cannot move the slice.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

import gen
import reference

EVERY = 0.05            # seconds between slices
WINDOW = 1.0
# one slice on the machine the README names, at a quiet moment
REFERENCE = 0.0010

_rng = random.Random(0)
_NODES = [f"n{i}" for i in range(40)]
_EDGES = [(_NODES[a], _NODES[b]) for a, b in gen.sparse(_rng, 40, 44)]
_FORMULA = gen.gen_formula(_rng, ("x", "y", "z"), 12)
_PREMISES = ((("a", "b"), ("c", "d")), (("c",), ("e",)), (("d", "e"), ("a", "b")))
_GOAL = (("b", "a"), ("e", "c"))


def work() -> None:
    """The fixed work of one slice: graph pruning, a cycle test, a chain
    search and a formula's cost and text, on fixed inputs."""
    for _ in range(8):
        reference.infinite_walk_nodes(_NODES, _EDGES)
        reference.has_cycle(_NODES, _EDGES)
        reference.chain_derivable(_PREMISES, _GOAL)
        for _ in range(4):
            gen.naive_cost(_FORMULA, 6, 3)
            gen.formula_text(_FORMULA)


class Pace:
    """Slices between operations, and the scale of each operation's time."""

    def __init__(self):
        self.at: list[float] = []       # when each slice ended
        self.took: list[float] = []     # how long it took
        self.due = 0.0

    def after(self, force: bool = False) -> None:
        """Time a slice if one is due, or ``force``; call between operations."""
        if force or time.perf_counter() >= self.due:
            # a collection the slice's allocations set off would be charged
            # to the slice; with the collector off it falls in the next
            # operation, where it would have happened without the slices
            gc.disable()
            start = time.perf_counter()
            work()
            end = time.perf_counter()
            gc.enable()
            self.at.append(end)
            self.took.append(end - start)
            self.due = end + EVERY

    def median(self) -> float:
        return statistics.median(self.took)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE over the median slice around ``[start, end]``, or over
        the run's median slice for an operation longer than WINDOW: slices
        sample the pace only between operations, and the pace at the edges
        of a long one says little about the pace through it."""
        if end - start > WINDOW:
            return REFERENCE / self.median()
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        if hi - lo < 2:     # a window holds at least the slices either side
            lo = max(0, bisect.bisect_left(self.at, start) - 1)
            hi = min(len(self.at), bisect.bisect_right(self.at, end) + 1)
        return REFERENCE / statistics.median(self.took[lo:hi])
