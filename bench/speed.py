"""Machine-speed probe, interleaved with the workload.

On a shared machine the speed one process gets drifts: a fixed pure-Python
loop, timed back to back for 90 s on a shared 2-core machine, ranged over
+-19% between 10-second blocks, and two runs of the same benchmark input
differed by 24% in wall time.  That drift swamps the differences the benchmark is
meant to show.  So every round runs a fixed probe (about 20 ms) before an
operation when the last probe is a quarter second old, and after every
operation longer than that.  Each time is reported multiplied by
``REFERENCE_S / probe time``, the probe time being the mean of the probes
taken within about a second of the operation: seconds at the speed at which
one probe takes ``REFERENCE_S``.  (Slowdowns of an operation and of the
probes next to it correlated at 0.68, and normalising halved the spread of
one round's total between repeats.)  The probe is code of its own, so a
change to dagclust moves the workload's time and not the probe's.
"""

from __future__ import annotations

import gc
import statistics
import time

now = time.perf_counter

# About the median probe time on the shared 2-core machine the benchmark
# was written on.
REFERENCE_S = 0.02
EVERY_S = 0.25
NEIGHBOURS = 3  # probes on each side of an operation that set its speed


def probe_work() -> int:
    """Dict, frozenset, sort and tuple work, like the engine's inner loops."""
    acc = 0
    table: dict[int, frozenset[int]] = {}
    for i in range(6000):
        base = frozenset(range(i % 7, i % 7 + 6))
        table[i % 61] = base | {i % 13, i % 17}
        acc += len(sorted(table[i % 61])) + len(tuple(x for x in base if x & 1))
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self) -> None:
        # With the collector off the probe does not pay for collecting the
        # workload's garbage, which would tie its time to the previous op.
        gc.disable()
        try:
            t = now()
            probe_work()
            end = now()
        finally:
            gc.enable()
        self.samples.append(end - t)
        self.spent += end - t
        self._due = end + EVERY_S

    def before_op(self) -> int:
        """Sample if due; return the index of the sample preceding the op."""
        if now() >= self._due:
            self.sample()
        return len(self.samples) - 1

    def after_op(self, seconds: float) -> None:
        if seconds >= EVERY_S:
            self.sample()

    def scale_at(self, i: int) -> float:
        """Factor from measured to reference-speed seconds for an op that
        ran between sample ``i`` and the next one."""
        near = self.samples[max(0, i - NEIGHBOURS + 1) : i + 1 + NEIGHBOURS]
        return REFERENCE_S / statistics.fmean(near)

    def scale(self) -> float:
        """Factor for work spread over the probe's whole life."""
        return REFERENCE_S / statistics.fmean(self.samples)
