"""A fixed reference computation that gauges how fast the machine runs.

The benchmark runs on a shared machine whose speed swings by a quarter or
more within seconds, from load outside the benchmark's process. While a run
is active, a timer signal every ``PERIOD_S`` runs one short sample of this
computation in the main thread, between two bytecodes of whatever is running
then, so the samples fall inside the stages they gauge. A block of work (one
set-up or one iteration of the stages) is then reported as

    (wall time - time spent in samples) x NOMINAL_S / mean sample time

over the samples taken within that block: its time at the reference
machine's speed. Work and samples see the same moments, so the ratio holds
still while the machine speeds up and slows down.

The computation imports nothing from p2g, so a change to the package cannot
move it. Its mix follows the package's hot loops: tuples built and used as
dict keys, log-adds on numpy and Python floats, a sort with a key function,
and a numpy call on an array of the size of a grid frame.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# median time of one sample on the reference machine, a 2-vCPU Intel Xeon
# VM at 2.0 GHz, Python 3.11, numpy 2.4; only ratios to it matter
NOMINAL_S = 0.003
PERIOD_S = 0.025
ROUNDS = 16
WIDTH = 17
BEAM = 8


def _work() -> float:
    """A small prefix search over a fixed grid: per round, every kept prefix
    grows by every symbol, merges by log-add in a dict and is pruned after a
    sort, as the CTC beam does; plus a numpy call on the row."""
    rows = np.linspace(-6.0, -0.1, ROUNDS * WIDTH).reshape(ROUNDS, WIDTH)
    beam: dict[tuple[int, ...], float] = {(): 0.0}
    total = 0.0
    for r in range(ROUNDS):
        row = rows[r]
        total += float(np.logaddexp.reduce(row))
        grown: dict[tuple[int, ...], float] = {}
        for prefix, score in beam.items():
            for j in range(1, WIDTH):
                key = prefix[-3:] + (j,)
                value = score + row[j]
                old = grown.get(key)
                grown[key] = value if old is None else (
                    max(old, value) + math.log1p(math.exp(-abs(old - value))))
        live = sorted(grown.items(), key=lambda it: (-it[1], it[0]))
        beam = dict(live[:BEAM])
    return total + max(beam.values())


class Sampler:
    """Takes a reference sample every PERIOD_S while active (a context
    manager) and scales blocks of work by the samples inside them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._active = False
        self._busy = False
        # the handler stays installed, so a signal still pending when the
        # timer stops is dropped instead of reaching the default action
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted calls

    def _sample(self, signum, frame) -> None:
        if not self._active or self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _work()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._active = False

    def within(self, start: float, end: float) -> list[float]:
        """Durations of the samples taken between two ``perf_counter``
        readings of the main thread; a sample never straddles one."""
        return [d for s, d in self.samples if start <= s < end]

    def work(self, start: float, end: float) -> float:
        """Wall time between two readings, less the samples inside it."""
        return end - start - sum(self.within(start, end))

    def scale(self, windows: list[tuple[float, float]]) -> float:
        """NOMINAL_S over the mean sample inside the windows (all samples if
        none fell inside): the factor that takes a time measured in them to
        the reference machine's speed."""
        inside = [d for start, end in windows for d in self.within(start, end)]
        return NOMINAL_S / statistics.fmean(inside or [d for _, d in self.samples])
