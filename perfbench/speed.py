"""Host-speed probe: short fixed calibration chunks interleaved with the work.

On a shared virtual machine the speed of a core swings by up to 2x within
seconds, as neighbours load the physical core behind it.  Timing alone,
even the best of several rounds, then measures the neighbours.  A chunk is
a fixed exact elimination over ``Fraction``s, the kind of work algrest does,
and it never calls algrest.  Chunks run between pieces of the work every
few milliseconds, so they see the same host speed as the work around them,
and a time is rescaled by ``NOMINAL_CHUNK_S`` over the mean chunk time:

    normalised = (elapsed - time spent in chunks) * NOMINAL_CHUNK_S / mean chunk

The result reads as seconds on a host where a chunk takes
``NOMINAL_CHUNK_S``.  It moves with the program, because the chunk's own
work is fixed, and not with the neighbours.  Garbage collection is off
inside a chunk, so the size of the program's heap does not change its cost.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Typical time of a chunk interleaved with algrest work on the two-core
# virtual machine the benchmark was defined on (Python 3.11.7), so that
# results read close to real seconds there; it only sets their scale.
NOMINAL_CHUNK_S = 0.0025
# Real time between two chunks the timer starts during long work.
INTERVAL_S = 0.02

_SIZE = 7
_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 4) for j in range(_SIZE + 3))
    for i in range(_SIZE)
)


def _eliminate() -> int:
    """Reduced row echelon form of the fixed matrix; returns its rank."""
    rows = [list(row) for row in _MATRIX]
    rank = 0
    for col in range(_SIZE + 3):
        pivot = next((i for i in range(rank, _SIZE) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(_SIZE):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Probe:
    """Runs chunks on demand or, once started, from a real-time timer, and
    adds up their count and time."""

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0
        self._previous = None

    def chunk(self) -> float:
        """Run one chunk now; returns its time."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _eliminate()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.chunks += 1
        self.chunk_s += seconds
        return seconds

    def start(self, interval: float = INTERVAL_S) -> None:
        """Run a chunk now and then every ``interval`` seconds of real time,
        between two bytecodes of whatever the process is doing."""
        self.chunk()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.chunk())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        """Stop the timer, restore the previous handler, run a last chunk."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.chunk()

    def state(self) -> tuple[int, float]:
        return self.chunks, self.chunk_s


def normalise(elapsed: float, chunks: int, chunk_s: float) -> float:
    """Seconds at the nominal speed of ``elapsed`` seconds of real time, of
    which ``chunk_s`` went to ``chunks`` chunks."""
    return (elapsed - chunk_s) * NOMINAL_CHUNK_S * chunks / chunk_s
