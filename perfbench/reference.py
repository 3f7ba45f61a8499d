"""A fixed reference kernel that tracks how fast the machine runs now.

On a shared host the same Python code runs anywhere from 1x to ~1.75x
its best time, in phases from ~100 ms to tens of seconds long, and the
process CPU clock slows down with the wall clock.  No statistic over
one operation's own samples removes a slow phase that covers a whole
run.

So while the benchmark measures, a timer signal runs this kernel every
``EVERY_S``, twice, and records how long the second run took.  An
operation's host time, minus the kernel runs that interrupted it, is
scaled by ``NOMINAL_NS / kernel time``, with the kernel time averaged
over the samples taken during the operation (or the two around it, for
an operation shorter than the period).  The result is host time on a
machine where the kernel takes exactly ``NOMINAL_NS``.  The kernel does
what the interpreters in ``src/`` do most -- attribute loads, dict
reads and writes, list appends, small-int arithmetic -- and never
changes.

Only the second, warm run is timed because a cold run is slowed by what
the interrupted operation left in the caches: timed cold, the kernel
ran ~30% slower inside an operation that sweeps 16 MB, and that
operation's scaled time shrank with it.  ``test_perfbench.py`` checks
that an added cost moves the scaled rate as much as the raw one.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Scaled times are host times on a machine running the kernel in this.
NOMINAL_NS = 100_000
#: Period of the sampling timer.
EVERY_S = 0.01


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: int, a: int, b: int):
        self.op, self.a, self.b = op, a, b


_NODES = [_Node(i % 3, i % 17, (i * 7) % 13) for i in range(64)]


def kernel(n: int = 1_000) -> int:
    env: dict = {}
    acc = 0
    out: list = []
    for i in range(n):
        node = _NODES[i & 63]
        if node.op == 0:
            acc += node.a
        elif node.op == 1:
            env[node.a] = env.get(node.b, 0) + 1
        else:
            out.append(acc ^ len(env))
    return acc + len(out)


class Reference:
    """Kernel samples taken on a timer; use as a context manager."""

    def __init__(self):
        self.starts: List[int] = []
        self.samples: List[int] = []  # the timed kernel run
        self.busy: List[int] = []  # both runs, taken out of op times
        self._previous = None

    def sample(self, *_signal) -> None:
        """Run the kernel twice and time the second run.  The first run
        brings its code and data back into the caches, so the sample
        tracks the machine, not what the interrupted code left there."""
        started = time.perf_counter_ns()
        kernel()
        warm = time.perf_counter_ns()
        kernel()
        ended = time.perf_counter_ns()
        self.starts.append(started)
        self.samples.append(ended - warm)
        self.busy.append(ended - started)

    def __enter__(self) -> "Reference":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: int, end: int) -> float:
        """Reference time for the host interval ``[start, end]``, with
        the kernel runs that interrupted it taken out first."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = self.samples[first:last]
        around: Tuple[int, ...] = tuple(inside) or tuple(
            self.samples[max(first - 1, 0):first + 1])
        machine = sum(around) / len(around)
        busy = sum(self.busy[first:last])
        return (end - start - busy) * NOMINAL_NS / machine
