"""How fast the shared host runs interpreted code, sampled during a sweep.

On a shared virtual machine (2 vCPUs, measured with this module) the
speed of one process changes every ~100 ms and drifts by up to 1.6x
over minutes, and the two vCPUs drift independently, so the same
sweep's wall time spreads 15-25% between runs.  A
:class:`SpeedSampler` runs a small fixed slice of pure-Python work
(:func:`reference_work`) from a ``SIGALRM`` handler every
:data:`PERIOD_S` while a sweep runs, in the sweep's own thread, and
records how long each slice took.  A sweep's time divided by the mean
slice time is its cost in slices, which cancels most of the drift.

The slices use none of the simulator's code, so making the simulator
faster does not make them faster; they touch none of its state, so the
sweep computes the same tables with or without them.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Seconds between slices.
PERIOD_S = 0.1
#: Loop rounds of one slice (about a millisecond of work).
SLICE_ROUNDS = 600


class _Node:
    __slots__ = ("key", "prev", "next", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.prev = self
        self.next = self
        self.hits = 0


def reference_work(rounds: int = SLICE_ROUNDS) -> int:
    """Event-loop-shaped work: a heap of timers, a dict index, a
    circular list that nodes move to the tail of, and small calls --
    the operations the simulator spends its time on.  Returns a
    checksum so the work cannot be skipped."""
    head = _Node(-1)
    index: dict[int, _Node] = {}
    heap: list[tuple] = []
    state = 12345
    checksum = 0
    for seq in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 4096
        node = index.get(key)
        if node is None:
            node = index[key] = _Node(key)
        else:
            node.prev.next = node.next
            node.next.prev = node.prev
        node.hits += 1
        last = head.prev
        node.prev = last
        node.next = head
        last.next = node
        head.prev = node
        heapq.heappush(heap, (state % 1000, seq, key))
        if len(heap) > 64:
            checksum += heapq.heappop(heap)[2]
    return checksum + len(index)


class SpeedSampler:
    """Times one :func:`reference_work` slice every :data:`PERIOD_S`
    of wall time, from a ``SIGALRM`` handler, between ``start()`` and
    ``stop()``."""

    def __init__(self) -> None:
        #: Host seconds of each slice.
        self.slices: list[float] = []
        self._armed = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.slices.append(time.perf_counter() - t0)

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._armed = True
        return self

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler (a second
        call does nothing)."""
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._armed = False

    @property
    def spent_s(self) -> float:
        """Host seconds spent in slices (part of the sweep's wall)."""
        return sum(self.slices)

    @property
    def slice_s(self) -> float:
        """Mean host seconds of one slice: the host's speed over the
        sweep."""
        return self.spent_s / len(self.slices)
