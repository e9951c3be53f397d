"""Deterministic discrete-event engine with integer-nanosecond clock.

All durations in the simulator are integer nanoseconds so that slot/symbol
arithmetic (5 us CCA slots, 8.92 us OFDM symbols, 9 ms COTs) stays exact.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

# Time unit helpers (nanoseconds).
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class SchedulingInPastError(RuntimeError):
    """An event was scheduled before the current virtual clock."""


@dataclass(frozen=True)
class EventHandle:
    due: int
    sequence: int


class Engine:
    """Single-threaded event loop.

    Events at equal due times execute in insertion order (the monotonically
    increasing sequence number breaks ties), so a run is fully reproducible.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int]] = []
        self._actions: dict[int, Callable[[], None]] = {}  # by sequence number
        self._seq = 0
        self.executed = 0

    def schedule(self, callback: Callable[[], None], due: int) -> EventHandle:
        if due < self.now:
            raise SchedulingInPastError(f"due={due} is before clock={self.now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (due, seq))
        self._actions[seq] = callback
        return EventHandle(due, seq)

    def schedule_in(self, callback: Callable[[], None], delay: int) -> EventHandle:
        return self.schedule(callback, self.now + delay)

    def cancel(self, handle: EventHandle) -> bool:
        """Remove a pending event; False if it already fired or was cancelled."""
        return self._actions.pop(handle.sequence, None) is not None

    def run_until(self, t_end: int) -> int:
        """Execute every event due at or before t_end; clock ends at t_end."""
        executed = 0
        heap = self._heap
        actions = self._actions
        while heap and heap[0][0] <= t_end:
            due, seq = heapq.heappop(heap)
            action = actions.pop(seq, None)
            if action is None:
                continue  # cancelled
            self.now = due
            action()
            executed += 1
        if t_end > self.now:
            self.now = t_end
        self.executed += executed
        return executed


class RngStreams:
    """Named, mutually independent random streams for one run.

    A stream is keyed by (component label, device id) and seeded from the
    campaign seed plus the key string, so adding a device never perturbs the
    draws seen by any other device. String seeding of ``random.Random`` goes
    through SHA-512 and is stable across platforms and processes.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: dict[tuple[str, str], random.Random] = {}

    def stream(self, component: str, device: object = "") -> random.Random:
        key = (component, str(device))
        if key not in self._streams:
            self._streams[key] = random.Random(f"{self.seed}/{key[0]}/{key[1]}")
        return self._streams[key]
