"""Deterministic discrete-event engine with integer-nanosecond clock.

All durations in the simulator are integer nanoseconds so that slot/symbol
arithmetic (5 us CCA slots, 8.92 us OFDM symbols, 9 ms COTs) stays exact.
"""
from __future__ import annotations

import gc
import random
from heapq import heappop, heappush
from typing import Callable

# Time unit helpers (nanoseconds).
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


class SchedulingInPastError(RuntimeError):
    """An event was scheduled before the current virtual clock."""


class Engine:
    """Single-threaded event loop.

    Events at equal due times execute in insertion order (the monotonically
    increasing sequence number breaks ties), so a run is fully reproducible.
    The heap entry ``[due, seq, callback]`` is the event's handle: cancelling
    or firing clears the callback, and a cleared entry is skipped when popped.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        self._seq = 0

    def schedule(self, callback: Callable[[], None], due: int) -> list:
        if due < self.now:
            raise SchedulingInPastError(f"due={due} is before clock={self.now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [due, seq, callback]
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> bool:
        """Drop a pending event; False if it already fired or was cancelled."""
        pending = handle[2] is not None
        handle[2] = None
        return pending

    def run_until(self, t_end: int) -> int:
        """Execute every event due at or before t_end; clock ends at t_end.
        The cyclic garbage collector is off meanwhile, then as it was before."""
        executed = 0
        heap = self._heap
        pop = heappop
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap and heap[0][0] <= t_end:
                entry = pop(heap)
                action = entry[2]
                if action is None:
                    continue  # cancelled
                entry[2] = None
                self.now = entry[0]
                action()
                executed += 1
        finally:
            if gc_was_enabled:
                gc.enable()
        if t_end > self.now:
            self.now = t_end
        return executed


class RngStreams:
    """Named, mutually independent random streams for one run.

    A stream is keyed by (component label, device id) and seeded from the
    campaign seed plus the key string, so adding a device never perturbs the
    draws seen by any other device. String seeding of ``random.Random`` goes
    through SHA-512 and is stable across platforms and processes. Each call
    starts the key's stream afresh, so a run asks for each key once.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def stream(self, component: str, device: object = "") -> random.Random:
        return random.Random(f"{self.seed}/{component}/{device}")
