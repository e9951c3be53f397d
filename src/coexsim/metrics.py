"""Figures of merit: channel occupancy, end-to-end latency, goodput.

Occupancy is tracked as a per-operator union of emission intervals, so
simultaneous emissions by devices of one operator count once.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .engine import SEC
from .traffic import CbrFlow


class OccupancyLedger:
    """Per-key sorted union of half-open [start, end) intervals, in start order."""

    def __init__(self) -> None:
        self._intervals: dict[str, list[tuple[int, int]]] = {}

    def record(self, key: str, start: int, end: int) -> None:
        """Add [start, end); a start before `key`'s last one: ValueError."""
        if end <= start:
            raise ValueError("interval end must exceed start")
        ivs = self._intervals.get(key)
        if ivs is None:
            self._intervals[key] = [(start, end)]
            return
        last_start, last_end = ivs[-1]
        if start < last_start:
            raise ValueError(f"{key}: start {start} before the last recorded start {last_start}")
        if last_end < start:
            ivs.append((start, end))
        elif last_end < end:
            ivs[-1] = (last_start, end)

    def occupied_within(self, key: str, w_start: int, w_end: int) -> int:
        """Occupied time clipped to [w_start, w_end): the intervals that end
        after `w_start` and start before `w_end`, found by bisection (they
        are disjoint, so ends ascend with starts), summed, then cut at the
        window's two ends."""
        ivs = self._intervals.get(key, [])
        lo = bisect_right(ivs, w_start, key=itemgetter(1))
        hi = bisect_left(ivs, w_end, lo, key=itemgetter(0))
        if lo >= hi or w_end <= w_start:
            return 0
        inner = ivs[lo:hi]
        total = sum(map(itemgetter(1), inner)) - sum(map(itemgetter(0), inner))
        return total - max(0, w_start - inner[0][0]) - max(0, inner[-1][1] - w_end)


@dataclass(frozen=True)
class BoxStats:
    min: float
    p5: float
    p50: float
    p95: float
    max: float


def _rank(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample."""
    n = len(sorted_samples)
    idx = max(1, math.ceil(q * n))
    return sorted_samples[min(idx, n) - 1]


def box_stats(samples: Iterable[float]) -> BoxStats:
    data = sorted(samples)
    if not data:
        raise ValueError("box_stats needs at least one sample")
    return BoxStats(data[0], _rank(data, 0.05), _rank(data, 0.50), _rank(data, 0.95), data[-1])


def latency_samples_ns(flows: Iterable[CbrFlow]) -> dict[str, list[int]]:
    """Delivered-packet delays per destination device; losses excluded."""
    out: dict[str, list[int]] = {}
    for flow in flows:
        dest = out.setdefault(flow.destination, [])
        for pkt in flow.records:
            if pkt.delivered:
                dest.append(pkt.delivered_at - pkt.created_at)
    return out


def goodput_per_device_bps(flows: Iterable[CbrFlow], t_end: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for flow in flows:
        delivered_bits = sum(p.size_bytes * 8 for p in flow.records if p.delivered)
        out[flow.destination] = out.get(flow.destination, 0.0) + delivered_bits * SEC / t_end
    return out


def packet_conservation(flow: CbrFlow) -> tuple[int, int, int, int]:
    """(generated, delivered, lost, in_flight) for one flow."""
    generated = len(flow.records)
    delivered = sum(1 for p in flow.records if p.delivered)
    lost = sum(1 for p in flow.records if p.lost and not p.delivered)
    return generated, delivered, lost, generated - delivered - lost
