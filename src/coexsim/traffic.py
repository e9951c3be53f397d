"""Open-loop CBR traffic sources and per-packet bookkeeping."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import SEC, Engine


@dataclass(slots=True, eq=False)
class PacketRecord:
    """One packet: its size, its creation time and its fate. Packets compare
    by identity, so equal ones created at one instant stay distinct."""
    size_bytes: int
    created_at: int
    delivered_at: Optional[int] = None
    delivered_bytes: int = 0  # NR-U segments packets across transport blocks
    lost: bool = False

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    def credit(self, n_bytes: int, t: int) -> None:
        """Mark n_bytes of this packet delivered; completes the packet when
        the cumulative count reaches its size."""
        self.delivered_bytes += n_bytes
        if self.delivered_bytes >= self.size_bytes and self.delivered_at is None:
            self.delivered_at = t


def interarrival_ns(packet_bytes: int, rate_bps: float) -> int:
    """Packet spacing of a CBR flow, rounded to the integer-nanosecond grid;
    exactly 240 us at the 1500 B / 50 Mbps defaults."""
    return round(packet_bytes * 8 * SEC / rate_bps)


class CbrFlow:
    """Constant-bit-rate source: its `sink` and the `records` of the packets
    that `CbrArrivals` makes for it, one every spacing of the run."""

    def __init__(
        self,
        flow_id: str,
        destination: str,
        packet_bytes: int,
        sink: Callable[[PacketRecord], None],
    ) -> None:
        self.flow_id = flow_id
        self.destination = destination
        self.packet_bytes = packet_bytes
        self.sink = sink
        self.records: list[PacketRecord] = []


class CbrArrivals:
    """Drives flows that share one spacing: one event per arrival instant makes,
    records and sinks each flow's packet, in flow order, as one event per flow
    would unless a sink schedules an event exactly one spacing ahead."""

    def __init__(self, engine: Engine, flows: list[CbrFlow], spacing_ns: int, t_end: int) -> None:
        self.engine = engine
        self.flows = flows
        self.spacing_ns = spacing_ns
        self.t_end = t_end

    def start(self) -> None:
        self.engine.schedule(self._arrive, 0)

    def _arrive(self) -> None:
        now = self.engine.now
        for flow in self.flows:
            pkt = PacketRecord(flow.packet_bytes, now)
            flow.records.append(pkt)
            flow.sink(pkt)
        nxt = now + self.spacing_ns
        if nxt < self.t_end:
            self.engine.schedule(self._arrive, nxt)
