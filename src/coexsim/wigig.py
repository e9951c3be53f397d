"""WiGig MAC: CSMA/CA with exponential backoff, dual detection thresholds
(preamble vs. raw energy), per-frame durations from adaptive MCS, and
non-combining retransmissions.

Frame durations are whatever the payload takes at the selected rate; they are
deliberately not quantized to the NR-U symbol grid.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional

from .channel_access import Backoff
from .engine import MS, US
from .radio import Device, RadioEnvironment, db_to_lin, select_mcs
from .traffic import PacketRecord

# (decode threshold dB, PHY rate bit/s), single-carrier 802.11ad-like set.
WIGIG_MCS: list[tuple[float, float]] = [
    (1.0, 385e6), (4.0, 770e6), (7.0, 1155e6),
    (12.0, 1925e6), (17.0, 3080e6), (22.0, 4620e6),
]
WIGIG_MCS_THRESHOLDS = [thr for thr, _rate in WIGIG_MCS]  # for select_mcs

WIGIG_MCS_MARGIN_DB = 1.0  # SINR headroom of the rate choice

PREAMBLE_NS = 1900
PROBE_BYTES = 20
ACK_THRESHOLD_DB = 1.0  # decode threshold of ACKs and association frames
ASSOC_SPACING_NS = 2 * MS


@cache  # a pure function of the few (payload, rate) pairs a run sends
def frame_duration_ns(payload_bytes: int, rate_bps: float) -> int:
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    return PREAMBLE_NS + math.ceil(payload_bytes * 8 * 1e9 / rate_bps)


@dataclass(slots=True)
class WigigFrame:
    sta: "WigigSta"
    packet: PacketRecord
    mcs: int = 0
    failures: int = 0


class WigigAp(Backoff):
    """One access point: a DCF transmit queue serving its associated STAs.
    The frame in hand, `_current`, contends through the shared `Backoff`
    and awaits its ACK; the next one contends once it settles. The medium
    is busy on a same-technology preamble at `_preamble_dbm`, or on energy
    (one emission, or the sum) at `ed_threshold_lin`."""

    def __init__(self, device: Device, env: RadioEnvironment, rng) -> None:
        self.device = device
        self.env = env
        self.engine = env.engine
        self.config = config = env.config
        self.rng = rng
        self.frame_trace = env.traces.get("frames")
        self.queue: deque[WigigFrame] = deque()
        self.ed_threshold_lin = db_to_lin(config.wigig_ed_threshold_dbm)
        self.table = env.link_table(device)  # omni reception at the AP
        self._ack_due = 0  # the frame in hand's ACK timeout
        self._current: Optional[WigigFrame] = None
        self._ack_ok = False
        self.drops = 0
        self.trace = None  # no contention trace
        self._init_backoff(preamble_dbm=config.wigig_preamble_threshold_dbm)

    # -- queueing -----------------------------------------------------------

    def enqueue(self, frame: WigigFrame) -> None:
        self.queue.append(frame)
        if self._current is None:
            self._start_access()

    # -- DCF ------------------------------------------------------------------

    def _start_access(self) -> None:
        frame = self._current = self.queue.popleft()
        frame.mcs = select_mcs(WIGIG_MCS_THRESHOLDS, frame.sta.last_sinr_db, WIGIG_MCS_MARGIN_DB)
        self._start_backoff()

    def _backoff_done(self) -> None:
        self._transmit()

    def _transmit(self) -> None:
        frame = self._current
        sta = frame.sta
        end = self.engine.now + frame_duration_ns(frame.packet.size_bytes, WIGIG_MCS[frame.mcs][1])
        self.env.add_emission(sta.dl_key, end, partial(sta.receive_frame, frame))
        self._ack_ok = False
        self._ack_due = end + self.config.ack_timeout_ns

    def ack_received(self, frame: WigigFrame, measured_sinr_db: float) -> None:
        self._ack_ok = True
        frame.sta.last_sinr_db = measured_sinr_db
        self._settle(frame)

    def ack_missed(self, frame: WigigFrame) -> None:
        """The STA lost `frame` or the AP its ACK: only now arm its timeout."""
        self.engine.schedule(lambda: self._settle(frame), self._ack_due)

    def _settle(self, frame: WigigFrame) -> None:
        if self._ack_ok:
            outcome = "done"
        else:
            frame.failures += 1
            if frame.failures >= self.config.wigig_retry_limit:
                frame.packet.lost = True
                self.drops += 1
                outcome = "drop"
            else:
                self.queue.appendleft(frame)
                outcome = "retry"
        self._next_cws(outcome == "retry")
        if self.frame_trace is not None:
            self.frame_trace.append(
                (self.engine.now, self.device.id, frame.sta.device.id,
                 frame.packet.size_bytes, frame.mcs, frame.failures, outcome)
            )
        self._current = None
        if self.queue:
            self._start_access()


class WigigSta:
    """Station: gates its downlink packets on association, decodes downlink
    frames, replies with SIFS-spaced ACKs, and runs the startup association
    handshake."""

    def __init__(self, device: Device, ap: WigigAp, t0_offset: int = 0) -> None:
        self.device = device
        self.ap = ap
        self.env = ap.env
        self.config = ap.config
        self.engine = ap.engine
        self.sifs_ns = ap.config.sifs_ns
        self.ack_ns = ap.config.ack_ns
        self.table = self.env.link_table(device, ap.device)  # decodes along its beam to the AP
        self.dl_key = self.env.link_key(ap.device, device, "wigig")  # frames, probe responses
        self.ul_key = self.env.link_key(device, ap.device, "wigig")  # ACKs, probes
        self.association = "pending"  # pending | associated | failed
        self.holding: list[PacketRecord] = []
        self.last_sinr_db = 0.0
        self._assoc_tries = 0
        self._busy_waits = 0
        self._t0 = t0_offset

    def start(self) -> None:
        env = self.env
        self.last_sinr_db = env.aligned_rx_power_dbm(self.ap.device, self.device) - env.noise_dbm
        self.engine.schedule(self._associate_attempt, self._t0)

    # -- data path ------------------------------------------------------------

    def offer_packet(self, pkt: PacketRecord) -> None:
        """Queue a downlink packet at the AP once associated; hold it while
        association is pending, and lose it if association failed."""
        if self.association == "failed":
            pkt.lost = True
        elif self.association == "pending":
            self.holding.append(pkt)
        else:
            self.ap.enqueue(WigigFrame(self, pkt))

    def receive_frame(self, frame: WigigFrame, cap) -> None:
        sinr = self.env.effective_sinr_db(cap, self.table)
        if sinr < WIGIG_MCS[frame.mcs][0]:
            self.ap.ack_missed(frame)  # undecodable
            return
        engine = self.engine
        frame.packet.credit(frame.packet.size_bytes, engine.now)  # the frame's end
        engine.schedule(lambda: self._send_ack(frame, sinr), engine.now + self.sifs_ns)

    def _send_ack(self, frame: WigigFrame, measured_sinr_db: float) -> None:
        end = self.engine.now + self.ack_ns
        at_end = partial(self._deliver_ack, frame, measured_sinr_db)
        self.env.add_emission(self.ul_key, end, at_end)

    def _deliver_ack(self, frame: WigigFrame, measured_sinr_db: float, cap) -> None:
        # Quasi-omnidirectional reception at the AP in the uplink.
        sinr = self.env.effective_sinr_db(cap, self.ap.table)
        if sinr >= ACK_THRESHOLD_DB:
            self.ap.ack_received(frame, measured_sinr_db)
        else:
            self.ap.ack_missed(frame)

    # -- association ------------------------------------------------------------

    def medium_busy(self) -> bool:
        """The AP's sensing rule (`_sense_entry`, `ed_threshold_lin`), omni at
        this STA: busy iff the eid-order sum of the entries on the air, which
        never drops as it runs, reaches the threshold."""
        ap, table = self.ap, self.env.link_table(self.device)
        total = 0.0
        for em in self.env.active.values():
            total += ap._sense_entry(table, em)
            if total >= ap.ed_threshold_lin:
                return True
        return False

    def _associate_attempt(self) -> None:
        if self.medium_busy():
            # Busy medium: poll again shortly; count a missed attempt only
            # after the attempt window (half the spacing) is exhausted.
            self._busy_waits += 1
            if self._busy_waits * 100 * US >= ASSOC_SPACING_NS // 2:
                self._busy_waits = 0
                self._attempt_failed()
            else:
                self.engine.schedule(self._associate_attempt, self.engine.now + 100 * US)
            return
        self._busy_waits = 0
        engine = self.engine  # the AP answers a heard probe SIFS later
        self._probe(self.ul_key, self.ap.table,
                    lambda: engine.schedule(self._probe_response, engine.now + self.sifs_ns))

    def _probe_response(self) -> None:
        self._probe(self.dl_key, self.table, partial(self._end_association, "associated"))

    def _probe(self, key: int, table, heard) -> None:
        """Send one association frame on link `key` at the floor rate; at its
        end, `heard()` if it decodes at `table`, else the attempt fails."""
        end = self.engine.now + frame_duration_ns(PROBE_BYTES, WIGIG_MCS[0][1])
        self.env.add_emission(key, end, partial(self._probe_end, table, heard))

    def _probe_end(self, table, heard, cap) -> None:
        if self.env.effective_sinr_db(cap, table) < ACK_THRESHOLD_DB:
            self._attempt_failed()
        else:
            heard()

    def _attempt_failed(self) -> None:
        self._assoc_tries += 1
        if self._assoc_tries >= self.config.assoc_attempts:
            self._end_association("failed")
        else:
            self.engine.schedule(self._associate_attempt, self.engine.now + ASSOC_SPACING_NS)

    def _end_association(self, outcome: str) -> None:
        """Settle the handshake, then offer the held packets again."""
        self.association = outcome
        held, self.holding = self.holding, []
        for pkt in held:
            self.offer_packet(pkt)
