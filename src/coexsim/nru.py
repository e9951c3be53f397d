"""NR-U slotted MAC: TDMA beam-based symbol allocation, MAC-ahead scheduling
with LBT performed after the allocation is built, adaptive MCS, and HARQ with
Chase combining.

Downlink data only; uplink carries one-symbol HARQ feedback emissions subject
to the UE's own channel access manager.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .channel_access import Cam
from .config import ConfigError
from .radio import Device, RadioEnvironment, db_to_lin, lin_to_db, select_mcs
from .traffic import PacketRecord

# 120 kHz subcarrier spacing: 8.92 us symbols, 14 per slot. The slot is taken
# as exactly 14 symbols (124.88 us) so whole-symbol occupancy stays exact in
# the integer nanosecond time base.
SYMBOL_NS = 8920
SYMBOLS_PER_SLOT = 14
SLOT_NS = SYMBOL_NS * SYMBOLS_PER_SLOT

# HARQ feedback timing, fixed by the model rather than by a config key.
FB_DELAY_SLOTS = 4
FB_BATCH_SLOTS = 4  # feedback slots land on this grid, merging batches
FB_GAP_SYMBOLS = 3  # Cat2's 25 us deferral fits in 3 empty symbols
FB_DECODE_THRESHOLD_DB = -2.0

# (decode threshold dB, spectral efficiency bit/s/Hz), QPSK-low to 64QAM-high.
MCS_TABLE: list[tuple[float, float]] = [
    (-2.0, 0.2), (0.0, 0.5), (2.0, 0.8), (4.0, 1.2), (7.0, 1.7), (10.0, 2.3),
    (13.0, 3.0), (16.0, 3.6), (19.0, 4.2), (22.0, 4.7), (25.0, 5.1), (28.0, 5.5),
]
MCS_THRESHOLDS = [thr for thr, _se in MCS_TABLE]  # for select_mcs


def symbol_capacity_bytes(se: float, bandwidth_hz: float, overhead: float) -> int:
    return int(se * bandwidth_hz * overhead * SYMBOL_NS * 1e-9 / 8)


@dataclass(slots=True, eq=False)
class TransportBlock:
    """One HARQ process: its packet segments, its MCS and symbols, and the
    linear SINR its copies have Chase-combined since it was last decoded."""
    pid: int
    ue: "NruUe"
    total_bytes: int
    segments: list[tuple[PacketRecord, int]]
    mcs: int
    n_symbols: int
    tx_count: int = 0
    cot_id: int = -1
    acc_sinr_lin: float = 0.0

    def air(self) -> None:
        """A copy's start event, set up by `NruGnb._commit`: on the air for `n_symbols`."""
        gnb = self.ue.gnb
        gnb._air_tb(self.ue, self, gnb.engine.now + self.n_symbols * SYMBOL_NS)


class NruUe:
    """One UE, in `gnb.ues` from when it is built: its downlink queue at the
    gNB (only it takes bytes from it and returns them), its link adaptation
    state, and the receiver side: decode each block on its combined SINR, keep
    each answer pending until its feedback symbol, and mark a dropped block's
    packets lost."""

    def __init__(self, device: Device, cam: Cam, gnb: "NruGnb") -> None:
        self.device = device
        self.cam = cam
        self.gnb = gnb
        self.fb_pending: dict[int, tuple[bool, float]] = {}
        self.fb_pids: list[int] = []  # the pids its next feedback symbol answers
        env = gnb.env  # the SINR is interference-free until the first feedback
        self.last_sinr_db = env.aligned_rx_power_dbm(gnb.device, device) - env.noise_dbm
        self.table = env.link_table(device, gnb.device)  # decodes along its beam to the gNB
        self.fb_table = env.link_table(gnb.device, device)  # the gNB's, beamed at this UE
        self.dl_key = env.link_key(gnb.device, device, "nru")  # its blocks
        self.ul_key = env.link_key(device, gnb.device, "nru")  # its feedback
        self.buffer: deque[list] = deque()  # [pkt, bytes not yet taken]
        self.buffered_bytes = 0
        # (SINR, its MCS index, bytes per symbol); recomputed when the SINR changes
        self.adapted: Optional[tuple[float, int, int]] = None
        gnb.ues.append(self)

    def offer_packet(self, pkt: PacketRecord) -> None:
        self.buffer.append([pkt, pkt.size_bytes])
        self.buffered_bytes += pkt.size_bytes

    def take_bytes(self, n_bytes: int) -> list[tuple[PacketRecord, int]]:
        """Take up to `n_bytes` from the queue head, as (packet, bytes) segments."""
        buf = self.buffer
        segments: list[tuple[PacketRecord, int]] = []
        left = n_bytes
        while left > 0 and buf:
            pkt, remaining = buf[0]
            take = min(left, remaining)
            segments.append((pkt, take))
            if take == remaining:
                buf.popleft()
            else:
                buf[0][1] -= take
            left -= take
        self.buffered_bytes -= n_bytes - left
        return segments

    def return_segments(self, tb: TransportBlock) -> None:
        """Put an unsent block's segments back at the queue head, in order."""
        buf = self.buffer
        for pkt, n_bytes in reversed(tb.segments):
            if buf and buf[0][0] is pkt:
                buf[0][1] += n_bytes
            else:
                buf.appendleft([pkt, n_bytes])
        self.buffered_bytes += tb.total_bytes

    def receive_tb(self, cap) -> None:
        tb = cap.payload
        env = self.gnb.env
        sinr_db = env.effective_sinr_db(cap, self.table)
        tb.acc_sinr_lin += db_to_lin(sinr_db)
        ack = lin_to_db(tb.acc_sinr_lin) >= MCS_TABLE[tb.mcs][0]
        if ack:
            now = self.gnb.engine.now
            for pkt, n_bytes in tb.segments:
                pkt.credit(n_bytes, now)
            tb.acc_sinr_lin = 0.0  # a copy sent again after lost feedback combines afresh
        self.fb_pending[tb.pid] = (ack, sinr_db)

    def drop_process(self, tb: TransportBlock) -> None:
        for pkt, _n in tb.segments:
            pkt.lost = True

    def send_feedback(self) -> None:
        """Attempt the one-symbol uplink feedback emission for `fb_pids` at the
        reserved symbol; a failed CAM attempt drops the feedback (gNB times out)."""
        items = [(pid, *self.fb_pending.pop(pid)) for pid in self.fb_pids]
        gnb = self.gnb
        t_end = gnb.engine.now + SYMBOL_NS
        # Inside the gNB's COT the UE's grant inherits the gNB deadline.
        cot = gnb.cam.live_cot()
        if not self.cam.access(t_end, cot.cot_deadline if cot else None):
            return
        em = gnb.env.add_emission(self.ul_key, t_end, gnb.receive_feedback, (items, self))
        gnb.fb_on_air[em] = None


class NruGnb:
    """Scheduler, channel-access glue and HARQ bookkeeping for one cell."""

    def __init__(self, device: Device, cam: Cam, env: RadioEnvironment) -> None:
        self.device = device
        self.cam = cam
        self.env = env
        self.engine = env.engine
        self.config = env.config
        self.mac_trace = env.traces.get("mac")
        self.ues: list[NruUe] = []
        self.retx: deque[TransportBlock] = deque()
        self.processes: dict[int, TransportBlock] = {}
        # slot -> UE -> pids; insertion order is the feedback symbol order
        self.fb_reservations: dict[int, dict[NruUe, list[int]]] = {}
        # slot -> its blocks, their symbols and its feedback reservations, for `_commit`
        self.plans: dict[int, tuple[list[TransportBlock], int, Optional[dict]]] = {}
        self._close_pids: list[int] = []  # the pids the next slot-end timeout settles
        self._resolved: set[int] = set()
        self.fb_on_air: dict = {}  # feedback captures not yet decoded, in start order
        self._next_pid = 0

    def start(self) -> None:
        if len(self.ues) > SYMBOLS_PER_SLOT:
            # Each UE's HARQ feedback takes one symbol of a slot.
            raise ConfigError(
                f"value for key 'users_per_operator' puts {len(self.ues)} UEs on "
                f"gNB {self.device.id}; at most {SYMBOLS_PER_SLOT} fit one slot's feedback"
            )
        self.engine.schedule(self._plan, 0)

    # -- scheduling -----------------------------------------------------------

    def _plan(self) -> None:
        """Plan the slot `mac_lead_slots` ahead. Plans run at each slot start
        from 0, so `rr` plans precede this one; round robin turns with it."""
        rr = self.engine.now // SLOT_NS
        slot = rr + self.config.mac_lead_slots
        t_slot = slot * SLOT_NS
        if t_slot < self.config.duration_ns:
            self.engine.schedule(self._plan, self.engine.now + SLOT_NS)
        fb_entries = self.fb_reservations.pop(slot, None)
        budget = SYMBOLS_PER_SLOT - (len(fb_entries) + FB_GAP_SYMBOLS if fb_entries else 0)
        alloc: list[TransportBlock] = []
        used = 0

        while self.retx and budget - used >= self.retx[0].n_symbols:
            tb = self.retx.popleft()
            alloc.append(tb)
            used += tb.n_symbols

        n = len(self.ues)
        for k in range(n):
            if used >= budget:
                break
            ue = self.ues[(rr + k) % n]
            buf = ue.buffered_bytes
            if buf <= 0:
                continue
            sinr = ue.last_sinr_db
            adapted = ue.adapted
            if adapted is None or adapted[0] != sinr:
                mcs = select_mcs(MCS_THRESHOLDS, sinr, self.config.mcs_margin_db)
                adapted = ue.adapted = (sinr, mcs, symbol_capacity_bytes(
                    MCS_TABLE[mcs][1], self.config.bandwidth_hz, self.config.nru_overhead
                ))
            _sinr, mcs, cap = adapted
            n_sym = min(-(-buf // cap), budget - used)
            tb_bytes = min(buf, n_sym * cap)
            segments = ue.take_bytes(tb_bytes)
            tb = TransportBlock(self._next_pid, ue, tb_bytes, segments, mcs, n_sym)
            self._next_pid += 1
            alloc.append(tb)
            used += n_sym

        if alloc:
            self.cam.prepare()
        if alloc or fb_entries:  # an empty commit would change nothing
            self.plans[slot] = (alloc, used, fb_entries)
            self.engine.schedule(self._commit, t_slot)

    def _access_ok(self, emissions_end: int) -> bool:
        return self.cam.access(emissions_end)

    # -- per-slot execution -------------------------------------------------------

    def _commit(self) -> None:
        t_slot = self.engine.now
        slot = t_slot // SLOT_NS
        alloc, total_sym, fb_entries = self.plans.pop(slot)
        if alloc:
            emissions_end = t_slot + total_sym * SYMBOL_NS
            if self._access_ok(emissions_end):
                fb_slot = slot + FB_DELAY_SLOTS
                fb_slot += (-fb_slot) % FB_BATCH_SLOTS
                fb = self.fb_reservations.setdefault(fb_slot, {})
                offset = 0
                for tb in alloc:
                    ue, n_sym = tb.ue, tb.n_symbols
                    start = t_slot + offset * SYMBOL_NS
                    offset += n_sym
                    tb.tx_count += 1
                    tb.cot_id = self.cam.cot_id
                    self.processes[tb.pid] = tb
                    self.engine.schedule(tb.air, start)
                    fb.setdefault(ue, []).append(tb.pid)
                    if self.mac_trace is not None:
                        self.mac_trace.append(
                            (t_slot, ue.device.id, n_sym, tb.mcs, tb.total_bytes, "tx")
                        )
            else:
                for tb in alloc:
                    if tb.tx_count == 0:
                        tb.ue.return_segments(tb)
                    else:
                        self.retx.appendleft(tb)
                if self.mac_trace is not None:
                    self.mac_trace.append((t_slot, "*", 0, -1, 0, "no_grant"))
                self.cam.prepare()

        if fb_entries:
            for k, (ue, pids) in enumerate(fb_entries.items()):
                t_sym = t_slot + (SYMBOLS_PER_SLOT - len(fb_entries) + k) * SYMBOL_NS
                ue.fb_pids = pids
                self.engine.schedule(ue.send_feedback, t_sym)
            self._close_pids = [pid for pids in fb_entries.values() for pid in pids]
            self.engine.schedule(self._close_feedback, t_slot + SLOT_NS)

    def _air_tb(self, ue: NruUe, tb: TransportBlock, end: int) -> None:
        self.env.add_emission(ue.dl_key, end, ue.receive_tb, tb)

    # -- HARQ resolution -----------------------------------------------------------

    def receive_feedback(self, cap) -> None:
        if cap not in self.fb_on_air:
            return  # decoded already, by the slot-end event of the same nanosecond
        del self.fb_on_air[cap]
        items, ue = cap.payload  # its (pid, ack, SINR) items and their UE
        sinr = self.env.effective_sinr_db(cap, ue.fb_table)
        if sinr >= FB_DECODE_THRESHOLD_DB:  # else the slot-end timeout NACKs them
            self._resolve(items)

    def _close_feedback(self) -> None:
        """Slot end: decode the feedback that ends now, whether or not its end event
        has run yet, then time out every pid of `_close_pids` still open. Feedback
        slots are FB_BATCH_SLOTS apart, so all feedback still on the air ends now."""
        for cap in list(self.fb_on_air):
            cap.at_end(cap)
        self._feedback_timeout(self._close_pids)

    def _feedback_timeout(self, pids: list[int]) -> None:
        self._resolve([(pid, False, None) for pid in pids])

    def _resolve(self, items: list[tuple[int, bool, Optional[float]]]) -> None:
        """Settle each still-open HARQ process of (pid, ack, measured SINR):
        requeue a NACKed block or, at the transmission limit, drop it."""
        nacks: list[bool] = []
        cot = None
        for pid, ack, measured in items:
            if pid in self._resolved:
                continue
            self._resolved.add(pid)
            tb = self.processes.pop(pid)
            nacks.append(not ack)
            cot = tb.cot_id if cot is None else cot
            if measured is not None and tb.tx_count == 1:
                tb.ue.last_sinr_db = measured
            if ack:
                continue
            if tb.tx_count < self.config.harq_max_tx:
                self.retx.append(tb)
            else:
                tb.ue.drop_process(tb)
        if nacks:  # the batch's first block names its COT
            self.cam.feedback(nacks, cot)
