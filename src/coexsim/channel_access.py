"""Channel access managers: Cat1/Cat2/Cat3/Cat4 LBT and the OnOff duty cycle.

Each manager owns the energy-detection sensing for one device. Sensing is a
linear power sum over all concurrent emissions, regardless of technology,
evaluated with either 0 dB (omni) or beam-aligned (directional) receive
gain. The deferral/backoff procedure (`Backoff`) is shared with the WiGig
DCF. An NR-U MAC asks its manager, whatever the category, only `live_cot()`,
`prepare()`, `access(t_end, deadline)` and `feedback(nacks, cot_id)`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .radio import (COUNT, IDLE, WAIT_IDLE, Device, Emission, LinkTable, RadioEnvironment,
                    db_to_lin, peak_power_lin)

CAT1 = "Cat1"
CAT2 = "Cat2"
CAT3 = "Cat3"
CAT4 = "Cat4"
ONOFF = "OnOff"


@dataclass(frozen=True)
class ChannelGrant:
    granted_at: int
    cot_deadline: Optional[int]  # None = unbounded (AlwaysOn)

    def covers(self, t_end: int) -> bool:
        return self.cot_deadline is None or t_end <= self.cot_deadline


class Cam:
    """Base sensing behaviour shared by all categories.

    A UE senses at the UE ED threshold along its beam `toward` its serving
    site; any other device senses omni at the gNB threshold, both held as
    `ed_threshold_lin`, which a linear power sum reaches on a busy medium. LBT
    managers grant asynchronously through `request(on_grant)`; every other one
    answers `attempt(deadline)` at once, with None or a grant that ends by
    `deadline` when one is given, and `access(t_end, deadline)` takes it into
    force as the COT (channel occupancy time) `cot`, numbered `cot_id`, if it
    covers `t_end`. With the "cam" trace selected, events are logged as
    (time, device, category, event) rows.
    """

    def __init__(
        self, category: str, device: Device, env: RadioEnvironment, toward: Optional[Device] = None,
    ) -> None:
        self.category = category
        self.device = device
        self.env = env
        self.engine = env.engine
        self.config = config = env.config
        self.trace = env.traces.get("cam")
        directional = device.role == "ue"
        self.ed_threshold_lin = db_to_lin(
            config.ue_ed_threshold_dbm if directional else config.gnb_ed_threshold_dbm
        )
        self.table = env.link_table(device, toward if directional else None)
        self.cot: Optional[ChannelGrant] = None
        self.cot_id = 0  # COTs taken into force so far

    def live_cot(self) -> Optional[ChannelGrant]:
        if self.cot is not None and not self.cot.covers(self.engine.now + 1):
            self.cot = None  # it lapsed at its deadline
        return self.cot

    def prepare(self) -> None:
        """A transmission is planned; only LBT starts work ahead of it."""

    def access(self, t_end: int, deadline: Optional[int] = None) -> bool:
        g = self.attempt(deadline)
        if g is None or not g.covers(t_end):
            return False
        self._take(g)
        return True

    def feedback(self, nacks: list[bool], cot_id: int) -> None:
        """A non-empty batch of HARQ outcomes of blocks sent in COT `cot_id`."""

    def _take(self, grant: ChannelGrant) -> None:
        self.cot = grant
        self.cot_id += 1

    def sense_window(self, w_start: int, w_end: int) -> bool:
        """True (busy) iff the eid-order power sum reaches `ed_threshold_lin`
        at a point of the half-open window [w_start, w_end), as swept by
        `peak_power_lin`. One emission at the threshold settles busy, and a
        whole-window eid-order sum under it idle, by the monotonicity that
        `Backoff` states. Only a sum in between is swept."""
        threshold = self.ed_threshold_lin
        ems = self.env.window_emissions(self.table, w_start, w_end)
        total = 0.0
        for _eid, _start, _end, lin in ems:
            if lin >= threshold:
                return True
            total += lin
        return total >= threshold and peak_power_lin(ems, w_start) >= threshold

    def _emit(self, event: str) -> None:
        if self.trace is not None:
            self.trace.append((self.engine.now, self.device.id, self.category, event))

    def _grant(self, deadline: Optional[int]) -> ChannelGrant:
        g = ChannelGrant(self.engine.now, deadline)
        self._emit("grant")
        if deadline is not None and self.trace is not None:
            self.engine.schedule(lambda: self._emit("cot_end"), deadline)
        return g


class AlwaysOnCam(Cam):
    """Cat1: immediate grant, unbounded unless an initiator's deadline bounds it."""

    def attempt(self, deadline: Optional[int] = None) -> ChannelGrant:
        return self._grant(deadline)


class Cat2Cam(Cam):
    """Single fixed deferral: idle for the whole 25 us window ending at t."""

    def attempt(self, deadline: Optional[int] = None) -> Optional[ChannelGrant]:
        t = self.engine.now
        if self.sense_window(t - self.config.cat2_defer_ns, t):
            return None
        if deadline is None:
            deadline = t + self.config.max_cot_ns
        return self._grant(deadline)


class OnOffCam(Cam):
    """Duty cycle anchored at t=0, shared by all devices of one operator."""

    def current_on_end(self, t: int) -> Optional[int]:
        period = self.config.duty_on_ns + self.config.duty_off_ns
        if t % period >= self.config.duty_on_ns:
            return None
        return (t // period) * period + self.config.duty_on_ns

    def attempt(self, deadline: Optional[int] = None) -> Optional[ChannelGrant]:
        on_end = self.current_on_end(self.engine.now)
        if on_end is None:
            return None
        if deadline is not None:
            on_end = min(on_end, deadline)
        return self._grant(on_end)


class Backoff:
    """Deferral plus frozen-resume random backoff: NR-U Cat3/Cat4 LBT and
    WiGig DCF run this one procedure.

    Once the medium is idle, a contention runs one countdown event, due after
    the deferral (`defer_ns`) and `counter` CCA slots (`cca_slot_ns`). An
    edge to busy at t works out the slots used: none before the deferral
    ends at `_count_from`, else `(t - _count_from) // cca_slot_ns`, so a
    slot ending exactly at t counts, as in 802.11 DCF. With slots left, it
    cancels the countdown, keeps the rest in `counter`, and waits for an
    idle medium to defer again; with none left, the countdown, due at t,
    still fires.

    Sensing reads `sense`, per link key what one emission adds to the
    device's energy sum (`_sense_entry`, the one rule): the medium is busy
    where an entry, or the eid-order sum of those on the air, reaches
    `ed_threshold_lin`. Its own emissions add 0.0, which leaves a sum as it
    is, and a WiGig preamble inf, loud and never summed. An entry is None
    until `add_emission` fills it as the link's first emission starts.

    `RadioEnvironment._notify` re-senses a listener in full (`medium_busy`)
    only when an edge can flip its answer, from what it keeps of its last
    sense:
    - `_witness`, an on-air emission that alone keeps `medium_busy()` true,
      or None; a waiting listener is re-sensed only when it ends, or on any
      falling edge when there is none, and `_notify` starts its countdown
      itself when it then reads idle.
    - `_bound`, while counting: the eid-order sum of the last sense that read
      idle plus each rising edge's power since. Emissions start in eid
      order, so the sensed sum runs over a subsequence of its terms; a
      rising edge that keeps it under `ed_threshold_lin` is skipped, and
      one that does not re-senses it through `medium_changed()`.
    - A rising edge loud on its own (its entry at `ed_threshold_lin`)
      freezes the counter at once as the witness: every other emission on
      the air is quiet, or the counter would be frozen, so it is the one
      `medium_busy()` would record.
    Both are exact by float monotonicity alone: a float sum of non-negative
    terms is at least each of its terms, and an eid-order sum over a
    subsequence never exceeds the sum over the whole sequence.

    A subclass provides `engine`, `env`, `rng`, `config`, its sensing
    `table`, its energy-detection threshold `ed_threshold_lin`, and
    `_backoff_done()`, called once the counter runs out and the device has
    stopped listening, and `trace`: with it set, `_emit(event)` logs
    defer_start and counter_frozen. Its `__init__` calls
    `_init_backoff(cws, preamble_dbm)`, which sets the contention window
    `cws` and puts every per-contention field on the instance: CPython 3.11
    specialises those reads, made on every edge, while an instance has at
    most 29 attributes (from 30 on they move to a plain dict).
    `_next_cws(grow)` is the one window rule, read from `config`'s
    `cws_min` and `cws_max`. A contention starts only from IDLE, so
    `env._listeners` holds each contending device once.
    """

    IDLE, WAIT_IDLE, COUNT = IDLE, WAIT_IDLE, COUNT  # the `radio` states, for readers

    def _init_backoff(self, cws: Optional[int] = None, preamble_dbm: float = math.inf) -> None:
        """Set the contention fields in one order and resolve `defer_ns` and
        `cca_slot_ns`; the window starts at `cws`, or at `cws_min` for None,
        and an inf `preamble_dbm` detects no preamble; then fill `sense` for
        the links aired so far and register with `env`."""
        self.cws = self.config.cws_min if cws is None else cws
        self.state = IDLE
        self.counter = 0
        self._timer = None
        self._countdown = self._countdown_done  # the countdown event, bound once
        self._witness = None
        self._bound = 0.0
        self._count_from = 0
        self._preamble_dbm = preamble_dbm
        self._defer_ns = self.config.defer_ns
        self._cca_slot_ns = self.config.cca_slot_ns
        env = self.env
        self.sense = [None if em.eid < 0 else self._sense_entry(self.table, em)
                      for em in env._link_emissions]
        env._backoffs.append(self)

    def _sense_entry(self, table: LinkTable, em: Emission) -> float:
        """What one emission of `em`'s link adds to the energy sum sensed at
        `table`: 0.0 from the table's receiver itself, inf for a WiGig
        preamble at `_preamble_dbm` (compared in dBm, an order that `db_to_lin`
        need not keep bit for bit), otherwise its linear power."""
        if em.source is table.receiver:
            return 0.0
        if em.rat == "wigig" and (self.env.rx_power_dbm(em, table.receiver, table.rx_beam)
                                  >= self._preamble_dbm):
            return math.inf
        return table.read(em.link_key)

    def _next_cws(self, grow: bool) -> None:
        """Double the window plus one, up to `cws_max`, or reset it to `cws_min`."""
        self.cws = min(2 * self.cws + 1, self.config.cws_max) if grow else self.config.cws_min

    def _start_backoff(self) -> None:
        # The draw CPython 3.11's `randint(0, cws)` makes (`_randbelow(cws + 1)`
        # redraws k random bits until they fit), without its three frames.
        cws = self.cws
        k = (cws + 1).bit_length()
        getrandbits = self.rng.getrandbits
        counter = getrandbits(k)
        while counter > cws:
            counter = getrandbits(k)
        self.counter = counter
        self.env.add_listener(self)
        if self.medium_busy():
            self.state = WAIT_IDLE
        else:
            self._start_countdown()

    def medium_busy(self) -> bool:
        """True iff the `sense` entry of an emission on the air, or the
        eid-order sum of their entries, reaches `ed_threshold_lin`. Records
        the loud one as `_witness`, or None, and an idle sum as `_bound`."""
        sense = self.sense
        threshold = self.ed_threshold_lin
        total = 0.0
        for em in self.env.active.values():
            lin = sense[em.link_key]
            if lin >= threshold:
                self._witness = em
                return True
            total += lin
        self._witness = None
        if total >= threshold:
            return True
        self._bound = total
        return False

    def medium_changed(self) -> None:
        """Re-sense a counting listener on a rising edge that its `_bound`
        cannot settle, and freeze it on a busy medium."""
        if self.medium_busy():
            self._freeze()

    def _freeze(self) -> None:
        """Stop counting on a medium busy from now, unless the counter is spent."""
        counted = self.engine.now - self._count_from
        if counted >= 0:
            left = self.counter - counted // self._cca_slot_ns
            if left == 0:
                return  # the countdown is due now
            self.counter = left
            if self.trace is not None:
                self._emit("counter_frozen")
        self.engine.cancel(self._timer)
        self.state = WAIT_IDLE

    def _start_countdown(self) -> None:
        self.state = COUNT
        if self.trace is not None:
            self._emit("defer_start")
        engine = self.engine
        self._count_from = count_from = engine.now + self._defer_ns
        self._timer = engine.schedule(
            self._countdown, count_from + self.counter * self._cca_slot_ns
        )

    def _countdown_done(self) -> None:
        self.counter = 0
        self.state = IDLE
        self.env.remove_listener(self)
        self._backoff_done()


class LbtCam(Cam, Backoff):
    """Cat3/Cat4: `Backoff`, drawing from `rng`, then a grant bounded by the maximum COT."""

    def __init__(self, category: str, device: Device, env: RadioEnvironment, rng,
                 toward: Optional[Device] = None) -> None:
        super().__init__(category, device, env, toward)
        self.rng = rng
        self._on_grant: Optional[Callable[[ChannelGrant], None]] = None
        self._fed_cots: set[int] = set()
        self._init_backoff(self.config.cat3_cws if self.category == CAT3 else None)

    def prepare(self) -> None:
        if self.live_cot() is None and self._on_grant is None:
            self.request(self._take)

    def access(self, t_end: int, deadline: Optional[int] = None) -> bool:
        # Grants arrive ahead of the slot: one granted at its start is too late.
        g = self.live_cot()
        return g is not None and g.granted_at < self.engine.now and g.covers(t_end)

    def feedback(self, nacks: list[bool], cot_id: int) -> None:
        """Each Cat4 COT's first batch: >=80% NACKs double the window, fewer reset it."""
        if self.category == CAT4 and cot_id not in self._fed_cots:
            self._fed_cots.add(cot_id)
            self._next_cws(sum(nacks) / len(nacks) >= 0.8)

    def request(self, on_grant: Callable[[ChannelGrant], None]) -> None:
        assert self._on_grant is None, "one outstanding LBT request per CAM"
        self._on_grant = on_grant
        self._start_backoff()

    def _backoff_done(self) -> None:
        callback = self._on_grant
        self._on_grant = None
        callback(self._grant(self.engine.now + self.config.max_cot_ns))


def make_cam(
    category: str, device: Device, env: RadioEnvironment, toward: Optional[Device] = None
) -> Cam:
    """Only an `LbtCam` draws, from the run's ("cam", device id) stream."""
    if category in (CAT3, CAT4):
        return LbtCam(category, device, env, env.streams.stream("cam", device.id), toward)
    cls = {CAT1: AlwaysOnCam, CAT2: Cat2Cam, ONOFF: OnOffCam}[category]
    return cls(category, device, env, toward)
