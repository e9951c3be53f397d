"""Channel access managers: Cat1/Cat2/Cat3/Cat4 LBT and the OnOff duty cycle.

Each manager owns the energy-detection sensing for one device. Sensing is a
linear power sum over all concurrent emissions, regardless of technology,
evaluated with either 0 dB (omni) or beam-aligned (directional) receive gain.
The deferral/backoff procedure (`Backoff`) is shared with the WiGig DCF.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import US, MS, Engine
from .radio import Device, RadioEnvironment, db_to_lin

CAT1 = "Cat1"
CAT2 = "Cat2"
CAT3 = "Cat3"
CAT4 = "Cat4"
ONOFF = "OnOff"

CAT4_CWS_LADDER = (15, 31, 63, 127, 255, 511, 1023)


@dataclass
class CamConfig:
    category: str
    ed_threshold_dbm: float = -79.0
    cca_slot_ns: int = 5 * US
    defer_ns: int = 8 * US
    max_cot_ns: int = 9 * MS
    cws_min: int = 15
    cws_max: int = 1023
    cat3_cws: int = 15
    cat2_defer_ns: int = 25 * US
    duty_on_ns: int = 9 * MS
    duty_off_ns: int = 9 * MS
    sensing_mode: str = "omni"  # omni | directional


@dataclass(frozen=True)
class ChannelGrant:
    granted_at: int
    cot_deadline: Optional[int]  # None = unbounded (AlwaysOn)
    initiator: str
    category: str

    def covers(self, t_end: int) -> bool:
        return self.cot_deadline is None or t_end <= self.cot_deadline


class CamTrace:
    """Optional event log: (time, device, category, event)."""

    EVENTS = ("defer_start", "counter_frozen", "grant", "cot_end", "onoff_edge")

    def __init__(self) -> None:
        self.rows: list[tuple[int, str, str, str]] = []

    def add(self, t: int, device: str, category: str, event: str) -> None:
        self.rows.append((t, device, category, event))


class Cam:
    """Base sensing behaviour shared by all categories."""

    def __init__(
        self,
        device: Device,
        config: CamConfig,
        env: RadioEnvironment,
        engine: Engine,
        rng,
        trace: Optional[CamTrace] = None,
    ) -> None:
        self.device = device
        self.config = config
        self.env = env
        self.engine = engine
        self.rng = rng
        self.trace = trace
        # Directional sensing looks along the current transmit beam.
        self.sense_toward: Optional[Device] = None

    def _rx_beam(self) -> Optional[Device]:
        if self.config.sensing_mode == "directional":
            return self.sense_toward
        return None

    def medium_busy(self) -> bool:
        p = self.env.sensed_power_dbm(self.device, self._rx_beam())
        return p >= self.config.ed_threshold_dbm

    def sense_window(self, w_start: int, w_end: int) -> bool:
        """True (busy) iff aggregate power reaches the ED threshold anywhere
        in the half-open window [w_start, w_end)."""
        p = self.env.max_sensed_power_dbm(self.device, w_start, w_end, self._rx_beam())
        return p >= self.config.ed_threshold_dbm

    def _emit(self, event: str) -> None:
        if self.trace is not None:
            self.trace.add(
                self.engine.now, self.device.id, self.config.category, event
            )

    def _grant(self, deadline: Optional[int]) -> ChannelGrant:
        g = ChannelGrant(self.engine.now, deadline, self.device.id, self.config.category)
        self._emit("grant")
        if deadline is not None and self.trace is not None:
            self.engine.schedule(lambda: self._emit("cot_end"), deadline)
        return g


class AlwaysOnCam(Cam):
    """Cat1: immediate grant, unbounded COT."""

    def request(self, on_grant: Callable[[ChannelGrant], None]) -> None:
        on_grant(self._grant(None))

    def responder_grant(self, gnb_deadline: Optional[int]) -> ChannelGrant:
        """Inside a gNB-initiated COT the grant inherits the gNB deadline."""
        return self._grant(gnb_deadline)


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

    def state(self, t: int) -> str:
        period = self.config.duty_on_ns + self.config.duty_off_ns
        return "ON" if t % period < self.config.duty_on_ns else "OFF"

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

    The procedure is event-driven: an idle medium runs an 8 us deferral
    timer, then one 5 us CCA-slot timer per remaining backoff count. Any
    emission edge re-evaluates sensing; a busy medium cancels the pending
    timer, preserves the counter, and re-defers once idle again.

    A subclass provides `engine`, `env`, `rng`, `config` (`defer_ns`,
    `cca_slot_ns`), its contention window `cws`, the busy predicate
    `medium_busy()`, and `_backoff_done()`, called once the counter runs out
    and the device has stopped listening.
    """

    IDLE, WAIT_IDLE, DEFER, COUNT = range(4)
    # Class-level defaults until an instance first contends.
    state = IDLE
    counter = 0
    _timer = None

    def _emit(self, event: str) -> None:
        """Trace hook for defer_start/counter_frozen; silent by default."""

    def _start_backoff(self) -> None:
        self.counter = self.rng.randint(0, self.cws)
        self.env.add_listener(self)
        if self.medium_busy():
            self.state = self.WAIT_IDLE
        else:
            self._start_defer()

    def medium_changed(self) -> None:
        """Re-sense on an emission edge; a device not contending ignores it."""
        state = self.state
        if state == self.WAIT_IDLE:
            if not self.medium_busy():
                self._start_defer()
        elif (state == self.DEFER or state == self.COUNT) and self.medium_busy():
            self.engine.cancel(self._timer)
            if state == self.COUNT:
                self._emit("counter_frozen")
            self.state = self.WAIT_IDLE

    def _start_defer(self) -> None:
        self.state = self.DEFER
        self._emit("defer_start")
        self._timer = self.engine.schedule_in(self._defer_done, self.config.defer_ns)

    def _defer_done(self) -> None:
        if self.counter == 0:
            self._finish()
        else:
            self.state = self.COUNT
            self._timer = self.engine.schedule_in(self._slot_done, self.config.cca_slot_ns)

    def _slot_done(self) -> None:
        self.counter -= 1
        if self.counter == 0:
            self._finish()
        else:
            self._timer = self.engine.schedule_in(self._slot_done, self.config.cca_slot_ns)

    def _finish(self) -> None:
        self.state = self.IDLE
        self.env.remove_listener(self)
        self._backoff_done()


class LbtCam(Cam, Backoff):
    """Cat3/Cat4: `Backoff`, then a grant bounded by the maximum COT."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cws = (
            self.config.cat3_cws if self.config.category == CAT3 else self.config.cws_min
        )
        self._on_grant: Optional[Callable[[ChannelGrant], None]] = None

    @property
    def busy(self) -> bool:
        return self._on_grant is not None

    def request(self, on_grant: Callable[[ChannelGrant], None]) -> None:
        assert self._on_grant is None, "one outstanding LBT request per CAM"
        self._on_grant = on_grant
        self._start_backoff()

    def update_cws(self, nacks: list[bool]) -> int:
        """Cat4 exponential rule: >=80% NACK doubles, otherwise reset."""
        if self.config.category != CAT4 or not nacks:
            return self.cws
        if sum(nacks) / len(nacks) >= 0.8:
            self.cws = min(2 * self.cws + 1, self.config.cws_max)
        else:
            self.cws = self.config.cws_min
        return self.cws

    def _backoff_done(self) -> None:
        callback = self._on_grant
        self._on_grant = None
        callback(self._grant(self.engine.now + self.config.max_cot_ns))


def make_cam(
    category: str,
    device: Device,
    env: RadioEnvironment,
    engine: Engine,
    rng,
    trace: Optional[CamTrace] = None,
    **overrides,
) -> Cam:
    config = CamConfig(category=category, **overrides)
    cls = {
        CAT1: AlwaysOnCam,
        CAT2: Cat2Cam,
        CAT3: LbtCam,
        CAT4: LbtCam,
        ONOFF: OnOffCam,
    }[category]
    return cls(device, config, env, engine, rng, trace)


# -- offline LBT-safety verification ---------------------------------------


def _power_steps(env: RadioEnvironment, device: Device, emissions, rx_beam):
    """Stepwise aggregate sensed power at `device`: (edge times, levels)."""
    import numpy as np

    edges: list[tuple[int, float]] = []
    for em in emissions:
        if em.source is device:
            continue
        p = db_to_lin(env.rx_power_dbm(em, device, rx_beam))
        edges.append((em.start, p))
        edges.append((em.end, -p))
    if not edges:
        return np.array([0]), np.array([0.0])
    edges.sort()
    times = np.array([t for t, _ in edges])
    levels = np.cumsum([p for _, p in edges])
    return times, levels


def verify_lbt_safety(
    env: RadioEnvironment,
    cams: list[Cam],
    trace: CamTrace,
    emissions: list,
) -> list[tuple[int, str, str]]:
    """Re-derive every CCA window a CAM believed idle and check it really was.

    Returns one (time, device, detail) tuple per violation. Windows are the
    trace intervals from each defer_start to the next counter_frozen/grant of
    the same device, plus the fixed deferral window preceding each Cat2 grant.
    """
    import numpy as np

    violations: list[tuple[int, str, str]] = []
    by_id = {c.device.id: c for c in cams}
    per_device: dict[str, list[tuple[int, str]]] = {}
    for t, dev, cat, event in trace.rows:
        if cat in (CAT2, CAT3, CAT4):
            per_device.setdefault(dev, []).append((t, event))

    for dev_id, rows in per_device.items():
        cam = by_id[dev_id]
        thr = db_to_lin(cam.config.ed_threshold_dbm)
        times, levels = _power_steps(env, cam.device, emissions, cam._rx_beam())
        windows: list[tuple[int, int]] = []
        open_at: Optional[int] = None
        for t, event in rows:
            if event == "defer_start":
                open_at = t
            elif event in ("counter_frozen", "grant") and open_at is not None:
                windows.append((open_at, t))
                open_at = None
            if event == "grant" and cam.config.category == CAT2:
                windows.append((t - cam.config.cat2_defer_ns, t))
        for w0, w1 in windows:
            if w1 <= w0:
                continue
            # Max level over [w0, w1): level at w0 plus any steps inside.
            i0 = int(np.searchsorted(times, w0, side="right")) - 1
            i1 = int(np.searchsorted(times, w1, side="left"))
            lo = max(i0, 0)
            seg = levels[lo:i1]
            peak = float(seg.max()) if len(seg) else 0.0
            if i0 < 0:
                peak = max(peak, 0.0)
            if peak >= thr * (1 - 1e-12):
                violations.append((w0, dev_id, f"busy window [{w0},{w1})"))
    return violations
