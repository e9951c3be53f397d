"""Indoor-hotspot propagation, planar-array beamforming and SINR accounting.

The channel is a single geometric line-of-sight ray per link with a
log-normal shadowing term drawn once per (run, link). Pathloss follows the
3GPP indoor-hotspot formulas; antenna gains combine a parabolic element
pattern with the uniform-planar-array factor for conjugate steering.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from math import log10
from dataclasses import dataclass, field
from typing import Callable, Optional

from .config import CampaignConfig
from .engine import Engine, RngStreams
from .metrics import OccupancyLedger

SHADOW_SIGMA_LOS_DB = 3.0
SHADOW_SIGMA_NLOS_DB = 8.03
NOISE_PSD_DBM_HZ = -174.0
Vector = tuple[float, float, float]  # a unit direction

# The states of a `channel_access.Backoff` listener, read by `_notify`.
IDLE, WAIT_IDLE, COUNT = range(3)


def db_to_lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def lin_to_db(lin: float) -> float:
    return 10.0 * math.log10(lin)


def peak_power_lin(ems: list[tuple], w_start: int) -> float:
    """Largest eid-order sum of the linear powers of `ems`, (eid, start, end,
    lin) tuples in eid order, at each point from `w_start` on where one of
    them starts; 0.0 for none."""
    best = 0.0
    for t in sorted({max(start, w_start) for _eid, start, _end, _lin in ems}):
        total = 0.0
        for _eid, start, end, lin in ems:
            if start <= t < end:
                total += lin
        best = max(best, total)
    return best


def select_mcs(thresholds: list[float], sinr_db: float, margin_db: float) -> int:
    """Index of the highest of the ascending decode `thresholds` (dB) at most
    sinr - margin; ties go up, and below all of them 0."""
    if not math.isfinite(sinr_db):
        raise ValueError("SINR must be finite")
    return max(bisect_right(thresholds, sinr_db - margin_db) - 1, 0)


@dataclass(frozen=True)
class Position:
    x: float
    y: float
    z: float

    def distance_3d(self, other: "Position") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def distance_2d(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def los_probability(d2d: float) -> float:
    """Indoor-hotspot LOS probability, piecewise in 2D distance."""
    if d2d < 0:
        raise ValueError(f"negative distance {d2d}")
    if d2d <= 5.0:
        return 1.0
    if d2d <= 49.0:
        return math.exp(-(d2d - 5.0) / 70.8)
    return 0.54 * math.exp(-(d2d - 49.0) / 211.7)


def pathloss_db(d3d: float, fc_ghz: float, los: bool) -> float:
    """Indoor-hotspot pathloss; d3d below 1 m is clamped to 1 m."""
    d = max(d3d, 1.0)
    pl_los = 32.4 + 17.3 * math.log10(d) + 20.0 * math.log10(fc_ghz)
    if los:
        return pl_los
    pl_nlos = 17.3 + 38.3 * math.log10(d) + 24.9 * math.log10(fc_ghz)
    return max(pl_los, pl_nlos)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return NOISE_PSD_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass(frozen=True)
class AntennaArray:
    rows: int
    cols: int
    element_gain_dbi: float = 8.0
    hpbw_deg: float = 65.0
    front_back_db: float = 30.0


def _azel(v: Vector) -> tuple[float, float]:
    az = math.degrees(math.atan2(v[1], v[0]))
    el = math.degrees(math.asin(max(-1.0, min(1.0, v[2]))))
    return az, el


def element_gain_db(array: AntennaArray, d_az_deg: float, d_el_deg: float) -> float:
    """Parabolic element pattern with a hard front-to-back floor."""
    a_az = min(12.0 * (d_az_deg / array.hpbw_deg) ** 2, array.front_back_db)
    a_el = min(12.0 * (d_el_deg / array.hpbw_deg) ** 2, array.front_back_db)
    return array.element_gain_dbi - min(a_az + a_el, array.front_back_db)


def _dirichlet(n: int, u: float) -> float:
    """|sum_{i<n} exp(j*pi*i*u)| for half-wavelength element spacing."""
    x = math.pi * u / 2.0
    s = math.sin(x)
    if abs(s) < 1e-12:
        return float(n)
    return abs(math.sin(n * x) / s)


def steering_frame(steering: Vector) -> tuple[float, ...]:
    """An array's local y' and z' axes steered to `steering`, then its azimuth and elevation."""
    sx, sy, sz = steering
    # Local frame: x along steering, z' the global-vertical component
    # orthogonal to it, y' completing the right-handed set.
    zx, zy, zz = -sz * sx, -sz * sy, 1.0 - sz * sz
    norm = math.sqrt(zx * zx + zy * zy + zz * zz)
    if norm < 1e-9:  # steering straight up/down: pick global x as reference
        zx, zy, zz, norm = 1.0, 0.0, 0.0, 1.0
    zx, zy, zz = zx / norm, zy / norm, zz / norm
    return (zy * sz - zz * sy, zz * sx - zx * sz, zx * sy - zy * sx, zx, zy, zz, *_azel(steering))


def frame_gain_db(array: AntennaArray, frame: tuple[float, ...], target: Vector) -> float:
    """`beam_gain_db` toward `target` of an array steered with `steering_frame` `frame`."""
    yx, yy, yz, zx, zy, zz, s_az, s_el = frame
    tx, ty, tz = target
    a = tx * yx + ty * yy + tz * yz  # horizontal direction cosine offset
    b = tx * zx + ty * zy + tz * zz  # vertical direction cosine offset
    af_lin = (_dirichlet(array.cols, a) * _dirichlet(array.rows, b)) ** 2
    af_db = 10.0 * math.log10(max(af_lin / (array.rows * array.cols), 1e-30))

    t_az, t_el = _azel(target)
    d_az = (t_az - s_az + 180.0) % 360.0 - 180.0
    d_el = t_el - s_el
    return af_db + element_gain_db(array, d_az, d_el)


def beam_gain_db(array: AntennaArray, steering: Vector, target: Vector) -> float:
    """Array-factor plus element gain toward `target` when steered to `steering`.

    The element boresight follows the steering direction, so the gain depends
    only on the angular offset between the two unit vectors. Peak array factor
    is 10*log10(rows*cols) over a single element.
    """
    return frame_gain_db(array, steering_frame(steering), target)


@dataclass
class Device:
    id: str
    operator: str
    role: str  # gnb | ue | ap | sta
    position: Position
    array: AntennaArray
    serving: Optional[str] = None  # site id for ue/sta


@dataclass
class LinkState:
    los: bool
    shadowing_db: float
    distance_3d: float


@dataclass(slots=True, eq=False)
class Emission:
    """One transmission on link `link_key` and, once `add_emission` puts it
    on the air, its own decode context: in start order, every other emission
    that overlaps it in time (one that only touches it end to start is left
    out), and the `payload` its receiver's `at_end` reads. Its bound `_end` is
    its end event, after which the context is gone."""
    source: Device
    tx_power_dbm: float
    beam_target: Optional[Device]  # None transmits with 0 dB gain
    start: int
    end: int
    rat: str  # "nru" | "wigig"
    link_key: int = -1  # one per (source, beam target, power, rat), from `link_key`
    eid: int = -1
    interferers: Optional[list["Emission"]] = field(default=None, repr=False)
    at_end: Optional[Callable[["Emission"], None]] = field(default=None, repr=False)
    env: Optional["RadioEnvironment"] = field(default=None, repr=False)
    payload: object = field(default=None, repr=False)  # the block, frame, ACK or feedback

    def _end(self) -> None:
        """Take the emission off the air, keep it for window sensing, notify the listeners and
        run `at_end`; then drop `interferers`, `at_end` and `payload`, which keep others alive."""
        env = self.env
        del env.active[self.eid]
        ended = env._ended
        ended.append(self)
        horizon = env.engine.now - env._retain_ns
        while ended[0].end < horizon:
            ended.popleft()
        env._notify(self, False)
        self.at_end(self)
        self.interferers = self.at_end = self.payload = None


class LinkTable:
    """Linear received power at one (receiver, rx beam) in a list `lin`
    indexed by link key; an entry is None until `read` fills it from
    `rx_power_dbm`. Decoding and window sensing read `lin[key] or
    read(key)`: a filled entry straight from the list, and `read` only for
    None (or a 0.0, which `read` returns as it is)."""

    __slots__ = ("env", "receiver", "rx_beam", "lin")

    def __init__(self, env: "RadioEnvironment", receiver: Device, rx_beam: Optional[Device]):
        self.env, self.receiver, self.rx_beam = env, receiver, rx_beam
        self.lin: list[Optional[float]] = [None] * len(env._link_emissions)

    def read(self, key: int) -> float:
        """The linear power of link `key`, filled on first read."""
        lin = self.lin[key]
        if lin is None:
            env = self.env
            p = env.rx_power_dbm(env._link_emissions[key], self.receiver, self.rx_beam)
            lin = self.lin[key] = db_to_lin(p)
        return lin


class RadioEnvironment:
    """Static geometry plus the set of emissions currently on the air.

    Link states (LOS flag, shadowing) are drawn lazily, once per undirected
    link per run, from the "link" RNG stream, which makes pathloss reciprocal
    by construction. Every emission is on a link that `link_key` registered
    when its MAC was built. Sensing and SINR read received powers from one
    `LinkTable` per (receiver, rx beam), and every emission is recorded in
    the per-operator occupancy `ledger`. The run's `engine`, `config` and
    `traces` live here too, for every component built on this environment.
    """

    # Ended emissions are kept at least this long, and at least as long as a
    # Cat2 deferral window, for window sensing.
    RETAIN_NS = 200_000

    def __init__(self, engine: Engine, streams: RngStreams, config: CampaignConfig) -> None:
        self.engine = engine
        self.streams = streams
        self.config = config
        self.noise_dbm = noise_power_dbm(config.bandwidth_hz, config.noise_figure_db)
        self.noise_lin = db_to_lin(self.noise_dbm)
        self._links: dict[frozenset, LinkState] = {}
        self._gain_cache: dict[tuple, float] = {}
        self._frames: dict[tuple[str, str], tuple] = {}  # (owner, toward) -> steering_frame
        self._pathloss: dict[tuple[str, str], float] = {}  # (a, b) -> link_pathloss_db
        self._rx_cache: dict[tuple, float] = {}
        self._tables: dict[tuple[str, Optional[str]], LinkTable] = {}
        # (source id, beam target id or "", tx power, rat) -> link key
        self._link_keys: dict[tuple, int] = {}
        self._link_emissions: list[Emission] = []  # key -> its first aired, else one with eid -1
        self.active: dict[int, Emission] = {}
        self._ended: deque[Emission] = deque()  # in end order
        self._retain_ns = max(self.RETAIN_NS, config.cat2_defer_ns)
        self._listeners: list = []  # the `Backoff`s contending now, each once, for `_notify`
        self._backoffs: list = []  # every `Backoff` built, whose `sense` each link extends
        self.ledger = OccupancyLedger()
        # Trace selector -> row list, one per selected trace; components take
        # theirs at construction, so fill it before building them.
        self.traces: dict[str, list] = {}
        self._next_eid = 0

    # -- geometry ---------------------------------------------------------

    def link(self, a: Device, b: Device) -> LinkState:
        key = frozenset((a.id, b.id))
        st = self._links.get(key)
        if st is None:
            rng = self.streams.stream("link", "|".join(sorted((a.id, b.id))))
            los = rng.random() < los_probability(a.position.distance_2d(b.position))
            sigma = SHADOW_SIGMA_LOS_DB if los else SHADOW_SIGMA_NLOS_DB
            st = LinkState(los, rng.gauss(0.0, sigma), a.position.distance_3d(b.position))
            self._links[key] = st
        return st

    def link_pathloss_db(self, a: Device, b: Device) -> float:
        """Pathloss plus shadowing, worked out once per (a, b)."""
        key = (a.id, b.id)
        pl = self._pathloss.get(key)
        if pl is None:
            st = self.link(a, b)
            pl = pathloss_db(st.distance_3d, self.config.center_frequency_ghz, st.los)
            pl = self._pathloss[key] = pl + st.shadowing_db
        return pl

    def direction(self, src: Device, dst: Device) -> Vector:
        dx = dst.position.x - src.position.x
        dy = dst.position.y - src.position.y
        dz = dst.position.z - src.position.z
        r = math.sqrt(dx * dx + dy * dy + dz * dz)
        return (dx / r, dy / r, dz / r) if r > 0 else (1.0, 0.0, 0.0)

    def gain_db(self, owner: Device, toward: Device, observed: Device) -> float:
        """Gain of `owner`'s array steered toward `toward`, seen from
        `observed`: `beam_gain_db`, its steering frame kept per (owner, toward)."""
        key = (owner.id, toward.id, observed.id)
        g = self._gain_cache.get(key)
        if g is None:
            frame = self._frames.get(key[:2])
            if frame is None:
                frame = self._frames[key[:2]] = steering_frame(self.direction(owner, toward))
            target = self.direction(owner, observed)
            g = self._gain_cache[key] = frame_gain_db(owner.array, frame, target)
        return g

    def rx_power_dbm(self, em: Emission, receiver: Device,
                     rx_beam_toward: Optional[Device] = None) -> float:
        """Received power, the rule every `LinkTable` entry is filled by:
        power plus both antenna gains (0 dB unbeamed; rx_beam_toward=None is
        omni reception) minus `link_pathloss_db`, summed in that order."""
        source, target = em.source, em.beam_target
        key = (source.id, target.id if target else None, receiver.id,
               rx_beam_toward.id if rx_beam_toward else None, em.tx_power_dbm)
        p = self._rx_cache.get(key)
        if p is None:
            tx_gain = self.gain_db(source, target, receiver) if target is not None else 0.0
            rx_gain = (self.gain_db(receiver, rx_beam_toward, source)
                       if rx_beam_toward is not None else 0.0)
            p = self._rx_cache[key] = (em.tx_power_dbm + tx_gain + rx_gain
                                       - self.link_pathloss_db(source, receiver))
        return p

    def link_table(self, receiver: Device, rx_beam_toward: Optional[Device] = None) -> LinkTable:
        key = (receiver.id, rx_beam_toward.id if rx_beam_toward is not None else None)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = LinkTable(self, receiver, rx_beam_toward)
        return table

    def aligned_rx_power_dbm(self, site: Device, user: Device) -> float:
        """Power `user` receives from `site` at full power, beams aimed at each other."""
        return (
            self.config.tx_power_dbm
            + self.gain_db(site, user, user)
            + self.gain_db(user, site, site)
            - self.link_pathloss_db(site, user)
        )

    # -- emissions --------------------------------------------------------

    def link_key(self, source: Device, target: Optional[Device], rat: str,
                 tx_power_dbm: Optional[float] = None) -> int:
        """The key of the link from `source` beamed at `target`, at `tx_power_dbm` (None:
        the configured power), in `rat`, registered on first call: a MAC's, when it is built."""
        power = self.config.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
        link = (source.id, target.id if target is not None else "", power, rat)
        key = self._link_keys.get(link)
        if key is None:
            key = self._link_keys[link] = len(self._link_emissions)
            self._link_emissions.append(Emission(source, power, target, 0, 0, rat, key))
            for table in self._tables.values():
                table.lin.append(None)
            for obj in self._backoffs:
                obj.sense.append(None)
        return key

    def add_emission(self, key: int, end: int, at_end: Callable[[Emission], None],
                     payload: object = None) -> Emission:
        """Put an emission carrying `payload` on link `key` on the air from now to `end`;
        its `_end` ends it and calls `at_end(emission)`. An emission ending now (its end
        event may still be due) does not overlap it, so neither lists the other."""
        link = self._link_emissions[key]
        start = self.engine.now
        assert start < end
        eid = self._next_eid
        self._next_eid = eid + 1
        interferers = []
        em = Emission(link.source, link.tx_power_dbm, link.beam_target, start, end, link.rat, key,
                      eid, interferers, at_end, self, payload)
        if link.eid < 0:  # the link's first emission
            self._link_emissions[key] = em
            for obj in self._backoffs:
                obj.sense[key] = obj._sense_entry(obj.table, em)
        active = self.active
        for other in active.values():  # in eid order
            if other.end > start:
                interferers.append(other)
                other.interferers.append(em)
        active[eid] = em
        self.ledger.record(link.source.operator, start, end)
        self.engine.schedule(em._end, end)
        self._notify(em, True)
        return em

    def add_listener(self, obj) -> None:
        self._listeners.append(obj)

    def remove_listener(self, obj) -> None:
        self._listeners.remove(obj)

    def _notify(self, em: Emission, rising: bool) -> None:
        """Settle each `Backoff` listener's sensing as `em` starts or ends,
        re-sensing it in full (`medium_busy()`) only where the edge can flip
        it. A start can only make a counting listener busy: a loud `em` (its
        `sense` entry at `ed_threshold_lin`) freezes it at once as its
        witness, a quiet one adds its entry to its `_bound`, and only once
        that reaches `ed_threshold_lin` is it re-sensed, by medium_changed();
        its own emission adds 0.0. An end can only make a waiting (WAIT_IDLE)
        one idle, and not while its `_witness` other than `em` is on the air:
        one it can is re-sensed here and, sensing idle, starts its countdown.
        See `Backoff` for why this is exact. None of medium_changed(),
        medium_busy(), _start_countdown() and _freeze() may (un)register."""
        if rising:
            key = em.link_key
            for obj in self._listeners:
                if obj.state != WAIT_IDLE:
                    lin = obj.sense[key]
                    if lin >= obj.ed_threshold_lin:
                        obj._witness = em
                        obj._freeze()
                    else:
                        bound = obj._bound + lin
                        if bound < obj.ed_threshold_lin:
                            obj._bound = bound
                        else:
                            obj.medium_changed()
        else:
            for obj in self._listeners:
                if obj.state == WAIT_IDLE:
                    witness = obj._witness
                    if (witness is None or witness is em) and not obj.medium_busy():
                        obj._start_countdown()

    # -- sensing & SINR ---------------------------------------------------

    def received_now(
        self, device: Device, rx_beam_toward: Optional[Device] = None
    ) -> list[tuple[Emission, float]]:
        """(emission, rx dBm) for every active emission not sourced by device."""
        return [(em, self.rx_power_dbm(em, device, rx_beam_toward))
                for em in self.active.values() if em.source is not device]

    def sensed_power_dbm(
        self, device: Device, rx_beam_toward: Optional[Device] = None
    ) -> float:
        """Aggregate power of the active emissions not sourced by `device`,
        summed in eid order."""
        table = self.link_table(device, rx_beam_toward)
        total = 0.0
        for em in self.active.values():
            if em.source is not device:
                total += table.read(em.link_key)
        return lin_to_db(total) if total > 0 else -math.inf

    def window_emissions(self, table: LinkTable, w_start: int, w_end: int) -> list[tuple]:
        """(eid, start, end, linear power at `table`) of every emission on
        the air somewhere in the half-open window [w_start, w_end) and not
        sourced by the table's receiver, in eid order. A window starting more
        than `_retain_ns` before now would miss pruned emissions: ValueError."""
        now = self.engine.now
        if w_start < now - self._retain_ns:
            raise ValueError(f"window [{w_start}, {w_end}) starts before {now} - {self._retain_ns}")
        device, lins = table.receiver, table.lin
        ems = []
        for em in self.active.values():
            if em.start < w_end and em.end > w_start and em.source is not device:
                key = em.link_key
                ems.append((em.eid, em.start, em.end, lins[key] or table.read(key)))
        for em in reversed(self._ended):  # end order: stop at the first one out
            if em.end <= w_start:
                break
            if em.start < w_end and em.source is not device:
                key = em.link_key
                ems.append((em.eid, em.start, em.end, lins[key] or table.read(key)))
        ems.sort()  # an ended emission may have started after an active one
        return ems

    def max_sensed_power_dbm(
        self,
        device: Device,
        w_start: int,
        w_end: int,
        rx_beam_toward: Optional[Device] = None,
    ) -> float:
        """Max aggregate power over the half-open window [w_start, w_end),
        summed in eid order at each point where an emission starts
        (`peak_power_lin`); see `window_emissions` for the window's bound."""
        ems = self.window_emissions(self.link_table(device, rx_beam_toward), w_start, w_end)
        best = peak_power_lin(ems, w_start)
        return lin_to_db(best) if best > 0 else -math.inf

    def effective_sinr_db(self, sig: Emission, table: LinkTable) -> float:
        """Duration-weighted linear-mean SINR over the lifetime of `sig`, on the
        air or ending, at the receiver's `table` (its receiver and rx beam).

        Interference is piecewise constant, so integrating per overlap
        segment is exact. Floats: a segment's interference is the `+=` sum
        from 0 of the interferers on the air all through it, in eid order;
        the segments' `(t1 - t0) * s_lin / (noise + i_lin)` are added in time
        order, never merged. No sum uses `sum()` (compensated since 3.12).
        """
        start, end = sig.start, sig.end
        receiver, lins = table.receiver, table.lin
        s_lin = lins[sig.link_key] or table.read(sig.link_key)
        noise = self.noise_lin
        i_lin = 0.0
        heard = False
        for em in sig.interferers:  # all overlap the signal
            if em.source is not receiver:
                if em.start > start or em.end < end:
                    break  # not on the air for the whole signal: integrate
                i_lin += lins[em.link_key] or table.read(em.link_key)
                heard = True
        else:
            if not heard:
                return 10.0 * log10(s_lin / noise)
            # One segment: the loop below would add it to 0.0, which is exact.
            return 10.0 * log10((end - start) * s_lin / (noise + i_lin) / (end - start))
        infs, edges = [], {end}  # edges: the segments' ends, each in (start, end]
        for em in sig.interferers:
            if em.source is not receiver:
                infs.append((em.start, em.end, lins[em.link_key] or table.read(em.link_key)))
                if em.start > start:
                    edges.add(em.start)
                if em.end < end:
                    edges.add(em.end)
        acc, t0 = 0.0, start
        for t1 in sorted(edges):
            i_lin = 0.0
            for i_start, i_end, lin in infs:
                if i_start <= t0 and i_end >= t1:
                    i_lin += lin
            acc += (t1 - t0) * s_lin / (noise + i_lin)
            t0 = t1
        return 10.0 * log10(acc / (end - start))
