"""Campaign configuration: plain key=value files with audited defaults.

`CampaignConfig` is the only parameter source: every scenario parameter has
its one default and its bound on its field line, and the simulator
components read it directly, with time and frequency values taken from the
derived integer-nanosecond and Hz properties below. A config file only needs
to list deviations. Unknown keys and out-of-range values are rejected with a
diagnostic naming the key.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from .engine import MS, SEC, US
from .traffic import interarrival_ns

ACCESS_MODES = {
    "On/On": ("Cat1", "Cat1"),
    "OnOff/OnOff": ("OnOff", "OnOff"),
    "Cat4/On": ("Cat4", "Cat1"),
    "Cat4/Cat2": ("Cat4", "Cat2"),
    "Cat3/On": ("Cat3", "Cat1"),
    "Cat3/Cat2": ("Cat3", "Cat2"),
}

TECHNOLOGIES = ("WiGig", "NR-U")

# Site row of each operator (y, metres); sites spread along x on the floor.
ROW_Y = {"A": 6.67, "B": 13.33}


class ConfigError(ValueError):
    pass


def _key(default, *bound):
    """A field with its default and its bound: (lo, hi) for a number, the
    accepted values for a string. `validate` checks every bound."""
    return field(default=default, metadata={"bound": bound})


def _ns(name: str, unit: int) -> cached_property:
    """Field `name` converted to integer nanoseconds, computed once per config."""
    return cached_property(lambda cfg: round(getattr(cfg, name) * unit))


@dataclass(frozen=True)
class CampaignConfig:
    # Deployment
    floor_x: float = _key(60.0, 1.0, 1000.0)
    floor_y: float = _key(20.0, 1.0, 1000.0)
    sites_per_operator: int = _key(3, 1, 3)
    users_per_operator: int = _key(12, 1, 100)
    max_site_distance_m: float = _key(20.0, 1.0, 1000.0)
    operator_a: str = _key("WiGig", *TECHNOLOGIES)
    operator_b: str = _key("NR-U", *TECHNOLOGIES)
    nru_access: str = _key("Cat4/Cat2", *ACCESS_MODES)
    access_sweep: str = ""  # comma list of labels, may include "WiGig-only"
    # Radio
    center_frequency_ghz: float = _key(58.0, 0.1, 100.0)
    bandwidth_ghz: float = _key(2.16, 0.001, 15.0)
    tx_power_dbm: float = _key(17.0, -30.0, 17.0)  # 17 dBm regulatory maximum
    noise_figure_db: float = _key(7.0, 0.0, 20.0)
    # Traffic
    load_mbps: float = _key(50.0, 0.001, 100000.0)
    packet_bytes: int = _key(1500, 1, 65535)
    duration_s: float = _key(1.5, 0.001, 100.0)
    # Channel access
    gnb_ed_threshold_dbm: float = _key(-79.0, -120.0, 0.0)
    ue_ed_threshold_dbm: float = _key(-69.0, -120.0, 0.0)
    wigig_ed_threshold_dbm: float = _key(-79.0, -120.0, 0.0)
    wigig_preamble_threshold_dbm: float = _key(-89.0, -120.0, 0.0)
    cca_slot_us: float = _key(5.0, 1.0, 100.0)
    defer_us: float = _key(8.0, 1.0, 100.0)
    max_cot_ms: float = _key(9.0, 0.1, 9.0)
    cws_min: int = _key(15, 0, 1023)
    cws_max: int = _key(1023, 1, 4095)
    cat3_cws: int = _key(15, 0, 1023)
    cat2_defer_us: float = _key(25.0, 1.0, 1000.0)
    duty_on_ms: float = _key(9.0, 0.1, 1000.0)
    duty_off_ms: float = _key(9.0, 0.1, 1000.0)
    # NR-U MAC
    # At most nru.FB_DELAY_SLOTS, written out: nru imports config, so validate()
    # may import nru but a field line cannot. A longer lead reserves HARQ
    # feedback in slots already planned, so it is never sent.
    mac_lead_slots: int = _key(2, 1, 4)
    harq_max_tx: int = _key(4, 1, 16)
    mcs_margin_db: float = _key(1.0, 0.0, 10.0)
    nru_overhead: float = _key(0.75, 0.1, 1.0)
    # WiGig MAC
    wigig_retry_limit: int = _key(7, 1, 32)
    sifs_us: float = _key(3.0, 0.1, 100.0)
    ack_us: float = _key(1.0, 0.1, 100.0)
    ack_timeout_us: float = _key(10.0, 1.0, 1000.0)
    assoc_attempts: int = _key(5, 1, 100)
    # Derived values: not fields, so config_hash, == and replace ignore them.
    duration_ns = _ns("duration_s", SEC)
    cca_slot_ns = _ns("cca_slot_us", US)
    defer_ns = _ns("defer_us", US)
    max_cot_ns = _ns("max_cot_ms", MS)
    cat2_defer_ns = _ns("cat2_defer_us", US)
    duty_on_ns = _ns("duty_on_ms", MS)
    duty_off_ns = _ns("duty_off_ms", MS)
    sifs_ns = _ns("sifs_us", US)
    ack_ns = _ns("ack_us", US)
    ack_timeout_ns = _ns("ack_timeout_us", US)

    @cached_property
    def bandwidth_hz(self) -> float:
        return self.bandwidth_ghz * 1e9

    @property
    def label(self) -> str:
        if self.operator_a != "NR-U" and self.operator_b != "NR-U":
            return "WiGig-only"
        return self.nru_access

    def technologies(self) -> dict[str, str]:
        return {"A": self.operator_a, "B": self.operator_b}

    def config_hash(self) -> str:
        blob = ";".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name != "access_sweep"
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def sweep_labels(self) -> list[str]:
        if not self.access_sweep:
            return [self.label]
        return [s.strip() for s in self.access_sweep.split(",") if s.strip()]

    def for_label(self, label: str) -> "CampaignConfig":
        if label == "WiGig-only":
            return replace(self, operator_a="WiGig", operator_b="WiGig", access_sweep="")
        if label not in ACCESS_MODES:
            raise ConfigError(f"unknown access configuration '{label}'")
        return replace(self, operator_b="NR-U", nru_access=label, access_sweep="")


def _convert(key: str, raw: str, target_type: type):
    if not raw:
        raise ConfigError(f"empty value for key '{key}'")
    if target_type is str:
        return raw
    try:
        # int() and float() take one number and nothing else, so a trailing
        # unit or a second number is refused, not dropped.
        return target_type(raw.replace("−", "-"))
    except ValueError:
        raise ConfigError(f"malformed value for key '{key}': {raw!r}") from None


def validate(cfg: CampaignConfig) -> CampaignConfig:
    for f in fields(cfg):
        v, bound = getattr(cfg, f.name), f.metadata.get("bound")
        if bound is None:
            continue
        if isinstance(f.default, str):
            if v not in bound:
                raise ConfigError(f"value for key '{f.name}' must be one of {bound}")
        elif not bound[0] <= v <= bound[1]:
            raise ConfigError(f"value for key '{f.name}' out of range [{bound[0]}, {bound[1]}]: {v}")
    if cfg.cws_min > cfg.cws_max:
        raise ConfigError("value for key 'cws_min' exceeds 'cws_max'")
    # A timeout due by the ACK's end settles the frame before the ACK does.
    if cfg.ack_timeout_ns <= cfg.sifs_ns + cfg.ack_ns:
        raise ConfigError("value for key 'ack_timeout_us' must exceed sifs_us + ack_us")
    if interarrival_ns(cfg.packet_bytes, cfg.load_mbps * 1e6) < 1:
        raise ConfigError(f"value for key 'load_mbps' sends {cfg.packet_bytes} B packets 0 ns apart")
    # A user drop is redrawn until it lies within reach of an own site row.
    if max(ROW_Y.values()) - cfg.floor_y >= cfg.max_site_distance_m:
        raise ConfigError("value for key 'max_site_distance_m' reaches no floor point from a site row")
    labels = cfg.sweep_labels()
    for label in labels:
        if label != "WiGig-only" and label not in ACCESS_MODES:
            raise ConfigError(f"unknown label in key 'access_sweep': '{label}'")
        if labels.count(label) > 1:  # its runs would share one run directory
            raise ConfigError(f"label listed twice in key 'access_sweep': '{label}'")
    from .nru import MCS_TABLE, symbol_capacity_bytes  # here: nru imports config
    if any(label != "WiGig-only" for label in labels) and not symbol_capacity_bytes(
            MCS_TABLE[0][1], cfg.bandwidth_hz, cfg.nru_overhead):
        raise ConfigError("values for keys 'bandwidth_ghz' and 'nru_overhead' leave "
                          "an NR-U symbol at MCS 0 no whole byte")
    return cfg


def parse_config(path: str) -> CampaignConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    defaults = CampaignConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(defaults)}
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: malformed line (expected key = value)")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: key '{key}' repeats line {key_lines[key]}")
        key_lines[key] = lineno
        values[key] = _convert(key, raw, types[key])
    return validate(CampaignConfig(**values))
