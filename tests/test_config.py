import math
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from coexsim import nru, run_once
from coexsim.config import ACCESS_MODES, CampaignConfig, ConfigError, parse_config, validate

BOUNDED = [f for f in fields(CampaignConfig) if f.name != "access_sweep"]


def write(tmp_path, text):
    p = tmp_path / "campaign.cfg"
    p.write_text(text)
    return str(p)


def test_defaults_match_study_parameters():
    cfg = CampaignConfig()
    assert cfg.center_frequency_ghz == 58.0
    assert cfg.bandwidth_ghz == 2.16
    assert cfg.tx_power_dbm == 17.0
    assert cfg.gnb_ed_threshold_dbm == -79.0
    assert cfg.ue_ed_threshold_dbm == -69.0
    assert cfg.wigig_preamble_threshold_dbm == -89.0
    assert cfg.cca_slot_us == 5.0
    assert cfg.defer_us == 8.0
    assert cfg.max_cot_ms == 9.0
    assert (cfg.cws_min, cfg.cws_max) == (15, 1023)
    assert cfg.cat2_defer_us == 25.0
    assert (cfg.duty_on_ms, cfg.duty_off_ms) == (9.0, 9.0)
    assert cfg.load_mbps == 50.0 and cfg.packet_bytes == 1500
    assert cfg.duration_s == 1.5
    assert cfg.sites_per_operator == 3 and cfg.users_per_operator == 12


def test_parse_applies_overrides_and_comments(tmp_path):
    path = write(
        tmp_path,
        """
        # reduced scenario
        sites_per_operator = 1
        users_per_operator = 4   # per operator
        load_mbps = 25
        gnb_ed_threshold_dbm = −79
        """,
    )
    cfg = parse_config(path)
    assert cfg.sites_per_operator == 1
    assert cfg.load_mbps == 25.0
    assert cfg.gnb_ed_threshold_dbm == -79.0


def test_unknown_key_names_the_key(tmp_path):
    path = write(tmp_path, "bandwidht_ghz = 2.16\n")
    with pytest.raises(ConfigError, match="bandwidht_ghz"):
        parse_config(path)


def test_repeated_key_names_the_key_and_both_lines(tmp_path):
    path = write(tmp_path, "load_mbps = 10\n# a comment\nload_mbps = 20\n")
    with pytest.raises(ConfigError, match=r":3: key 'load_mbps' repeats line 1$"):
        parse_config(path)


def test_mac_lead_slots_bound_is_the_feedback_delay():
    """config cannot import nru at module level, so the field line writes
    FB_DELAY_SLOTS out; the two must not drift apart."""
    (field,) = [f for f in fields(CampaignConfig) if f.name == "mac_lead_slots"]
    assert field.metadata["bound"][1] == nru.FB_DELAY_SLOTS


def test_malformed_line_reports_location(tmp_path):
    path = write(tmp_path, "load_mbps 50\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config(path)


def test_malformed_value_names_the_key(tmp_path):
    path = write(tmp_path, "load_mbps = fast\n")
    with pytest.raises(ConfigError, match="load_mbps"):
        parse_config(path)


@pytest.mark.parametrize(
    "line", ["load_mbps = 50 200", "duration_s = 1.5 s", "gnb_ed_threshold_dbm = −79 dBm"]
)
def test_numeric_value_must_be_one_token(tmp_path, line):
    key = line.split()[0]
    path = write(tmp_path, line + "\n")
    with pytest.raises(ConfigError, match=f"malformed value for key '{key}'"):
        parse_config(path)


@pytest.mark.parametrize("key", ["load_mbps", "operator_b"])
def test_empty_value_names_the_key(tmp_path, key):
    path = write(tmp_path, f"{key} =\n")
    with pytest.raises(ConfigError, match=f"empty value for key '{key}'"):
        parse_config(path)


def test_out_of_range_value_rejected(tmp_path):
    path = write(tmp_path, "gnb_ed_threshold_dbm = -200\n")
    with pytest.raises(ConfigError, match="gnb_ed_threshold_dbm"):
        parse_config(path)


def test_tx_power_capped_at_regulatory_limit(tmp_path):
    path = write(tmp_path, "tx_power_dbm = 23\n")
    with pytest.raises(ConfigError, match="tx_power_dbm"):
        parse_config(path)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/campaign.cfg")


def test_six_access_modes_plus_baseline():
    assert set(ACCESS_MODES) == {
        "On/On", "OnOff/OnOff", "Cat4/On", "Cat4/Cat2", "Cat3/On", "Cat3/Cat2",
    }
    cfg = CampaignConfig(access_sweep=",".join(ACCESS_MODES) + ",WiGig-only")
    assert len(cfg.sweep_labels()) == 7


def test_for_label_builds_baseline_and_coexistence():
    cfg = CampaignConfig()
    base = cfg.for_label("WiGig-only")
    assert base.label == "WiGig-only"
    assert base.technologies() == {"A": "WiGig", "B": "WiGig"}
    coex = cfg.for_label("Cat3/On")
    assert coex.label == "Cat3/On"
    assert coex.technologies()["B"] == "NR-U"
    with pytest.raises(ConfigError):
        cfg.for_label("Cat5/On")


def test_unknown_sweep_label_rejected():
    with pytest.raises(ConfigError, match="access_sweep"):
        validate(CampaignConfig(access_sweep="Cat4/Cat2,bogus"))


@pytest.mark.parametrize("sweep", ["On/On,On/On", "WiGig-only, Cat4/Cat2,WiGig-only "])
def test_sweep_label_listed_twice_rejected(tmp_path, sweep):
    # Both runs of a repeated label would write one run directory.
    path = tmp_path / "c.cfg"
    path.write_text(f"access_sweep = {sweep}\n")
    with pytest.raises(ConfigError, match="listed twice in key 'access_sweep'"):
        parse_config(str(path))
    validate(CampaignConfig(access_sweep="On/On,Cat4/Cat2,WiGig-only"))


def test_invalid_access_mode_rejected():
    with pytest.raises(ConfigError, match="nru_access"):
        validate(CampaignConfig(nru_access="Cat9"))


def test_config_hash_ignores_sweep_but_not_parameters():
    a = CampaignConfig()
    assert a.config_hash() == CampaignConfig(access_sweep="On/On").config_hash()
    assert a.config_hash() != CampaignConfig(load_mbps=60.0).config_hash()


def test_duration_ns_integer():
    assert CampaignConfig(duration_s=1.5).duration_ns == 1_500_000_000


def test_load_that_rounds_packet_spacing_to_zero_rejected(tmp_path):
    # 1 B at 100 Gbit/s is 0.08 ns apart: the flow would loop at t = 0.
    path = write(tmp_path, "load_mbps = 100000\npacket_bytes = 1\n")
    with pytest.raises(ConfigError, match="load_mbps"):
        parse_config(path)
    validate(CampaignConfig(load_mbps=100000.0, packet_bytes=7))  # 0.56 ns rounds to 1


def test_site_rows_out_of_reach_of_the_floor_rejected():
    # Rows at y = 6.67 / 13.33 m; on a 1 m deep floor no drop is within reach.
    with pytest.raises(ConfigError, match="max_site_distance_m"):
        validate(CampaignConfig(floor_y=1.0, max_site_distance_m=1.0))
    with pytest.raises(ConfigError, match="max_site_distance_m"):
        validate(CampaignConfig(floor_y=1.0, max_site_distance_m=12.33))  # only a tangent point
    validate(CampaignConfig(floor_y=1.0, max_site_distance_m=13.0))


@pytest.mark.parametrize("f", BOUNDED, ids=lambda f: f.name)
def test_every_key_declares_a_bound_that_validate_enforces(f):
    bound = f.metadata.get("bound")
    assert bound, f"key '{f.name}' declares no bound"
    if isinstance(f.default, str):
        assert f.default in bound
        outside = ["bogus"]
    else:
        lo, hi = bound
        assert lo <= f.default <= hi
        if isinstance(f.default, int):
            outside = [lo - 1, hi + 1]
        else:
            outside = [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    for value in outside:
        with pytest.raises(ConfigError, match=f"key '{f.name}'"):
            validate(CampaignConfig(**{f.name: value}))


def test_ack_timeout_due_by_the_ack_end_rejected():
    # The ACK ends sifs + ack after the frame. A timeout due by then settles
    # the frame first, and the late ACK would settle it a second time.
    for sifs, ack, timeout in ((3.0, 1.0, 4.0), (3.0, 1.0, 3.5), (38.6, 1.0, 10.0), (3.0, 27.1, 10.0)):
        with pytest.raises(ConfigError, match="ack_timeout_us"):
            validate(CampaignConfig(sifs_us=sifs, ack_us=ack, ack_timeout_us=timeout))
    validate(CampaignConfig(ack_timeout_us=4.001))


def test_mac_lead_bound_is_the_feedback_delay():
    (lead,) = (f for f in fields(CampaignConfig) if f.name == "mac_lead_slots")
    assert lead.metadata["bound"][1] == nru.FB_DELAY_SLOTS


def test_mac_lead_beyond_the_feedback_delay_rejected():
    # A lead of 5 reserves HARQ feedback in slots that are already planned.
    with pytest.raises(ConfigError, match="mac_lead_slots"):
        validate(CampaignConfig(mac_lead_slots=5))
    validate(CampaignConfig(mac_lead_slots=4))


# Per overhead, a bandwidth at which an MCS-0 symbol carries no whole byte,
# and the next one up (0.1 MHz more), at which it carries one.
@pytest.mark.parametrize("overhead, refused_ghz, accepted_ghz", [
    (0.1, 0.0448, 0.0449), (0.75, 0.0059, 0.0060), (1.0, 0.0044, 0.0045),
])
def test_an_nru_symbol_without_a_whole_byte_at_mcs_0_is_refused(overhead, refused_ghz, accepted_ghz):
    """The gNB fits data in a slot only if a symbol carries a whole byte at
    the lowest MCS; whether a UE falls to it must not decide if a run works."""
    se = nru.MCS_TABLE[0][1]
    assert nru.symbol_capacity_bytes(se, refused_ghz * 1e9, overhead) == 0
    assert nru.symbol_capacity_bytes(se, accepted_ghz * 1e9, overhead) == 1
    cfg = CampaignConfig(nru_overhead=overhead, bandwidth_ghz=refused_ghz)
    for refused in (cfg, cfg.for_label("On/On"), replace(cfg, access_sweep="WiGig-only,On/On")):
        with pytest.raises(ConfigError, match="'bandwidth_ghz' and 'nru_overhead'"):
            validate(refused)
    validate(cfg.for_label("WiGig-only"))  # no NR-U symbol is sent
    validate(replace(cfg, bandwidth_ghz=accepted_ghz))


def _bounded(f):
    """Every value of field `f`'s bound, its endpoints included."""
    bound = f.metadata["bound"]
    if isinstance(f.default, str):
        return st.sampled_from(bound)
    if isinstance(f.default, int):
        return st.integers(*bound)
    return st.floats(*bound)


# Held so that a run stays short: at most 12 users per operator, 1 ms
# simulated, and at most about 100,000 packets/s per flow (load_mbps is
# drawn under a cap set by packet_bytes).
HELD = {"users_per_operator", "duration_s", "load_mbps"}


@st.composite
def bounded_configs(draw):
    values = {f.name: draw(_bounded(f)) for f in fields(CampaignConfig)
              if "bound" in f.metadata and f.name not in HELD}
    values["users_per_operator"] = draw(st.integers(1, 12))
    values["load_mbps"] = draw(st.floats(0.001, min(100000.0, 0.8 * values["packet_bytes"])))
    label = draw(st.sampled_from([*ACCESS_MODES, "WiGig-only"]))
    return CampaignConfig(duration_s=0.001, **values).for_label(label)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=bounded_configs(), seed=st.integers(1, 3))
@example(cfg=CampaignConfig(bandwidth_ghz=0.001, nru_overhead=0.1, duration_s=0.02)
         .for_label("Cat4/Cat2"), seed=1)
def test_a_config_within_its_bounds_runs_or_is_refused(cfg, seed):
    """Every config that `validate()` accepts runs to its end; any other is
    refused with a ConfigError, before or at the start of the run."""
    try:
        result = run_once(cfg, seed)
    except ConfigError:
        return
    assert result.event_count >= 0
