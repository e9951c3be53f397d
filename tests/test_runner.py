import json
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from coexsim import CampaignConfig, ConfigError, emit_report, parse_config, run_campaign, run_once
from coexsim.cli import main
from coexsim.engine import Engine
from coexsim.metrics import packet_conservation
from coexsim.radio import RadioEnvironment
from coexsim.runner import TRACES

REDUCED = dict(sites_per_operator=1, users_per_operator=4, duration_s=0.02)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REDUCED_CAMPAIGN = replace(parse_config(str(ROOT / "scripts" / "reduced_campaign.cfg")), duration_s=0.05)


def src_env():
    """This environment with the checkout's sources first on the import path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}


def reduced(label="Cat4/Cat2", **kw):
    return replace(CampaignConfig().for_label(label), **{**REDUCED, **kw})


def read_tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_run_once_is_deterministic(tmp_path):
    cfg = reduced()
    r1 = run_once(cfg, 3, out_dir=str(tmp_path / "x"))
    r2 = run_once(cfg, 3, out_dir=str(tmp_path / "y"))
    assert r1.occupancy == r2.occupancy
    assert r1.goodput_bps == r2.goodput_bps
    assert r1.event_count == r2.event_count
    assert read_tree(tmp_path / "x") == read_tree(tmp_path / "y")


def test_seeds_change_outcomes():
    cfg = reduced()
    assert run_once(cfg, 1).occupancy != run_once(cfg, 2).occupancy


def test_wigig_only_baseline_has_no_nru_emissions(emission_log):
    r = run_once(reduced("WiGig-only"), 1, traces=("cam",))
    assert emission_log, "baseline run must put frames on the air"
    assert all(em.rat == "wigig" for em in emission_log)
    assert r.technologies == {"A": "WiGig", "B": "WiGig"}


def test_packets_are_conserved_per_flow():
    r = run_once(reduced(), 1)
    for flow in r.flows:
        generated, delivered, lost, pending = packet_conservation(flow)
        assert generated == delivered + lost + pending
        assert generated > 0


@pytest.mark.parametrize("label", parse_config(str(ROOT / "scripts" / "full_campaign.cfg")).sweep_labels())
def test_no_device_starts_an_emission_before_its_last_one_ends(emission_log, label):
    """Half-duplex: on the full floor, every device's emissions follow one
    another on the air, each starting at or after the end of the one before."""
    run_once(replace(CampaignConfig().for_label(label), duration_s=0.05), 1)
    last_end = {}
    for em in emission_log:  # eid order is start order
        device = em.source.id
        assert em.start >= last_end.get(device, 0), f"{device} overlaps itself at {em.start}"
        last_end[device] = em.end
    assert len(emission_log) > 1000 and len(last_end) >= 12


LINK_GRAPH_CONFIGS = {name: parse_config(str(ROOT / "scripts" / f"{name}.cfg"))
                      for name in ("full_campaign", "non_default")}


@pytest.mark.parametrize("config", list(LINK_GRAPH_CONFIGS))
@pytest.mark.parametrize("label", LINK_GRAPH_CONFIGS["full_campaign"].sweep_labels())
def test_every_link_is_registered_before_the_loop_starts(monkeypatch, emission_log, config, label):
    """The link graph is complete at build: no link key is registered once
    `run_until` starts, and every emission carries the key registered for
    its (source, beam target, power, rat). Once ended, none keeps its
    interferers or `at_end`."""
    looping, late = [], []
    run_until, link_key = Engine.run_until, RadioEnvironment.link_key

    def recording_run_until(engine, t_end):
        looping.append(True)
        return run_until(engine, t_end)

    def recording_link_key(env, *args):
        n = len(env._link_emissions)
        key = link_key(env, *args)
        if looping and len(env._link_emissions) > n:
            late.append(args)
        return key

    monkeypatch.setattr(Engine, "run_until", recording_run_until)
    monkeypatch.setattr(RadioEnvironment, "link_key", recording_link_key)
    cfg = LINK_GRAPH_CONFIGS[config]
    env = run_once(replace(cfg.for_label(label), duration_s=0.05), 1).env
    assert looping and late == []
    assert len(emission_log) > 500
    for em in emission_log:
        link = (em.source.id, em.beam_target.id, em.tx_power_dbm, em.rat)
        assert env._link_keys[link] == em.link_key
        if em.eid not in env.active:
            assert em.interferers is None and em.at_end is None


def test_run_outputs_have_no_wallclock(tmp_path):
    run_once(reduced(), 1, out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "run.json").read_text())
    assert "wall" not in json.dumps(meta).lower()
    assert set(meta) == {
        "label", "seed", "config_hash", "technologies", "event_count",
    }


def test_campaign_layout_and_report(tmp_path):
    cfg = reduced()
    cfg = replace(cfg, access_sweep="Cat4/Cat2,WiGig-only")
    out = str(tmp_path / "camp")
    outcomes = run_campaign(cfg, [1, 2], out, parallelism=1, verbose=False)
    assert all(err is None for _l, _s, err, _w in outcomes)
    assert sorted(os.listdir(os.path.join(out, "runs"))) == [
        "Cat4-Cat2_seed1", "Cat4-Cat2_seed2", "WiGig-only_seed1", "WiGig-only_seed2",
    ]
    report = str(tmp_path / "boxstats.csv")
    emit_report(out, report)
    lines = open(report).read().strip().splitlines()
    assert lines[0] == "config,metric,technology,min,p5,p50,p95,max"
    labels = {ln.split(",")[0] for ln in lines[1:]}
    assert labels == {"Cat4/Cat2", "WiGig-only"}
    metrics = {ln.split(",")[1] for ln in lines[1:]}
    assert metrics == {"occupancy", "goodput_mbps", "latency_us"}


def test_report_rejects_mixed_configs_per_label(tmp_path):
    out = str(tmp_path / "camp")
    run_campaign(reduced(), [1], out, verbose=False)
    # Same label, different parameters: the report must refuse to pool them.
    run_dir = os.path.join(out, "runs", "Cat4-Cat2_seed2")
    run_once(reduced(load_mbps=10.0), 2, out_dir=run_dir)
    from coexsim import ConfigError

    with pytest.raises(ConfigError, match="mixed"):
        emit_report(out, str(tmp_path / "box.csv"))


def test_report_names_each_label_missing_a_seed(tmp_path):
    cfg = reduced(duration_s=0.005, access_sweep="Cat4/Cat2,WiGig-only")
    run_campaign(cfg, [1, 2], str(tmp_path), verbose=False)
    shutil.rmtree(tmp_path / "runs" / "Cat4-Cat2_seed2")
    with pytest.raises(ConfigError, match=r"\[\('Cat4/Cat2', 2\)\]"):
        emit_report(str(tmp_path), str(tmp_path / "box.csv"))


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(
        "sites_per_operator = 1\nusers_per_operator = 2\nduration_s = 0.01\n"
    )
    out = tmp_path / "run1"
    rc = main(["run", "--config", str(cfg_path), "--seed", "1",
               "--trace", "cam,mac", "--out", str(out)])
    assert rc == 0
    files = set(os.listdir(out))
    assert {"metrics.csv", "scenario.csv", "run.json", "cam_trace.csv",
            "mac_trace.csv"} <= files

    camp = tmp_path / "camp"
    rc = main(["campaign", "--config", str(cfg_path), "--seeds", "2",
               "--out", str(camp)])
    assert rc == 0
    rc = main(["report", "--in", str(camp), "--out", str(tmp_path / "box.csv")])
    assert rc == 0
    assert (tmp_path / "box.csv").exists()


def test_rerun_without_a_trace_removes_the_stale_trace_file(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("sites_per_operator = 1\nusers_per_operator = 2\nduration_s = 0.002\n")
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    run = ["run", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]
    assert main(run + ["--trace", "cam"]) == 0
    assert (out / "cam_trace.csv").exists()
    assert main(run) == 0
    assert sorted(os.listdir(out)) == ["metrics.csv", "notes.txt", "run.json", "scenario.csv"]


def test_report_takes_each_device_operator_from_scenario_csv(tmp_path):
    run_campaign(reduced("Cat4/Cat2", duration_s=0.01), [1, 2], str(tmp_path), verbose=False)
    emit_report(str(tmp_path), str(tmp_path / "want.csv"))
    # Rename every device to an id that carries no operator prefix.
    for run_dir in (tmp_path / "runs").iterdir():
        for name in ("metrics.csv", "scenario.csv"):
            path = run_dir / name
            path.write_text(path.read_text().replace("A-", "dev-a-").replace("B-", "dev-b-"))
    emit_report(str(tmp_path), str(tmp_path / "got.csv"))
    assert (tmp_path / "got.csv").read_text() == (tmp_path / "want.csv").read_text()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("tx_power_dbm = 40\n")
    rc = main(["run", "--config", str(cfg_path), "--seed", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "tx_power_dbm" in capsys.readouterr().err


def test_cli_rejects_unknown_trace(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("duration_s = 0.01\n")
    rc = main(["run", "--config", str(cfg_path), "--seed", "1",
               "--trace", "frames,bogus", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_run_once_rejects_unknown_trace_before_running(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=r"\['bogus', 'zzz'\]"):
        run_once(reduced(), 1, out_dir=str(out), traces=("cam", "zzz", "bogus"))
    assert not out.exists()


def test_run_once_validates_its_config_before_building_anything(tmp_path):
    # A lead beyond the feedback delay would lose every HARQ feedback (F7).
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="mac_lead_slots"):
        run_once(reduced(mac_lead_slots=8), 1, out_dir=str(out))
    assert not out.exists()


def test_campaign_refuses_an_invalid_config_before_writing_any_run(tmp_path):
    out = tmp_path / "campaign"
    with pytest.raises(ConfigError, match="mac_lead_slots"):
        run_campaign(reduced(mac_lead_slots=8), [1, 2], str(out), parallelism=2, verbose=False)
    assert not out.exists()


@pytest.mark.parametrize("label", ["Cat4/Cat2", "On/On", "OnOff/OnOff"])
def test_gnb_with_fourteen_ues_runs(label):
    # One HARQ feedback symbol per UE: 14 fill a slot exactly.
    r = run_once(reduced(label, users_per_operator=14, duration_s=0.002), 1)
    assert r.event_count > 0


def test_gnb_with_fifteen_ues_is_rejected_before_the_run(tmp_path):
    from coexsim import ConfigError

    cfg = reduced(users_per_operator=15, duration_s=0.002)
    with pytest.raises(ConfigError, match="users_per_operator"):
        run_once(cfg, 1)
    [(_label, _seed, err, _wall)] = run_campaign(cfg, [1], str(tmp_path), verbose=False)
    assert "users_per_operator" in err
    error = (tmp_path / "runs" / "Cat4-Cat2_seed1" / "error.txt").read_text()
    assert error.startswith("ConfigError:") and "users_per_operator" in error
    with pytest.raises(ConfigError, match="Cat4-Cat2_seed1"):
        emit_report(str(tmp_path), str(tmp_path / "box.csv"))


def test_rerun_into_the_same_campaign_dir_replaces_the_failed_run(tmp_path):
    [(_l, _s, err, _w)] = run_campaign(
        reduced(users_per_operator=15, duration_s=0.002), [1], str(tmp_path), verbose=False
    )
    assert err is not None
    [(_l, _s, err, _w)] = run_campaign(reduced(duration_s=0.002), [1], str(tmp_path), verbose=False)
    assert err is None
    assert sorted(os.listdir(tmp_path / "runs")) == ["Cat4-Cat2_seed1"]
    assert not (tmp_path / "runs" / "Cat4-Cat2_seed1" / "error.txt").exists()
    emit_report(str(tmp_path), str(tmp_path / "box.csv"))
    # A run interrupted before its swap leaves its partial sibling behind.
    runs = tmp_path / "runs"
    shutil.copytree(runs / "Cat4-Cat2_seed1", runs / "Cat4-Cat2_seed1.partial")
    with pytest.raises(ConfigError, match="seed1.partial"):
        emit_report(str(tmp_path), str(tmp_path / "box.csv"))


@pytest.mark.parametrize("name", ["run.json", "metrics.csv", "scenario.csv"])
def test_report_refuses_a_run_missing_a_result_file(tmp_path, capsys, name):
    run_campaign(reduced(duration_s=0.002), [1], str(tmp_path), verbose=False)
    run_dir = tmp_path / "runs" / "Cat4-Cat2_seed1"
    (run_dir / name).unlink()
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "box.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{run_dir} has no complete result" in err


@pytest.mark.parametrize("make", [None, Path.touch], ids=["missing", "a-file"])
def test_report_on_no_directory_is_a_config_error(tmp_path, capsys, make):
    in_dir = tmp_path / "camp"
    if make is not None:
        make(in_dir)
    assert main(["report", "--in", str(in_dir), "--out", str(tmp_path / "box.csv")]) == 2
    assert capsys.readouterr().err == f"error: no run directory {in_dir}\n"
    assert not (tmp_path / "box.csv").exists()


def _tiny_config(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("sites_per_operator = 1\nusers_per_operator = 2\nduration_s = 0.002\n")
    return str(cfg_path)


@pytest.mark.parametrize("command", ["run", "campaign"])
def test_run_or_campaign_into_a_file_is_refused_before_any_run(tmp_path, capsys, monkeypatch,
                                                               command):
    out = tmp_path / "out"
    out.write_text("kept")
    monkeypatch.setattr(Engine, "run_until", lambda *args: pytest.fail("a run started"))
    args = ["--seed", "1"] if command == "run" else ["--seeds", "1"]
    assert main([command, "--config", _tiny_config(tmp_path), "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make output directory {out}")
    assert out.read_text() == "kept"


@pytest.mark.parametrize("where", ["a-directory", "in-a-file"])
def test_report_into_no_file_path_is_refused_before_pooling(tmp_path, capsys, where):
    (tmp_path / "camp").mkdir()  # holds no run: pooling would refuse that instead
    if where == "a-directory":
        out = tmp_path / "box.csv"
        out.mkdir()
        want = f"error: report output {out} is a directory"
    else:
        (tmp_path / "f").write_text("kept")
        out = tmp_path / "f" / "box.csv"
        want = f"error: cannot make output directory {tmp_path / 'f'}"
    assert main(["report", "--in", str(tmp_path / "camp"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(want)


def test_report_makes_its_missing_output_directory(tmp_path):
    run_campaign(reduced(duration_s=0.002), [1], str(tmp_path / "camp"), verbose=False)
    out = tmp_path / "new" / "deeper" / "box.csv"
    assert main(["report", "--in", str(tmp_path / "camp"), "--out", str(out)]) == 0
    assert out.read_text().startswith("config,metric,technology,")


def _keep_the_header(path):
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _drop_operator_a(run_json):
    meta = json.loads(run_json.read_text())
    del meta["technologies"]["A"]
    run_json.write_text(json.dumps(meta))


@pytest.mark.parametrize("damage", [
    pytest.param(lambda run_dir: (run_dir / "run.json").write_text(""), id="empty-run.json"),
    pytest.param(lambda run_dir: _keep_the_header(run_dir / "scenario.csv"),
                 id="scenario.csv-without-devices"),
    pytest.param(lambda run_dir: _drop_operator_a(run_dir / "run.json"),
                 id="scenario.csv-operator-not-in-run.json"),
])
def test_report_refuses_a_run_whose_files_disagree(tmp_path, capsys, damage):
    run_campaign(reduced(duration_s=0.002), [1], str(tmp_path), verbose=False)
    run_dir = tmp_path / "runs" / "Cat4-Cat2_seed1"
    damage(run_dir)
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "box.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run directory ") and str(run_dir) in err


def test_report_rejects_a_metrics_file_with_another_header(tmp_path):
    run_campaign(reduced(duration_s=0.002), [1], str(tmp_path), verbose=False)
    path = tmp_path / "runs" / "Cat4-Cat2_seed1" / "metrics.csv"
    path.write_text(path.read_text().replace("metric,scope,value", "metric,value,scope", 1))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        emit_report(str(tmp_path), str(tmp_path / "box.csv"))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("label", REDUCED_CAMPAIGN.sweep_labels())
def test_tracing_never_moves_the_model(tmp_path, label, seed):
    """Every trace on or every trace off, a run writes the same results.
    run.json is left out: a cam-traced run executes a `cot_end` event per
    bounded grant, so its event_count is higher."""
    cfg = REDUCED_CAMPAIGN.for_label(label)
    run_once(cfg, seed, out_dir=str(tmp_path / "plain"))
    run_once(cfg, seed, out_dir=str(tmp_path / "traced"), traces=tuple(TRACES))
    for name in ("metrics.csv", "scenario.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_import_loads_no_pool_and_no_statistics():
    code = "import sys, coexsim; print(sorted({'multiprocessing', 'statistics'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_forked_workers_inherit_no_run_state(tmp_path):
    cfg = reduced(duration_s=0.01, access_sweep="Cat4/Cat2,WiGig-only")
    run_once(cfg.for_label("Cat4/Cat2"), 1)  # so the workers fork from a process that has run
    trees = {}
    for par in (2, 1):
        run_campaign(cfg, [1, 2], str(tmp_path / f"par{par}"), parallelism=par, verbose=False)
        trees[par] = read_tree(tmp_path / f"par{par}")
    assert len(trees[1]) == 4 * 3
    assert trees[2] == trees[1]


def test_parallel_campaign_runs_from_a_stdin_script(tmp_path):
    # A worker that re-imports the main module cannot start from `python -`.
    script = f"""
import sys
from dataclasses import replace
from coexsim import CampaignConfig, run_campaign
cfg = replace(CampaignConfig(), sites_per_operator=1, users_per_operator=2, duration_s=0.005)
outcomes = run_campaign(cfg, [1, 2], {str(tmp_path)!r}, parallelism=2, verbose=False)
sys.exit(sum(err is not None for _l, _s, err, _w in outcomes))
"""
    proc = subprocess.Popen([sys.executable, "-"], stdin=subprocess.PIPE, env=src_env(),
                            text=True, start_new_session=True)
    try:
        proc.communicate(script, timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the script and its workers
        proc.communicate()
        raise
    assert proc.returncode == 0
    assert sorted(os.listdir(tmp_path / "runs")) == ["Cat4-Cat2_seed1", "Cat4-Cat2_seed2"]


def test_perfbench_tracer_still_traces_every_event():
    # perfbench's `run.py --trace 1` patches simulator names; a rename must fail here.
    code = """
from dataclasses import replace
import trace_layers
from coexsim import CampaignConfig, runner
tracer = trace_layers.Tracer()
tracer.install()
cfg = replace(CampaignConfig().for_label("Cat4/Cat2"), sites_per_operator=1, duration_s=0.005)
result = runner.run_once(cfg, 1)
print(result.event_count, tracer.check_events(result.event_count))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(SRC.parent / "perfbench")))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    events, failures = out.stdout.split(" ", 1)
    assert int(events) > 0
    assert failures.strip() == "[]"


def test_loop_opcodes_prints_the_total_then_the_top_functions():
    script = str(ROOT / "scripts" / "loop_opcodes.py")
    args = [sys.executable, script, str(ROOT / "scripts" / "reduced_campaign.cfg"),
            "--label", "WiGig-only", "--seed", "1", "--duration", "0.002"]
    outs = [subprocess.run(args + extra, env=src_env(), capture_output=True, text=True, timeout=60)
            for extra in ([], ["--top", "3"])]
    for out in outs:
        assert out.returncode == 0, out.stderr
    (total,) = outs[0].stdout.split()
    first, *rows = outs[1].stdout.splitlines()
    assert first == total and int(total) > 0
    assert len(rows) == 3
    counts = []
    for row in rows:
        qualname, where, n, calls = row.split("\t")
        assert re.fullmatch(r"\S+:\d+", where) and int(calls) > 0
        counts.append(int(n))
    assert counts == sorted(counts, reverse=True) and sum(counts) <= int(total)


def test_loop_opcodes_lists_the_same_unspecialised_sites_on_every_invocation():
    script = str(ROOT / "scripts" / "loop_opcodes.py")
    args = [sys.executable, script, str(ROOT / "scripts" / "reduced_campaign.cfg"),
            "--label", "WiGig-only", "--seed", "1", "--duration", "0.002", "--unspecialised", "5"]
    outs = [subprocess.run(args, env={**src_env(), "PYTHONHASHSEED": seed},
                           capture_output=True, text=True, timeout=60)
            for seed in ("0", "1")]
    for out in outs:
        assert out.returncode == 0, out.stderr
    assert outs[0].stdout == outs[1].stdout
    total, summary, *rows = outs[0].stdout.splitlines()
    name, executed = summary.split("\t")
    assert name == "unspecialised" and 0 < int(executed) <= int(total)
    assert 0 < len(rows) <= 5
    counts = []
    for row in rows:
        qualname, where, opname, arg, n = row.split("\t")
        assert re.fullmatch(r"\S+:\d+", where) and opname.endswith("_ADAPTIVE") and arg
        counts.append(int(n))
    assert counts == sorted(counts, reverse=True) and sum(counts) <= int(executed)


def test_run_coverage_lists_the_same_unexecuted_lines_on_every_invocation(tmp_path):
    """No run calls `metrics.packet_conservation`, so the listing names every
    line of it; and it repeats exactly, whatever the hash seed."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("access_sweep = Cat4/Cat2,WiGig-only\nsites_per_operator = 1\nusers_per_operator = 2\n")
    args = [sys.executable, str(ROOT / "scripts" / "run_coverage.py"), "--configs", str(cfg),
            "--campaign", str(cfg), "--seeds", "1", "--duration", "0.002"]
    outs = [subprocess.run(args, env={**src_env(), "PYTHONHASHSEED": seed},
                           capture_output=True, text=True, timeout=60)
            for seed in ("0", "1")]
    for out in outs:
        assert out.returncode == 0, out.stderr
    assert outs[0].stdout == outs[1].stdout
    listed = {}
    for row in outs[0].stdout.splitlines():
        where, qualname, _text = row.split("\t")
        name, line = where.split(":")
        listed.setdefault((name, qualname), set()).add(int(line))
    code = packet_conservation.__code__
    assert listed[("metrics.py", "packet_conservation")] == {
        line for _start, _end, line in code.co_lines() if line is not None
    }
    # The report ran: only box_stats' check of an empty sample is listed.
    assert len(listed[("metrics.py", "box_stats")]) == 1


def test_output_digests_against_a_digest_file_lists_each_difference(tmp_path):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("access_sweep = Cat4/Cat2,WiGig-only\nsites_per_operator = 1\nusers_per_operator = 4\n")
    args = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), str(cfg),
            "--seeds", "1", "--duration", "0.002"]

    def digests(*extra):
        return subprocess.run(args + list(extra), env=src_env(), capture_output=True, text=True,
                              timeout=60)

    made = digests()
    assert made.returncode == 0, made.stderr
    parent = json.loads(made.stdout)
    assert sorted(parent) == ["Cat4-Cat2_seed1", "WiGig-only_seed1"]
    (tmp_path / "same.json").write_text(made.stdout)
    same = digests("--against", str(tmp_path / "same.json"))
    assert (same.returncode, same.stdout) == (0, "identical: 2 runs\n"), same.stderr
    # Hand edits: one changed digest, one file the parent lacks, one changed
    # event count with its run.json.
    cat4, wigig = parent["Cat4-Cat2_seed1"], parent["WiGig-only_seed1"]
    cat4["files"]["metrics.csv"] = "0" * 64
    del wigig["files"]["mac_trace.csv"]
    wigig["files"]["run.json"] = "1" * 64
    wigig["event_count"] -= 5
    (tmp_path / "edited.json").write_text(json.dumps(parent))
    edited = digests("--against", str(tmp_path / "edited.json"))
    assert edited.returncode == 1, edited.stderr
    count = wigig["event_count"]
    assert edited.stdout.splitlines() == [
        "differs Cat4-Cat2_seed1 metrics.csv",
        "differs WiGig-only_seed1 mac_trace.csv",
        "differs WiGig-only_seed1 run.json",
        f"event_count WiGig-only_seed1 {count} -> {count + 5}",
    ]


def test_phase_times_on_one_tree_prints_every_metric_and_no_warning(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("sites_per_operator = 1\nusers_per_operator = 2\n")
    args = [sys.executable, str(ROOT / "scripts" / "phase_times.py"), str(SRC), str(SRC),
            "--config", str(cfg), "--label", "WiGig-only", "--duration", "0.002", "--pairs", "1"]
    out = subprocess.run(args, env=src_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    first, header, *rows = out.stdout.splitlines()
    assert first.startswith("WiGig-only at 0.002 s, seed 1, 1 pairs; events old [")
    assert header.split("\t")[0] == "metric"
    metrics = [row.split("\t") for row in rows[:5]]
    assert [m[0] for m in metrics] == ["import_s", "build_s", "loop_s", "post_loop_s", "peak_rss_mb"]
    for _name, old, new, ratio, lower in metrics:
        assert float(old) > 0 and float(new) > 0 and float(ratio) > 0
        assert lower in ("0 of 1", "1 of 1")
    assert [row.split(": (")[0] for row in rows[5:]] == [
        "gc.get_count() at return, old", "gc.get_count() at return, new"]
    assert "WARNING" not in out.stdout
