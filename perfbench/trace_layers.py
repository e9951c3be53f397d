"""Span tracer for a traced benchmark operation.

``Tracer.install`` wraps coexsim's layer entry points by patching classes and
module functions in the current process only; the simulator source is not
modified. Wrappers do not reach ``spawn`` workers, so a traced campaign runs
its tasks in one process.

Coarse spans (op, campaign, run, setup, loop, write, report) are kept one by
one with start, end, parent span and run id. Hot calls, up to about 10^6 per
operation, are aggregated per (name, parent name, enclosing coarse span) as
count, inclusive time and self time. A span's self time is its duration minus
the time its child spans cover. Every event callback runs inside a span named
after the module that defined it, so each executed event shows up as one
callback span directly inside a loop span.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

from coexsim import radio, runner
from coexsim.channel_access import Cam, Cat2Cam, LbtCam
from coexsim.engine import Engine
from coexsim.metrics import OccupancyLedger, packet_conservation
from coexsim.nru import NruGnb, NruUe
from coexsim.radio import RadioEnvironment
from coexsim.wigig import WigigAp

clock = time.perf_counter_ns

# Layers whose self times partition the event loop, in report order.
LOOP_LAYERS = ("engine", "radio", "channel_access", "wigig", "nru", "traffic", "metrics")

# Frames are lists. Hot: [name, child_ns, coarse frame]. Coarse:
# [name, child_ns, itself, start_ns, span id, parent id].
NAME, CHILD, COARSE, START, SID, PARENT = range(6)


class Tracer:
    def __init__(self) -> None:
        root = ["op", 0, None, clock(), 0, None]
        root[COARSE] = root
        self.stack = [root]
        self.hot: dict[tuple[str, str, str], list[int]] = {}  # -> [count, incl, self]
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._next_id = 1
        self._callback_names: dict = {}  # code object -> span name

    # -- spans ---------------------------------------------------------------

    def hot_span(self, name: str, fn):
        stack, hot = self.stack, self.hot

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, parent[COARSE]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[CHILD] += dt
                own = dt - frame[CHILD]
                key = (name, parent[NAME], frame[COARSE][NAME])
                rec = hot.get(key)
                if rec is None:
                    rec = hot[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += own

        return span

    def open(self, name: str) -> list:
        parent = self.stack[-1]
        frame = [name, 0, None, clock(), self._next_id, parent[SID]]
        frame[COARSE] = frame
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> int:
        end = clock()
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {frame[NAME]} closed out of order")
        dt = end - frame[START]
        self.stack[-1][CHILD] += dt
        self.spans.append({
            "id": frame[SID], "name": frame[NAME], "start_ns": frame[START], "end_ns": end,
            "parent": frame[PARENT], "run": self.run_id, "self_ns": dt - frame[CHILD],
        })
        return dt

    def coarse_span(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return span

    def callback(self, cb):
        """Wrap an event callback in a span named '<layer>.cb.<qualname>'."""
        func = getattr(cb, "__func__", cb)
        name = self._callback_names.get(func.__code__)  # lambdas share their code
        if name is None:
            layer = func.__module__.rpartition(".")[2]
            name = self._callback_names[func.__code__] = f"{layer}.cb.{func.__qualname__}"
        return self.hot_span(name, cb)

    # -- patches ---------------------------------------------------------------

    def install(self) -> None:
        counts, hot = self.counts, self.hot_span

        def wrap(owner, attr: str, name: str, counting=None) -> None:
            fn = getattr(owner, attr)
            inner = counting(fn) if counting else fn
            setattr(owner, attr, functools.wraps(fn)(hot(name, inner)))

        # engine
        schedule = hot("engine.schedule", Engine.schedule)
        callback = self.callback

        def traced_schedule(engine, cb, due):
            return schedule(engine, callback(cb), due)

        Engine.schedule = traced_schedule

        def cancel(fn):
            def counted(engine, handle):
                done = fn(engine, handle)
                counts["events_cancelled"] += done
                return done
            return counted

        wrap(Engine, "cancel", "engine.cancel", cancel)
        run_until = Engine.run_until

        def traced_run_until(engine, t_end):
            if self.stack[-1][NAME] == "setup":
                self.close(self.stack[-1])
            frame = self.open("loop")
            try:
                events = run_until(engine, t_end)
            finally:
                self.close(frame)
            counts["events_executed"] += events
            return events

        Engine.run_until = traced_run_until

        # radio
        def received_now(fn):
            def counted(env, *args, **kwargs):
                counts["emissions_scanned"] += len(env.active)
                return fn(env, *args, **kwargs)
            return counted

        def rx_power(fn):
            def counted(env, *args, **kwargs):
                cached = len(env._rx_cache)
                p = fn(env, *args, **kwargs)
                counts["rx_power_hits"] += len(env._rx_cache) == cached
                return p
            return counted

        def sinr(fn):
            def counted(env, cap, *args, **kwargs):
                counts["sinr_interferers"] += len(cap.interferers)
                return fn(env, cap, *args, **kwargs)
            return counted

        wrap(RadioEnvironment, "add_emission", "radio.add_emission")
        wrap(RadioEnvironment, "received_now", "radio.received_now", received_now)
        wrap(RadioEnvironment, "rx_power_dbm", "radio.rx_power", rx_power)
        wrap(RadioEnvironment, "gain_db", "radio.gain")
        wrap(radio, "beam_gain_db", "radio.beam_gain")
        wrap(RadioEnvironment, "link_pathloss_db", "radio.pathloss")
        wrap(RadioEnvironment, "sensed_power_dbm", "radio.sensed_power")
        wrap(RadioEnvironment, "max_sensed_power_dbm", "radio.window_sense")
        wrap(RadioEnvironment, "effective_sinr_db", "radio.sinr", sinr)
        wrap(RadioEnvironment, "add_listener", "radio.listeners")
        wrap(RadioEnvironment, "remove_listener", "radio.listeners")

        # channel access and WiGig listeners: a notification is useful when
        # the listener's state changed.
        def notified(fn):
            def counted(listener):
                before = listener.state
                fn(listener)
                after = listener.state
                counts["notify_useful"] += after != before
                if isinstance(listener, LbtCam):
                    counts["freezes"] += before == LbtCam.COUNT and after == LbtCam.WAIT_IDLE
            return counted

        def cat2(fn):
            def counted(cam, *args, **kwargs):
                grant = fn(cam, *args, **kwargs)
                counts["cat2_busy"] += grant is None
                return grant
            return counted

        wrap(LbtCam, "request", "channel_access.lbt_request")
        wrap(LbtCam, "medium_changed", "channel_access.medium_changed", notified)
        wrap(Cam, "_grant", "channel_access.grant")
        wrap(Cat2Cam, "attempt", "channel_access.cat2_attempt", cat2)

        # WiGig
        def settle(fn):
            def counted(ap, frame):
                counts["wigig_acks"] += ap._ack_ok
                return fn(ap, frame)
            return counted

        wrap(WigigAp, "medium_busy", "wigig.medium_busy")
        wrap(WigigAp, "medium_changed", "wigig.medium_changed", notified)
        wrap(WigigAp, "_transmit", "wigig.transmit")
        wrap(WigigAp, "_settle", "wigig.settle", settle)

        # NR-U
        def air_tb(fn):
            def counted(gnb, ue, tb, end):
                counts["harq_retx"] += tb.tx_count > 1
                return fn(gnb, ue, tb, end)
            return counted

        def access_ok(fn):
            def counted(gnb, emissions_end):
                ok = fn(gnb, emissions_end)
                counts["no_grant_slots"] += not ok
                return ok
            return counted

        def feedback_timeout(fn):
            def counted(gnb, pids):
                resolved = len(gnb._resolved)
                fn(gnb, pids)
                counts["feedback_timeouts"] += len(gnb._resolved) - resolved
            return counted

        wrap(NruGnb, "_plan", "nru.plan")
        wrap(NruGnb, "_commit", "nru.commit")
        wrap(NruGnb, "_air_tb", "nru.air_tb", air_tb)
        wrap(NruGnb, "_access_ok", "nru.access_ok", access_ok)
        wrap(NruGnb, "_feedback_timeout", "nru.feedback_timeout", feedback_timeout)
        wrap(NruUe, "drop_process", "nru.harq_drop")

        # metrics, scenario
        wrap(OccupancyLedger, "record", "metrics.ledger_record")
        wrap(OccupancyLedger, "occupied_within", "metrics.collect")
        wrap(runner, "latency_samples_ns", "metrics.collect")
        wrap(runner, "goodput_per_device_bps", "metrics.collect")
        wrap(runner, "build_scenario", "scenario.build")

        # runner
        run_once = runner.run_once

        @functools.wraps(run_once)
        def traced_run_once(cfg, seed, *args, **kwargs):
            self.run_id = f"{cfg.label}/seed{seed}"
            frame = self.open("run")
            self.open("setup")
            try:
                result = run_once(cfg, seed, *args, **kwargs)
            finally:
                if self.stack[-1][NAME] == "setup":
                    self.close(self.stack[-1])
                self.close(frame)
            self._count_outputs(result)
            return result

        runner.run_once = traced_run_once
        runner._write_run = self.coarse_span("write", runner._write_run)
        runner.run_campaign = self.coarse_span("campaign", runner.run_campaign)
        runner.emit_report = self.coarse_span("report", runner.emit_report)

    def _count_outputs(self, result) -> None:
        c = self.counts
        c["links_drawn"] += len(result.env._links)
        c["wigig_drops"] += sum(ap.drops for ap in result.aps)
        for flow in result.flows:
            generated, delivered, lost, _in_flight = packet_conservation(flow)
            c["packets_generated"] += generated
            c["packets_delivered"] += delivered
            c["packets_lost"] += lost

    # -- results -----------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(rec[0] for key, rec in self.hot.items() if key[0] in names)

    def _incl_s(self, *names: str) -> float:
        return sum(rec[1] for key, rec in self.hot.items() if key[0] in names) / 1e9

    def _self_s(self, *names: str) -> float:
        return sum(rec[2] for key, rec in self.hot.items() if key[0] in names) / 1e9

    def _span_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e9

    def _span_self_s(self, name: str) -> float:
        return sum(s["self_ns"] for s in self.spans if s["name"] == name) / 1e9

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer of everything inside loop spans."""
        out = dict.fromkeys(LOOP_LAYERS, 0)
        out["engine"] = sum(s["self_ns"] for s in self.spans if s["name"] == "loop")
        for (name, _parent, within), rec in self.hot.items():
            if within == "loop":
                out[name.split(".", 1)[0]] += rec[2]
        return out

    def check_events(self, event_count: int) -> list[str]:
        """Each executed event ran as one traced callback directly in a loop
        span, and their number is the runs' summed ``event_count``. An event
        that bypasses ``Engine.schedule`` breaks the first equality."""
        callbacks = sum(rec[0] for (name, parent, _within), rec in self.hot.items()
                        if parent == "loop" and ".cb." in name)
        executed = self.counts["events_executed"]
        if callbacks == executed == event_count:
            return []
        return [f"{callbacks} traced callbacks in loop spans, {executed} events "
                f"returned by run_until, event_count {event_count}"]

    def layer_metrics(self) -> dict[str, float]:
        c, calls, incl_s = self.counts, self._calls, self._incl_s

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        scheduled = calls("engine.schedule")
        notifications = calls("channel_access.medium_changed", "wigig.medium_changed")
        lbt_backoff = calls("channel_access.cb.LbtCam._slot_done", "channel_access.cb.LbtCam._defer_done")
        wigig_backoff = calls("wigig.cb.WigigAp._slot_done", "wigig.cb.WigigAp._defer_done")
        loop_self = self.layer_self_ns()
        out = {
            "engine.events_executed": c["events_executed"],
            "engine.events_scheduled": scheduled,
            "engine.events_cancelled": c["events_cancelled"],
            "engine.cancel_ratio": ratio(c["events_cancelled"], scheduled),
            "engine.schedule_s": incl_s("engine.schedule"),
            "engine.loop_self_s": self._span_self_s("loop"),
            "radio.add_emission_calls": calls("radio.add_emission"),
            "radio.add_emission_self_s": self._self_s("radio.add_emission"),
            "radio.listener_notifications": notifications,
            "radio.notify_useful_ratio": ratio(c["notify_useful"], notifications),
            "radio.received_now_calls": calls("radio.received_now"),
            "radio.received_now_s": incl_s("radio.received_now"),
            "radio.emissions_scanned": c["emissions_scanned"],
            "radio.rx_power_calls": calls("radio.rx_power"),
            "radio.rx_power_cache_hit_ratio": ratio(c["rx_power_hits"], calls("radio.rx_power")),
            "radio.beam_gain_calls": calls("radio.beam_gain"),
            "radio.links_drawn": c["links_drawn"],
            "radio.sinr_calls": calls("radio.sinr"),
            "radio.sinr_s": incl_s("radio.sinr"),
            "radio.sinr_interferers_mean": ratio(c["sinr_interferers"], calls("radio.sinr")),
            "radio.window_sense_calls": calls("radio.window_sense"),
            "radio.window_sense_s": incl_s("radio.window_sense"),
            "channel_access.lbt_requests": calls("channel_access.lbt_request"),
            "channel_access.grants": calls("channel_access.grant"),
            "channel_access.freezes": c["freezes"],
            "channel_access.backoff_slot_events": lbt_backoff,
            "channel_access.medium_changed_s": incl_s("channel_access.medium_changed"),
            "channel_access.cat2_attempts": calls("channel_access.cat2_attempt"),
            "channel_access.cat2_busy_ratio": ratio(c["cat2_busy"], calls("channel_access.cat2_attempt")),
            "wigig.medium_busy_calls": calls("wigig.medium_busy"),
            "wigig.medium_busy_s": incl_s("wigig.medium_busy"),
            "wigig.medium_changed_s": incl_s("wigig.medium_changed"),
            "wigig.backoff_slot_events": wigig_backoff,
            "wigig.backoff_event_share": ratio(wigig_backoff, c["events_executed"]),
            "wigig.frames_tx": calls("wigig.transmit"),
            "wigig.ack_ratio": ratio(c["wigig_acks"], calls("wigig.transmit")),
            "wigig.drops": c["wigig_drops"],
            "nru.plan_calls": calls("nru.plan"),
            "nru.plan_s": incl_s("nru.plan"),
            "nru.commit_s": incl_s("nru.commit"),
            "nru.tb_tx": calls("nru.air_tb"),
            "nru.harq_retx": c["harq_retx"],
            "nru.harq_drops": calls("nru.harq_drop"),
            "nru.no_grant_slots": c["no_grant_slots"],
            "nru.feedback_timeouts": c["feedback_timeouts"],
            "traffic.packets_generated": c["packets_generated"],
            "traffic.packets_delivered": c["packets_delivered"],
            "traffic.packets_lost": c["packets_lost"],
            "traffic.arrive_s": incl_s("traffic.cb.CbrFlow._arrive"),
            "metrics.ledger_record_calls": calls("metrics.ledger_record"),
            "metrics.ledger_record_s": incl_s("metrics.ledger_record"),
            "metrics.collect_s": incl_s("metrics.collect"),
            "scenario.build_s": incl_s("scenario.build"),
            "runner.write_s": self._span_s("write"),
            "runner.report_s": self._span_s("report"),
            "trace.loop_s": self._span_s("loop"),
        }
        for layer, ns in loop_self.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out

    def write(self, path) -> None:
        """Write the coarse spans and the hot-call aggregates as JSON."""
        hot = [
            {"name": name, "parent": parent, "within": within,
             "count": rec[0], "incl_ns": rec[1], "self_ns": rec[2]}
            for (name, parent, within), rec in sorted(self.hot.items())
        ]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh, indent=1)
