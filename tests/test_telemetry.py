"""The telemetry subsystem: registry, timelines, session, roll-up,
``repro trace``, and the observation-only guarantee."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro.config import GPUConfig, TINY
from repro.experiments.report import percentile
from repro.policies.baseline import BaselinePolicy
from repro.policies.finereg import FineRegPolicy
from repro.sim.gpu import GPU
from repro.sim.tracing import attach_tracer
from repro.telemetry.registry import RESERVOIR_CAP, MetricsRegistry
from repro.telemetry.rollup import render_rollup, rollup_results
from repro.telemetry.session import TelemetryConfig, attach_telemetry
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def build_gpu(app="KM", policy=FineRegPolicy, num_sms=1):
    config = GPUConfig().with_num_sms(num_sms)
    instance = build_workload(get_spec(app), config, TINY)
    gpu = GPU(config, instance.kernel, policy,
              instance.trace_provider, instance.address_model,
              liveness=instance.liveness)
    return gpu


def telemetry_run(app="KM", policy=FineRegPolicy, num_sms=1, interval=1,
                  traced=False):
    gpu = build_gpu(app, policy, num_sms)
    if traced:
        attach_tracer(gpu, level="warp")
    session = attach_telemetry(
        gpu, TelemetryConfig(timeline_interval=interval))
    result = gpu.run(max_cycles=TINY.max_cycles)
    return gpu, session, result


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.gauge_set("g", 7.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 7.5}

    def test_histogram_moments_exact(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 4):
            reg.observe("h", v)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["count"] == 4
        assert snap["sum"] == 10
        assert snap["mean"] == 2.5
        assert snap["min"] == 1
        assert snap["max"] == 4

    def test_histogram_reservoir_is_bounded_and_deterministic(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            for v in range(10 * RESERVOIR_CAP):
                reg.observe("h", v)
        hist = a.histogram("h")
        assert len(hist._reservoir) < RESERVOIR_CAP
        assert hist.count == 10 * RESERVOIR_CAP
        # Two identical observation streams -> identical snapshots.
        assert a.snapshot() == b.snapshot()

    def test_histogram_percentiles_ordered(self):
        reg = MetricsRegistry()
        for v in range(1000):
            reg.observe("h", v)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["max"]

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").snapshot() == {"count": 0}

    def test_snapshot_key_order_stable(self):
        reg = MetricsRegistry()
        reg.inc("zeta")
        reg.inc("alpha")
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]


# ----------------------------------------------------------------------
# Session attach + publisher wiring
# ----------------------------------------------------------------------
class TestSessionWiring:
    def test_attach_installs_every_publisher(self):
        gpu = build_gpu(policy=FineRegPolicy)
        session = attach_telemetry(gpu)
        reg = session.registry
        assert gpu.telemetry is session
        assert gpu.hierarchy.telemetry is reg
        for sm in gpu.sms:
            assert sm.telemetry is reg
            for sched in sm.schedulers:
                assert sched.telemetry is reg
            assert sm.policy.acrf.telemetry is reg
            assert sm.policy.pcrf.telemetry is reg
            assert sm.policy.rmu.telemetry is reg

    def test_run_publishes_core_metrics(self):
        __, session, result = telemetry_run(policy=FineRegPolicy)
        snap = session.registry.snapshot()
        assert snap["counters"]["acrf.allocations"] > 0
        assert snap["counters"]["mem.loads"] > 0
        assert sum(snap["issue_counts"].values()) == result.instructions
        if result.cta_switch_events:
            assert snap["counters"]["pcrf.spills"] > 0
            assert snap["histograms"]["rmu.spill_cycles"]["count"] > 0

    def test_payload_shape(self):
        __, session, result = telemetry_run()
        payload = session.as_payload()
        assert payload["schema"] == 1
        assert payload["end_cycle"] == result.cycles
        assert set(payload) >= {"schema", "end_cycle", "metrics", "timeline"}
        json.dumps(payload)  # must be JSON-serializable

    def test_metrics_can_be_disabled(self):
        gpu = build_gpu()
        session = attach_telemetry(
            gpu, TelemetryConfig(metrics=False, timeline=True))
        gpu.run(max_cycles=TINY.max_cycles)
        assert session.registry is None
        assert session.timeline is not None


# ----------------------------------------------------------------------
# Timeline sampling: reconciliation against SMStats integrals
# ----------------------------------------------------------------------
class TestTimelineReconciliation:
    @pytest.mark.parametrize("policy", [BaselinePolicy, FineRegPolicy])
    def test_interval_1_sums_equal_time_weighted_integrals(self, policy):
        """At interval=1 the sampler sees the same post-step levels the
        accumulate loop integrates, over the same windows -- the sums must
        match the integrals *exactly*, not approximately."""
        gpu, session, __ = telemetry_run(policy=policy, interval=1)
        for sm in gpu.sms:
            series = session.timeline.series_for(sm.sm_id)
            assert sum(series["active_ctas"]) == sm.stats.active_cta_cycles
            assert sum(series["pending_ctas"]) == sm.stats.pending_cta_cycles
            assert sum(series["active_warps"]) == sm.stats.active_warp_cycles

    def test_coarser_interval_approximates_integral(self):
        gpu, session, __ = telemetry_run(interval=10)
        sm = gpu.sms[0]
        series = session.timeline.series_for(0)
        approx = sum(series["active_ctas"]) * 10
        exact = sm.stats.active_cta_cycles
        assert approx == pytest.approx(exact, rel=0.15, abs=200)

    def test_fig4_case_study_emits_acrf_pcrf_series(self):
        """The Fig-4 case-study app (CS) under FineReg must emit per-cycle
        ACRF/PCRF occupancy -- the series the paper's case study plots."""
        gpu, session, result = telemetry_run(app="CS",
                                             policy=FineRegPolicy)
        series = session.timeline.series_for(0)
        for name in ("acrf_free", "acrf_used", "pcrf_free", "pcrf_used"):
            assert name in series
            assert len(series[name]) == session.timeline.num_samples
        policy = gpu.sms[0].policy
        cap = policy.acrf.capacity
        assert all(0 <= free <= cap for free in series["acrf_free"])
        assert all(free + used == cap for free, used
                   in zip(series["acrf_free"], series["acrf_used"]))
        if result.cta_switch_events:
            assert max(series["pcrf_used"]) > 0

    def test_cumulative_stall_series_end_at_totals(self):
        gpu, session, __ = telemetry_run()
        sm = gpu.sms[0]
        series = session.timeline.series_for(0)
        assert series["idle_cycles"][-1] == sm.stats.idle_cycles
        assert series["rf_depletion_cycles"][-1] == \
            sm.stats.rf_depletion_cycles

    def test_max_samples_truncates_flagged(self):
        gpu = build_gpu()
        session = attach_telemetry(
            gpu, TelemetryConfig(timeline_interval=1, max_samples=16))
        gpu.run(max_cycles=TINY.max_cycles)
        assert session.timeline.truncated
        assert session.timeline.num_samples <= 16
        assert session.timeline.as_payload()["truncated"] is True


# ----------------------------------------------------------------------
# Observation-only guarantee
# ----------------------------------------------------------------------
class TestObservationOnly:
    @pytest.mark.parametrize("policy_name,policy", [
        ("baseline", BaselinePolicy), ("finereg", FineRegPolicy)])
    def test_traced_result_byte_identical_to_untraced(self, policy_name,
                                                      policy):
        untraced = build_gpu(policy=policy).run(max_cycles=TINY.max_cycles)
        gpu = build_gpu(policy=policy)
        attach_tracer(gpu, level="warp")
        attach_telemetry(gpu)
        traced = gpu.run(max_cycles=TINY.max_cycles)
        a = json.dumps(dataclasses.asdict(untraced), sort_keys=True)
        b = json.dumps(dataclasses.asdict(traced), sort_keys=True)
        assert a == b


# ----------------------------------------------------------------------
# Campaign roll-up
# ----------------------------------------------------------------------
class TestRollup:
    def test_groups_by_app_and_policy(self, tiny_runner):
        results = [
            ("KM", tiny_runner.run("KM", "baseline")),
            ("KM", tiny_runner.run("KM", "finereg")),
            ("LB", tiny_runner.run("LB", "baseline")),
        ]
        payload = rollup_results(results)
        keys = {(g["app"], g["policy"]) for g in payload["groups"]}
        assert keys == {("KM", "baseline"), ("KM", "finereg"),
                        ("LB", "baseline")}
        for group in payload["groups"]:
            assert group["runs"] == 1
            assert 0.0 <= group["stall_fraction_p50"] <= 1.0
            assert group["stall_fraction_p50"] <= group["stall_fraction_p95"]

    def test_switch_budget_totals(self, tiny_runner):
        result = tiny_runner.run("KM", "finereg")
        payload = rollup_results([("KM", result)])
        group = payload["groups"][0]
        assert group["switch_overhead_cycles"] == \
            result.switch_overhead_cycles
        assert group["cta_switch_events"] == result.cta_switch_events

    def test_render_is_a_table(self, tiny_runner):
        payload = rollup_results([("KM", tiny_runner.run("KM", "finereg"))])
        text = render_rollup(payload)
        assert "KM/finereg" in text
        assert "stall p50" in text

    def test_percentile_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([10], 95) == 10
        assert percentile([0, 100], 25) == 25.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)


# ----------------------------------------------------------------------
# ``repro trace`` (one traced run, timed through repro.obs.clock)
# ----------------------------------------------------------------------
class TestTraceCommand:
    def test_run_trace_reports_speed_and_writes_a_valid_trace(
            self, capsys, tmp_path):
        from repro.telemetry.cli import run_trace
        from repro.telemetry.schema import check_trace_payload

        out = tmp_path / "km.trace.json"
        assert run_trace("KM", "finereg", "tiny", perfetto_out=str(out)) == 0
        printed = capsys.readouterr().out
        speed = [line for line in printed.splitlines()
                 if line.startswith("simulator speed")]
        assert len(speed) == 1
        assert re.search(r"[\d,]+ cycles/s", speed[0]), speed[0]
        assert check_trace_payload(json.loads(out.read_text())) == []
