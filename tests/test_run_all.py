"""Tests for the full-campaign driver."""

import json
from pathlib import Path

from repro.config import TINY
from repro.experiments import run_all
from repro.experiments.run_all import CAMPAIGN, run_campaign, write_report
from repro.experiments.runner import ExperimentRunner
from repro.obs.events import load_log, summarize_events
from repro.obs.session import ObsSession
from repro.telemetry.rollup import render_rollup, rollup_results


def observed_runner(label="run_all:tiny"):
    runner = ExperimentRunner(scale=TINY)
    session = ObsSession()
    runner.attach_obs(session)
    session.campaign_begin(total=0, jobs=2, label=label)
    return runner, session


def closed_phases(session):
    return {s.name: s for s in session.recorder.spans
            if s.kind == "phase" and s.closed}


class TestCampaignDefinition:
    def test_covers_every_paper_experiment(self):
        names = {name for name, __ in CAMPAIGN}
        for required in ("fig02_resources", "fig03_cta_overhead",
                         "fig04_case_study", "fig05_register_usage",
                         "table03_stall_time", "fig12_concurrent_ctas",
                         "fig13_performance", "fig14_rf_stalls",
                         "fig15_memory_traffic", "fig16_energy",
                         "fig17_rf_sensitivity", "fig18_sm_scaling",
                         "fig19_unified_memory"):
            assert required in names

    def test_includes_ablations(self):
        names = {name for name, __ in CAMPAIGN}
        assert "ablation_bitvector_cache" in names
        assert "ablation_switch_policy" in names


class TestCampaignExecution:
    def test_subset_runs_and_reports(self, tmp_path):
        runner, session = observed_runner()
        results = run_campaign(runner, modules=["fig03_cta_overhead"])
        session.close()
        assert len(results) == 1
        assert results[0].experiment == "fig03"
        # The per-module wall time is the render span, not a summary key
        # (summaries, and so REPORT.md, carry no host time).
        assert "_elapsed_s" not in results[0].summary
        assert closed_phases(session)["render:fig03_cta_overhead"] \
            .duration >= 0
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny")
        text = report.read_text()
        assert "# FineReg reproduction" in text
        assert "fig03" in text

    def test_profiled_campaign_with_rollup_report(self, tmp_path):
        runner, session = observed_runner()
        results = run_campaign(runner, modules=["fig03_cta_overhead"])
        assert {"plan+prefetch", "render"} <= set(closed_phases(session))
        # Roll-up derives purely from the memoized SimResults (fig03 is
        # analytic, so simulate a pair of runs to have something to roll up).
        runner.run("KM", "finereg")
        runner.run("KM", "baseline")
        session.close()
        rollup = rollup_results(runner.memoized_results())
        assert rollup["groups"]
        assert all(g["runs"] > 0 for g in rollup["groups"])
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny",
                     rollup_text=render_rollup(rollup))
        text = report.read_text()
        assert "## Telemetry roll-up" in text
        assert "stall p50" in text
        # ... so the BENCH payload round-trips through JSON.
        payload = {"obs": session.summary(), "rollup": rollup}
        assert json.loads(json.dumps(payload)) == payload
        assert payload["obs"]["runs"]["completed"] == 2


class TestBenchCampaign:
    """``BENCH_campaign.json`` is derived from the obs event log alone."""

    def _main(self, tmp_path, jobs):
        out = tmp_path / f"out-{jobs}"
        log = out / "obs.jsonl"
        assert run_all.main(["--scale", "tiny", "--jobs", str(jobs),
                             "--only", "fig04_case_study",
                             "--out", str(out), "--obs-log", str(log)]) == 0
        bench = json.loads((out / "BENCH_campaign.json").read_text())
        return bench, summarize_events(load_log(str(log)))

    def test_serial_bench_obs_is_the_log_summary(self, tmp_path):
        bench, from_log = self._main(tmp_path, jobs=1)
        assert set(bench) == {"obs", "rollup", "sim_cycles"}
        assert bench["obs"] == from_log
        # Serial runs count as busy: one utilization definition.
        assert bench["obs"]["workers"]["utilization"] > 0
        assert bench["obs"]["campaign"]["completed"] \
            == bench["obs"]["campaign"]["total"] > 0
        assert bench["sim_cycles"] > 0
        phases = {row["phase"] for row in bench["obs"]["phases"]}
        assert {"render", "render:fig04_case_study", "report"} <= phases
        # REPORT.md carries host time only in the phase breakdown.
        report = (tmp_path / "out-1" / "REPORT.md").read_text()
        assert "_elapsed_s" not in \
            report.split("## Campaign phase breakdown")[0]

    def test_pooled_bench_obs_is_the_log_summary(self, tmp_path):
        bench, from_log = self._main(tmp_path, jobs=2)
        assert bench["obs"] == from_log
        assert bench["obs"]["workers"]["utilization"] > 0
        assert "plan+prefetch" in {row["phase"]
                                   for row in bench["obs"]["phases"]}


class TestCampaignObservability:
    def test_observed_campaign_reports_phase_breakdown(self, tmp_path):
        """An obs-instrumented campaign produces reconciling spans and a
        REPORT.md phase-breakdown section derived from them."""
        from repro.obs.spans import phase_rows, reconcile_spans

        runner, session = observed_runner()
        results = run_campaign(runner, modules=["fig03_cta_overhead"])
        session.campaign_end()

        assert reconcile_spans(session.recorder.spans) == []
        breakdown = phase_rows(session.recorder.spans)
        names = {name for __, name, __ in breakdown}
        assert {"plan+prefetch", "render", "render:fig03_cta_overhead"} \
            <= names
        # render:fig03 nests under render, which nests under the campaign.
        parents = {name: within for within, name, __ in breakdown}
        assert parents["render:fig03_cta_overhead"] == "render"
        assert parents["render"] == "run_all:tiny"

        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny", phase_breakdown=breakdown)
        text = report.read_text()
        assert "## Campaign phase breakdown" in text
        assert "render:fig03_cta_overhead" in text
        session.close()

    def test_report_omits_breakdown_without_observability(self, tmp_path,
                                                          tiny_runner):
        results = run_campaign(tiny_runner, modules=["fig03_cta_overhead"])
        report = tmp_path / "REPORT.md"
        write_report(results, report, "tiny")
        assert "## Campaign phase breakdown" not in report.read_text()
