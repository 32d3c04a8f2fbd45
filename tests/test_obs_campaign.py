"""Differential campaign tests: observability must be observation-only.

The same six-request campaign runs with and without an attached
ObsSession (and serially vs. pooled); the SimResults and the on-disk
cache entries must be byte-identical, while the obs run additionally
produces a schema-valid event log whose spans and counts reconcile.
"""

import json

from repro.config import TINY
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunRequest
from repro.experiments.runner import ExperimentRunner
from repro.obs.events import events_of, load_log, summarize_events
from repro.obs.schema import check_obs_event
from repro.obs.session import ObsSession
from repro.obs.spans import reconcile_spans

#: Six requests across apps/policies; the last repeats request 2, so the
#: campaign dedupes to five actual simulations.
REQUESTS = [
    ("KM", "baseline"),
    ("KM", "finereg"),
    ("LB", "finereg_adaptive"),
    ("ST", "virtual_thread"),
    ("HS", "reg_dram"),
    ("KM", "finereg"),
]


def make_requests():
    return [RunRequest.make(app, policy) for app, policy in REQUESTS]


def run_campaign(tmp_path, tag, jobs, with_obs, log_name=None):
    """One campaign against a fresh cache; returns (results, session)."""
    cache = ResultCache(root=tmp_path / f"cache-{tag}", enabled=True)
    runner = ExperimentRunner(scale=TINY, cache=cache)
    session = None
    if with_obs:
        log_path = str(tmp_path / (log_name or f"{tag}.jsonl"))
        session = ObsSession(log_path=log_path)
        runner.attach_obs(session)
        session.campaign_begin(total=len(REQUESTS), jobs=jobs,
                               label=f"diff:{tag}")
    results = runner.run_many(make_requests(), jobs=jobs)
    if session is not None:
        session.campaign_end()
        session.close()
    return results, session, cache


def result_bytes(results):
    return [json.dumps(r.to_json(), sort_keys=True) for r in results]


def cache_bytes(cache):
    return {path.name: path.read_bytes() for path in cache.entries()}


class TestObservationOnly:
    def test_obs_on_campaign_is_byte_identical_serial(self, tmp_path):
        off, __, cache_off = run_campaign(tmp_path, "off", 1, False)
        on, session, cache_on = run_campaign(tmp_path, "on", 1, True)
        assert result_bytes(on) == result_bytes(off)
        assert cache_bytes(cache_on) == cache_bytes(cache_off)
        assert session.completed == 5, "6 requests dedupe to 5 runs"

    def test_obs_on_campaign_is_byte_identical_pooled(self, tmp_path):
        off, __, cache_off = run_campaign(tmp_path, "off", 3, False)
        on, __, cache_on = run_campaign(tmp_path, "on", 3, True)
        assert result_bytes(on) == result_bytes(off)
        assert cache_bytes(cache_on) == cache_bytes(cache_off)

    def test_pooled_equals_serial_under_obs(self, tmp_path):
        serial, __, __ = run_campaign(tmp_path, "s", 1, True)
        pooled, __, __ = run_campaign(tmp_path, "p", 3, True)
        assert result_bytes(serial) == result_bytes(pooled)


class TestCampaignLog:
    def test_log_is_schema_valid_and_reconciles(self, tmp_path):
        __, session, __ = run_campaign(tmp_path, "log", 3, True,
                                       log_name="obs.jsonl")
        events = load_log(str(tmp_path / "obs.jsonl"))
        for event in events:
            assert check_obs_event(event) == []
        # Span tree: phase children sum within parents, requests exempt.
        assert reconcile_spans(session.recorder.spans) == []
        # Counts: hits + misses == lookups, per-worker runs == completed.
        summary = session.summary()
        cache = summary["cache"]
        assert cache["hits"] + cache["misses"] == cache["lookups"]
        assert sum(summary["workers"]["runs_by_worker"].values()) \
            == summary["runs"]["completed"] == session.completed
        # Every cold run stored; lookups cover the deduped requests.
        lookups = events_of(events, "cache_lookup")
        stores = events_of(events, "cache_store")
        assert len(lookups) == 5
        assert all(not e["hit"] for e in lookups)
        assert len(stores) == 5

    def test_summarize_shows_hit_rate_and_utilization(self, tmp_path):
        run_campaign(tmp_path, "sum", 3, True, log_name="obs.jsonl")
        summary = summarize_events(load_log(str(tmp_path / "obs.jsonl")))
        assert summary["campaign"]["completed"] == 5
        assert summary["cache"]["hit_rate"] == 0.0, "cold campaign"
        assert summary["workers"]["seen"] >= 1
        assert 0.0 < summary["workers"]["utilization"] <= 1.0
        assert summary["reconcile"] == []
        phases = {row["phase"] for row in summary["phases"]}
        assert {"cache-lookup", "pool-run", "store"} <= phases

    def test_warm_rerun_hits_every_lookup(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", enabled=True)
        cold = ExperimentRunner(scale=TINY, cache=cache)
        cold_results = cold.run_many(make_requests(), jobs=1)

        warm_cache = ResultCache(root=tmp_path / "cache", enabled=True)
        warm = ExperimentRunner(scale=TINY, cache=warm_cache)
        session = ObsSession()
        warm.attach_obs(session)
        session.campaign_begin(total=len(REQUESTS), jobs=1, label="warm")
        warm_results = warm.run_many(make_requests(), jobs=1)
        session.campaign_end()

        assert result_bytes(warm_results) == result_bytes(cold_results)
        assert session.completed == 0, "warm campaign simulates nothing"
        assert session.summary()["cache"]["hit_rate"] == 1.0
        session.close()

    def test_serial_run_scope_instruments_single_runs(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", enabled=True)
        runner = ExperimentRunner(scale=TINY, cache=cache)
        session = ObsSession()
        runner.attach_obs(session)
        session.campaign_begin(total=1, jobs=1, label="single")
        result = runner.run("KM", "baseline")
        session.campaign_end()
        assert result.cycles > 0
        names = {s.name for s in session.recorder.spans}
        assert "req:KM/baseline" in names
        assert "workload-build" in names
        assert "engine-run" in names
        assert reconcile_spans(session.recorder.spans) == []
        session.close()

    def test_summary_matches_log_derived_summary(self, tmp_path):
        """The in-process summary equals the log-file summary: both run
        ``summarize_events``, so this pins the JSONL round-trip."""
        __, session, __ = run_campaign(tmp_path, "agree", 3, True,
                                       log_name="obs.jsonl")
        from_log = summarize_events(load_log(str(tmp_path / "obs.jsonl")))
        assert session.summary() == from_log
        assert from_log["campaign"]["completed"] == 5
