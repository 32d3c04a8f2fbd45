"""Tests for live progress (ETA) and heartbeat-based stall detection,
including the session-level straggler scenario with a slow fake worker."""

import io

from repro.experiments.parallel import RunRequest
from repro.obs.events import events_of
from repro.obs.progress import POOL, ProgressTracker, StallDetector
from repro.obs.session import ObsSession, WorkerObs


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class TestProgressTracker:
    def test_eta_unknown_before_first_completion(self):
        tracker = ProgressTracker(total=10, jobs=2)
        assert tracker.eta_s() is None
        assert "eta ?" in tracker.render()

    def test_eta_divides_remaining_work_by_pool_width(self):
        tracker = ProgressTracker(total=10, jobs=2)
        tracker.on_complete(2.0)
        tracker.on_complete(4.0)
        # mean 3s, 8 remaining, 2 workers -> 12s.
        assert tracker.eta_s() == 12.0
        assert tracker.mean_duration_s == 3.0

    def test_render_shows_counts_percent_and_eta(self):
        tracker = ProgressTracker(total=4)
        tracker.on_complete(1.0)
        text = tracker.render()
        assert text.startswith("1/4 runs (25%)")
        assert "eta ~3.0s" in text

    def test_zero_total_renders_without_dividing(self):
        tracker = ProgressTracker(total=0)
        assert "100%" in tracker.render()
        tracker.on_complete(1.0)
        assert tracker.render().startswith("1/1")

    def test_eta_never_negative_past_total(self):
        tracker = ProgressTracker(total=1)
        tracker.on_complete(1.0)
        tracker.on_complete(1.0)
        assert tracker.eta_s() == 0.0


class TestStallDetector:
    def test_threshold_floors_at_minimum_then_adapts(self):
        detector = StallDetector(min_threshold_s=5.0, factor=8.0)
        assert detector.threshold_s == 5.0
        detector.observe_duration(0.1)
        assert detector.threshold_s == 5.0, "8 x 0.1s stays floored"
        detector.observe_duration(1.9)  # mean 1.0s -> 8s threshold
        assert detector.threshold_s == 8.0

    def test_silent_worker_flagged_once_per_silence(self):
        detector = StallDetector(min_threshold_s=1.0)
        detector.beat(7, now=0.0)
        assert detector.stalled(0.5) == []
        assert detector.stalled(2.0) == [(7, 2.0)]
        assert detector.stalled(3.0) == [], "no spam while still silent"
        detector.beat(7, now=3.5)  # recovery re-arms the flag
        assert detector.stalled(6.0) == [(7, 2.5)]

    def test_pool_pseudo_worker_catches_total_silence(self):
        """POOL is beaten by any completion, so an all-workers hang still
        surfaces even if no individual worker ever registered."""
        detector = StallDetector(min_threshold_s=1.0)
        detector.beat(POOL, now=0.0)
        stalls = detector.stalled(10.0)
        assert stalls == [(POOL, 10.0)]

    def test_forget_drops_worker_from_watch(self):
        detector = StallDetector(min_threshold_s=1.0)
        detector.beat(3, now=0.0)
        detector.forget(3)
        assert detector.stalled(99.0) == []


class TestSessionStallScenario:
    """End-to-end straggler detection: a deliberately slow fake worker
    goes silent past the adaptive threshold and the session logs a stall
    event -- exactly once -- then recovers on the next completion."""

    def _request(self):
        return RunRequest.make("KM", "baseline")

    def _fake_report(self, clock, worker, dur_s):
        """What a pool worker ships back, built against the shared clock."""
        obs = WorkerObs(now=clock)
        with obs.phase("engine-run"):
            clock.advance(dur_s)
        return obs.report() | {"worker": worker}

    def test_slow_worker_raises_one_stall_then_recovers(self):
        clock = FakeClock()
        session = ObsSession(progress=True, stream=io.StringIO(),
                             now=clock, stall_min_s=1.0)
        session.campaign_begin(total=3, jobs=2, label="stall-test")
        session.pool_begin()

        # Worker 1 completes quickly; worker 2 is the straggler.
        span1 = session.open_request(self._request())
        session.pool_run_complete(0, self._request(), span1,
                                  self._fake_report(clock, worker=1,
                                                    dur_s=0.1))
        span2 = session.open_request(self._request())

        # Quiet ticks until well past the threshold: worker 1 and the
        # pool pseudo-worker both go silent.
        for __ in range(8):
            clock.advance(0.5)
            session.idle_tick()
        stalls = events_of(session.log.events, "stall")
        stalled_ids = {e["worker"] for e in stalls}
        assert 1 in stalled_ids, "silent worker 1 must be flagged"
        assert POOL in stalled_ids, "pool-level liveness must be flagged"
        assert len(stalls) == len(stalled_ids), "one stall per silence"

        # The straggler finally reports: heartbeats resume, no new stalls.
        session.pool_run_complete(1, self._request(), span2,
                                  self._fake_report(clock, worker=2,
                                                    dur_s=0.1))
        before = len(events_of(session.log.events, "stall"))
        clock.advance(0.2)
        session.idle_tick()
        assert len(events_of(session.log.events, "stall")) == before
        assert session.summary()["workers"]["stall_events"] == before
        session.close()

    def test_healthy_pool_logs_no_stalls(self):
        clock = FakeClock()
        session = ObsSession(now=clock, stall_min_s=1.0)
        session.campaign_begin(total=2, jobs=2)
        session.pool_begin()
        for index in range(2):
            span = session.open_request(self._request())
            clock.advance(0.2)
            session.idle_tick()
            session.pool_run_complete(
                index, self._request(), span,
                self._fake_report(clock, worker=index + 1, dur_s=0.1))
        session.campaign_end()
        assert events_of(session.log.events, "stall") == []
        summary = session.summary()
        assert summary["workers"]["stall_events"] == 0
        assert summary["reconcile"] == []
        assert summary["runs"]["completed"] == 2
        assert summary["workers"]["runs_by_worker"] == {"1": 1, "2": 1}
        session.close()

    def test_progress_renders_to_stream_with_eta(self):
        clock = FakeClock()
        stream = io.StringIO()  # not a tty -> newline-terminated lines
        session = ObsSession(progress=True, stream=stream, now=clock)
        session.campaign_begin(total=2, jobs=1, label="p")
        with session.run_scope(self._request(), index=0):
            clock.advance(1.0)
        out = stream.getvalue()
        assert "[obs] 1/2 runs (50%)" in out
        assert "eta ~1.0s" in out
        progress = events_of(session.log.events, "progress")
        assert progress and progress[-1]["eta_s"] == 1.0
        session.close()
