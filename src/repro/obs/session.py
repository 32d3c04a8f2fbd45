"""The campaign observability session: spans + events + progress.

One :class:`ObsSession` instruments one campaign.  It owns the
:class:`~repro.obs.spans.SpanRecorder`, the JSONL
:class:`~repro.obs.events.EventLog` (the campaign's only record: its
:meth:`~ObsSession.summary` is derived from the logged events), and the
progress/stall trackers, and exposes the narrow hooks the orchestration
tier calls:

* ``ExperimentRunner`` wraps scheduling/pool/store phases in
  :meth:`phase` and serial runs in :meth:`run_scope`;
* ``ResultCache`` routes ``get``/``put`` through
  :meth:`timed_cache_get`/:meth:`timed_cache_put` when its ``obs``
  attribute is set (one ``is not None`` test on the off path);
* ``run_requests`` opens a ``request`` span per pooled payload
  (:meth:`open_request`), reports arrivals via :meth:`pool_run_complete`
  (which grafts the worker-recorded phase spans under the request span),
  and calls :meth:`idle_tick` while waiting so stalled workers surface.

Everything is observation-only: no hook returns data into a simulation,
and the session never touches simulator state.  The only clock is the
injected ``now`` (default: the audited :mod:`repro.obs.clock`).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from repro.obs import clock
from repro.obs.events import EventLog, summarize_events
from repro.obs.progress import POOL, ProgressTracker, StallDetector
from repro.obs.spans import Span, SpanRecorder

#: ``REPRO_OBS=1`` enables the campaign event log in `run_all`; any of
#: on/1/true/yes counts.
OBS_ENV = "REPRO_OBS"
#: Overrides the default event-log path (``<out>/obs.jsonl``).
OBS_LOG_ENV = "REPRO_OBS_LOG"

_ENABLED_VALUES = {"1", "on", "true", "yes"}


def obs_enabled() -> bool:
    return os.environ.get(OBS_ENV, "").lower() in _ENABLED_VALUES


class WorkerObs:
    """Worker-process span collector, shipped back as picklable dicts.

    Presents the same ``phase(name)`` context manager as the session, so
    ``simulate_request`` instruments its phases identically in-process and
    in a pool worker.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        self._now = now if now is not None else clock.monotonic
        self.recorder = SpanRecorder(now=self._now)
        self._t0 = self._now()

    def phase(self, name: str) -> object:
        return self.recorder.span(name, "phase")

    def report(self) -> Dict:
        """Picklable run report: pid, the measured run window, and spans.

        ``t_start``/``dur_s`` come from the worker's own clock;
        ``CLOCK_MONOTONIC`` is system-wide on Linux, so the parent re-times
        the dispatch-side request span to this window (excluding queue
        wait) when the report arrives.
        """
        return {"worker": os.getpid(),
                "t_start": round(self._t0, 6),
                "dur_s": round(self._now() - self._t0, 6),
                "spans": self.recorder.as_dicts()}


class ObsSession:
    """All observability state of one campaign."""

    def __init__(self, log_path: Optional[str] = None,
                 progress: bool = False,
                 stream=None,
                 now: Optional[Callable[[], float]] = None,
                 tick_s: float = 0.5,
                 stall_min_s: float = 5.0) -> None:
        self._now = now if now is not None else clock.monotonic
        self.recorder = SpanRecorder(now=self._now)
        self.log = EventLog(log_path, now=self._now)
        self.stalls = StallDetector(min_threshold_s=stall_min_s)
        self.progress: Optional[ProgressTracker] = None
        self.progress_enabled = progress
        self.tick_s = tick_s
        self.completed = 0
        self._stream = stream
        self._campaign: Optional[Span] = None
        self._workers_seen: Dict[int, int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------
    def campaign_begin(self, total: int, jobs: int = 1,
                       label: str = "campaign") -> Span:
        jobs = max(1, jobs)
        self._campaign = self.recorder.start(label, kind="campaign")
        self.recorder.push(self._campaign)
        self._emit_span_open(self._campaign)
        self.log.emit("campaign_start", label=label, total=total,
                      jobs=jobs)
        if self.progress_enabled:
            self.progress = ProgressTracker(total, jobs=jobs)
        return self._campaign

    def campaign_end(self) -> None:
        if self._campaign is None or self._campaign.closed:
            return
        self._finalize_workers()
        self.recorder.pop(self._campaign)
        self.recorder.finish(self._campaign)
        self._emit_span_close(self._campaign)
        self.log.emit("campaign_end", completed=self.completed)
        if self.progress is not None:
            stream = self._stream if self._stream is not None \
                else sys.stderr
            if getattr(stream, "isatty", lambda: False)():
                print(file=stream)

    def close(self) -> None:
        self.campaign_end()
        self._finalize_workers()
        self.log.close()

    def _finalize_workers(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        for worker in sorted(self._workers_seen):
            self.log.emit("worker_stop", worker=worker,
                          runs=self._workers_seen[worker])

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _emit_span_open(self, span: Span) -> None:
        fields: Dict[str, object] = {"span": span.span_id,
                                     "name": span.name, "kind": span.kind,
                                     "parent": span.parent_id}
        if span.worker is not None:
            fields["worker"] = span.worker
        self.log.emit("span_open", **fields)

    def _emit_span_close(self, span: Span) -> None:
        fields: Dict[str, object] = {
            "span": span.span_id, "name": span.name, "kind": span.kind,
            "parent": span.parent_id,
            "t_start": round(span.t_start, 6),
            "dur_s": round(span.duration, 6),
        }
        if span.worker is not None:
            fields["worker"] = span.worker
        self.log.emit("span_close", **fields)

    @contextmanager
    def phase(self, name: str) -> Iterator[Span]:
        """A sequential orchestration phase under the current span."""
        span = self.recorder.start(name, "phase")
        self._emit_span_open(span)
        with self.recorder.scope(span):
            try:
                yield span
            finally:
                self.recorder.finish(span)
                self._emit_span_close(span)

    def open_request(self, request, worker: Optional[int] = None) -> Span:
        """Open a ``request`` span (pool dispatch side)."""
        name = f"req:{request.abbrev}/{request.policy}"
        parent = (self._campaign.span_id if self._campaign is not None
                  else self.recorder.current_id())
        span = self.recorder.start(name, "request", parent=parent,
                                   worker=worker)
        self._emit_span_open(span)
        return span

    @contextmanager
    def run_scope(self, request, index: Optional[int] = None
                  ) -> Iterator[Span]:
        """Serial (in-process) request execution scope."""
        span = self.open_request(request)
        with self.recorder.scope(span):
            try:
                yield span
            finally:
                self.recorder.finish(span)
                self._emit_span_close(span)
                self._record_run(index if index is not None else -1,
                                 request, span.duration, worker=None)

    # ------------------------------------------------------------------
    # Cache hooks (called by ResultCache when ``cache.obs`` is set)
    # ------------------------------------------------------------------
    def timed_cache_get(self, cache, key: str):
        t0 = self._now()
        result = cache._get(key)
        latency = self._now() - t0
        self.log.emit("cache_lookup", key=key[:12], hit=result is not None,
                      latency_s=round(latency, 9))
        return result

    def timed_cache_put(self, cache, key: str, result) -> None:
        t0 = self._now()
        nbytes = cache._put(key, result)
        latency = self._now() - t0
        self.log.emit("cache_store", key=key[:12], bytes=nbytes,
                      latency_s=round(latency, 9))

    # ------------------------------------------------------------------
    # Pool callbacks (called by ``run_requests``)
    # ------------------------------------------------------------------
    def pool_begin(self) -> None:
        self.stalls.beat(POOL, self._now())

    def pool_run_complete(self, index: int, request, span: Span,
                          report: Dict) -> None:
        """One pooled result arrived: graft worker spans, close, account."""
        worker = int(report.get("worker", 0))
        now = self._now()
        if worker not in self._workers_seen:
            self._workers_seen[worker] = 0
            self.log.emit("worker_start", worker=worker)
        self._workers_seen[worker] += 1
        merged = self.recorder.merge(report.get("spans", ()),
                                     parent_id=span.span_id, worker=worker)
        for child in merged:
            self._emit_span_open(child)
            if child.closed:
                self._emit_span_close(child)
        span.worker = worker
        # Re-time the dispatch-side span to the worker's measured window
        # (shared CLOCK_MONOTONIC): queue wait is excluded, so utilization
        # and the <=-parent phase reconciliation are exact.
        t_start = report.get("t_start")
        dur = report.get("dur_s")
        if t_start is not None and dur is not None:
            span.t_start = float(t_start)
            span.t_end = float(t_start) + float(dur)
        else:
            self.recorder.finish(span)
        self._emit_span_close(span)
        self.stalls.beat(worker, now)
        self.stalls.beat(POOL, now)
        self._record_run(index, request, span.duration, worker=worker)
        self.log.emit("heartbeat", worker=worker, completed=self.completed)

    def idle_tick(self) -> None:
        """Called while the pool is quiet: surface stalled workers."""
        now = self._now()
        for worker, idle in self.stalls.stalled(now):
            self.log.emit("stall", worker=worker, idle_s=round(idle, 6))
        self._render_progress()

    # ------------------------------------------------------------------
    def _record_run(self, index: int, request, dur_s: float,
                    worker: Optional[int]) -> None:
        self.completed += 1
        self.stalls.observe_duration(dur_s)
        fields: Dict[str, object] = {
            "index": index, "abbrev": request.abbrev,
            "policy": request.policy, "dur_s": round(dur_s, 6),
        }
        if worker is not None:
            fields["worker"] = worker
        self.log.emit("run_complete", **fields)
        if self.progress is not None:
            self.progress.on_complete(dur_s)
            eta = self.progress.eta_s()
            self.log.emit("progress", completed=self.progress.completed,
                          total=self.progress.total,
                          eta_s=round(eta, 3) if eta is not None else None)
        self._render_progress()

    def _render_progress(self) -> None:
        if self.progress is None:
            return
        stream = self._stream if self._stream is not None else sys.stderr
        end = "\r" if getattr(stream, "isatty", lambda: False)() else "\n"
        print(f"[obs] {self.progress.render()}", file=stream, end=end)

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """JSON-ready campaign summary, derived from the logged events by
        the same function ``repro obs summarize`` runs on the log file."""
        return summarize_events(self.log.events)
