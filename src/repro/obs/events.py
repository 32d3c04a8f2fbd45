"""Structured JSONL event log for campaign runs -- the campaign's record.

One :class:`EventLog` per campaign: events accumulate in memory and, when
a path is given, stream to disk one JSON object per line, flushed per
event so ``repro obs tail`` can watch a live campaign.

:func:`summarize_events` is the one place campaign numbers (cache hit
rate, worker utilization, phase breakdown) are computed.  The live
``ObsSession.summary()`` runs it over the in-memory events and ``repro
obs summarize`` over a loaded log file, so the two cannot disagree.

Timestamps come from the injected ``now`` callable (default: the audited
:mod:`repro.obs.clock`); this module never reads the host clock itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import clock
from repro.obs.schema import OBS_SCHEMA_VERSION, check_obs_event, \
    check_obs_log_text
from repro.obs.spans import Span, reconcile_spans


class ObsLogError(ValueError):
    """A log file failed schema validation; ``problems`` names the lines."""

    def __init__(self, path: str, problems: List[str]) -> None:
        self.path = path
        self.problems = problems
        preview = "; ".join(problems[:3])
        super().__init__(f"{path}: invalid obs log ({len(problems)} "
                         f"problems: {preview} ...)")


class EventLog:
    """Append-only campaign event log (in-memory + optional JSONL file)."""

    def __init__(self, path: Optional[str] = None,
                 now: Optional[Callable[[], float]] = None) -> None:
        self.path = Path(path) if path else None
        self.events: List[Dict] = []
        self._now = now if now is not None else clock.monotonic
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, ev: str, **fields: object) -> Dict:
        event: Dict[str, object] = {"v": OBS_SCHEMA_VERSION,
                                    "t": round(self._now(), 6), "ev": ev}
        event.update(fields)
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
            self._fh.flush()
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
def load_log(path: str) -> List[Dict]:
    """Parse and schema-validate a JSONL log; raises :class:`ObsLogError`.

    Validation-first by design: every downstream consumer (summarize, the
    Perfetto exporter, CI) goes through here, so a malformed log fails
    with named lines instead of corrupting a report.
    """
    text = Path(path).read_text(encoding="utf-8")
    problems = check_obs_log_text(text)
    if problems:
        raise ObsLogError(str(path), problems)
    events: List[Dict] = []
    for line in text.splitlines():
        if line.strip():
            events.append(json.loads(line))
    return events


def events_of(events: Sequence[Dict], ev: str) -> List[Dict]:
    """The sub-list of one event type, in log order."""
    return [event for event in events if event.get("ev") == ev]


def _closed_spans(events: Sequence[Dict]) -> List[Span]:
    spans: List[Span] = []
    for event in events_of(events, "span_close"):
        span = Span(int(event["span"]), event.get("parent"),
                    str(event["name"]), str(event["kind"]),
                    float(event["t_start"]), worker=event.get("worker"))
        span.t_end = span.t_start + float(event["dur_s"])
        spans.append(span)
    return spans


def summarize_events(events: Sequence[Dict]) -> Dict:
    """Campaign summary computed purely from a validated event stream.

    Utilization is the summed ``run_complete`` duration over ``jobs x
    campaign wall``, for serial and pooled runs alike.
    """
    starts = events_of(events, "campaign_start")
    ends = events_of(events, "campaign_end")
    lookups = events_of(events, "cache_lookup")
    stores = events_of(events, "cache_store")
    runs = events_of(events, "run_complete")
    stalls = events_of(events, "stall")
    hits = sum(1 for event in lookups if event["hit"])

    spans = _closed_spans(events)
    kind_of = {span.span_id: span.kind for span in spans}
    campaign_span = next((s for s in spans if s.kind == "campaign"), None)
    if campaign_span is not None:
        wall = campaign_span.duration
    elif events:
        wall = float(events[-1]["t"]) - float(events[0]["t"])
    else:
        wall = 0.0

    phases: List[Dict] = []
    for span in spans:
        if span.kind != "phase":
            continue
        if span.parent_id is not None \
                and kind_of.get(span.parent_id) == "request":
            continue
        phases.append({"phase": span.name,
                       "wall_s": round(span.duration, 6)})

    workers: Dict[str, int] = {}
    busy = 0.0
    for event in runs:
        worker = event.get("worker")
        if worker is not None:
            workers[str(worker)] = workers.get(str(worker), 0) + 1
        busy += float(event["dur_s"])
    jobs = int(starts[0]["jobs"]) if starts else 1
    utilization = round(busy / (jobs * wall), 6) if wall > 0 else None

    return {
        "campaign": {
            "label": starts[0]["label"] if starts else None,
            "total": int(starts[0]["total"]) if starts else None,
            "jobs": jobs,
            "completed": (int(ends[-1]["completed"]) if ends
                          else len(runs)),
            "wall_s": round(wall, 6),
        },
        "cache": {
            "lookups": len(lookups),
            "hits": hits,
            "misses": len(lookups) - hits,
            "hit_rate": (round(hits / len(lookups), 6)
                         if lookups else None),
            "stores": len(stores),
            "stored_bytes": sum(int(e["bytes"]) for e in stores),
        },
        "runs": {
            "completed": len(runs),
            "busy_s": round(busy, 6),
            "mean_s": round(busy / len(runs), 6) if runs else None,
        },
        "workers": {
            "seen": len(workers),
            "runs_by_worker": {w: workers[w] for w in sorted(workers)},
            "utilization": utilization,
            "stall_events": len(stalls),
        },
        "phases": phases,
        "reconcile": reconcile_spans(spans),
    }


# re-exported for convenience of log readers
__all__ = ["EventLog", "ObsLogError", "load_log", "events_of",
           "summarize_events", "check_obs_event", "OBS_SCHEMA_VERSION"]
