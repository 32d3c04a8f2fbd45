"""``repro obs`` -- inspect campaign observability artifacts.

Actions:

* ``summarize <log>``: cache hit-rate, worker utilization, per-phase
  wall-clock breakdown and reconciliation status of a campaign JSONL log;
* ``tail <log>``: the last N events, one line each, with invalid lines
  marked rather than crashing (a live log may be mid-write);
* ``perfetto <log> --out trace.json``: export the span tree to
  Chrome-trace/Perfetto JSON (validated before writing).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro.obs.events import ObsLogError, load_log, summarize_events
from repro.obs.export import write_campaign_perfetto
from repro.obs.schema import check_obs_event


def format_summary(summary: Dict) -> str:
    campaign = summary["campaign"]
    cache = summary["cache"]
    workers = summary["workers"]
    lines = [
        f"campaign: {campaign['label'] or '-'} "
        f"({campaign['completed']}/{campaign['total'] or '?'} runs, "
        f"jobs={campaign['jobs']}, wall {campaign['wall_s']:.3f}s)",
        f"cache: {cache['lookups']} lookups, {cache['hits']} hits, "
        f"{cache['misses']} misses"
        + (f" (hit rate {cache['hit_rate']:.1%})"
           if cache['hit_rate'] is not None else "")
        + f"; {cache['stores']} stores "
          f"({cache['stored_bytes']:,} bytes)",
        f"workers: {workers['seen']} seen"
        + (f", utilization {workers['utilization']:.1%}"
           if workers['utilization'] is not None else "")
        + f", {workers['stall_events']} stall events",
    ]
    for worker, count in workers["runs_by_worker"].items():
        lines.append(f"  worker {worker}: {count} runs")
    if summary["phases"]:
        lines.append("phases:")
        for row in summary["phases"]:
            lines.append(f"  {row['phase']}: {row['wall_s']:.3f}s")
    problems = summary["reconcile"]
    lines.append("spans reconcile: "
                 + ("ok" if not problems
                    else f"{len(problems)} problems"))
    for problem in problems:
        lines.append(f"  {problem}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _tail(path: str, last: int) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    shown = [line for line in lines if line.strip()][-max(1, last):]
    for line in shown:
        try:
            event = json.loads(line)
            problems = check_obs_event(event)
        except ValueError:
            problems = ["not valid JSON"]
        if problems:
            print(f"[invalid: {problems[0]}] {line}")
            continue
        t = event["t"]
        extras = {k: v for k, v in event.items()
                  if k not in ("v", "t", "ev")}
        detail = " ".join(f"{k}={v}" for k, v in extras.items())
        print(f"t={t:10.3f}  {event['ev']:<14} {detail}")
    return 0


def run_obs(action: str, log: Optional[str] = None,
            out: Optional[str] = None, last: int = 20,
            strict: bool = False, as_json: bool = False) -> int:
    """Entry point behind ``repro obs`` (also directly testable)."""
    if log is None:
        print(f"error: obs {action} requires a campaign log path")
        return 2
    if action == "tail":
        return _tail(log, last)

    try:
        events = load_log(log)
    except OSError as exc:
        print(f"error: {exc}")
        return 1
    except ObsLogError as exc:
        print(f"error: {exc}")
        for problem in exc.problems[:10]:
            print(f"  {problem}")
        return 1

    if action == "summarize":
        summary = summarize_events(events)
        if as_json:
            print(json.dumps(summary, indent=1, sort_keys=True))
        else:
            print(format_summary(summary))
        return 1 if (strict and summary["reconcile"]) else 0

    if action == "perfetto":
        target = out if out is not None else str(
            Path(log).with_suffix(".perfetto.json"))
        from repro.telemetry.schema import check_trace_payload
        payload = write_campaign_perfetto(target, events)
        problems = check_trace_payload(payload)
        if problems:
            print(f"error: exported trace fails validation: "
                  f"{problems[:3]}")
            return 1
        print(f"wrote {target} ({len(payload['traceEvents'])} events; "
              f"open in ui.perfetto.dev)")
        return 0

    print(f"error: unknown obs action {action!r}")
    return 2
