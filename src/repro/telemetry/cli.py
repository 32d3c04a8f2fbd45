"""``repro trace`` — run one traced simulation and export its telemetry.

Always simulates cold (no result cache involved): the point of the command
is the event stream and timelines, which only exist when the simulation
actually runs.  Exports:

* ``--perfetto OUT``: Chrome trace-event / Perfetto JSON (load in
  https://ui.perfetto.dev or ``chrome://tracing``);
* ``--timeline OUT``: the raw columnar per-cycle timeline payload;
* a stall-attribution / switch-overhead summary on stdout either way.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.config import SCALES, default_config
from repro.experiments.report import format_table
from repro.obs import clock
from repro.sim.gpu import GPU
from repro.sim.tracing import attach_tracer
from repro.telemetry.perfetto import write_perfetto
from repro.telemetry.session import TelemetryConfig, attach_telemetry
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec


def run_trace(app: str, policy: str = "finereg", scale_name: str = "tiny",
              perfetto_out: Optional[str] = None,
              timeline_out: Optional[str] = None,
              interval: int = 1, capacity: int = 100_000) -> int:
    """Simulate ``app`` under ``policy`` with full telemetry attached."""
    # Lazy: keeps repro.telemetry importable without the experiments layer.
    from repro.experiments.runner import POLICIES

    if policy not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {policy!r}; known: {known}")
    scale = SCALES[scale_name]
    config = default_config(scale)
    spec = get_spec(app.upper())
    instance = build_workload(spec, config, scale)
    gpu = GPU(
        config,
        instance.kernel,
        POLICIES[policy](),
        instance.trace_provider,
        instance.address_model,
        liveness=instance.liveness,
    )
    tracer = attach_tracer(gpu, capacity=capacity, level="warp")
    session = attach_telemetry(
        gpu, TelemetryConfig(timeline_interval=interval))

    started = clock.monotonic()
    result = gpu.run(max_cycles=scale.max_cycles)
    wall_s = clock.monotonic() - started

    if perfetto_out:
        _ensure_parent(perfetto_out)
        write_perfetto(perfetto_out, tracer,
                       timeline=session.timeline,
                       label=f"{spec.abbrev}/{policy}/{scale_name}")
        print(f"wrote {perfetto_out} "
              f"({len(tracer.events)} events, {tracer.dropped} dropped)")
    if timeline_out and session.timeline is not None:
        _ensure_parent(timeline_out)
        with open(timeline_out, "w", encoding="utf-8") as fh:
            json.dump(session.timeline.as_payload(), fh,
                      separators=(",", ":"))
        print(f"wrote {timeline_out} "
              f"({session.timeline.num_samples} samples/SM)")

    _print_summary(spec.abbrev, policy, scale_name, result, tracer, wall_s)
    return 0


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _print_summary(abbrev: str, policy: str, scale_name: str, result,
                   tracer, wall_s: float) -> None:
    span = max(1, result.cycles * result.num_sms)
    rows = [
        ["cycles", result.cycles],
        ["IPC", f"{result.ipc:.3f}"],
        ["stall fraction", f"{result.idle_cycles / span:.3f}"],
        ["  RF depletion", f"{result.rf_depletion_cycles / span:.3f}"],
        ["  SRP contention", f"{result.srp_stall_cycles / span:.3f}"],
        ["CTA switches", result.cta_switch_events],
        ["switch overhead (cyc)", result.switch_overhead_cycles],
        ["  switch-out", result.switch_out_overhead_cycles],
        ["  switch-in", result.switch_in_overhead_cycles],
    ]
    if wall_s > 0:
        rows.append(["simulator speed",
                     f"{result.cycles / wall_s:,.0f} cycles/s"])
    for kind, count in sorted(tracer.counts_by_kind().items()):
        rows.append([f"events: {kind}", count])
    if tracer.dropped:
        rows.append(["events dropped", tracer.dropped])
    print(format_table(
        ["metric", "value"], rows,
        title=f"Trace summary: {abbrev} under {policy} ({scale_name})"))
