"""Simulator telemetry: metrics, timelines, trace export, roll-ups.

The package is strictly *observation-only*: attaching any of its pieces to a
simulation must never change a single simulated cycle, and every disabled
hot-path hook costs exactly one ``is not None`` attribute test (enforced by
the perf guard in ``tests/test_perf_guard.py``).

Pieces (see docs/TELEMETRY.md for the full catalog):

* :mod:`repro.telemetry.registry`  -- counters / gauges / histograms.
* :mod:`repro.telemetry.timeline`  -- per-cycle occupancy series.
* :mod:`repro.telemetry.session`   -- one-call attach + artifact assembly.
* :mod:`repro.telemetry.perfetto`  -- Chrome trace-event / Perfetto export.
* :mod:`repro.telemetry.schema`    -- payload shape validation (CI).
* :mod:`repro.telemetry.rollup`    -- campaign-level p50/p95 aggregation.

None of them reads the host clock; ``repro trace`` times its run through
:mod:`repro.obs.clock`, the one audited clock module.
"""

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.session import (
    TelemetryConfig,
    TelemetrySession,
    attach_telemetry,
)
from repro.telemetry.timeline import TimelineSampler

__all__ = [
    "MetricsRegistry",
    "TelemetryConfig",
    "TelemetrySession",
    "TimelineSampler",
    "attach_telemetry",
]
