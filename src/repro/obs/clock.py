"""Host clock -- the one host-clock module of ``src/repro``.

Every module that measures host time (the campaign obs tier, ``repro
trace``'s simulator-speed row) calls :func:`monotonic` from here; none
touches ``time`` directly.  The determinism lint's wall-clock-allowance
audit (see ``repro.analyze.lint``) fails any
``# lint: allow[wall-clock]`` suppression elsewhere, and a test strips the
tags below to prove they are load-bearing.

Only the *simulator* must be deterministic; host-time measurements are
never fed back into a simulation.
"""

from __future__ import annotations

import time


def monotonic() -> float:
    """Monotonic seconds; on Linux (CLOCK_MONOTONIC) comparable across the
    fork-spawned worker processes of one campaign."""
    return time.monotonic()  # lint: allow[wall-clock] (campaign self-measurement)


def wall_time() -> float:
    """Unix epoch seconds, for log correlation with the outside world."""
    return time.time()  # lint: allow[wall-clock] (log correlation only)
