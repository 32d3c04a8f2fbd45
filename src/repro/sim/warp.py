"""Per-warp execution state.

A warp carries a pre-generated dynamic trace (list of static-instruction
indices; loops unrolled and divergent paths serialized at trace-generation
time) and a small timing context: per-register ready times, a blocked-until
cycle, and synthetic address counters for each memory access pattern.
"""

from __future__ import annotations

import enum
from typing import List

#: Sentinel "blocked forever" used for barrier waits.
FOREVER = 1 << 60


class WarpState(enum.Enum):
    RUNNABLE = "runnable"
    AT_BARRIER = "barrier"
    FINISHED = "finished"


class WarpSim:
    """Timing state of one warp."""

    __slots__ = (
        "warp_id", "global_warp_id", "cta", "trace", "pos",
        "ready_at", "peak_ready", "blocked_until", "state", "sched_seq",
        "chk_pos", "chk_ready",
        "stream_counter", "reuse_counter", "shared_counter",
        "stream_base", "reuse_base",
    )

    def __init__(self, warp_id: int, global_warp_id: int, cta_id: int,
                 trace: List[int], nregs: int = 64) -> None:
        self.warp_id = warp_id                  # index within the CTA
        self.global_warp_id = global_warp_id    # unique across the launch
        self.cta = None                         # attached by the SM
        self.trace = trace
        self.pos = 0
        # Scoreboard: per-register ready cycle, indexed by register id
        # (register ids are small and dense, so a flat list beats a dict on
        # every hot-path read/write; never-written registers read 0 exactly
        # like the old ``dict.get(reg, 0)``).
        self.ready_at: List[int] = [0] * nregs
        # Upper bound on max(ready_at.values()): while it is <= now, no
        # source register can be pending, so the per-issue operand scan is
        # skipped entirely.  Writebacks raise it; it never needs lowering
        # (a stale-high bound only costs one redundant scan).
        self.peak_ready = 0
        # Memoized operand scan: the max source-ready cycle computed for
        # trace position ``chk_pos``.  ``ready_at`` only changes when this
        # warp issues (which advances ``pos``), so a matching position means
        # the cached value is still exact.
        self.chk_pos = -1
        self.chk_ready = 0
        self.blocked_until = 0
        self.state = WarpState.RUNNABLE
        # Stable GTO priority key (attach order); set by the scheduler.
        self.sched_seq = 0
        # Synthetic address-stream state (see workloads.traces).
        self.stream_counter = 0
        self.reuse_counter = 0
        self.shared_counter = 0
        self.stream_base = (global_warp_id & 0xFFFF) << 26
        self.reuse_base = (cta_id & 0xFFFF) << 18 | 1 << 42

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state is WarpState.FINISHED

    def is_runnable(self, now: int) -> bool:
        return (self.state is WarpState.RUNNABLE
                and self.blocked_until <= now)

    def is_blocked(self, now: int) -> bool:
        """Blocked = alive but unable to issue this cycle."""
        return not self.finished and not self.is_runnable(now)

    def remaining_block(self, now: int) -> int:
        """Cycles until this warp could issue again (0 if runnable)."""
        if self.finished:
            return FOREVER
        return max(0, self.blocked_until - now)

    # ------------------------------------------------------------------
    def current_static_index(self) -> int:
        """Static instruction index the warp is stalled at / will issue."""
        return self.trace[self.pos]

    def operands_ready_at(self, srcs) -> int:
        """Cycle when all source registers are available."""
        ready = 0
        ready_at = self.ready_at
        for reg in srcs:
            t = ready_at[reg]
            if t > ready:
                ready = t
        return ready

    def finish(self) -> None:
        self.state = WarpState.FINISHED
        self.blocked_until = FOREVER

    def wait_at_barrier(self) -> None:
        self.state = WarpState.AT_BARRIER
        self.blocked_until = FOREVER

    def release_barrier(self, now: int) -> None:
        if self.state is WarpState.AT_BARRIER:
            self.state = WarpState.RUNNABLE
            self.blocked_until = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Warp(cta={self.cta.cta_id}, id={self.warp_id}, "
                f"pos={self.pos}/{len(self.trace)}, {self.state.value})")
