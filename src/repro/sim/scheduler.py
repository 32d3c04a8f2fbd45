"""Greedy-then-oldest (GTO) warp scheduler.

Each SM has four schedulers (Table I); warps of active CTAs are distributed
round-robin across them.  A scheduler keeps issuing from its current warp
("greedy") until that warp blocks, then falls back to the oldest runnable
warp it owns.

Hot-loop notes:

* Warps live in two buckets: a ``_ready`` list (sorted by the stable
  attach-order key ``warp.sched_seq``, which is exactly the launch-order
  scan position the dense implementation used, so GTO priority is
  unchanged) and a ``_blocked`` min-heap keyed by ``blocked_until``.  A
  failed scan touches only warps that could actually issue; blocked warps
  are promoted off the heap when their wake cycle arrives.  Any structural
  change (attach, remove, barrier wake) marks the buckets dirty and they
  are rebuilt from the authoritative ``warps`` list on the next issue.
* The sleep cache (``_sleep_until``) is folded into the scan itself: a scan
  in which every warp failed already knows the earliest wake, so no
  separate per-cycle ``_set_sleep`` walk is needed.  The cache stays
  conservative — any event that could make a warp runnable earlier resets
  it via :meth:`wake` — so sleeping is observably identical to rescanning.
* The fused fast step (``sm._step_fast``) inlines the bucket maintenance
  and the sleep fold directly, and the compiled core (``_ckernel.c``)
  replaces the buckets with an attach-order member scan; the invariants
  above (stable ``sched_seq`` order, conservative ``_sleep_until``,
  dirty-rebuild from ``warps``) are their correctness contract.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.sim.warp import FOREVER, WarpSim, WarpState

#: The issue callback: (warp, now) -> True if the warp issued an instruction.
IssueFn = Callable[[WarpSim, int], bool]


class GTOScheduler:
    """One of the SM's warp schedulers."""

    __slots__ = ("scheduler_id", "warps", "_current", "_sleep_until",
                 "telemetry", "_ready", "_blocked", "_dirty", "_seq")

    def __init__(self, scheduler_id: int) -> None:
        self.scheduler_id = scheduler_id
        self.warps: List[WarpSim] = []
        self._current: Optional[WarpSim] = None
        self._sleep_until = 0
        # MetricsRegistry installed by repro.telemetry (None = off).
        self.telemetry = None
        # Incremental issue buckets (derived from ``warps``; rebuilt lazily).
        self._ready: List[Tuple[int, WarpSim]] = []
        self._blocked: List[Tuple[int, int, WarpSim]] = []
        self._dirty = True
        self._seq = 0

    # ------------------------------------------------------------------
    def add_warp(self, warp: WarpSim) -> None:
        warp.sched_seq = self._seq
        self._seq += 1
        self.warps.append(warp)
        self._sleep_until = 0
        self._dirty = True

    def remove_warp(self, warp: WarpSim) -> None:
        self.warps.remove(warp)
        if self._current is warp:
            self._current = None
        self._dirty = True
        self._resleep()

    def remove_cta(self, cta_id: int) -> None:
        """Drop all warps belonging to a CTA (it went pending or finished)."""
        self.warps = [w for w in self.warps if w.cta.cta_id != cta_id]
        if self._current is not None and self._current.cta.cta_id == cta_id:
            self._current = None
        self._dirty = True
        self._resleep()

    def _resleep(self) -> None:
        """Refresh the sleep cache to the exact earliest wake after a
        removal.  The removed warps may have been pinning the cache low (or
        been the pending wake it pointed at); the recomputed value obeys the
        same contract the failed-scan fold establishes — never past the
        earliest cycle a remaining warp could issue — so behaviour is
        observably unchanged, and the event engine's ``next_event_fast``
        can equate the cache with the active-warp minimum."""
        earliest = FOREVER
        for warp in self.warps:
            b = warp.blocked_until
            if b < earliest:
                earliest = b
        self._sleep_until = earliest

    def wake(self) -> None:
        """Invalidate the sleep cache (a warp may be runnable earlier)."""
        self._sleep_until = 0
        self._dirty = True

    def sleeping(self, now: int) -> bool:
        """Would :meth:`issue` refuse instantly at ``now``?"""
        return now < self._sleep_until

    @property
    def occupancy(self) -> int:
        return len(self.warps)

    # ------------------------------------------------------------------
    def _rebuild(self, now: int) -> None:
        """Recompute both buckets from the authoritative warp list."""
        ready: List[Tuple[int, WarpSim]] = []
        blocked: List[Tuple[int, int, WarpSim]] = []
        for warp in self.warps:
            b = warp.blocked_until
            if b <= now:
                ready.append((warp.sched_seq, warp))
            else:
                blocked.append((b, warp.sched_seq, warp))
        ready.sort()
        heapify(blocked)
        self._ready = ready
        self._blocked = blocked
        self._dirty = False

    def issue(self, now: int, try_issue: IssueFn) -> bool:
        """Attempt to issue one instruction this cycle.

        Greedy: retry the current warp first.  Then oldest-first over the
        ready bucket.  ``try_issue`` may refuse (dependency not ready), in
        which case it must have set the warp's ``blocked_until`` so the warp
        is demoted to the heap for the rest of the stall.
        """
        if now < self._sleep_until:
            return False
        runnable = WarpState.RUNNABLE
        current = self._current
        if current is not None:
            if current.state is WarpState.FINISHED:
                self._current = None
                current = None
            elif (current.state is runnable and current.blocked_until <= now
                  and try_issue(current, now)):
                return True
        if self._dirty:
            self._rebuild(now)
            ready = self._ready
        else:
            ready = self._ready
            blocked = self._blocked
            if blocked and blocked[0][0] <= now:
                # Promote newly-unblocked warps in stable priority order.
                while blocked and blocked[0][0] <= now:
                    entry = heappop(blocked)
                    ready.append((entry[1], entry[2]))
                ready.sort()
        blocked = self._blocked
        i = 0
        while i < len(ready):
            entry = ready[i]
            warp = entry[1]
            if warp is current:
                i += 1
                continue
            b = warp.blocked_until
            if b > now:
                # Went to a barrier / finished / direct blocked_until write
                # since it was last scanned: demote.
                heappush(blocked, (b, entry[0], warp))
                del ready[i]
                continue
            if warp.state is not runnable:
                # Alive-but-unschedulable with blocked_until in the past:
                # the dense scan kept rescanning (and never slept); match it.
                i += 1
                continue
            if try_issue(warp, now):
                self._current = warp
                return True
            b = warp.blocked_until
            if b > now:
                heappush(blocked, (b, entry[0], warp))
                del ready[i]
            else:
                i += 1
        # Nothing issued: every leftover either pins the scheduler awake
        # (blocked_until still <= now) or bounds the earliest wake.
        earliest = blocked[0][0] if blocked else FOREVER
        for entry in ready:
            b = entry[1].blocked_until
            if b <= now:
                return False
            if b < earliest:
                earliest = b
        self._note_sleep(now, earliest)
        return False

    def _note_sleep(self, now: int, earliest: int) -> None:
        """All warps just failed to issue: sleep until the earliest wake.

        Barrier waits (``FOREVER``) are woken by the SM explicitly.
        """
        self._sleep_until = earliest
        if self.telemetry is not None:
            self.telemetry.inc("scheduler.sleep_entries")
            if earliest < FOREVER:
                self.telemetry.observe("scheduler.sleep_cycles",
                                       earliest - now)


class LRRScheduler(GTOScheduler):
    """Loose round-robin: rotate through warps instead of running one
    greedily.  Included for the scheduler ablation (Table I uses GTO)."""

    __slots__ = ("_next",)

    def __init__(self, scheduler_id: int) -> None:
        super().__init__(scheduler_id)
        self._next = 0

    def issue(self, now: int, try_issue: IssueFn) -> bool:
        if now < self._sleep_until:
            return False
        runnable = WarpState.RUNNABLE
        warps = self.warps
        count = len(warps)
        for offset in range(count):
            warp = warps[(self._next + offset) % count]
            if (warp.state is runnable and warp.blocked_until <= now
                    and try_issue(warp, now)):
                self._next = (self._next + offset + 1) % count
                self._current = warp
                return True
        # Sleep folded into the failed scan (the dense `_set_sleep` walk).
        earliest = FOREVER
        for warp in warps:
            blocked = warp.blocked_until
            if blocked <= now:
                return False
            if blocked < earliest:
                earliest = blocked
        self._note_sleep(now, earliest)
        return False


SCHEDULER_KINDS = {
    "gto": GTOScheduler,
    "lrr": LRRScheduler,
}
