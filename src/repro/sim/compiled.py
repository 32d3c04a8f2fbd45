"""Compiled backend: decoupled per-SM issue loops in C over a shared-op merge.

The event engine (``GPU._run_event``) orchestrates every SM from one global
cycle loop.  For a *decoupled* run none of that global work is needed: each
SM's issue timing is a function of its own warps plus a small set of shared
interactions.  This backend runs each SM's issue loop privately in the
``repro.sim._ckernel`` C extension and synchronizes only where the
simulation is genuinely coupled:

* **Lowering** -- once per run, after the dense prologue fill: the static
  ``_meta`` table becomes a flat C array (srcs / dest / pattern /
  fused-kind / fixed latency), each unique dynamic trace is interned once
  (memoized by identity), and every warp / CTA / scheduler becomes a flat
  C record (scoreboard, ``blocked_until``, barrier counts, member lists in
  ``sched_seq`` order).
* **Merge points** -- ``Core.resume(sm_id)`` runs one SM's issue loop (a
  transcription of ``SM._step_fast``) and returns before every hierarchy
  access and before every ``_finish_warp``.  The held operation is then
  performed *in Python* through the real objects (``hierarchy._access``,
  ``sm._finish_warp``, the policy fill chain), served in global
  ``(cycle, sm_id)`` heap order.  Resume cycles are nondecreasing, so the
  merge reproduces the dense interleaving -- and therefore every L2/DRAM
  state transition and grid race -- exactly.
* **Write-back** -- around each EXIT the mutated state is exchanged both
  ways: C's view of the SM (scheduler sleep/current, warp positions and
  block states, CTA barrier/stall fields) is written to the Python
  objects *before* the retire chain runs, and the chain's effects (freed
  warps, released barriers, freshly launched CTAs) are re-lowered after.
* **Reconciliation** -- the global clock, timeout and deadlock are
  reductions over the per-SM summaries; idle cycles are busy spans minus
  issue cycles, and the level integrals are exact int64 sums merged once.

Only runs :func:`repro.sim.backend.choose_engine` admits get here: no
tracer/sanitizer/telemetry surface, a single launch, the fused step
valid on every SM, no instance-level override on the surface the C core
inlines, and every policy *inert* -- byte-for-byte the base
:class:`RegisterFilePolicy` behaviour.  Inert policies never create
pending/transit CTAs, never act on idle/tick, and classify every idle span
as "other", which is what makes the closed-form reconciliation exact.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.sim.warp import FOREVER, WarpState

#: C warp-state ids <-> the Python enum (order is part of the C ABI).
_STATES = (WarpState.RUNNABLE, WarpState.AT_BARRIER, WarpState.FINISHED)
_STATE_IDS = {state: index for index, state in enumerate(_STATES)}


def run_compiled(gpu, max_cycles):
    """Drive one run on the C core; bit-identical to the dense oracle by
    construction."""
    sms = gpu.sms
    for sm in sms:
        sm._bind_fast_path()
    # Initial fill in SM order (exactly the dense prologue), then lower.
    for sm in sms:
        sm.policy.fill(0)
    return _Run(gpu, max_cycles).run()


class _Run:
    """One lowered run: the Core object plus the Python<->C slot maps."""

    def __init__(self, gpu, max_cycles) -> None:
        from repro.sim import _ckernel

        sms = gpu.sms
        sm0 = sms[0]
        model = gpu.address_model
        # _meta is identical across SMs for a single-launch run (the only
        # kind that is eligible): lower SM 0's table once.
        meta = [(m[6], -1 if m[1] is None else m[1], m[7], m[8], m[9],
                 tuple(m[0])) for m in sm0._meta]
        self.gpu = gpu
        self.max_cycles = max_cycles
        self.core = _ckernel.Core(
            len(sms), len(sm0.schedulers), sm0._nregs,
            sm0._stall_threshold, model.reuse_spatial, model.reuse_lines,
            model.shared_lines, model.SHARED_BASE, max_cycles, meta)
        # Identity maps.  Strong references pin the ids: traces are shared
        # and immutable, warps/CTAs live until the Core does.
        self.wslots = {}        # id(warp) -> warp slot
        self.slot_warps = []    # warp slot -> warp
        self.cslots = {}        # id(cta) -> CTA slot
        self._trace_slots = {}  # id(trace) -> trace slot
        self._refs = []
        for sm in sms:
            for cta in sm.active_ctas:
                self._lower_cta(sm, cta)
        for sm in sms:
            self._sync_sm(sm)

    # ------------------------------------------------------------------
    # Python -> C
    # ------------------------------------------------------------------
    def _lower_cta(self, sm, cta) -> None:
        """Lower one freshly launched CTA (all warps in pristine state)."""
        core = self.core
        cslot = core.new_cta(sm.sm_id, cta.cta_id)
        self.cslots[id(cta)] = cslot
        self._refs.append(cta)
        trace_slots = self._trace_slots
        for warp in cta.warps:
            trace = warp.trace
            tslot = trace_slots.get(id(trace))
            if tslot is None:
                tslot = core.add_trace(trace)
                trace_slots[id(trace)] = tslot
                self._refs.append(trace)
            wslot = core.new_warp(sm.sm_id, cslot, tslot,
                                  warp.global_warp_id)
            self.wslots[id(warp)] = wslot
            self.slot_warps.append(warp)

    def _sync_sm(self, sm) -> None:
        """Import the SM's scheduler membership and resource levels."""
        core = self.core
        wslots = self.wslots
        for k, sched in enumerate(sm.schedulers):
            current = sched._current
            core.set_sched(
                sm.sm_id, k, [wslots[id(w)] for w in sched.warps],
                sched._sleep_until,
                -1 if current is None else wslots[id(current)])
        core.set_levels(sm.sm_id, 1 if sm._lvl_dirty else 0,
                        len(sm.active_ctas), sm._active_warps)
        # The C core owns the level-flush boundary from here on (it clears
        # its dirty bit at its own end-of-cycle flush, exactly where the
        # fused step's buffered flush boundary falls).
        sm._lvl_dirty = False

    # ------------------------------------------------------------------
    # C -> Python
    # ------------------------------------------------------------------
    def _writeback_sm(self, sm) -> None:
        """Export C's view of one SM onto the real Python objects.

        Required before the EXIT retire chain runs: ``remove_warp`` /
        ``_resleep`` reads every sibling's ``blocked_until``,
        ``maybe_release_barrier`` reads warp states, and the scheduler
        sleep caches must round-trip exactly (a blanket wake here would
        corrupt the wake summary near ``max_cycles``).
        """
        core = self.core
        sm_id = sm.sm_id
        slot_warps = self.slot_warps
        wslots = self.wslots
        cslots = self.cslots
        for k, sched in enumerate(sm.schedulers):
            sleep, cur = core.sched_state(sm_id, k)
            sched._sleep_until = sleep
            sched._current = None if cur < 0 else slot_warps[cur]
            sched._dirty = True
        for cta in sm.active_ctas:
            arrived, first, recorded = core.get_cta(cslots[id(cta)])
            cta.barrier_arrived = arrived
            cta.first_issue_cycle = None if first < 0 else first
            cta.stall_recorded = bool(recorded)
            for warp in cta.warps:
                pos, state, blocked = core.get_warp(wslots[id(warp)])
                warp.pos = pos
                warp.state = _STATES[state]
                warp.blocked_until = blocked

    def _serve_exit(self, sm, now, wslot) -> None:
        """One EXIT merge point: run the real retire chain in Python.

        C already advanced the warp past its EXIT; the finish itself
        (packed stat credit, scheduler removal, barrier release, CTA
        retire -> policy fill -> grid pull) runs through the real SM and
        policy methods so instance-level wrappers stay honored and grid
        races revalidate naturally.
        """
        warp = self.slot_warps[wslot]
        self._writeback_sm(sm)
        sm._finish_warp(warp, now)
        exit_cta = warp.cta
        cslots = self.cslots
        for cta in sm.active_ctas:
            if id(cta) not in cslots:
                self._lower_cta(sm, cta)
        # The chain may have released the exiting CTA's barrier: re-import
        # its warps' states (the finished warp included) before the
        # scheduler/level sync.
        core = self.core
        wslots = self.wslots
        for w in exit_cta.warps:
            core.set_warp(wslots[id(w)], _STATE_IDS[w.state],
                          w.blocked_until)
        self._sync_sm(sm)

    # ------------------------------------------------------------------
    def run(self):
        gpu = self.gpu
        core = self.core
        sms = gpu.sms
        hier = gpu.hierarchy
        hier_stats = hier.stats
        access = hier._access
        resume = core.resume
        max_cycles = self.max_cycles

        results = [None] * len(sms)
        held = [None] * len(sms)
        heap = []
        for sm in sms:
            desc = resume(sm.sm_id, 0)
            if desc[0] == 0:
                results[sm.sm_id] = core.summary(sm.sm_id)
            else:
                held[sm.sm_id] = desc
                heap.append((desc[1], sm.sm_id))
        heapify(heap)

        # K-way merge on (cycle, sm_id): resume cycles are nondecreasing
        # and each SM holds one outstanding op, so serving the heap minimum
        # reproduces the dense global order; the inner loop keeps serving
        # the same SM while it remains the minimum.
        while heap:
            cycle, sm_id = heappop(heap)
            sm = sms[sm_id]
            while True:
                desc = held[sm_id]
                kind = desc[0]
                if kind == 1:       # LDG
                    hier_stats.loads += 1
                    done = access(sm_id, desc[3], desc[1], False)
                    desc = resume(sm_id, done)
                elif kind == 2:     # STG
                    hier_stats.stores += 1
                    access(sm_id, desc[3], desc[1], True)
                    desc = resume(sm_id, 0)
                else:               # EXIT
                    self._serve_exit(sm, desc[1], desc[2])
                    desc = resume(sm_id, 0)
                if desc[0] == 0:
                    results[sm_id] = core.summary(sm_id)
                    break
                cycle = desc[1]
                held[sm_id] = desc
                if heap:
                    head = heap[0]
                    if head[0] < cycle or (head[0] == cycle
                                           and head[1] < sm_id):
                        heappush(heap, (cycle, sm_id))
                        break

        # ---- reconciliation: global clock, timeout, deadlock ----
        # With L the global last issue (no SM executes a cycle >=
        # max_cycles): all drained -> L + 1, no timeout; L + 1 >=
        # max_cycles -> L + 1, timeout; otherwise the min busy-SM wake
        # (each >= max_cycles), or a deadlock at L + 1 when it is FOREVER.
        last = -1
        for summary in results:
            if summary[2] > last:
                last = summary[2]
        busy = [summary for summary in results if summary[0]]
        if not busy:
            now_final = last + 1
            timed_out = False
        elif last + 1 >= max_cycles:
            now_final = last + 1
            timed_out = True
        else:
            wake = min(summary[1] for summary in busy)
            if wake >= FOREVER:
                gpu._raise_deadlock(last + 1)
            now_final = wake
            timed_out = True

        for sm, summary in zip(sms, results):
            (was_busy, __, last_i, n_issue,
             seg_start, seg_active, seg_warps) = summary
            # Final state export: _flush_deferred_stats reads warp.pos of
            # unfinished warps on a timeout, and post-run introspection
            # (tests, debug_accounting) sees live state on every backend.
            self._writeback_sm(sm)
            stats = sm.stats
            cta_sum, warp_sum, max_res = core.levels(sm.sm_id)
            # The closed segments were accumulated in C as exact integer
            # sums; one float add of each total is bit-identical to the
            # dense per-segment float adds (every partial sum < 2**53).
            if cta_sum:
                stats.active_cta_cycles += cta_sum
            if warp_sum:
                stats.active_warp_cycles += warp_sum
            if max_res > stats.max_resident_ctas:
                stats.max_resident_ctas = max_res
            stalls = core.take_stalls(sm.sm_id)
            if stalls:
                stats.stall_latencies.extend(stalls)
            dt = now_final - seg_start
            if dt and (seg_active or seg_warps):
                stats.accumulate(dt, seg_active, 0, seg_warps)
            # Idle = busy span minus issue cycles: [0, now_final) for a
            # busy-at-end SM; [0, last_issue) plus the drain cycle itself
            # (which the dense engine sees already retired) for a drained one.
            if was_busy:
                stats.idle_cycles += now_final - n_issue
            elif last_i >= 0:
                stats.idle_cycles += last_i - (n_issue - 1)
        return gpu._finish_run(now_final, timed_out)
