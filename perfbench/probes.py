"""Records spans around the program's public entry points, from outside.

Wrappers go on classes and module-level functions only (``GPU``,
``ResultCache``, ``build_workload``, ``run_requests``, each campaign
module's ``run``).  Nothing is wrapped on SM, policy or ``AddressModel``
instances: their instance attributes decide which engine may run
(``instance_overrides``, ``fast_step_eligible``), so wrapping them would
change what is measured.

Each process appends one JSON line per record to ``<rec_dir>/<pid>.jsonl``.
Pool workers forked after :func:`install` inherit the wrappers, so their
runs are recorded too.
"""

import cProfile
import functools
import importlib
import json
import os
import pstats
import sys
import time

#: Source-path marker -> layer that owns the code's self time.
_LAYERS = (
    ("repro/workloads/", "workloads"),
    ("repro/memory/", "memory"),
    ("repro/policies/", "policies"),
    ("repro/core/", "policies"),
    ("repro/sim/", "sim"),
    ("repro/experiments/", "experiments"),
)

#: cProfile's name for the compiled issue core's merge-point entry.
_CCORE = "<method 'resume' of 'repro.sim._ckernel.Core' objects>"


def _layer(filename):
    path = filename.replace(os.sep, "/")
    for marker, layer in _LAYERS:
        if marker in path:
            return layer
    return "other"


def attribute(profile):
    """Self time by layer from a finished profile.

    Built-in functions (filename ``~``) have no package of their own, so
    their time goes to the caller, split by the caller edge's own time.
    The compiled core's ``Core.resume`` is kept apart as C-core time.
    """
    self_s = {}
    ccore_s, ccore_calls = 0.0, 0
    for (filename, _line, name), (_cc, calls, own, _cum, callers) in \
            pstats.Stats(profile).stats.items():
        if filename != "~":
            self_s[_layer(filename)] = self_s.get(_layer(filename), 0.0) + own
        elif name == _CCORE:
            ccore_s += own
            ccore_calls += calls
        elif callers:
            for (caller_file, _l, _n), edge in callers.items():
                layer = _layer(caller_file)
                self_s[layer] = self_s.get(layer, 0.0) + edge[2]
        else:
            self_s["other"] = self_s.get("other", 0.0) + own
    return self_s, ccore_s, ccore_calls


class Recorder:
    """Appends records to this process's file under ``rec_dir``."""

    def __init__(self, rec_dir):
        self.rec_dir = rec_dir

    def emit(self, **record):
        path = os.path.join(self.rec_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def timed(self, kind, fn, **fields):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.emit(kind=kind, dur=time.monotonic() - start, **fields)
        return wrapper


def run_record(gpu, result, dur):
    """The run's provenance, correctness inputs and modelled counters."""
    return dict(
        kind="run", dur=dur, workload=result.workload, policy=result.policy,
        engine=gpu.engine_used,
        grid=sum(launch.grid_ctas for launch in gpu.launches),
        completed=result.completed_ctas, timed_out=result.timed_out,
        cycles=result.cycles, instructions=result.instructions,
        l1_accesses=result.l1_accesses, l1_hit_rate=result.l1_hit_rate,
        l2_accesses=result.l2_accesses, l2_hit_rate=result.l2_hit_rate,
        dram_bytes=result.dram_traffic_bytes,
        pcrf_ops=result.pcrf_reads + result.pcrf_writes,
        cta_switches=result.cta_switch_events,
        switch_overhead_cycles=(result.switch_out_overhead_cycles
                                + result.switch_in_overhead_cycles),
        rf_depletion_cycles=result.rf_depletion_cycles,
        srp_stall_cycles=result.srp_stall_cycles,
        bitvector_hit_rate=result.bitvector_hit_rate)


def install(rec_dir, trace, campaign):
    """Wrap the entry points; ``trace`` adds spans and the profiler.

    Untraced runs record only ``GPU(...)`` and ``GPU.run`` (one line per
    simulation: the engine that ran and its host time), which the
    end-to-end rates and the engine provenance need.
    """
    from repro.sim.gpu import GPU

    rec = Recorder(rec_dir)
    init, run = GPU.__init__, GPU.run

    @functools.wraps(init)
    def gpu_init(self, *args, **kwargs):
        start = time.monotonic()
        init(self, *args, **kwargs)
        rec.emit(kind="construct", dur=time.monotonic() - start)

    @functools.wraps(run)
    def gpu_run(self, *args, **kwargs):
        profile = cProfile.Profile() if trace else None
        start = time.monotonic()
        if profile is not None:
            profile.enable()
        try:
            result = run(self, *args, **kwargs)
        finally:
            if profile is not None:
                profile.disable()
        record = run_record(self, result, time.monotonic() - start)
        if profile is not None:
            (record["self_s"], record["ccore_s"],
             record["ccore_calls"]) = attribute(profile)
        rec.emit(**record)
        return result

    GPU.__init__, GPU.run = gpu_init, gpu_run
    if not trace:
        return
    from repro.experiments import cache, runner
    from repro.workloads import generator

    modules = []
    if campaign:
        from repro.experiments.run_all import CAMPAIGN
        modules = [importlib.import_module(f"repro.experiments.{name}")
                   for name, _keys in CAMPAIGN]
    build = generator.build_workload
    wrapped = rec.timed("build", build)
    for module in list(sys.modules.values()):
        if getattr(module, "build_workload", None) is build:
            module.build_workload = wrapped
    cache.ResultCache.get = rec.timed("cache_get", cache.ResultCache.get)
    cache.ResultCache.put = rec.timed("cache_put", cache.ResultCache.put)
    runner.run_requests = rec.timed("pool", runner.run_requests)
    for module in modules:
        module.run = rec.timed("render", module.run,
                               module=module.__name__.rsplit(".", 1)[-1])


def load(rec_dir):
    """Every record written under ``rec_dir``, each tagged with its pid."""
    records = []
    for name in sorted(os.listdir(rec_dir)):
        pid = int(name.split(".")[0])
        with open(os.path.join(rec_dir, name), encoding="utf-8") as fh:
            records.extend(dict(json.loads(line), pid=pid) for line in fh)
    return records
