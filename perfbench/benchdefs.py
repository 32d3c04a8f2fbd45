"""Workload and metric definitions shared by the benchmark's processes.

Pure data: importing this module imports nothing from ``repro``, so the
entry point (``run.py``) can read it without loading the program under test.
See README.md for why each workload exists and what each metric means.
"""

from collections import namedtuple

#: Every registered register-file policy, in the paper's Fig-13 order.
POLICIES = ("baseline", "virtual_thread", "reg_dram", "vt_regmutex",
            "finereg", "finereg_adaptive")

#: Engines ``auto`` can resolve to or degrade through, fastest first.
ENGINES = ("compiled", "vectorized", "fused", "reference")

#: ``sim.engine.<policy>`` reports the mean of this rank over the policy's
#: runs, so a policy moving onto a faster engine shows as a higher number.
ENGINE_RANK = {"dense": 0, "reference": 1, "fused": 2, "vectorized": 3,
               "compiled": 4}

#: Worker processes of the ``campaign-tiny`` pool: fixed rather than
#: ``nproc``, so the workload is the same on every machine.
CAMPAIGN_JOBS = 2

#: Paper Fig 13: FineReg's mean speedup over the baseline.
PAPER_FINEREG_SPEEDUP = 0.328

#: ``oracle`` lists the (app, policy[, policy kwargs]) runs re-checked on
#: the dense oracle; the campaign's entries name requests it really makes.
Workload = namedtuple("Workload", "kind scale apps policies seeded oracle")

WORKLOADS = {
    # Five Table-II apps (Type-S KM, MC, BF; Type-R SG, LB) under every
    # policy: non-baseline policies run on the fused/reference engines, so
    # this is where campaign time goes.
    "policy-sweep": Workload(
        kind="sweep", scale="small", apps=("KM", "MC", "BF", "SG", "LB"),
        policies=POLICIES, seeded=True,
        oracle=(("KM", "baseline"), ("MC", "virtual_thread"),
                ("BF", "reg_dram"), ("SG", "vt_regmutex"),
                ("LB", "finereg"), ("KM", "finereg_adaptive"))),
    # All 18 apps (``apps=None``) at paper scale under the baseline only:
    # the policy layer is inert, the compiled core and repro.memory do the
    # work over the widest spread of cache footprints.
    "baseline-paper": Workload(
        kind="sweep", scale="paper", apps=None, policies=("baseline",),
        seeded=True, oracle=(("TA", "baseline"), ("HS", "baseline"))),
    # The user's command: run_all at tiny scale over a process pool, cold
    # result cache.  Fixed inputs (the shipped suite); the seed is unused.
    "campaign-tiny": Workload(
        kind="campaign", scale="tiny", apps=None, policies=POLICIES,
        seeded=False,
        oracle=(("KM", "baseline"), ("MC", "virtual_thread"),
                ("BF", "reg_dram", {"dram_pending_limit": 4}),
                ("SG", "vt_regmutex", {"srp_ratio": 0.28}),
                ("LB", "finereg"), ("KM", "finereg_adaptive"))),
}

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_instructions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, printed with ``--trace 1``."""
    metrics = [
        ("workloads.build_s", "s"),
        ("workloads.trace_gen_s", "s"),
        ("sim.construct_s", "s"),
        ("sim.run_s", "s"),
    ]
    metrics += [(f"sim.run_s.{p}", "s") for p in POLICIES]
    metrics += [(f"sim.cycles_per_s.{p}", "1/s") for p in POLICIES]
    metrics += [(f"sim.engine.{p}", "rank") for p in POLICIES]
    metrics += [(f"sim.engine_share.{e}", "fraction") for e in ENGINES]
    metrics += [
        ("sim.fallback_runs", "count"),
        ("sim.py_self_s", "s"),
        ("sim.ccore_s", "s"),
        ("sim.ccore_calls", "count"),
        ("memory.self_s", "s"),
        ("memory.accesses", "count"),
        ("memory.l1_hit_rate", "fraction"),
        ("memory.l2_hit_rate", "fraction"),
        ("memory.dram_bytes", "bytes"),
        ("policies.self_s", "s"),
        ("policies.pcrf_ops", "count"),
        ("policies.cta_switches", "count"),
        ("policies.switch_overhead_cycles", "cycles"),
        ("policies.rf_depletion_cycles", "cycles"),
        ("policies.srp_stall_cycles", "cycles"),
        ("policies.bitvector_hit_rate", "fraction"),
        ("experiments.planned_runs", "count"),
        ("experiments.completed_runs", "count"),
        ("experiments.unplanned_runs", "count"),
        ("experiments.pool_s", "s"),
        ("experiments.pool_utilization", "fraction"),
        ("experiments.render_s", "s"),
        ("experiments.cache_put_s", "s"),
        ("experiments.cache_get_s", "s"),
        ("experiments.cache_hit_rate", "fraction"),
        ("experiments.warm_cache_hit_rate", "fraction"),
        ("experiments.warm_rerender_s", "s"),
        ("model.sim_cycles", "cycles"),
        ("model.instructions", "count"),
    ]
    metrics += [(f"model.ipc_geomean.{p}", "1/cycle") for p in POLICIES]
    metrics += [
        ("model.finereg_speedup", "fraction"),
        ("trace.overhead_s", "s"),
    ]
    return metrics
