"""Full evaluation campaign: regenerate every table and figure in one pass.

Writes a markdown report (default ``results/REPORT.md``) with every
experiment's rendered table plus the headline summary numbers, reusing one
memoizing runner so shared simulations (Figs 12/13/16) only run once.

Each module's ``plan()`` (its full request set) is collected up front and
prefetched over a process pool (``--jobs``, default ``os.cpu_count()``),
so the serial ``run()`` loop afterwards is pure memo/report work.

Run::

    python -m repro.experiments.run_all [--scale small] [--out results]
                                        [--jobs N]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.config import SCALES
from repro.experiments.runner import ExperimentRunner
from repro.obs import OBS_LOG_ENV, ObsSession, obs_enabled
from repro.obs.spans import phase_rows
from repro.telemetry.rollup import render_rollup, rollup_results

#: (module, headline summary keys) in paper order.
CAMPAIGN = (
    ("fig02_resources", ("type_s_sched_x2", "type_r_mem_x2")),
    ("fig03_cta_overhead", ("register_share",)),
    ("fig04_case_study", ("full_rf_speedup", "ideal_speedup")),
    ("fig05_register_usage", ("mean_usage",)),
    ("table03_stall_time", ("min_cycles", "max_cycles")),
    ("fig12_concurrent_ctas", ("finereg_cta_ratio",)),
    ("fig12_concurrent_kernels", ("finereg_concurrent_cta_ratio",
                                  "finereg_concurrent_speedup")),
    ("fig13_performance", ("finereg_speedup", "virtual_thread_speedup",
                           "reg_dram_speedup", "vt_regmutex_speedup")),
    ("fig14_rf_stalls", ("regmutex_stall_fraction",
                         "finereg_stall_fraction")),
    ("fig15_memory_traffic", ("reg_dram_traffic_ratio",
                              "finereg_traffic_ratio")),
    ("fig16_energy", ("finereg_energy_ratio",)),
    ("fig17_rf_sensitivity", ("speedup_128_128", "speedup_64_192")),
    ("fig18_sm_scaling", ("finereg_speedup_16sm",)),
    ("fig19_unified_memory", ("um_speedup", "finereg_um_speedup")),
    ("ablation_bitvector_cache", ("hit_rate_32",)),
    ("ablation_switch_policy", ("speedup_gto",)),
    ("ablation_pcrf_latency", ("speedup_lat_4",)),
    ("ext_adaptive_split", ("adaptive_vs_default",)),
)


def campaign_plan(runner: ExperimentRunner,
                  modules: Optional[Sequence[str]] = None) -> List:
    """Every plannable request in the selected campaign, in module order.

    Duplicates across modules (Figs 12/13/16 share all their runs) are
    fine: ``run_many`` dedupes before dispatch.
    """
    requests = []
    for name, __ in CAMPAIGN:
        if modules is not None and name not in modules:
            continue
        module = importlib.import_module(f"repro.experiments.{name}")
        plan = getattr(module, "plan", None)
        if plan is not None:
            requests.extend(plan(runner))
    return requests


def run_campaign(runner: ExperimentRunner,
                 modules: Optional[Sequence[str]] = None,
                 jobs: Optional[int] = None) -> List:
    """Run every experiment; returns the ExperimentResult list.

    With ``jobs != 1`` the combined module plans are prefetched over a
    process pool first; the per-module ``run()`` calls below then hit the
    runner's memo for everything except result-dependent follow-ups
    (e.g. Fig 18's resource-scaled baseline).

    With an obs session attached to ``runner``, each stage is a phase
    span (``plan+prefetch``, ``render``, ``render:<module>``).
    """
    obs = getattr(runner, "obs", None)

    def obs_phase(name: str):
        return obs.phase(name) if obs is not None else nullcontext()

    if jobs is None or jobs > 1:
        with obs_phase("plan+prefetch"):
            runner.run_many(campaign_plan(runner, modules), jobs=jobs)
    results = []
    with obs_phase("render"):
        for name, __ in CAMPAIGN:
            if modules is not None and name not in modules:
                continue
            module = importlib.import_module(f"repro.experiments.{name}")
            with obs_phase(f"render:{name}"):
                results.append(module.run(runner))
    return results


def write_report(results, path: Path, scale_name: str,
                 rollup_text: Optional[str] = None,
                 phase_breakdown: Optional[
                     Sequence[Tuple[str, str, float]]] = None) -> None:
    lines = [
        "# FineReg reproduction — full evaluation campaign",
        "",
        f"Scale preset: `{scale_name}`. One row per paper table/figure; "
        "see EXPERIMENTS.md for paper-vs-measured commentary.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment}: {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.to_text())
        lines.append("```")
        lines.append("")
    if rollup_text:
        lines.append("## Telemetry roll-up")
        lines.append("")
        lines.append("Stall attribution and CTA-switch overhead budgets "
                     "across every run of the campaign (docs/TELEMETRY.md).")
        lines.append("")
        lines.append("```")
        lines.append(rollup_text)
        lines.append("```")
        lines.append("")
    if phase_breakdown:
        lines.append("## Campaign phase breakdown")
        lines.append("")
        lines.append("Wall-clock spans of the orchestration tier "
                     "(docs/TELEMETRY.md, \"Orchestration observability\"); "
                     "child phases sum to at most their parent.")
        lines.append("")
        lines.append("```")
        for within, name, dur_s in phase_breakdown:
            lines.append(f"{within:>14} / {name:<24} {dur_s:10.3f}s")
        lines.append("```")
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", default=None,
                        help="comma-separated module subset")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the campaign pool "
                             "(default: all CPUs; 1 = serial)")
    parser.add_argument("--progress", action="store_true",
                        help="live completed/total + ETA on stderr "
                             "(stall warnings land in the obs log)")
    parser.add_argument("--obs-log", default=None, metavar="PATH",
                        help="write the campaign JSONL event log here "
                             "(default with REPRO_OBS=1: <out>/obs.jsonl; "
                             "inspect with `repro obs`)")
    args = parser.parse_args(argv)

    runner = ExperimentRunner(scale=SCALES[args.scale])
    modules = args.only.split(",") if args.only else None

    # The observability session always runs in-memory (spans feed the
    # REPORT.md breakdown); the JSONL log is written only when asked for.
    log_path = args.obs_log
    if log_path is None and obs_enabled():
        log_path = os.environ.get(OBS_LOG_ENV) \
            or str(Path(args.out) / "obs.jsonl")
    session = ObsSession(log_path=log_path, progress=args.progress)
    runner.attach_obs(session)
    from repro.experiments.parallel import default_jobs
    planned = len(set(campaign_plan(runner, modules)))
    session.campaign_begin(
        total=planned,
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        label=f"run_all:{args.scale}")

    results = run_campaign(runner, modules, jobs=args.jobs)
    memoized = runner.memoized_results()
    rollup = rollup_results(memoized)
    report = Path(args.out) / "REPORT.md"
    with session.phase("report"):
        write_report(results, report, args.scale,
                     rollup_text=render_rollup(rollup),
                     phase_breakdown=phase_rows(session.recorder.spans))
    session.campaign_end()
    session.close()
    # Every campaign number comes from the event log: ``obs`` is what
    # ``repro obs summarize --json`` prints for the same log.
    summary = session.summary()
    bench = Path(args.out) / "BENCH_campaign.json"
    bench.write_text(json.dumps(
        {"obs": summary, "rollup": rollup,
         "sim_cycles": sum(result.cycles for __, result in memoized)},
        indent=2, sort_keys=True))
    print(f"wrote {report} ({len(results)} experiments)")
    print(f"wrote {bench} (campaign "
          f"{summary['campaign']['wall_s']:.1f}s)")
    if log_path:
        rate = summary["cache"]["hit_rate"]
        rate_text = f"{rate:.1%}" if rate is not None else "n/a"
        print(f"wrote {log_path} (obs log; cache hit rate {rate_text})")
    for result in results:
        keys = [k for k in result.summary if not k.startswith("_")][:3]
        brief = ", ".join(f"{k}={result.summary[k]:.3g}" for k in keys)
        print(f"  {result.experiment:22} {brief}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
