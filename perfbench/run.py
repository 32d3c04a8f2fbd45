"""Benchmark of the FineReg reproduction: one workload, one seed, one run.

    python3 perfbench/run.py --workload policy-sweep --seed 0 --seconds 30 \\
        --trace 0

Run from the root of a checkout.  Set-up builds the checkout's own
``src/repro`` (with its ``_ckernel`` C extension, when a C compiler is
found) into a private directory under ``.bench_build/``, which the run
deletes before it exits.  Every pass then runs in a fresh interpreter
against that build (see ``child.py``), so the numbers belong to the engine
``auto`` picks.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones; the last line of standard output is one JSON object.
README.md documents the workloads and every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes nothing it keeps

from benchdefs import (CAMPAIGN_JOBS, END_TO_END, ENGINE_RANK,  # noqa: E402
                       ENGINES, PAPER_FINEREG_SPEEDUP, POLICIES, WORKLOADS,
                       per_layer_metrics)
import probes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run must end within this many seconds (oracle check included).
BUDGET_S = 170.0
#: Fresh-interpreter set-up probes per run, besides each pass's own set-up.
SETUP_PROBES = 5


class Run:
    """One benchmark invocation: a private build and the processes on it."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.wl = WORKLOADS[args.workload]
        self.started = time.monotonic()
        self.spawned = 0
        self.site = work / "site"

    # -- set-up ---------------------------------------------------------
    def install(self):
        """Copy ``src/repro`` and build ``_ckernel`` into the copy.

        Extension build and byte-compilation are install cost, so they are
        done here and kept out of ``setup_s``.  A missing or failing C
        compiler leaves the copy without the extension (``setup.py``
        treats it as optional) and ``auto`` degrades as it would for a
        user.
        """
        shutil.copytree(ROOT / "src" / "repro", self.site / "repro",
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        (self.work / "tmp").mkdir()
        build = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(self.site),
             "--build-temp", str(self.work / "build")],
            cwd=ROOT, env=self.env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120)
        built = list((self.site / "repro" / "sim").glob("_ckernel*.so"))
        print(f"extension built: {bool(built)}")
        if not built:
            print("extension: not built (no working C compiler?); runs "
                  "use the pure-Python engines", file=sys.stderr)
            sys.stderr.write(build.stderr[-2000:])
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.site)], env=self.env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    def env(self, **extra):
        """Child environment: no ``REPRO_*`` knob inherited, private build."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(self.site), TMPDIR=str(self.work / "tmp"),
                   PYTHONDONTWRITEBYTECODE="1")
        env.update(extra)
        return env

    # -- child processes ------------------------------------------------
    def child(self, mode, trace=False, cache_dir=None, env=None):
        """Run one ``child.py`` process; returns (result, records, request)."""
        self.spawned += 1
        tag = f"{mode}-{self.spawned}"
        rec_dir = self.work / f"rec-{tag}"
        rec_dir.mkdir()
        cache_dir = cache_dir or self.work / f"cache-{tag}"
        request = {
            "workload": self.args.workload, "seed": self.args.seed,
            "trace": trace, "rec_dir": str(rec_dir),
            "cache_dir": str(cache_dir),
            "out_dir": str(self.work / f"out-{tag}"),
            "obs_log": str(self.work / f"obs-{tag}.jsonl"),
        }
        request_path = self.work / f"req-{tag}.json"
        result_path = self.work / f"res-{tag}.json"
        request_path.write_text(json.dumps(request))
        left = BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise SystemExit("benchmark: out of time before " + tag)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "child.py"), mode,
             str(request_path), str(result_path), repr(t0)],
            cwd=self.work,
            env=env or self.env(REPRO_CACHE_DIR=str(cache_dir)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=left)
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: {tag} exited {proc.returncode}")
        result = json.loads(result_path.read_text())
        return result, probes.load(rec_dir), request

    def timed_pass(self, trace=False, cache_dir=None):
        out, records, request = self.child("pass", trace, cache_dir)
        out["records"] = records
        out["request"] = request
        runs = [r for r in records if r["kind"] == "run"]
        run_s = sum(r["dur"] for r in runs)
        if run_s:  # a warm campaign pass may simulate nothing
            out["cycles_per_s"] = sum(r["cycles"] for r in runs) / run_s
            out["instructions_per_s"] = \
                sum(r["instructions"] for r in runs) / run_s
        bad = [r for r in runs
               if r["timed_out"] or r["completed"] < r["grid"]]
        out["failed"] = out["errors"] + len(bad)
        out["attempted"] = out["operations"]
        if self.wl.kind == "campaign":
            out["attempted"] += len(runs)
        elif len(runs) != out["operations"] - out["errors"]:
            out["failed"] += 1  # a run left no record
        return out

    def oracle(self, reference):
        """Dense-oracle re-runs of the fixed sample; returns mismatches."""
        out, records, _request = self.child(
            "oracle", cache_dir=reference["request"]["cache_dir"],
            env=self.env(REPRO_DENSE_STEP="1", REPRO_CACHE="off"))
        mismatches = [r for r in records
                      if r["kind"] == "run" and r["engine"] != "dense"]
        for check in out["checks"]:
            if self.wl.kind == "campaign":
                want = check["cached"]
            else:
                index = (reference["apps"].index(check["app"])
                         * len(self.wl.policies)
                         + self.wl.policies.index(check["policy"]))
                want = reference["digests"][index]
            ok = check["dense"] == want
            print(f"oracle {check['app']}/{check['policy']}: "
                  f"{'identical' if ok else 'MISMATCH'} "
                  f"(dense {check['dense'][:16]})")
            if not ok:
                mismatches.append(check)
        return len(mismatches)

    # -- the two kinds of run -------------------------------------------
    def measure(self):
        """``--trace 0``: set-up probes, timed passes, oracle check."""
        setups = [self.child("probe")[0]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        # Passes repeat while one more is predicted to end within
        # --seconds (at least one pass), leaving time for the oracle.
        passes, longest = [], 0.0
        first = time.monotonic()
        while True:
            start = time.monotonic()
            passes.append(self.timed_pass())
            now = time.monotonic()
            longest = max(longest, now - start)
            if now - first + longest > self.args.seconds or \
                    now - self.started + 2 * longest > BUDGET_S:
                break
        setups += [p["setup_s"] for p in passes]
        failed = sum(p["failed"] for p in passes)
        failed += self.digest_mismatches(passes)
        failed += self.oracle(passes[0])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "sim_cycles_per_s":
                statistics.median(p["cycles_per_s"] for p in passes),
            "sim_instructions_per_s":
                statistics.median(p["instructions_per_s"] for p in passes),
            "peak_rss_mb":
                statistics.median(p["peak_rss_mb"] for p in passes),
        }
        print(f"passes: {len(passes)}, set-up samples: {len(setups)}, "
              f"auto engine: {passes[0]['auto_engine']}")
        return metrics, END_TO_END, \
            sum(p["attempted"] for p in passes), failed

    def trace(self):
        """``--trace 1``: an untraced pass, a traced pass, per-layer sums."""
        plain = self.timed_pass()
        traced = self.timed_pass(trace=True)
        warm = None
        if self.wl.kind == "campaign":
            warm = self.timed_pass(trace=True,
                                   cache_dir=traced["request"]["cache_dir"])
        passes = [p for p in (plain, traced, warm) if p is not None]
        failed = sum(p["failed"] for p in passes)
        failed += self.digest_mismatches(passes)
        if provenance(self.wl, plain) != provenance(self.wl, traced):
            print("engine_used differs between traced and untraced runs")
            failed += 1
        failed += self.oracle(plain)
        print_provenance(self.wl, plain)
        metrics = per_layer(self.wl, plain, traced, warm)
        print(f"model.finereg_speedup {metrics['model.finereg_speedup']:+.3f}"
              f" modelled (unvalidated); paper Fig 13: "
              f"{PAPER_FINEREG_SPEEDUP:+.3f}")
        return metrics, per_layer_metrics(), \
            sum(p["attempted"] for p in passes), failed

    def digest_mismatches(self, passes):
        for number, p in enumerate(passes):
            print(f"digest {self.args.workload} pass {number}: "
                  f"{p['digest']}")
        return sum(p["digest"] != passes[0]["digest"] for p in passes)


def provenance(wl, p):
    """(workload, policy, engine) of every run; order-free for a pool."""
    runs = [(r["workload"], r["policy"], r["engine"])
            for r in p["records"] if r["kind"] == "run"]
    return sorted(runs) if wl.kind == "campaign" else runs


def print_provenance(wl, p):
    print(f"auto engine: {p['auto_engine']}")
    runs = provenance(wl, p)
    if wl.kind == "sweep":
        for workload, policy, engine in runs:
            print(f"engine_used {workload:4} {policy:17} {engine}")
        return
    counts = {}
    for _workload, policy, engine in runs:
        counts[policy, engine] = counts.get((policy, engine), 0) + 1
    for (policy, engine), n in sorted(counts.items()):
        print(f"engine_used {policy:17} {engine:10} {n} runs")


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def total(records, kind):
    return sum(r["dur"] for r in records if r["kind"] == kind)


def weighted(runs, rate, weight):
    den = sum(r[weight] for r in runs)
    return sum(r[rate] * r[weight] for r in runs) / den if den else 0.0


def per_layer(wl, plain, traced, warm):
    """Per-layer metrics: host times from the untraced pass where the
    recorder has them, profiler self times and spans from the traced one,
    modelled counters (identical in both) from the untraced pass."""
    runs = [r for r in plain["records"] if r["kind"] == "run"]
    traced_runs = [r for r in traced["records"] if r["kind"] == "run"]
    self_s = {}
    for r in traced_runs:
        for layer, seconds in r["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
    run_s = sum(r["dur"] for r in runs)
    m = {
        "workloads.build_s": total(traced["records"], "build"),
        "workloads.trace_gen_s": self_s.get("workloads", 0.0),
        "sim.construct_s": total(plain["records"], "construct"),
        "sim.run_s": run_s,
    }
    for policy in POLICIES:
        mine = [r for r in runs if r["policy"] == policy]
        seconds = sum(r["dur"] for r in mine)
        m[f"sim.run_s.{policy}"] = seconds
        m[f"sim.cycles_per_s.{policy}"] = \
            sum(r["cycles"] for r in mine) / seconds if seconds else 0.0
        m[f"sim.engine.{policy}"] = statistics.mean(
            ENGINE_RANK[r["engine"]] for r in mine) if mine else 0.0
    for engine in ENGINES:
        m[f"sim.engine_share.{engine}"] = sum(
            r["dur"] for r in runs if r["engine"] == engine) / run_s
    bitvector = [r["bitvector_hit_rate"] for r in runs
                 if r["bitvector_hit_rate"] is not None]
    m.update({
        "sim.fallback_runs": sum(r["engine"] != plain["auto_engine"]
                                 for r in runs),
        "sim.py_self_s": self_s.get("sim", 0.0),
        "sim.ccore_s": sum(r["ccore_s"] for r in traced_runs),
        "sim.ccore_calls": sum(r["ccore_calls"] for r in traced_runs),
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.accesses": sum(r["l1_accesses"] for r in runs),
        "memory.l1_hit_rate": weighted(runs, "l1_hit_rate", "l1_accesses"),
        "memory.l2_hit_rate": weighted(runs, "l2_hit_rate", "l2_accesses"),
        "memory.dram_bytes": sum(r["dram_bytes"] for r in runs),
        "policies.self_s": self_s.get("policies", 0.0),
        "policies.bitvector_hit_rate":
            statistics.mean(bitvector) if bitvector else 0.0,
    })
    for key in ("pcrf_ops", "cta_switches", "switch_overhead_cycles",
                "rf_depletion_cycles", "srp_stall_cycles"):
        m[f"policies.{key}"] = sum(r[key] for r in runs)
    m.update(campaign_layer(plain, traced, warm) if wl.kind == "campaign"
             else {name: 0.0 for name, _unit in per_layer_metrics()
                   if name.startswith("experiments.")})
    m["model.sim_cycles"] = sum(r["cycles"] for r in runs)
    m["model.instructions"] = sum(r["instructions"] for r in runs)
    for policy in POLICIES:
        m[f"model.ipc_geomean.{policy}"] = geomean(
            r["instructions"] / r["cycles"] for r in runs
            if r["policy"] == policy)
    cycles = {(r["workload"], r["policy"]): r["cycles"] for r in runs}
    apps = plain.get("apps", ())
    paired = [cycles[a, "baseline"] / cycles[a, "finereg"] for a in apps
              if (a, "baseline") in cycles and (a, "finereg") in cycles]
    m["model.finereg_speedup"] = geomean(paired) - 1 if paired else 0.0
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return m


def obs_events(p):
    with open(p["request"]["obs_log"], encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def hit_rate(events):
    lookups = [e["hit"] for e in events if e["ev"] == "cache_lookup"]
    return sum(lookups) / len(lookups) if lookups else 0.0


def campaign_layer(plain, traced, warm):
    """``repro.experiments``: spans recorded around the runner plus the
    counters ``run_all`` itself writes (obs log, BENCH_campaign.json)."""
    bench = json.loads(
        (Path(traced["request"]["out_dir"]) / "BENCH_campaign.json")
        .read_text())
    events = obs_events(traced)
    pool_run = sum(e["dur_s"] for e in events if e["ev"] == "span_close"
                   and e["name"] == "pool-run")
    busy = sum(e["dur_s"] for e in events if e["ev"] == "span_close"
               and e["kind"] == "request" and "worker" in e)
    orchestrator = plain["pid"]
    return {
        "experiments.planned_runs": bench["obs"]["campaign"]["total"],
        "experiments.completed_runs": bench["obs"]["campaign"]["completed"],
        "experiments.unplanned_runs": sum(
            1 for r in plain["records"]
            if r["kind"] == "run" and r["pid"] == orchestrator),
        "experiments.pool_s": total(traced["records"], "pool"),
        "experiments.pool_utilization":
            busy / (pool_run * CAMPAIGN_JOBS) if pool_run else 0.0,
        "experiments.render_s": total(traced["records"], "render"),
        "experiments.cache_put_s": total(traced["records"], "cache_put"),
        "experiments.cache_get_s": total(traced["records"], "cache_get"),
        "experiments.cache_hit_rate": hit_rate(events),
        "experiments.warm_cache_hit_rate": hit_rate(obs_events(warm)),
        "experiments.warm_rerender_s": warm["wall_s"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and the
    # private directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "setup.py").is_file():
        print(f"benchmark: no program to measure under {ROOT} "
              f"(src/repro and setup.py are required)", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_build"
    created = not work_root.exists()
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=work_root))
    print(f"inputs: seed {args.seed} redraws every app's traces"
          if WORKLOADS[args.workload].seeded
          else "inputs: fixed (the shipped suite); --seed is unused")
    try:
        run = Run(args, work)
        run.install()
        metrics, names, attempted, failed = \
            run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if created and not any(work_root.iterdir()):
            work_root.rmdir()
    for name, unit in names:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed operations: {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
