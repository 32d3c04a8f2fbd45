"""One benchmark process: a set-up probe, a timed pass, or an oracle check.

``run.py`` starts each in a fresh interpreter whose ``PYTHONPATH`` holds
the benchmark's private build of ``repro``, so every pass pays imports,
extension load, workload build and lazy trace generation as a user does::

    python3 -B perfbench/child.py <mode> <request.json> <result.json> <t0>

``t0`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide), so ``setup_s`` covers interpreter start-up too.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import zlib

from benchdefs import CAMPAIGN_JOBS, WORKLOADS
import probes


def digest(result):
    """SHA-256 of a SimResult's canonical JSON (byte-identity check)."""
    blob = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_instance(app, config, scale, seed):
    """A fresh workload for ``app``; ``seed`` re-draws its dynamic traces.

    The kernel (CFG, grid, register footprint) stays the shipped one and
    the seed only perturbs the per-warp traces, salted per app exactly as
    ``build_workload`` does.  Seed 0 is the shipped suite.
    """
    from repro.workloads import generator
    from repro.workloads.suite import get_spec
    from repro.workloads.traces import TraceProvider

    spec = get_spec(app)
    instance = generator.build_workload(spec, config, scale)
    if seed:
        salt = zlib.crc32(spec.abbrev.encode()) & 0xFFFF
        instance = dataclasses.replace(instance, trace_provider=TraceProvider(
            instance.kernel.cfg, seed=(spec.seed ^ seed) ^ salt,
            trace_scale=scale.trace_scale))
    return instance


class Bench:
    """What one process knows: its request and the workload it serves."""

    def __init__(self, request, t0):
        self.req = request
        self.t0 = t0
        self.wl = WORKLOADS[request["workload"]]
        self.seed = request["seed"] if self.wl.seeded else 0

    def set_up(self):
        """Imports, extension load and workload build: ``setup_s``."""
        from repro.config import SCALES, default_config
        from repro.sim import backend
        from repro.workloads.suite import ALL_SPECS
        if self.wl.kind == "campaign":
            import repro.experiments.run_all  # noqa: F401
        else:
            import repro.experiments.runner  # noqa: F401
            import repro.sim.gpu  # noqa: F401

        # Resolving ``auto`` imports the C extension when it is built.
        self.auto_engine = backend.select_backend("auto")
        self.scale = SCALES[self.wl.scale]
        self.config = default_config(self.scale)
        self.apps = self.wl.apps or tuple(s.abbrev for s in ALL_SPECS)
        self.instances = {app: make_instance(app, self.config, self.scale,
                                             self.seed)
                          for app in self.apps}
        return time.monotonic() - self.t0

    def probe(self):
        return {"setup_s": self.set_up()}

    def timed_pass(self):
        trace = bool(self.req["trace"])
        if trace:
            probes.install(self.req["rec_dir"], True,
                           self.wl.kind == "campaign")
        setup_s = self.set_up()
        if not trace:
            probes.install(self.req["rec_dir"], False, False)
        out = {"setup_s": setup_s, "auto_engine": self.auto_engine,
               "pid": os.getpid()}
        if self.wl.kind == "campaign":
            out.update(self.campaign())
        else:
            out.update(self.sweep())
        return out

    def sweep(self):
        from repro.experiments.runner import POLICIES
        from repro.sim.gpu import GPU

        results, errors = [], 0
        start = time.monotonic()
        for app in self.apps:
            inst = self.instances[app]
            for policy in self.wl.policies:
                try:
                    gpu = GPU(self.config, inst.kernel, POLICIES[policy](),
                              inst.trace_provider, inst.address_model,
                              liveness=inst.liveness)
                    results.append(gpu.run(max_cycles=self.scale.max_cycles))
                except Exception:  # a failed operation, not a failed pass
                    traceback.print_exc()
                    errors += 1
                    results.append(None)
        wall = time.monotonic() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests = [digest(r) if r is not None else None for r in results]
        return {"wall_s": wall, "peak_rss_mb": rss_mb, "errors": errors,
                "operations": len(results), "apps": list(self.apps),
                "digests": digests,
                "digest": hashlib.sha256(
                    "\n".join(map(str, digests)).encode()).hexdigest()}

    def campaign(self):
        from repro.experiments import run_all

        argv = ["--scale", self.wl.scale, "--jobs", str(CAMPAIGN_JOBS),
                "--out", self.req["out_dir"]]
        if self.req["trace"]:
            argv += ["--obs-log", self.req["obs_log"]]
        errors = 0
        start = time.monotonic()
        try:
            with open(os.devnull, "w") as sink, \
                    contextlib.redirect_stdout(sink):
                run_all.main(argv)
        except Exception:
            traceback.print_exc()
            errors = 1
        wall = time.monotonic() - start
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        entries = sorted(
            os.path.join(root, name)
            for root, _dirs, names in os.walk(self.req["cache_dir"])
            for name in names if name.endswith(".json"))
        hasher = hashlib.sha256()
        for path in entries:
            with open(path, "rb") as fh:
                hasher.update(fh.read())
        # Upper bound on the simultaneous footprint: the orchestrator's
        # peak plus every pool worker at the largest worker's peak.
        return {"wall_s": wall,
                "peak_rss_mb": (own + CAMPAIGN_JOBS * worker) / 1024,
                "errors": errors, "operations": 1,
                "cache_entries": len(entries), "digest": hasher.hexdigest()}

    def oracle(self):
        """Re-run the fixed sample on the dense oracle, outside the timer.

        The parent sets ``REPRO_DENSE_STEP=1``.  Sweeps return digests for
        the parent to compare with the timed pass; the campaign compares
        against the cold pass's result cache here.
        """
        from repro.experiments.cache import ResultCache, run_key
        from repro.experiments.parallel import RunRequest, simulate_request
        from repro.workloads.suite import get_spec

        self.set_up()
        probes.install(self.req["rec_dir"], False, False)
        cache = ResultCache(root=self.req["cache_dir"], enabled=True) \
            if self.wl.kind == "campaign" else None
        checks = []
        for app, policy, *kwargs in self.wl.oracle:
            kwargs = kwargs[0] if kwargs else {}
            inst = make_instance(app, self.config, self.scale, self.seed)
            got = digest(simulate_request(
                self.scale, self.config,
                RunRequest.make(app, policy, **kwargs), instance=inst))
            want = None
            if cache is not None:
                stored = cache.get(run_key(
                    scale=self.scale, reference=self.config,
                    config=self.config, spec=get_spec(app), policy=policy,
                    policy_kwargs=kwargs, sample_usage=False,
                    unified_memory=False))
                want = digest(stored) if stored is not None else "missing"
            checks.append({"app": app, "policy": policy, "dense": got,
                           "cached": want})
        return {"checks": checks}


def main(argv):
    mode, request_path, result_path, t0 = argv
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    bench = Bench(request, float(t0))
    result = {"probe": bench.probe, "pass": bench.timed_pass,
              "oracle": bench.oracle}[mode]()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
