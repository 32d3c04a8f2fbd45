"""Parallel campaign engine.

A campaign is a set of independent (workload, policy, config, kwargs)
simulations; :func:`run_requests` fans them out over a ``multiprocessing``
pool.  Workers receive only picklable specs (``Scale``, ``GPUConfig``,
:class:`RunRequest`) and rebuild workloads locally — trace generation is a
pure function of the spec seed, so a worker-built workload is identical to
the parent's and serial/parallel campaigns produce the same results.

Figure modules expose ``plan(runner, apps)`` returning their full request
set up front; ``ExperimentRunner.run_many`` dedupes shared runs (Figs
12/13/16 reuse the same five configurations) before dispatch.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import GPUConfig, Scale
from repro.sim.gpu import GPU
from repro.sim.stats import SimResult
from repro.validate.sanitizer import sanitize_enabled
from repro.workloads.generator import WorkloadInstance, build_workload
from repro.workloads.suite import get_spec


@dataclass(frozen=True)
class RunRequest:
    """One simulation to perform: everything ``ExperimentRunner.run`` takes.

    ``config=None`` means "the runner's base configuration".  Policy kwargs
    are a sorted tuple of pairs so requests hash and dedupe cleanly.
    """

    abbrev: str
    policy: str
    config: Optional[GPUConfig] = None
    sample_usage: bool = False
    unified_memory: bool = False
    policy_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Collect telemetry (warp-level trace + metrics + timeline) and write
    #: the artifact next to the run's cached result.  Observation-only: the
    #: SimResult is identical with the flag on or off.
    telemetry: bool = False
    #: Engine backend for the run (see ``repro.sim.backend``); ``None``
    #: defers to ``REPRO_ENGINE`` / auto resolution.  Backends are
    #: bit-identical, so this is deliberately *not* part of the result cache
    #: key — it only selects which driver executes the simulation.
    engine: Optional[str] = None

    @classmethod
    def make(cls, abbrev: str, policy: str,
             config: Optional[GPUConfig] = None,
             sample_usage: bool = False,
             unified_memory: bool = False,
             telemetry: bool = False,
             engine: Optional[str] = None,
             **policy_kwargs) -> "RunRequest":
        return cls(abbrev=abbrev, policy=policy, config=config,
                   sample_usage=sample_usage, unified_memory=unified_memory,
                   policy_kwargs=tuple(sorted(policy_kwargs.items())),
                   telemetry=telemetry, engine=engine)

    def with_config(self, config: GPUConfig) -> "RunRequest":
        return replace(self, config=config)

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.policy_kwargs)


#: One payload = everything a worker needs to reproduce a runner's run.
Payload = Tuple[Scale, GPUConfig, RunRequest]

#: Per-process workload memo: workers are reused across map chunks, so
#: requests sharing a workload (all policies of one app) build it once.
#: Keyed by the full reference config — grids are sized from it, so
#: runners with different base configurations must not alias.
_WORKLOAD_MEMO: Dict[Tuple[str, str, GPUConfig], WorkloadInstance] = {}  # lint: allow[module-state] (pure memo: key fully determines the value)


def _workload_for(abbrev: str, reference: GPUConfig,
                  scale: Scale) -> WorkloadInstance:
    key = (abbrev, scale.name, reference)
    instance = _WORKLOAD_MEMO.get(key)
    if instance is None:
        instance = build_workload(get_spec(abbrev), reference, scale)
        _WORKLOAD_MEMO[key] = instance
    return instance


def simulate_request(scale: Scale, base_config: GPUConfig,
                     request: RunRequest,
                     instance: Optional[WorkloadInstance] = None,
                     obs=None) -> SimResult:
    """Execute one request from scratch (mirrors ``ExperimentRunner.run``).

    ``obs`` is an optional span source (:class:`repro.obs.session.ObsSession`
    in-process, :class:`~repro.obs.session.WorkerObs` in a pool worker)
    whose ``phase(name)`` times the workload-build / engine-run / serialize
    stages.  Observation-only: the returned SimResult is byte-identical
    with or without it, and the off path costs one ``is not None`` test.
    """
    # Imported lazily: runner.py imports this module for RunRequest.
    from repro.experiments.runner import POLICIES
    from repro.policies.unified_memory import apply_unified_memory

    phase = obs.phase if obs is not None else (lambda name: nullcontext())
    config = request.config if request.config is not None else base_config
    if instance is None:
        reference = base_config.with_num_sms(config.num_sms)
        with phase("workload-build"):
            instance = _workload_for(request.abbrev, reference, scale)
    factory = POLICIES[request.policy](**request.kwargs)
    gpu = GPU(
        config,
        instance.kernel,
        factory,
        instance.trace_provider,
        instance.address_model,
        liveness=instance.liveness,
        sample_usage=request.sample_usage,
    )
    if request.unified_memory:
        apply_unified_memory(gpu, reserve_pcrf=(request.policy == "finereg"))
    if sanitize_enabled():
        from repro.validate.sanitizer import attach_sanitizer
        attach_sanitizer(gpu)
    if request.telemetry:
        from repro.sim.tracing import attach_tracer
        from repro.telemetry.session import attach_telemetry
        tracer = attach_tracer(gpu, level="warp")
        session = attach_telemetry(gpu)
        with phase("engine-run"):
            result = gpu.run(max_cycles=scale.max_cycles,
                             engine=request.engine)
        with phase("serialize"):
            write_run_telemetry(scale, base_config, request, session,
                                result, tracer=tracer)
        return result
    with phase("engine-run"):
        return gpu.run(max_cycles=scale.max_cycles, engine=request.engine)


#: Directory for per-run telemetry artifacts (override via env).
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"


def telemetry_dir() -> str:
    return os.environ.get(TELEMETRY_DIR_ENV,
                          os.path.join("results", "telemetry"))


def telemetry_artifact_path(scale: Scale, base_config: GPUConfig,
                            request: RunRequest) -> str:
    """Deterministic artifact path keyed by the run's content hash."""
    from repro.experiments.cache import run_key
    config = request.config if request.config is not None else base_config
    key = run_key(
        scale=scale,
        reference=base_config.with_num_sms(config.num_sms),
        config=config,
        spec=get_spec(request.abbrev),
        policy=request.policy,
        policy_kwargs=dict(request.policy_kwargs),
        sample_usage=request.sample_usage,
        unified_memory=request.unified_memory,
    )
    name = (f"{request.abbrev}-{request.policy}-{scale.name}"
            f"-{key[:12]}.telemetry.json")
    return os.path.join(telemetry_dir(), name)


def write_run_telemetry(scale: Scale, base_config: GPUConfig,
                        request: RunRequest, session, result: SimResult,
                        tracer=None) -> str:
    """Persist one run's telemetry artifact; returns its path."""
    import json
    path = telemetry_artifact_path(scale, base_config, request)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = session.as_payload()
    if tracer is not None:
        payload["events"] = tracer.as_dicts()
    payload["run"] = {
        "abbrev": request.abbrev,
        "policy": request.policy,
        "scale": scale.name,
        "cycles": result.cycles,
        "switch_overhead_cycles": result.switch_overhead_cycles,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return path


def _simulate_payload(payload: Payload) -> SimResult:
    scale, base_config, request = payload
    return simulate_request(scale, base_config, request)


def _simulate_indexed_payload(item: Tuple[int, Payload]):
    """Observed worker entry: returns (index, result, worker obs report).

    The index lets the parent reassemble ``imap_unordered`` arrivals into
    input order, so the returned result list is identical to ``pool.map``'s.
    """
    from repro.obs.session import WorkerObs

    index, (scale, base_config, request) = item
    worker_obs = WorkerObs()
    result = simulate_request(scale, base_config, request, obs=worker_obs)
    return index, result, worker_obs.report()


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def run_requests(payloads: Sequence[Payload],
                 jobs: Optional[int] = None,
                 obs=None) -> List[SimResult]:
    """Simulate every payload, in order, over a process pool.

    Falls back to in-process execution for trivial batches (or ``jobs<=1``)
    where pool startup would dominate.

    With an :class:`~repro.obs.session.ObsSession` attached, each payload
    gets a ``request`` span, workers ship their phase spans back alongside
    the result, and the parent polls arrivals with a timeout so heartbeat
    gaps (stalled workers) surface while the pool is quiet.  Results are
    reassembled by index, so ordering — and every SimResult byte — is
    identical to the unobserved path.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    jobs = min(jobs, len(payloads)) or 1
    if jobs <= 1 or len(payloads) <= 1:
        if obs is None:
            return [_simulate_payload(p) for p in payloads]
        results: List[SimResult] = []
        for index, payload in enumerate(payloads):
            scale, base_config, request = payload
            with obs.run_scope(request, index=index):
                results.append(simulate_request(scale, base_config,
                                                request, obs=obs))
        return results
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=jobs) as pool:
        # chunksize=1: run times vary wildly across policies/apps, so fine
        # dispatch keeps the pool balanced.
        if obs is None:
            return pool.map(_simulate_payload, payloads, chunksize=1)
        obs.pool_begin()
        spans = [obs.open_request(request)
                 for __, __, request in payloads]
        slots: List[Optional[SimResult]] = [None] * len(payloads)
        arrivals = pool.imap_unordered(_simulate_indexed_payload,
                                       list(enumerate(payloads)),
                                       chunksize=1)
        remaining = len(payloads)
        while remaining:
            try:
                index, result, report = arrivals.next(timeout=obs.tick_s)
            except multiprocessing.TimeoutError:
                obs.idle_tick()
                continue
            slots[index] = result
            obs.pool_run_complete(index, payloads[index][2], spans[index],
                                  report)
            remaining -= 1
        return slots  # type: ignore[return-value]
