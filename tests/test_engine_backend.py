"""Engine backend selection, fallback routing and graceful degradation.

The ``EngineBackend`` seam (``repro.sim.backend``) decides which
observably-identical driver executes a run; these tests pin the selection
contract itself:

* ``REPRO_ENGINE`` / ``engine=`` parsing, precedence and loud failure on
  typos (a silently-wrong backend would invalidate a benchmark),
* ``auto`` resolution and graceful degradation (compiled -> fused) when
  the C extension is missing; an *explicit* request for an unavailable
  backend raises ``EngineUnavailableError``,
* run-level compiled eligibility: instrumented runs (sanitizer,
  telemetry, tracers), non-GTO scheduling and non-inert policies must all
  degrade to the event engine rather than take the C core —
  ``gpu.engine_used`` records what actually executed.  The gate itself is
  asserted without the extension, so the extension-absent CI job pins it
  too.

Bit-identity of the backends themselves is pinned separately by
tests/test_engine_differential.py.
"""

from __future__ import annotations

import sys

import pytest

from repro.config import SCALES, GPUConfig
from repro.experiments.runner import POLICIES
from repro.sim import backend
from repro.sim.backend import (EngineUnavailableError, parse_engine,
                               select_backend)
from repro.sim.compiled import policy_inert, run_eligible
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

TINY = SCALES["tiny"]
MICRO_CONFIG = GPUConfig(num_sms=2)


def build_gpu(policy: str = "baseline", config: GPUConfig = MICRO_CONFIG,
              **policy_kwargs) -> GPU:
    instance = build_workload(get_spec("KM"), config, TINY)
    return GPU(config, instance.kernel, POLICIES[policy](**policy_kwargs),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


# ----------------------------------------------------------------------
# parse_engine / select_backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw, expected", [
    (None, "auto"),
    ("", "auto"),
    ("auto", "auto"),
    ("fused", "fused"),
    ("  Fused \n", "fused"),
    ("REFERENCE", "reference"),
    ("Compiled", "compiled"),
])
def test_parse_engine_normalizes(raw, expected):
    assert parse_engine(raw) == expected


@pytest.mark.parametrize("raw", ["fast", "dense", "vector", "fused,",
                                 "vectorized"])
def test_parse_engine_rejects_unknown_names(raw):
    with pytest.raises(ValueError, match="unknown engine"):
        parse_engine(raw)


def test_select_backend_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(backend.ENGINE_ENV, "reference")
    assert select_backend("fused") == "fused"
    assert select_backend() == "reference"


def test_select_backend_env_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv(backend.ENGINE_ENV, "vectorised")
    with pytest.raises(ValueError, match="unknown engine"):
        select_backend()


def test_select_backend_auto_prefers_compiled_when_built(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "compiled"
    assert select_backend("auto") == "compiled"


def test_select_backend_auto_prefers_vectorized_without_extension(
        monkeypatch):
    """Without the extension ``auto`` once preferred the numpy-vectorized
    engine.  That engine is gone: ``auto`` degrades straight to fused and
    never resolves to the removed name."""
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "fused"
    assert select_backend("auto") == "fused"
    assert "vectorized" not in backend.ENGINE_NAMES


def test_select_backend_degrades_to_fused_without_numpy(monkeypatch):
    """numpy is no dependency: with it unimportable and the extension
    absent, ``auto`` still resolves and a real run completes on fused."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    assert select_backend() == "fused"
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles)
    assert gpu.engine_used == "fused"


def test_explicit_compiled_without_extension_raises(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", False)
    with pytest.raises(EngineUnavailableError, match="_ckernel"):
        select_backend("compiled")
    monkeypatch.setenv(backend.ENGINE_ENV, "compiled")
    with pytest.raises(EngineUnavailableError, match="_ckernel"):
        select_backend()


def test_run_consults_engine_env(monkeypatch):
    """``REPRO_ENGINE`` must reach a real ``GPU.run`` call end to end."""
    monkeypatch.setenv(backend.ENGINE_ENV, "reference")
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles)
    assert gpu.engine_used == "reference"
    assert all(sm._fast_consts is None for sm in gpu.sms), (
        "the reference backend must not bind the fused fast path")


# ----------------------------------------------------------------------
# Run-level compiled eligibility / fallback routing
# ----------------------------------------------------------------------
needs_extension = pytest.mark.skipif(
    not backend.compiled_available(),
    reason="repro.sim._ckernel extension not built")


@needs_extension
def test_compiled_runs_the_uninstrumented_baseline():
    gpu = build_gpu()
    assert run_eligible(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert gpu.engine_used == "compiled"


@pytest.mark.parametrize("reason, expect_used", [
    ("sanitizer", "reference"),   # fails fast_step_eligible per SM
    ("cta_tracer", "fused"),      # fused step eligible, run-level not
    ("telemetry", "reference"),
    ("lrr", "reference"),         # the fused step hard-codes GTO's scan
])
def test_compiled_falls_back_per_run_eligibility_reason(reason, expect_used):
    """Every ``run_eligible`` failure must route ``auto`` to the event
    engine -- never error.  A CTA-level tracer leaves the fused step
    eligible, but the decoupled issue loops would scramble the global
    order of its launch/retire records, hence the run-level fallback."""
    if reason == "lrr":
        gpu = build_gpu(config=GPUConfig(num_sms=2, warp_scheduling="lrr"))
    else:
        gpu = build_gpu()
        if reason == "sanitizer":
            from repro.validate.sanitizer import attach_sanitizer
            attach_sanitizer(gpu)
        elif reason == "cta_tracer":
            from repro.sim.tracing import attach_tracer
            attach_tracer(gpu, level="cta")
        else:
            from repro.telemetry.session import attach_telemetry
            attach_telemetry(gpu)
    assert not run_eligible(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert gpu.engine_used == expect_used


@pytest.mark.parametrize("policy", sorted(p for p in POLICIES
                                          if p != "baseline"))
def test_compiled_falls_back_on_non_inert_policies(policy):
    """Every non-baseline policy overrides launch/finish/idle hooks the
    closed-form idle accounting bypasses, so none may take the C core."""
    gpu = build_gpu(policy)
    assert not policy_inert(gpu.sms[0]._policy)
    assert not run_eligible(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    # Hook-free policies still take the fused step; policies needing an
    # issue hook (vt_regmutex) drop all the way to the reference step.
    assert gpu.engine_used in ("fused", "reference")


def test_instance_policy_override_defeats_inertness():
    gpu = build_gpu()
    policy = gpu.sms[0]._policy
    assert policy_inert(policy)
    policy.on_tick = lambda now: None
    assert not policy_inert(policy)
    assert not run_eligible(gpu)


def test_instance_sm_override_defeats_run_eligibility():
    """Mutation-style instance wrappers on bypassed SM methods (the dense
    oracle would honor them; the C core would not) must disqualify."""
    gpu = build_gpu()
    assert run_eligible(gpu)
    sm = gpu.sms[0]
    sm.accumulate = lambda *a, **k: None
    assert not run_eligible(gpu)


@pytest.mark.parametrize("surface", ["sm", "wake", "stats"])
def test_compiled_only_overrides_land_on_the_event_engine(surface):
    """Instance wrappers on surface only the C core inlines must route the
    run to the event engine, which actually calls them: a counting
    wrapper proves the override was honored, not just relabelled.  (The
    scheduler surface needs no instance gate: GTOScheduler declares
    __slots__, so wrapping e.g. ``wake`` on an instance is impossible --
    pinned here -- and fast_step_eligible requires the exact type.)"""
    gpu = build_gpu()
    assert run_eligible(gpu)
    sm = gpu.sms[0]
    if surface == "wake":
        with pytest.raises(AttributeError):
            sm.schedulers[0].wake = lambda: None
        return
    calls = []
    owner, name = (sm, "_on_long_block") if surface == "sm" else (
        sm.stats, "accumulate")
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    setattr(owner, name, counting)
    assert not run_eligible(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert gpu.engine_used in ("fused", "reference")
    assert calls, f"wrapped {name} never ran under {gpu.engine_used}"
