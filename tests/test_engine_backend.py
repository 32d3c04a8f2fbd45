"""Engine backend selection, fallback routing and graceful degradation.

The ``EngineBackend`` seam (``repro.sim.backend``) decides which
observably-identical driver executes a run; these tests pin the selection
contract itself:

* ``REPRO_ENGINE`` / ``engine=`` parsing, precedence and loud failure on
  typos (a silently-wrong backend would invalidate a benchmark),
* ``auto`` resolution and graceful degradation (compiled -> fused) when
  the C extension is missing; an *explicit* request for an unavailable
  backend raises ``EngineUnavailableError``,
* the run-level decision (``choose_engine``, called once by
  ``GPU.run``): every refusal -- instrumentation, non-GTO scheduling,
  instance wrappers, non-inert policies, concurrent launches, a missing
  extension -- degrades to a slower engine rather than erroring, and
  ``(gpu.engine_used, gpu.fallback_reason)`` records what executed and
  why.  The reason table fakes the extension's presence, so the
  extension-absent CI job pins it too.

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
from repro.sim.gpu import GPU
from repro.workloads.apps import APP_POOLS, build_app
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec
from repro.workloads.traces import AddressModel

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
# The run-level decision: (engine_used, fallback_reason)
# ----------------------------------------------------------------------
needs_extension = pytest.mark.skipif(
    not backend.compiled_available(),
    reason="repro.sim._ckernel extension not built")


def _wrap(owner, name, calls):
    """Instance-level counting wrapper around ``owner.<name>``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    setattr(owner, name, counting)


class _SubclassedAddressModel(AddressModel):
    """Behaves exactly like its base; only its type differs."""


def _instrument(case, calls):
    """A GPU set up so that ``case`` is the gate's first refusal."""
    if case == "lrr":
        return build_gpu(config=GPUConfig(num_sms=2, warp_scheduling="lrr"))
    if case == "issue_hook":
        return build_gpu("vt_regmutex")
    if case == "policy":
        return build_gpu("finereg")
    if case == "usage_sampling":
        instance = build_workload(get_spec("KM"), MICRO_CONFIG, TINY)
        return GPU(MICRO_CONFIG, instance.kernel, POLICIES["baseline"](),
                   instance.trace_provider, instance.address_model,
                   liveness=instance.liveness, sample_usage=True)
    if case == "concurrent":
        specs = build_app(APP_POOLS["st+km"], MICRO_CONFIG, TINY)
        return GPU.concurrent(MICRO_CONFIG, specs, POLICIES["baseline"]())
    gpu = build_gpu()
    sm = gpu.sms[0]
    if case == "sanitizer":
        from repro.validate.sanitizer import attach_sanitizer
        attach_sanitizer(gpu)
    elif case in ("telemetry", "telemetry_session"):
        from repro.telemetry.session import TelemetryConfig, attach_telemetry
        attach_telemetry(gpu, TelemetryConfig(metrics=case == "telemetry"))
    elif case in ("cta_tracer", "warp_tracer"):
        from repro.sim.tracing import attach_tracer
        attach_tracer(gpu, level=case.split("_")[0])
    elif case == "step_wrapper":
        _wrap(sm, "step", calls)
    elif case == "address_model":
        gpu.address_model.__class__ = _SubclassedAddressModel
    elif case == "sm_override":
        _wrap(sm, "_on_long_block", calls)
    elif case == "stats_override":
        _wrap(sm.stats, "accumulate", calls)
    elif case == "policy_override":
        _wrap(sm._policy, "on_tick", calls)
    return gpu


#: case -> (engine_used, fallback_reason) under ``auto``, in the gate's
#: check order.  Fused-tier refusals land on the reference step, the rest
#: on fused.
REASONS = {
    "sanitizer": ("reference", "sanitizer"),
    "telemetry": ("reference", "telemetry"),
    "warp_tracer": ("reference", "tracer"),
    "step_wrapper": ("reference", "override:step"),
    "usage_sampling": ("reference", "usage-sampling"),
    "issue_hook": ("reference", "issue-hook"),
    "address_model": ("reference", "address-model"),
    "lrr": ("reference", "scheduler:lrr"),
    "no_extension": ("fused", "no-extension"),
    "telemetry_session": ("fused", "telemetry"),  # timeline only
    "cta_tracer": ("fused", "tracer"),
    "concurrent": ("fused", "concurrent"),
    "sm_override": ("fused", "override:_on_long_block"),
    "stats_override": ("fused", "override:accumulate"),
    "policy_override": ("fused", "override:on_tick"),
    "policy": ("fused", "policy:FineRegPolicy.can_launch"),
}


@pytest.mark.parametrize("case", list(REASONS), ids=[
    f"{case}-{used}" for case, (used, _) in REASONS.items()])
def test_compiled_falls_back_per_run_eligibility_reason(monkeypatch, case):
    """Every refusal routes ``auto`` to a slower engine -- never an
    error -- and names itself.  The extension is faked present (absent
    for ``no_extension``) so the table holds with or without a C
    toolchain: no case reaches the C core.  SM and stats wrappers must
    also actually run on the engine the run fell back to."""
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE",
                        case != "no_extension")
    monkeypatch.delenv(backend.ENGINE_ENV, raising=False)
    calls = []
    gpu = _instrument(case, calls)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert (gpu.engine_used, gpu.fallback_reason) == REASONS[case]
    if case in ("step_wrapper", "sm_override", "stats_override"):
        assert calls, f"wrapped hook never ran under {gpu.engine_used}"


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_requested_engine_runs_without_reason(engine):
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert (gpu.engine_used, gpu.fallback_reason) == (engine, None)


def test_dense_oracle_has_no_reason(monkeypatch):
    monkeypatch.setenv("REPRO_DENSE_STEP", "1")
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles, engine="fused")
    assert (gpu.engine_used, gpu.fallback_reason) == ("dense", None)


def test_explicit_fused_request_reports_fused_tier_refusals():
    """An explicit ``fused`` request never consults the compiled tier, so a
    CTA tracer is no refusal there, and a sanitizer still is."""
    from repro.sim.tracing import attach_tracer
    from repro.validate.sanitizer import attach_sanitizer
    gpu = build_gpu()
    attach_tracer(gpu, level="cta")
    gpu.run(max_cycles=TINY.max_cycles, engine="fused")
    assert (gpu.engine_used, gpu.fallback_reason) == ("fused", None)
    gpu = build_gpu()
    attach_sanitizer(gpu)
    gpu.run(max_cycles=TINY.max_cycles, engine="fused")
    assert (gpu.engine_used, gpu.fallback_reason) == (
        "reference", "sanitizer")


@needs_extension
def test_compiled_runs_the_uninstrumented_baseline():
    gpu = build_gpu()
    gpu.run(max_cycles=TINY.max_cycles, engine="compiled")
    assert (gpu.engine_used, gpu.fallback_reason) == ("compiled", None)


@pytest.mark.parametrize("policy", sorted(p for p in POLICIES
                                          if p != "baseline"))
def test_compiled_falls_back_on_non_inert_policies(monkeypatch, policy):
    """Every non-baseline policy overrides launch/finish/idle hooks the
    closed-form idle accounting bypasses, so none may take the C core."""
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    gpu = build_gpu(policy)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    # Hook-free policies still take the fused step; policies needing an
    # issue hook (vt_regmutex) drop all the way to the reference step.
    if gpu.engine_used == "reference":
        assert gpu.fallback_reason == "issue-hook"
    else:
        cls = type(gpu.sms[0]._policy).__name__
        assert gpu.engine_used == "fused"
        assert gpu.fallback_reason.startswith(f"policy:{cls}.")


def test_instance_policy_override_defeats_inertness(monkeypatch):
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    gpu = build_gpu()
    gpu.sms[0]._policy.on_tick = lambda now: None
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert (gpu.engine_used, gpu.fallback_reason) == (
        "fused", "override:on_tick")


def test_instance_sm_override_defeats_run_eligibility(monkeypatch):
    """Mutation-style instance wrappers on bypassed SM methods (the dense
    oracle would honor them; the C core would not) must disqualify."""
    monkeypatch.setattr(backend, "_COMPILED_AVAILABLE", True)
    gpu = build_gpu()
    original = gpu.sms[0].accumulate
    gpu.sms[0].accumulate = lambda *a, **k: original(*a, **k)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert (gpu.engine_used, gpu.fallback_reason) == (
        "fused", "override:accumulate")


@pytest.mark.parametrize("surface", ["sm", "wake", "stats"])
def test_compiled_only_overrides_land_on_the_event_engine(surface):
    """Instance wrappers on surface only the C core inlines must route the
    run to the event engine, which actually calls them: a counting
    wrapper proves the override was honored, not just relabelled.  (The
    scheduler surface needs no instance gate: GTOScheduler declares
    __slots__, so wrapping e.g. ``wake`` on an instance is impossible --
    pinned here -- and the fused gate requires the exact type.)"""
    gpu = build_gpu()
    sm = gpu.sms[0]
    if surface == "wake":
        with pytest.raises(AttributeError):
            sm.schedulers[0].wake = lambda: None
        return
    calls = []
    owner, name = (sm, "_on_long_block") if surface == "sm" else (
        sm.stats, "accumulate")
    _wrap(owner, name, calls)
    gpu.run(max_cycles=TINY.max_cycles, engine="auto")
    assert gpu.engine_used in ("fused", "reference")
    assert calls, f"wrapped {name} never ran under {gpu.engine_used}"
