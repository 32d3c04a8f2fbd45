"""Engine backend selection: one run-level decision with a reason.

Every backend is a pure performance transformation of the same simulation
-- the dense per-cycle oracle (``REPRO_DENSE_STEP=1``) remains the ground
truth and ``tests/test_engine_differential.py`` pins all of them to it
byte-for-byte.  The seam only decides *which* observably-identical driver
executes a run:

* ``reference`` — the event-driven engine stepping every SM through the
  unfused ``StreamingMultiprocessor.step`` path.  Slowest, but every hook
  surface (sanitizer wrappers, telemetry, tracers, issue hooks) works.
* ``fused`` — the same event-driven engine with every SM on the fused
  fast step (``_step_fast``).  This is the toolchain-free default.
* ``compiled`` — decoupled per-SM issue loops in the ``repro.sim._ckernel``
  C extension, merged at shared operations (:mod:`repro.sim.compiled`),
  built best-effort at install time.

:func:`choose_engine` is the one decision point; ``GPU.run`` calls it once
per run and stores its answer as ``gpu.engine_used`` and
``gpu.fallback_reason``.  The request is an explicit ``engine=`` argument,
then the ``REPRO_ENGINE`` environment variable, then ``auto`` (the fastest
engine: compiled).  ``REPRO_DENSE_STEP=1`` overrides everything -- the
oracle is not a backend, it is the spec.  The checks run in a fixed order,
and the first that refuses the requested engine names the reason:

* on to ``reference``: ``sanitizer``; ``override:step`` /
  ``override:_try_issue`` (an instance wrapper); ``telemetry`` (a metrics
  registry on an SM, scheduler or the hierarchy); ``tracer`` (warp
  level); ``usage-sampling`` (Fig 5); ``issue-hook`` (a policy per-issue
  hook); ``address-model`` (not a plain ``AddressModel``);
  ``scheduler:<kind>`` (not GTO).
* on to ``fused``: ``no-extension`` (``auto`` without the C extension);
  ``telemetry`` (a session); ``tracer`` (CTA level); ``concurrent`` (more
  than one launch); ``override:<attr>`` (an instance wrapper on SM, stats
  or policy surface the C core inlines); ``policy:<Class>.<attr>`` (the
  policy class overrides base hook ``<attr>``).

The reason is ``None`` when the requested engine ran.  The fused-tier
checks on one SM live in :func:`_sm_fused_refusal` alone; the effects
auditor (:mod:`repro.analyze.effects`) treats its reads as the fused
gate, and the tuples below as the compiled gate.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence, Tuple

#: Environment variable consulted when no explicit engine is passed.
ENGINE_ENV = "REPRO_ENGINE"

#: Every accepted ``REPRO_ENGINE`` value (``auto`` resolves at run time).
ENGINE_NAMES: Tuple[str, ...] = ("auto", "reference", "fused", "compiled")

#: Policy surface that must be byte-for-byte the base implementation for a
#: run to decouple.  State-changing hooks (fill / on_cta_*) because a real
#: implementation could park or activate CTAs (transit machinery the C
#: core does not model); bookkeeping hooks (classify_idle / next_event /
#: wake_time / on_tick / on_idle) because the closed-form accounting
#: replaces their call sites outright.  The effects auditor derives the
#: engine-reachable base-policy surface from the source and fails CI if a
#: reachable hook is missing here or an entry goes stale.
_INERT_POLICY_ATTRS = (
    "fill", "can_launch", "register_space_for_launch", "note_launched",
    "on_cta_stalled", "on_cta_finished", "on_tick", "on_idle",
    "_act_on_idle", "classify_idle", "next_event", "wake_time",
    "on_issue", "extras",
    "can_launch_for", "_launch_regs", "register_space_for",
    "_pop_ready_swap", "_pop_ready_fitting", "_new_cta_feasible",
    "stalled_active_ctas",
)

#: SM methods the fused event engine dispatches dynamically but the
#: compiled driver never calls: the event loop's per-cycle step/next-event/
#: level flush, the long-block check and barrier wake that run inside C
#: between merge points, and the transit settle (dead under an inert
#: policy, which never parks a CTA).  An instance-level wrapper on any of
#: these would be silently skipped, so its presence routes the run to the
#: event engine.
_COMPILED_BYPASSED_SM_ATTRS = ("accumulate", "next_event", "next_event_fast",
                               "_step_fast", "_on_long_block",
                               "_wake_schedulers", "_settle_transits")

#: Stats surface inlined: the per-segment level flush runs in C as int64
#: sums (merged once at reconciliation).
_COMPILED_BYPASSED_STATS_ATTRS = ("accumulate",)


class EngineUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment.

    Raised when ``compiled`` is requested without the built
    ``repro.sim._ckernel`` extension.  ``auto`` never raises; it degrades
    to ``fused``.
    """


_COMPILED_AVAILABLE: Optional[bool] = None


def compiled_available() -> bool:
    """True when the ``repro.sim._ckernel`` C extension is importable.

    The extension is built best-effort at install time (a missing C
    toolchain skips it without failing the install), so absence is a
    supported steady state, not an error.
    """
    global _COMPILED_AVAILABLE
    if _COMPILED_AVAILABLE is None:
        try:
            import repro.sim._ckernel  # noqa: F401
            _COMPILED_AVAILABLE = True
        except ImportError:
            _COMPILED_AVAILABLE = False
    return _COMPILED_AVAILABLE


def parse_engine(value: Optional[str]) -> str:
    """Normalize a requested engine name (``None``/empty -> ``auto``).

    Unknown names fail loudly: a typo in ``REPRO_ENGINE`` silently running
    the wrong backend would invalidate a benchmark, so it is a ValueError.
    """
    if not value:
        return "auto"
    name = value.strip().lower()
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {value!r}; expected one of {ENGINE_NAMES}")
    return name


def _requested(engine: Optional[str]) -> str:
    """The request: ``engine``, then ``REPRO_ENGINE``; ``compiled`` must
    be importable when named explicitly."""
    name = parse_engine(engine if engine is not None
                        else os.environ.get(ENGINE_ENV))
    if name == "compiled" and not compiled_available():
        raise EngineUnavailableError(
            "REPRO_ENGINE=compiled requires the repro.sim._ckernel C "
            "extension, which is not importable in this environment; "
            "build it (pip install -e . with a C toolchain, or python "
            "setup.py build_ext --inplace) or use REPRO_ENGINE=auto "
            "(degrades to fused)")
    return name


def select_backend(engine: Optional[str] = None) -> str:
    """Resolve a request to an engine name, without looking at a run.

    Returns one of ``reference`` / ``fused`` / ``compiled``.  ``auto``
    picks ``compiled`` when the extension is importable, else ``fused``;
    an *explicit* request for an unavailable backend raises
    :class:`EngineUnavailableError` instead of silently degrading.
    """
    name = _requested(engine)
    if name == "auto":
        return "compiled" if compiled_available() else "fused"
    return name


def instance_overrides(obj: Any, names: Sequence[str]) -> Tuple[str, ...]:
    """Names from ``names`` shadowed in ``obj``'s instance dict.

    An instance-level attribute shadows the class-level method the engine
    would otherwise resolve, so any hit disqualifies a fast path.  Also
    used by the effect auditor (``repro.analyze.effects``).
    """
    instance_dict = getattr(obj, "__dict__", None)
    if not instance_dict:
        return ()
    return tuple(name for name in names if name in instance_dict)


def choose_engine(gpu: Any, requested: Optional[str] = None
                  ) -> Tuple[str, Optional[str]]:
    """The engine one run takes and, if slower than requested, why.

    Returns ``(engine, reason)`` with ``engine`` one of ``dense`` /
    ``reference`` / ``fused`` / ``compiled`` and ``reason`` ``None`` or a
    string from the table in this module's docstring.
    """
    if os.environ.get("REPRO_DENSE_STEP") == "1":
        return "dense", None
    name = _requested(requested)
    if name == "reference":
        return "reference", None
    # The sanitizer's wrappers would read as override:_try_issue; name it.
    if gpu.sanitizer is not None:
        return "reference", "sanitizer"
    for sm in gpu.sms:
        reason = _sm_fused_refusal(sm)
        if reason is not None:
            return "reference", reason
    if name == "fused":
        return "fused", None
    if not compiled_available():
        return "fused", "no-extension"
    reason = _compiled_refusal(gpu)
    if reason is not None:
        return "fused", reason
    return "compiled", None


def _sm_fused_refusal(sm: Any) -> Optional[str]:
    """Why :meth:`_step_fast` might differ from :meth:`step` on ``sm``.

    The fused gate: any instance-level wrapper on ``step``/``_try_issue``
    (sanitizer, mutation self-test), any telemetry/tracing surface, Fig-5
    usage sampling, a policy issue hook, a non-plain address model or a
    non-GTO scheduler keeps the run on the reference step.
    """
    from repro.sim.scheduler import GTOScheduler
    from repro.workloads.traces import AddressModel
    wrapped = instance_overrides(sm, ("step", "_try_issue"))
    if wrapped:
        return f"override:{wrapped[0]}"
    if sm.telemetry is not None:
        return "telemetry"
    if sm._wt is not None:
        return "tracer"
    if sm._sample_usage:
        return "usage-sampling"
    if sm._issue_hook is not None:
        return "issue-hook"
    gpu = sm.gpu
    if type(gpu.address_model) is not AddressModel:
        return "address-model"
    if gpu.hierarchy.telemetry is not None:
        return "telemetry"
    for sched in sm.schedulers:
        if type(sched) is not GTOScheduler:
            return f"scheduler:{sm.config.warp_scheduling}"
        if sched.telemetry is not None:
            return "telemetry"
    return None


def _compiled_refusal(gpu: Any) -> Optional[str]:
    """Why the C core might differ from the fused engine on this run.

    A telemetry session samples every advance of the global clock, which
    the C core does not take; the CTA-level tracer records launch/retire events in global order
    (which the decoupled issue loops would scramble), concurrent kernels
    need the arbiter-aware event engine, and any non-inert policy could
    create pending/transit CTAs or observable idle/tick behaviour the
    closed-form accounting omits.  The scheduler surface the C core
    inlines needs no instance gate: ``GTOScheduler`` declares
    ``__slots__`` and the fused gate pins the exact type.
    """
    if gpu.telemetry is not None:
        return "telemetry"
    if gpu.tracer is not None:
        return "tracer"
    if len(gpu.launches) > 1:
        return "concurrent"
    for sm in gpu.sms:
        wrapped = (instance_overrides(sm, _COMPILED_BYPASSED_SM_ATTRS)
                   or instance_overrides(sm.stats,
                                         _COMPILED_BYPASSED_STATS_ATTRS))
        if wrapped:
            return f"override:{wrapped[0]}"
        reason = _policy_refusal(sm._policy)
        if reason is not None:
            return reason
    return None


def _policy_refusal(policy: Any) -> Optional[str]:
    """Why ``policy`` is not observably the base no-op policy."""
    from repro.policies.base import RegisterFilePolicy
    cls = type(policy)
    for name in _INERT_POLICY_ATTRS:
        if getattr(cls, name) is not getattr(RegisterFilePolicy, name):
            return f"policy:{cls.__name__}.{name}"
    wrapped = instance_overrides(policy, _INERT_POLICY_ATTRS)
    if wrapped:
        return f"override:{wrapped[0]}"
    if policy.needs_issue_hook:
        return f"policy:{cls.__name__}.needs_issue_hook"
    if policy._blocked_on_rf:
        return f"policy:{cls.__name__}._blocked_on_rf"
    return None
