"""Hardening of the fast engines: no leak across runs, clean unwinding.

Run on ``compiled`` (when the extension is built) and on ``fused``:

* **Leak** -- over repeated runs, the traced memory still charged to the
  engine's own frames after each run is released stays flat after the
  first run.  ``_ckernel`` allocates through ``PyMem_*``, so tracemalloc
  charges the C core's arena to the ``repro/sim/compiled.py`` frame that
  called into it.
* **Fault injection** -- an exception raised inside a merge-point
  callback (a hierarchy access, a warp finish) on the k-th call must
  leave ``GPU.run`` as the same exception object, with garbage
  collection re-enabled, and
  must not poison the shared workload: a fresh GPU built on the same
  ``WorkloadInstance`` still returns the dense oracle's bytes.
"""

from __future__ import annotations

import gc
import json
import os
import tracemalloc

import pytest

from repro.config import SCALES, GPUConfig
from repro.experiments.runner import POLICIES
from repro.sim.backend import compiled_available
from repro.sim.gpu import GPU
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

TINY = SCALES["tiny"]
MICRO_CONFIG = GPUConfig(num_sms=2)
ENGINES = ("fused",) + (("compiled",) if compiled_available() else ())
#: Frames the leak test charges to each engine.
ENGINE_FRAMES = {"fused": "repro/sim/", "compiled": "repro/sim/compiled.py"}
RUNS = 5
#: Allowed drift of the charged bytes after the first run (allocator
#: free-list noise); one leaked lowering of this workload is far larger.
SLACK_BYTES = 16 * 1024


class InjectedFault(RuntimeError):
    """Raised by a wrapped merge-point callback."""


@pytest.fixture(scope="module")
def instance():
    return build_workload(get_spec("KM"), MICRO_CONFIG, TINY)


def fresh_gpu(instance) -> GPU:
    return GPU(MICRO_CONFIG, instance.kernel, POLICIES["baseline"](),
               instance.trace_provider, instance.address_model,
               liveness=instance.liveness)


def result_bytes(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def charged_bytes(marker: str) -> int:
    snapshot = tracemalloc.take_snapshot()
    return sum(stat.size for stat in snapshot.statistics("filename")
               if marker in stat.traceback[0].filename.replace("\\", "/"))


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_runs_do_not_leak(instance, engine):
    marker = ENGINE_FRAMES[engine]
    charged = []
    tracemalloc.start(1)
    try:
        for _ in range(RUNS):
            gpu = fresh_gpu(instance)
            gpu.run(max_cycles=TINY.max_cycles, engine=engine)
            assert gpu.engine_used == engine
            del gpu
            gc.collect()
            charged.append(charged_bytes(marker))
    finally:
        tracemalloc.stop()
    assert max(charged[1:]) <= charged[0] + SLACK_BYTES, (
        f"{engine}: bytes still charged to {marker} after each run grew: "
        f"{charged}")


@pytest.fixture(scope="module")
def dense_bytes(instance):
    os.environ["REPRO_DENSE_STEP"] = "1"
    try:
        return result_bytes(fresh_gpu(instance).run(
            max_cycles=TINY.max_cycles))
    finally:
        os.environ.pop("REPRO_DENSE_STEP", None)


def raise_on_call(owner, name: str, k: int) -> list:
    """Instance-wrap ``owner.<name>`` to raise on its k-th call; the
    returned list records one entry per call, the raised fault last."""
    original = getattr(owner, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            calls[-1] = InjectedFault(f"{name} call {k}")
            raise calls[-1]
        return original(*args, **kwargs)

    setattr(owner, name, wrapped)
    return calls


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("target, k", [("access", 40), ("finish", 5)])
def test_fault_in_merge_point_propagates_cleanly(instance, dense_bytes,
                                                 engine, target, k):
    gpu = fresh_gpu(instance)
    if target == "access":
        calls = raise_on_call(gpu.hierarchy, "_access", k)
    else:
        calls = raise_on_call(gpu.sms[1], "_finish_warp", k)
    assert gc.isenabled()
    with pytest.raises(InjectedFault) as raised:
        gpu.run(max_cycles=TINY.max_cycles, engine=engine)
    assert gpu.engine_used == engine
    assert len(calls) == k and raised.value is calls[-1]
    assert gc.isenabled(), "GPU.run left garbage collection disabled"
    del gpu
    gc.collect()
    again = fresh_gpu(instance)
    assert result_bytes(again.run(max_cycles=TINY.max_cycles,
                                  engine=engine)) == dense_bytes
    assert again.engine_used == engine
