"""The benchmark's workloads give pinned certificate bytes.

The first 20 slots of each workload at seed 101 are built with the
benchmark's own generator and certified through its own ``certify``; the
per-instance ``digest`` values are hashed in slot order, as the benchmark's
``certificates_sha256`` hashes its first pass. The benchmark's modules are
loaded from ``perfbench/`` by path, so this runs in tier-1 on either kernel
without importing the benchmark's runner as a package. The traced run's
stage-failure counters are checked here too.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 101
SLOTS = 20

PINNED = {
    "sparse-color": "97be01cda467f2d219ccf6e19bb3c3da796965f0b97092f63e5c45c82e1053dd",
    "dense-fallback": "d159ae657c5cc1425d1bc25852199415777d2573b792814b5bfb07dc96db5a69",
    "ham-peel": "5c0cbd32b28792c72f96a623a5e8dcb7df4099a6cfa60f178f47ad2266dcf9c7",
}


def load(name: str):
    """The module perfbench/<name>.py, registered as perfbench_<name>."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_certificates_are_pinned(name):
    workloads, run = load("workloads"), load("run")
    w = workloads.WORKLOADS[name]
    h = hashlib.sha256()
    for slot in range(SLOTS):
        cert, violations = run.certify(w, workloads.make_instance(w, SEED, slot))
        h.update(bytes.fromhex(run.digest(cert, violations)))
    assert h.hexdigest() == PINNED[name]


def test_tracer_counts_a_d3_failure():
    """The traced ``color_d3`` reads the d3 failure type by a name that the
    tracer resolves on every call; a missing name fails every operation."""
    from fourblocks import decomposition

    tracing = load("tracing")
    tracer = tracing.Tracer()
    arcs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    with tracing.patched(tracing.patch_targets(tracer)):
        out = decomposition.color_d3(arcs, 1)
    assert out == decomposition.PaletteFailure(6)
    assert tracer.counts["decomposition.stage_failures.d3"] == 1
