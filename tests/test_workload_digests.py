"""The benchmark's workloads give pinned certificate bytes.

The first 20 slots of each workload at seed 101 are built with the
benchmark's own generator and certified through its own ``certify``; the
per-instance ``digest`` values are hashed in slot order, as the benchmark's
``certificates_sha256`` hashes its first pass. Both benchmark modules are
loaded from ``perfbench/`` by path, so this runs in tier-1 on either kernel
without importing the benchmark's runner as a package.
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
    "sparse-color": "88ebf23eb4ad66aebe5d0c6cf6fe1bbc59646c88e2764926073f3e41930a795d",
    "dense-fallback": "6e0fe35ffa2c6d2184f94bd9deae69b9a4b4b5509b9758a22cf9ef2461d16f9b",
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
