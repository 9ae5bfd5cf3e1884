"""The compiled and pure kernels must be interchangeable: same witnesses,
same absence proofs, same node accounting, same budget behavior.

The compiled kernel is built from src/fourblocks/_subdiv.c into a temporary
directory by the ``compiled_kernel`` fixture (tests/conftest.py); these tests
skip only when no C compiler is on PATH."""

import importlib.machinery
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fourblocks import Digraph, Family, GenSpec, Rng, generate
from fourblocks import _subdiv_py as pure
from fourblocks.witness import _csr

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fourblocks"


def random_digraph(rng, n, m):
    arcs = set()
    attempts = 0
    while len(arcs) < m and attempts < 50 * (m + 1):
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs)


def run(kernel, d, pattern, budget):
    indptr, indices = _csr(d)
    return kernel.search_cycle_subdivision(d.n, indptr, indices, *pattern, budget)


def test_identical_outcomes_across_instances(compiled_kernel):
    rng = Rng(2024)
    found = 0
    for seed in range(80):
        n = 4 + seed % 7
        d = random_digraph(rng, n, 3 + rng.randrange(3 * n))
        for pattern in ((1, 1, 1, 1), (2, 1, 2, 1), (2, 1, 1, 1), (1, 2, 3, 1)):
            a = run(pure, d, pattern, 10_000_000)
            b = run(compiled_kernel, d, pattern, 10_000_000)
            assert a == b
            if a[0] == 0:
                found += 1
    assert found > 20


def test_identical_budget_cutoffs(compiled_kernel):
    rng = Rng(555)
    for seed in range(20):
        d = random_digraph(rng, 8, 20 + rng.randrange(20))
        for budget in (1, 5, 37, 1000):
            a = run(pure, d, (2, 1, 2, 1), budget)
            b = run(compiled_kernel, d, (2, 1, 2, 1), budget)
            assert a == b


def test_identical_on_dense_fallback_shape(compiled_kernel):
    """Strong digraphs with m = 10n, as in the dense-fallback benchmark."""
    statuses = set()
    for seed in range(6):
        n = 38 + seed % 5
        d = generate(GenSpec(Family.RANDOM_STRONG, n, 10 * n, seed))
        for budget in (1, 37, 1000, 50_000):
            a = run(pure, d, (1, 1, 1, 1), budget)
            b = run(compiled_kernel, d, (1, 1, 1, 1), budget)
            assert a == b
            statuses.add(a[0])
    assert statuses == {pure.FOUND, pure.BUDGET}


def test_identical_on_extreme_arguments(compiled_kernel):
    d = random_digraph(Rng(9), 8, 30)
    for pattern in ((2**40, 1, 1, 1), (1, 1, 1, 2**31 + 1), (1, 1, 1, 1)):
        assert run(pure, d, pattern, 2**70) == run(compiled_kernel, d, pattern, 2**70)
    edgeless = Digraph(5, [])
    assert run(pure, edgeless, (1, 1, 1, 1), 10) == run(
        compiled_kernel, edgeless, (1, 1, 1, 1), 10
    )


def test_binding_rejects_what_the_kernel_would_misread(compiled_kernel):
    search = compiled_kernel.search_cycle_subdivision
    with pytest.raises(ValueError):
        search(3, [0, 1, 2], [1, 2, 0], 1, 1, 1, 1, 10)  # indptr too short
    with pytest.raises(ValueError):
        search(3, [0, 2, 1, 3], [1, 2, 0], 1, 1, 1, 1, 10)  # decreasing
    with pytest.raises(ValueError):
        search(3, [0, 1, 2, 3], [1, 3, 0], 1, 1, 1, 1, 10)  # head out of range
    with pytest.raises(ValueError):
        search(3, [0, 1, 2, 3], [1, 2, 0], 0, 1, 1, 1, 10)  # empty block


def _package_copy(tmp_path, library=None):
    root = tmp_path / "site"
    shutil.copytree(PACKAGE, root / "fourblocks",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    if library is not None:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        shutil.copy(library, root / "fourblocks" / ("_subdiv" + suffix))
    return root


def _python(root, code, pure=False):
    env = {k: v for k, v in os.environ.items() if k != "FOURBLOCKS_PURE"}
    env["PYTHONPATH"] = str(root)
    if pure:
        env["FOURBLOCKS_PURE"] = "1"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


# kernel chosen at import, whether that import loaded ctypes, then every
# kernel available_kernels() finds
PROBE = (
    "import sys; from fourblocks import witness; "
    "print(witness.KERNEL, 'ctypes' in sys.modules, "
    "*sorted(witness.available_kernels()))"
)


def test_loader_uses_a_library_next_to_the_package(tmp_path, compiled_library):
    root = _package_copy(tmp_path, compiled_library)
    assert _python(root, PROBE) == ["compiled", "True", "compiled", "pure"]
    assert _python(root, PROBE, pure=True) == ["pure", "False", "compiled", "pure"]
    bench = _python(
        root,
        "from fourblocks.cli import main; "
        "main(['bench', '--n', '12', '--count', '8', '--k1', '2', '--k3', '2'])",
    )
    assert "agree on all outcomes: True" in " ".join(bench)


def test_loader_without_library_stays_pure_and_skips_ctypes(tmp_path):
    root = _package_copy(tmp_path)
    assert _python(root, PROBE) == ["pure", "False", "pure"]
