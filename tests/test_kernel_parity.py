"""The compiled and pure kernels must be interchangeable: same witnesses,
same absence proofs, same node accounting, same budget behavior.

The compiled kernel is built from src/fourblocks/_subdiv.c into a temporary
directory by the ``compiled_kernel`` fixture (tests/conftest.py); these tests
skip only when no C compiler is on PATH."""

import importlib.machinery
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from fourblocks import (
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    Rng,
    SubdivisionFound,
    color_strong_digraph,
    find_cycle_subdivision,
    generate,
    verify_subdivision,
)
from fourblocks import _subdiv_py as pure
from fourblocks import witness

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
    return kernel.search_cycle_subdivision(d.out_lists(), *pattern, budget)


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


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_strong_digraphs_get_a_verified_subdivision(seed, compiled_kernel, monkeypatch):
    """Strong n=400, m=4000 at the default budget. At k=1 stage d2 fails and
    the whole-graph search must certify; the unpruned enumeration ran out
    of 10^6 nodes there. At k=2 the pipeline colors these digraphs, so the
    (2,1,2,1) search runs on its own."""
    d = generate(GenSpec(Family.RANDOM_STRONG, 400, 4000, seed))
    results = []
    for kernel in (pure, compiled_kernel):
        monkeypatch.setattr(witness, "_kernel", kernel)
        cert = color_strong_digraph(d, 1, 1)
        assert isinstance(cert, SubdivisionFound)
        assert verify_subdivision(d, cert.witness, cert.pattern).ok
        pattern = CyclePattern.from_k(2, 2)
        w = find_cycle_subdivision(d, pattern)
        assert verify_subdivision(d, w, pattern).ok
        results.append((cert, w))
    assert results[0] == results[1]


def test_budget_bounds_the_work_of_a_long_pattern(compiled_kernel):
    """Blocks of 20 on a sparse n=5000, m=15000 digraph: most of it lies
    within distance 20 of each source, yet a budget of 1 stops both kernels
    after their second node. The pure kernel's traced peak stays a small
    multiple of n + m; BFS balls kept for every source out to that radius
    would hold about 2*10^7 distances."""
    d = random_digraph(Rng(5), 5000, 15_000)
    tracemalloc.start()
    try:
        a = pure.search_cycle_subdivision(d.out_lists(), 20, 1, 20, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a == (pure.BUDGET, None, 2)
    assert peak < 200 * (d.n + len(d.arcs))
    assert compiled_kernel.search_cycle_subdivision(d.out_lists(), 20, 1, 20, 1, 1) == a


def test_identical_budget_cut_inside_a_long_block(compiled_kernel):
    """A path of at least 1200 arcs: the pure kernel used to recurse once
    per vertex entered and died with RecursionError."""
    arcs = [(i, (i + 1) % 1500) for i in range(1500)] + [(0, 1300), (5, 1310), (1305, 20)]
    d = Digraph(1500, arcs)
    for kernel in (pure, compiled_kernel):
        assert run(kernel, d, (1200, 1, 10, 1), 5000) == (pure.BUDGET, None, 5001)


# Runs the compiled kernel on a 40,000-vertex cycle with two chords, where
# the first path of pattern (n/2 - 3, 1, 1, 1) enters ~20,000 vertices.
LONG_BLOCK_CHILD = """
import sys
from fourblocks import Digraph
from fourblocks._subdiv_ctypes import CompiledKernel
n = 40_000
d = Digraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n // 2 + 1)])
kernel = CompiledKernel(sys.argv[1])
print(kernel.search_cycle_subdivision(d.out_lists(), n // 2 - 3, 1, 1, 1, 10**6))
"""


def _one_megabyte_stack():
    hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
    resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, hard))


def test_compiled_kernel_runs_a_long_block_on_a_small_stack(compiled_library):
    """A C stack frame per vertex entered overflowed a 1 MB stack here and
    killed the process with SIGSEGV; the explicit stack lives on the heap."""
    env = {**os.environ, "PYTHONPATH": str(Path(witness.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", LONG_BLOCK_CHILD, str(compiled_library)],
        env=env, capture_output=True, text=True, preexec_fn=_one_megabyte_stack,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{(pure.BUDGET, None, 1_000_001)}\n"


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
        search([(1,), (-1,), (0,)], 1, 1, 1, 1, 10)  # negative head
    with pytest.raises(ValueError):
        search([(1,), (3,), (0,)], 1, 1, 1, 1, 10)  # head out of range
    with pytest.raises(ValueError):
        search([(1,), (2**31,), (0,)], 1, 1, 1, 1, 10)  # beyond a C int
    with pytest.raises(ValueError):
        search([(1,), (2,), (0,)], 0, 1, 1, 1, 10)  # empty block


def _package_copy(tmp_path, library=None):
    root = tmp_path / "site"
    shutil.copytree(PACKAGE, root / "fourblocks",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    if library is not None:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        shutil.copy(library, root / "fourblocks" / ("_subdiv" + suffix))
    return root


def _python(root, code):
    env = {**os.environ, "PYTHONPATH": str(root)}
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
    bench = _python(
        root,
        "from fourblocks.cli import main; "
        "main(['bench', '--n', '12', '--count', '8', '--k1', '2', '--k3', '2'])",
    )
    assert "agree on all outcomes: True" in " ".join(bench)


def test_loader_without_library_stays_pure_and_skips_ctypes(tmp_path):
    root = _package_copy(tmp_path)
    assert _python(root, PROBE) == ["pure", "False", "pure"]
