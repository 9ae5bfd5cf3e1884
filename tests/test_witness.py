import ast
import re
import tracemalloc
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from fourblocks import (
    BudgetExceeded,
    CyclePattern,
    Digraph,
    Rng,
    SubdivisionWitness,
    find_cycle_subdivision,
    find_two_block_path,
    TwoBlockPathWitness,
    verify_subdivision,
    verify_two_block_path,
    parse_digraph,
    witness_from_json,
    witness_to_json,
)
from fourblocks.exactcolor import color_within
from fourblocks import _subdiv_py
from fourblocks.witness import _has_two_forks_each_way, available_kernels

import naive

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fourblocks"


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def tt(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def random_digraph(rng, n, m):
    arcs = set()
    attempts = 0
    while len(arcs) < m and attempts < 50 * (m + 1):
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs)


P1111 = CyclePattern((1, 1, 1, 1))


class TestFindCycleSubdivision:
    def test_pattern_digraph_itself(self):
        d = Digraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        w = find_cycle_subdivision(d, P1111)
        assert w is not None
        assert verify_subdivision(d, w, P1111).ok

    def test_minimal_2121_pattern_digraph(self):
        # a -> x -> b, c -> b, c -> y -> d, a -> d on 6 vertices
        d = Digraph(6, [(0, 4), (4, 1), (2, 1), (2, 5), (5, 3), (0, 3)])
        pattern = CyclePattern((2, 1, 2, 1))
        w = find_cycle_subdivision(d, pattern)
        assert w is not None and verify_subdivision(d, w, pattern).ok
        assert naive.has_cycle_subdivision(d, (2, 1, 2, 1))
        # one vertex short of the pattern: provably absent
        smaller = Digraph(6, [(0, 4), (4, 1), (2, 1), (2, 5), (5, 3)])
        assert find_cycle_subdivision(smaller, pattern) is None

    def test_directed_cycles_have_none(self):
        for n in (4, 6, 9):
            for pattern in (P1111, CyclePattern((2, 1, 3, 1))):
                assert find_cycle_subdivision(cycle(n), pattern) is None

    def test_tt4_witness(self):
        w = find_cycle_subdivision(tt(4), P1111)
        assert w == SubdivisionWitness(
            junctions=(0, 2, 1, 3),
            paths=((0, 2), (1, 2), (1, 3), (0, 3)),
        )

    def test_out_degree_one_never_contains(self):
        rng = Rng(5)
        for _ in range(30):
            n = 4 + rng.randrange(5)
            # functional digraph: one out-arc per vertex
            arcs = set()
            for u in range(n):
                v = rng.randrange(n)
                if v != u:
                    arcs.add((u, v))
            d = Digraph(n, arcs)
            assert find_cycle_subdivision(d, P1111) is None

    def test_agrees_with_naive_enumerator(self):
        rng = Rng(41)
        checked_found = 0
        for seed in range(60):
            n = 4 + seed % 5
            d = random_digraph(rng, n, 3 + rng.randrange(2 * n))
            for pattern in (P1111, CyclePattern((2, 1, 2, 1))):
                w = find_cycle_subdivision(d, pattern)
                expected = naive.has_cycle_subdivision(d, pattern.blocks)
                assert (w is not None) == expected
                if w is not None:
                    checked_found += 1
                    assert verify_subdivision(d, w, pattern).ok
        assert checked_found > 5

    def test_asymmetric_patterns_agree_with_naive(self):
        rng = Rng(43)
        checked_found = 0
        for seed in range(40):
            n = 5 + seed % 3
            d = random_digraph(rng, n, 6 + rng.randrange(2 * n))
            for pattern in (CyclePattern((2, 1, 1, 1)), CyclePattern((1, 2, 2, 1))):
                w = find_cycle_subdivision(d, pattern)
                expected = naive.has_cycle_subdivision(d, pattern.blocks)
                assert (w is not None) == expected
                if w is not None:
                    checked_found += 1
                    assert verify_subdivision(d, w, pattern).ok
        assert checked_found > 5

    def test_asymmetric_pattern(self):
        # planted C(3,1,2,1): junctions a=0, b=3 (via 1,2), c=4, d=6 (via 5)
        arcs = [(0, 1), (1, 2), (2, 3), (4, 3), (4, 5), (5, 6), (0, 6)]
        d = Digraph(7, arcs)
        pattern = CyclePattern((3, 1, 2, 1))
        w = find_cycle_subdivision(d, pattern)
        assert w is not None and verify_subdivision(d, w, pattern).ok
        # the rotated labeling must also be found even though roles differ
        rotated = CyclePattern((2, 1, 3, 1))
        w2 = find_cycle_subdivision(d, rotated)
        assert w2 is not None and verify_subdivision(d, w2, rotated).ok

    def test_monotonicity_of_block_minima(self):
        rng = Rng(77)
        hits = 0
        for seed in range(40):
            d = random_digraph(rng, 6 + seed % 3, 10 + rng.randrange(12))
            k1, k3 = 1 + seed % 2, 1 + (seed // 2) % 2
            k = max(k1, k3)
            w = find_cycle_subdivision(d, CyclePattern((k, 1, k, 1)))
            if w is not None:
                hits += 1
                assert verify_subdivision(d, w, CyclePattern((k1, 1, k3, 1))).ok
        assert hits > 3

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceeded):
            find_cycle_subdivision(tt(8), P1111, budget=3)

    def test_empty_search_costs_nothing_per_declared_vertex(self):
        d = parse_digraph("1000000 0\n")
        tracemalloc.start()
        try:
            w = find_cycle_subdivision(d, P1111)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w is None
        assert peak < 2**20

    def test_searches_decided_without_a_kernel_are_its_zero_node_absences(self):
        """Where find_cycle_subdivision answers without a kernel call, every
        kernel answers ABSENT without a node, at any budget."""
        rng = Rng(17)
        decided = 0
        for i in range(300):
            n = 2 + i % 9
            d = random_digraph(rng, n, rng.randrange(2 * n))
            pattern = CyclePattern((1 + i % 3, 1, 1 + i % 2, 1))
            if sum(pattern.blocks) <= n and _has_two_forks_each_way(d.arcs):
                continue
            decided += 1
            assert find_cycle_subdivision(d, pattern, budget=0) is None
            for kernel in available_kernels().values():
                got = kernel.search_cycle_subdivision(d.out_lists(), *pattern.blocks, 0)
                assert got == (_subdiv_py.ABSENT, None, 0)
        assert decided > 100

    def test_library_ignores_the_budget_environment_variable(self, monkeypatch):
        # nothing reads FOURBLOCKS_BUDGET; a library call with no budget
        # searches under DEFAULT_BUDGET
        monkeypatch.setenv("FOURBLOCKS_BUDGET", "3")
        w = find_cycle_subdivision(tt(8), P1111)
        assert w is not None and verify_subdivision(tt(8), w, P1111).ok


class TestVerifySubdivision:
    def setup_method(self):
        self.d = Digraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        self.w = find_cycle_subdivision(self.d, P1111)

    def test_round_trip(self):
        assert verify_subdivision(self.d, self.w, P1111).ok

    def test_missing_arc(self):
        smaller = Digraph(4, [(0, 1), (2, 1), (2, 3)])
        res = verify_subdivision(smaller, self.w, P1111)
        assert not res.ok and res.reason == "MissingArc"

    def test_not_internally_disjoint(self):
        d = Digraph(6, [(0, 4), (4, 1), (2, 4), (2, 3), (0, 3), (4, 3)])
        w = SubdivisionWitness(
            junctions=(0, 1, 2, 3),
            paths=((0, 4, 1), (2, 4, 1), (2, 3), (0, 3)),
        )
        res = verify_subdivision(d, w, P1111)
        assert not res.ok and res.reason == "NotInternallyDisjoint"

    def test_too_short(self):
        res = verify_subdivision(self.d, self.w, CyclePattern((2, 1, 1, 1)))
        assert not res.ok and res.reason == "TooShort"

    def test_bad_junctions(self):
        w = SubdivisionWitness(
            junctions=(0, 1, 2, 3),
            paths=((0, 1), (2, 1), (2, 3), (0, 3)),
        )
        d = Digraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)])
        bad = SubdivisionWitness(w.junctions, ((0, 1), (2, 1), (2, 3), (3, 0)))
        res = verify_subdivision(d, bad, P1111)
        assert not res.ok and res.reason == "BadJunctions"

    def test_json_round_trip(self):
        obj = witness_to_json(self.w, P1111)
        w2, p2 = witness_from_json(obj)
        assert w2 == self.w and p2 == P1111

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            witness_from_json({"pattern": [1, 1, 1, 1], "paths": []})


class TestTwoBlockPath:
    def test_out_star_with_branches(self):
        # two branches of lengths 3 and 2 from vertex 0
        d = Digraph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)])
        w = find_two_block_path(d, 3, 2)
        assert w is not None and verify_two_block_path(d, w).ok

    def test_single_path_has_no_branching(self):
        d = Digraph(11, [(i, i + 1) for i in range(10)])
        assert find_two_block_path(d, 1, 1) is None

    def test_agrees_with_naive(self):
        rng = Rng(13)
        hits = 0
        for seed in range(50):
            n = 4 + seed % 5
            d = random_digraph(rng, n, 2 + rng.randrange(2 * n))
            a, b = 1 + seed % 3, 1 + (seed // 3) % 2
            w = find_two_block_path(d, a, b)
            assert (w is not None) == naive.has_two_block_path(d, a, b)
            if w is not None:
                hits += 1
                assert verify_two_block_path(d, w).ok
        assert hits > 10

    def test_verify_rejects_shared_interior(self):
        d = Digraph(4, [(0, 1), (1, 2), (1, 3)])
        from fourblocks import TwoBlockPathWitness

        w = TwoBlockPathWitness((0, 1, 2), (0, 1, 3), 2, 2)
        res = verify_two_block_path(d, w)
        assert not res.ok and res.reason == "NotInternallyDisjoint"


class TestLongBlocks:
    """Searches far deeper than the interpreter's recursion limit (1000).
    The subdivision kernels' long-block cases are in test_kernel_parity.py."""

    def test_two_block_path_with_a_long_block(self):
        d = Digraph(2000, [(i, i + 1) for i in range(1999)] + [(0, 1999), (1999, 0)])
        w = find_two_block_path(d, 1500, 1)
        assert w == TwoBlockPathWitness(tuple(range(1501)), (0, 1999), 1500, 1)
        assert verify_two_block_path(d, w).ok

    @pytest.mark.parametrize("n", [3000, 30000])
    def test_exact_coloring_of_a_long_path(self, n):
        adj = [{u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)]
        colors = color_within(range(n), adj, 2, 10**7)
        assert colors == {v: (v + 1) % 2 for v in range(n)}

    def test_no_function_in_src_calls_itself(self):
        """No call cycle among the functions of one module, by plain name in
        the Python modules and by name in the C kernel."""
        for path in sorted(PACKAGE.glob("*.py")):
            funcs = [
                node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            names = {f.name for f in funcs}
            calls = {}
            for f in funcs:
                calls.setdefault(f.name, set()).update(
                    node.func.id for node in ast.walk(f)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in names
                )
            self._assert_acyclic(path, calls)
        source = (PACKAGE / "_subdiv.c").read_text()
        bodies = dict(re.findall(r"^\w[^;{]*?\b(\w+)\([^;{]*\)\s*\{(.*?)^\}", source, re.M | re.S))
        assert {"close_cycle", "bfs", "fb_search_cycle_subdivision"} <= set(bodies)
        self._assert_acyclic("_subdiv.c", {
            name: set(re.findall(r"\b(\w+)\s*\(", body)) & set(bodies)
            for name, body in bodies.items()
        })

    def test_only_the_binding_knows_the_flat_arrays(self):
        """Every Python layer reads the digraph's out-lists; the flat row
        index and head arrays exist only where the C kernel is called."""
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name == "_subdiv_ctypes.py":
                continue
            found = re.findall(r"indptr|csr", path.read_text(), re.I)
            assert not found, f"{path.name} mentions {sorted(set(found))}"

    @staticmethod
    def _assert_acyclic(where, calls):
        try:
            tuple(TopologicalSorter(calls).static_order())
        except CycleError as exc:
            pytest.fail(f"{where}: call cycle {exc.args[1]}")
