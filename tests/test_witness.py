import pytest

from fourblocks import (
    BudgetExceeded,
    CyclePattern,
    Digraph,
    Rng,
    SubdivisionWitness,
    find_cycle_subdivision,
    find_two_block_path,
    verify_subdivision,
    verify_two_block_path,
    witness_from_json,
    witness_to_json,
)

import naive


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

    def test_library_ignores_the_budget_environment_variable(self, monkeypatch):
        # FOURBLOCKS_BUDGET is read by the CLI only; a library call with no
        # budget searches under DEFAULT_BUDGET
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
