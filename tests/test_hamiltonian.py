import tracemalloc
from collections.abc import Sequence
from itertools import groupby

import pytest

from fourblocks import (
    BudgetExceeded,
    ChordViolation,
    ChordViolations,
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    HamiltonianCycle,
    PeelColoring,
    PeelStall,
    Rng,
    check_chord_neighbor_bound,
    color_hamiltonian,
    find_cycle_subdivision,
    find_hamiltonian_cycle,
    generate,
    is_proper,
    parse_digraph,
    underlying_graph,
    verify_subdivision,
)

import naive
from test_equivalence import chorded_cycle


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def tt(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_digraph(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(n) if i != j))


class TestFindHamiltonianCycle:
    def test_directed_cycle(self):
        c = find_hamiltonian_cycle(cycle(6))
        assert c == HamiltonianCycle((0, 1, 2, 3, 4, 5))

    def test_acyclic_has_none(self):
        assert find_hamiltonian_cycle(tt(4)) is None

    def test_cycle_with_chords(self):
        for seed in range(15):
            d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 8, 12, seed))
            c = find_hamiltonian_cycle(d)
            assert c is not None and c.is_valid_for(d)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            find_hamiltonian_cycle(complete_digraph(10), budget=5)

    def test_short_cycle_is_refused_before_a_step_per_declared_vertex(self):
        d = parse_digraph("1000000 0\n")
        tracemalloc.start()
        try:
            valid = HamiltonianCycle((0, 1, 2)).is_valid_for(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not valid
        assert peak < 2**20

    def test_single_vertex_has_none(self):
        assert find_hamiltonian_cycle(Digraph(1, [])) is None


class TestColorHamiltonian:
    def test_plain_cycle(self):
        d = cycle(7)
        c = find_hamiltonian_cycle(d)
        cert = color_hamiltonian(d, c, 1, 1)
        assert isinstance(cert, PeelColoring)
        assert cert.bound == 6
        assert cert.coloring.palette_size <= 3
        assert is_proper(underlying_graph(d), cert.coloring)

    def test_rejects_bad_cycle(self):
        d = cycle(5)
        with pytest.raises(ValueError):
            color_hamiltonian(d, HamiltonianCycle((0, 2, 1, 3, 4)), 1, 1)

    def test_stall_core_on_dense_digraph(self):
        d = complete_digraph(8)
        c = find_hamiltonian_cycle(d)
        cert = color_hamiltonian(d, c, 1, 1)
        assert isinstance(cert, PeelStall)
        assert cert.core == frozenset(range(8))
        assert cert.witness is not None
        assert verify_subdivision(d, cert.witness, CyclePattern((1, 1, 1, 1))).ok

    def test_stall_with_exhausted_oracle_keeps_core(self):
        d = complete_digraph(8)
        c = find_hamiltonian_cycle(d)
        cert = color_hamiltonian(d, c, 1, 1, budget=2)
        assert isinstance(cert, PeelStall)
        assert cert.witness is None

    def test_planted_closure_both_outcomes_legal(self):
        # a Hamiltonian digraph that definitely contains the pattern
        spec = GenSpec(
            Family.PLANTED_SUBDIVISION, 10, 14, 22, CyclePattern((1, 1, 1, 1))
        )
        d = generate(spec)
        # witness existence is confirmed independently of the peel
        assert find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1))) is not None
        c = find_hamiltonian_cycle(d)
        assert c is not None
        cert = color_hamiltonian(d, c, 1, 1)
        if isinstance(cert, PeelColoring):
            assert is_proper(underlying_graph(d), cert.coloring)
            assert cert.coloring.palette_size <= 6
        else:
            und = underlying_graph(d)
            for v in cert.core:
                deg = sum(1 for w in und.neighbors(v) if w in cert.core)
                assert deg >= 6

    def test_peel_matches_degeneracy(self):
        # the peel succeeds exactly when the underlying graph is
        # (6k-1)-degenerate, and a stall reports the naive peel's core
        for seed in range(20):
            d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 9, 13 + seed % 5, seed))
            c = find_hamiltonian_cycle(d)
            assert c is not None
            cert = color_hamiltonian(d, c, 1, 1)
            _, core = naive.peel_low_degree(range(d.n), d.neighbor_sets(), 5)
            if core:
                assert isinstance(cert, PeelStall) and cert.core == core
            else:
                assert isinstance(cert, PeelColoring)


class TestChordNeighborBound:
    def test_no_chords_no_violations(self):
        d = cycle(9)
        c = find_hamiltonian_cycle(d)
        assert check_chord_neighbor_bound(d, c, 1) == []
        assert check_chord_neighbor_bound(d, c, 2) == []

    def test_free_instances_have_no_violations(self):
        checked = 0
        for seed in range(30):
            d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 9, 11 + seed % 3, seed))
            if find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1))) is not None:
                continue
            c = find_hamiltonian_cycle(d)
            assert c is not None
            assert check_chord_neighbor_bound(d, c, 1) == []
            checked += 1
        assert checked > 3

    def test_hand_built_violation_implies_subdivision(self):
        # cycle 0..7 plus the return arc (3,0) and three out-arcs from w=1
        # into the zone between x and x'
        arcs = [(i, (i + 1) % 8) for i in range(8)]
        arcs += [(3, 0), (1, 4), (1, 5), (1, 6)]
        d = Digraph(8, arcs)
        c = HamiltonianCycle(tuple(range(8)))
        violations = check_chord_neighbor_bound(d, c, 1)
        assert any(v.u == 0 and v.v == 3 and v.w == 1 and v.count >= 3 for v in violations)
        # the bound is a consequence of subdivision-freeness, so its failure
        # must come with an actual subdivision
        w = find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1)))
        assert w is not None
        assert verify_subdivision(d, w, CyclePattern((1, 1, 1, 1))).ok

    def test_short_segments_are_skipped(self):
        # with k=3 every chord segment here is shorter than 2k, so no zone
        # is defined and the checker reports nothing
        arcs = [(i, (i + 1) % 6) for i in range(6)] + [(3, 0), (0, 3)]
        d = Digraph(6, arcs)
        c = HamiltonianCycle(tuple(range(6)))
        assert check_chord_neighbor_bound(d, c, 3) == []

    def test_exact_counts_on_a_zone_across_position_zero(self):
        order = (7, 2, 9, 0, 5, 3, 8, 1, 6, 4)
        arcs = [(order[i], order[(i + 1) % 10]) for i in range(10)]
        # chord (1,0): L = 6, gap C]0,1[ = 5, 3, 8 (positions 4..6); for
        # k = 1 the zone is positions 8, 9, 0, 1, 2 = vertices 6, 4, 7, 2, 9
        arcs += [(1, 0)]
        # w = 3: zone neighbors 6 (a digon, counted once) and 7 by out-arcs,
        # 4 and 2 by in-arcs; 0, 1, 5 and 8 lie outside the zone
        arcs += [(3, 6), (6, 3), (3, 7), (4, 3), (2, 3), (3, 0), (1, 3)]
        # w = 5: zone neighbors 9, 2 and 6, and 5 is also the whole gap of
        # the chord (3,0)
        arcs += [(5, 9), (2, 5), (5, 6)]
        d = Digraph(10, arcs)
        c = HamiltonianCycle(order)
        violations = check_chord_neighbor_bound(d, c, 1)
        # sorted arcs, then gap vertices in cycle order from u (5 before 3)
        assert violations == [(0, 1, 5, 3), (0, 1, 3, 4), (0, 3, 5, 3)]
        assert violations[1] == ChordViolation(u=0, v=1, w=3, count=4)
        assert all(type(v) is ChordViolation for v in violations)
        # k = 2 shrinks the zone of (1,0) to 4, 7, 2, still across 0
        assert check_chord_neighbor_bound(d, c, 2) == [(0, 1, 3, 3)]


class TestChordViolationsSequence:
    """The check's result reads as the list of rows that the naive
    per-chord set intersections give."""

    def cases(self):
        for seed, n, m in [(1, 40, 120), (2, 60, 180), (3, 25, 90)]:
            d, c = chorded_cycle(Rng(seed), n, m)
            for k in (1, 2):
                want = naive.check_chord_neighbor_bound(d, c, k)
                assert len(want) > 3
                yield want, check_chord_neighbor_bound(d, c, k)

    def test_length_and_empty_result(self):
        for want, got in self.cases():
            assert isinstance(got, ChordViolations) and isinstance(got, Sequence)
            assert len(got) == len(want) and got
        empty = check_chord_neighbor_bound(cycle(9), find_hamiltonian_cycle(cycle(9)), 1)
        assert len(empty) == 0 and not empty and empty.chords == ()
        assert list(empty) == [] and empty == []
        with pytest.raises(IndexError):
            empty[0]

    def test_indices(self):
        for want, got in self.cases():
            size = len(want)
            for i in (0, -1, size // 2, 1, size - 1, -size):
                assert got[i] == want[i]
                assert type(got[i]) is ChordViolation
            for i in (size, size + 5, -size - 1):
                with pytest.raises(IndexError):
                    got[i]

    def test_iteration_yields_chord_violation_rows(self):
        for want, got in self.cases():
            rows = list(got)
            assert rows == want
            assert all(type(x) is ChordViolation for x in rows)
            assert list(got) == rows  # iterating again gives the same rows

    def test_equality_with_lists_both_ways(self):
        for want, got in self.cases():
            assert got == want and want == got
            assert got != want[:-1] and want[:-1] != got
            changed = want[:-1] + [(*want[-1][:3], want[-1][3] + 1)]
            assert got != changed and changed != got
            assert got != tuple(want)
        d, c = chorded_cycle(Rng(1), 40, 120)
        first, second = (check_chord_neighbor_bound(d, c, 1) for _ in range(2))
        assert first == second and first != check_chord_neighbor_bound(d, c, 2)
        with pytest.raises(TypeError):
            hash(first)

    def test_chords_group_rows_by_arc(self):
        for want, got in self.cases():
            groups = []
            for (u, v), rows in groupby(want, key=lambda r: r[:2]):
                rows = list(rows)
                groups.append((u, v, tuple(r[2] for r in rows), tuple(r[3] for r in rows)))
            assert got.chords == tuple(groups)

    def test_records_hold_plain_ints(self):
        """The check reads its counts from packed bytes; none of them, nor
        a view of them, is left in a record."""
        for _, got in self.cases():
            assert type(got.chords) is tuple
            for record in got.chords:
                assert type(record) is tuple and len(record) == 4
                u, v, ws, counts = record
                assert type(ws) is tuple and type(counts) is tuple
                assert all(type(x) is int for x in (u, v, *ws, *counts))
