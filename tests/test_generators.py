import hashlib

import pytest

from fourblocks import (
    CyclePattern,
    Family,
    GenSpec,
    InfeasibleSpec,
    Rng,
    find_cycle_subdivision,
    format_digraph,
    generate,
    is_strongly_connected,
    verify_subdivision,
)

import naive


class TestRng:
    def test_deterministic(self):
        a, b = Rng(42), Rng(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_known_splitmix_values(self):
        # first outputs of splitmix64 seeded with 0
        r = Rng(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4

    def test_shuffle_is_permutation(self):
        r = Rng(9)
        xs = list(range(20))
        r.shuffle(xs)
        assert sorted(xs) == list(range(20))


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(Family.DIRECTED_CYCLE, 6),
            GenSpec(Family.TRANSITIVE_TOURNAMENT, 5),
            GenSpec(Family.RANDOM_STRONG, 9, 14, 123),
            GenSpec(Family.RANDOM_HAMILTONIAN, 8, 12, 99),
            GenSpec(Family.PLANTED_SUBDIVISION, 11, 16, 5, CyclePattern((2, 1, 2, 1))),
            GenSpec(Family.ANCESTOR_DIGRAPH, 8, 12, 44),
        ],
    )
    def test_byte_identical(self, spec):
        assert format_digraph(generate(spec)) == format_digraph(generate(spec))

    # Random strong digraphs whose fill leaves them not strong, so the
    # condensation patch adds an arc and the loop checks strong components
    # twice. The digests were computed with the generator's former private
    # Tarjan; the ids it numbers pick the patch arc.
    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (12, 11, 0, "c22bf3a77696b91840f239337988f751dfa5845ee3e0920089994233542cdc21"),
            (40, 40, 3, "51ccaa0bdf792ab10f7c3d5acd5f28a905c01b4ef6014f4b2d85f1816fbdd015"),
            (200, 199, 4, "e5e11e7085609e7fad64aafe7a80dc97fa9267f905a4ba754f2fef6a0ede1b41"),
            (2000, 1999, 6, "4ea991645f2eb68334e8f06ec11d49f778f38ed1f7d7377823dab5471feb72d1"),
        ],
    )
    def test_random_strong_bytes_are_pinned(self, n, m, seed, digest):
        text = format_digraph(generate(GenSpec(Family.RANDOM_STRONG, n, m, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # Hamiltonian digraphs from sparse to complete; the complete one draws
    # many loops and repeated arcs before its fill ends.
    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (8, 12, 99, "c7d7ad4b5f8b220de63659708503997876c9498c8ad8e6394f4f9a06027f9587"),
            (6, 30, 2, "3f034c26ec821d2d2d607a4ab5455a5aa081848ba2207d4e91f69e4f001a8478"),
            (40, 120, 7, "038d040d2676e3b553fce8b24566c6dcbd4ddc8c91eccbe584959047545f88ec"),
            (400, 1200, 101, "44617c6e4d5304d12e635eccad4dba484c4650a6738fd8d8e061b3607cfd5e97"),
        ],
    )
    def test_random_hamiltonian_bytes_are_pinned(self, n, m, seed, digest):
        text = format_digraph(generate(GenSpec(Family.RANDOM_HAMILTONIAN, n, m, seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestFamilies:
    def test_directed_cycle(self):
        d = generate(GenSpec(Family.DIRECTED_CYCLE, 5))
        assert len(d.arcs) == 5
        assert is_strongly_connected(d)
        assert max(d.out_degree(u) for u in range(d.n)) == 1

    def test_tournament_contains_pattern(self):
        d = generate(GenSpec(Family.TRANSITIVE_TOURNAMENT, 4))
        assert naive.has_cycle_subdivision(d, (1, 1, 1, 1))
        assert find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1))) is not None

    def test_random_strong_is_strong(self):
        for seed in range(40):
            n = 2 + seed % 14
            m = min(n + seed % (n + 3), n * (n - 1))
            d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
            assert is_strongly_connected(d)

    def test_random_hamiltonian_is_strong_with_cycle(self):
        from fourblocks import find_hamiltonian_cycle

        for seed in range(20):
            d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 7, 10, seed))
            assert is_strongly_connected(d)
            assert find_hamiltonian_cycle(d) is not None

    def test_planted_witness_survives_noise(self):
        for seed in range(25):
            pattern = CyclePattern((2, 1, 2, 1))
            d = generate(GenSpec(Family.PLANTED_SUBDIVISION, 12, 20, seed, pattern))
            assert is_strongly_connected(d)
            w = find_cycle_subdivision(d, pattern)
            assert w is not None
            assert verify_subdivision(d, w, pattern).ok

    def test_planted_seed7_example(self):
        pattern = CyclePattern((2, 1, 2, 1))
        d = generate(GenSpec(Family.PLANTED_SUBDIVISION, 12, 12, 7, pattern))
        assert find_cycle_subdivision(d, pattern) is not None

    def test_ancestor_digraph_arcs_point_to_ancestors(self):
        for seed in range(20):
            d = generate(GenSpec(Family.ANCESTOR_DIGRAPH, 9, 14, seed))
            # rebuild parent pointers from the unique in-arc of tree shape:
            # every non-tree arc must close back onto the walk to the root
            from fourblocks import spanning_out_tree, is_ancestor

            t = spanning_out_tree(d, 0)
            for u, v in d.arcs:
                assert is_ancestor(t, u, v) or is_ancestor(t, v, u)


class TestInfeasible:
    def test_cycle_needs_two_vertices(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.DIRECTED_CYCLE, 1))

    def test_hamiltonian_needs_m_at_least_n(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.RANDOM_HAMILTONIAN, 6, 5, 0))

    def test_strong_needs_skeleton(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.RANDOM_STRONG, 6, 3, 0))

    def test_planted_needs_pattern(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.PLANTED_SUBDIVISION, 10, 12, 0))

    def test_planted_needs_room(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.PLANTED_SUBDIVISION, 5, 8, 0, CyclePattern((2, 1, 2, 1))))

    def test_m_range(self):
        with pytest.raises(InfeasibleSpec):
            generate(GenSpec(Family.DIRECTED_CYCLE, 4, 20))
