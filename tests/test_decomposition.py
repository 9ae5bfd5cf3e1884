import tracemalloc
from collections import Counter

import pytest

from fourblocks import (
    BudgetExceeded,
    Coloring,
    ColoringWithinBound,
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    Inconclusive,
    NotAcyclic,
    NotFinalTree,
    NotStronglyConnected,
    OutDegreeFailure,
    OutTree,
    PaletteFailure,
    SubDigraph,
    SubdivisionFound,
    VerifyResult,
    WheelCoreFailure,
    arc_partition,
    color_d1,
    color_d2,
    color_d3,
    color_strong_digraph,
    depth_first_out_tree,
    finalize,
    find_cycle_subdivision,
    generate,
    is_proper,
    level_classes,
    product_coloring,
    underlying_graph,
    verify_subdivision,
)
from fourblocks.decomposition import SubDigraph, split_by_out_degree

import naive
from naive import spanning_out_tree


def path_tree(n) -> OutTree:
    return OutTree(0, (None,) + tuple(range(n - 1)), tuple(range(1, n + 1)))


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


class TestLevelClasses:
    def test_k1_residues(self):
        cls = level_classes(path_tree(5), 1)
        assert cls[0] == frozenset({0, 2, 4})
        assert cls[1] == frozenset({1, 3})

    def test_k2_residues(self):
        cls = level_classes(path_tree(5), 2)
        assert cls == (
            frozenset({0, 4}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )

    def test_large_k_gives_level_sets(self):
        cls = level_classes(path_tree(4), 7)
        assert cls == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )

    def test_partition(self):
        for seed in range(20):
            d = generate(GenSpec(Family.RANDOM_STRONG, 4 + seed, 3 * (4 + seed) // 2, seed))
            t = finalize(d, spanning_out_tree(d, 0))
            for k in (1, 2, 3):
                cls = level_classes(t, k)
                union = set()
                for c in cls:
                    assert not (union & c)
                    union |= c
                assert union == set(range(d.n))


class TestArcPartition:
    def test_requires_final_tree(self):
        d = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        t = OutTree(0, (None, 0, 0), (1, 2, 2))
        with pytest.raises(NotFinalTree):
            arc_partition(d, t, {0, 1, 2})

    # The tree of test_outtree's TestClassify::test_equal_levels_backward:
    # at k = 1 the classes are {0, 3} (levels 1 and 3) and {1, 2} (level 2).
    # Only (1,2), an out-arc of the second class, keeps the tree from being
    # final, so only that class's call raises.
    def test_raises_only_for_the_class_that_reads_the_offending_arc(self):
        d = Digraph(4, [(0, 1), (0, 2), (2, 3), (1, 2)])
        t = OutTree(0, (None, 0, 0, 2), (1, 2, 2, 3))
        assert level_classes(t, 1) == (frozenset({0, 3}), frozenset({1, 2}))
        d1, d2, d3 = arc_partition(d, t, {0, 3})
        assert not d1.arcs and not d2.arcs and not d3.arcs
        with pytest.raises(NotFinalTree, match=r"backward arc \(1,2\)"):
            arc_partition(d, t, {1, 2})

    def test_three_kinds(self):
        # path tree 0->1->2->3->4->5 with extra arcs inside class {0,2,4}
        arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (4, 0), (5, 0)]
        d = Digraph(6, arcs)
        t = path_tree(6)
        assert_final = [(u, v) for u, v in d.arcs if t.level[u] >= t.level[v]]
        assert all(v == 0 for _, v in assert_final)
        d1, d2, d3 = arc_partition(d, t, {0, 2, 4})
        assert d1.arcs == frozenset({(0, 2)})
        assert d2.arcs == frozenset({(4, 0)})
        assert d3.arcs == frozenset()

    def test_incomparable_goes_to_a3(self):
        # branches 0->1->2 and 0->3->4->5; (1,5) joins incomparable vertices
        # of the same parity class (levels 2 and 4)
        d = Digraph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (1, 5)])
        t = OutTree(0, (None, 0, 1, 0, 3, 4), (1, 2, 3, 2, 3, 4))
        d1, d2, d3 = arc_partition(d, t, {1, 3, 5})
        assert d3.arcs == frozenset({(1, 5)})
        assert not d1.arcs and not d2.arcs

    def test_exhaustive_invariants(self):
        for seed in range(25):
            n = 5 + seed % 12
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % n, seed))
            t = finalize(d, spanning_out_tree(d, 0))
            from fourblocks import is_ancestor

            for k in (1, 2):
                cls = level_classes(t, k)
                for c in cls:
                    d1, d2, d3 = arc_partition(d, t, c)
                    induced = {
                        (u, v) for u, v in d.arcs if u in c and v in c
                    }
                    assert d1.arcs | d2.arcs | d3.arcs == induced
                    assert not (d1.arcs & d2.arcs)
                    assert not (d1.arcs & d3.arcs)
                    assert not (d2.arcs & d3.arcs)
                    for u, v in d1.arcs:
                        assert t.level[u] < t.level[v] and is_ancestor(t, u, v)
                        assert (t.level[v] - t.level[u]) % (2 * k) == 0
                    for u, v in d2.arcs:
                        assert t.level[u] > t.level[v] and is_ancestor(t, v, u)
                    for u, v in d3.arcs:
                        a1_like = t.level[u] < t.level[v] and is_ancestor(t, u, v)
                        a2_like = t.level[u] > t.level[v] and is_ancestor(t, v, u)
                        assert not a1_like and not a2_like


class TestSubDigraph:
    @pytest.mark.parametrize("arc", [(0, 2), (2, 0)])
    def test_arc_leaving_the_vertex_set_raises(self, arc):
        with pytest.raises(ValueError, match=rf"arc \({arc[0]},{arc[1]}\) leaves"):
            SubDigraph({0, 1}, [arc])

    def test_loop_arc_raises(self):
        # a loop would leave color_d3 a group that no coloring makes proper
        with pytest.raises(ValueError, match=r"loop arc \(0,0\) not allowed"):
            SubDigraph({0, 1}, [(0, 0)])


class TestColorD1:
    def test_edgeless(self):
        # no vertex lies on an arc, so none is colored: the pipeline keys
        # every class vertex with 0 for this group
        t = path_tree(4)
        out = color_d1(SubDigraph({0, 1, 2, 3}, []), t)
        assert out == Coloring({}) and out.palette_size == 0

    def test_tree_shaped_two_colors(self):
        # ancestor-increasing chain 0->2->4 on the path tree
        t = path_tree(6)
        d1 = SubDigraph({0, 2, 4}, [(0, 2), (2, 4)])
        out = color_d1(d1, t)
        assert isinstance(out, Coloring)
        assert out.palette_size == 2

    def test_rejects_non_ancestor_arcs(self):
        t = OutTree(0, (None, 0, 0), (1, 2, 2))
        with pytest.raises(ValueError):
            color_d1(SubDigraph({1, 2}, [(1, 2)]), t)

    def test_stall_attaches_wheel(self):
        # all increasing pairs over a path tree: underlying K8, min degree 7.
        # The stall carries the core in which the paper's 5-wheel argument
        # applies; no wheel is searched for.
        t = path_tree(8)
        arcs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        d1 = SubDigraph(set(range(8)), arcs)
        out = color_d1(d1, t)
        assert isinstance(out, WheelCoreFailure)
        assert out.core == frozenset(range(8))

    def test_stall_with_exhausted_wheel_budget_keeps_core(self):
        # the K8 core plus a pendant path 0->8->9: peeling drops 8 and 9 and
        # the stall keeps exactly the core, whose vertices keep >= 6 core
        # neighbors; there is no wheel budget left to exhaust
        t = path_tree(10)
        arcs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        arcs += [(0, 8), (8, 9)]
        d1 = SubDigraph(set(range(10)), arcs)
        out = color_d1(d1, t)
        assert isinstance(out, WheelCoreFailure)
        assert out.core == frozenset(range(8))
        assert all(len(d1.und_adj[v] & out.core) >= 6 for v in out.core)

    def test_subdivision_free_instances_never_stall(self):
        checked = 0
        for seed in range(40):
            n = 5 + seed % 6
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % n, seed))
            if find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1))) is not None:
                continue
            t = finalize(d, spanning_out_tree(d, 0))
            cls = level_classes(t, 1)
            for c in cls:
                d1, _, _ = arc_partition(d, t, c)
                out = color_d1(d1, t)
                assert isinstance(out, Coloring)
                assert out.palette_size <= 6
                assert set(out.colors.values()) <= set(range(6))
                checked += 1
        assert checked > 10


class TestColorD2:
    def test_low_out_degree_two_colors(self):
        d2 = SubDigraph({0, 1, 2, 3}, [(3, 2), (2, 1), (1, 0)])
        out = color_d2(d2)
        assert isinstance(out, Coloring) and out.palette_size <= 2

    def test_three_out_neighbors_vertex(self):
        d2 = SubDigraph({0, 1, 2, 3}, [(3, 0), (3, 1), (3, 2)])
        out = color_d2(d2)
        assert isinstance(out, Coloring)
        assert out.palette_size <= 3
        und = {frozenset(a) for a in d2.arcs}
        for u, v in und:
            assert out.colors[u] != out.colors[v]

    def test_out_degree_failure(self):
        arcs = [(9, 5), (9, 6), (9, 7), (9, 8)]
        arcs += [(5, 0), (5, 1), (6, 0), (6, 1), (7, 1), (7, 2), (8, 2), (8, 3)]
        d2 = SubDigraph(set(range(10)), arcs)
        out = color_d2(d2)
        assert isinstance(out, OutDegreeFailure)
        assert out.vertex == 9
        assert out.out_neighbors == (5, 6, 7, 8)

    def test_not_acyclic(self):
        d2 = SubDigraph({0, 1}, [(0, 1), (1, 0)])
        with pytest.raises(NotAcyclic):
            color_d2(d2)

    def test_split_by_out_degree(self):
        d2 = SubDigraph({0, 1, 2}, [(2, 0), (2, 1), (1, 0)])
        high, max_out, _ = split_by_out_degree(d2)
        assert high == frozenset({2})
        assert max_out == 0  # 2's out-neighbors are in the low part

    def test_reports_the_high_parts_max_out_degree(self):
        arcs = [(5, 3), (5, 4), (5, 0), (4, 3), (4, 2), (3, 1), (3, 0)]
        d2 = SubDigraph(set(range(6)), arcs)
        out = color_d2(d2)
        assert isinstance(out, Coloring)
        assert out.high_max_out_degree == split_by_out_degree(d2)[1] == 2

    def test_properness_campaign(self):
        for seed in range(30):
            n = 4 + seed % 8
            d = generate(GenSpec(Family.ANCESTOR_DIGRAPH, n, n + seed % (n + 2), seed))
            t = spanning_out_tree(d, 0)
            t = finalize(d, t)
            cls = level_classes(t, 1)
            for c in cls:
                _, d2, _ = arc_partition(d, t, c)
                out = color_d2(d2)
                if isinstance(out, Coloring):
                    for u, v in d2.arcs:
                        assert out.colors[u] != out.colors[v]
                    assert out.palette_size <= 6
                    assert set(out.colors.values()) <= set(range(6))


class TestColorD3:
    def test_edgeless(self):
        out = color_d3(SubDigraph({0, 1}, []), 1)
        assert out == Coloring({}) and out.palette_size == 0

    def test_directed_path(self):
        d3 = SubDigraph({0, 1, 2, 3}, [(0, 1), (1, 2), (2, 3)])
        out = color_d3(d3, 1)
        assert isinstance(out, Coloring) and out.palette_size == 2

    def test_high_chromatic_forces_two_block_path(self):
        # complete tournament on 7 vertices: chromatic number 7 > 4*1+2
        arcs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        d3 = SubDigraph(set(range(7)), arcs)
        assert color_d3(d3, 1) == PaletteFailure(6)
        # the theorem behind the bound: a 7-chromatic digraph contains P(3,3)
        d = Digraph(7, arcs)
        paths = naive.recursive_find_two_block_path(d, 3, 3)
        assert paths is not None and naive.two_block_path_fault(d, *paths, 3, 3) is None

    def test_exact_fallback_runs_on_the_touched_vertices(self, monkeypatch):
        # the path 0 -> 1 -> ... -> 9 padded with the isolated vertices
        # 10..19, with DSATUR made to overshoot 4k+2 = 6: the exact search
        # colors the 10 touched vertices, one search node each after the
        # root, so every budget below 11 runs out and every other returns
        from fourblocks import exactcolor

        d3 = SubDigraph(range(20), [(i, i + 1) for i in range(9)])
        monkeypatch.setattr(
            exactcolor, "dsatur", lambda vs, adj: {v: i for i, v in enumerate(sorted(vs))}
        )
        # the search starts at 1, the lowest id of degree 2, and alternates
        want = Coloring({v: (v + 1) % 2 for v in range(10)})
        for budget in range(1, 25):
            if budget < 11:
                with pytest.raises(BudgetExceeded) as got:
                    color_d3(d3, 1, budget)
                assert got.value.nodes == budget + 1
            else:
                assert color_d3(d3, 1, budget) == want

    def test_exact_cross_check_with_naive_chromatic(self):
        for seed in range(25):
            n = 4 + seed % 7
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % n, seed))
            sub = SubDigraph(range(d.n), d.arcs)
            for k in (1, 2):
                out = color_d3(sub, k)
                g = underlying_graph(d)
                chi = naive.chromatic_number(g)
                if chi <= 4 * k + 2:
                    assert isinstance(out, Coloring)
                    assert out.palette_size <= 4 * k + 2
                    assert set(out.colors.values()) <= set(range(4 * k + 2))
                    for u, v in g.edges:
                        assert out.colors[u] != out.colors[v]


class TestPipeline:
    def test_rejects_non_strong(self):
        out_star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        # as many arcs as vertices, but vertex 0 is a sink
        sink_root = Digraph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (2, 3), (3, 1)])
        for d in (out_star, sink_root):
            with pytest.raises(NotStronglyConnected):
                color_strong_digraph(d, 1, 1)

    def test_single_vertex(self):
        # no arcs: the closing self-check reads one empty out-list
        cert = color_strong_digraph(Digraph(1, []), 1, 1)
        assert isinstance(cert, ColoringWithinBound)
        assert cert.coloring.colors == {0: 0}

    def test_digon_instance(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        for k1, k3 in ((1, 1), (2, 1), (2, 2)):
            cert = color_strong_digraph(d, k1, k3)
            assert isinstance(cert, ColoringWithinBound)
            assert cert.coloring.colors[0] != cert.coloring.colors[1]

    def test_directed_cycle_certificate(self):
        cert = color_strong_digraph(cycle(5), 1, 1)
        assert isinstance(cert, ColoringWithinBound)
        assert cert.bound == 432
        assert cert.coloring.palette_size <= 432
        assert is_proper(underlying_graph(cycle(5)), cert.coloring)

    def test_bound_formula_k2(self):
        cert = color_strong_digraph(cycle(7), 2, 1)
        assert isinstance(cert, ColoringWithinBound)
        assert cert.bound == 36 * 4 * 10  # 2k = 4 classes, 4k+2 = 10

    def test_planted_instance_yields_subdivision(self):
        spec = GenSpec(
            Family.PLANTED_SUBDIVISION, 12, 18, 7, CyclePattern((2, 1, 2, 1))
        )
        d = generate(spec)
        cert = color_strong_digraph(d, 2, 2)
        if isinstance(cert, SubdivisionFound):
            assert verify_subdivision(d, cert.witness, cert.pattern).ok
        else:
            assert isinstance(cert, ColoringWithinBound)
            assert is_proper(underlying_graph(d), cert.coloring)

    def test_per_class_reports(self):
        for seed in range(20):
            n = 5 + seed % 6
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % n, seed))
            if find_cycle_subdivision(d, CyclePattern((1, 1, 1, 1))) is not None:
                continue
            cert = color_strong_digraph(d, 1, 1)
            assert isinstance(cert, ColoringWithinBound)
            assert is_proper(underlying_graph(d), cert.coloring)
            total = 0
            for rep in cert.per_class:
                assert rep.d1_colors <= 6
                assert rep.d2_colors <= 6
                assert rep.b2_max_out_degree <= 3
                assert rep.d3_colors <= 6
                assert rep.combined_colors <= 36 * 6
                total += rep.combined_colors
            assert cert.coloring.palette_size == total

    def test_one_renumbering_matches_the_per_class_product(self):
        # The pipeline keys each vertex by (class, c1, c2, c3) and renumbers
        # once. Within a class the product id is a bijection of the triple,
        # so the product per class, then a renumbering of (class, id), gives
        # the same colors; rebuild that from the public stage functions.
        # Each group's coloring is total on its touched vertices, and the
        # product keys a vertex outside a part's host as it keys color 0;
        # the one-color part on the class brings in the vertices on no arc.
        for k in (1, 2, 3):
            for seed in range(12):
                n = 8 + 3 * seed
                d = generate(GenSpec(Family.RANDOM_STRONG, n, n + n // 4, 100 * k + seed))
                cert = color_strong_digraph(d, k, k)
                assert isinstance(cert, ColoringWithinBound)
                t = finalize(d, depth_first_out_tree(d, 0))
                keys, palettes = {}, []
                for i, cls in enumerate(level_classes(t, k), start=1):
                    d1, d2, d3 = arc_partition(d, t, cls)
                    r1, r2, r3 = color_d1(d1, t), color_d2(d2), color_d3(d3, k)
                    for sub, r in ((d1, r1), (d2, r2), (d3, r3)):
                        assert r.colors.keys() == sub.touched
                    c123 = product_coloring(
                        (Coloring(dict.fromkeys(cls, 0)), cls),
                        (r1, d1.touched), (r2, d2.touched), (r3, d3.touched),
                    )
                    palettes.append(c123.palette_size)
                    keys.update((v, (i, c)) for v, c in c123.colors.items())
                assert len(palettes) > 1
                assert cert.coloring == Coloring(keys).normalized()
                assert [r.combined_colors for r in cert.per_class] == palettes

    def test_each_class_is_split_once(self, monkeypatch):
        from fourblocks import decomposition as dec

        split = dec.split_by_out_degree
        seen = []

        def counted(d2):
            seen.append(d2)
            return split(d2)

        monkeypatch.setattr(dec, "split_by_out_degree", counted)
        d = generate(GenSpec(Family.RANDOM_STRONG, 600, 1200, 1))
        cert = color_strong_digraph(d, 1, 1)
        assert isinstance(cert, ColoringWithinBound)
        assert len(seen) == len(cert.per_class) > 1
        assert [r.b2_max_out_degree for r in cert.per_class] == [split(d2)[1] for d2 in seen]

    def test_each_d2_coloring_peels_once(self, monkeypatch):
        from fourblocks import decomposition as dec

        peel = dec._acyclic_peel_order
        seen = []

        def counted(d2, vertices):
            seen.append((d2, vertices))
            return peel(d2, vertices)

        monkeypatch.setattr(dec, "_acyclic_peel_order", counted)
        d = generate(GenSpec(Family.RANDOM_STRONG, 600, 1200, 1))
        t = finalize(d, spanning_out_tree(d, 0))
        classes = level_classes(t, 1)
        assert len(classes) > 1
        for cls in classes:
            _, d2, _ = arc_partition(d, t, cls)
            seen.clear()
            assert isinstance(color_d2(d2), Coloring)
            assert seen == [(d2, d2.touched)]

    # perfbench's tracer times a layer by replacing the module attribute
    # that the pipeline calls; a call through a local alias would leave
    # that layer untimed, so each must be looked up as a module global. The
    # start tree's pass also decides strong connectivity, so the tracer's
    # is_strongly_connected is never called.
    def test_each_layer_is_called_through_its_module_attribute(self, monkeypatch):
        from fourblocks import decomposition as dec

        once = ("spanning_out_tree", "finalize", "level_classes")
        per_class = ("arc_partition", "color_d1", "color_d2", "color_d3")
        fallback = ("find_cycle_subdivision", "verify_subdivision")
        never = ("is_strongly_connected",)
        calls = Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for name in once + per_class + fallback + never:
            monkeypatch.setattr(dec, name, counted(name, getattr(dec, name)))
        d = generate(GenSpec(Family.RANDOM_STRONG, 600, 1200, 1))
        cert = color_strong_digraph(d, 1, 1)
        assert isinstance(cert, ColoringWithinBound)
        classes = len(cert.per_class)
        assert classes > 1
        assert calls == dict.fromkeys(once, 1) | dict.fromkeys(per_class, classes)

        calls.clear()
        k13 = Digraph(13, ((i, j) for i in range(13) for j in range(13) if i != j))
        assert isinstance(color_strong_digraph(k13, 1, 1), SubdivisionFound)
        assert calls["find_cycle_subdivision"] == calls["verify_subdivision"] == 1

    def test_cost_does_not_grow_with_k(self):
        # A 3-cycle has three levels, so k1 = 10**5 and k1 = 2 both give
        # three classes of one vertex; nothing may be sized by 2k.
        tracemalloc.start()
        try:
            cert = color_strong_digraph(cycle(3), 10**5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        small = color_strong_digraph(cycle(3), 2, 1)
        assert isinstance(cert, ColoringWithinBound)
        assert cert.coloring.colors == small.coloring.colors
        assert cert.per_class == small.per_class

    def test_certificate_json_shape(self):
        cert = color_strong_digraph(cycle(4), 1, 1)
        obj = cert.to_json_dict()
        assert obj["outcome"] == "coloring"
        assert obj["bound"] == 432
        assert len(obj["colors"]) == 4

    def test_complete_digraph_triggers_real_stage_failure(self):
        # K13's larger level class induces a complete digraph on 7 vertices,
        # whose d2 group keeps a high-part vertex of out-degree above 3 (and
        # whose degree-5 peel would stall next); the oracle then certifies
        # the outcome
        d = Digraph(13, ((i, j) for i in range(13) for j in range(13) if i != j))
        cert = color_strong_digraph(d, 1, 1)
        assert isinstance(cert, SubdivisionFound)
        assert verify_subdivision(d, cert.witness, CyclePattern((1, 1, 1, 1))).ok

    def test_stage_failure_with_exhausted_oracle_is_inconclusive(self, monkeypatch):
        from fourblocks import decomposition as dec

        def fake_d1(d1, t):
            return WheelCoreFailure(frozenset(d1.vertices))

        def exhausted(d, p, budget=None):
            raise BudgetExceeded(budget or 0)

        monkeypatch.setattr(dec, "color_d1", fake_d1)
        monkeypatch.setattr(dec, "find_cycle_subdivision", exhausted)
        cert = color_strong_digraph(cycle(5), 1, 1)
        assert isinstance(cert, Inconclusive)
        assert cert.stage == "color_d1"
        assert "budget" in cert.reason

    def test_stage_failure_with_empty_oracle_is_flagged(self, monkeypatch):
        from fourblocks import decomposition as dec

        monkeypatch.setattr(
            dec, "color_d2", lambda d2: OutDegreeFailure(0, (1, 2, 3, 4))
        )
        monkeypatch.setattr(
            dec, "find_cycle_subdivision", lambda d, p, budget=None: None
        )
        cert = color_strong_digraph(cycle(5), 1, 1)
        assert isinstance(cert, Inconclusive)
        assert cert.stage == "color_d2"
        assert "unexpected" in cert.reason


class TestStageBoundsFromAnyStart:
    """The stages read only the final tree's finality, ancestry and levels,
    so on a digraph with no (k,1,k,1) subdivision every level class colors
    within 6, 6 and 4k+2 whether ``finalize`` starts from the breadth-first
    or the depth-first tree, even where the two final trees differ. Sparse
    digraphs are mostly free, and about one in ten gives two final trees."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_free_instances_color_within_the_stage_bounds(self, k):
        free = differ = 0
        for seed in range(500):
            n = 8 + seed % 25
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + 1 + seed % 6, seed))
            if find_cycle_subdivision(d, CyclePattern((k, 1, k, 1))) is not None:
                continue
            free += 1
            trees = {finalize(d, t0) for t0 in (spanning_out_tree(d, 0), depth_first_out_tree(d, 0))}
            differ += len(trees) == 2
            for t in trees:
                for cls in level_classes(t, k):
                    d1, d2, d3 = arc_partition(d, t, cls)
                    r1, r2, r3 = color_d1(d1, t), color_d2(d2), color_d3(d3, k)
                    assert isinstance(r1, Coloring) and r1.palette_size <= 6
                    assert isinstance(r2, Coloring) and r2.palette_size <= 6
                    assert isinstance(r3, Coloring) and r3.palette_size <= 4 * k + 2
        assert free >= 100 and differ >= 10


class TestFallbackExits:
    """Every stage failure ends the class loop and reaches the one fallback:
    the whole-digraph search for (k,1,k,1), a witness re-verified against
    (k1,1,k3,1). A 7-cycle with k = 2 has four nonempty level classes; the
    failure is planted in class 2 = {1, 5}."""

    K1, K3, BUDGET = 1, 2, 1234
    SEARCHED = CyclePattern((2, 1, 2, 1))
    TARGET = CyclePattern((1, 1, 2, 1))
    STAGES = ("color_d2", "color_d1", "color_d3")
    FAILURES = {
        "color_d1": (
            lambda sub: WheelCoreFailure(frozenset(sub.vertices)),
            "class 2: degree-5 peel stalled on a core of 2 vertices",
        ),
        "color_d2": (
            lambda sub: OutDegreeFailure(1, (2, 3, 4, 5)),
            "class 2: vertex 1 keeps out-degree 4 in the high part",
        ),
        "color_d3": (
            lambda sub: PaletteFailure(10),
            "class 2: the d3 group needs more than 10 colors",
        ),
    }
    SEARCH_ENDINGS = {
        "budget": "; subdivision search ran out of budget",
        "absent": "; exhaustive search found no subdivision (unexpected)",
    }

    def _run(self, monkeypatch, stage, fail, search):
        """Run the pipeline with ``fail(sub)`` standing in for ``stage`` on
        class 2, and ``search`` for the subdivision search. Returns the
        certificate, the (stage, class) calls in order, the searched
        (pattern, budget) pairs and the verified targets."""
        from fourblocks import decomposition as dec

        calls, searched, verified = [], [], []
        for name in self.STAGES:
            def staged(sub, *args, _name=name, _real=getattr(dec, name)):
                i = min(sub.vertices) + 1
                calls.append((_name, i))
                if _name == stage and i == 2:
                    return fail(sub)
                return _real(sub, *args)

            monkeypatch.setattr(dec, name, staged)

        def search_stub(d, pattern, budget=None):
            searched.append((pattern, budget))
            return search()

        def verify_stub(d, w, pattern):
            verified.append((w, pattern))
            return VerifyResult(True)

        monkeypatch.setattr(dec, "find_cycle_subdivision", search_stub)
        monkeypatch.setattr(dec, "verify_subdivision", verify_stub)
        cert = color_strong_digraph(cycle(7), self.K1, self.K3, self.BUDGET)
        return cert, calls, searched, verified

    def _calls_up_to(self, stage):
        """Class 1's three stages, then class 2's up to the failing one."""
        first = [(s, 1) for s in self.STAGES]
        return first + [(s, 2) for s in self.STAGES[: self.STAGES.index(stage) + 1]]

    @pytest.mark.parametrize("stage", STAGES)
    def test_witness_found(self, monkeypatch, stage):
        witness = object()
        fail, _ = self.FAILURES[stage]
        cert, calls, searched, verified = self._run(
            monkeypatch, stage, fail, lambda: witness
        )
        assert cert == SubdivisionFound(witness, self.TARGET)
        assert calls == self._calls_up_to(stage)
        assert searched == [(self.SEARCHED, self.BUDGET)]
        assert verified == [(witness, self.TARGET)]

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("outcome", ["budget", "absent"])
    def test_no_witness_is_inconclusive(self, monkeypatch, stage, outcome):
        def search():
            if outcome == "budget":
                raise BudgetExceeded(99)
            return None

        fail, reason = self.FAILURES[stage]
        cert, calls, searched, verified = self._run(monkeypatch, stage, fail, search)
        assert cert == Inconclusive(stage, reason + self.SEARCH_ENDINGS[outcome])
        assert calls == self._calls_up_to(stage)
        assert searched == [(self.SEARCHED, self.BUDGET)]
        assert verified == []

    def test_d3_budget_skips_the_search(self, monkeypatch):
        def exhausted(sub):
            raise BudgetExceeded(17)

        cert, calls, searched, verified = self._run(
            monkeypatch, "color_d3", exhausted, lambda: object()
        )
        assert cert == Inconclusive(
            "color_d3", "class 2: search budget exhausted after 17 nodes"
        )
        assert calls == self._calls_up_to("color_d3")
        assert searched == []
        assert verified == []


class TestStageOrder:
    """Each class runs d2, then d1, then d3. The order changes no color and
    no certificate; a class whose d2 fails goes to the fallback without
    building a d1 coloring."""

    @staticmethod
    def _spy(monkeypatch):
        """Record each d1 and d2 call as (stage, class, result type)."""
        from fourblocks import decomposition as dec

        calls = []
        for name in ("color_d1", "color_d2"):
            def call(sub, *args, _name=name, _real=getattr(dec, name)):
                r = _real(sub, *args)
                calls.append((_name, sub.vertices, type(r)))
                return r

            monkeypatch.setattr(dec, name, call)
        return calls

    @staticmethod
    def _found(n, m, seed):
        d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
        cert = color_strong_digraph(d, 1, 1)
        assert isinstance(cert, SubdivisionFound)
        assert verify_subdivision(d, cert.witness, cert.pattern).ok
        return d, cert, level_classes(finalize(d, depth_first_out_tree(d, 0)), 1)[0]

    def test_a_failing_d2_skips_d1(self, monkeypatch):
        calls = self._spy(monkeypatch)
        d, cert, class1 = self._found(30, 300, 1)
        assert calls == [("color_d2", class1, OutDegreeFailure)]

        # the same class colors its d1 group: the old order built it for nothing
        calls.clear()
        assert naive.color_strong_digraph(d, 1, 1) == cert
        assert calls == [
            ("color_d1", class1, Coloring), ("color_d2", class1, OutDegreeFailure)
        ]

    def test_a_d1_stall_after_d2_colors_reaches_the_fallback(self, monkeypatch):
        from fourblocks.decomposition import D2Coloring

        calls = self._spy(monkeypatch)
        _, _, class1 = self._found(17, 204, 1484)
        assert calls == [
            ("color_d2", class1, D2Coloring), ("color_d1", class1, WheelCoreFailure)
        ]

    def test_certificates_match_the_d1_first_reference(self):
        from fourblocks.cli import _stress_instance

        outcomes = Counter()

        def check(d, k1, k3):
            cert = color_strong_digraph(d, k1, k3)
            assert cert == naive.color_strong_digraph(d, k1, k3)
            outcomes[type(cert).__name__] += 1

        blocks = ((1, 1), (2, 2), (1, 1), (2, 1), (1, 1), (1, 2))
        for seed in range(300):
            n = 24 + seed % 17
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n * (8 + seed % 5), seed))
            check(d, *blocks[seed % 6])
        assert outcomes["SubdivisionFound"] >= 75 and outcomes["ColoringWithinBound"] >= 75
        # the members of CI's strong and planted stress campaigns
        for family, k1, k3 in (
            (Family.RANDOM_STRONG, 1, 1),
            (Family.RANDOM_STRONG, 2, 1),
            (Family.RANDOM_STRONG, 3, 3),
            (Family.PLANTED_SUBDIVISION, 2, 1),
        ):
            for seed in range(100):
                check(generate(_stress_instance(family, seed, 24, k1, k3)), k1, k3)
