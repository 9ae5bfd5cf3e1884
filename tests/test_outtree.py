import hashlib

import pytest

from fourblocks import (
    Digraph,
    Family,
    GenSpec,
    NotFinalTree,
    OutTree,
    Rng,
    UnreachableVertex,
    arc_partition,
    depth_first_out_tree,
    finalize,
    generate,
    is_ancestor,
    is_final,
    level_classes,
    spanning_out_tree,
)

import naive


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def tt(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def random_tree(rng, n) -> OutTree:
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    level = [1] * n
    for v in range(1, n):
        level[v] = level[parent[v]] + 1
    return OutTree(0, tuple(parent), tuple(level))


class TestSpanningOutTree:
    def test_cycle_gives_path_tree(self):
        t = spanning_out_tree(cycle(5), 0)
        assert t.parent == (None, 0, 1, 2, 3)
        assert t.level == (1, 2, 3, 4, 5)

    def test_out_star(self):
        d = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        t = spanning_out_tree(d, 0)
        assert t.level == (1, 2, 2, 2)

    def test_tournament_source_and_sink(self):
        t = spanning_out_tree(tt(4), 0)
        assert t.root == 0 and t.level[0] == 1
        with pytest.raises(UnreachableVertex):
            spanning_out_tree(tt(4), 3)

    def test_tree_arcs_exist_in_host(self):
        rng = Rng(3)
        for seed in range(20):
            d = generate(GenSpec(Family.RANDOM_STRONG, 5 + seed % 10, 20, seed))
            t = spanning_out_tree(d, 0)
            assert {(p, v) for v, p in enumerate(t.parent) if p is not None} <= d.arcs
            for v in range(d.n):
                if v != t.root:
                    assert t.level[v] == t.level[t.parent[v]] + 1


class TestDepthFirstOutTree:
    def test_matches_recursive_reference(self):
        for seed in range(20):
            d = generate(GenSpec(Family.RANDOM_STRONG, 5 + seed % 10, 20, seed))
            t = depth_first_out_tree(d, 0)
            assert t == naive.depth_first_out_tree(d, 0)
            assert {(p, v) for v, p in enumerate(t.parent) if p is not None} <= d.arcs

    def test_root_errors_match_breadth_first(self):
        with pytest.raises(UnreachableVertex):
            depth_first_out_tree(tt(4), 3)
        for r in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                depth_first_out_tree(tt(4), r)

    def test_long_cycle_gives_path_tree_without_recursion(self):
        n = 100_000
        t = depth_first_out_tree(cycle(n), 0)
        assert t.parent == (None,) + tuple(range(n - 1))
        assert t.level == tuple(range(1, n + 1))


class TestAncestry:
    def test_path_tree(self):
        t = OutTree(0, (None, 0, 1), (1, 2, 3))
        assert is_ancestor(t, 0, 2)
        assert not is_ancestor(t, 2, 0)
        assert is_ancestor(t, 1, 1)

    def test_level_counts_strict_ancestors(self):
        rng = Rng(29)
        t = random_tree(rng, 40)
        for x in range(40):
            strict = sum(
                1 for y in range(40) if y != x and is_ancestor(t, y, x)
            )
            assert t.level[x] == 1 + strict


class TestClassify:
    """An arc (x,y) is forward when level(x) < level(y) and backward
    otherwise; only a backward arc must point into x's ancestor chain."""

    def test_tree_arc_forward(self):
        # (1,3) goes forward into another branch, which a final tree allows
        t = OutTree(0, (None, 0, 0, 2), (1, 2, 2, 3))
        assert is_final(Digraph(4, [(0, 1), (0, 2), (2, 3), (1, 3)]), t)

    def test_equal_levels_backward(self):
        # (1,2) joins equal levels across branches, which a final tree forbids
        t = OutTree(0, (None, 0, 0, 2), (1, 2, 2, 3))
        assert not is_final(Digraph(4, [(0, 1), (0, 2), (2, 3), (1, 2)]), t)

    def test_leaf_to_root_backward(self):
        t = OutTree(0, (None, 0), (1, 2))
        assert is_final(Digraph(2, [(0, 1), (1, 0)]), t)


class TestIsFinal:
    def test_cycle_path_tree_final(self):
        d = cycle(6)
        assert is_final(d, spanning_out_tree(d, 0))

    def test_cross_arc_not_final(self):
        d = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        t = OutTree(0, (None, 0, 0), (1, 2, 2))
        assert not is_final(d, t)

    def test_pure_tree_final(self):
        d = Digraph(4, [(0, 1), (1, 2), (1, 3)])
        assert is_final(d, spanning_out_tree(d, 0))

    def test_tree_of_another_vertex_count_is_rejected(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        t = OutTree(0, (None, 0), (1, 2))
        for call in (is_final, finalize, lambda d, t: arc_partition(d, t, {0, 1})):
            with pytest.raises(ValueError, match="tree has 2 vertices but the digraph has 3"):
                call(d, t)

    def test_verdict_is_kept_per_digraph(self):
        t = OutTree(0, (None, 0, 0), (1, 2, 2))
        assert is_final(Digraph(3, [(0, 1), (0, 2)]), t)
        assert not is_final(Digraph(3, [(0, 1), (0, 2), (1, 2)]), t)

    # arc_partition checks finality on the out-arcs of its class alone: a
    # class raises iff one of those arcs offends, so over the level classes,
    # which partition the vertices, some class raises iff the tree is not
    # final. Random trees and BFS trees are mostly not final, finalized
    # trees always are.
    def test_some_level_class_raises_iff_not_final(self):
        rng = Rng(43)
        verdicts = set()
        for seed in range(90):
            n = 4 + seed % 23
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % (2 * n), seed))
            bfs = spanning_out_tree(d, 0)
            for t in (random_tree(rng, n), bfs, finalize(d, bfs)):
                final = is_final(d, t)
                verdicts.add(final)
                for k in (1, 2, 3):
                    raised = False
                    for c in level_classes(t, k):
                        offends = any(
                            t.level[u] >= t.level[v] and not is_ancestor(t, v, u)
                            for u in c
                            for v in d.out_neighbors(u)
                        )
                        try:
                            arc_partition(d, t, c)
                        except NotFinalTree:
                            assert offends
                            raised = True
                        else:
                            assert not offends
                    assert raised == (not final)
        assert verdicts == {True, False}


class TestFinalize:
    def test_identity_on_final_tree(self):
        d = cycle(5)
        t = spanning_out_tree(d, 0)
        assert finalize(d, t) == t

    def test_single_rotation(self):
        d = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        t = OutTree(0, (None, 0, 0), (1, 2, 2))
        out = finalize(d, t)
        assert out.parent == (None, 0, 1)
        assert out.level == (1, 2, 3)

    # A rotation under x may queue a smaller tail, whose offending arcs come
    # before x's next ones. n5: rotating (2,1) queues 1, now the heap top,
    # whose arc (1,4) offends; a loop that stayed on 2 to the end of its arcs
    # would pop 1 instead of 2 and return parent (None, 2, 3, 0, 0). n6:
    # rotating (5,2) queues 2, whose arc (2,4) precedes 5's arc (5,3);
    # rotating (5,3) first would carry 4, then under 3, below 5 and turn
    # (2,4) forward, so parent[4] would stay 3.
    @pytest.mark.parametrize(
        "n, arcs, parent, level",
        [
            (5, [(0, 3), (0, 4), (1, 4), (2, 1), (3, 2), (4, 0), (4, 1)],
             (None, 2, 3, 0, 1), (1, 4, 3, 2, 5)),
            (6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (1, 5),
                 (2, 0), (2, 4), (2, 5), (3, 4), (5, 2), (5, 3)],
             (None, 0, 5, 5, 2, 1), (1, 2, 4, 4, 5, 3)),
        ],
        ids=["n5", "n6"],
    )
    def test_leaves_a_tail_once_a_smaller_one_is_queued(self, n, arcs, parent, level):
        d = Digraph(n, arcs)
        t0 = spanning_out_tree(d, 0)
        t1 = finalize(d, t0)
        assert (t1.parent, t1.level) == (parent, level)
        assert t1 == naive.finalize(d, t0)

    # A moved vertex that is already queued may hold a cursor past an arc
    # that the rotation made offend, so its cursor goes back to its first
    # arc. Keeping that cursor here skips (6,1) and returns parent[1] == 2,
    # level[1] == 6, a tree that (6,1) still keeps from being final.
    def test_resets_the_cursor_of_a_queued_moved_vertex(self):
        d = Digraph(9, [(0, 1), (0, 3), (0, 5), (0, 7), (0, 8), (1, 6), (2, 1),
                        (2, 5), (3, 7), (4, 0), (4, 2), (4, 6), (5, 2), (5, 4),
                        (6, 1), (6, 5), (7, 3), (7, 8), (8, 2)])
        t0 = spanning_out_tree(d, 0)
        t1 = finalize(d, t0)
        assert t1.parent == (None, 6, 8, 0, 5, 2, 4, 3, 7)
        assert t1.level == (1, 9, 5, 2, 7, 6, 8, 3, 4)
        assert t1 == naive.finalize(d, t0)

    def test_property_campaign(self):
        for seed in range(120):
            n = 4 + seed % 27
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % (2 * n), seed))
            for t0 in (spanning_out_tree(d, 0), depth_first_out_tree(d, 0)):
                t1 = finalize(d, t0)
                assert is_final(d, t1)
                assert t1.root == t0.root
                assert {(p, v) for v, p in enumerate(t1.parent) if p is not None} <= d.arcs
                assert all(a >= b for a, b in zip(t1.level, t0.level))
                # in-degree at most 1 and spanning hold by construction
                assert sum(1 for p in t1.parent if p is None) == 1
                # no arc joins equal levels once final
                assert all(t1.level[u] != t1.level[v] for u, v in d.arcs)

    # SHA-256 of repr((parent, level)), as the earlier arc-heap finalize gave
    # them; the rescan oracle in tests/naive.py is too slow at these sizes.
    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (2000, 20000, 1, "7400c2ec9eaaa02d26ed7eb38b56dc46b378e5d491f8d3425c43d14275ef838a"),
            (5000, 10000, 1, "69ba9cf5462a48c8de78919a371302cbbbbb1cb32c9c652ec7669423a9e88101"),
        ],
        ids=["n2000-m20000", "n5000-m10000"],
    )
    def test_pinned_at_scale(self, n, m, seed, digest):
        d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
        t = finalize(d, spanning_out_tree(d, 0))
        assert hashlib.sha256(repr((t.parent, t.level)).encode()).hexdigest() == digest

    # The shape of the sparse-color benchmark workload (n=600, m=2n). A kept
    # cursor on a queued moved vertex changes the tree at seed 37.
    def test_pinned_at_sparse_color_shape(self):
        trees = []
        for seed in range(1, 41):
            d = generate(GenSpec(Family.RANDOM_STRONG, 600, 1200, seed))
            t = finalize(d, spanning_out_tree(d, 0))
            trees.append((t.parent, t.level))
        digest = hashlib.sha256(repr(trees).encode()).hexdigest()
        assert digest == "f8de09e4300397de14b36649f3213380d5030294faf75a9a84abb818a1b4b977"

    # The same shape from the depth-first start, which the pipeline uses.
    def test_pinned_at_sparse_color_shape_from_depth_first_start(self):
        trees = []
        for seed in range(1, 41):
            d = generate(GenSpec(Family.RANDOM_STRONG, 600, 1200, seed))
            t = finalize(d, depth_first_out_tree(d, 0))
            trees.append((t.parent, t.level))
        digest = hashlib.sha256(repr(trees).encode()).hexdigest()
        assert digest == "44aa08cba862f792080dff75ecf8fb28ceabbe2f15c59a7c1fb786165837c271"
