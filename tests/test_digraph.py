from itertools import permutations

import pytest

from fourblocks import (
    Coloring,
    Digraph,
    ParseError,
    Rng,
    UGraph,
    format_digraph,
    is_proper,
    is_strongly_connected,
    parse_digraph,
    product_coloring,
    underlying_graph,
)
from fourblocks.decomposition import greedy_reverse, peel_low_degree



def tt(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def neighbor_sets(g):
    return {v: set(g.neighbors(v)) for v in range(g.n)}


def peel(g, threshold):
    return peel_low_degree(range(g.n), neighbor_sets(g), threshold)


def degeneracy(g):
    """The smallest threshold at which the peel empties g."""
    return next(t for t in range(g.n + 1) if not peel(g, t)[1])


def greedy(g):
    """Greedy coloring in reverse order of a full peel of g."""
    order, _ = peel(g, g.n)
    return Coloring(greedy_reverse(neighbor_sets(g), order))


def random_digraph(rng, n, m):
    arcs = set()
    attempts = 0
    while len(arcs) < m and attempts < 50 * (m + 1):
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs)


class TestDigraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 2)])

    def test_digon_allowed(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert d.out_neighbors(0) == (1,)
        assert d.in_neighbors(0) == (1,)

    def test_adjacency_sorted(self):
        d = Digraph(4, [(0, 3), (0, 1), (0, 2)])
        assert d.out_neighbors(0) == (1, 2, 3)

    def test_csr_lists_arcs_in_tail_head_order(self):
        d = random_digraph(Rng(3), 30, 120)
        indptr, indices = d.csr()
        assert len(indptr) == d.n + 1
        tails = [u for u in range(d.n) for _ in range(indptr[u], indptr[u + 1])]
        assert list(zip(tails, indices)) == sorted(d.arcs)

    def test_neighbor_sets_built_once(self):
        d = Digraph(3, [(0, 1), (1, 0), (2, 0)])
        assert d.neighbor_sets() == [{1, 2}, {0}, {0}]
        assert d.neighbor_sets() is d.neighbor_sets()


class TestUnderlyingGraph:
    def test_digon_collapses_to_one_edge(self):
        g = underlying_graph(Digraph(2, [(0, 1), (1, 0)]))
        assert g.edges == frozenset({(0, 1)})

    def test_empty(self):
        assert underlying_graph(Digraph(3, [])).edges == frozenset()

    def test_directed_triangle(self):
        g = underlying_graph(cycle(3))
        assert len(g.edges) == 3

    def test_invariant_under_reversal(self):
        rng = Rng(11)
        for _ in range(50):
            n = 2 + rng.randrange(7)
            d = random_digraph(rng, n, rng.randrange(n * (n - 1) + 1))
            assert underlying_graph(d) == underlying_graph(d.reversed())


class TestStrongConnectivity:
    def test_cycle_is_strong(self):
        assert is_strongly_connected(cycle(5))

    def test_tournament_is_not(self):
        assert not is_strongly_connected(tt(4))

    def test_single_vertex(self):
        assert is_strongly_connected(Digraph(1, []))

    def test_agrees_with_pairwise_reachability(self):
        rng = Rng(23)
        for _ in range(50):
            n = 2 + rng.randrange(6)
            d = random_digraph(rng, n, rng.randrange(2 * n + 1))
            expected = all(
                _reaches(d, u, v) for u in range(n) for v in range(n)
            )
            assert is_strongly_connected(d) == expected


def _reaches(d, u, v):
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in d.out_neighbors(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


class TestIsProper:
    def test_triangle_proper(self):
        g = UGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_proper(g, Coloring({0: 0, 1: 1, 2: 2}))

    def test_triangle_improper(self):
        g = UGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_proper(g, Coloring({0: 0, 1: 1, 2: 1}))

    def test_edgeless_monochromatic(self):
        g = UGraph(3, [])
        assert is_proper(g, Coloring({0: 0, 1: 0, 2: 0}))

    def test_partial_coloring_rejected(self):
        g = UGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            is_proper(g, Coloring({0: 0}))


class TestDegeneracy:
    def test_path_is_1_degenerate(self):
        g = UGraph(5, [(i, i + 1) for i in range(4)])
        assert peel(g, 0)[1] == set(range(5))
        assert peel(g, 1)[1] == set()

    def test_k4(self):
        g = UGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert peel(g, 2)[1] == set(range(4))
        assert peel(g, 3)[1] == set()

    def test_tt6_matches_brute_force(self):
        g = underlying_graph(tt(6))
        best = min(
            max(
                sum(1 for w in g.neighbors(order[i]) if w in set(order[i + 1 :]))
                for i in range(6)
            )
            for order in permutations(range(6))
        )
        assert peel(g, best - 1)[1] and not peel(g, best)[1]
        assert degeneracy(g) == best == 5

    def test_back_degree_bound_and_tightness(self):
        rng = Rng(7)
        for _ in range(30):
            n = 3 + rng.randrange(8)
            d = random_digraph(rng, n, rng.randrange(2 * n + 1))
            g = underlying_graph(d)
            t = degeneracy(g)
            order, _ = peel(g, t)
            later: set[int] = set(order)
            seen_tight = False
            for v in order:
                later.discard(v)
                back = sum(1 for w in g.neighbors(v) if w in later)
                assert back <= t
                seen_tight = seen_tight or back == t
            assert seen_tight


class TestGreedyColor:
    def test_path_two_colors(self):
        g = UGraph(5, [(i, i + 1) for i in range(4)])
        c = greedy(g)
        assert is_proper(g, c) and c.palette_size == 2

    def test_k4_four_colors(self):
        g = UGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        c = greedy(g)
        assert is_proper(g, c) and c.palette_size == 4

    def test_random_graphs_proper_within_bound(self):
        rng = Rng(99)
        for _ in range(40):
            n = 20
            d = random_digraph(rng, n, rng.randrange(3 * n))
            g = underlying_graph(d)
            c = greedy(g)
            assert is_proper(g, c)
            assert c.palette_size <= degeneracy(g) + 1


class TestProductColoring:
    def test_disjoint_sets(self):
        c1 = Coloring({0: 0, 1: 1})
        c2 = Coloring({2: 0, 3: 1, 4: 2})
        out = product_coloring(c1, c2, {0, 1}, {2, 3, 4})
        assert set(out.colors) == {0, 1, 2, 3, 4}
        assert out.palette_size <= 6

    def test_identical_single_color(self):
        c = Coloring({0: 0, 1: 0})
        out = product_coloring(c, c, {0, 1}, {0, 1})
        assert out.palette_size == 1

    def test_rejects_partial(self):
        with pytest.raises(ValueError):
            product_coloring(Coloring({0: 0}), Coloring({1: 0}), {0, 2}, {1})

    def test_proper_on_union_shared_path(self):
        # overlapping hosts along a shared path
        d1 = Digraph(4, [(0, 1), (1, 2)])
        d2 = Digraph(4, [(1, 2), (2, 3)])
        g1, g2 = underlying_graph(d1), underlying_graph(d2)
        c1, c2 = greedy(g1), greedy(g2)
        union = UGraph(4, g1.edges | g2.edges)
        out = product_coloring(c1, c2, range(4), range(4))
        assert is_proper(union, out)


class TestColoring:
    def test_palette_size(self):
        assert Coloring({0: 5, 1: 5, 2: 9}).palette_size == 2

    def test_normalized_contiguous(self):
        c = Coloring({0: 7, 1: 3, 2: 7}).normalized()
        assert c.colors == {0: 0, 1: 1, 2: 0}


class TestTextFormat:
    def test_round_trip(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert parse_digraph(format_digraph(d)) == d

    def test_comments_and_blanks(self):
        text = "# a digraph\n3 2\n\n0 1\n# middle\n1 2\n"
        assert parse_digraph(text) == Digraph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "text,line",
        [
            ("2 2\n0 1\n0 1\n", 3),
            ("2 1\n0 0\n", 2),
            ("2 1\n0 5\n", 2),
            ("2 1\nx y\n", 2),
            ("2 1\n0 1 2\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_digraph(text)
        assert exc.value.line == line

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_digraph("3 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_digraph("")
