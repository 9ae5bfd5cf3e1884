import tracemalloc
from itertools import compress, permutations

import pytest

from fourblocks import (
    Coloring,
    Digraph,
    Family,
    GenSpec,
    NotStronglyConnected,
    ParseError,
    Rng,
    UGraph,
    color_strong_digraph,
    format_digraph,
    generate,
    is_proper,
    is_strongly_connected,
    parse_digraph,
    product_coloring,
    underlying_graph,
)
from fourblocks import digraph as digraph_module
from fourblocks.decomposition import greedy_reverse, peel_low_degree
from fourblocks.digraph import strong_components

import naive



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
        assert d.out_neighbors(1) == (0,)

    def test_adjacency_sorted(self):
        d = Digraph(4, [(0, 3), (0, 1), (0, 2)])
        assert d.out_neighbors(0) == (1, 2, 3)
        d = random_digraph(Rng(5), 40, 400)
        for v in range(d.n):
            assert d.out_neighbors(v) == tuple(sorted(w for u, w in d.arcs if u == v))

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
            rev = Digraph(d.n, ((v, u) for u, v in d.arcs))
            assert underlying_graph(d) == underlying_graph(rev)


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

    def test_reading_cost_follows_the_arcs(self):
        """A 10-byte text declaring 10^6 vertices and no arcs is read and
        refused in a few bytes per declared vertex, by the strong
        connectivity check and by the pipeline's start tree alike."""
        tracemalloc.start()
        try:
            strong = is_strongly_connected(parse_digraph("1000000 0\n"))
            with pytest.raises(NotStronglyConnected):
                color_strong_digraph(parse_digraph("1000000 0\n"), 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not strong
        assert peak < 40 * 2**20


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


def all_digraphs(n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        yield Digraph(n, compress(pairs, (mask >> i & 1 for i in range(len(pairs)))))


class TestStrongComponents:
    """``strong_components`` against the generator's former Tarjan, kept in
    ``naive.scc_ids``: the same ids, numbered in completion order."""

    def test_every_digraph_up_to_four_vertices(self):
        count = 0
        for n in range(5):
            for d in all_digraphs(n):
                assert strong_components(d) == naive.scc_ids(d.n, set(d.arcs))
                count += 1
        assert count == 1 + 1 + 4 + 64 + 4096

    @pytest.mark.parametrize("family", [Family.RANDOM_STRONG, Family.ANCESTOR_DIGRAPH])
    def test_generated_digraphs_and_their_halves(self, family):
        for seed in range(30):
            n = 2 + seed * 7 % 60
            d = generate(GenSpec(family, n, n + seed % (2 * n), seed))
            half = Digraph(d.n, list(d.arcs)[: len(d.arcs) // 2])
            for g in (d, half):
                assert strong_components(g) == naive.scc_ids(g.n, set(g.arcs))

    def test_long_cycle_and_path_need_no_recursion(self):
        n = 10**5
        ring, path = cycle(n), Digraph(n, ((i, i + 1) for i in range(n - 1)))
        assert strong_components(ring) == naive.scc_ids(n, set(ring.arcs)) == [0] * n
        # the path's last vertex completes first
        assert strong_components(path) == naive.scc_ids(n, set(path.arcs)) == list(range(n - 1, -1, -1))


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
        out = product_coloring((c1, {0, 1}), (c2, {2, 3, 4}))
        assert set(out.colors) == {0, 1, 2, 3, 4}
        assert out.palette_size <= 6

    def test_identical_single_color(self):
        c = Coloring({0: 0, 1: 0})
        out = product_coloring((c, {0, 1}), (c, {0, 1}))
        assert out.palette_size == 1

    def test_rejects_partial(self):
        with pytest.raises(ValueError, match=r"parts\[1\] .* vertex 2 uncolored"):
            product_coloring((Coloring({0: 0}), {0}), (Coloring({1: 0}), {1, 3, 2}))

    def test_one_pass_equals_two_step_fold(self):
        # The certificate bytes rest on this: on equal hosts, folding three
        # parts at once gives the ids of folding the first two, then the third.
        rng = Rng(1616)
        for _ in range(300):
            n = 1 + rng.randrange(12)
            host = [v for v in range(n) if rng.randrange(4)] or [0]
            a, b, c = (Coloring({v: rng.randrange(4) for v in host}) for _ in range(3))
            once = product_coloring((a, host), (b, host), (c, host))
            twice = product_coloring((product_coloring((a, host), (b, host)), host), (c, host))
            assert once == twice

    def test_proper_on_union_shared_path(self):
        # overlapping hosts along a shared path
        d1 = Digraph(4, [(0, 1), (1, 2)])
        d2 = Digraph(4, [(1, 2), (2, 3)])
        g1, g2 = underlying_graph(d1), underlying_graph(d2)
        c1, c2 = greedy(g1), greedy(g2)
        union = UGraph(4, g1.edges | g2.edges)
        out = product_coloring((c1, range(4)), (c2, range(4)))
        assert is_proper(union, out)


class TestColoring:
    def test_palette_size(self):
        assert Coloring({0: 5, 1: 5, 2: 9}).palette_size == 2

    def test_normalized_contiguous(self):
        c = Coloring({0: 7, 1: 3, 2: 7}).normalized()
        assert c.colors == {0: 0, 1: 1, 2: 0}


def same_parse(text):
    """parse_digraph agrees with the line-parser oracle on text: the same
    digraph, arc order included, or a ParseError with the same line and
    message. Returns the digraph, or None on an error."""
    try:
        want = naive.parse_digraph(text)
    except ParseError as err:
        with pytest.raises(ParseError) as exc:
            parse_digraph(text)
        assert (exc.value.line, exc.value.message) == (err.line, err.message)
        return None
    got = parse_digraph(text)
    assert (got.n, got.arcs, got._out) == (want.n, want.arcs, want._out)
    assert list(got.arcs) == list(want.arcs)
    return got


# Texts the bulk path reads: plain ASCII-digit lines only.
PLAIN = [
    ("3 2\n0 1\n1 2\n", [(0, 1), (1, 2)]),
    ("3 2\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),
    ("3 2\n0\t1\n 1 \t2\t\n", [(0, 1), (1, 2)]),
    ("3 2\n0 1\n1 2", [(0, 1), (1, 2)]),
    ("3 0\n", []),
    ("0 0", []),
    ("3 1\n002 01\n", [(2, 1)]),
]


# (text, line, message) of the ParseError each text raises.
PARSE_ERRORS = [
    ("2 2\n0 1\n0 1\n", 3, "duplicate arc (0,1)"),
    ("2 1\n0 0\n", 2, "loop arc (0,0) not allowed"),
    ("2 1\n0 5\n", 2, "arc (0,5) out of range for n=2"),
    ("2 1\nx y\n", 2, "non-integer arc token in 'x y'"),
    ("2 1\n0 1 2\n", 2, "expected arc 'u v', got '0 1 2'"),
    ("2 1\n0 1\n1 0\n", 3, "more than the declared 1 arcs"),
    ("3 2\n0 1\n", 2, "declared 2 arcs but found 1"),
    ("3 1\n", 1, "declared 1 arcs but found 0"),
    ("0 1\n1 0\n", 2, "arc (1,0) out of range for n=0"),
    ("3 2\r\n0 1\r\n0 1\r\n", 3, "duplicate arc (0,1)"),
    ("3 2\n0\t1\n1\t1", 3, "loop arc (1,1) not allowed"),
    ("3 2\n0 1\n1 2\n\n\n0 2\n", 6, "more than the declared 2 arcs"),
    ("3 3\n0 1\n1 2\n# end\n", 4, "declared 3 arcs but found 2"),
    ("2 1\n-1 0\n", 2, "arc (-1,0) out of range for n=2"),
    ("2 1\n1_0 0\n", 2, "arc (10,0) out of range for n=2"),
    ("2 1\n\u0661 \u0661\n", 2, "loop arc (1,1) not allowed"),
    ("3 1\n0\x0b1\n", 2, "expected arc 'u v', got '0'"),
    ("3 1\n0\x0c1\n", 2, "expected arc 'u v', got '0'"),
    ("3 1\n0\x1c1\n", 2, "expected arc 'u v', got '0'"),
    ("3 1\n0\x851\n", 2, "expected arc 'u v', got '0'"),
    ("3 1\n0\u20281\n", 2, "expected arc 'u v', got '0'"),
    ("x 2\n", 1, "non-integer header token in 'x 2'"),
    ("1 2 3\n", 1, "expected header 'n m', got '1 2 3'"),
    ("-1 0\n", 1, "n and m must be nonnegative"),
    ("", 1, "empty input: missing 'n m' header"),
]


class TestTextFormat:
    def test_round_trip(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert parse_digraph(format_digraph(d)) == d

    def test_comments_and_blanks(self):
        text = "# a digraph\n3 2\n\n0 1\n# middle\n1 2\n"
        assert parse_digraph(text) == Digraph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("text,arcs", PLAIN)
    def test_plain_text_never_reaches_the_line_parser(self, monkeypatch, text, arcs):
        def line_parser(text):
            raise AssertionError("plain text reached the line parser")

        monkeypatch.setattr(digraph_module, "_parse_lines", line_parser)
        d = parse_digraph(text)
        assert d == Digraph(d.n, arcs)

    @pytest.mark.parametrize(
        "text,n,arcs",
        [(text, int(text.split()[0]), arcs) for text, arcs in PLAIN]
        + [
            ("3 2\n0 1\n1 2\n\n\n", 3, [(0, 1), (1, 2)]),
            ("3 2\n0 1\n1 2\n# end\n", 3, [(0, 1), (1, 2)]),
            ("3 1\n+1 0\n", 3, [(1, 0)]),
            ("11 1\n1_0 0\n", 11, [(10, 0)]),
            ("3 1\n\u0661 0\n", 3, [(1, 0)]),
            ("3 1\n0\u30001\n", 3, [(0, 1)]),
        ],
    )
    def test_valid_texts(self, text, n, arcs):
        assert same_parse(text) == Digraph(n, arcs)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            pytest.param(text, line, message, id=f"{text}-{line}")
            for text, line, message in PARSE_ERRORS
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_digraph(text)
        assert (exc.value.line, exc.value.message) == (line, message)
        assert same_parse(text) is None

    def test_overlong_numbers(self):
        # int() refuses a digit string longer than sys.get_int_max_str_digits().
        assert same_parse("3 1\n" + "1" * 5000 + " 0\n") is None
        assert same_parse("3 1\n" + "0" * 30 + "1 0\n") == Digraph(3, [(1, 0)])

    def test_arc_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_digraph("3 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_digraph("")


# Pieces a mutation writes into a digraph text: separators, signs, comment
# starts, a non-ASCII digit and the line breaks only str.splitlines knows.
PIECES = ["", " ", "\t", "\n", "\r", "\r\n", "#", "# c\n", "x", "+", "-", "_",
          "0", "7", "\u0661", "\x0b", "\x85", "\u2028"]


# Whitespace that str.split takes as a separator; the last five also break a
# line for str.splitlines.
SEPARATORS = [" ", "\t", "  ", " \t ", "\u3000", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


class TestParserOracle:
    def test_random_texts(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=400, deadline=None, database=None, derandomize=True)
        @hyp.given(st.text(alphabet="0123456789 \t\r\n#+-_x\u0661", max_size=40))
        def check(text):
            same_parse(text)

        check()

    def test_mutated_digraph_texts(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=600, deadline=None, database=None, derandomize=True)
        @hyp.given(st.data())
        def check(data):
            n = data.draw(st.integers(0, 6))
            top = max(data.draw(st.sampled_from([n - 1, n - 1, n])), 0)
            pair = st.tuples(st.integers(0, top), st.integers(0, top))
            unique = data.draw(st.sampled_from([True, True, False]))
            arcs = data.draw(st.lists(pair, max_size=12, unique=unique))
            m = len(arcs) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
            sep = data.draw(st.sampled_from(SEPARATORS))
            eol = data.draw(st.sampled_from(["\n", "\r\n"]))
            end = data.draw(st.sampled_from(["", eol, eol + eol]))
            text = eol.join([f"{n}{sep}{m}"] + [f"{u}{sep}{v}" for u, v in arcs]) + end
            for _ in range(data.draw(st.integers(0, 2))):
                i = data.draw(st.integers(0, len(text)))
                j = data.draw(st.integers(i, min(i + 1, len(text))))
                text = text[:i] + data.draw(st.sampled_from(PIECES)) + text[j:]
            same_parse(text)

        check()
