"""Property tests on small random inputs.

networkx is an independent oracle for strong connectivity, as both
``is_strongly_connected`` and the depth-first start tree decide it, and for
the core that the degree peel leaves, ``underlying_graph`` for ``neighbor_sets``,
and ``naive.check_chord_neighbor_bound`` for the chord check. On random
acyclic arc sets the greedy colors a vertex subset alike in its own peel
order and in a sub-order of a larger one, which lets ``color_d2`` peel once,
and alike on the out-lists and on the undirected adjacency, which lets it
read the out-lists alone.
Mutated certificates and mutated digraph files check the error contracts:
the verifier raises nothing but ValueError, and the command line exits
within 0-5 without a traceback.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, compress

import pytest

from fourblocks import (
    CyclePattern,
    Digraph,
    Family,
    HamiltonianCycle,
    NotStronglyConnected,
    check_chord_neighbor_bound,
    color_hamiltonian,
    color_strong_digraph,
    depth_first_out_tree,
    find_cycle_subdivision,
    format_digraph,
    is_strongly_connected,
    underlying_graph,
    verify_certificate,
    witness_to_json,
)
from fourblocks.cli import main
from fourblocks.decomposition import (
    _acyclic_peel_order,
    greedy_reverse,
    peel_low_degree,
)

import naive

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = dict(deadline=None, database=None, derandomize=True)


@st.composite
def digraphs(draw, max_n=11):
    """A digraph on 1..max_n vertices with up to 4n distinct arcs."""
    n = draw(st.integers(1, max_n))
    if n == 1:
        return Digraph(1, [])
    shifts = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    arcs = draw(st.lists(shifts, max_size=4 * n, unique=True))
    return Digraph(n, ((u, (u + s) % n) for u, s in arcs))


def nx_digraph(nx, d):
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs)
    return g


class TestNetworkxOracle:
    def test_strong_connectivity(self):
        nx = pytest.importorskip("networkx")

        @hyp.settings(max_examples=150, **SETTINGS)
        @hyp.given(digraphs())
        def check(d):
            strong = nx.is_strongly_connected(nx_digraph(nx, d))
            assert is_strongly_connected(d) == strong
            if strong:
                assert depth_first_out_tree(d, 0) == naive.depth_first_out_tree(d, 0)
            else:
                with pytest.raises(NotStronglyConnected):
                    depth_first_out_tree(d, 0)

        check()

    def test_peel_core_is_k_core(self):
        nx = pytest.importorskip("networkx")

        @hyp.settings(max_examples=150, **SETTINGS)
        @hyp.given(digraphs(), st.integers(0, 5))
        def check(d, t):
            _, core = peel_low_degree(range(d.n), d.neighbor_sets(), t)
            undirected = nx_digraph(nx, d).to_undirected()
            assert set(core) == set(nx.k_core(undirected, t + 1))

        check()


def test_neighbor_sets_match_the_underlying_graph():
    """The two undirected views agree: the stall and chord checks read
    ``neighbor_sets``, the benchmark gate reads ``underlying_graph``."""

    @hyp.settings(max_examples=150, **SETTINGS)
    @hyp.given(digraphs())
    def check(d):
        g = underlying_graph(d)
        adj = d.neighbor_sets()
        assert all(adj[v] == set(g.neighbors(v)) for v in range(d.n))

    check()


@st.composite
def chorded_cycles(draw):
    """A directed cycle through a drawn order of 3..40 vertices, some of
    its arcs also reversed, up to 3n drawn chords, and k in 1..n, so that
    2k > n and zones past position n-1 both occur."""
    n = draw(st.integers(3, 40))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    back = draw(st.lists(st.integers(0, n - 1), max_size=n))
    arcs |= {(order[(i + 1) % n], order[i]) for i in back}
    shifts = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    arcs |= {(u, (u + s) % n) for u, s in draw(st.lists(shifts, max_size=3 * n))}
    k = draw(st.integers(1, n))
    return Digraph(n, arcs), HamiltonianCycle(tuple(order)), k


def test_chord_check_matches_the_naive_oracle():
    """The snapshot differences give the rows that fresh zone sets,
    intersected with every gap vertex's neighbors, give."""

    @hyp.settings(max_examples=300, **SETTINGS)
    @hyp.given(chorded_cycles())
    def check(case):
        d, c, k = case
        want = naive.check_chord_neighbor_bound(d, c, k)
        assert check_chord_neighbor_bound(d, c, k) == want

    check()


@st.composite
def acyclic_parts(draw):
    """Out-lists on 1..12 vertices whose arcs all go forward in a drawn
    vertex order, and a vertex subset, each arc and each vertex kept by a
    drawn flag."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(draw(st.permutations(range(n))), 2))
    arcs = compress(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
    subset = compress(range(n), draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    return out, set(subset)


def test_greedy_colors_a_part_alike_in_any_topological_order():
    """``color_d2`` colors each part in the sub-order of one peel of the
    touched vertices: in reverse topological order every colored neighbor
    is an out-neighbor, so the greedy gives each vertex its Grundy number,
    whichever topological order it reads, and reading the out-lists alone
    gives the same colors."""

    @hyp.settings(max_examples=300, **SETTINGS)
    @hyp.given(acyclic_parts())
    def check(case):
        out, subset = case
        und = {v: set(ws) for v, ws in out.items()}
        for u, ws in out.items():
            for w in ws:
                und[w].add(u)
        part = {v for v in subset if und[v]}
        whole = _acyclic_peel_order({v: out[v] for v in out if und[v]})
        own = _acyclic_peel_order({v: [w for w in out[v] if w in part] for v in part})
        sub_order = [v for v in whole if v in part]
        assert greedy_reverse(und, own) == greedy_reverse(und, sub_order)
        assert greedy_reverse(out, sub_order) == greedy_reverse(und, sub_order)

    check()


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(n) if i != j))


def emitted(obj) -> dict:
    """obj as `verify` reads it back from a file."""
    return json.loads(json.dumps(obj))


def certificates():
    """(digraph, certificate) for a pipeline coloring and subdivision, a
    Hamiltonian coloring and stall, and a bare witness."""
    ham = HamiltonianCycle(tuple(range(8)))
    pattern = CyclePattern.from_k(1, 1)
    bare = find_cycle_subdivision(complete(13), pattern)
    return [
        (cycle(5), emitted(color_strong_digraph(cycle(5), 1, 1).to_json_dict())),
        (complete(13), emitted(color_strong_digraph(complete(13), 1, 1).to_json_dict())),
        (cycle(8), emitted(color_hamiltonian(cycle(8), ham, 1, 1).to_json_dict())),
        (complete(8), emitted(color_hamiltonian(complete(8), ham, 1, 1).to_json_dict())),
        (complete(13), emitted(witness_to_json(bare, pattern))),
    ]


CERTIFICATES = certificates()

# JSON values a hand-edited or corrupted certificate may hold.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 14), max_size=4),
    st.just({}),
)


def locations(obj, path=()):
    """Every path into obj: a tuple of dict keys and list indices."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from locations(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from locations(value, path + (i,))


def mutate(data, cert):
    """cert with one value replaced, removed or duplicated."""
    path = data.draw(st.sampled_from(list(locations(cert))))
    if not path:
        return data.draw(JSON_VALUES)
    parent = cert
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "replace", "remove", "duplicate"]))
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "remove":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    return cert


def test_verifier_raises_only_value_error_on_mutated_certificates():
    @hyp.settings(max_examples=300, **SETTINGS)
    @hyp.given(st.sampled_from(CERTIFICATES), st.integers(1, 3), st.data())
    def check(case, count, data):
        d, cert = case
        cert = copy.deepcopy(cert)
        for _ in range(count):
            if not isinstance(cert, (dict, list)):
                break
            cert = mutate(data, cert)
        try:
            verify_certificate(d, cert)
        except ValueError:
            pass

    check()


# Single characters an edit may put into a digraph file.
PIECES = ["", " ", "\n", "\r\n", "#", "-", "x", "0", "1", "2", "7", "9", "١"]


@pytest.fixture(scope="module")
def digraph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "d.dg"


def test_cli_exits_within_contract_on_mutated_digraph_files(digraph_file):
    @hyp.settings(max_examples=60, **SETTINGS)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 8))
        chords = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=3 * n))
        arcs = {(i, (i + 1) % n) for i in range(n)}
        arcs |= {(u, v) for u, v in chords if u != v}
        text = format_digraph(Digraph(n, arcs))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(i + 2, len(text))))
            text = text[:i] + data.draw(st.sampled_from(PIECES)) + text[j:]
        digraph_file.write_text(text)
        k1, k3 = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
        for command in ("color", "color-ham", "find"):
            argv = [command, str(digraph_file), "--k1", str(k1), "--k3", str(k3),
                    "--budget", "300", "--json"]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert 0 <= code <= 5, (argv, text, code)

    check()


def exit_code(argv) -> int:
    """main(argv) with its output swallowed; a traceback fails the test."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def edit_text(data, text):
    """text with one or two short spans replaced by one of PIECES each."""
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(i + 2, len(text))))
        text = text[:i] + data.draw(st.sampled_from(PIECES)) + text[j:]
    return text


def test_verify_exits_within_contract_on_mutated_inputs(digraph_file):
    cert_file = digraph_file.with_name("cert.json")

    @hyp.settings(max_examples=150, **SETTINGS)
    @hyp.given(st.sampled_from(CERTIFICATES),
               st.sampled_from(["none", "values", "json text", "digraph text"]),
               st.data())
    def check(case, edit, data):
        d, cert = case
        cert = copy.deepcopy(cert)
        if edit == "values":
            cert = mutate(data, cert)
        text, cert_text = format_digraph(d), json.dumps(cert)
        if edit == "json text":
            cert_text = edit_text(data, cert_text)
        elif edit == "digraph text":
            text = edit_text(data, text)
        digraph_file.write_text(text)
        cert_file.write_text(cert_text)
        code = exit_code(["verify", str(digraph_file), str(cert_file)])
        assert 0 <= code <= 5, (text, cert_text, code)

    check()


# Block lengths: mostly valid, sometimes 0, which every command refuses.
BLOCKS = st.sampled_from([1, 2, 1, 0])
PATTERNS = st.sampled_from([None, "1,1,1,1", "2,1,1,1", "1 1 2 1", "1,2,1,1", "0,1,1,1",
                            "1,1,1", "a,1,1,1"])


def test_gen_exits_within_contract_on_drawn_arguments(tmp_path):
    @hyp.settings(max_examples=150, **SETTINGS)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(-1, 12))
        m = n + data.draw(st.integers(-2, 2 * abs(n) + 2))
        argv = ["gen", "--family", data.draw(st.sampled_from([f.value for f in Family])),
                f"--n={n}", f"--m={m}",
                f"--seed={data.draw(st.integers(-(2**70), 2**70))}"]
        pattern = data.draw(PATTERNS)
        if pattern is not None:
            argv.append(f"--pattern={pattern}")
        # stdout, a file, or a directory, which cannot be written as a file
        out = data.draw(st.sampled_from([None, tmp_path / "g.dg", tmp_path]))
        if out is not None:
            argv.append(f"--output={out}")
        code = exit_code(argv)
        assert 0 <= code <= 5, (argv, code)

    check()


def test_stress_exits_within_contract_on_drawn_arguments(tmp_path, monkeypatch):
    # a failing campaign member is written to stress_fail_*.dg in the
    # working directory
    monkeypatch.chdir(tmp_path)

    @hyp.settings(max_examples=60, **SETTINGS)
    @hyp.given(st.data())
    def check(data):
        family = data.draw(st.sampled_from(["strong", "hamiltonian", "planted"]))
        argv = ["stress", "--family", family,
                f"--count={data.draw(st.integers(0, 2))}",
                f"--n={data.draw(st.integers(-3, 7))}",
                f"--k1={data.draw(BLOCKS)}", f"--k3={data.draw(BLOCKS)}",
                f"--seed={data.draw(st.integers(-5, 60))}",
                f"--budget={data.draw(st.integers(-1, 400))}"]
        code = exit_code(argv)
        assert 0 <= code <= 5, (argv, code)

    check()


def test_bench_exits_within_contract_on_drawn_arguments():
    @hyp.settings(max_examples=30, **SETTINGS)
    @hyp.given(st.data())
    def check(data):
        argv = ["bench", f"--n={data.draw(st.integers(-2, 10))}",
                f"--count={data.draw(st.integers(-1, 2))}",
                f"--seed={data.draw(st.integers(-5, 60))}",
                f"--k1={data.draw(BLOCKS)}", f"--k3={data.draw(BLOCKS)}",
                f"--budget={data.draw(st.integers(-1, 400))}"]
        code = exit_code(argv)
        assert 0 <= code <= 5, (argv, code)

    check()
