"""Seeded campaign: the worklist, heap and snapshot versions return exactly
what the plain rescanning loops in ``naive`` return, and the pruned
subdivision kernel decides what the unpruned one decides.

Each family is a list of (digraph, root) pairs; the root reaches every
vertex. The campaign compares whole outputs (trees, orders, cores, color
maps), not just their validity, and checks that it met stalled peels,
NotAcyclic cases and full orders alike.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest

from fourblocks import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ChordViolation,
    Coloring,
    Digraph,
    Family,
    GenSpec,
    HamiltonianCycle,
    OutTree,
    Rng,
    check_chord_neighbor_bound,
    depth_first_out_tree,
    finalize,
    find_hamiltonian_cycle,
    generate,
    is_strongly_connected,
)
from fourblocks import decomposition
from fourblocks.decomposition import (
    SubDigraph,
    _acyclic_peel_order,
    arc_partition,
    level_classes,
    peel_low_degree,
)
from fourblocks.errors import NotAcyclic
from fourblocks.exactcolor import color_within, dsatur
from fourblocks import _subdiv_py

import naive
from naive import spanning_out_tree


def sparse(seed):
    n = 20 + 13 * seed
    return generate(GenSpec(Family.RANDOM_STRONG, n, 2 * n, seed)), 0


def dense(seed):
    n = 12 + 4 * seed
    return generate(GenSpec(Family.RANDOM_STRONG, n, 10 * n, seed)), 0


def tournament(seed):
    """Random tournament rooted at a vertex of maximum out-degree, which
    reaches every vertex within two steps."""
    rng = Rng(1000 + seed)
    n = 6 + 3 * seed
    arcs = [
        (i, j) if rng.randrange(2) else (j, i)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    d = Digraph(n, arcs)
    root = max(range(d.n), key=lambda v: (d.out_degree(v), -v))
    return d, root


def long_cycle(seed):
    """Directed cycle of n >= 1500 plus a few chords: BFS trees are deep."""
    rng = Rng(2000 + seed)
    n = 1500 + 250 * seed
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < n + 8:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs), 0


FAMILIES = {
    "sparse": [sparse(s) for s in range(10)],
    "dense": [dense(s) for s in range(8)],
    "tournament": [tournament(s) for s in range(8)]
    + [(generate(GenSpec(Family.TRANSITIVE_TOURNAMENT, 12)), 0)],
    "long-cycle": [long_cycle(s) for s in range(2)],
}


def near_hamiltonian(seed):
    """Directed cycle of n=200 plus ten forward shortcuts of length 2..21:
    the BFS tree takes the shortcuts, and its final tree is almost a path."""
    rng = Rng(3000 + seed)
    n = 200
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < n + 10:
        u = rng.randrange(n)
        arcs.add((u, (u + 2 + rng.randrange(20)) % n))
    return Digraph(n, arcs), 0


# Benchmark-shaped digraphs, whose final trees are nearly paths, so most
# rotations move long subtrees: m=10n with n=60..150, and m=2n with n=300.
FINALIZE_FAMILIES = {
    **FAMILIES,
    "bench-dense": [
        (generate(GenSpec(Family.RANDOM_STRONG, n, 10 * n, n)), 0)
        for n in range(60, 151, 15)
    ],
    "bench-sparse": [
        (generate(GenSpec(Family.RANDOM_STRONG, 300, 600, s)), 0) for s in range(4)
    ],
    "near-hamiltonian": [near_hamiltonian(s) for s in range(2)],
}


def random_tree(rng, n, root) -> OutTree:
    """A uniformly shaped spanning tree unrelated to the digraph's arcs."""
    others = [v for v in range(n) if v != root]
    rng.shuffle(others)
    placed = [root]
    parent = [None] * n
    level = [0] * n
    level[root] = 1
    for v in others:
        p = placed[rng.randrange(len(placed))]
        parent[v] = p
        level[v] = level[p] + 1
        placed.append(v)
    return OutTree(root, tuple(parent), tuple(level))


def both_peels(sub, vertices):
    """(outcome, order) of the heap peel and of the reference peel."""
    results = []
    for peel, d2 in (
        (_acyclic_peel_order, sub),
        (naive.acyclic_peel_order, naive.SubDigraph(sub.vertices, sub.arcs)),
    ):
        try:
            results.append(("order", peel(d2, vertices)))
        except NotAcyclic:
            results.append(("NotAcyclic", None))
    return results


@pytest.mark.parametrize("family", sorted(FINALIZE_FAMILIES))
def test_finalize_matches_rescan(family):
    rng = Rng(7)
    rotated = 0
    for d, root in FINALIZE_FAMILIES[family]:
        starts = [spanning_out_tree(d, root)]
        if d.n <= 200:
            starts.append(random_tree(rng, d.n, root))
        # the package's pass refuses a non-strong digraph; the recursive
        # reference builds the same depth-first tree
        dfs = depth_first_out_tree if is_strongly_connected(d) else naive.depth_first_out_tree
        starts.append(dfs(d, root))
        for t0 in starts:
            t1 = finalize(d, t0)
            assert t1 == naive.finalize(d, t0)
            rotated += t1 != t0
            if family == "near-hamiltonian" and t0 is starts[0]:
                assert max(t1.level) >= 0.8 * d.n
    assert rotated > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_degree_peels_match(family):
    seen = Counter()
    for d, _ in FAMILIES[family]:
        vs, adj = range(d.n), d.neighbor_sets()
        # the degeneracy: the most later neighbors in a full peel's order
        later = set(range(d.n))
        degeneracy = 0
        for v in naive.peel_low_degree(vs, adj, d.n)[0]:
            later.discard(v)
            degeneracy = max(degeneracy, len(adj[v] & later))
        for threshold in sorted({0, 2, degeneracy - 1, degeneracy}):
            order, core = peel_low_degree(vs, adj, threshold)
            assert (order, core) == naive.peel_low_degree(vs, adj, threshold)
            assert bool(core) == (threshold < degeneracy)
            seen["stall" if core else "full"] += 1
    assert seen["stall"] and seen["full"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_acyclic_peel_matches(family):
    rng = Rng(11)
    seen = Counter()
    for d, root in FAMILIES[family]:
        whole = SubDigraph(range(d.n), d.arcs)
        forward = SubDigraph(range(d.n), ((u, v) for u, v in d.arcs if u < v))
        cases = [(whole, whole.touched), (forward, forward.touched)]
        if d.n <= 200:
            t = finalize(d, spanning_out_tree(d, root))
            for cls in level_classes(t, 1):
                _, a2, _ = arc_partition(d, t, cls)
                cases.append((a2, a2.touched))
            for _ in range(4):
                subset = [v for v in range(d.n) if rng.randrange(3)]
                cases.append((whole, subset))
        for sub, vertices in cases:
            new, old = both_peels(sub, vertices)
            assert new == old
            seen[new[0]] += 1
    assert seen["order"] and seen["NotAcyclic"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dsatur_matches(family):
    rng = Rng(13)
    for d, _ in FAMILIES[family]:
        adj = d.neighbor_sets()
        subsets = [range(d.n)]
        if d.n <= 200:
            subsets += [[v for v in range(d.n) if rng.randrange(2)] for _ in range(3)]
        for vs in subsets:
            assert dsatur(vs, adj) == naive.dsatur(vs, adj)


def test_isolated_vertices_come_last_in_the_exact_coloring():
    """Why color_d3 may run its exact coloring on the touched vertices
    alone: the search ranks vertices by (-saturation, -degree, id), so an
    isolated vertex is picked only after every touched one, and then takes
    0 at one node. On random groups padded with isolated vertices, at every
    budget from 1 until both runs return, and at 10**6:

    - where both return a coloring, the whole run gives the touched
      vertices the same colors, picked first and in the same order, and
      every isolated vertex 0; where one proves "no coloring", so does the
      other;
    - where both run out of budget, they charge the same nodes;
    - where only the whole run runs out, the touched run has a coloring,
      and the whole run needs exactly one more node per isolated vertex
      for it; a search that proves "no coloring" needs the same nodes."""
    rng = Rng(23)
    seen = Counter()
    for _ in range(600):
        n = 8 + rng.randrange(14)
        ids = list(range(n))
        rng.shuffle(ids)
        group = ids[: n - 1 - rng.randrange(4)]
        share = 2 + rng.randrange(4)
        adj = {v: set() for v in range(n)}
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                if rng.randrange(share) == 0:
                    adj[u].add(v)
                    adj[v].add(u)
        touched = [v for v in range(n) if adj[v]]
        isolated = [v for v in range(n) if not adj[v]]
        q = 2 + rng.randrange(4)
        first_return = {}  # run -> (least budget it returns at, its result)
        budget = 0
        while budget < 10**6:
            budget = budget + 1 if len(first_return) < 2 else 10**6
            part = stage_outcome(color_within, touched, adj, q, budget)
            whole = stage_outcome(color_within, range(n), adj, q, budget)
            if isinstance(part, tuple):
                assert whole == part == ("BudgetExceeded", budget + 1)
                seen["both run out"] += 1
            elif isinstance(whole, tuple):
                assert part is not None
                seen["only the whole run runs out"] += 1
            elif part is None:
                assert whole is None
                seen["no coloring"] += 1
            else:
                assert whole == part | dict.fromkeys(isolated, 0)
                assert list(whole)[: len(part)] == list(part)
                seen["coloring"] += 1
            for run, result in (("part", part), ("whole", whole)):
                if not isinstance(result, tuple):
                    first_return.setdefault(run, (budget, result))
        (part_nodes, part), (whole_nodes, _) = first_return["part"], first_return["whole"]
        assert whole_nodes == part_nodes + (len(isolated) if part is not None else 0)
    assert min(seen.values()) > 100 and len(seen) == 4


def stage_outcome(stage, *args):
    """The stage's return value, or the exception it raised with the field
    that locates it."""
    try:
        return stage(*args)
    except NotAcyclic:
        return "NotAcyclic"
    except BudgetExceeded as exc:
        return ("BudgetExceeded", exc.nodes)


def path_tree(n) -> OutTree:
    return OutTree(0, (None,) + tuple(range(n - 1)), tuple(range(1, n + 1)))


def stage_cases(d, root, rng):
    """(stage, tree, vertices, arcs, k, d3 budget) for each arc group of each
    level class (k = 1, 2), and each again padded with isolated vertices of
    other classes. Small digraphs add whole-digraph groups, on which d1 can
    stall, d2 meets cycles and high out-degrees, and d3 runs its exact
    fallback under tight budgets."""
    cases = []
    t = finalize(d, spanning_out_tree(d, root))
    for k in (1, 2):
        for cls in level_classes(t, k):
            if not cls:
                continue
            d1, d2, d3 = arc_partition(d, t, cls)
            pad = [v for v in range(d.n) if v not in cls and rng.randrange(2)]
            for vertices in (cls, cls | set(pad)):
                cases.append(("d1", t, vertices, d1.arcs, k, None))
                cases.append(("d2", t, vertices, d2.arcs, k, None))
                cases.append(("d3", t, vertices, d3.arcs, k, DEFAULT_BUDGET))
    if d.n <= 60:
        padded = range(d.n + 3)
        forward = [(u, v) for u, v in d.arcs if u < v]
        for vertices in (range(d.n), padded):
            cases.append(("d1", path_tree(d.n + 3), vertices, forward, 1, None))
            cases.append(("d2", None, vertices, d.arcs, 1, None))
            cases.append(("d2", None, vertices, forward, 1, None))
            for budget in (1, 15, 400, DEFAULT_BUDGET):
                cases.append(("d3", None, vertices, d.arcs, 1, budget))
    return cases


def run_stage(module, case):
    """Run the case on ``module``'s SubDigraph and stages: the package's
    ``decomposition`` or the all-vertex copies in ``naive``."""
    name, t, vertices, arcs, k, budget = case
    sub = module.SubDigraph(vertices, arcs)
    if name == "d1":
        return stage_outcome(module.color_d1, sub, t)
    if name == "d2":
        return stage_outcome(module.color_d2, sub)
    return stage_outcome(module.color_d3, sub, k, budget)


def outcome_kind(outcome) -> str:
    if isinstance(outcome, tuple):
        return outcome[0]
    return outcome if isinstance(outcome, str) else type(outcome).__name__


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stages_match_the_all_vertex_stages(family):
    """The same failures (d1 core, d2 vertex and out-neighbors, NotAcyclic,
    d3 palette bound, BudgetExceeded node count) as stages that peel every
    class vertex, and the same colorings on the touched vertices (type,
    colors, d2's high max out-degree): the package's stages color exactly
    the vertices on an arc, and the all-vertex stages give every other
    vertex 0. Where only the all-vertex d3 runs out of budget, which it can
    do in the isolated vertices it colors last, the package's d3 colors.

    Every d3 group that the exact coloring rejects must contain
    P(2k+1, 2k+1): a digraph of chromatic number a+b+1 contains P(a,b)."""
    rng = Rng(19)
    seen = set()
    for d, root in FAMILIES[family]:
        for case in stage_cases(d, root, rng):
            new = run_stage(decomposition, case)
            old = run_stage(naive, case)
            seen.add((case[0], outcome_kind(new)))
            if not isinstance(new, Coloring):
                assert type(new) is type(old)
                assert new == old
                if isinstance(new, decomposition.PaletteFailure):
                    _, _, vertices, arcs, k, _ = case
                    assert new.bound == 4 * k + 2
                    host, a = Digraph(max(vertices) + 1, arcs), 2 * k + 1
                    paths = naive.recursive_find_two_block_path(host, a, a)
                    assert paths is not None
                    assert naive.two_block_path_fault(host, *paths, a, a) is None
                continue
            touched = frozenset(chain.from_iterable(case[3]))
            assert new.colors.keys() == touched
            if isinstance(old, tuple):
                assert case[0] == "d3" and old[0] == "BudgetExceeded"
                assert new.palette_size <= 4 * case[4] + 2
                assert all(new.colors[u] != new.colors[v] for u, v in case[3])
                continue
            assert old.colors == dict.fromkeys(case[2], 0) | new.colors
            assert replace(new, colors=old.colors) == old
    assert {("d1", "Coloring"), ("d2", "D2Coloring"), ("d3", "Coloring")} <= seen
    if family in ("dense", "tournament"):
        assert {
            ("d1", "WheelCoreFailure"),
            ("d2", "NotAcyclic"),
            ("d2", "OutDegreeFailure"),
            ("d3", "BudgetExceeded"),
            ("d3", "PaletteFailure"),
        } <= seen


def test_hamiltonian_search_matches_recursion():
    """Same cycle, same node count at the budget cut, on small instances."""
    seen = Counter()
    for seed in range(40):
        n = 4 + seed % 7
        if seed % 3 == 0:
            d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, n, 2 * n, seed))
        else:
            d = generate(GenSpec(Family.RANDOM_STRONG, n, n + seed % n, seed))
        for budget in (1, 3, 7, 20, 10**6):
            try:
                want = naive.find_hamiltonian_cycle(d, budget)
            except BudgetExceeded as exc:
                with pytest.raises(BudgetExceeded) as got:
                    find_hamiltonian_cycle(d, budget)
                assert got.value.nodes == exc.nodes
                seen["budget"] += 1
                continue
            got = find_hamiltonian_cycle(d, budget)
            assert (got.order if got is not None else None) == want
            seen["none" if want is None else "cycle"] += 1
    assert seen["budget"] and seen["none"] and seen["cycle"]


def test_hamiltonian_search_on_a_long_cycle():
    n = 3000
    d = Digraph(n, ((i, (i + 1) % n) for i in range(n)))
    assert find_hamiltonian_cycle(d).order == tuple(range(n))
    with pytest.raises(BudgetExceeded) as exc:
        find_hamiltonian_cycle(d, budget=n - 1)
    assert exc.value.nodes == n


def chorded_cycle(rng, n, m, reverse_share=0):
    """A directed cycle through a shuffled vertex order, with about one in
    ``reverse_share`` cycle arcs also reversed (L = n-1), plus random
    chords up to m arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    if reverse_share:
        arcs |= {(y, x) for x, y in list(arcs) if rng.randrange(reverse_share) == 0}
    while len(arcs) < min(m, n * (n - 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return Digraph(n, arcs), HamiltonianCycle(tuple(order))


def chord_shapes(d, c, k):
    """Which kinds of arc (v,u) the instance exercises for this k."""
    n, pos = c.n, c.positions()
    shapes = set()
    for v, u in d.arcs:
        pv, pu = pos[v], pos[u]
        L = (pu - pv) % n
        if L == n - 1:
            shapes.add("antiparallel")
        elif 1 < L < 2 * k:
            shapes.add("short")
        elif L >= 2 * k:
            if pv + L - k < n:
                shapes.add("zone before n-1")
            if pv + k < n <= pv + L - k:
                shapes.add("zone across n-1")
            if pv + k >= n:
                shapes.add("zone past n-1")
            if pu + 1 < n < pu + n - L:
                shapes.add("gap across n-1")
    return shapes


def one_byte_edges(d, c, k, got):
    """On one-byte counter fields, whether some violating chord's gap holds
    a vertex with zone count exactly 2, the largest dropped count, beside
    a row of count exactly 3, the smallest kept one."""
    n, order, pos = c.n, c.order, c.positions()
    adj = d.neighbor_sets()
    for u, v, _, counts in got.chords:
        if 3 not in counts:
            continue
        L = (pos[u] - pos[v]) % n
        zone = {order[(pos[v] + t) % n] for t in range(k, L - k + 1)}
        gap = (order[(pos[u] + s) % n] for s in range(1, n - L))
        if any(len(adj[w] & zone) == 2 for w in gap):
            return {"count 2 beside a row of count 3"}
    return set()


def test_chord_sweep_matches_set_intersections():
    rng = Rng(17)
    cases = []
    for seed in range(58):
        n = 3 + seed
        for k in (1, 2, 3, 5):
            m = n + rng.randrange(3 * n + 1)
            cases.append((*chorded_cycle(rng, n, m, reverse_share=4), k))
    # the shape of the benchmark's Hamiltonian workload
    cases += [(*chorded_cycle(rng, 400, 3 * 400), 1) for _ in range(2)]
    seen = Counter()
    for d, c, k in cases:
        want = naive.check_chord_neighbor_bound(d, c, k)
        got = check_chord_neighbor_bound(d, c, k)
        assert got == want
        assert all(type(x) is ChordViolation for x in got)
        seen["violations" if got else "none"] += 1
        seen.update(chord_shapes(d, c, k))
        if max(map(len, d.neighbor_sets())) < 128:
            seen.update(one_byte_edges(d, c, k, got))
    assert seen["violations"] and seen["none"]
    assert seen["antiparallel"] and seen["short"]
    assert seen["zone across n-1"] and seen["zone past n-1"] and seen["gap across n-1"]
    # with "zone across n-1" and "zone past n-1": all three snapshot
    # differences the check takes
    assert seen["zone before n-1"]
    assert seen["count 2 beside a row of count 3"]


def test_chord_check_memory_follows_the_chords():
    """On a long cycle with few chords the check keeps counter snapshots
    only where a chord's zone starts or ends: a snapshot at every position
    would hold n bytes per vertex, about 5,000 here."""
    n = 5000
    d, c = chorded_cycle(Rng(5), n, n + 20)
    d.neighbor_sets()
    want = naive.check_chord_neighbor_bound(d, c, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = check_chord_neighbor_bound(d, c, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 250 * n


def hub_cycle(degree, shift, n=420):
    """A directed n-cycle through a shuffled vertex order with one hub of
    undirected degree ``degree``: its two cycle neighbors plus chords to
    the cycle positions 100, 101, ... after it. Five chords (v,u) put the
    hub in their gap and every one of its chord neighbors in their zone
    for k <= 35, and n further random chords avoid the hub. ``shift``
    rotates where the hub sits on the cycle."""
    rng = Rng(degree)
    order = list(range(n))
    rng.shuffle(order)
    at = lambda p: order[(p + shift) % n]
    hub = at(0)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for p in range(100, 100 + degree - 2):
        arcs.add((hub, at(p)) if rng.randrange(2) else (at(p), hub))
    arcs |= {(at(40 + j), at(360 - j)) for j in range(5)}
    while len(arcs) < n + degree + 3 + n:
        p, q = 1 + rng.randrange(n - 1), 1 + rng.randrange(n - 1)
        if p != q:
            arcs.add((at(p), at(q)))
    return Digraph(n, arcs), HamiltonianCycle(tuple(order)), hub


@pytest.mark.parametrize("shift", [0, 200])
@pytest.mark.parametrize("degree", [127, 128, 200])
def test_chord_check_with_wide_counter_fields(degree, shift):
    """The check packs one counter per gap vertex into a field narrow
    enough for the largest degree: one byte up to degree 127, two bytes
    from 128. A hub at that limit, with over 100 neighbors in the zone of
    the chords that pass it, gives the rows of the set intersections."""
    d, c, hub = hub_cycle(degree, shift)
    assert max(map(len, d.neighbor_sets())) == len(d.neighbor_sets()[hub]) == degree
    for k in (1, 2, 5):
        want = naive.check_chord_neighbor_bound(d, c, k)
        assert sum(w == hub and count > 100 for _, _, w, count in want) >= 5
        assert check_chord_neighbor_bound(d, c, k) == want


def kernel_cases():
    """Random digraphs on 4-17 vertices, from a few arcs to dense, and dense
    strong digraphs like the dense-fallback benchmark's."""
    rng = Rng(31)
    cases = []
    for i in range(90):
        n = 4 + i % 14
        arcs = set()
        for _ in range(3 + rng.randrange(3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
        cases.append(Digraph(n, arcs))
    cases += [generate(GenSpec(Family.RANDOM_STRONG, 30, 300, s)) for s in range(3)]
    return cases


KERNEL_CASES = kernel_cases()


@pytest.mark.parametrize(
    "pattern",
    [(1, 1, 1, 1), (2, 1, 2, 1), (2, 1, 1, 1), (1, 2, 3, 1)],
    ids=lambda p: "-".join(map(str, p)),
)
def test_pruned_kernel_decides_what_the_unpruned_one_decides(pattern):
    """Where the unpruned enumeration finishes, the pruned one returns the
    same status and witness in no more nodes; where it ran out of budget,
    the pruned one may decide."""
    seen = Counter()
    for d in KERNEL_CASES:
        indptr, indices = naive.csr(d)
        for budget in (1, 6, 40, 300, 10**6):
            old = naive.search_cycle_subdivision(d.n, indptr, indices, *pattern, budget)
            new = _subdiv_py.search_cycle_subdivision(d.out_lists(), *pattern, budget)
            if old[0] == _subdiv_py.BUDGET:
                seen[("budget ->", new[0])] += 1
                continue
            assert new[:2] == old[:2]
            assert new[2] <= old[2]
            seen[old[0]] += 1
    assert seen[_subdiv_py.FOUND] and seen[_subdiv_py.ABSENT]
    assert seen[("budget ->", _subdiv_py.FOUND)] and seen[("budget ->", _subdiv_py.BUDGET)]


# The explicit-stack searchers against the recursive ones they replaced.
# Budgets of 5 and 40 cut most searches early, many of them mid-path.
STACK_BUDGETS = (1, 5, 40, DEFAULT_BUDGET)


def chorded_cycles():
    """Directed cycles with two or three chords, and the patterns whose
    paths are long on them: each length L holds at most a few junction
    quadruples, so most nodes are vertices entered by a path search."""
    cases = []
    for n in (12, 25, 40, 61):
        h = n // 2
        d = Digraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, h), (1, h + 1)])
        cases += [(d, (h - 3, 1, 1, 1)), (d, (2, 1, 2, 1)), (d, (1, 1, 1, 1))]
    # a 60-cycle with the chords of the 1500-cycle case, scaled down
    d = Digraph(60, [(i, (i + 1) % 60) for i in range(60)] + [(0, 52), (2, 53), (52, 4)])
    cases += [(d, (48, 1, 3, 1)), (d, (3, 1, 3, 1))]
    return cases


STACK_KERNEL_CASES = (
    [(d, p) for d in KERNEL_CASES for p in ((1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 3, 1))]
    + chorded_cycles()
    + [(generate(GenSpec(Family.RANDOM_STRONG, 120, 1200, s)), (1, 1, 1, 1)) for s in range(3)]
)


def test_kernel_matches_the_recursive_kernel():
    """Same (status, payload, nodes) at every budget."""
    seen = Counter()
    for d, pattern in STACK_KERNEL_CASES:
        indptr, indices = naive.csr(d)
        for budget in STACK_BUDGETS:
            want = naive.recursive_search_cycle_subdivision(
                d.n, indptr, indices, *pattern, budget
            )
            got = _subdiv_py.search_cycle_subdivision(d.out_lists(), *pattern, budget)
            assert got == want
            seen[want[0]] += 1
    assert seen[_subdiv_py.FOUND] and seen[_subdiv_py.ABSENT] and seen[_subdiv_py.BUDGET]


def outcome(search, *args):
    """The search's result, or ("budget", nodes) when it runs out; a
    coloring as its (vertex, color) items, in insertion order."""
    try:
        got = search(*args)
    except BudgetExceeded as exc:
        return "budget", exc.nodes
    return list(got.items()) if isinstance(got, dict) else got


def undirected(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def mycielskian(n, edges):
    """Mycielski's construction: one more color needed, still no triangle."""
    shadows = [(n + u, v) for u, v in edges] + [(u, n + v) for u, v in edges]
    return 2 * n + 1, edges + shadows + [(n + i, 2 * n) for i in range(n)]


def uncolorable_cases():
    """(vertices, adj, q) with chromatic number q + 1, so the exact search
    ends in None only after backtracking through every branch, and each
    backtrack lowers saturations: the Grötzsch graph and its Mycielskian,
    odd wheels at q = 3 and K_{q+1}."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    groetzsch = mycielskian(5, c5)
    cases = [(range(11), undirected(*groetzsch), 3)]
    cases.append((range(23), undirected(*mycielskian(*groetzsch)), 4))
    for r in (5, 7, 9):
        rim = [(i, i % r + 1) for i in range(1, r + 1)]
        spokes = [(0, i) for i in range(1, r + 1)]
        cases.append((range(r + 1), undirected(r + 1, rim + spokes), 3))
    for q in range(1, 6):
        clique = [(u, v) for u in range(q + 1) for v in range(u + 1, q + 1)]
        cases.append((range(q + 1), undirected(q + 1, clique), q))
    return cases


def lazy_heap_cases():
    """Graphs from a seeded random search, shrunk edge by edge, on which the
    exact search at q = 3 picks the wrong vertex unless a popped entry with
    a stale saturation is skipped, and unless a backtrack queues a fresh
    entry for the uncolored vertex (first graph) and for a neighbor whose
    saturation falls (second graph)."""
    requeue = [(0, 2), (0, 8), (0, 10), (1, 4), (1, 6), (1, 10), (2, 4), (2, 9), (3, 10),
               (4, 9), (5, 11), (7, 11), (9, 11), (10, 11)]
    fall = [(0, 2), (0, 6), (0, 8), (0, 9), (0, 11), (1, 11), (2, 6), (2, 10), (3, 9),
            (4, 9), (5, 11), (6, 10), (7, 12), (8, 9), (8, 12), (10, 12), (11, 12)]
    return [(range(12), undirected(12, requeue), 3), (range(13), undirected(13, fall), 3)]


def test_uncolorable_cases_end_in_none():
    for vertices, adj, q in uncolorable_cases():
        assert naive.recursive_color_within(vertices, adj, q, DEFAULT_BUDGET) is None
        assert color_within(vertices, adj, q + 1, DEFAULT_BUDGET) is not None


def test_exact_coloring_matches_recursion():
    """Same coloring, None or BudgetExceeded.nodes at every budget, on
    neighbor lists and on dicts keyed by a vertex subset."""
    rng = Rng(73)
    cases = uncolorable_cases() + lazy_heap_cases()
    for i in range(60):
        n = 3 + i % 11
        d = Digraph(n, {(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.randrange(10) < 2 + i % 7})
        adj = d.neighbor_sets()
        cases.append((range(n), adj, 1 + i % 5))
        sub = [v for v in range(n) if rng.randrange(3)]
        cases.append((sub, {v: adj[v] for v in sub}, 2 + i % 3))
    seen = Counter()
    for vertices, adj, q in cases:
        for budget in STACK_BUDGETS:
            want = outcome(naive.recursive_color_within, vertices, adj, q, budget)
            assert outcome(color_within, vertices, adj, q, budget) == want
            seen["none" if want is None else "coloring" if type(want) is list else want[0]] += 1
    assert seen["none"] and seen["budget"] and seen["coloring"]
