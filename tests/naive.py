"""Independent brute-force oracles for cross-checking the searchers.

Everything here is deliberately written from scratch against the witness
definitions, with no shared code or search strategy with the package
kernels: plain enumeration over junction tuples, simple paths and color
assignments.

The last section keeps the plain rescanning loops that the package's
worklist and heap versions replaced (``finalize``, the peels, DSATUR, the
recursive Hamiltonian search and the per-chord set intersections of the
chord neighbor-bound check), and the subdivision kernel's unpruned
junction enumeration, which tries every source x sink quadruple at every
total length L. They apply the same rule by brute force, so the package
versions must return exactly their output; the pruned kernels must also
never take more search nodes than ``search_cycle_subdivision`` here.
``finalize`` here rescans every arc after each rotation and walks the tree
for each ancestor test; the package's version scans each queued tail's arcs
from a cursor and tests ancestry on the start tree's numbering, and must
rotate the same arcs in the same order. ``offending_tails`` scans every arc
and walks its tail's root path; the depth-first start tree's flags, which
``finalize`` queues first, must name exactly these tails.
``depth_first_out_tree`` here recurses once per vertex it takes, over
out-lists it rebuilds from the sorted arcs; the package's version keeps an
explicit stack of out-list iterators and must return the same tree.
``spanning_out_tree`` is the breadth-first start tree, which the pipeline
no longer uses; the ``finalize`` tree pins and campaigns still start from it.
``parse_digraph`` here is the line-by-line parser alone; the package's
version reads plain text in bulk and must return the same digraph and raise
the same ``ParseError`` (line and message) on every text.
``scc_ids`` is the generator's Tarjan as it was, over out-lists it rebuilds
from an arc set; ``digraph.strong_components`` reads the digraph's own
out-lists and must return the same ids, numbered in completion order.
``color_d1``/``color_d2``/``color_d3`` here are the per-class stages as
they were when every class vertex entered each peel and DSATUR. They take
a ``SubDigraph``, a class's vertex set with one group's arcs, which keeps
an out-list and an undirected neighbor set for every vertex; the package's
stages take the group's arc list alone. The reference stages call the
package's degree peel, greedy and DSATUR, which the reference loops above
check, and give 0 to every vertex that no arc of the group touches. The
package's stages color only the touched vertices and must return the same
failures, and the same colors on the touched vertices; only where the
reference d3 runs out of budget among the untouched vertices it colors
last may the package's d3 return a coloring instead. The reference
``color_d2`` keeps its three in-degree peels (the cycle check, then one
per part), each by ``acyclic_peel_order`` here, and greedy-colors on the
undirected neighbor sets, where the package's peels once, colors each part
in a sub-order of that order, and reads the out-lists alone.
``color_strong_digraph`` here is the pipeline with each class running d1,
d2, d3 in that order. The package's runs d2 first, which changes no color,
and must return the same certificate. The one exception: where d1 and d2
both fail in one class and the search finds no witness, the package's
inconclusive names ``color_d2`` and its reason instead of ``color_d1``.
The last section keeps the subdivision kernel's search and the exact
coloring as they were when each recursed once per vertex entered or
colored. The package's versions run each search on an explicit stack, so
long blocks need no recursion, and must return the same results and charge
the same nodes: ``(status, payload, nodes)``, the witness, the coloring, or
``BudgetExceeded.nodes`` at the same budget cut. That section also keeps
the recursive two-block path search, which has no package twin: the stage
tests use it to check that every d3 group the exact coloring rejects
contains P(2k+1, 2k+1), as the theorem behind the d3 bound says it must.
"""

from collections import deque
from itertools import permutations
from typing import Iterable, Optional

from fourblocks import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Coloring,
    Digraph,
    OutDegreeFailure,
    OutTree,
    UGraph,
    WheelCoreFailure,
)
from fourblocks import decomposition, exactcolor
from fourblocks.decomposition import (
    D2Coloring,
    PaletteFailure,
    greedy_reverse,
)
from fourblocks.errors import NotAcyclic, ParseError, UnreachableVertex
from fourblocks._subdiv_py import ABSENT, BUDGET, FOUND


def _simple_dipaths(d: Digraph, start: int, end: int, banned: set):
    """All simple dipaths start..end whose interior avoids banned vertices."""
    path = [start]
    on_path = {start}

    def rec(u):
        for v in d.out_neighbors(u):
            if v == end:
                yield tuple(path) + (v,)
            elif v not in banned and v not in on_path:
                path.append(v)
                on_path.add(v)
                yield from rec(v)
                path.pop()
                on_path.remove(v)

    yield from rec(start)


def has_cycle_subdivision(d: Digraph, blocks) -> bool:
    """Existence of a subdivision of C(*blocks) by full enumeration."""
    k1, k2, k3, k4 = blocks
    for j1, j2, j3, j4 in permutations(range(d.n), 4):
        junctions = {j1, j2, j3, j4}
        for p1 in _simple_dipaths(d, j1, j2, junctions):
            if len(p1) - 1 < k1:
                continue
            used1 = junctions | set(p1[1:-1])
            for p2 in _simple_dipaths(d, j3, j2, used1):
                if len(p2) - 1 < k2:
                    continue
                used2 = used1 | set(p2[1:-1])
                for p3 in _simple_dipaths(d, j3, j4, used2):
                    if len(p3) - 1 < k3:
                        continue
                    used3 = used2 | set(p3[1:-1])
                    for p4 in _simple_dipaths(d, j1, j4, used3):
                        if len(p4) - 1 >= k4:
                            return True
    return False


def _paths_from(d: Digraph, origin: int, banned: set):
    """All simple dipaths leaving origin (including the trivial one)."""
    path = [origin]
    on_path = {origin}

    def rec(u):
        yield tuple(path)
        for v in d.out_neighbors(u):
            if v not in banned and v not in on_path:
                path.append(v)
                on_path.add(v)
                yield from rec(v)
                path.pop()
                on_path.remove(v)

    yield from rec(origin)


def has_two_block_path(d: Digraph, a: int, b: int) -> bool:
    for origin in range(d.n):
        for p1 in _paths_from(d, origin, set()):
            if len(p1) - 1 < a:
                continue
            used = set(p1) - {origin}
            for p2 in _paths_from(d, origin, used):
                if len(p2) - 1 >= b:
                    return True
    return False


def two_block_path_fault(d: Digraph, q1, q2, a: int, b: int) -> Optional[str]:
    """Why (q1, q2) is not a P(a,b) in d, dipaths of lengths >= a and >= b
    from a common origin and vertex-disjoint elsewhere; None when it is."""
    if not q1 or not q2 or q1[0] != q2[0]:
        return "BadOrigin"
    if len(q1) - 1 < a or len(q2) - 1 < b:
        return "TooShort"
    for path in (q1, q2):
        if len(set(path)) != len(path):
            return "NotSimplePath"
        if not all(d.has_arc(u, v) for u, v in zip(path, path[1:])):
            return "MissingArc"
    if set(q1[1:]) & set(q2[1:]):
        return "NotInternallyDisjoint"
    return None


def is_colorable(g: UGraph, q: int) -> bool:
    colors: dict[int, int] = {}

    def rec(v: int, max_used: int) -> bool:
        if v == g.n:
            return True
        taken = {colors[w] for w in g.neighbors(v) if w in colors}
        for c in range(min(max_used + 1, q - 1) + 1):
            if c not in taken:
                colors[v] = c
                if rec(v + 1, max(max_used, c)):
                    return True
                del colors[v]
        return False

    if q <= 0:
        return g.n == 0
    return rec(0, -1)


def chromatic_number(g: UGraph) -> int:
    q = 0
    while not is_colorable(g, q):
        q += 1
    return q


# --- reference loops for the worklist and heap versions -------------------


def finalize(d: Digraph, t: OutTree) -> OutTree:
    """Rescan the arcs in (tail, head) order after every rotation and rotate
    the first backward arc (x,y) whose head is not an ancestor of its tail."""
    parent = list(t.parent)
    level = list(t.level)
    arcs = sorted(d.arcs)

    def ancestor(y: int, x: int) -> bool:
        ly = level[y]
        while level[x] > ly:
            x = parent[x]
        return x == y

    while True:
        rotated = False
        for x, y in arcs:
            if level[x] >= level[y] and not ancestor(y, x):
                parent[y] = x
                children = [[] for _ in range(d.n)]
                for v, p in enumerate(parent):
                    if p is not None:
                        children[p].append(v)
                level[y] = level[x] + 1
                stack = [y]
                while stack:
                    u = stack.pop()
                    for c in children[u]:
                        level[c] = level[u] + 1
                        stack.append(c)
                rotated = True
                break
        if not rotated:
            return OutTree(t.root, tuple(parent), tuple(level))


def offending_tails(d: Digraph, t: OutTree) -> set[int]:
    """Every x with an arc (x,y) where level[y] <= level[x] and y is not an
    ancestor of x, found by walking x's root path for each such arc."""

    def ancestor(y: int, x: Optional[int]) -> bool:
        while x is not None:
            if x == y:
                return True
            x = t.parent[x]
        return False

    return {x for x, y in d.arcs if t.level[y] <= t.level[x] and not ancestor(y, x)}


def depth_first_out_tree(d: Digraph, r: int) -> OutTree:
    """Recursive DFS from r, out-neighbors ascending, each vertex taken on
    first sight; level = depth + 1. Only for trees shallow enough to recurse."""
    out = [[] for _ in range(d.n)]
    for u, v in sorted(d.arcs):
        out[u].append(v)
    parent: list[Optional[int]] = [None] * d.n
    level = [0] * d.n

    def visit(u: int, lu: int) -> None:
        level[u] = lu
        for v in out[u]:
            if not level[v]:
                parent[v] = u
                visit(v, lu + 1)

    visit(r, 1)
    return OutTree(r, tuple(parent), tuple(level))


def spanning_out_tree(d: Digraph, r: int) -> OutTree:
    """Breadth-first spanning out-tree rooted at r; level = BFS depth + 1."""
    if not (0 <= r < d.n):
        raise ValueError(f"root {r} out of range")
    parent: list[Optional[int]] = [None] * d.n
    level = [0] * d.n
    level[r] = 1
    queue = deque([r])
    while queue:
        u = queue.popleft()
        for v in d.out_neighbors(u):
            if v != r and level[v] == 0:
                parent[v] = u
                level[v] = level[u] + 1
                queue.append(v)
    for v in range(d.n):
        if level[v] == 0:
            raise UnreachableVertex(v)
    return OutTree(r, tuple(parent), tuple(level))


def peel_low_degree(vertices, adj, threshold: int):
    deg = {v: len(adj[v]) for v in vertices}
    alive = set(vertices)
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        if deg[v] > threshold:
            break
        alive.discard(v)
        order.append(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
    return order, alive


def acyclic_peel_order(d2, vertices):
    vset = set(vertices)
    indeg = {v: 0 for v in vset}
    for u in vset:
        for w in d2.out_adj[u]:
            if w in vset:
                indeg[w] += 1
    alive = set(vset)
    order = []
    while alive:
        ready = [v for v in alive if indeg[v] == 0]
        if not ready:
            raise NotAcyclic("stuck")
        v = min(ready)
        alive.discard(v)
        order.append(v)
        for w in d2.out_adj[v]:
            if w in alive:
                indeg[w] -= 1
    return order


def dsatur(vertices, adj):
    vs = sorted(vertices)
    vset = set(vs)
    colors = {}
    neighbor_colors = {v: set() for v in vs}
    degree = {v: len(adj[v] & vset) for v in vs}
    for _ in vs:
        v = max(
            (u for u in vs if u not in colors),
            key=lambda u: (len(neighbor_colors[u]), degree[u], -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            if w in vset and w not in colors:
                neighbor_colors[w].add(c)
    return colors


def find_hamiltonian_cycle(d: Digraph, budget: int):
    """Recursive backtracking from vertex 0; returns the cycle order or None,
    raising BudgetExceeded with the node count at the first node past the
    budget."""
    if d.n < 2:
        return None
    used = bytearray(d.n)
    used[0] = 1
    path = [0]
    nodes = 0

    def extend(u: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        if len(path) == d.n:
            return 1 if d.has_arc(u, 0) else 0
        for v in d.out_neighbors(u):
            if not used[v]:
                used[v] = 1
                path.append(v)
                r = extend(v)
                if r != 0:
                    return r
                path.pop()
                used[v] = 0
        return 0

    r = extend(0)
    if r == -1:
        raise BudgetExceeded(nodes)
    return tuple(path) if r == 1 else None


def check_chord_neighbor_bound(d: Digraph, c, k: int) -> list:
    """A fresh zone set per off-cycle arc, intersected with the neighbor set
    of every gap vertex; rows are plain (u, v, w, count) tuples."""
    if k < 1:
        raise ValueError("block parameter k must be positive")
    if not c.is_valid_for(d):
        raise ValueError("cycle is not a Hamiltonian directed cycle of the digraph")
    n = c.n
    pos = c.positions()
    order = c.order
    cycle_edges = {
        frozenset((u, v)) for u, v in zip(order, order[1:] + order[:1])
    }
    und_adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for x, y in d.arcs:
        und_adj[x].add(y)
        und_adj[y].add(x)

    violations = []
    for v, u in sorted(d.arcs):
        if frozenset((u, v)) in cycle_edges:
            continue
        L = (pos[u] - pos[v]) % n
        if L < 2 * k:
            continue
        zone = {order[(pos[v] + t) % n] for t in range(k, L - k + 1)}
        gap = n - L
        for s in range(1, gap):
            w = order[(pos[u] + s) % n]
            count = len(und_adj[w] & zone)
            if count > 2:
                violations.append((u, v, w, count))
    return violations


def csr(d: Digraph) -> tuple[list[int], list[int]]:
    """(indptr, indices), the flat arrays the subdivision oracles here read:
    the out-neighbors of u are indices[indptr[u]:indptr[u+1]], in ascending
    order."""
    indptr = [0]
    indices: list[int] = []
    for vs in d.out_lists():
        indices.extend(vs)
        indptr.append(len(indices))
    return indptr, indices


def search_cycle_subdivision(n, indptr, indices, k1, k2, k3, k4, budget):
    """Returns (status, payload, nodes); payload is (junctions, paths) on FOUND."""
    total_min = k1 + k2 + k3 + k4
    if total_min > n:
        return ABSENT, None, 0

    out_deg = [indptr[v + 1] - indptr[v] for v in range(n)]
    in_deg = [0] * n
    for v in indices:
        in_deg[v] += 1
    sources = [v for v in range(n) if out_deg[v] >= 2]
    sinks = [v for v in range(n) if in_deg[v] >= 2]
    if len(sources) < 2 or len(sinks) < 2:
        return ABSENT, None, 0

    sym = (k1 == k3) and (k2 == k4)
    mins = (k1, k2, k3, k4)
    rem_after = (k2 + k3 + k4, k3 + k4, k4, 0)
    used = bytearray(n)
    paths = ([], [], [], [])
    starts = [0, 0, 0, 0]
    targets = [0, 0, 0, 0]
    nodes = 0

    def extend(p, u, plen, total, L):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        kp = mins[p]
        tgt = targets[p]
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if v == tgt:
                if plen + 1 >= kp and total + 1 + rem_after[p] <= L:
                    paths[p].append(v)
                    if p == 3:
                        return 1
                    r = begin_path(p + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
            elif not used[v]:
                need = kp - (plen + 1)
                if need < 1:
                    need = 1
                if total + 1 + need + rem_after[p] <= L:
                    used[v] = 1
                    paths[p].append(v)
                    r = extend(p, v, plen + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
                    used[v] = 0
        return 0

    def begin_path(p, total, L):
        s = starts[p]
        paths[p].append(s)
        r = extend(p, s, 0, total, L)
        if r == 0:
            paths[p].pop()
        return r

    for extra in range(0, n - total_min + 1):
        L = total_min + extra
        for j1 in sources:
            for j2 in sinks:
                if j2 == j1:
                    continue
                for j3 in sources:
                    if j3 == j1 or j3 == j2 or (sym and j3 < j1):
                        continue
                    for j4 in sinks:
                        if j4 == j1 or j4 == j2 or j4 == j3:
                            continue
                        nodes += 1
                        if nodes > budget:
                            return BUDGET, None, nodes
                        starts[0], targets[0] = j1, j2
                        starts[1], targets[1] = j3, j2
                        starts[2], targets[2] = j3, j4
                        starts[3], targets[3] = j1, j4
                        used[j1] = used[j2] = used[j3] = used[j4] = 1
                        for p in paths:
                            p.clear()
                        r = begin_path(0, 0, L)
                        used[j1] = used[j2] = used[j3] = used[j4] = 0
                        if r == 1:
                            return (
                                FOUND,
                                ((j1, j2, j3, j4), tuple(tuple(p) for p in paths)),
                                nodes,
                            )
                        if r == -1:
                            return BUDGET, None, nodes
    return ABSENT, None, nodes


def parse_digraph(text: str) -> Digraph:
    header: Optional[tuple[int, int]] = None
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(lineno, f"expected header 'n m', got {raw!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer header token in {raw!r}") from None
            if n < 0 or m < 0:
                raise ParseError(lineno, "n and m must be nonnegative")
            header = (n, m)
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected arc 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer arc token in {raw!r}") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"arc ({u},{v}) out of range for n={n}")
        if u == v:
            raise ParseError(lineno, f"loop arc ({u},{u}) not allowed")
        if (u, v) in seen:
            raise ParseError(lineno, f"duplicate arc ({u},{v})")
        seen.add((u, v))
        arcs.append((u, v))
        if len(arcs) > header[1]:
            raise ParseError(lineno, f"more than the declared {header[1]} arcs")
    if header is None:
        raise ParseError(1, "empty input: missing 'n m' header")
    if len(arcs) != header[1]:
        raise ParseError(
            len(text.splitlines()) or 1,
            f"declared {header[1]} arcs but found {len(arcs)}",
        )
    return Digraph(header[0], arcs)


def scc_ids(n: int, arcs: set[tuple[int, int]]) -> list[int]:
    """Tarjan strongly connected component ids, iterative."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    for vs in adj:
        vs.sort()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                pv, _ = work[-1]
                low[pv] = min(low[pv], low[v])
    return comp


# --- per-class stages on every class vertex ---------------------------------


class SubDigraph:
    """Induced subdigraph keeping the host's vertex ids; every vertex gets
    its own out-list and neighbor set."""

    __slots__ = ("vertices", "arcs", "out_adj", "und_adj")

    def __init__(self, vertices, arcs):
        self.vertices = tuple(sorted(vertices))
        self.arcs = frozenset(arcs)
        self.out_adj = out_adj = {v: [] for v in self.vertices}
        self.und_adj = und_adj = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            if u not in out_adj or v not in out_adj:
                raise ValueError(f"arc ({u},{v}) leaves the vertex set")
            out_adj[u].append(v)
            und_adj[u].add(v)
            und_adj[v].add(u)


def color_d1(d1, t):
    """Peel every class vertex at degree <= 5, greedy-color in reverse."""
    level, num = t.level, t.numbering
    for u, v in d1.arcs:
        if not (level[u] < level[v] and num.is_ancestor(u, v)):
            raise ValueError(f"arc ({u},{v}) is not ancestor-increasing")
    order, core = decomposition.peel_low_degree(d1.vertices, d1.und_adj, 5)
    if core:
        return WheelCoreFailure(frozenset(core))
    coloring = Coloring(greedy_reverse(d1.und_adj, order))
    assert coloring.palette_size <= 6
    return coloring


def split_by_out_degree(d2):
    low = frozenset(v for v in d2.vertices if len(d2.out_adj[v]) <= 1)
    high = frozenset(d2.vertices) - low
    max_out = 0
    worst = None
    for v in sorted(high):
        outs = [w for w in d2.out_adj[v] if w in high]
        if len(outs) > max_out:
            max_out = len(outs)
            worst = (v, tuple(sorted(outs)))
    return low, high, max_out, worst


def color_d2(d2):
    """The in-degree-0 peels and the two greedies over every class vertex."""
    acyclic_peel_order(d2, d2.vertices)
    low, high, max_out, worst = split_by_out_degree(d2)
    if max_out > 3:
        assert worst is not None
        return OutDegreeFailure(worst[0], worst[1])

    colors = greedy_reverse(d2.und_adj, acyclic_peel_order(d2, low))
    for v, c in greedy_reverse(d2.und_adj, acyclic_peel_order(d2, high)).items():
        colors[v] = 2 + c
    assert len(set(colors.values())) <= 6
    return D2Coloring(colors, max_out)


def color_d3(d3, k: int, budget: int = DEFAULT_BUDGET):
    """DSATUR over every class vertex, then the exact fallback."""
    q = 4 * k + 2
    heuristic = exactcolor.dsatur(d3.vertices, d3.und_adj)
    if len(set(heuristic.values())) <= q:
        return Coloring(heuristic)
    exact = exactcolor.color_within(d3.vertices, d3.und_adj, q, budget)
    if exact is None:
        return PaletteFailure(q)
    return Coloring(exact)


# --- the pipeline with d1 first in each class --------------------------------


def color_strong_digraph(d: Digraph, k1: int, k3: int, budget: int = DEFAULT_BUDGET):
    """The pipeline as it was when each class ran d1, then d2, then d3. It
    calls the package's tree, classes, partition, stages and fallback, so
    only the stage order differs from ``decomposition.color_strong_digraph``."""
    dec = decomposition
    k = max(k1, k3)
    t = dec.finalize(d, dec.spanning_out_tree(d, 0))
    reports, keys = [], {}
    for i, cls in enumerate(dec.level_classes(t, k), start=1):
        a1, a2, a3 = dec.arc_partition(d, t, cls)
        r1 = dec.color_d1(a1, t)
        if isinstance(r1, WheelCoreFailure):
            return dec._fallback(
                d, k1, k3, budget, "color_d1",
                f"class {i}: degree-5 peel stalled on a core of "
                f"{len(r1.core)} vertices",
            )
        r2 = dec.color_d2(a2)
        if isinstance(r2, OutDegreeFailure):
            return dec._fallback(
                d, k1, k3, budget, "color_d2",
                f"class {i}: vertex {r2.vertex} keeps out-degree "
                f"{len(r2.out_neighbors)} in the high part",
            )
        try:
            r3 = dec.color_d3(a3, k, budget)
        except BudgetExceeded as exc:
            return dec.Inconclusive("color_d3", f"class {i}: {exc}")
        if isinstance(r3, PaletteFailure):
            return dec._fallback(
                d, k1, k3, budget, "color_d3",
                f"class {i}: the d3 group needs more than {r3.bound} colors",
            )
        c1, c2, c3 = r1.colors, r2.colors, r3.colors
        for v in cls:
            keys[v] = (i, c1.get(v, 0), c2.get(v, 0), c3.get(v, 0))
        reports.append(
            dec.ClassReport(
                i, len(cls), r1.palette_size, r2.palette_size, r3.palette_size,
                r2.high_max_out_degree, len({keys[v] for v in cls}),
            )
        )
    return dec.ColoringWithinBound(
        Coloring(keys).normalized(), dec.coloring_bound(k1, k3), tuple(reports), k1, k3
    )


# --- the recursive searchers ------------------------------------------------


def recursive_search_cycle_subdivision(n, indptr, indices, k1, k2, k3, k4, budget):
    """Returns (status, payload, nodes); payload is (junctions, paths) on FOUND."""
    total_min = k1 + k2 + k3 + k4
    if total_min > n:
        return ABSENT, None, 0

    out_deg = [indptr[v + 1] - indptr[v] for v in range(n)]
    in_deg = [0] * n
    for v in indices:
        in_deg[v] += 1
    sources = [v for v in range(n) if out_deg[v] >= 2]
    sinks = [v for v in range(n) if in_deg[v] >= 2]
    if len(sources) < 2 or len(sinks) < 2:
        return ABSENT, None, 0

    sym = (k1 == k3) and (k2 == k4)
    mins = (k1, k2, k3, k4)
    rem_after = (k2 + k3 + k4, k3 + k4, k4, 0)
    used = bytearray(n)
    paths = ([], [], [], [])
    starts = [0, 0, 0, 0]
    targets = [0, 0, 0, 0]
    nodes = 0

    is_sink = bytearray(n)
    for v in sinks:
        is_sink[v] = 1
    nsrc, nsnk = len(sources), len(sinks)
    # the reversed digraph, for the BFS into j2
    rptr = [0] * (n + 1)
    for v in range(n):
        rptr[v + 1] = rptr[v] + in_deg[v]
    rind = [0] * len(indices)
    fill = rptr[:n]
    for u in range(n):
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            rind[fill[v]] = u
            fill[v] += 1

    def extend(p, u, plen, total, L):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        kp = mins[p]
        tgt = targets[p]
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if v == tgt:
                if plen + 1 >= kp and total + 1 + rem_after[p] <= L:
                    paths[p].append(v)
                    if p == 3:
                        return 1
                    r = begin_path(p + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
            elif not used[v]:
                need = kp - (plen + 1)
                if need < 1:
                    need = 1
                if total + 1 + need + rem_after[p] <= L:
                    used[v] = 1
                    paths[p].append(v)
                    r = extend(p, v, plen + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
                    used[v] = 0
        return 0

    def begin_path(p, total, L):
        s = starts[p]
        paths[p].append(s)
        r = extend(p, s, 0, total, L)
        if r == 0:
            paths[p].pop()
        return r

    def close(j1, j2, j3, j4, L):
        """Runs the path search for one junction quadruple: 1, 0 or -1."""
        starts[0], targets[0] = j1, j2
        starts[1], targets[1] = j3, j2
        starts[2], targets[2] = j3, j4
        starts[3], targets[3] = j1, j4
        used[j1] = used[j2] = used[j3] = used[j4] = 1
        for p in paths:
            p.clear()
        r = begin_path(0, 0, L)
        used[j1] = used[j2] = used[j3] = used[j4] = 0
        return r

    def ball(ptr, ind, s, radius):
        """Vertex -> BFS distance from s along (ptr, ind), up to `radius`."""
        dist = {s: 0}
        layer = [s]
        for r in range(1, radius + 1):
            nxt = []
            for u in layer:
                for i in range(ptr[u], ptr[u + 1]):
                    v = ind[i]
                    if v not in dist:
                        dist[v] = r
                        nxt.append(v)
            if not nxt:
                break
            layer = nxt
        return dist

    def room(a, t, j2):
        """Whether the unpruned enumeration holds a quadruple under (j1, j2),
        j1 = sources[a], or under j1 alone when j2 is -1 (no sink j2 can
        then block every j3 found). t counts the sinks left for j4 besides
        j1 and j2. The scan passes over at most j1, j2 and, when t == 1 (so
        at most 3 sinks), the sinks."""
        if t < 1:
            return False
        j1 = sources[a]
        for c in range(a + 1 if sym else 0, nsrc):
            j3 = sources[c]
            if j3 != j1 and j3 != j2 and t - is_sink[j3] >= 1:
                return True
        return False

    def junctions(L):
        """Yields the quadruples that can close at L in lexicographic order,
        and None for each walked prefix under which nothing was yielded;
        the caller charges one node per item."""
        items = 0
        slack = L - total_min
        # a prefix is walked only if the unpruned enumeration holds a
        # quadruple under it: room() for (j1) and (j1, j2), t for (j1, j2, j3)
        for a, j1 in enumerate(sources):
            t = nsnk - 1 - is_sink[j1]
            if not room(a, t, -1):
                continue
            # d(j1,j2) <= slack + k1 and d(j1,j4) <= slack + k4
            d1 = ball(indptr, indices, j1, slack + max(k1, k4))
            mark1 = items
            for j2 in sorted(v for v in d1 if is_sink[v]):
                if j2 == j1:
                    continue
                b12 = max(k1, d1[j2])
                if b12 + rem_after[0] > L or not room(a, t, j2):
                    continue
                d2 = ball(rptr, rind, j2, L - b12 - rem_after[1])
                mark2 = items
                for j3 in sorted(v for v in d2 if out_deg[v] >= 2):
                    if j3 == j1 or j3 == j2 or (sym and j3 < j1) or t - is_sink[j3] < 1:
                        continue
                    b123 = b12 + max(k2, d2[j3])
                    d3 = ball(indptr, indices, j3, L - b123 - rem_after[2])
                    mark3 = items
                    for j4 in sorted(v for v in d3 if is_sink[v]):
                        if j4 == j1 or j4 == j2 or j4 == j3 or j4 not in d1:
                            continue
                        if b123 + max(k3, d3[j4]) + max(k4, d1[j4]) <= L:
                            items += 1
                            yield j1, j2, j3, j4
                    if items == mark3:
                        items += 1
                        yield None
                if items == mark2:
                    items += 1
                    yield None
            if items == mark1:
                items += 1
                yield None

    for L in range(total_min, n + 1):
        for q in junctions(L):
            nodes += 1
            if nodes > budget:
                return BUDGET, None, nodes
            if q is None:
                continue
            r = close(*q, L)
            if r == 1:
                return FOUND, (q, tuple(tuple(p) for p in paths)), nodes
            if r == -1:
                return BUDGET, None, nodes
    return ABSENT, None, nodes


def recursive_find_two_block_path(
    d: Digraph, a: int, b: int, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive search for P(a,b): dipaths of lengths >= a and >= b from a
    common origin, vertex-disjoint elsewhere. Returns the two paths (q1, q2).

    Any longer pair truncates to an exact (a,b) pair, so the search looks
    for exact lengths only.
    """
    if a < 1 or b < 1:
        raise ValueError("block lengths must be positive")
    if 1 + a + b > d.n:
        return None
    used = bytearray(d.n)
    q1: list[int] = []
    q2: list[int] = []
    nodes = 0

    def grow(which: int, u: int, need: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        if need == 0:
            if which == 1:
                q2.append(origin)
                r = grow(2, origin, b)
                if r == 0:
                    q2.pop()
                return r
            return 1
        path = q1 if which == 1 else q2
        for v in d.out_neighbors(u):
            if not used[v]:
                used[v] = 1
                path.append(v)
                r = grow(which, v, need - 1)
                if r != 0:
                    return r
                path.pop()
                used[v] = 0
        return 0

    for origin in range(d.n):
        if d.out_degree(origin) < 2:
            continue
        used[origin] = 1
        q1.clear()
        q2.clear()
        q1.append(origin)
        r = grow(1, origin, a)
        used[origin] = 0
        if r == 1:
            return tuple(q1), tuple(q2)
        if r == -1:
            raise BudgetExceeded(nodes)
    return None


def recursive_color_within(
    vertices: Iterable[int], adj, q: int, budget: int
) -> Optional[dict[int, int]]:
    """Exact decision: a proper coloring with at most q colors, or None when
    provably impossible. Raises BudgetExceeded when the node budget runs out.

    DSATUR-ordered branch and bound; new colors are only opened one past the
    current maximum, which prunes color permutations.
    """
    vs = sorted(vertices)
    if not vs:
        return {}
    if q < 1:
        return None
    vset = set(vs)
    neighbors = {v: sorted(adj[v] & vset) for v in vs}
    colors: dict[int, int] = {}
    nodes = 0

    def pick() -> int:
        return max(
            (u for u in vs if u not in colors),
            key=lambda u: (
                len({colors[w] for w in neighbors[u] if w in colors}),
                len(neighbors[u]),
                -u,
            ),
        )

    def solve(max_used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        if len(colors) == len(vs):
            return True
        v = pick()
        taken = {colors[w] for w in neighbors[v] if w in colors}
        limit = min(max_used + 1, q - 1)
        for c in range(limit + 1):
            if c not in taken:
                colors[v] = c
                if solve(max(max_used, c)):
                    return True
                del colors[v]
        return False

    if solve(-1):
        return dict(colors)
    return None
