"""Level-class decomposition and the certifying coloring pipeline.

Given a strong digraph and block lengths (k1, k3) with k = max(k1, k3), the
pipeline builds a final spanning out-tree, splits vertices into at most 2k
level classes (level residues mod 2k), and partitions each class's induced
arcs into three subdigraphs:

    d1: level increases along an ancestor chain,
    d2: level decreases along an ancestor chain (descendant to ancestor),
    d3: everything else.

Each group has its own bounded coloring routine. When every class colors
within its stage bounds (6, 6 and 4k+2), the three stage colorings combine
multiplicatively and classes get disjoint palettes, for at most
36 * (2k) * (4k+2) colors overall. The first stage failure ends the class
loop and triggers the exact subdivision search on the whole digraph, so the
pipeline always returns a checkable certificate: a bounded coloring, a
verified subdivision witness, or an explicit inconclusive outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Union

from . import exactcolor
from .digraph import Coloring, Digraph, is_strongly_connected, product_coloring
from .errors import BudgetExceeded, NotAcyclic, NotFinalTree, NotStronglyConnected
from .outtree import OutTree, _check_vertex_count, finalize
# the pipeline's start tree keeps the name that perfbench/tracing.py wraps
from .outtree import depth_first_out_tree as spanning_out_tree
from .witness import (
    DEFAULT_BUDGET,
    CyclePattern,
    SubdivisionWitness,
    find_cycle_subdivision,
    verify_subdivision,
    witness_to_json,
)


class SubDigraph:
    """A stage input: a vertex set and arcs between its vertices, keeping
    the host's vertex ids. ``arc_partition`` builds the pipeline's three per
    class; tests and callers build their own the same way.

    ``touched`` holds the vertices that lie on an arc. ``und_adj``, the one
    adjacency every stage reads, is keyed by every vertex, but only touched
    vertices get their own set: the others share ``frozenset()``. Arc
    directions are read from ``arcs``.
    """

    __slots__ = ("vertices", "arcs", "touched", "und_adj")

    def __init__(self, vertices, arcs):
        self.vertices = tuple(sorted(vertices))
        self.arcs = frozenset(arcs)
        self.touched = touched = frozenset(chain.from_iterable(self.arcs))
        self.und_adj = und_adj = dict.fromkeys(self.vertices, frozenset())
        if not und_adj.keys() >= touched:
            for u, v in self.arcs:
                if u not in und_adj or v not in und_adj:
                    raise ValueError(f"arc ({u},{v}) leaves the vertex set")
        for v in touched:
            und_adj[v] = set()
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"loop arc ({u},{v}) not allowed")
            und_adj[u].add(v)
            und_adj[v].add(u)

    def __repr__(self) -> str:
        return f"SubDigraph(|V|={len(self.vertices)}, |A|={len(self.arcs)})"


def level_classes(t: OutTree, k: int) -> tuple[frozenset[int], ...]:
    """The level classes V_1..V_m of ``t`` for block parameter k: level l
    goes to V_((l-1) mod 2k + 1), and m = min(2k, tree depth). Every class
    is nonempty, since a deepest root path has levels 1..depth. One pass
    over the vertices: O(n) time and space whatever k is."""
    if k < 1:
        raise ValueError("block parameter k must be positive")
    period = 2 * k
    classes: list[set[int]] = [set() for _ in range(min(period, max(t.level)))]
    for v, lv in enumerate(t.level):
        classes[(lv - 1) % period].add(v)
    return tuple(map(frozenset, classes))


def arc_partition(d: Digraph, t: OutTree, cls) -> tuple[SubDigraph, SubDigraph, SubDigraph]:
    """Split the arcs induced by one class into the stage inputs (d1, d2,
    d3) on the class's vertices, checking finality as it reads.

    Each out-arc (u,v) of a class vertex u is read once. A backward arc
    (level[u] >= level[v]) must point at an ancestor of u, or the tree is
    not final and ``NotFinalTree`` is raised; inside the class it goes to
    d2. A forward arc inside the class goes to d1 when u is an ancestor of
    v and to d3 otherwise. Only the out-arcs of class vertices are read, so
    a call raises exactly when one of them offends. The classes of
    ``level_classes`` partition the vertices, so calls on all of them read
    every arc once, and some call raises iff the tree is not final.
    """
    _check_vertex_count(d, t)
    level, num = t.level, t.numbering
    vset = set(cls)
    a1, a2, a3 = [], [], []
    for u in vset:
        for v in d.out_neighbors(u):
            if level[u] < level[v]:
                if v in vset:
                    (a1 if num.is_ancestor(u, v) else a3).append((u, v))
            elif not num.is_ancestor(v, u):
                raise NotFinalTree(f"backward arc ({u},{v}) points off the root path of {u}")
            elif v in vset:
                a2.append((u, v))
    return SubDigraph(vset, a1), SubDigraph(vset, a2), SubDigraph(vset, a3)


# --- stage colorings ---------------------------------------------------------


@dataclass(frozen=True)
class WheelCoreFailure:
    """Peeling at degree 5 stalled; every core vertex keeps >= 6 core
    neighbors."""

    core: frozenset[int]


@dataclass(frozen=True)
class OutDegreeFailure:
    """A vertex of the high-out-degree part kept out-degree >= 4."""

    vertex: int
    out_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class PaletteFailure:
    """The exact coloring proved that the d3 group needs more than
    ``bound`` colors."""

    bound: int


# perfbench/tracing.py still counts d3 failures under the old name
TwoBlockPathWitness = PaletteFailure


@dataclass(frozen=True)
class D2Coloring(Coloring):
    """A d2 stage coloring with the high part's max induced out-degree."""

    high_max_out_degree: int


def _peel(counts: dict[int, int], adj, threshold: int):
    """Repeatedly remove the vertex of lowest (count, id) while that count is
    at most threshold, lowering the count of each w in adj[v] still present.
    ``counts`` holds the vertices still present and is consumed. Returns
    (removal order, stuck vertex set).

    The heap holds only entries at or below the threshold. Counts only
    fall, and each fall to or below the threshold pushes a fresh entry, so a
    present vertex's smallest entry is its current count; an entry popped
    after its vertex is gone is skipped.
    """
    heap = [(c, v) for v, c in counts.items() if c <= threshold]
    heapify(heap)
    order: list[int] = []
    while heap:
        v = heappop(heap)[1]
        if v not in counts:
            continue
        del counts[v]
        order.append(v)
        for w in adj[v]:
            if w in counts:
                c = counts[w] = counts[w] - 1
                if c <= threshold:
                    heappush(heap, (c, w))
    return order, set(counts)


def peel_low_degree(vertices, adj, threshold: int):
    """Repeatedly remove a vertex of degree <= threshold, lowest (degree, id)
    first; adj[v] holds each undirected neighbor of v once. Returns (removal
    order, stuck core vertex set)."""
    return _peel({v: len(adj[v]) for v in vertices}, adj, threshold)


def greedy_reverse(adj, order) -> dict[int, int]:
    """Greedy color in reverse removal order on the undirected adjacency."""
    colors: dict[int, int] = {}
    for v in reversed(order):
        taken = {colors[w] for w in adj[v] if w in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def color_d1(d1: SubDigraph, t: OutTree) -> Union[Coloring, WheelCoreFailure]:
    """Color the ancestor-increasing arc group with color ids 0..5, as the
    greedy assigns them; ``product_coloring`` renumbers them.

    Peel the touched vertices at underlying degree <= 5 and greedy-color in
    reverse; an untouched vertex takes 0 without entering the peel, as it
    would have from the greedy. A stall means the remaining core has minimum
    degree >= 6, which cannot happen for this arc group unless the host
    contains a four-blocks cycle subdivision; the core's vertex set is
    returned as the failure evidence.
    """
    level, num = t.level, t.numbering
    for u, v in d1.arcs:
        if not (level[u] < level[v] and num.is_ancestor(u, v)):
            raise ValueError(f"arc ({u},{v}) is not ancestor-increasing")
    order, core = peel_low_degree(d1.touched, d1.und_adj, 5)
    if core:
        return WheelCoreFailure(frozenset(core))
    colors = dict.fromkeys(d1.vertices, 0)
    colors.update(greedy_reverse(d1.und_adj, order))
    coloring = Coloring(colors)
    assert coloring.palette_size <= 6
    return coloring


def split_by_out_degree(d2: SubDigraph):
    """(low, high, max out-degree inside high, worst) split at out-degree
    <= 1; worst is (vertex, sorted out-neighbors inside high) for the
    smallest vertex of that max out-degree, or None when high has no arc
    inside it. Out-degrees come from one pass over ``d2.arcs``."""
    high = frozenset(v for v, c in Counter(u for u, _ in d2.arcs).items() if c > 1)
    low = frozenset(d2.vertices) - high
    inside = Counter(u for u, w in d2.arcs if u in high and w in high)
    max_out = max(inside.values(), default=0)
    if not max_out:
        return low, high, 0, None
    v = min(u for u, c in inside.items() if c == max_out)
    return low, high, max_out, (v, tuple(sorted(w for u, w in d2.arcs if u == v and w in high)))


def _acyclic_peel_order(d2: SubDigraph, vertices) -> list[int]:
    """Repeatedly remove an in-degree-0 vertex (smallest id first) from the
    induced subdigraph: the peel at threshold 0 on in-degrees inside the
    vertex set, counted from ``d2.arcs``. Raises NotAcyclic when vertices
    are left stuck."""
    indeg = dict.fromkeys(vertices, 0)
    for u, w in d2.arcs:
        if u in indeg and w in indeg:
            indeg[w] += 1
    # A vertex taken at in-degree 0 has no in-neighbor left, so the neighbors
    # whose counts it lowers are exactly its remaining out-neighbors.
    order, stuck = _peel(indeg, d2.und_adj, 0)
    if stuck:
        raise NotAcyclic(
            "directed cycle found in a descendant-to-ancestor arc group"
        )
    return order


def color_d2(d2: SubDigraph) -> Union[D2Coloring, OutDegreeFailure]:
    """Color the descendant-to-ancestor arc group with color ids 0..5, as
    the greedy assigns them; ``product_coloring`` renumbers them.

    The group is acyclic, so peeling in-degree-0 vertices and coloring in
    reverse uses at most (max out-degree + 1) colors. Vertices of out-degree
    <= 1 take ids 0, 1, the rest ids 2..5 if their induced max out-degree is
    at most 3, which holds unless the host has a four-blocks cycle subdivision.
    One in-degree-0 peel of the touched vertices is the cycle check, and each
    part's greedy reads that order's sub-order on the part: in reverse
    topological order a vertex takes the least color missing among its
    out-neighbors, which no topological order changes. An untouched vertex
    is in the low part and takes 0, as the greedy gave it.
    """
    order = _acyclic_peel_order(d2, d2.touched)
    _, high, max_out, worst = split_by_out_degree(d2)
    if max_out > 3:
        assert worst is not None
        return OutDegreeFailure(worst[0], worst[1])

    colors = dict.fromkeys(d2.vertices, 0)
    colors.update(greedy_reverse(d2.und_adj, [v for v in order if v not in high]))
    for v, c in greedy_reverse(d2.und_adj, [v for v in order if v in high]).items():
        colors[v] = 2 + c
    assert len(set(colors.values())) <= 6
    return D2Coloring(colors, max_out)


def color_d3(
    d3: SubDigraph, k: int, budget: int = DEFAULT_BUDGET
) -> Union[Coloring, PaletteFailure]:
    """Color the remaining arc group with color ids 0..4k+1, as the search
    assigns them; ``product_coloring`` renumbers them.

    Saturation greedy first, on the touched vertices; an untouched vertex
    takes 0, as it would have last in the saturation order. When the greedy
    overshoots, an exact branch and bound on every class vertex decides
    colorability, so its node count and budget cut stay those of the whole
    class. A proven impossibility is the failure. Such a group contains a
    two-block path P(2k+1, 2k+1), as every digraph of chromatic number
    a+b+1 contains P(a,b); the pipeline needs only the failure.
    """
    q = 4 * k + 2
    heuristic = exactcolor.dsatur(d3.touched, d3.und_adj)
    if len(set(heuristic.values())) <= q:
        return Coloring(dict.fromkeys(d3.vertices, 0) | heuristic)
    exact = exactcolor.color_within(d3.vertices, d3.und_adj, q, budget)
    if exact is None:
        return PaletteFailure(q)
    return Coloring(exact)


# --- pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """Observed stage palettes and bounds for one level class. Library
    only: no certificate carries it, since the verifier cannot recompute
    it without the out-tree."""

    index: int
    size: int
    d1_colors: int
    d2_colors: int
    d3_colors: int
    b2_max_out_degree: int
    combined_colors: int


@dataclass(frozen=True)
class ColoringWithinBound:
    """A proper coloring within ``bound``. The certificate holds only what
    the verifier checks; ``per_class`` stays in the library, never
    serialized."""

    coloring: Coloring
    bound: int
    per_class: tuple[ClassReport, ...]
    k1: int
    k3: int

    def to_json_dict(self) -> dict:
        n = len(self.coloring.colors)
        return {
            "outcome": "coloring",
            "bound": self.bound,
            "colors": self.coloring.as_list(n),
            "k1": self.k1,
            "k3": self.k3,
        }


@dataclass(frozen=True)
class SubdivisionFound:
    witness: SubdivisionWitness
    pattern: CyclePattern

    def to_json_dict(self) -> dict:
        return {
            "outcome": "subdivision",
            "k1": self.pattern.blocks[0],
            "k3": self.pattern.blocks[2],
            "witness": witness_to_json(self.witness, self.pattern),
        }


@dataclass(frozen=True)
class Inconclusive:
    stage: str
    reason: str

    def to_json_dict(self) -> dict:
        return {"outcome": "inconclusive", "stage": self.stage, "reason": self.reason}


PipelineCertificate = Union[ColoringWithinBound, SubdivisionFound, Inconclusive]


def coloring_bound(k1: int, k3: int) -> int:
    """The pipeline's color bound 36*(2k)*(4k+2), k = max(k1, k3): 2k level
    classes with a palette of 36*(4k+2) colors each."""
    if k1 < 1 or k3 < 1:
        raise ValueError("block lengths must be positive")
    k = max(k1, k3)
    return 2 * k * 36 * (4 * k + 2)


def color_strong_digraph(
    d: Digraph, k1: int, k3: int, budget: int = DEFAULT_BUDGET
) -> PipelineCertificate:
    """End-to-end certifying pipeline for a strong digraph.

    Either a proper coloring with at most 36*(2k)*(4k+2) colors
    (k = max(k1,k3)), or a verified subdivision witness for the pattern
    (k1,1,k3,1), or an explicit inconclusive outcome naming the stage that
    could not be decided under the budget.

    ``budget`` caps each search call, not the run: every class's exact d3
    coloring gets all of it, and so does the fallback's subdivision search.

    The final tree grows from the depth-first out-tree at vertex 0: the
    stages read only finality, ancestry and levels, so any start would do.
    """
    bound = coloring_bound(k1, k3)
    if not is_strongly_connected(d):
        raise NotStronglyConnected("input digraph is not strongly connected")
    k = max(k1, k3)
    t = finalize(d, spanning_out_tree(d, 0))
    reports: list[ClassReport] = []
    keys: dict[int, tuple[int, int]] = {}  # vertex -> (class, product id)

    for i, cls in enumerate(level_classes(t, k), start=1):
        d1, d2, d3 = arc_partition(d, t, cls)
        r1 = color_d1(d1, t)
        if isinstance(r1, WheelCoreFailure):
            return _fallback(
                d, k1, k3, budget, "color_d1",
                f"class {i}: degree-5 peel stalled on a core of "
                f"{len(r1.core)} vertices",
            )
        r2 = color_d2(d2)
        if isinstance(r2, OutDegreeFailure):
            return _fallback(
                d, k1, k3, budget, "color_d2",
                f"class {i}: vertex {r2.vertex} keeps out-degree "
                f"{len(r2.out_neighbors)} in the high part",
            )
        try:
            r3 = color_d3(d3, k, budget)
        except BudgetExceeded as exc:
            return Inconclusive("color_d3", f"class {i}: {exc}")
        if isinstance(r3, PaletteFailure):
            return _fallback(
                d, k1, k3, budget, "color_d3",
                f"class {i}: the d3 group needs more than {r3.bound} colors",
            )

        c123 = product_coloring((r1, cls), (r2, cls), (r3, cls))
        assert c123.palette_size <= 36 * (4 * k + 2)
        reports.append(
            ClassReport(
                index=i,
                size=len(cls),
                d1_colors=r1.palette_size,
                d2_colors=r2.palette_size,
                d3_colors=r3.palette_size,
                b2_max_out_degree=r2.high_max_out_degree,
                combined_colors=c123.palette_size,
            )
        )
        for v, c in c123.colors.items():
            keys[v] = (i, c)

    coloring = Coloring(keys).normalized()
    colors = coloring.colors
    assert len(colors) == d.n and all(colors[u] != colors[v] for u, v in d.arcs)
    assert coloring.palette_size <= bound
    return ColoringWithinBound(coloring, bound, tuple(reports), k1, k3)


def _fallback(
    d: Digraph, k1: int, k3: int, budget: int, stage: str, reason: str
) -> Union[SubdivisionFound, Inconclusive]:
    """Settle a stage failure by the subdivision search on the whole digraph
    for (k,1,k,1), k = max(k1, k3), whose witness is re-verified against
    (k1,1,k3,1); without a witness the outcome is inconclusive at ``stage``."""
    k = max(k1, k3)
    try:
        w = find_cycle_subdivision(d, CyclePattern.from_k(k, k), budget)
    except BudgetExceeded:
        return Inconclusive(stage, reason + "; subdivision search ran out of budget")
    if w is None:
        return Inconclusive(
            stage, reason + "; exhaustive search found no subdivision (unexpected)"
        )
    target = CyclePattern.from_k(k1, k3)
    check = verify_subdivision(d, w, target)
    assert check.ok, f"witness failed re-verification: {check.reason}"
    return SubdivisionFound(w, target)
