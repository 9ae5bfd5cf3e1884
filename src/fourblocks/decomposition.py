"""Level-class decomposition and the certifying coloring pipeline.

Given a strong digraph and block lengths (k1, k3) with k = max(k1, k3), the
pipeline builds a final spanning out-tree, splits vertices into at most 2k
level classes (level residues mod 2k), and partitions each class's induced
arcs into three groups:

    d1: level increases along an ancestor chain,
    d2: level decreases along an ancestor chain (descendant to ancestor),
    d3: everything else.

Each group has its own bounded coloring routine, which colors only the
vertices on the group's arcs. A stage takes its group as the arc list that
``arc_partition`` builds and, when it runs, builds the one adjacency it
reads: undirected neighbor sets for d1 and d3, out-lists for d2. When
every class colors within its stage bounds (6, 6 and 4k+2), each vertex
is keyed by (class, d1 color, d2 color, d3 color), a vertex on no arc of
a group taking 0 there, and one renumbering of those keys gives the final
colors: the stages combine multiplicatively and classes get disjoint
palettes, for at most 36 * (2k) * (4k+2) colors overall. Each class runs
d2, then d1, then d3: the stages are independent, so their order changes
no color, and d2 is the one that fails on dense digraphs, where a d1
coloring built first would be thrown away. The first stage failure ends
the class loop and triggers the exact subdivision search on the whole
digraph, so the pipeline always returns a checkable certificate: a
bounded coloring, a verified subdivision witness, or an explicit
inconclusive outcome.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Union

from . import exactcolor
from .digraph import Coloring, Digraph
# no pipeline call: perfbench/tracing.py wraps these as digraph.strong, digraph.product
from .digraph import is_strongly_connected, product_coloring
from .errors import BudgetExceeded, NotAcyclic, NotFinalTree
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


Arcs = list[tuple[int, int]]


def arc_partition(d: Digraph, t: OutTree, cls) -> tuple[Arcs, Arcs, Arcs]:
    """Split the arcs induced by one class into the arc lists (a1, a2, a3)
    of groups d1, d2 and d3, checking finality as it reads.

    Each out-arc (u,v) of a class vertex u is read once. A backward arc
    (level[u] >= level[v]) must point at an ancestor of u, or the tree is
    not final and ``NotFinalTree`` is raised; inside the class it goes to
    d2. A forward arc inside the class goes to d1 when u is an ancestor of
    v and to d3 otherwise, so each induced arc lands in one list, once.
    Ancestry is read off the tree's pre-order numbers and subtree sizes.
    Only the out-arcs of class vertices are read, so a call raises exactly
    when one of them offends. The classes of ``level_classes`` partition
    the vertices, so calls on all of them read every arc once, and some
    call raises iff the tree is not final.
    """
    _check_vertex_count(d, t)
    level, out = t.level, d.out_lists()
    num = t.numbering
    pre, size = num.pre, num.size
    vset = frozenset(cls)
    a1, a2, a3 = [], [], []
    for u in vset:
        lu, pu = level[u], pre[u]
        below = pu + size[u]
        for v in out[u]:
            if lu < level[v]:
                if v in vset:
                    (a1 if pu < pre[v] < below else a3).append((u, v))
            elif not pre[v] <= pu < pre[v] + size[v]:
                raise NotFinalTree(f"backward arc ({u},{v}) points off the root path of {u}")
            elif v in vset:
                a2.append((u, v))
    return a1, a2, a3


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
    ``counts`` holds the vertices still present, ids >= 0, and is consumed.
    Returns (removal order, stuck vertex set).

    The heap holds only entries at or below the threshold, each the int
    ``count << shift | id`` (shift: the largest id's bit length), ordered as
    (count, id) is. Counts only fall, and each fall to or below the
    threshold pushes a fresh entry, so a present vertex's smallest entry is
    its current count; an entry popped after its vertex is gone is skipped.
    """
    shift = max(counts, default=0).bit_length()
    mask = (1 << shift) - 1
    heap = [c << shift | v for v, c in counts.items() if c <= threshold]
    heapify(heap)
    order: list[int] = []
    while heap:
        v = heappop(heap) & mask
        if v not in counts:
            continue
        del counts[v]
        order.append(v)
        for w in adj[v]:
            if w in counts:
                c = counts[w] = counts[w] - 1
                if c <= threshold:
                    heappush(heap, c << shift | w)
    return order, set(counts)


def peel_low_degree(vertices, adj, threshold: int):
    """Repeatedly remove a vertex of degree <= threshold, lowest (degree, id)
    first; adj[v] holds each undirected neighbor of v once. Returns (removal
    order, stuck core vertex set)."""
    return _peel({v: len(adj[v]) for v in vertices}, adj, threshold)


def greedy_reverse(adj, order) -> dict[int, int]:
    """Greedy color in reverse removal order: each vertex takes the least
    color missing among the vertices of adj[v] colored before it."""
    colors: dict[int, int] = {}
    for v in reversed(order):
        taken = {colors[w] for w in adj[v] if w in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _neighbor_sets(arcs: Arcs) -> dict[int, set[int]]:
    """The undirected neighbor sets of the vertices on an arc, which d1 and
    d3 color; a loop arc, which no coloring makes proper, raises."""
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in arcs:
        if u == v:
            raise ValueError(f"loop arc ({u},{v}) not allowed")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def color_d1(arcs: Arcs, t: OutTree) -> Union[Coloring, WheelCoreFailure]:
    """Color the ancestor-increasing arc group with color ids 0..5, as the
    greedy assigns them; the pipeline's one renumbering of the (class, c1,
    c2, c3) keys makes them final.

    Peel the touched vertices at underlying degree <= 5 and greedy-color in
    reverse. A stall means the remaining core has minimum degree >= 6,
    which cannot happen for this arc group unless the host contains a
    four-blocks cycle subdivision; the core's vertex set is returned as the
    failure evidence.
    """
    adj = _neighbor_sets(arcs)
    level, num = t.level, t.numbering
    pre, size = num.pre, num.size
    for u, v in arcs:
        if not (level[u] < level[v] and pre[u] <= pre[v] < pre[u] + size[u]):
            raise ValueError(f"arc ({u},{v}) is not ancestor-increasing")
    order, core = peel_low_degree(adj, adj, 5)
    if core:
        return WheelCoreFailure(frozenset(core))
    coloring = Coloring(greedy_reverse(adj, order))
    assert coloring.palette_size <= 6
    return coloring


def split_by_out_degree(out: dict[int, list[int]]):
    """(high, max out-degree inside high, worst): high holds the vertices
    of out-degree > 1, and the low part is the rest; worst is (vertex,
    sorted out-neighbors inside high) for the smallest vertex of that max
    out-degree, or None when high has no arc inside it. ``out`` maps each
    vertex to its out-list."""
    high = frozenset(v for v, ws in out.items() if len(ws) > 1)
    inside = {v: [w for w in out[v] if w in high] for v in high}
    max_out = max(map(len, inside.values()), default=0)
    if not max_out:
        return high, 0, None
    v = min(u for u, ws in inside.items() if len(ws) == max_out)
    return high, max_out, (v, tuple(sorted(inside[v])))


def _acyclic_peel_order(out: dict[int, list[int]]) -> list[int]:
    """Repeatedly remove an in-degree-0 vertex (smallest id first): the peel
    at threshold 0 on in-degrees, over the vertices that ``out`` maps to
    their out-lists, each out-neighbor among them. Raises NotAcyclic when
    vertices are left stuck."""
    indeg = dict.fromkeys(out, 0)
    for ws in out.values():
        for w in ws:
            indeg[w] += 1
    # A vertex taken at in-degree 0 has no in-neighbor left, so the neighbors
    # whose counts it lowers are exactly its remaining out-neighbors.
    order, stuck = _peel(indeg, out, 0)
    if stuck:
        raise NotAcyclic(
            "directed cycle found in a descendant-to-ancestor arc group"
        )
    return order


def color_d2(arcs: Arcs) -> Union[D2Coloring, OutDegreeFailure]:
    """Color the descendant-to-ancestor arc group with color ids 0..5, as
    the greedy assigns them; the pipeline's one renumbering of the (class,
    c1, c2, c3) keys makes them final.

    The group is acyclic, so peeling in-degree-0 vertices and coloring in
    reverse uses at most (max out-degree + 1) colors. Vertices of out-degree
    <= 1 take ids 0, 1, the rest ids 2..5 if their induced max out-degree is
    at most 3, which holds unless the host has a four-blocks cycle subdivision.
    One in-degree-0 peel of the touched vertices is the cycle check (a loop
    arc is a cycle), and each part's greedy reads that order's sub-order on
    the part. Both read the out-lists alone: a vertex taken at in-degree 0
    lowers the counts of its out-neighbors only, and in reverse topological
    order the only neighbors already colored are out-neighbors, so a vertex
    takes the least color missing among them, which no topological order
    changes.
    """
    out: dict[int, list[int]] = {v: [] for v in set(chain.from_iterable(arcs))}
    for u, v in arcs:
        out[u].append(v)
    order = _acyclic_peel_order(out)
    high, max_out, worst = split_by_out_degree(out)
    if max_out > 3:
        assert worst is not None
        return OutDegreeFailure(worst[0], worst[1])

    colors = greedy_reverse(out, [v for v in order if v not in high])
    for v, c in greedy_reverse(out, [v for v in order if v in high]).items():
        colors[v] = 2 + c
    assert len(set(colors.values())) <= 6
    return D2Coloring(colors, max_out)


def color_d3(
    arcs: Arcs, k: int, budget: int = DEFAULT_BUDGET
) -> Union[Coloring, PaletteFailure]:
    """Color the remaining arc group with color ids 0..4k+1, as the search
    assigns them; the pipeline's one renumbering of the (class, c1, c2, c3)
    keys makes them final.

    Saturation greedy first; when it overshoots, an exact branch and bound
    decides colorability. A proven impossibility is the failure. Such a
    group contains a two-block path P(2k+1, 2k+1), as every digraph of
    chromatic number a+b+1 contains P(a,b); the pipeline needs only the
    failure.
    """
    q = 4 * k + 2
    adj = _neighbor_sets(arcs)
    heuristic = exactcolor.dsatur(adj, adj)
    if len(set(heuristic.values())) <= q:
        return Coloring(heuristic)
    exact = exactcolor.color_within(adj, adj, q, budget)
    if exact is None:
        return PaletteFailure(q)
    return Coloring(exact)


# --- pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """Observed stage palettes (0 for a group without arcs) and bounds for
    one level class.
    ``combined_colors`` counts the class's distinct (c1, c2, c3) triples,
    which is its share of the final palette: the pipeline keys each vertex
    by (class, c1, c2, c3) and renumbers those keys once. Library only: no
    certificate carries it, since the verifier cannot recompute it without
    the out-tree."""

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
    That pass reads every arc once and flags each tail with an offending
    arc, and ``finalize`` starts its queue from those flags instead of
    reading every arc again.

    Each class runs d2 first, then d1, then d3. Any failure goes to the
    same search, so only the first one matters, and on dense digraphs
    that is d2: running it first spares the d1 coloring the fallback would
    discard. Where d1 and d2 both fail in one class and the search finds
    no witness, the inconclusive outcome names ``color_d2``.

    A class vertex on no arc of a group has no constraint there, so it
    takes 0 in that entry of its key.
    """
    bound = coloring_bound(k1, k3)
    k = max(k1, k3)
    t = finalize(d, spanning_out_tree(d, 0))
    reports: list[ClassReport] = []
    keys: dict[int, tuple[int, int, int, int]] = {}  # vertex -> (class, c1, c2, c3)

    for i, cls in enumerate(level_classes(t, k), start=1):
        a1, a2, a3 = arc_partition(d, t, cls)
        r2 = color_d2(a2)
        if isinstance(r2, OutDegreeFailure):
            return _fallback(
                d, k1, k3, budget, "color_d2",
                f"class {i}: vertex {r2.vertex} keeps out-degree "
                f"{len(r2.out_neighbors)} in the high part",
            )
        r1 = color_d1(a1, t)
        if isinstance(r1, WheelCoreFailure):
            return _fallback(
                d, k1, k3, budget, "color_d1",
                f"class {i}: degree-5 peel stalled on a core of "
                f"{len(r1.core)} vertices",
            )
        try:
            r3 = color_d3(a3, k, budget)
        except BudgetExceeded as exc:
            return Inconclusive("color_d3", f"class {i}: {exc}")
        if isinstance(r3, PaletteFailure):
            return _fallback(
                d, k1, k3, budget, "color_d3",
                f"class {i}: the d3 group needs more than {r3.bound} colors",
            )

        c1, c2, c3 = r1.colors, r2.colors, r3.colors
        for v in cls:
            keys[v] = (i, c1.get(v, 0), c2.get(v, 0), c3.get(v, 0))
        reports.append(
            ClassReport(
                index=i,
                size=len(cls),
                d1_colors=r1.palette_size,
                d2_colors=r2.palette_size,
                d3_colors=r3.palette_size,
                b2_max_out_degree=r2.high_max_out_degree,
                combined_colors=len({keys[v] for v in cls}),
            )
        )

    coloring = Coloring(keys).normalized()
    colors = coloring.colors
    col = [colors[v] for v in range(d.n)]
    assert len(colors) == d.n and all(
        col[v] != cu for cu, vs in zip(col, d.out_lists()) for v in vs
    )
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
