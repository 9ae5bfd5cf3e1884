"""Level-class decomposition and the certifying coloring pipeline.

Given a strong digraph and block lengths (k1, k3) with k = max(k1, k3), the
pipeline builds a final spanning out-tree, splits vertices into 2k level
classes (level residues mod 2k), and partitions each class's induced arcs
into three groups:

    a1: level increases along an ancestor chain,
    a2: level decreases along an ancestor chain (descendant to ancestor),
    a3: everything else.

Each group has its own bounded coloring routine. When every class colors
within its stage bounds (6, 6 and 4k+2), the three stage colorings combine
multiplicatively and classes get disjoint palettes, for at most
36 * (2k) * (4k+2) colors overall. Any stage failure triggers the exact
subdivision search on the whole digraph, so the pipeline always returns a
checkable certificate: a bounded coloring, a verified subdivision witness,
or an explicit inconclusive outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Union

from . import exactcolor
from .digraph import Coloring, Digraph, is_strongly_connected, product_coloring
from .errors import BudgetExceeded, NotAcyclic, NotFinalTree, NotStronglyConnected
from .outtree import OutTree, finalize, is_final, spanning_out_tree
from .witness import (
    DEFAULT_BUDGET,
    CyclePattern,
    SubdivisionWitness,
    TwoBlockPathWitness,
    find_cycle_subdivision,
    find_two_block_path,
    verify_subdivision,
    witness_to_json,
)


class SubDigraph:
    """Induced subdigraph keeping the host's vertex ids."""

    __slots__ = ("vertices", "arcs", "out_adj", "in_adj", "und_adj")

    def __init__(self, vertices, arcs):
        self.vertices = tuple(sorted(vertices))
        vset = set(self.vertices)
        self.arcs = frozenset(arcs)
        for u, v in self.arcs:
            if u not in vset or v not in vset:
                raise ValueError(f"arc ({u},{v}) leaves the vertex set")
        self.out_adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        self.in_adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        self.und_adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in sorted(self.arcs):
            self.out_adj[u].append(v)
            self.in_adj[v].append(u)
            self.und_adj[u].add(v)
            self.und_adj[v].add(u)

    def __repr__(self) -> str:
        return f"SubDigraph(|V|={len(self.vertices)}, |A|={len(self.arcs)})"


@dataclass(frozen=True)
class LevelClasses:
    """Vertex classes V_1..V_2k by level residue mod 2k (residue 0 -> V_2k)."""

    k: int
    classes: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ArcPartition:
    a1: frozenset[tuple[int, int]]
    a2: frozenset[tuple[int, int]]
    a3: frozenset[tuple[int, int]]


def level_classes(t: OutTree, k: int) -> LevelClasses:
    if k < 1:
        raise ValueError("block parameter k must be positive")
    classes: list[set[int]] = [set() for _ in range(2 * k)]
    for v in range(t.n):
        r = t.level[v] % (2 * k)
        idx = (2 * k if r == 0 else r) - 1
        classes[idx].add(v)
    return LevelClasses(k, tuple(frozenset(c) for c in classes))


def arc_partition(d: Digraph, t: OutTree, cls) -> ArcPartition:
    """Split the arcs induced by one class; requires a final tree."""
    if not is_final(d, t):
        raise NotFinalTree("arc partition requires a final out-tree")
    level, num = t.level, t.numbering
    vset = set(cls)
    a1, a2, a3 = set(), set(), set()
    for u in vset:
        for v in d.out_neighbors(u):
            if v not in vset:
                continue
            if level[u] < level[v] and num.is_ancestor(u, v):
                a1.add((u, v))
            elif level[u] > level[v] and num.is_ancestor(v, u):
                a2.add((u, v))
            else:
                a3.add((u, v))
    return ArcPartition(frozenset(a1), frozenset(a2), frozenset(a3))


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
class D2Coloring(Coloring):
    """A d2 stage coloring with the high part's max induced out-degree."""

    high_max_out_degree: int


def peel_low_degree(vertices, adj, threshold: int):
    """Repeatedly remove a vertex of degree <= threshold, lowest (degree, id)
    first; adj[v] holds each undirected neighbor of v once. Returns (removal
    order, stuck core vertex set).

    A degree drop pushes a fresh (degree, id) heap entry, which pops before
    the vertex's older entries; those are skipped once the vertex is gone.
    """
    deg = {v: len(adj[v]) for v in vertices}
    heap = [(dv, v) for v, dv in deg.items()]
    heapify(heap)
    alive = set(deg)
    order: list[int] = []
    while heap:
        dv, v = heap[0]
        if v not in alive:
            heappop(heap)
            continue
        if dv > threshold:
            break
        heappop(heap)
        alive.discard(v)
        order.append(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return order, alive


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
    """Color the ancestor-increasing arc group with at most 6 colors.

    Peel vertices of underlying degree <= 5 and greedy-color in reverse. A
    stall means the remaining core has minimum degree >= 6, which cannot
    happen for this arc group unless the host contains a four-blocks cycle
    subdivision; the core's vertex set is returned as the failure evidence.
    """
    level, num = t.level, t.numbering
    for u, v in d1.arcs:
        if not (level[u] < level[v] and num.is_ancestor(u, v)):
            raise ValueError(f"arc ({u},{v}) is not ancestor-increasing")
    order, core = peel_low_degree(d1.vertices, d1.und_adj, 5)
    if core:
        return WheelCoreFailure(frozenset(core))
    coloring = Coloring(greedy_reverse(d1.und_adj, order)).normalized()
    assert coloring.palette_size <= 6
    return coloring


def split_by_out_degree(d2: SubDigraph):
    """(low, high, max out-degree inside high) split at out-degree <= 1."""
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


def _acyclic_peel_order(d2: SubDigraph, vertices) -> list[int]:
    """Repeatedly remove an in-degree-0 vertex (smallest id first) from the
    induced subdigraph; raises NotAcyclic when stuck. Kahn's algorithm with
    a min-heap of the vertices whose in-degree has dropped to 0."""
    vset = set(vertices)
    indeg = {v: sum(1 for u in d2.in_adj[v] if u in vset) for v in vset}
    ready = [v for v in vset if indeg[v] == 0]
    heapify(ready)
    order: list[int] = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for w in d2.out_adj[v]:
            if w in vset:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heappush(ready, w)
    if len(order) < len(vset):
        raise NotAcyclic(
            "directed cycle found in a descendant-to-ancestor arc group"
        )
    return order


def color_d2(d2: SubDigraph) -> Union[D2Coloring, OutDegreeFailure]:
    """Color the descendant-to-ancestor arc group with at most 6 colors.

    The group is acyclic, so peeling in-degree-0 vertices and coloring in
    reverse uses at most (max out-degree + 1) colors. Vertices of out-degree
    <= 1 take 2 colors; the rest take 4 fresh colors provided their induced
    max out-degree is at most 3, which holds unless the host contains a
    four-blocks cycle subdivision.
    """
    _acyclic_peel_order(d2, d2.vertices)
    low, high, max_out, worst = split_by_out_degree(d2)
    if max_out > 3:
        assert worst is not None
        return OutDegreeFailure(worst[0], worst[1])

    colors = greedy_reverse(d2.und_adj, _acyclic_peel_order(d2, low))
    for v, c in greedy_reverse(d2.und_adj, _acyclic_peel_order(d2, high)).items():
        colors[v] = 2 + c
    coloring = Coloring(colors).normalized()
    assert coloring.palette_size <= 6
    return D2Coloring(coloring.colors, max_out)


def color_d3(
    d3: SubDigraph, k: int, budget: int = DEFAULT_BUDGET
) -> Union[Coloring, TwoBlockPathWitness]:
    """Color the remaining arc group with at most 4k+2 colors.

    Saturation greedy first; when it overshoots, an exact branch and bound
    decides colorability. A proven impossibility forces a two-block path
    P(2k+1, 2k+1) to exist in the group, which is found and returned as the
    failure witness.
    """
    q = 4 * k + 2
    heuristic = exactcolor.dsatur(d3.vertices, d3.und_adj)
    if len(set(heuristic.values())) <= q:
        return Coloring(heuristic).normalized()
    exact = exactcolor.color_within(d3.vertices, d3.und_adj, q, budget)
    if exact is not None:
        return Coloring(exact).normalized()
    # Search on host ids: vertices outside the class have no out-arcs, so
    # the search skips them before counting a node.
    host = Digraph(max(d3.vertices) + 1, d3.arcs)
    witness = find_two_block_path(host, 2 * k + 1, 2 * k + 1, budget)
    if witness is None:
        raise RuntimeError(
            "chromatic number exceeds 4k+2 but no P(2k+1,2k+1) exists; "
            "a digraph of chromatic number a+b+1 always contains P(a,b), "
            "so one of the two searches is buggy"
        )
    return witness


# --- pipeline ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """Observed stage palettes and bounds for one level class."""

    index: int
    size: int
    d1_colors: int
    d2_colors: int
    d3_colors: int
    b2_max_out_degree: int
    combined_colors: int

    def to_json_dict(self) -> dict:
        return {
            "class": self.index,
            "size": self.size,
            "d1_colors": self.d1_colors,
            "d2_colors": self.d2_colors,
            "d3_colors": self.d3_colors,
            "b2_max_out_degree": self.b2_max_out_degree,
            "combined_colors": self.combined_colors,
        }


@dataclass(frozen=True)
class ColoringWithinBound:
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
            "classes": [c.to_json_dict() for c in self.per_class],
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
    """
    bound = coloring_bound(k1, k3)
    if not is_strongly_connected(d):
        raise NotStronglyConnected("input digraph is not strongly connected")
    k = max(k1, k3)
    t = finalize(d, spanning_out_tree(d, 0))
    classes = level_classes(t, k)
    block = bound // (2 * k)

    failure_stage: Optional[str] = None
    failure_reason = ""
    reports: list[ClassReport] = []
    final_colors: dict[int, int] = {}

    for i, cls in enumerate(classes.classes, start=1):
        if not cls:
            continue
        part = arc_partition(d, t, cls)
        d1 = SubDigraph(cls, part.a1)
        d2 = SubDigraph(cls, part.a2)
        d3 = SubDigraph(cls, part.a3)

        r1 = color_d1(d1, t)
        if isinstance(r1, WheelCoreFailure):
            failure_stage = "color_d1"
            failure_reason = (
                f"class {i}: degree-5 peel stalled on a core of "
                f"{len(r1.core)} vertices"
            )
            break
        r2 = color_d2(d2)
        if isinstance(r2, OutDegreeFailure):
            failure_stage = "color_d2"
            failure_reason = (
                f"class {i}: vertex {r2.vertex} keeps out-degree "
                f"{len(r2.out_neighbors)} in the high part"
            )
            break
        try:
            r3 = color_d3(d3, k, budget)
        except BudgetExceeded as exc:
            return Inconclusive("color_d3", f"class {i}: {exc}")
        if isinstance(r3, TwoBlockPathWitness):
            failure_stage = "color_d3"
            failure_reason = f"class {i}: found P({r3.a},{r3.b}), chromatic bound fails"
            break

        c12 = product_coloring(r1, r2, cls, cls)
        c123 = product_coloring(c12, r3, cls, cls)
        assert c123.palette_size <= block
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
        offset = (i - 1) * block
        for v, c in c123.colors.items():
            final_colors[v] = offset + c

    if failure_stage is not None:
        pattern = CyclePattern.from_k(k, k)
        try:
            w = find_cycle_subdivision(d, pattern, budget)
        except BudgetExceeded:
            return Inconclusive(
                failure_stage,
                failure_reason + "; subdivision search ran out of budget",
            )
        if w is not None:
            target = CyclePattern.from_k(k1, k3)
            check = verify_subdivision(d, w, target)
            assert check.ok, f"witness failed re-verification: {check.reason}"
            return SubdivisionFound(w, target)
        return Inconclusive(
            failure_stage,
            failure_reason + "; exhaustive search found no subdivision (unexpected)",
        )

    coloring = Coloring(final_colors).normalized()
    colors = coloring.colors
    assert len(colors) == d.n and all(colors[u] != colors[v] for u, v in d.arcs)
    assert coloring.palette_size <= bound
    return ColoringWithinBound(coloring, bound, tuple(reports), k1, k3)
