"""Saturation-greedy and exact branch-and-bound coloring, desk scale.

Both take a vertex set and an undirected adjacency with adj[v] the neighbor
set of each such v (keyed by host id, or a list as ``Digraph.neighbor_sets()``),
so induced subgraphs need no relabeling. A coloring with c colors uses ids 0..c-1.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from .errors import BudgetExceeded


def dsatur(vertices: Iterable[int], adj) -> dict[int, int]:
    """Greedy coloring by descending saturation; ties by degree then id.

    The heap is keyed (-saturation, -degree, id). A saturation rise pushes
    a fresh entry, which pops before the vertex's older entries; those are
    skipped once the vertex is colored.
    """
    vs = sorted(vertices)
    vset = set(vs)
    colors: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in vs}
    degree = {v: len(adj[v] & vset) for v in vs}
    heap = [(0, -degree[v], v) for v in vs]
    heapify(heap)
    while heap:
        _, _, v = heappop(heap)
        if v in colors:
            continue
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in adj[v]:
            if w in vset and w not in colors and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                heappush(heap, (-len(neighbor_colors[w]), -degree[w], w))
    return colors


def color_within(
    vertices: Iterable[int], adj, q: int, budget: int
) -> Optional[dict[int, int]]:
    """Exact decision: a proper coloring with at most q colors, or None when
    provably impossible. Raises BudgetExceeded when the node budget runs out.

    DSATUR-ordered branch and bound; new colors are only opened one past the
    current maximum, which prunes color permutations. Depth-first on an
    explicit stack, one candidate-color iterator per vertex colored; each
    branch node, the root included, costs one node of the budget.
    """
    vs = sorted(vertices)
    if not vs:
        return {}
    if q < 1:
        return None
    vset = set(vs)
    neighbors = {v: sorted(adj[v] & vset) for v in vs}
    colors: dict[int, int] = {}

    def pick() -> int:
        return max(
            (u for u in vs if u not in colors),
            key=lambda u: (
                len({colors[w] for w in neighbors[u] if w in colors}),
                len(neighbors[u]),
                -u,
            ),
        )

    def branch(max_used: int):
        """The next vertex to color, with max_used and its candidate colors."""
        v = pick()
        taken = {colors[w] for w in neighbors[v] if w in colors}
        limit = min(max_used + 1, q - 1)
        return v, max_used, (c for c in range(limit + 1) if c not in taken)

    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(nodes)
    stack = [branch(-1)]
    while stack:
        v, max_used, candidates = stack[-1]
        c = next(candidates, None)
        if c is None:
            stack.pop()
            colors.pop(v, None)
            continue
        colors[v] = c
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        if len(colors) == len(vs):
            return dict(colors)
        stack.append(branch(max(max_used, c)))
    return None
