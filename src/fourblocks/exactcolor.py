"""Saturation-greedy and exact branch-and-bound coloring, desk scale.

Both take a vertex set and an undirected adjacency with adj[v] the neighbor
set of each such v (keyed by host id, or a list as ``Digraph.neighbor_sets()``),
so induced subgraphs need no relabeling. A coloring with c colors uses ids 0..c-1.

Both color in DSATUR order (Brélaz 1979): next the uncolored vertex with
the most distinct colors among its neighbors, ties by degree, then by
lowest id. One ``_Saturation`` keeps that order for both: a neighbor-color
set per vertex and a lazy heap keyed (-saturation, -degree, id). Coloring a
vertex adds its color to its uncolored neighbors' sets and pushes a fresh
entry for each set that grew; the exact search's backtrack undoes that and
pushes fresh entries for the sets that shrank. A popped entry is skipped
once its vertex is colored or its saturation is stale, so picking the next
vertex costs O(log n) amortized per entry rather than a scan of the
uncolored vertices.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceeded


class _Saturation:
    """The DSATUR order on the subgraph induced by ``vertices``.

    ``seen[v]`` is the set of colors on v's colored neighbors while v is
    uncolored; it is left as it was while v is colored. ``unassign`` must
    undo the latest ``assign`` still in force, so when v is uncolored again
    its neighbors hold the colors they held when v was colored, and
    ``seen[v]`` is right again. Every uncolored vertex but the one picked
    last keeps an entry with its current key in the heap; that one gets it
    back from ``unassign``. The sets in ``neighbors`` are read, never
    changed, so an adjacency set already inside the vertex set is shared.
    """

    __slots__ = ("neighbors", "colors", "seen", "heap")

    def __init__(self, vertices: Iterable[int], adj):
        vset = set(vertices)
        self.neighbors = {v: adj[v] if adj[v] <= vset else adj[v] & vset for v in vset}
        self.colors: dict[int, int] = {}
        self.seen: dict[int, set[int]] = {v: set() for v in vset}
        self.heap = [(0, -len(ws), v) for v, ws in self.neighbors.items()]
        heapify(self.heap)

    def picks(self) -> Iterator[int]:
        """Pick the next uncolored vertex in the order, taking its entry off
        the heap, each time the caller asks; stops once all are colored."""
        heap, colors, seen = self.heap, self.colors, self.seen
        while heap:
            s, _, v = heappop(heap)
            if v not in colors and -s == len(seen[v]):
                yield v

    def assign(self, v: int, c: int) -> None:
        colors, seen, neighbors, heap = self.colors, self.seen, self.neighbors, self.heap
        colors[v] = c
        for w in neighbors[v]:
            if w not in colors and c not in seen[w]:
                seen[w].add(c)
                heappush(heap, (-len(seen[w]), -len(neighbors[w]), w))

    def unassign(self, v: int) -> None:
        """Put v, picked and maybe colored, back among the uncolored
        vertices. Each uncolored neighbor that saw v's color collects its
        set again from its colored neighbors, at O(degree) cost, since
        another of them may have that color too."""
        colors, seen, neighbors, heap = self.colors, self.seen, self.neighbors, self.heap
        c = colors.pop(v, None)
        for w in neighbors[v]:
            if w not in colors and c in seen[w]:
                seen[w] = {colors[x] for x in neighbors[w] if x in colors}
                heappush(heap, (-len(seen[w]), -len(neighbors[w]), w))
        heappush(heap, (-len(seen[v]), -len(neighbors[v]), v))


def dsatur(vertices: Iterable[int], adj) -> dict[int, int]:
    """Greedy coloring in DSATUR order, each vertex taking the lowest color
    none of its colored neighbors has."""
    sat = _Saturation(vertices, adj)
    for v in sat.picks():
        c = 0
        while c in sat.seen[v]:
            c += 1
        sat.assign(v, c)
    return sat.colors


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
    sat = _Saturation(vertices, adj)
    if not sat.neighbors:
        return {}
    if q < 1:
        return None
    picks = sat.picks()

    def branch(max_used: int):
        """The next vertex to color, with max_used and its candidate colors.
        The candidates read seen[v] only while v is uncolored, when it holds
        what it held here."""
        v = next(picks)
        limit = min(max_used + 1, q - 1)
        return v, max_used, (c for c in range(limit + 1) if c not in sat.seen[v])

    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(nodes)
    stack = [branch(-1)]
    while stack:
        v, max_used, candidates = stack[-1]
        sat.unassign(v)
        c = next(candidates, None)
        if c is None:
            stack.pop()
            continue
        sat.assign(v, c)
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        if len(sat.colors) == len(sat.seen):
            return dict(sat.colors)
        stack.append(branch(max(max_used, c)))
    return None
