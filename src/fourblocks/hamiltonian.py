"""Hamiltonian digraphs: exact cycle search, the 6k-color peel, and the
chord neighbor-bound checker.

A Hamiltonian digraph with no subdivision of C(k1,1,k3,1) (k = max(k1,k3))
is (6k-1)-degenerate, so the low-degree peel either empties the graph and
yields a proper coloring with at most 6k colors, or stalls on a core of
minimum degree >= 6k whose existence forces a subdivision.

The chord checker tests a local consequence of subdivision-freeness: for
every arc (v,u) whose underlying edge is not on the Hamiltonian cycle C,
every vertex w strictly inside C]u,v[ has at most 2 neighbors among the
cycle vertices that lie at least k arcs after v and at least k arcs before
u along C[v,u]. Any violation pinpoints a subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .decomposition import greedy_reverse, induced_subdigraph, peel_low_degree
from .digraph import Coloring, Digraph
from .errors import BudgetExceeded
from .witness import CyclePattern, SubdivisionWitness, find_cycle_subdivision


@dataclass(frozen=True)
class HamiltonianCycle:
    """Cyclic vertex order covering all vertices; consecutive pairs are arcs."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def is_valid_for(self, d: Digraph) -> bool:
        if sorted(self.order) != list(range(d.n)) or d.n < 2:
            return False
        return all(
            d.has_arc(u, v)
            for u, v in zip(self.order, self.order[1:] + self.order[:1])
        )

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


def find_hamiltonian_cycle(
    d: Digraph, budget: Optional[int] = None
) -> Optional[HamiltonianCycle]:
    """Exact backtracking; canonical start at vertex 0.

    Depth-first over out-neighbors in ascending order, with an explicit
    stack of neighbor iterators (one per path vertex), so long cycles need
    no recursion. Every path extension, the start included, costs one node
    of the budget.
    """
    from .witness import default_budget

    if budget is None:
        budget = default_budget()
    if d.n < 2:
        return None
    used = bytearray(d.n)
    used[0] = 1
    path = [0]
    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(nodes)
    stack = [iter(d.out_neighbors(0))]
    while stack:
        for v in stack[-1]:
            if used[v]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            if len(path) + 1 == d.n:
                if d.has_arc(v, 0):
                    path.append(v)
                    return HamiltonianCycle(tuple(path))
                continue
            used[v] = 1
            path.append(v)
            stack.append(iter(d.out_neighbors(v)))
            break
        else:
            stack.pop()
            used[path.pop()] = 0
    return None


@dataclass(frozen=True)
class PeelColoring:
    coloring: Coloring
    bound: int

    def to_json_dict(self) -> dict:
        n = len(self.coloring.colors)
        return {
            "outcome": "coloring",
            "bound": self.bound,
            "colors": self.coloring.as_list(n),
        }


@dataclass(frozen=True)
class PeelStall:
    """The peel stalled: every core vertex keeps >= 6k core neighbors."""

    core: frozenset[int]
    k: int
    witness: Optional[SubdivisionWitness]

    def to_json_dict(self) -> dict:
        from .witness import witness_to_json

        return {
            "outcome": "stall",
            "k": self.k,
            "core": sorted(self.core),
            "witness": (
                witness_to_json(self.witness, CyclePattern.from_k(self.k, self.k))
                if self.witness is not None
                else None
            ),
        }


PeelCertificate = Union[PeelColoring, PeelStall]


def color_hamiltonian(
    d: Digraph,
    c: HamiltonianCycle,
    k1: int,
    k3: int,
    budget: Optional[int] = None,
) -> PeelCertificate:
    """Peel at degree 6k-1 and greedy-color, or report the stuck core.

    On a stall the exact subdivision search runs on the whole digraph; the
    witness is attached when found within budget, otherwise the core alone
    is the falsifiable evidence.
    """
    if not c.is_valid_for(d):
        raise ValueError("cycle is not a Hamiltonian directed cycle of the digraph")
    if k1 < 1 or k3 < 1:
        raise ValueError("block lengths must be positive")
    k = max(k1, k3)
    whole = induced_subdigraph(d, range(d.n))
    order, core = peel_low_degree(whole, 6 * k - 1)
    if not core:
        coloring = Coloring(greedy_reverse(whole, order)).normalized()
        assert coloring.palette_size <= 6 * k
        return PeelColoring(coloring, 6 * k)
    for v in core:
        assert sum(1 for w in whole.und_adj[v] if w in core) >= 6 * k
    witness = None
    try:
        witness = find_cycle_subdivision(d, CyclePattern.from_k(k, k), budget)
    except BudgetExceeded:
        witness = None
    return PeelStall(frozenset(core), k, witness)


@dataclass(frozen=True)
class ChordViolation:
    u: int
    v: int
    w: int
    count: int

    def to_json_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "w": self.w, "count": self.count}


def check_chord_neighbor_bound(
    d: Digraph, c: HamiltonianCycle, k: int
) -> list[ChordViolation]:
    """All (u,v,w) triples where w breaks the 2-neighbor zone bound.

    For an arc (v,u) off the cycle, the zone is the set of vertices at cycle
    distance k..(L-k) from v along C[v,u] (L = length of C[v,u]); triples
    whose zone is empty are skipped. An empty result is expected whenever
    the digraph has no subdivision of C(k,1,k,1).
    """
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

    violations: list[ChordViolation] = []
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
                violations.append(ChordViolation(u, v, w, count))
    return violations


def violations_to_json(violations: list[ChordViolation]) -> list[dict]:
    return [v.to_json_dict() for v in violations]
