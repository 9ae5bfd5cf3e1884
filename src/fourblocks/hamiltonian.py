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
u along C[v,u]. Any violation pinpoints a subdivision. The checker walks
the cycle once, O(n + m) interpreted steps, counting each vertex's
neighbors so far in packed fields of one ``array``, and keeps that counter
as one integer, a snapshot, only where some chord's zone starts or ends.
A chord's zone counts are the difference of two snapshots; one byte slice
of it holds the whole gap, which ``bytes.translate`` tests inside C. It
keeps one record per violating chord, and builds a row only on demand.
"""

from __future__ import annotations

import operator
import sys
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, repeat
from typing import NamedTuple, Optional, Union

from .decomposition import greedy_reverse, peel_low_degree
from .digraph import Coloring, Digraph
from .errors import BudgetExceeded
from .witness import DEFAULT_BUDGET, CyclePattern, SubdivisionWitness
from .witness import find_cycle_subdivision, witness_to_json


@dataclass(frozen=True)
class HamiltonianCycle:
    """Cyclic vertex order covering all vertices; consecutive pairs are arcs."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def is_valid_for(self, d: Digraph) -> bool:
        if len(self.order) != d.n or d.n < 2 or sorted(self.order) != list(range(d.n)):
            return False
        return d.arcs.issuperset(zip(self.order, self.order[1:] + self.order[:1]))

    def positions(self) -> list[int]:
        """positions()[v]: the index of vertex v in ``order``."""
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return pos


def find_hamiltonian_cycle(
    d: Digraph, budget: int = DEFAULT_BUDGET
) -> Optional[HamiltonianCycle]:
    """Exact backtracking; canonical start at vertex 0.

    Depth-first over out-neighbors in ascending order, with an explicit
    stack of neighbor iterators (one per path vertex), so long cycles need
    no recursion. Every path extension, the start included, costs one node
    of the budget.
    """
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
    """The peel emptied the digraph: a proper coloring within 6k colors."""

    coloring: Coloring
    k: int

    @property
    def bound(self) -> int:
        return 6 * self.k

    def to_json_dict(self) -> dict:
        n = len(self.coloring.colors)
        return {
            "outcome": "coloring",
            "bound": self.bound,
            "colors": self.coloring.as_list(n),
            "k": self.k,
        }


@dataclass(frozen=True)
class PeelStall:
    """The peel stalled: every core vertex keeps >= 6k core neighbors."""

    core: frozenset[int]
    k: int
    witness: Optional[SubdivisionWitness]

    def to_json_dict(self) -> dict:
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
    budget: int = DEFAULT_BUDGET,
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
    adj = d.neighbor_sets()
    order, core = peel_low_degree(range(d.n), adj, 6 * k - 1)
    if not core:
        coloring = Coloring(greedy_reverse(adj, order)).normalized()
        assert coloring.palette_size <= 6 * k
        return PeelColoring(coloring, k)
    for v in core:
        assert len(adj[v] & core) >= 6 * k
    try:
        witness = find_cycle_subdivision(d, CyclePattern.from_k(k, k), budget)
    except BudgetExceeded:
        witness = None
    return PeelStall(frozenset(core), k, witness)


class ChordViolation(NamedTuple):
    """Gap vertex w of the chord (v,u) with count > 2 neighbors in its zone.

    A plain (u, v, w, count) tuple, so it compares equal to one."""

    u: int
    v: int
    w: int
    count: int


# the zone counts a gap vertex may have, and a table mapping larger bytes to 1
_SMALL = bytes(range(3))
_OVER = bytes(3) + bytes([1]) * 253

# ChordViolation from one (u, v, w, count) tuple, skipping the interpreted
# __new__ that NamedTuple generates
_violation = partial(tuple.__new__, ChordViolation)


class ChordViolations(Sequence):
    """The rows of a chord check, read-only, stored one record per chord.

    ``chords`` holds one ``(u, v, ws, counts)`` record per chord (v,u) with
    a violating gap vertex: the tuple ``ws`` of its gap vertices with more
    than 2 zone neighbors, in cycle order from u, and the tuple ``counts``
    of those neighbor counts. The sequence reads as the ``ChordViolation`` rows
    ``(u, v, ws[j], counts[j])`` of each record in turn, and compares equal
    to the list of those rows. ``len`` and ``bool`` read a prefix sum; a row
    object is built only when it is indexed or iterated.
    """

    __slots__ = ("chords", "_starts")
    __hash__ = None

    def __init__(self, chords: tuple):
        self.chords = chords
        # _starts[c]: the index of the first row of chords[c]; the last
        # entry is the row count
        self._starts = [0, *accumulate(len(ws) for _, _, ws, _ in chords)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> ChordViolation:
        """The row at integer index ``i`` (negative counts from the end);
        integer indices only, no slices."""
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("chord violation index out of range")
        c = bisect_right(self._starts, i) - 1
        u, v, ws, counts = self.chords[c]
        j = i - self._starts[c]
        return _violation((u, v, ws[j], counts[j]))

    def __iter__(self):
        return chain.from_iterable(
            map(_violation, zip(repeat(u), repeat(v), ws, counts))
            for u, v, ws, counts in self.chords
        )

    def __eq__(self, other):
        if isinstance(other, ChordViolations):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return f"ChordViolations({self.chords!r})"


def check_chord_neighbor_bound(
    d: Digraph, c: HamiltonianCycle, k: int
) -> ChordViolations:
    """All (u,v,w) triples where w breaks the 2-neighbor zone bound.

    For an arc (v,u) off the cycle, the zone is the set of vertices at cycle
    distance k..(L-k) from v along C[v,u] (L = length of C[v,u]); triples
    whose zone is empty are skipped. An empty result is expected whenever
    the digraph has no subdivision of C(k,1,k,1). Violations come in sorted
    arc order, then in cycle order of w from u. They are returned as a
    ``ChordViolations`` sequence of ``ChordViolation`` rows, which keeps one
    ``(u, v, ws, counts)`` record per violating chord.

    One walk along the cycle keeps cnt[s], the number of neighbors of the
    vertex at position s among the first x positions, in an ``array`` of n
    unsigned W-byte fields, W chosen so that the largest undirected degree
    D stays below 2^(8W-1). After each x that a chord reads, and after
    x = n, it stores cnt as one integer snap[x]; snap[0] is 0. On the line
    0..2n-1, which lays the positions out twice, the zone of a chord (v,u)
    is [a, b), a = (pos(v) + k) mod n and b = a + L - 2k + 1, and its
    counts are

    - snap[b] - snap[a] when the zone ends at or before n-1 (b <= n),
    - snap[b-n] + snap[n] - snap[a] when it runs across n-1 (b > n).

    Counters only grow and a zone count is at most D, so no field borrows
    or carries. The gap [lo, hi) = [pos(u) + 1, pos(u) + n - L), mod n, is
    one slice of the counts' bytes laid out twice. With one-byte fields
    (D <= 127, every benchmark instance) a ``bytes.translate`` deleting the
    bytes 0, 1 and 2 keeps the counts above 2 in order; if any are left, a
    ``translate`` through ``_OVER`` selects the gap vertices with one
    ``compress``. Wider fields OR ``_OVER`` of each field's low byte with
    its higher bytes through ``int.from_bytes``, and select the counts with
    a second ``compress`` over a ``memoryview``. Past the walk's O(n + m)
    interpreted steps, the work, O(n) bytes per chord, runs inside C. The
    snapshots that chords read are all that is kept: O(min(n, 2c) * n * W)
    bytes for c chords.
    """
    if k < 1:
        raise ValueError("block parameter k must be positive")
    if not c.is_valid_for(d):
        raise ValueError("cycle is not a Hamiltonian directed cycle of the digraph")
    n = c.n
    order = c.order
    pos = c.positions()
    adj = d.neighbor_sets()

    chords = []
    # marked[x]: some chord reads snap[x]; snap[n] is the total
    marked = bytearray(n + 1)
    marked[n] = 1
    # arcs (v, u) in sorted order: out-neighbor tuples are ascending
    for v in range(n):
        pv = pos[v]
        for u in d.out_neighbors(v):
            pu = pos[u]
            L = (pu - pv) % n
            # a cycle arc (L = 1) has no zone, and its reverse (L = n-1) an
            # empty gap, so arcs whose underlying edge lies on C add no rows
            if L < 2 * k:
                continue
            a, lo = (pv + k) % n, (pu + 1) % n
            b = a + L - 2 * k + 1
            chords.append((u, v, lo, lo + n - L - 1, a, b))
            marked[a] = marked[b - n if b > n else b] = 1

    # the narrowest unsigned field whose top bit stays clear up to the
    # largest degree D; a zone count, at most D, fits in it too
    degree = max(map(len, adj))
    code = next(f for f in "BHILQ" if degree >> (8 * array(f).itemsize - 1) == 0)
    width = array(code).itemsize
    endian = sys.byteorder
    # a field's low byte, and its higher bytes, all 0 below a count of 256
    low = 0 if endian == "little" else width - 1
    high = [j for j in range(width) if j != low]

    snap = [0] * (n + 1)
    cnt = array(code, bytes(n * width))
    for x, v in enumerate(order, 1):
        for y in adj[v]:
            cnt[pos[y]] += 1
        if marked[x]:
            snap[x] = int.from_bytes(cnt, endian)

    line = order + order
    found = []
    for u, v, lo, hi, a, b in chords:
        zone = snap[b] - snap[a] if b <= n else snap[b - n] + snap[n] - snap[a]
        gb = (zone.to_bytes(n * width, endian) * 2)[lo * width:hi * width]
        if width == 1:
            counts = gb.translate(None, _SMALL)
            if not counts:
                continue
            over = gb.translate(_OVER)
        else:
            over = int.from_bytes(gb[low::width].translate(_OVER), "little")
            for j in high:
                over |= int.from_bytes(gb[j::width], "little")
            if not over:
                continue
            over = over.to_bytes(hi - lo, "little")
            counts = compress(memoryview(gb).cast(code), over)
        found.append((u, v, tuple(compress(line[lo:hi], over)), tuple(counts)))
    return ChordViolations(tuple(found))
