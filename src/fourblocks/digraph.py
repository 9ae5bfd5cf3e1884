"""Core digraph and coloring types.

Vertices are always dense integer ids 0..n-1. A ``Digraph`` may contain
digons (both (u,v) and (v,u)) but never loops or duplicate arcs. Its
``UGraph`` view forgets orientations and collapses each digon to a single
edge. Colorings are plain vertex->color mappings; properness is always
judged on an undirected graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Optional, Sequence

from .errors import ParseError


class Digraph:
    """Loop-free directed graph on vertices 0..n-1, digons allowed."""

    __slots__ = ("n", "arcs", "_out", "_in", "_und")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arc_set:
            if u == v:
                raise ValueError(f"loop arc ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        self._build(n, arc_set)

    def _build(self, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """Set every field from arcs already checked, kept in input order."""
        self.n = n
        self.arcs = frozenset(arcs)
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        for vs in out + inn:
            vs.sort()
        self._out = tuple(map(tuple, out))
        self._in = tuple(map(tuple, inn))
        self._und: Optional[list[set[int]]] = None
        return self

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return self._in[u]

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def csr(self) -> tuple[list[int], list[int]]:
        """(indptr, indices): the out-neighbors of u are
        indices[indptr[u]:indptr[u+1]], in ascending order. Position i in
        indices numbers the arcs in (tail, head) order."""
        indptr = [0]
        indices: list[int] = []
        for vs in self._out:
            indices.extend(vs)
            indptr.append(len(indices))
        return indptr, indices

    def neighbor_sets(self) -> list[set[int]]:
        """Undirected neighbors of every vertex; a digon counts its neighbor
        once. Built on first use and shared by every caller, which must not
        mutate it."""
        if self._und is None:
            self._und = [set(out).union(inn) for out, inn in zip(self._out, self._in)]
        return self._und

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={len(self.arcs)})"


class UGraph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(vs)) for vs in adj)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def __eq__(self, other) -> bool:
        return isinstance(other, UGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Coloring:
    """Vertex -> nonnegative color id. Total on whatever graph it targets."""

    colors: dict[int, int]

    @property
    def palette_size(self) -> int:
        return len(set(self.colors.values()))

    def normalized(self) -> "Coloring":
        """Renumber colors to contiguous 0-based ids, by first appearance in
        ascending vertex order. Keeps certificates stable."""
        remap: dict[int, int] = {}
        out: dict[int, int] = {}
        for v in sorted(self.colors):
            c = self.colors[v]
            if c not in remap:
                remap[c] = len(remap)
            out[v] = remap[c]
        return Coloring(out)

    def as_list(self, n: int) -> list[int]:
        """Dense color list for a coloring total on 0..n-1."""
        if set(self.colors) != set(range(n)):
            raise ValueError("coloring is not total on 0..n-1")
        return [self.colors[v] for v in range(n)]


def underlying_graph(d: Digraph) -> UGraph:
    """Forget orientations; a digon collapses to one edge."""
    return UGraph(d.n, ((u, v) for u, v in d.arcs))


def is_strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if d.n == 0:
        raise ValueError("empty digraph has no connectivity status")
    if d.n == 1:
        return True
    return _reaches_all(d.n, d._out, 0) and _reaches_all(d.n, d._in, 0)


def _reaches_all(n: int, adj: Sequence[Sequence[int]], start: int) -> bool:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def is_proper(g: UGraph, c: Coloring) -> bool:
    """True iff no edge of g joins equal colors. Requires c total on g."""
    colors = c.colors
    for v in range(g.n):
        if v not in colors:
            raise ValueError(f"coloring not total: vertex {v} uncolored")
    return all(colors[u] != colors[v] for u, v in g.edges)


def product_coloring(
    c1: Coloring,
    c2: Coloring,
    v1: Iterable[int],
    v2: Iterable[int],
) -> Coloring:
    """Combine two proper colorings into one for the union of their hosts.

    Each vertex gets a pair: (phi1(x), 1) on v1 only, (phi1(x), phi2(x)) on
    the intersection, (1, phi2(x)) on v2 only, with phi the 1-based color.
    Pairs are then flattened to contiguous ids. When both inputs are proper
    on their graphs the result is proper on the union, with palette at most
    palette(c1) * palette(c2).
    """
    s1, s2 = set(v1), set(v2)
    for v in s1:
        if v not in c1.colors:
            raise ValueError(f"c1 not total on v1: vertex {v} uncolored")
    for v in s2:
        if v not in c2.colors:
            raise ValueError(f"c2 not total on v2: vertex {v} uncolored")
    pairs: dict[int, tuple[int, int]] = {}
    for x in s1 | s2:
        if x in s1 and x in s2:
            pairs[x] = (c1.colors[x] + 1, c2.colors[x] + 1)
        elif x in s1:
            pairs[x] = (c1.colors[x] + 1, 1)
        else:
            pairs[x] = (1, c2.colors[x] + 1)
    remap: dict[tuple[int, int], int] = {}
    out: dict[int, int] = {}
    for x in sorted(pairs):
        p = pairs[x]
        if p not in remap:
            remap[p] = len(remap)
        out[x] = remap[p]
    return Coloring(out)


# --- shared text format -----------------------------------------------------
#
# line 1: "n m", then m lines "u v" (0-indexed). Full-line comments start
# with '#'. Loops and duplicate arcs are rejected with line numbers.
# Text of ASCII-digit pairs (at most 18 digits each, which int() always takes)
# is read in bulk; _PLAIN is matched, not fullmatched, since a failed fullmatch
# backtracks over every line. Any other text, or one failing a check, goes to
# the line parser, which alone raises ParseError: both give the same digraph.

_PLAIN = re.compile(r"(?:[ \t]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*(?:\r?\n|\Z))+")


def parse_digraph(text: str) -> Digraph:
    plain = _PLAIN.match(text)
    bulk = _parse_bulk(text) if plain and plain.end() == len(text) else None
    return Digraph.__new__(Digraph)._build(*bulk) if bulk else _parse_lines(text)


def _parse_bulk(text: str) -> Optional[tuple[int, frozenset[tuple[int, int]]]]:
    """(n, arcs) from text of plain digit lines, or None if a check fails."""
    nums = list(map(int, text.split()))
    n, m = nums[0], nums[1]
    us, vs = nums[2::2], nums[3::2]
    if len(us) != m or max(us, default=-1) >= n or max(vs, default=-1) >= n:
        return None
    arcs = frozenset(zip(us, vs))
    return (n, arcs) if len(arcs) == m and not any(map(eq, us, vs)) else None


def _parse_lines(text: str) -> Digraph:
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
    return Digraph.__new__(Digraph)._build(header[0], arcs)


def format_digraph(d: Digraph) -> str:
    lines = [f"{d.n} {len(d.arcs)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(d.arcs))
    return "\n".join(lines) + "\n"
