"""Core digraph and coloring types.

Vertices are always dense integer ids 0..n-1. A ``Digraph`` may contain
digons (both (u,v) and (v,u)) but never loops or duplicate arcs. It stores
its arcs once, as one sorted out-list per vertex, so a vertex without
out-arcs costs one shared empty tuple, and it keeps their count m. Every
layer reads the digraph's adjacency from those out-lists, one at a time or
all of them through ``out_lists()``, and every other view (the arc set, the
undirected neighbor sets, the strong components) is read off them. Its
``UGraph`` view forgets orientations and collapses each digon to a single
edge. Colorings are plain vertex->color mappings; properness is always
judged on an undirected graph.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from operator import eq
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import ParseError


class Digraph:
    """Loop-free directed graph on vertices 0..n-1, digons allowed: n, the
    arc count m, and the heads of each vertex's out-arcs in ascending order."""

    __slots__ = ("n", "m", "_out", "_und")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        heads: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in arcs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop arc ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            heads[u].add(v)
        self._build(n, heads)

    def _build(self, n: int, heads: Mapping[int, set[int]]) -> "Digraph":
        """Set every field from the checked heads of each tail. Work beyond
        one shared empty tuple per vertex follows the arcs."""
        self.n = n
        self.m = sum(map(len, heads.values()))
        out = self._out = [()] * n
        for u, vs in heads.items():
            out[u] = tuple(sorted(vs))
        self._und: Optional[list[set[int]]] = None
        return self

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Every arc (u,v), built anew from the out-lists on each read, in
        O(n + m). No module of the library reads it."""
        return frozenset((u, v) for u, vs in enumerate(self._out) for v in vs)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def out_degree(self, u: int) -> int:
        return len(self._out[u])

    def out_lists(self) -> Sequence[tuple[int, ...]]:
        """The out-neighbors of every vertex, indexed by vertex, each tuple
        in ascending order. Shared by every caller, which must not mutate
        it."""
        return self._out

    def neighbor_sets(self) -> list[set[int]]:
        """Undirected neighbors of every vertex; a digon counts its neighbor
        once. Built on first use and shared by every caller, which must not
        mutate it."""
        if self._und is None:
            und = [set(vs) for vs in self._out]
            for u, vs in enumerate(self._out):
                for v in vs:
                    und[v].add(u)
            self._und = und
        return self._und

    def has_arc(self, u: int, v: int) -> bool:
        """Whether (u,v) is an arc, by bisecting u's out-list; False for
        any u outside 0..n-1."""
        vs = self._out[u] if 0 <= u < self.n else ()
        i = bisect_left(vs, v)
        return i < len(vs) and vs[i] == v

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._out)))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


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
    """Vertex -> nonnegative color id. Total on whatever graph it targets.

    Before ``normalized`` renumbers them, colors may be any hashable keys."""

    colors: dict[int, int]

    @property
    def palette_size(self) -> int:
        return len(set(self.colors.values()))

    def normalized(self) -> "Coloring":
        """Renumber colors to contiguous 0-based ids, by first appearance in
        ascending vertex order. Keeps certificates stable."""
        vertices = sorted(self.colors)
        return Coloring(_first_appearance(vertices, map(self.colors.get, vertices)))

    def as_list(self, n: int) -> list[int]:
        """Dense color list for a coloring total on 0..n-1."""
        if set(self.colors) != set(range(n)):
            raise ValueError("coloring is not total on 0..n-1")
        return [self.colors[v] for v in range(n)]


def underlying_graph(d: Digraph) -> UGraph:
    """Forget orientations; a digon collapses to one edge."""
    return UGraph(d.n, ((u, v) for u, vs in enumerate(d.out_lists()) for v in vs))


def is_strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    if d.n == 0:
        raise ValueError("empty digraph has no connectivity status")
    if d.n == 1:
        return True
    return d.m >= d.n and not any(strong_components(d))


def strong_components(d: Digraph) -> list[int]:
    """Strong component id of every vertex (Tarjan 1972), numbered in the
    order the components complete, so an arc never leads to a higher id.

    Depth-first from each unvisited root in ascending order, out-neighbors
    in ascending order, on an explicit stack of out-list iterators. A live
    vertex's index is its position on the component stack, so a completed
    component leaves the stack as one slice. Its vertices then hold n + id,
    above every stack position, so an arc into it never lowers a low-link."""
    out, n = d.out_lists(), d.n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    done = n
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = 0  # the stack is empty between roots
        stack.append(root)
        frames = [(root, iter(out[root]))]
        while frames:
            v, heads = frames[-1]
            lv = low[v]
            for w in heads:
                iw = index[w]
                if iw < 0:
                    low[v] = lv
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    frames.append((w, iter(out[w])))
                    break
                if iw < lv:
                    lv = iw
            else:
                frames.pop()
                if lv == index[v]:
                    for w in stack[lv:]:
                        index[w] = done
                    del stack[lv:]
                    done += 1
                else:
                    u = frames[-1][0]
                    if lv < low[u]:
                        low[u] = lv
    return [i - n for i in index]


def is_proper(g: UGraph, c: Coloring) -> bool:
    """True iff no edge of g joins equal colors. Requires c total on g."""
    colors = c.colors
    for v in range(g.n):
        if v not in colors:
            raise ValueError(f"coloring not total: vertex {v} uncolored")
    return all(colors[u] != colors[v] for u, v in g.edges)


def _first_appearance(vertices: Iterable[int], keys: Iterable[Hashable]) -> dict[int, int]:
    """vertex -> 0-based id of its key, ids numbered by first appearance in
    the order given; vertices and keys run in step."""
    ids: dict[Hashable, int] = {}
    return {v: ids.setdefault(key, len(ids)) for v, key in zip(vertices, keys)}


def product_coloring(*parts: tuple[Coloring, Iterable[int]]) -> Coloring:
    """Combine proper colorings, each given with its host, into one for the
    union of the hosts.

    Each vertex gets a key with one entry per part: 1 + its color in that
    part if the vertex is in the part's host, else 1. Keys are then
    renumbered to contiguous ids by first appearance in ascending vertex
    order. When every part is proper on its graph the result is proper on
    the union, with palette at most the product of the parts' palettes.
    """
    hosts = [set(host) for _, host in parts]
    gaps = [(i, gap) for i, ((c, _), host) in enumerate(zip(parts, hosts))
            if (gap := host - c.colors.keys())]
    if gaps:
        i, gap = gaps[0]
        raise ValueError(f"parts[{i}] not total on its host: vertex {min(gap)} uncolored")
    union = sorted(set().union(*hosts))
    columns = [[c.colors[x] + 1 if x in host else 1 for x in union]
               for (c, _), host in zip(parts, hosts)]
    return Coloring(_first_appearance(union, zip(*columns)))


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
    d = _parse_bulk(text) if plain and plain.end() == len(text) else None
    return d if d is not None else _parse_lines(text)


def _parse_bulk(text: str) -> Optional[Digraph]:
    """The digraph of text of plain digit lines, or None if a check fails;
    a duplicate arc shows as fewer distinct arcs than declared."""
    nums = list(map(int, text.split()))
    n, m = nums[0], nums[1]
    us, vs = nums[2::2], nums[3::2]
    if len(us) != m or max(us, default=-1) >= n or max(vs, default=-1) >= n:
        return None
    heads: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in zip(us, vs):
        heads[u].add(v)
    d = Digraph.__new__(Digraph)._build(n, heads)
    return d if d.m == m and not any(map(eq, us, vs)) else None


def _parse_lines(text: str) -> Digraph:
    header: Optional[tuple[int, int]] = None
    heads: defaultdict[int, set[int]] = defaultdict(set)
    count = 0
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
        if v in heads[u]:
            raise ParseError(lineno, f"duplicate arc ({u},{v})")
        heads[u].add(v)
        count += 1
        if count > header[1]:
            raise ParseError(lineno, f"more than the declared {header[1]} arcs")
    if header is None:
        raise ParseError(1, "empty input: missing 'n m' header")
    if count != header[1]:
        raise ParseError(
            len(text.splitlines()) or 1,
            f"declared {header[1]} arcs but found {count}",
        )
    return Digraph.__new__(Digraph)._build(header[0], heads)


def format_digraph(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines.extend(f"{u} {v}" for u, vs in enumerate(d.out_lists()) for v in vs)
    return "\n".join(lines) + "\n"
