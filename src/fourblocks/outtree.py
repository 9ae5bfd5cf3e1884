"""Spanning out-trees: levels, ancestry, and the final-tree rotation.

Levels count vertices on the root path, so the root has level 1 and a child
has its parent's level plus one. An arc (x,y) of the host digraph is forward
when level(x) < level(y) and backward otherwise (equal levels included).
A tree is final when every backward arc points into its tail's ancestor
chain; rotating offending arcs into the tree always terminates because each
rotation strictly raises some vertex's level. ``finalize`` queues tail
vertices, each with a cursor into its out-arcs. It marks a tail's root
path, indexed by level, only once the tail shows a backward arc, and tests
ancestry against that one marked path. After a rotation it keeps scanning
the same tail while that tail is still the smallest queued. Ancestor tests
on a built tree use its pre/post-order numbering and take O(1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Optional

from .digraph import Digraph
from .errors import UnreachableVertex


@dataclass(frozen=True)
class OutTree:
    """Rooted spanning out-tree with per-vertex parent links and levels."""

    root: int
    parent: tuple[Optional[int], ...]
    level: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def numbering(self) -> "TreeNumbering":
        """Pre/post-order numbers, built on first use in O(n)."""
        return TreeNumbering(self)


class TreeNumbering:
    """Pre/post-order numbers of an out-tree.

    y is an ancestor of x (reflexively) iff pre[y] <= pre[x] and
    post[x] <= post[y]. ``final_arcs`` holds the arc set the tree was last
    found final for, so ``is_final`` scans the arcs once per (tree, digraph).
    """

    __slots__ = ("pre", "post", "final_arcs")

    def __init__(self, t: OutTree):
        children: list[list[int]] = [[] for _ in range(t.n)]
        for v, p in enumerate(t.parent):
            if p is not None:
                children[p].append(v)
        pre = [-1] * t.n
        post = [-1] * t.n
        entered = exited = 0
        stack = [(t.root, False)]
        while stack:
            v, leaving = stack.pop()
            if leaving:
                post[v] = exited
                exited += 1
                continue
            pre[v] = entered
            entered += 1
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
        self.pre = pre
        self.post = post
        self.final_arcs: Optional[frozenset[tuple[int, int]]] = None

    def is_ancestor(self, y: int, x: int) -> bool:
        return self.pre[y] <= self.pre[x] and self.post[x] <= self.post[y]


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


def is_ancestor(t: OutTree, y: int, x: int) -> bool:
    """True iff y lies on the tree path from the root to x (reflexive)."""
    return t.numbering.is_ancestor(y, x)


def _check_vertex_count(d: Digraph, t: OutTree) -> None:
    if t.n != d.n:
        raise ValueError(f"tree has {t.n} vertices but the digraph has {d.n}")


def is_final(d: Digraph, t: OutTree) -> bool:
    """Every backward arc (x,y) must satisfy y on the root path of x."""
    _check_vertex_count(d, t)
    num = t.numbering
    if num.final_arcs is d.arcs:
        return True
    level = t.level
    for x, y in d.arcs:
        if level[x] >= level[y] and not num.is_ancestor(y, x):
            return False
    num.final_arcs = d.arcs
    return True


def finalize(d: Digraph, t: OutTree) -> OutTree:
    """Rotate backward arcs into the tree until it is final.

    An arc (x,y) offends when it is backward and y is not an ancestor of x.
    The smallest offending arc in (tail, head) order is rotated: y is
    reparented under x and the levels of y's subtree S are raised by the same
    amount. Every rotation strictly increases y's level, and no level ever
    decreases, so the total level sum is a strictly increasing potential
    bounded by n*n.

    The worklist is a min-heap of tail vertices. cursor[x] is the position,
    in ``d.csr()`` order, of the first out-arc of x not yet known not to
    offend. Invariant: every tail with an offending arc is queued, and no
    arc of a queued x before cursor[x] offends. A rotation changes the
    levels and root paths of S only, and x is not in S. A non-offending
    arc whose tail is outside S is forward, and stays forward because
    levels only rise, or points at an ancestor of its tail, which is
    outside S too. So only tails in S can gain an offending arc: each
    rotation resets their cursors to their first arc and queues them. The
    smallest queued tail, scanned from its cursor, thus yields the smallest
    offending arc: exactly the arc a rescan of all arcs from the start
    would pick, so the result is the same tree.

    After rotating (x,y), the scan of x goes on from the next arc while x
    is still the heap top. x is not in S, its arcs before (x,y) still do
    not offend, and (x,y) is now a tree arc, so forward. But the walk of S
    may have queued a tail smaller than x. Its offending arcs come before
    every arc of x, so the scan must stop there: cursor[x] moves past
    (x,y), x stays queued, and the heap picks the smaller tail. Going on
    with x would rotate in another order and could end in another tree.

    path[l] is the ancestor at level l of ``marked``, the last tail whose
    root path was marked, and depth is that tail's level; entries above
    depth are stale. A forward arc needs no ancestry test, so x is marked
    only when its scan meets an arc with level[y] <= level[x] while x is
    not ``marked`` already. Marking x walks up only until it meets a vertex
    u with level[u] <= depth and path[level[u]] == u, where the two root
    paths join. A rotation under x leaves x's root path alone, and any
    other rotation marks its own tail first, so the marks hold until the
    next marking. With x marked, a backward arc (x,y) offends iff
    path[level[y]] != y.
    """
    _check_vertex_count(d, t)
    n = t.n
    parent: list[Optional[int]] = list(t.parent)
    level: list[int] = list(t.level)
    children: list[set[int]] = [set() for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].add(v)
    indptr, head = d.csr()
    cursor = indptr[:-1]
    queued = [True] * n
    heap = list(range(n))  # ascending, so already a heap
    path = [t.root] * (n + 1)  # the root is the one vertex at level 1
    depth = 1
    marked = -1
    while heap:
        x = heap[0]
        lx = level[x]
        for e in range(cursor[x], indptr[x + 1]):
            y = head[e]
            ly = level[y]
            if ly > lx:
                continue
            if marked != x:
                u = x
                while level[u] > depth or path[level[u]] != u:
                    path[level[u]] = u
                    u = parent[u]  # type: ignore[assignment]
                marked = x
                depth = lx
            if path[ly] == y:
                continue
            children[parent[y]].discard(y)  # type: ignore[index]
            parent[y] = x
            children[x].add(y)
            shift = lx + 1 - ly
            subtree = [y]
            for u in subtree:  # grows while it is walked
                level[u] += shift
                cursor[u] = indptr[u]
                if not queued[u]:
                    queued[u] = True
                    heappush(heap, u)
                subtree.extend(children[u])
            if heap[0] != x:
                cursor[x] = e + 1
                break
        else:
            heappop(heap)
            queued[x] = False
    return OutTree(t.root, tuple(parent), tuple(level))
