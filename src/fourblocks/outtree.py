"""Spanning out-trees: levels, ancestry, and the final-tree rotation.

The pipeline finalizes ``depth_first_out_tree``; ``spanning_out_tree`` is
breadth-first. A final tree is deep whatever the start, so a deep start
leaves ``finalize`` fewer rotations.

Levels count vertices on the root path, so the root has level 1 and a child
has its parent's level plus one. An arc (x,y) of the host digraph is forward
when level(x) < level(y) and backward otherwise (equal levels included).
A tree is final when every backward arc points into its tail's ancestor
chain; rotating offending arcs into the tree always terminates because each
rotation strictly raises some vertex's level. ``finalize`` queues tail
vertices, each with a cursor into its out-list. It marks a tail's root
path, indexed by level, only once the tail shows a backward arc, and tests
ancestry against that one marked path. After a rotation it keeps scanning
the same tail while that tail is still the smallest queued, and it queues
a vertex of the moved subtree only when one of its arcs leaving that
subtree now offends, or resets its cursor if it is queued already.
Ancestor tests on a built tree use its pre-order numbers and subtree
sizes and take O(1). A tree and its numbering are never written after
construction; ``is_final`` rescans the arcs on every call, and the
pipeline itself checks finality arc by arc in
``decomposition.arc_partition``, where each arc is read anyway.
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
        """Pre-order numbers and subtree sizes, built on first use in O(n)."""
        return TreeNumbering(self)


class TreeNumbering:
    """Pre-order numbers and subtree sizes of an out-tree, fixed once built.

    A subtree takes consecutive pre-order numbers, so y is an ancestor of x
    (reflexively) iff pre[y] <= pre[x] < pre[y] + size[y].
    """

    __slots__ = ("pre", "size")

    def __init__(self, t: OutTree):
        children: list[list[int]] = [[] for _ in range(t.n)]
        for v, p in enumerate(t.parent):
            if p is not None:
                children[p].append(v)
        pre = [-1] * t.n
        order: list[int] = []
        stack = [t.root]
        while stack:
            v = stack.pop()
            pre[v] = len(order)
            order.append(v)
            stack.extend(children[v])
        parent, size = t.parent, [1] * t.n
        for v in reversed(order):  # a subtree's sizes are summed before its root's
            p = parent[v]
            if p is not None:
                size[p] += size[v]
        self.pre = pre
        self.size = size

    def is_ancestor(self, y: int, x: int) -> bool:
        pre = self.pre
        return pre[y] <= pre[x] < pre[y] + self.size[y]


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


def depth_first_out_tree(d: Digraph, r: int) -> OutTree:
    """Depth-first spanning out-tree rooted at r, out-neighbors ascending,
    each vertex taken on first sight; level = DFS depth + 1. The stack holds
    each open vertex with an iterator into its out-list, so no depth recurses."""
    if not (0 <= r < d.n):
        raise ValueError(f"root {r} out of range")
    out = d.out_lists()
    parent: list[Optional[int]] = [None] * d.n
    level = [0] * d.n
    level[r] = 1
    stack = [(r, iter(out[r]))]
    while stack:
        u, heads = stack[-1]
        for v in heads:
            if level[v] == 0:
                parent[v] = u
                level[v] = len(stack) + 1
                stack.append((v, iter(out[v])))
                break
        else:
            stack.pop()
    if 0 in level:
        raise UnreachableVertex(level.index(0))
    return OutTree(r, tuple(parent), tuple(level))


def is_ancestor(t: OutTree, y: int, x: int) -> bool:
    """True iff y lies on the tree path from the root to x (reflexive)."""
    return t.numbering.is_ancestor(y, x)


def _check_vertex_count(d: Digraph, t: OutTree) -> None:
    if t.n != d.n:
        raise ValueError(f"tree has {t.n} vertices but the digraph has {d.n}")


def is_final(d: Digraph, t: OutTree) -> bool:
    """True iff every backward arc (x,y) has y on the root path of x: one
    scan of the arcs, O(m) on every call."""
    _check_vertex_count(d, t)
    level, num = t.level, t.numbering
    return all(level[x] < level[y] or num.is_ancestor(y, x) for x, y in d.arcs)


def finalize(d: Digraph, t: OutTree) -> OutTree:
    """Rotate backward arcs into the tree until it is final.

    An arc (x,y) offends when it is backward and y is not an ancestor of x.
    The smallest offending arc in (tail, head) order is rotated: y is
    reparented under x and the levels of y's subtree S are raised by the same
    amount. Every rotation strictly increases y's level, and no level ever
    decreases, so the total level sum is a strictly increasing potential
    bounded by n*n.

    The worklist is a min-heap of tail vertices. cursor[x] is the index, in
    x's ascending out-list, of the first out-arc of x not yet known not to
    offend. Invariant: every tail with an offending arc is queued, and no
    arc of a queued x before cursor[x] offends. The smallest queued tail,
    scanned from its cursor, thus yields the smallest offending arc:
    exactly the arc a rescan of all arcs from the start would pick, so the
    result is the same tree.

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

    A rotation changes the levels and root paths of S only, and x is not
    in S. A non-offending arc whose tail is outside S is forward, and stays
    forward because levels only rise, or points at an ancestor of its
    tail, which is outside S too. An arc with both ends in S keeps its
    level order and its ancestry, since all of S moves by the same shift
    with its tree arcs. So only a vertex u of S with an arc (u,b) leaving S
    can gain an offending arc. The walk of S stamps its vertices with the
    rotation's number, and a second pass over S then looks at each u. If u
    is not queued, none of its arcs offended before the rotation, so only
    its arcs to unstamped heads are tested, and u is queued, with its
    cursor on the first of them that offends, only if one does. The test
    reads x's marked path: x is ``marked`` and depth is level[x], so
    path[1..level[x]] is x's root path, which the rotation leaves alone,
    and b outside S is an ancestor of u iff it lies on that path. (u,b)
    thus offends iff level[b] <= level[u] and either level[b] > level[x]
    (path is stale there) or path[level[b]] != b. If u is already queued,
    its cursor goes back to its first arc: an arc before the cursor may
    leave S and offend now, and a kept cursor would skip it.
    """
    _check_vertex_count(d, t)
    n = t.n
    parent: list[Optional[int]] = list(t.parent)
    level: list[int] = list(t.level)
    children: list[set[int]] = [set() for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].add(v)
    out = d.out_lists()
    cursor = [0] * n
    queued = [True] * n
    heap = list(range(n))  # ascending, so already a heap
    path = [t.root] * (n + 1)  # the root is the one vertex at level 1
    depth = 1
    marked = -1
    stamp = [0] * n  # stamp[u] == rotation: u is in the subtree just moved
    rotation = 0
    while heap:
        x = heap[0]
        lx = level[x]
        heads = out[x]
        for e in range(cursor[x], len(heads)):
            y = heads[e]
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
            rotation += 1
            subtree = [y]
            for u in subtree:  # grows while it is walked
                level[u] += shift
                stamp[u] = rotation
                subtree.extend(children[u])
            for u in subtree:
                if queued[u]:
                    cursor[u] = 0
                    continue
                lu = level[u]
                for f, b in enumerate(out[u]):
                    lb = level[b]
                    if (lb <= lu and stamp[b] != rotation
                            and (lb > lx or path[lb] != b)):
                        cursor[u] = f
                        queued[u] = True
                        heappush(heap, u)
                        break
            if heap[0] != x:
                cursor[x] = e + 1
                break
        else:
            heappop(heap)
            queued[x] = False
    return OutTree(t.root, tuple(parent), tuple(level))
