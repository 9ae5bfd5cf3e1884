"""Spanning out-trees: levels, ancestry, and the final-tree rotation.

Levels count vertices on the root path, so the root has level 1 and a child
has its parent's level plus one. An arc (x,y) of the host digraph is forward
when level(x) < level(y) and backward otherwise (equal levels included).
A tree is final when every backward arc points into its tail's ancestor
chain; rotating offending arcs into the tree always terminates because each
rotation strictly raises some vertex's level. Ancestor tests on a built tree
use its pre/post-order numbering and take O(1).
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

    def tree_arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (p, v) for v, p in enumerate(self.parent) if p is not None
        )

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


def is_final(d: Digraph, t: OutTree) -> bool:
    """Every backward arc (x,y) must satisfy y on the root path of x."""
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

    Arcs are numbered by their position in ``d.csr()``, which lists them in
    (tail, head) order, so a min-heap of arc ids pops them in that order.
    Invariant: the heap holds every offending arc exactly once, plus arcs
    that stopped offending and are dropped when popped; no arc is ever in
    it twice. A rotation changes the levels and root paths of S only. An
    arc with both ends in S keeps its level difference and its ancestry. An
    arc (w,u) entering S offends afterwards only if it offended before,
    because u's level only rose and u was never an ancestor of w. So only
    arcs leaving S can start to offend; after each rotation those that
    offend are pushed unless already queued. The first popped arc that
    still offends is therefore the smallest offending arc: exactly the arc
    a rescan of all arcs from the start would pick, so the result is the
    same tree.

    stamp[e] is -1 while arc e is not queued, and otherwise the number of
    the last rotation after which e was seen to offend. A popped arc (x,y)
    is rechecked only if x or y moved after its stamp. If only y moved, x
    keeps its root path, which never held y, so (x,y) still offends iff it
    is still backward; only a moved x needs a walk up the tree.
    """
    n = t.n
    parent: list[Optional[int]] = list(t.parent)
    level: list[int] = list(t.level)
    children: list[set[int]] = [set() for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].add(v)
    indptr, head = d.csr()
    tail = [x for x in range(n) for _ in range(indptr[x], indptr[x + 1])]

    def offends(x: int, y: int) -> bool:
        ly = level[y]
        if level[x] < ly:
            return False
        while level[x] > ly:
            x = parent[x]  # type: ignore[assignment]
        return x != y

    # ids ascend, so the list is already a heap
    heap = [e for e, x in enumerate(tail) if offends(x, head[e])]
    stamp = [-1] * len(head)
    for e in heap:
        stamp[e] = 0
    moved = [0] * n  # number of the last rotation whose subtree held the vertex
    on_path = [0] * n  # number of the last rotation that marked it above x
    rotations = 0
    while heap:
        e = heappop(heap)
        x, y, r = tail[e], head[e], stamp[e]
        stamp[e] = -1
        if moved[x] > r:
            if not offends(x, y):
                continue
        elif moved[y] > r and level[x] < level[y]:
            continue
        rotations += 1
        children[parent[y]].discard(y)  # type: ignore[index]
        parent[y] = x
        children[x].add(y)
        shift = level[x] + 1 - level[y]
        subtree = [y]
        for u in subtree:  # grows while it is walked
            level[u] += shift
            moved[u] = rotations
            subtree.extend(children[u])
        # Outside S, w is an ancestor of u in S iff it is an ancestor of x;
        # the root path of x is marked once, only as far up as some w needs.
        top = x
        on_path[x] = rotations
        for u in subtree:
            lu = level[u]
            for e in range(indptr[u], indptr[u + 1]):
                w = head[e]
                lw = level[w]
                if lw > lu or moved[w] == rotations:
                    continue
                while level[top] > lw:
                    top = parent[top]  # type: ignore[assignment]
                    on_path[top] = rotations
                if on_path[w] != rotations:
                    if stamp[e] < 0:
                        heappush(heap, e)
                    stamp[e] = rotations
    return OutTree(t.root, tuple(parent), tuple(level))
