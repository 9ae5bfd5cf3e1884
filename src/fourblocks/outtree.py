"""Spanning out-trees: levels, ancestry, and the final-tree rotation.

The pipeline finalizes ``depth_first_out_tree``, whose one pass also proves
the digraph strong. A final tree is deep whatever the start, so a deep
start leaves ``finalize`` fewer rotations.

Levels count vertices on the root path, so the root has level 1 and a child
has its parent's level plus one. An arc (x,y) of the host digraph is forward
when level(x) < level(y) and backward otherwise (equal levels included).
A tree is final when every backward arc points into its tail's ancestor
chain; rotating offending arcs into the tree always terminates because each
rotation strictly raises some vertex's level. ``finalize`` queues tail
vertices, each with a cursor into its out-list. It starts from every vertex,
or, for a tree that ``depth_first_out_tree`` built from the same digraph
object, from only the tails that pass saw with an offending arc: in a
depth-first tree only a cross arc, one into a vertex finished before its
tail was entered, can leave its tail's root path. It reads ancestry off the
start tree's pre-order numbers and subtree sizes: each vertex keeps a head,
an ancestor up to which its current root path is the start tree's path, so
a test hops once per rotated arc between the two vertices and then compares
numbers. A rotation resets the heads of the moved subtree only. After a
rotation it keeps scanning the same tail while that tail is still the
smallest queued, and it queues a vertex of the moved subtree only when one
of its arcs leaving that subtree now offends, or resets its cursor if it is
queued already.
Ancestor tests on a built tree use its pre-order numbers and subtree
sizes and take O(1). ``depth_first_out_tree`` and ``finalize`` hand over
the numbering their trees already imply; any other tree builds it on first
use. A tree and its numbering are never written after construction;
``is_final`` rescans the arcs on every call, and the pipeline itself checks
finality arc by arc in ``decomposition.arc_partition``, where each arc is
read anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress
from typing import Optional

from .digraph import Digraph
from .errors import NotStronglyConnected, UnreachableVertex


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
        """Pre-order numbers and subtree sizes. ``depth_first_out_tree`` and
        ``finalize`` hand theirs over; any other tree builds its own on
        first use, in O(n)."""
        children: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                children[p].append(v)
        return _preorder(self.root, self.parent, children)


class TreeNumbering:
    """Pre-order numbers and subtree sizes of an out-tree, fixed once built.

    A subtree takes consecutive pre-order numbers, so y is an ancestor of x
    (reflexively) iff pre[y] <= pre[x] < pre[y] + size[y].
    """

    __slots__ = ("pre", "size")

    def __init__(self, pre: list[int], size: list[int]):
        self.pre = pre
        self.size = size

    def is_ancestor(self, y: int, x: int) -> bool:
        pre = self.pre
        return pre[y] <= pre[x] < pre[y] + self.size[y]


def _preorder(root: int, parent, children) -> TreeNumbering:
    """Number the tree given by its parent links and child collections in
    pre-order from ``root``, and sum subtree sizes in reverse of it."""
    n = len(parent)
    pre = [-1] * n
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        pre[v] = len(order)
        order.append(v)
        stack.extend(children[v])
    size = [1] * n
    for v in reversed(order):  # a subtree's sizes are summed before its root's
        p = parent[v]
        if p is not None:
            size[p] += size[v]
    return TreeNumbering(pre, size)


def _numbered(t: OutTree, numbering: TreeNumbering) -> OutTree:
    """t, carrying ``numbering`` where its cached property would store it;
    equality, hashing and repr read only the fields."""
    t.__dict__["numbering"] = numbering
    return t


def depth_first_out_tree(d: Digraph, r: int) -> OutTree:
    """Depth-first spanning out-tree rooted at r, out-neighbors ascending,
    each vertex taken on first sight; level = DFS depth + 1. The stack holds
    each open vertex with an iterator into its out-list, so no depth recurses.
    The same pass raises ``NotStronglyConnected`` unless d is strong, before
    any per-vertex work if n >= 2 exceeds the arc count. low[v], the least
    entry number that an arc from v's subtree reaches, is below entry[v] for
    every v != r iff every vertex reaches r: no arc leaves a depth-first
    subtree for a vertex entered after its root.

    Entry numbers are pre-order numbers, and a vertex's subtree is entered
    before the vertex leaves the stack, so the tree carries its numbering:
    size[u] is the count of vertices entered since u when u is popped.

    The tree also carries, with d itself, a flag per vertex u that has an
    offending arc (u,v): backward, with v not an ancestor of u. An arc to a
    vertex entered later goes to a descendant, and an arc to a vertex still
    open goes to an ancestor, so (u,v) offends iff v was entered before u,
    has finished (size[v] > 0), and level[v] <= level[u], which is the
    stack's height while u is on top. ``finalize`` queues only these tails
    when it is handed this tree and this same d."""
    if not (0 <= r < d.n):
        raise ValueError(f"root {r} out of range")
    if d.n > 1 and len(d.arcs) < d.n:
        raise NotStronglyConnected(f"{d.n} vertices but only {len(d.arcs)} arcs")
    out = d.out_lists()
    parent: list[Optional[int]] = [None] * d.n
    level = [0] * d.n
    entry = [-1] * d.n
    low = [0] * d.n
    size = [0] * d.n
    offends = bytearray(d.n)
    level[r] = 1
    entry[r] = 0
    seen = 1
    stack = [(r, iter(out[r]))]
    while stack:
        u, heads = stack[-1]
        lu = low[u]
        eu = entry[u]
        for v in heads:
            ev = entry[v]
            if ev < 0:
                low[u] = lu
                parent[v] = u
                level[v] = len(stack) + 1
                entry[v] = low[v] = seen
                seen += 1
                stack.append((v, iter(out[v])))
                break
            if ev < eu:  # v is open, so an ancestor of u, or finished
                if ev < lu:
                    lu = ev
                if size[v] and level[v] <= len(stack):
                    offends[u] = 1
        else:
            stack.pop()
            size[u] = seen - entry[u]
            if stack:
                if lu >= entry[u]:
                    raise NotStronglyConnected(f"vertex {u} cannot reach the root {r}")
                p = stack[-1][0]
                if lu < low[p]:
                    low[p] = lu
    if seen < d.n:
        raise UnreachableVertex(level.index(0))
    t = _numbered(OutTree(r, tuple(parent), tuple(level)), TreeNumbering(entry, size))
    t.__dict__["_offends"] = (d, offends)
    return t


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
    arc of a queued x before cursor[x] offends. Every cursor starts at 0,
    so the invariant holds from the first queue: the tails that
    ``depth_first_out_tree`` flagged when t is its tree of this same d
    (the flags name exactly the tails with an offending arc; d is checked
    by identity), and every vertex otherwise. With no tail queued, t is
    final and comes back before the working lists are built. The smallest
    queued tail, scanned from its cursor, thus yields the smallest
    offending arc: exactly the arc a rescan of all arcs from the start
    would pick, so the result is the same tree.

    After rotating (x,y), the scan of x goes on from the next arc while x
    is still the heap top. x is not in S, its arcs before (x,y) still do
    not offend, and (x,y) is now a tree arc, so forward. But the walk of S
    may have queued a tail smaller than x. Its offending arcs come before
    every arc of x, so the scan must stop there: cursor[x] moves past
    (x,y), x stays queued, and the heap picks the smaller tail. Going on
    with x would rotate in another order and could end in another tree.

    Ancestry is read from the start tree t: its pre-order numbers pre and
    subtree sizes size, and head[v], a vertex on v's current root path.
    Invariant: the current tree path from head[v] to v is the path between
    them in t. At the start every head[v] is the root. To test whether y is
    an ancestor of x when level[y] <= level[x], z starts at x and moves to
    parent[head[z]] while level[head[z]] > level[y]. The current ancestor
    of x at level[y] then lies on the path from head[z] to z, which is a
    path of t, so y is that ancestor iff y lies on it in t:
    pre[head[z]] <= pre[y] <= pre[z] < pre[y] + size[y]. A query hops once
    per rotated arc on x's root path below level[y]: rarely from a deep
    start such as the depth-first tree, whose final tree keeps most of its
    arcs, but along most of a root path from a shallow one such as a
    breadth-first tree, whose final tree is nearly all rotated arcs.

    A rotation changes the root paths of S only, and x is not in S. The
    walk of S sets head[y] = y; for every other c in S with head[c] != c,
    the arc from parent[c] to c lies on a path of t and so is an arc of t,
    and the walk, which reaches parent[c] first, sets head[c] =
    head[parent[c]]. Outside S no root path changes, so no head does.

    A non-offending arc whose tail is outside S is forward, and stays
    forward because levels only rise, or points at an ancestor of its
    tail, which is outside S too. An arc with both ends in S keeps its
    level order and its ancestry, since all of S moves by the same shift
    with its tree arcs. So only a vertex u of S with an arc (u,b) leaving S
    can gain an offending arc. The walk of S stamps its vertices with the
    rotation's number, and a second pass over S then looks at each u. If u
    is not queued, none of its arcs offended before the rotation, so only
    its arcs to unstamped heads are tested, and u is queued, with its
    cursor on the first of them that offends, only if one does. The root
    path of u runs through x, so b outside S is an ancestor of u iff it is
    one of x: (u,b) offends iff level[b] <= level[u] and either level[b] >
    level[x] or b is not an ancestor of x. If u is already queued, its
    cursor goes back to its first arc: an arc before the cursor may leave
    S and offend now, and a kept cursor would skip it.

    The input comes back as it is when no arc offends. Otherwise the final
    tree carries its numbering, taken from the child sets the rotations
    keep.
    """
    _check_vertex_count(d, t)
    n = t.n
    read, offends = t.__dict__.get("_offends", (None, None))
    queued = bytearray(offends) if read is d else bytearray(b"\x01") * n
    heap = list(compress(range(n), queued))  # ascending, so already a heap
    if not heap:
        return t
    parent: list[Optional[int]] = list(t.parent)
    level: list[int] = list(t.level)
    children: list[set[int]] = [set() for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].add(v)
    out = d.out_lists()
    cursor = [0] * n
    num = t.numbering
    pre, size = num.pre, num.size
    head = [t.root] * n

    def is_ancestor_now(y: int, x: int) -> bool:
        ly = level[y]
        h = head[x]
        while level[h] > ly:
            x = parent[h]  # type: ignore[assignment]
            h = head[x]
        py = pre[y]
        return pre[h] <= py <= pre[x] < py + size[y]

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
            h = head[x]
            if level[h] <= ly:  # the common case, no hop: the test's last step, inline
                py = pre[y]
                if pre[h] <= py <= pre[x] < py + size[y]:
                    continue
            elif is_ancestor_now(y, x):
                continue
            children[parent[y]].discard(y)  # type: ignore[index]
            parent[y] = x
            children[x].add(y)
            shift = lx + 1 - ly
            rotation += 1
            head[y] = y
            subtree = [y]
            for u in subtree:  # grows while it is walked, parents first
                level[u] += shift
                stamp[u] = rotation
                if head[u] != u:
                    head[u] = head[parent[u]]  # type: ignore[index]
                subtree.extend(children[u])
            for u in subtree:
                if queued[u]:
                    cursor[u] = 0
                    continue
                lu = level[u]
                for f, b in enumerate(out[u]):
                    lb = level[b]
                    if (lb <= lu and stamp[b] != rotation
                            and (lb > lx or not is_ancestor_now(b, x))):
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
    if not rotation:
        return t
    return _numbered(
        OutTree(t.root, tuple(parent), tuple(level)), _preorder(t.root, parent, children)
    )
