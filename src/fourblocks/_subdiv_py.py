"""Pure-Python kernel for the four-blocks cycle subdivision search.

This module and the compiled twin (_subdiv.c, loaded by _subdiv_ctypes)
implement the exact same backtracking search with the exact same visit
order and node accounting, so either can back the public API
interchangeably. A change to one must land in the other. Both take the
digraph as its ascending out-lists (``Digraph.out_lists()``): this kernel
iterates them as they are and builds the ascending in-lists once per
search, for the BFS into j2.

The target shape is an oriented cycle with four blocks: junctions j1..j4
where j1 and j3 are sources and j2 and j4 are sinks, realized by four
directed paths with per-block minimum lengths

    path 0: j1 -> j2   (length >= k1)
    path 1: j3 -> j2   (length >= k2)
    path 2: j3 -> j4   (length >= k3)
    path 3: j1 -> j4   (length >= k4)

whose interiors are pairwise disjoint and avoid all junctions.

Search order: iterative deepening on the total path length L (so minimum
size witnesses surface first). At each L the junction quadruples are tried
in lexicographic (j1, j2, j3, j4) order, but only those that can close at
L. A path from a to b is at least d(a, b) long, d being the BFS distance
in the digraph, so a quadruple is kept only when

    max(k1, d(j1,j2)) + max(k2, d(j3,j2)) + max(k3, d(j3,j4)) + max(k4, d(j1,j4)) <= L

and the same partial sums, completed by the remaining minimum lengths,
cut the (j1, j2) and (j1, j2, j3) prefixes. The candidates are walked
rather than filtered out of all sources x sinks: j2 runs over the sinks
near enough to j1, j3 over the sources near enough to j2, j4 over the
sinks near enough to j3, each in ascending order. Each list comes from a BFS
run when its prefix is walked (forward from j1, backward into j2, forward
from j3) and truncated at the largest distance the partial sum leaves
room for; no distance table over all sources is kept. When the pattern
is invariant under swapping the two source roles ((k1,k2) == (k3,k4)) the
enumeration is halved by requiring j1 < j3; for asymmetric patterns that
restriction would lose witnesses, so it is skipped. Paths are extended in
ascending vertex order, depth-first on one explicit stack with an entry
per vertex entered, so a block of any length needs no recursion.

A node is one kept junction quadruple, one vertex entered by the path
search (each path's start included), or one walked prefix (j1), (j1, j2)
or (j1, j2, j3) under which no node was charged. A prefix is walked only
when the unpruned enumeration (every source x sink quadruple,
tests/naive.py) holds a quadruple under it, so the search never takes
more nodes than the unpruned one, and where that one finishes this one
returns the same result; a pruned quadruple could never have closed.
Between two nodes the walk runs at most three of the truncated BFS,
sorts their results and scans O(n) candidates (room() turns down O(1) of
the j1), so it does O(m + n log n) work in O(n + m) memory, whatever the
pattern. The search aborts with BUDGET as soon as the node count passes
the budget.
"""

FOUND = 0
ABSENT = 1
BUDGET = 2


def search_cycle_subdivision(out, k1, k2, k3, k4, budget):
    """Searches the digraph on vertices 0..len(out)-1 whose out-neighbors
    of v are out[v], in ascending order. Returns (status, payload, nodes);
    payload is (junctions, paths) on FOUND."""
    n = len(out)
    total_min = k1 + k2 + k3 + k4
    if total_min > n:
        return ABSENT, None, 0

    # the in-lists, ascending, for the BFS into j2
    ins = [[] for _ in range(n)]
    for u, heads in enumerate(out):
        for v in heads:
            ins[v].append(u)
    sources = [v for v in range(n) if len(out[v]) >= 2]
    sinks = [v for v in range(n) if len(ins[v]) >= 2]
    if len(sources) < 2 or len(sinks) < 2:
        return ABSENT, None, 0

    sym = (k1 == k3) and (k2 == k4)
    mins = (k1, k2, k3, k4)
    rem_after = (k2 + k3 + k4, k3 + k4, k4, 0)
    used = bytearray(n)
    paths = ([], [], [], [])
    nodes = 0

    is_sink = bytearray(n)
    for v in sinks:
        is_sink[v] = 1
    nsrc, nsnk = len(sources), len(sinks)

    def close(j1, j2, j3, j4, L):
        """Runs the path search for one junction quadruple: 1, 0 or -1.

        One stack holds an iterator over the out-neighbors of each vertex
        entered, in path order. Reaching the target of path p enters the
        start of path p + 1; leaving that start returns to path p. Path p
        may take at most `longest` arcs, which leaves the later paths their
        minimum lengths at L: it closes with kp to `longest` arcs, and
        enters another vertex only while the arc into its target still fits."""
        nonlocal nodes
        ends = ((j1, j2), (j3, j2), (j3, j4), (j1, j4))
        used[j1] = used[j2] = used[j3] = used[j4] = 1
        p = plen = 0
        kp, tgt, longest = k1, j2, L - rem_after[0]
        path = paths[0]
        path.append(j1)
        nodes += 1
        if nodes > budget:
            return -1
        stack = [iter(out[j1])]
        while stack:
            for v in stack[-1]:
                if v == tgt:
                    if kp <= plen + 1 <= longest:
                        path.append(v)
                        if p == 3:
                            return 1
                        p += 1
                        longest += mins[p] - plen - 1
                        kp, (v, tgt) = mins[p], ends[p]
                        path = paths[p]
                        plen = -1  # the start of path p is its vertex 0
                        break
                elif plen + 2 <= longest and not used[v]:
                    used[v] = 1
                    break
            else:
                stack.pop()
                if plen:
                    used[path.pop()] = 0
                    plen -= 1
                    continue
                path.pop()
                if p:
                    p -= 1
                    path = paths[p]
                    path.pop()
                    plen = len(path) - 1
                    longest += plen + 1 - kp
                    kp, tgt = mins[p], ends[p][1]
                continue
            path.append(v)
            plen += 1
            nodes += 1
            if nodes > budget:
                return -1
            stack.append(iter(out[v]))
        used[j1] = used[j2] = used[j3] = used[j4] = 0
        return 0

    def ball(adj, s, radius):
        """Vertex -> BFS distance from s along the lists adj, up to `radius`."""
        dist = {s: 0}
        layer = [s]
        for r in range(1, radius + 1):
            nxt = []
            for u in layer:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = r
                        nxt.append(v)
            if not nxt:
                break
            layer = nxt
        return dist

    def room(a, t, j2):
        """Whether the unpruned enumeration holds a quadruple under (j1, j2),
        j1 = sources[a], or under j1 alone when j2 is -1 (no sink j2 can
        then block every j3 found). t counts the sinks left for j4 besides
        j1 and j2. The scan passes over at most j1, j2 and, when t == 1 (so
        at most 3 sinks), the sinks."""
        if t < 1:
            return False
        j1 = sources[a]
        for c in range(a + 1 if sym else 0, nsrc):
            j3 = sources[c]
            if j3 != j1 and j3 != j2 and t - is_sink[j3] >= 1:
                return True
        return False

    def junctions(L):
        """Yields the quadruples that can close at L in lexicographic order,
        and None for each walked prefix under which nothing was yielded;
        the caller charges one node per item."""
        items = 0
        slack = L - total_min
        # a prefix is walked only if the unpruned enumeration holds a
        # quadruple under it: room() for (j1) and (j1, j2), t for (j1, j2, j3)
        for a, j1 in enumerate(sources):
            t = nsnk - 1 - is_sink[j1]
            if not room(a, t, -1):
                continue
            # d(j1,j2) <= slack + k1 and d(j1,j4) <= slack + k4
            d1 = ball(out, j1, slack + max(k1, k4))
            mark1 = items
            for j2 in sorted(v for v in d1 if is_sink[v]):
                if j2 == j1:
                    continue
                b12 = max(k1, d1[j2])
                if b12 + rem_after[0] > L or not room(a, t, j2):
                    continue
                d2 = ball(ins, j2, L - b12 - rem_after[1])
                mark2 = items
                for j3 in sorted(v for v in d2 if len(out[v]) >= 2):
                    if j3 == j1 or j3 == j2 or (sym and j3 < j1) or t - is_sink[j3] < 1:
                        continue
                    b123 = b12 + max(k2, d2[j3])
                    d3 = ball(out, j3, L - b123 - rem_after[2])
                    mark3 = items
                    for j4 in sorted(v for v in d3 if is_sink[v]):
                        if j4 == j1 or j4 == j2 or j4 == j3 or j4 not in d1:
                            continue
                        if b123 + max(k3, d3[j4]) + max(k4, d1[j4]) <= L:
                            items += 1
                            yield j1, j2, j3, j4
                    if items == mark3:
                        items += 1
                        yield None
                if items == mark2:
                    items += 1
                    yield None
            if items == mark1:
                items += 1
                yield None

    for L in range(total_min, n + 1):
        for q in junctions(L):
            nodes += 1
            if nodes > budget:
                return BUDGET, None, nodes
            if q is None:
                continue
            r = close(*q, L)
            if r == 1:
                return FOUND, (q, tuple(tuple(p) for p in paths)), nodes
            if r == -1:
                return BUDGET, None, nodes
    return ABSENT, None, nodes
