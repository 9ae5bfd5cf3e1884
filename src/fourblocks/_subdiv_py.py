"""Pure-Python kernel for the four-blocks cycle subdivision search.

This module and the compiled twin (_subdiv.c, loaded by _subdiv_ctypes)
implement the exact same backtracking search with the exact same visit
order and node accounting, so either can back the public API
interchangeably. A change to one must land in the other.

The target shape is an oriented cycle with four blocks: junctions j1..j4
where j1 and j3 are sources and j2 and j4 are sinks, realized by four
directed paths with per-block minimum lengths

    path 0: j1 -> j2   (length >= k1)
    path 1: j3 -> j2   (length >= k2)
    path 2: j3 -> j4   (length >= k3)
    path 3: j1 -> j4   (length >= k4)

whose interiors are pairwise disjoint and avoid all junctions.

Search order: iterative deepening on the total path length L (so minimum
size witnesses surface first), junctions in lexicographic (j1, j2, j3, j4)
order, neighbor extension in ascending vertex order. When the pattern is
invariant under swapping the two source roles ((k1,k2) == (k3,k4)) the
enumeration is halved by requiring j1 < j3; for asymmetric patterns that
restriction would lose witnesses, so it is skipped.

A node is one junction quadruple attempt or one path-extension call; the
search aborts with BUDGET as soon as the node count passes the budget.
"""

FOUND = 0
ABSENT = 1
BUDGET = 2


def search_cycle_subdivision(n, indptr, indices, k1, k2, k3, k4, budget):
    """Returns (status, payload, nodes); payload is (junctions, paths) on FOUND."""
    total_min = k1 + k2 + k3 + k4
    if total_min > n:
        return ABSENT, None, 0

    out_deg = [indptr[v + 1] - indptr[v] for v in range(n)]
    in_deg = [0] * n
    for v in indices:
        in_deg[v] += 1
    sources = [v for v in range(n) if out_deg[v] >= 2]
    sinks = [v for v in range(n) if in_deg[v] >= 2]
    if len(sources) < 2 or len(sinks) < 2:
        return ABSENT, None, 0

    sym = (k1 == k3) and (k2 == k4)
    mins = (k1, k2, k3, k4)
    rem_after = (k2 + k3 + k4, k3 + k4, k4, 0)
    used = bytearray(n)
    paths = ([], [], [], [])
    starts = [0, 0, 0, 0]
    targets = [0, 0, 0, 0]
    nodes = 0

    def extend(p, u, plen, total, L):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        kp = mins[p]
        tgt = targets[p]
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            if v == tgt:
                if plen + 1 >= kp and total + 1 + rem_after[p] <= L:
                    paths[p].append(v)
                    if p == 3:
                        return 1
                    r = begin_path(p + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
            elif not used[v]:
                need = kp - (plen + 1)
                if need < 1:
                    need = 1
                if total + 1 + need + rem_after[p] <= L:
                    used[v] = 1
                    paths[p].append(v)
                    r = extend(p, v, plen + 1, total + 1, L)
                    if r != 0:
                        return r
                    paths[p].pop()
                    used[v] = 0
        return 0

    def begin_path(p, total, L):
        s = starts[p]
        paths[p].append(s)
        r = extend(p, s, 0, total, L)
        if r == 0:
            paths[p].pop()
        return r

    for extra in range(0, n - total_min + 1):
        L = total_min + extra
        for j1 in sources:
            for j2 in sinks:
                if j2 == j1:
                    continue
                for j3 in sources:
                    if j3 == j1 or j3 == j2 or (sym and j3 < j1):
                        continue
                    for j4 in sinks:
                        if j4 == j1 or j4 == j2 or j4 == j3:
                            continue
                        nodes += 1
                        if nodes > budget:
                            return BUDGET, None, nodes
                        starts[0], targets[0] = j1, j2
                        starts[1], targets[1] = j3, j2
                        starts[2], targets[2] = j3, j4
                        starts[3], targets[3] = j1, j4
                        used[j1] = used[j2] = used[j3] = used[j4] = 1
                        for p in paths:
                            p.clear()
                        r = begin_path(0, 0, L)
                        used[j1] = used[j2] = used[j3] = used[j4] = 0
                        if r == 1:
                            return (
                                FOUND,
                                ((j1, j2, j3, j4), tuple(tuple(p) for p in paths)),
                                nodes,
                            )
                        if r == -1:
                            return BUDGET, None, nodes
    return ABSENT, None, nodes
