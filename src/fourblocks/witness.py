"""Exact desk-scale searchers and verifiers for structural witnesses.

Three witness shapes are handled:

* subdivisions of the four-blocks cycle C(k1,k2,k3,k4),
* two-block paths P(a,b) (two dipaths sharing only their origin),
* k-wheels in an undirected graph (a cycle plus an external center with at
  least k neighbors on it).

Every finder is exhaustive under a search-node budget and raises
BudgetExceeded rather than silently claiming absence. Every witness can be
re-checked by a verifier that trusts nothing from the search bookkeeping.

The subdivision search runs on the compiled C kernel (_subdiv.c) when a
library built from it sits next to this package, and on the pure-Python
twin (_subdiv_py) otherwise; set FOURBLOCKS_PURE=1 to force the twin. Both
kernels produce identical results.

Witness JSON schema for subdivisions:

    {"pattern": [k1,k2,k3,k4],
     "paths": [[v...],[v...],[v...],[v...]],
     "junctions": [j1,j2,j3,j4]}

where paths run j1->j2, j3->j2, j3->j4, j1->j4 and path i has length at
least pattern[i].
"""

from __future__ import annotations

import importlib.machinery
import os
from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, UGraph
from .errors import BudgetExceeded
from . import _subdiv_py


def _load_compiled():
    """The kernel in the library built next to this package, or None.

    Looks only for a built file and never compiles; ctypes is imported only
    when that file exists.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(here, "_subdiv" + suffix)
        if os.path.isfile(path):
            from ._subdiv_ctypes import CompiledKernel

            try:
                return CompiledKernel(path)
            except OSError:
                return None
    return None


_FORCE_PURE = os.environ.get("FOURBLOCKS_PURE", "") not in ("", "0")
_compiled = None if _FORCE_PURE else _load_compiled()
_kernel = _subdiv_py if _compiled is None else _compiled
KERNEL = "pure" if _compiled is None else "compiled"


def available_kernels() -> dict:
    """Name -> kernel for every loadable subdivision kernel."""
    kernels = {"pure": _subdiv_py}
    compiled = _load_compiled()
    if compiled is not None:
        kernels["compiled"] = compiled
    return kernels


def default_budget() -> int:
    env = os.environ.get("FOURBLOCKS_BUDGET")
    if env:
        return int(env)
    return 10_000_000


@dataclass(frozen=True)
class CyclePattern:
    """Block lengths (k1,k2,k3,k4) of an oriented four-blocks cycle."""

    blocks: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise ValueError("a cycle pattern has exactly 4 blocks")
        if any(b < 1 for b in self.blocks):
            raise ValueError("block lengths must be positive")

    @staticmethod
    def from_k(k1: int, k3: int) -> "CyclePattern":
        return CyclePattern((k1, 1, k3, 1))


@dataclass(frozen=True)
class SubdivisionWitness:
    """Four internally disjoint dipaths realizing a four-blocks cycle.

    junctions = (j1, j2, j3, j4) with j1, j3 the sources and j2, j4 the
    sinks; paths[0]=j1..j2, paths[1]=j3..j2, paths[2]=j3..j4, paths[3]=j1..j4.
    """

    junctions: tuple[int, int, int, int]
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TwoBlockPathWitness:
    """Two dipaths from a shared origin, disjoint elsewhere."""

    q1: tuple[int, ...]
    q2: tuple[int, ...]
    a: int
    b: int


@dataclass(frozen=True)
class WheelWitness:
    """Cycle plus an external center adjacent to >= k cycle vertices."""

    cycle: tuple[int, ...]
    center: int
    spokes: tuple[int, ...]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def find_cycle_subdivision(
    d: Digraph, p: CyclePattern, budget: Optional[int] = None
) -> Optional[SubdivisionWitness]:
    """Exhaustive search for a subdivision of C(*p.blocks) in d.

    Returns a witness, or None only when the whole search space was
    exhausted. Raises BudgetExceeded when the node budget runs out first.
    """
    if budget is None:
        budget = default_budget()
    indptr, indices = _csr(d)
    status, payload, nodes = _kernel.search_cycle_subdivision(
        d.n, indptr, indices, *p.blocks, budget
    )
    if status == _subdiv_py.BUDGET:
        raise BudgetExceeded(nodes)
    if status == _subdiv_py.ABSENT:
        return None
    junctions, paths = payload
    return SubdivisionWitness(junctions, paths)


def _csr(d: Digraph) -> tuple[list[int], list[int]]:
    indptr = [0]
    indices: list[int] = []
    for u in range(d.n):
        indices.extend(d.out_neighbors(u))
        indptr.append(len(indices))
    return indptr, indices


def verify_subdivision(
    d: Digraph, w: SubdivisionWitness, p: CyclePattern
) -> VerifyResult:
    """Re-check every witness invariant against d, independent of the search."""
    if len(w.junctions) != 4 or len(set(w.junctions)) != 4:
        return VerifyResult(False, "BadJunctions")
    j1, j2, j3, j4 = w.junctions
    if len(w.paths) != 4:
        return VerifyResult(False, "BadJunctions")
    expected_ends = ((j1, j2), (j3, j2), (j3, j4), (j1, j4))
    for i, path in enumerate(w.paths):
        if len(path) < 2:
            return VerifyResult(False, "TooShort")
        if (path[0], path[-1]) != expected_ends[i]:
            return VerifyResult(False, "BadJunctions")
        if len(path) - 1 < p.blocks[i]:
            return VerifyResult(False, "TooShort")
        if len(set(path)) != len(path):
            return VerifyResult(False, "NotSimplePath")
        for u, v in zip(path, path[1:]):
            if not d.has_arc(u, v):
                return VerifyResult(False, "MissingArc")
    junction_set = set(w.junctions)
    seen_interior: set[int] = set()
    for path in w.paths:
        for v in path[1:-1]:
            if v in junction_set or v in seen_interior:
                return VerifyResult(False, "NotInternallyDisjoint")
            seen_interior.add(v)
    return VerifyResult(True)


def witness_to_json(w: SubdivisionWitness, p: CyclePattern) -> dict:
    return {
        "pattern": list(p.blocks),
        "paths": [list(path) for path in w.paths],
        "junctions": list(w.junctions),
    }


def witness_from_json(obj: dict) -> tuple[SubdivisionWitness, CyclePattern]:
    try:
        pattern = CyclePattern(tuple(int(b) for b in obj["pattern"]))
        paths = tuple(tuple(int(v) for v in path) for path in obj["paths"])
        junctions = tuple(int(v) for v in obj["junctions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness JSON: {exc}") from exc
    if len(junctions) != 4 or len(paths) != 4:
        raise ValueError("malformed witness JSON: need 4 junctions and 4 paths")
    return SubdivisionWitness(junctions, paths), pattern


def find_two_block_path(
    d: Digraph, a: int, b: int, budget: Optional[int] = None
) -> Optional[TwoBlockPathWitness]:
    """Exhaustive search for P(a,b): dipaths of lengths >= a and >= b from a
    common origin, vertex-disjoint elsewhere.

    Any longer pair truncates to an exact (a,b) pair, so the search looks
    for exact lengths only.
    """
    if a < 1 or b < 1:
        raise ValueError("block lengths must be positive")
    if budget is None:
        budget = default_budget()
    if 1 + a + b > d.n:
        return None
    used = bytearray(d.n)
    q1: list[int] = []
    q2: list[int] = []
    nodes = 0

    def grow(which: int, u: int, need: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return -1
        if need == 0:
            if which == 1:
                q2.append(origin)
                r = grow(2, origin, b)
                if r == 0:
                    q2.pop()
                return r
            return 1
        path = q1 if which == 1 else q2
        for v in d.out_neighbors(u):
            if not used[v]:
                used[v] = 1
                path.append(v)
                r = grow(which, v, need - 1)
                if r != 0:
                    return r
                path.pop()
                used[v] = 0
        return 0

    for origin in range(d.n):
        if d.out_degree(origin) < 2:
            continue
        used[origin] = 1
        q1.clear()
        q2.clear()
        q1.append(origin)
        r = grow(1, origin, a)
        used[origin] = 0
        if r == 1:
            return TwoBlockPathWitness(tuple(q1), tuple(q2), a, b)
        if r == -1:
            raise BudgetExceeded(nodes)
    return None


def verify_two_block_path(d: Digraph, w: TwoBlockPathWitness) -> VerifyResult:
    if not w.q1 or not w.q2 or w.q1[0] != w.q2[0]:
        return VerifyResult(False, "BadOrigin")
    if len(w.q1) - 1 < w.a or len(w.q2) - 1 < w.b:
        return VerifyResult(False, "TooShort")
    for path in (w.q1, w.q2):
        if len(set(path)) != len(path):
            return VerifyResult(False, "NotSimplePath")
        for u, v in zip(path, path[1:]):
            if not d.has_arc(u, v):
                return VerifyResult(False, "MissingArc")
    if set(w.q1[1:]) & set(w.q2[1:]):
        return VerifyResult(False, "NotInternallyDisjoint")
    return VerifyResult(True)


def find_k_wheel(
    g: UGraph, k: int, budget: Optional[int] = None
) -> Optional[WheelWitness]:
    """Exhaustive search for a k-wheel: enumerate centers, then cycles of
    g - center through at least k of the center's neighbors.

    Cycles are enumerated canonically (smallest vertex first, second vertex
    below last) so each is visited once.
    """
    if k < 3:
        raise ValueError("wheel size must be at least 3")
    if budget is None:
        budget = default_budget()
    nodes = 0

    for center in range(g.n):
        nu = set(g.neighbors(center))
        if len(nu) < k:
            continue
        used = bytearray(g.n)
        used[center] = 1
        path: list[int] = []

        def dfs(u: int, start: int, spokes: int) -> int:
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                return -1
            remaining = sum(1 for w in nu if w > start and not used[w])
            if spokes + remaining < k:
                return 0
            for v in g.neighbors(u):
                if v == start and len(path) >= 3 and path[1] < path[-1]:
                    if spokes >= k:
                        return 1
                elif v > start and not used[v]:
                    used[v] = 1
                    path.append(v)
                    r = dfs(v, start, spokes + (1 if v in nu else 0))
                    if r != 0:
                        return r
                    path.pop()
                    used[v] = 0
            return 0

        for start in range(g.n):
            if start == center:
                continue
            used[start] = 1
            path.clear()
            path.append(start)
            r = dfs(start, start, 1 if start in nu else 0)
            used[start] = 0
            if r == 1:
                cycle = tuple(path)
                spokes = tuple(sorted(set(cycle) & nu))
                return WheelWitness(cycle, center, spokes)
            if r == -1:
                raise BudgetExceeded(nodes)
    return None


def verify_wheel(g: UGraph, w: WheelWitness, k: int) -> VerifyResult:
    cyc = w.cycle
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return VerifyResult(False, "BadCycle")
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(u, v):
            return VerifyResult(False, "MissingEdge")
    if w.center in cyc:
        return VerifyResult(False, "CenterOnCycle")
    if len(w.spokes) < k:
        return VerifyResult(False, "TooFewSpokes")
    cyc_set = set(cyc)
    for s in w.spokes:
        if s not in cyc_set or not g.has_edge(w.center, s):
            return VerifyResult(False, "BadSpoke")
    return VerifyResult(True)
