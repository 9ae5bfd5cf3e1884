"""Exact desk-scale search and verifier for subdivisions of the
four-blocks cycle C(k1,k2,k3,k4).

The search is exhaustive under a search-node budget, an argument that
defaults to DEFAULT_BUDGET, and raises BudgetExceeded rather than silently
claiming absence. Every witness can be re-checked by a verifier that
trusts nothing from the search bookkeeping.

The subdivision search runs on the compiled C kernel (_subdiv.c) when a
library built from it sits next to this package, and on the pure-Python
twin (_subdiv_py) otherwise. Both kernels produce identical results.

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

from .digraph import Digraph
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


_compiled = _load_compiled()
_kernel = _subdiv_py if _compiled is None else _compiled
KERNEL = "pure" if _compiled is None else "compiled"
DEFAULT_BUDGET = 10_000_000  # search nodes


def available_kernels() -> dict:
    """Name -> kernel for every loaded subdivision kernel."""
    kernels = {"pure": _subdiv_py}
    if _compiled is not None:
        kernels["compiled"] = _compiled
    return kernels


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
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _has_two_forks_each_way(arcs) -> bool:
    """Whether at least two vertices are each the tail of two or more arcs
    and at least two are each the head of two or more; stops once they are."""
    tails, heads, fork_tails, fork_heads = set(), set(), set(), set()
    for u, v in arcs:
        (fork_tails if u in tails else tails).add(u)
        (fork_heads if v in heads else heads).add(v)
        if len(fork_tails) > 1 and len(fork_heads) > 1:
            return True
    return False


def find_cycle_subdivision(
    d: Digraph, p: CyclePattern, budget: int = DEFAULT_BUDGET
) -> Optional[SubdivisionWitness]:
    """Exhaustive search for a subdivision of C(*p.blocks) in d.

    Returns a witness, or None only when the whole search space was
    exhausted. Raises BudgetExceeded when the node budget runs out first.
    The kernel answers ABSENT without a node when the blocks need more
    than n vertices or fewer than two tails or two heads carry two arcs;
    those cases are decided here in one pass over the out-lists, which
    stops once two of each are seen, before the kernel's set-up builds an
    in-list per declared vertex. The kernel reads the same out-lists.
    """
    arcs = ((u, v) for u, vs in enumerate(d.out_lists()) for v in vs)
    if sum(p.blocks) > d.n or not _has_two_forks_each_way(arcs):
        return None
    status, payload, nodes = _kernel.search_cycle_subdivision(
        d.out_lists(), *p.blocks, budget
    )
    if status == _subdiv_py.BUDGET:
        raise BudgetExceeded(nodes)
    if status == _subdiv_py.ABSENT:
        return None
    junctions, paths = payload
    return SubdivisionWitness(junctions, paths)


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


def json_int(x) -> int:
    """x when it is a JSON integer; a bool, float or string raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def witness_from_json(obj: dict) -> tuple[SubdivisionWitness, CyclePattern]:
    try:
        pattern = CyclePattern(tuple(json_int(b) for b in obj["pattern"]))
        paths = tuple(tuple(json_int(v) for v in path) for path in obj["paths"])
        junctions = tuple(json_int(v) for v in obj["junctions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed witness JSON: {exc}") from exc
    if len(junctions) != 4 or len(paths) != 4:
        raise ValueError("malformed witness JSON: need 4 junctions and 4 paths")
    return SubdivisionWitness(junctions, paths), pattern

