"""Reproducible instance generators for campaigns and demos.

All randomness flows through one fixed 64-bit generator (splitmix64, with
the usual constants 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 /
0x94D049BB133111EB) so that a (family, n, m, seed, pattern) spec always
produces the same digraph, byte for byte in the shared text format.
Bounded draws use plain modulo reduction; the tiny bias is irrelevant here
and keeps the stream trivial to reproduce elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .digraph import Digraph, strong_components
from .errors import InfeasibleSpec
from .witness import CyclePattern

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 stream; deterministic for a given seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


class Family(Enum):
    DIRECTED_CYCLE = "cycle"
    RANDOM_STRONG = "strong"
    RANDOM_HAMILTONIAN = "hamiltonian"
    TRANSITIVE_TOURNAMENT = "tournament"
    PLANTED_SUBDIVISION = "planted"
    ANCESTOR_DIGRAPH = "ancestor"


@dataclass(frozen=True)
class GenSpec:
    family: Family
    n: int
    m: int = 0
    seed: int = 0
    pattern: Optional[CyclePattern] = None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "pattern": list(self.pattern.blocks) if self.pattern else None,
        }


def generate(spec: GenSpec) -> Digraph:
    """Deterministic digraph for the spec; see each family helper for the
    exact construction."""
    if spec.n < 1:
        raise InfeasibleSpec("n must be at least 1")
    if spec.m < 0 or spec.m > spec.n * (spec.n - 1):
        raise InfeasibleSpec(f"m={spec.m} outside [0, n(n-1)]")
    rng = Rng(spec.seed)
    if spec.family is Family.DIRECTED_CYCLE:
        return _directed_cycle(spec.n)
    if spec.family is Family.TRANSITIVE_TOURNAMENT:
        return _transitive_tournament(spec.n)
    if spec.family is Family.RANDOM_STRONG:
        return _random_strong(spec.n, spec.m, rng)
    if spec.family is Family.RANDOM_HAMILTONIAN:
        return _random_hamiltonian(spec.n, spec.m, rng)
    if spec.family is Family.PLANTED_SUBDIVISION:
        if spec.pattern is None:
            raise InfeasibleSpec("planted family requires a pattern")
        return _planted_subdivision(spec.n, spec.m, rng, spec.pattern)
    if spec.family is Family.ANCESTOR_DIGRAPH:
        return _ancestor_digraph(spec.n, spec.m, rng)
    raise InfeasibleSpec(f"unknown family {spec.family}")


def _directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise InfeasibleSpec("a directed cycle needs at least 2 vertices")
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def _transitive_tournament(n: int) -> Digraph:
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def _random_fill(arcs: set, n: int, m: int, rng: Rng) -> set:
    """Add uniform random non-loop arcs to arcs until it holds m, or until
    100*n*n draws have been made; returns arcs."""
    for _ in range(100 * n * n):
        if len(arcs) >= m:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return arcs


def _random_strong(n: int, m: int, rng: Rng) -> Digraph:
    """Random Hamiltonian-path skeleton, random fill to m arcs, then strong
    connectivity patched with one arc per missing condensation link."""
    if n == 1:
        return Digraph(1, [])
    if m < n - 1:
        raise InfeasibleSpec(f"random strong digraph needs m >= n-1 = {n - 1}")
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = _random_fill({(perm[i], perm[i + 1]) for i in range(n - 1)}, n, m, rng)
    while True:
        d = Digraph(n, arcs)
        comp = strong_components(d)
        ncomp = max(comp) + 1
        if ncomp == 1:
            return d
        has_out = [False] * ncomp
        has_in = [False] * ncomp
        for u, v in arcs:
            if comp[u] != comp[v]:
                has_out[comp[u]] = True
                has_in[comp[v]] = True
        sink = min(c for c in range(ncomp) if not has_out[c])
        source = min(c for c in range(ncomp) if not has_in[c])
        u = min(v for v in range(n) if comp[v] == sink)
        v = min(w for w in range(n) if comp[w] == source)
        arcs.add((u, v))


def _random_hamiltonian(n: int, m: int, rng: Rng) -> Digraph:
    """Directed cycle on a random vertex order plus m-n random chords."""
    if n < 2:
        raise InfeasibleSpec("a Hamiltonian digraph needs at least 2 vertices")
    if m < n:
        raise InfeasibleSpec(f"Hamiltonian family needs m >= n = {n}")
    perm = list(range(n))
    rng.shuffle(perm)
    cycle = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    return Digraph(n, _random_fill(cycle, n, m, rng))


def _planted_subdivision(
    n: int, m: int, rng: Rng, pattern: CyclePattern
) -> Digraph:
    """Embed a minimum-size witness for the pattern, wire return arcs to make
    the digraph strong, then add noise arcs that avoid witness interiors."""
    k1, k2, k3, k4 = pattern.blocks
    total = k1 + k2 + k3 + k4
    if n < total:
        raise InfeasibleSpec(f"planted pattern needs n >= {total}")
    ids = list(range(n))
    rng.shuffle(ids)
    cursor = 4
    j1, j2, j3, j4 = ids[0], ids[1], ids[2], ids[3]

    def take(count: int) -> list[int]:
        nonlocal cursor
        out = ids[cursor : cursor + count]
        cursor += count
        return out

    paths = []
    for (s, t, length) in ((j1, j2, k1), (j3, j2, k2), (j3, j4, k3), (j1, j4, k4)):
        interior = take(length - 1)
        paths.append([s] + interior + [t])
    interiors = {v for path in paths for v in path[1:-1]}
    arcs = set()
    for path in paths:
        arcs.update(zip(path, path[1:]))
    arcs.add((j2, j3))
    arcs.add((j4, j1))
    spares = ids[cursor:]
    if spares:
        chain = [j1] + spares + [j1]
        arcs.update(zip(chain, chain[1:]))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and u not in interiors and v not in interiors and (u, v) not in arcs
    ]
    rng.shuffle(pool)
    for u, v in pool:
        if len(arcs) >= m:
            break
        arcs.add((u, v))
    return Digraph(n, arcs)


def _ancestor_digraph(n: int, m: int, rng: Rng) -> Digraph:
    """Random out-tree plus extra arcs only from descendants to ancestors."""
    if n > 1 and m < n - 1:
        raise InfeasibleSpec(f"ancestor family needs m >= n-1 = {n - 1}")
    parent = [0] * n
    arcs = set()
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        arcs.add((parent[v], v))
    pool = []
    for u in range(1, n):
        anc = parent[u]
        while True:
            if (u, anc) not in arcs:
                pool.append((u, anc))
            if anc == 0:
                break
            anc = parent[anc]
    rng.shuffle(pool)
    for u, v in pool:
        if len(arcs) >= m:
            break
        arcs.add((u, v))
    return Digraph(n, arcs)
