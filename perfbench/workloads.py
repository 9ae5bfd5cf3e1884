"""Seeded workload definitions and instance generation.

The generator is the benchmark's own (splitmix64, independent of
``fourblocks.generators``), so a change to the library's generators cannot
silently change what the benchmark measures. Every instance is a directed
cycle through a random vertex order plus random chords: that makes it
strongly connected, and for ``ham-peel`` it supplies the Hamiltonian cycle
without any search.

Instances are laid out in slots. Slot ``i`` takes its size from a fixed
schedule (``sizes[i % len(sizes)]``) and its block length from ``ks``, so
every seed gets the same mix of sizes; only the arcs depend on the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; the same seed always gives the same numbers."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next() % bound

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ham: bool  # color_hamiltonian + chord check instead of the pipeline
    sizes: tuple[int, ...]
    arcs_per_vertex: int
    ks: tuple[int, ...]
    budget: int
    pool: int  # distinct instances per seed; one pass is always completed
    tail_pct: int  # fixed so that runs stay comparable; see run.tail_percentile


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-color",
            why="m=2n strong digraphs, n=600, k=1,2: always a coloring; "
            "finalize dominates and the witness search never runs",
            ham=False,
            sizes=(600,),
            arcs_per_vertex=2,
            ks=(1, 2),
            budget=10**6,
            pool=100,
            tail_pct=90,
        ),
        Workload(
            name="dense-fallback",
            why="m=10n strong digraphs, n=120, k=1: stage d2 fails, so the "
            "whole-graph subdivision search decides found or inconclusive",
            ham=False,
            sizes=(120,),
            arcs_per_vertex=10,
            ks=(1,),
            budget=5 * 10**4,
            pool=160,
            tail_pct=90,
        ),
        Workload(
            name="ham-peel",
            why="m=3n Hamiltonian digraphs, n=400, k=1, cycle supplied: "
            "the degree peel and the chord check, no pipeline",
            ham=True,
            sizes=(400,),
            arcs_per_vertex=3,
            ks=(1,),
            budget=10**6,
            pool=100,
            tail_pct=90,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    slot: int
    n: int
    k: int  # k1 = k3 = k
    arcs: tuple[tuple[int, int], ...]  # sorted
    cycle: tuple[int, ...]  # the planted Hamiltonian cycle
    text: str  # what the program is fed: "n m" then one "u v" line per arc

    @property
    def m(self) -> int:
        return len(self.arcs)


def cycle_with_chords(rng: SplitMix64, n: int, m: int):
    """A directed cycle through a random vertex order plus random chords up
    to m arcs. Returns (cycle order, sorted arcs)."""
    if n < 3 or not n <= m <= n * (n - 1):
        raise ValueError(f"cannot build n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            arcs.add((u, v))
    return tuple(order), tuple(sorted(arcs))


def make_instance(w: Workload, seed: int, slot: int, n: Optional[int] = None) -> Instance:
    """Instance for one slot. Its arcs depend only on (workload, seed, slot)."""
    salt = int.from_bytes(hashlib.sha256(w.name.encode()).digest()[:8], "big")
    rng = SplitMix64(seed ^ salt)
    for _ in range(slot + 1):
        stream = rng.next()
    rng = SplitMix64(stream)
    if n is None:
        n = w.sizes[slot % len(w.sizes)]
    k = w.ks[(slot // len(w.sizes)) % len(w.ks)]
    cycle, arcs = cycle_with_chords(rng, n, w.arcs_per_vertex * n)
    lines = [f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return Instance(slot, n, k, arcs, cycle, "\n".join(lines) + "\n")


def make_pool(w: Workload, seed: int) -> list[Instance]:
    return [make_instance(w, seed, slot) for slot in range(w.pool)]


def fingerprint(pool: list[Instance]) -> str:
    """SHA-256 over every instance text, in slot order."""
    h = hashlib.sha256()
    for inst in pool:
        h.update(inst.text.encode())
    return h.hexdigest()
