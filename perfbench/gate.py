"""Correctness gate: re-check every certificate against the generated
instance, independently of the certificate's own claims.

The digraph is rebuilt from the generator's arc list, not from the
program's parser. Colour bounds are recomputed from the workload's block
lengths (36*2k*(4k+2) for the pipeline, 6k for the Hamiltonian peel); the
``bound`` field a certificate carries is never trusted.
"""

from __future__ import annotations

from typing import Optional

from fourblocks.digraph import Coloring, Digraph, is_proper, underlying_graph
from fourblocks.witness import CyclePattern, verify_subdivision, witness_from_json

from workloads import Instance

# stages that color_strong_digraph names in an Inconclusive certificate
PIPELINE_STAGES = {"color_d1", "color_d2", "color_d3"}


def pipeline_bound(k1: int, k3: int) -> int:
    k = max(k1, k3)
    return 36 * 2 * k * (4 * k + 2)


def check(inst: Instance, cert: dict, ham: bool) -> Optional[str]:
    """None when the certificate holds on the instance, else the reason."""
    d = Digraph(inst.n, inst.arcs)
    k = inst.k
    pattern = CyclePattern.from_k(k, k)
    outcome = cert.get("outcome")
    if outcome == "coloring":
        bound = 6 * k if ham else pipeline_bound(k, k)
        if not ham and (cert.get("k1"), cert.get("k3")) != (k, k):
            return "coloring names other block lengths than requested"
        return _check_coloring(d, cert["colors"], bound)
    if outcome == "subdivision" and not ham:
        w, claimed = witness_from_json(cert["witness"])
        if claimed != pattern:
            return f"witness claims pattern {claimed.blocks}, expected {pattern.blocks}"
        result = verify_subdivision(d, w, pattern)
        return None if result.ok else f"witness rejected: {result.reason}"
    if outcome == "inconclusive" and not ham:
        if cert.get("stage") not in PIPELINE_STAGES:
            return f"inconclusive at unknown stage {cert.get('stage')!r}"
        return None
    if outcome == "stall" and ham:
        return _check_stall(d, cert, k, pattern)
    return f"unexpected outcome {outcome!r}"


def check_chords(inst: Instance, violations) -> Optional[str]:
    """Re-derive the first, middle and last reported chord violation from
    the definition in fourblocks.hamiltonian."""
    if not violations:
        return None
    for i in sorted({0, len(violations) // 2, len(violations) - 1}):
        reason = _chord_reason(inst, violations[i])
        if reason is not None:
            return f"chord violation {i}: {reason}"
    return None


def _check_coloring(d: Digraph, colors, bound: int) -> Optional[str]:
    if not isinstance(colors, list) or len(colors) != d.n:
        return f"colors must list all {d.n} vertices"
    coloring = Coloring(dict(enumerate(colors)))
    if not is_proper(underlying_graph(d), coloring):
        return "coloring is not proper"
    if coloring.palette_size > bound:
        return f"palette {coloring.palette_size} exceeds recomputed bound {bound}"
    return None


def _check_stall(d: Digraph, cert: dict, k: int, pattern) -> Optional[str]:
    core = set(cert["core"])
    if not core or cert.get("k") != k:
        return "stall core is empty or names another k"
    g = underlying_graph(d)
    low = min(sum(1 for w in g.neighbors(v) if w in core) for v in core)
    if low < 6 * k:
        return f"stall core minimum degree {low} is below {6 * k}"
    if cert.get("witness") is not None:
        w, claimed = witness_from_json(cert["witness"])
        result = verify_subdivision(d, w, pattern)
        if claimed != pattern or not result.ok:
            return f"stall witness rejected: {result.reason}"
    return None


def _chord_reason(inst: Instance, violation) -> Optional[str]:
    order, n, k = inst.cycle, inst.n, inst.k
    u, v, w, count = violation.u, violation.v, violation.w, violation.count
    pos = {x: i for i, x in enumerate(order)}
    arcs = set(inst.arcs)
    if (v, u) not in arcs:
        return "no arc (v,u)"
    if (pos[u] - pos[v]) % n in (1, n - 1):
        return "arc lies on the cycle"
    length = (pos[u] - pos[v]) % n
    if length < 2 * k:
        return "zone is empty"
    if not 1 <= (pos[w] - pos[u]) % n < n - length:
        return "w is not strictly inside C]u,v["
    zone = {order[(pos[v] + t) % n] for t in range(k, length - k + 1)}
    nbrs = {y for x, y in inst.arcs if x == w} | {x for x, y in inst.arcs if y == w}
    actual = len(nbrs & zone)
    if actual != count or actual <= 2:
        return f"recomputed count {actual}, reported {count}"
    return None
