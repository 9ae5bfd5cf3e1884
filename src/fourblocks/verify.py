"""Re-check a pipeline or Hamiltonian certificate, or a bare witness, on
its digraph. Every bound, degree and pattern is recomputed from the digraph
and the block lengths. Every number read must be a JSON integer; a bool,
float or string, like a missing field, makes the certificate malformed.
"""

from __future__ import annotations

from typing import Optional

from .decomposition import coloring_bound
from .digraph import Coloring, Digraph
from .witness import CyclePattern, VerifyResult, json_int
from .witness import verify_subdivision, witness_from_json


def verify_certificate(d: Digraph, cert: dict) -> VerifyResult:
    """Whether the certificate's claim holds on d; reason says why, either
    way. Raises ValueError when the certificate is malformed."""
    try:
        return _check(d, cert)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or mistyped field: {exc}") from None


def _check(d: Digraph, cert: dict) -> VerifyResult:
    if "outcome" not in cert:
        cert = {"outcome": "subdivision", "witness": cert}
    outcome = cert["outcome"]
    if outcome == "coloring":
        return _coloring(d, cert)
    if outcome == "subdivision":
        # a pipeline certificate names the pattern its run asked for
        pattern = None
        if "k1" in cert or "k3" in cert:
            k1, k3 = _block_length(cert, "k1"), _block_length(cert, "k3")
            pattern = CyclePattern.from_k(k1, k3)
        return _witness(d, cert["witness"], pattern)
    if outcome == "stall":
        k = _block_length(cert)
        core = {json_int(v) for v in cert["core"]}
        if not core:
            return VerifyResult(False, "empty stall core")
        if not all(0 <= v < d.n for v in core):
            raise ValueError(f"core vertices must lie in 0..{d.n - 1}")
        # undirected core neighbors from the core vertices' out-lists alone,
        # so no step per vertex outside the core; a digon counts once
        adj: dict[int, set[int]] = {v: set() for v in core}
        for u in core:
            for v in adj.keys() & d.out_neighbors(u):
                adj[u].add(v)
                adj[v].add(u)
        min_deg = min(map(len, adj.values()))
        if min_deg < 6 * k:
            return VerifyResult(False, f"core minimum degree {min_deg} is below {6 * k}")
        if cert.get("witness") is not None:
            check = _witness(d, cert["witness"], CyclePattern.from_k(k, k))
            if not check:
                return check
        return VerifyResult(True, f"valid stall core with minimum degree >= {6 * k}")
    if outcome == "inconclusive":
        return VerifyResult(True, "inconclusive certificate carries no checkable claim")
    raise ValueError(f"unknown outcome {outcome!r}")


def _witness(d: Digraph, obj, pattern: Optional[CyclePattern] = None) -> VerifyResult:
    """The witness JSON obj checked on d against pattern, by default the
    pattern the witness claims."""
    w, claimed = witness_from_json(obj)
    pattern = pattern or claimed
    check = verify_subdivision(d, w, pattern)
    if not check.ok:
        return VerifyResult(False, f"invalid witness: {check.reason}")
    return VerifyResult(True, f"valid subdivision witness for C{pattern.blocks}")


def _coloring(d: Digraph, cert: dict) -> VerifyResult:
    colors = cert["colors"]
    bound = json_int(cert["bound"])
    # the bound follows from the block lengths, so it is recomputed
    if "k1" in cert or "k3" in cert:
        k1, k3 = _block_length(cert, "k1"), _block_length(cert, "k3")
        expected, rule = coloring_bound(k1, k3), "36*2k*(4k+2)"
        k = max(k1, k3)
    else:
        k = _block_length(cert)
        expected, rule = 6 * k, "6k"
    if bound != expected:
        return VerifyResult(
            False, f"claimed bound {bound} is not {rule} = {expected} for k = {k}"
        )
    if not isinstance(colors, list) or len(colors) != d.n:
        raise ValueError(f"colors must list all {d.n} vertices")
    coloring = Coloring({v: json_int(c) for v, c in enumerate(colors)})
    if any(colors[u] == colors[v] for u, vs in enumerate(d.out_lists()) for v in vs):
        return VerifyResult(False, "coloring is not proper")
    if coloring.palette_size > bound:
        return VerifyResult(False, f"palette {coloring.palette_size} exceeds bound {bound}")
    return VerifyResult(True, f"valid coloring: {coloring.palette_size} colors within {bound}")


def _block_length(cert: dict, key: str = "k") -> int:
    k = json_int(cert[key])
    if k < 1:
        raise ValueError(f"block length {key} = {k} is below 1")
    return k
