"""Certificate bytes are pinned.

Each case is a small seeded instance of one certifying path: the pipeline
ending in a coloring (k = 1, with 2 level classes, and k = 2, with 4), the
pipeline ending in a subdivision, and the Hamiltonian peel ending in a
coloring. The SHA-256 of the certificate's
canonical JSON (sorted keys, compact separators) must equal the pinned
value, so any change of certificate bytes fails here, on either kernel.
A change that alters them on purpose updates the value and says why.
"""

import hashlib
import json

import pytest

from fourblocks import (
    Digraph,
    Family,
    GenSpec,
    HamiltonianCycle,
    Rng,
    color_hamiltonian,
    color_strong_digraph,
    generate,
)


def canonical_sha256(cert) -> str:
    text = json.dumps(cert.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pipeline(n, m, seed, k1=1, k3=1):
    return color_strong_digraph(generate(GenSpec(Family.RANDOM_STRONG, n, m, seed)), k1, k3)


def peel(seed, n=60):
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 plus n random chords."""
    rng = Rng(seed)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < 2 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return color_hamiltonian(Digraph(n, arcs), HamiltonianCycle(tuple(range(n))), 1, 1)


# (path, seed) -> (outcome, digest)
PINNED = {
    ("pipeline-coloring", 1): (
        "coloring", "e7e7e5a48b451b505c534f6022d6bbb17e277380f519b2dfac42f24af34d651a"),
    ("pipeline-coloring", 2): (
        "coloring", "909cca0442cc34b585a4e47304c823c6c1812ee4e6f175c0aedc844119ed9a06"),
    ("pipeline-coloring", 3): (
        "coloring", "d3615bcf278b8ea6464a764346bfdad911f0030b551a908b1359b0da46864336"),
    ("pipeline-coloring-k2,2", 1): (
        "coloring", "c2fd911348f300addbf5f1fdfdb6376c612dc8df993f099e352e2f273f903da6"),
    ("pipeline-coloring-k2,2", 2): (
        "coloring", "bcd868e70b99c5b59de65af3b73b07ff8ef37776b88e3a56d4e46df69020c4c0"),
    ("pipeline-coloring-k2,2", 3): (
        "coloring", "090c996942af8db7997b6f3421d3d3236cd9fd6407a973a8e05467b0ae0976ef"),
    ("pipeline-coloring-k1,2", 1): (
        "coloring", "b8aad2e34f4b94fc021720a731deb16ab45cb19903a9a626473d5f41fc00fb97"),
    ("pipeline-subdivision", 1): (
        "subdivision", "ecb0305cb100bbd5a8f16b306779199e203a9435979800c56cbf1b7ca420df23"),
    ("pipeline-subdivision", 2): (
        "subdivision", "5a4ccb92c8aa7ed66e4b6ddf457b39e75268f150787b21dcec02170db8209a78"),
    ("pipeline-subdivision", 4): (
        "subdivision", "07e46f22a6dd72b6039a802b1ec652ece9494a514423ae35cb86ca0357782687"),
    ("peel-coloring", 1): (
        "coloring", "fbc59b2ff73e075961c13361ec7f97cbe1362e6665b6b9943ebabe4a4985a104"),
    ("peel-coloring", 2): (
        "coloring", "9e992faa62d7e3e065589f376ad2a3b34375307f1a001db4610f1510d4a2e51e"),
    ("peel-coloring", 3): (
        "coloring", "060a7ff2a6a8b021f6739a500966f6a097caf5291d0c3e0467b4986eb8740f94"),
}

RUN = {
    "pipeline-coloring": lambda seed: pipeline(60, 120, seed),
    "pipeline-coloring-k2,2": lambda seed: pipeline(60, 120, seed, 2, 2),
    "pipeline-coloring-k1,2": lambda seed: pipeline(60, 120, seed, 1, 2),
    "pipeline-subdivision": lambda seed: pipeline(120, 1200, seed),
    "peel-coloring": peel,
}


@pytest.mark.parametrize("path, seed", sorted(PINNED), ids=lambda x: str(x))
def test_certificate_bytes_are_pinned(path, seed):
    cert = RUN[path](seed)
    outcome, digest = PINNED[(path, seed)]
    assert cert.to_json_dict()["outcome"] == outcome
    assert canonical_sha256(cert) == digest
