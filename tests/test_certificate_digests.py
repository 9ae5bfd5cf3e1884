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
    d = generate(GenSpec(Family.RANDOM_STRONG, n, m, seed))
    return d, color_strong_digraph(d, k1, k3)


def peel(seed, n=60):
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 plus n random chords."""
    rng = Rng(seed)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while len(arcs) < 2 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    d = Digraph(n, arcs)
    return d, color_hamiltonian(d, HamiltonianCycle(tuple(range(n))), 1, 1)


# (path, seed) -> (outcome, digest)
PINNED = {
    ("pipeline-coloring", 1): (
        "coloring", "ebd5d26f36898b1a434f793e4fe33b7ad50958899b00b71d323b8bdd45a55591"),
    ("pipeline-coloring", 2): (
        "coloring", "c3a8b78ff70006e2948099bd4be61f79d6861ab4904e26f75d5de599475e80b3"),
    ("pipeline-coloring", 3): (
        "coloring", "197e05055953331abdb9234ccd449a0362e67f13d279b12d1e48053df261776b"),
    ("pipeline-coloring-k2,2", 1): (
        "coloring", "26f17c45870579ad85cae415b249a5b1f472db043cf807f6e47a8074d6f5b047"),
    ("pipeline-coloring-k2,2", 2): (
        "coloring", "4454edf04eb6fc74a3c55e6c0a44e7dd9af66952120fe65e62d7c523f04cb5f7"),
    ("pipeline-coloring-k2,2", 3): (
        "coloring", "eadab2d537b6d43a88becf580a50279be47d1d28543592a2511b2ad08e6f6827"),
    ("pipeline-coloring-k1,2", 1): (
        "coloring", "b347ea2e3e3f358e5306da62c28c860b34b2d394a5d3ccd9cf819db08b2a86e2"),
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

# path -> seed -> (digraph, certificate)
RUN = {
    "pipeline-coloring": lambda seed: pipeline(60, 120, seed),
    "pipeline-coloring-k2,2": lambda seed: pipeline(60, 120, seed, 2, 2),
    "pipeline-coloring-k1,2": lambda seed: pipeline(60, 120, seed, 1, 2),
    "pipeline-subdivision": lambda seed: pipeline(120, 1200, seed),
    "peel-coloring": peel,
}


@pytest.mark.parametrize("path, seed", sorted(PINNED), ids=lambda x: str(x))
def test_certificate_bytes_are_pinned(path, seed):
    _, cert = RUN[path](seed)
    outcome, digest = PINNED[(path, seed)]
    assert cert.to_json_dict()["outcome"] == outcome
    assert canonical_sha256(cert) == digest
