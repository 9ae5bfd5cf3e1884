import copy
import json
import tracemalloc
from functools import partial

import pytest

from fourblocks import (
    Digraph,
    HamiltonianCycle,
    color_hamiltonian,
    color_strong_digraph,
    parse_digraph,
    verify_certificate,
)
from test_certificate_digests import PINNED, RUN


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(n) if i != j))


def emitted(cert) -> dict:
    """The certificate as `verify` reads it back from a file."""
    return json.loads(json.dumps(cert.to_json_dict()))


def clash(cert):
    cert["colors"][0] = cert["colors"][1]


def break_witness(cert):
    cert["witness"]["paths"][0] = [0, 0]


def shrink_core(cert):
    cert["core"] = [0, 1, 2]


def certificates():
    """(name, digraph, certificate, tamper or None) for every outcome the
    library emits; tamper breaks the certificate's checkable claim."""
    ham = HamiltonianCycle(tuple(range(8)))
    pipeline_coloring = color_strong_digraph(cycle(5), 1, 1)
    subdivision = color_strong_digraph(complete(13), 1, 1)
    inconclusive = color_strong_digraph(complete(13), 1, 1, budget=0)
    peel_coloring = color_hamiltonian(cycle(8), ham, 1, 1)
    stall = color_hamiltonian(complete(8), ham, 1, 1)
    assert stall.witness is not None
    return [
        ("pipeline-coloring", cycle(5), emitted(pipeline_coloring), clash),
        ("subdivision", complete(13), emitted(subdivision), break_witness),
        ("inconclusive", complete(13), emitted(inconclusive), None),
        ("peel-coloring", cycle(8), emitted(peel_coloring), clash),
        ("stall-witness", complete(8), emitted(stall), break_witness),
        ("stall-core", complete(8), emitted(stall), shrink_core),
    ]


CASES = certificates()


@pytest.mark.parametrize("name, d, cert, tamper", CASES, ids=[c[0] for c in CASES])
def test_emitted_certificates_pass_and_tampered_ones_fail(name, d, cert, tamper):
    result = verify_certificate(d, cert)
    assert result.ok and result.reason, result.reason
    if tamper is None:
        return
    bad = copy.deepcopy(cert)
    tamper(bad)
    result = verify_certificate(d, bad)
    assert not result.ok and result.reason


class ReadKeys(dict):
    """A JSON object that records the keys a reader looks up."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def unread_keys(d, cert) -> set[str]:
    """The keys of the emitted certificate, at any depth, that a passing
    verify_certificate never looked up."""
    objects: list[ReadKeys] = []

    def hook(pairs):
        objects.append(ReadKeys(pairs))
        return objects[-1]

    obj = json.loads(json.dumps(cert.to_json_dict()), object_pairs_hook=hook)
    assert verify_certificate(d, obj).ok
    return {key for o in objects for key in o.keys() - o.read}


def stall_with_witness():
    d = complete(8)
    stall = color_hamiltonian(d, HamiltonianCycle(tuple(range(8))), 1, 1)
    assert stall.witness is not None
    return d, stall


# name -> () -> (digraph, library certificate): every pinned certificate,
# plus the two outcomes that no pin covers
READ_CASES = {f"{path}-{seed}": partial(RUN[path], seed) for path, seed in PINNED}
READ_CASES["stall-witness"] = stall_with_witness
READ_CASES["inconclusive"] = lambda: (
    complete(13), color_strong_digraph(complete(13), 1, 1, budget=0)
)


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_verify_reads_every_key_the_library_writes(case):
    """A certificate holds only what verify checks. An inconclusive one
    makes no claim, so its stage and reason go unread."""
    d, cert = READ_CASES[case]()
    exempt = {"stage", "reason"} if case == "inconclusive" else set()
    assert unread_keys(d, cert) <= exempt


@pytest.mark.parametrize("cert", [5, {"outcome": "coloring"}, {"outcome": "stall", "k": 1},
                                  {"outcome": "unknown"}])
def test_malformed_raises_value_error(cert):
    with pytest.raises(ValueError):
        verify_certificate(cycle(3), cert)


def test_stall_check_costs_nothing_per_declared_vertex():
    """The core's degrees are read off the arcs inside it, not off
    neighbor sets for all 10^6 declared vertices."""
    d = parse_digraph("1000000 0\n")
    cert = {"outcome": "stall", "k": 1, "core": [0, 1]}
    tracemalloc.start()
    try:
        result = verify_certificate(d, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.ok and result.reason == "core minimum degree 0 is below 6"
    assert peak < 2**20


def test_stall_core_degree_counts_a_digon_once():
    core = list(range(7))
    digons = Digraph(8, [(u, v) for u in core for v in core if u != v] + [(0, 7), (7, 0)])
    one_way = Digraph(8, [(u, v) for u in core for v in core if u < v])
    for d in (digons, one_way):
        assert verify_certificate(d, {"outcome": "stall", "k": 1, "core": core}).ok
    cert = {"outcome": "stall", "k": 1, "core": core[:6] + [7]}
    assert verify_certificate(digons, cert).reason == "core minimum degree 1 is below 6"


def test_stall_core_inside_a_larger_digraph():
    """The core's degrees count the arcs between core vertices whichever way
    they point: vertex 6 has no out-arc into the core, and all six of its
    core neighbors reach it by in-arcs. Arcs enter and leave the core
    through vertices 7 to 9, which add nothing."""
    inner = [(u, v) for u in range(6) for v in range(6) if u != v]
    into_6 = [(u, 6) for u in range(6)]
    outside = [(6, 7), (7, 0), (2, 8), (8, 3), (9, 6), (5, 9)]
    core = [6, 3, 0, 1, 2, 4, 5]
    cert = {"outcome": "stall", "k": 1, "core": core}
    result = verify_certificate(Digraph(10, inner + into_6 + outside), cert)
    assert result.ok and result.reason == "valid stall core with minimum degree >= 6"
    one_way = Digraph(10, [a for a in inner if a != (1, 0)] + into_6 + outside)
    assert verify_certificate(one_way, cert).ok
    no_edge = Digraph(10, [a for a in inner if a not in {(0, 1), (1, 0)}] + into_6 + outside)
    result = verify_certificate(no_edge, cert)
    assert not result.ok and result.reason == "core minimum degree 5 is below 6"
