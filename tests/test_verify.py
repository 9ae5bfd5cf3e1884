import copy
import json
import tracemalloc

import pytest

from fourblocks import (
    Digraph,
    HamiltonianCycle,
    color_hamiltonian,
    color_strong_digraph,
    parse_digraph,
    verify_certificate,
)


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
