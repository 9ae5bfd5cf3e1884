"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench

They use scaled-down copies of the workloads, so they take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run._load_program()

import gate  # noqa: E402
from fourblocks.digraph import parse_digraph  # noqa: E402
from workloads import WORKLOADS, fingerprint, make_instance, make_pool  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, sizes=tuple(n // 10 for n in w.sizes), pool=3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_byte_identical_instances(name):
    w = WORKLOADS[name]
    a, b = make_pool(w, 7), make_pool(w, 7)
    assert [i.text for i in a] == [i.text for i in b]
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(make_pool(w, 8)) != fingerprint(a)
    for inst in a:
        assert parse_digraph(inst.text).arcs == frozenset(inst.arcs)
        assert inst.n in w.sizes and inst.m == w.arcs_per_vertex * inst.n


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name):
    result, report = run.run(tiny(name), seed=3, seconds=0.01, trace=False)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_same_certificates(name):
    w = tiny(name)
    plain, plain_report = run.run(w, seed=5, seconds=0.01, trace=False)
    traced, report = run.run(w, seed=5, seconds=0.01, trace=True)
    assert traced["correct"] and traced["failed"] == 0, report["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert report["certificates_sha256"] == plain_report["certificates_sha256"]
    spans = report["spans"]
    ids = {s["id"]: s for s in spans}
    children = [s for s in spans if s["parent"] is not None]
    assert children
    for s in children:
        parent = ids[s["parent"]]
        assert parent["op"] == s["op"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    assert {s["name"] for s in spans if s["parent"] is None} == {"op"}


def test_gate_recomputes_bounds_instead_of_trusting_them():
    ham = make_instance(tiny("ham-peel"), 1, 0)
    rainbow = {"outcome": "coloring", "bound": 10**6, "colors": list(range(ham.n))}
    assert "exceeds recomputed bound 6" in gate.check(ham, rainbow, ham=True)

    inst = make_instance(tiny("sparse-color"), 1, 0)
    flat = {"outcome": "coloring", "bound": 10**6, "colors": [0] * inst.n,
            "k1": inst.k, "k3": inst.k}
    assert gate.check(inst, flat, ham=False) == "coloring is not proper"


def test_gate_rejects_a_forged_witness():
    inst = make_instance(tiny("sparse-color"), 1, 0)
    j = inst.cycle[:4]
    forged = {
        "outcome": "subdivision",
        "witness": {
            "pattern": [inst.k, 1, inst.k, 1],
            "junctions": list(j),
            "paths": [[j[0], j[1]], [j[2], j[1]], [j[2], j[3]], [j[0], j[3]]],
        },
    }
    arcs = set(inst.arcs)
    if all(a in arcs for a in ((j[0], j[1]), (j[2], j[1]), (j[2], j[3]), (j[0], j[3]))):
        pytest.skip("the forged witness happens to be real")
    assert gate.check(inst, forged, ham=False).startswith("witness rejected")


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-color",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
