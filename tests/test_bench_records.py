"""Every committed benchmark record (``BENCH_*.json`` at the repository
root) says what it measured, how, where, against what, and what it claims;
a claim names a workload and an end-to-end metric of ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("what", "command", "host", "parent", "change", "claim")


def test_records_are_present():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in KEYS if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
    claim = record["claim"]
    if claim is None:
        return
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert claim["workload"] in {w["name"] for w in bench["workloads"]}
    assert claim["metric"] in {m["name"] for m in bench["end_to_end"]}
