import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourblocks
from fourblocks.cli import main
from fourblocks import (
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    format_digraph,
    generate,
)


def write_graph(tmp_path, d, name="g.dg"):
    path = tmp_path / name
    path.write_text(format_digraph(d))
    return str(path)


def cycle(n):
    return Digraph(n, ((i, (i + 1) % n) for i in range(n)))


def tt(n):
    return Digraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


@pytest.fixture
def cycle5(tmp_path):
    return write_graph(tmp_path, cycle(5), "cycle5.dg")


@pytest.fixture
def planted(tmp_path):
    d = generate(
        GenSpec(Family.PLANTED_SUBDIVISION, 12, 18, 7, CyclePattern((2, 1, 2, 1)))
    )
    return write_graph(tmp_path, d, "planted.dg")


class TestColor:
    def test_cycle5_within_bound(self, cycle5, capsys):
        assert main(["color", "--k1", "1", "--k3", "1", "--json", cycle5]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "coloring"
        assert out["bound"] == 432

    def test_non_strong_exits_2(self, tmp_path):
        path = write_graph(tmp_path, tt(4))
        assert main(["color", path]) == 2

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.dg"
        path.write_text("2 1\n0 0\n")
        assert main(["color", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_planted_subdivision_exit_3(self, planted, capsys):
        code = main(["color", "--k1", "2", "--k3", "1", "--json", planted])
        out = json.loads(capsys.readouterr().out)
        if code == 3:
            assert out["outcome"] == "subdivision"
        else:
            assert code == 0 and out["outcome"] == "coloring"

    def test_inconclusive_exit_4(self, cycle5, monkeypatch, capsys):
        from fourblocks import decomposition

        monkeypatch.setattr(
            decomposition,
            "color_strong_digraph",
            lambda d, k1, k3, budget=None: decomposition.Inconclusive("color_d3", "x"),
        )
        assert main(["color", "--json", cycle5]) == 4
        assert json.loads(capsys.readouterr().out)["outcome"] == "inconclusive"


class TestColorHam:
    def test_cycle_with_chords(self, tmp_path, capsys):
        d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 8, 12, 1))
        path = write_graph(tmp_path, d)
        code = main(["color-ham", "--k1", "1", "--k3", "1", "--json", path])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 3)
        if code == 0:
            assert out["outcome"] == "coloring" and out["bound"] == 6

    def test_explicit_cycle_file(self, cycle5, tmp_path, capsys):
        cyc = tmp_path / "cycle.txt"
        cyc.write_text("0 1 2 3 4\n")
        assert main(["color-ham", "--cycle", str(cyc), "--json", cycle5]) == 0

    def test_inconsistent_cycle_file_exits_1(self, cycle5, tmp_path):
        cyc = tmp_path / "cycle.txt"
        cyc.write_text("0 2 1 3 4\n")
        assert main(["color-ham", "--cycle", str(cyc), cycle5]) == 1

    def test_no_hamiltonian_cycle_exits_5(self, tmp_path):
        path = write_graph(tmp_path, tt(4))
        assert main(["color-ham", path]) == 5

    def test_long_cycle_needs_no_recursion(self, tmp_path, capsys):
        path = tmp_path / "c1500.dg"
        assert main(["gen", "--family", "cycle", "--n", "1500", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["color-ham", "--json", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "coloring" and len(out["colors"]) == 1500

    def test_reader_closing_early_is_not_a_crash(self, tmp_path):
        # `fourblocks color-ham --json c1500.dg | head -c 50`, with the reader
        # gone before the certificate is written
        path = write_graph(tmp_path, cycle(1500), "c1500.dg")
        src = str(Path(fourblocks.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "fourblocks.cli", "color-ham", "--json", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and "BrokenPipe" not in err


class TestFind:
    def test_found(self, tmp_path, capsys):
        path = write_graph(tmp_path, tt(4))
        assert main(["find", "--k1", "1", "--k3", "1", "--json", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pattern"] == [1, 1, 1, 1]
        assert len(out["paths"]) == 4

    def test_not_found_exits_3(self, cycle5):
        assert main(["find", "--k1", "1", "--k3", "1", cycle5]) == 3

    def test_budget_exits_4(self, tmp_path):
        path = write_graph(tmp_path, tt(8))
        assert main(["find", "--budget", "3", path]) == 4

    def test_explicit_pattern(self, planted, capsys):
        assert main(["find", "--pattern", "2,1,2,1", "--json", planted]) == 0

    def test_bad_pattern_exits_1(self, cycle5):
        assert main(["find", "--pattern", "1,2", cycle5]) == 1


class TestVerify:
    def test_round_trip_color(self, cycle5, tmp_path, capsys):
        assert main(["color", "--json", cycle5]) == 0
        cert = tmp_path / "cert.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", cycle5, str(cert)]) == 0

    def test_tampered_color_exits_3(self, cycle5, tmp_path, capsys):
        assert main(["color", "--json", cycle5]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["colors"][0] = obj["colors"][1]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", cycle5, str(cert)]) == 3

    def test_round_trip_witness(self, tmp_path, capsys):
        path = write_graph(tmp_path, tt(4))
        assert main(["find", "--json", path]) == 0
        cert = tmp_path / "w.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", path, str(cert)]) == 0

    def test_tampered_witness_exits_3(self, tmp_path, capsys):
        path = write_graph(tmp_path, tt(4))
        assert main(["find", "--json", path]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["paths"][0] = [0, 1, 2]
        cert = tmp_path / "w.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3

    def test_round_trip_color_ham(self, tmp_path, capsys):
        d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 8, 11, 2))
        path = write_graph(tmp_path, d)
        code = main(["color-ham", "--json", path])
        cert = tmp_path / "cert.json"
        cert.write_text(capsys.readouterr().out)
        if code in (0, 3):
            assert main(["verify", path, str(cert)]) == 0

    def test_malformed_exits_1(self, cycle5, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("{not json")
        assert main(["verify", cycle5, str(cert)]) == 1
        cert.write_text('{"outcome": "coloring"}')
        assert main(["verify", cycle5, str(cert)]) == 1

    def test_stall_certificate_round_trip(self, tmp_path, capsys):
        complete = Digraph(8, ((i, j) for i in range(8) for j in range(8) if i != j))
        path = write_graph(tmp_path, complete)
        assert main(["color-ham", "--json", path]) == 3
        out = capsys.readouterr().out
        assert json.loads(out)["outcome"] == "stall"
        cert = tmp_path / "stall.json"
        cert.write_text(out)
        assert main(["verify", path, str(cert)]) == 0

    def test_tampered_stall_core_exits_3(self, tmp_path, capsys):
        complete = Digraph(8, ((i, j) for i in range(8) for j in range(8) if i != j))
        path = write_graph(tmp_path, complete)
        main(["color-ham", "--json", path])
        obj = json.loads(capsys.readouterr().out)
        obj["core"] = [0, 1, 2]  # too small to keep degree 6
        obj["witness"] = None
        cert = tmp_path / "stall.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3


class TestGen:
    def test_writes_file_and_sidecar(self, tmp_path):
        out = tmp_path / "inst.dg"
        assert (
            main(
                [
                    "gen",
                    "--family",
                    "strong",
                    "--n",
                    "8",
                    "--m",
                    "12",
                    "--seed",
                    "5",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        assert out.exists()
        sidecar = json.loads((tmp_path / "inst.dg.json").read_text())
        assert sidecar == {
            "family": "strong",
            "n": 8,
            "m": 12,
            "seed": 5,
            "pattern": None,
        }

    def test_stdout_deterministic(self, capsys):
        assert main(["gen", "--family", "hamiltonian", "--n", "7", "--m", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--family", "hamiltonian", "--n", "7", "--m", "10"]) == 0
        assert capsys.readouterr().out == first

    def test_infeasible_exits_1(self):
        assert main(["gen", "--family", "cycle", "--n", "1"]) == 1


class TestStress:
    def test_small_strong_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["stress", "--count", "12", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "pass=" in out and "fail=0" in out

    def test_planted_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["stress", "--family", "planted", "--count", "6", "--n", "12"]) == 0

    def test_hamiltonian_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(["stress", "--family", "hamiltonian", "--count", "8", "--n", "9"]) == 0
        )

    def test_repeat_run_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["stress", "--count", "5", "--n", "7", "--seed", "3"])
        first = capsys.readouterr().out
        main(["stress", "--count", "5", "--n", "7", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_failure_dumps_counterexample_and_exits_1(
        self, capsys, tmp_path, monkeypatch
    ):
        import fourblocks.cli as cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_stress_one", lambda args, seed: ("fail", "forced"))
        assert main(["stress", "--count", "2", "--n", "6", "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        dumps = list(tmp_path.glob("stress_fail_strong_*.dg"))
        assert len(dumps) == 2
        from fourblocks import parse_digraph

        parse_digraph(dumps[0].read_text())


class TestBench:
    def test_smoke(self, capsys):
        assert main(["bench", "--count", "3", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "pure" in out


class TestBudgetEnvVar:
    def test_env_var_sets_default_budget(self, tmp_path, monkeypatch):
        path = write_graph(tmp_path, tt(8))
        monkeypatch.setenv("FOURBLOCKS_BUDGET", "3")
        assert main(["find", path]) == 4
        monkeypatch.delenv("FOURBLOCKS_BUDGET")
        assert main(["find", "--json", path]) == 0

    def test_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        path = write_graph(tmp_path, tt(8))
        monkeypatch.setenv("FOURBLOCKS_BUDGET", "3")
        assert main(["find", "--budget", "1000000", "--json", path]) == 0


class TestEmptyDigraph:
    def test_zero_vertices_rejected(self, tmp_path):
        path = tmp_path / "empty.dg"
        path.write_text("0 0\n")
        assert main(["color", str(path)]) == 1
