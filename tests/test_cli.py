import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import fourblocks
from fourblocks.cli import main
from fourblocks import (
    CyclePattern,
    Digraph,
    Family,
    GenSpec,
    find_cycle_subdivision,
    format_digraph,
    generate,
    witness_to_json,
)
from fourblocks._subdiv_py import BUDGET

import naive


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

    def test_huge_header_without_arcs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.dg"
        path.write_text("1000000 0\n")
        assert path.stat().st_size == 10
        assert main(["color", str(path)]) == 2
        assert "not strongly connected" in capsys.readouterr().err

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

    def test_long_blocks_are_inconclusive_not_a_crash(self, tmp_path, capsys):
        """A 14,500-cycle with a back arc and a transitive tournament on
        {0, 2400, ..., 14400}: stage d2 fails, and the (1200,1,1200,1)
        search runs out of budget deep inside a block. The pure kernel used
        to die there with RecursionError and exit 1."""
        n = 14_500
        hubs = range(0, n, 2400)
        arcs = [(i, (i + 1) % n) for i in range(n)] + [(2400, 0)]
        arcs += [(x, y) for x in hubs for y in hubs if y < x and x >= 4800]
        path = write_graph(tmp_path, Digraph(n, arcs))
        code = main(["color", "--k1", "1200", "--k3", "1200", "--budget", "1000000",
                     "--json", path])
        assert code == 4
        assert capsys.readouterr().out == (
            '{"outcome":"inconclusive","reason":"class 1: vertex 14400 keeps '
            'out-degree 4 in the high part; subdivision search ran out of budget",'
            '"stage":"color_d2"}\n'
        )


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
        assert_pipe_safe(["color-ham", "--json", path], 0)


def assert_pipe_safe(argv, code, cwd=None):
    """Run the CLI with its stdout reader closed before anything is
    written: the documented exit code, and no traceback."""
    src = str(Path(fourblocks.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "fourblocks.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        cwd=cwd,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == code
    assert "Traceback" not in err and "BrokenPipe" not in err


class TestStdoutReaderGone:
    """`fourblocks ... | true`: the reader is gone before the command writes."""

    def test_gen(self):
        assert_pipe_safe(["gen", "--family", "cycle", "--n", "1500"], 0)

    def test_find_not_found(self, tmp_path):
        assert_pipe_safe(["find", write_graph(tmp_path, cycle(6))], 3)

    def test_verify(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle(6))
        assert main(["color-ham", "--json", path]) == 0
        cert = tmp_path / "cert.json"
        cert.write_text(capsys.readouterr().out)
        assert_pipe_safe(["verify", path, str(cert)], 0)

    def test_stress(self, tmp_path):
        argv = ["stress", "--family", "strong", "--count", "3", "--n", "6"]
        assert_pipe_safe(argv, 0, cwd=tmp_path)

    def test_bench(self):
        assert_pipe_safe(["bench", "--n", "8", "--count", "2"], 0)


class TestFind:
    def test_found(self, tmp_path, capsys):
        path = write_graph(tmp_path, tt(4))
        assert main(["find", "--k1", "1", "--k3", "1", "--json", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pattern"] == [1, 1, 1, 1]
        assert len(out["paths"]) == 4

    def test_not_found_exits_3(self, cycle5):
        assert main(["find", "--k1", "1", "--k3", "1", cycle5]) == 3

    def test_huge_header_without_arcs_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.dg"
        path.write_text("1000000 0\n")
        assert main(["find", str(path)]) == 3
        assert capsys.readouterr().out == "no subdivision found\n"

    def test_budget_exits_4(self, tmp_path):
        path = write_graph(tmp_path, tt(8))
        assert main(["find", "--budget", "3", path]) == 4

    def test_budget_that_the_unpruned_search_ran_out_of(self, tmp_path, capsys):
        """Every source x sink quadruple costs the unpruned enumeration a
        node, so it runs out of 1000 nodes on this dense strong digraph
        (and finds at 10^4); the pruned one finds the same first witness."""
        d = generate(GenSpec(Family.RANDOM_STRONG, 30, 300, 0))
        indptr, indices = naive.csr(d)
        unpruned = naive.search_cycle_subdivision(d.n, indptr, indices, 1, 1, 1, 1, 1000)
        assert unpruned[0] == BUDGET
        path = write_graph(tmp_path, d)
        assert main(["find", "--budget", "1000", "--json", path]) == 0
        out = json.loads(capsys.readouterr().out)
        _, (junctions, paths), _ = naive.search_cycle_subdivision(
            d.n, indptr, indices, 1, 1, 1, 1, 10**4
        )
        assert out["junctions"] == list(junctions)
        assert out["paths"] == [list(p) for p in paths]

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
        # the older format, which also carried the per-class stage palettes,
        # still verifies: verify ignores the key
        cert.write_text(
            '{"bound":432,"classes":[{"b2_max_out_degree":0,"class":1,'
            '"combined_colors":2,"d1_colors":1,"d2_colors":2,"d3_colors":1,"size":3},'
            '{"b2_max_out_degree":0,"class":2,"combined_colors":1,"d1_colors":1,'
            '"d2_colors":1,"d3_colors":1,"size":2}],"colors":[0,1,0,1,2],'
            '"k1":1,"k3":1,"outcome":"coloring"}'
        )
        assert main(["verify", cycle5, str(cert)]) == 0

    def test_tampered_color_exits_3(self, cycle5, tmp_path, capsys):
        assert main(["color", "--json", cycle5]) == 0
        obj = json.loads(capsys.readouterr().out)
        obj["colors"][0] = obj["colors"][1]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", cycle5, str(cert)]) == 3

    def test_pipeline_bound_is_recomputed_from_k(self, tmp_path, capsys):
        """500 colors on a directed 500-cycle fit a claimed bound of 10^6,
        but the bound for k = 1 is 432."""
        path = write_graph(tmp_path, cycle(500))
        obj = {"outcome": "coloring", "bound": 10**6, "colors": list(range(500)),
               "k1": 1, "k3": 1}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "432" in capsys.readouterr().out
        obj["bound"] = 432
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "exceeds bound 432" in capsys.readouterr().out
        del obj["k3"]
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 1
        # a color-ham certificate: the bound for k = 1 is 6
        del obj["k1"]
        obj.update(bound=10**6, k=1)
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "6k = 6" in capsys.readouterr().out
        del obj["k"]
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 1

    def test_block_length_below_1_is_malformed(self, tmp_path, capsys):
        complete = Digraph(8, ((i, j) for i in range(8) for j in range(8) if i != j))
        path = write_graph(tmp_path, complete)
        assert main(["color-ham", "--json", path]) == 3
        stall = json.loads(capsys.readouterr().out)
        coloring = {"outcome": "coloring", "bound": 0, "colors": list(range(8))}
        cert = tmp_path / "cert.json"
        for obj in (stall, coloring):
            obj["k"] = 0
            cert.write_text(json.dumps(obj))
            assert main(["verify", path, str(cert)]) == 1

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

    def test_subdivision_outcome_round_trip_and_tamper(self, tmp_path, capsys):
        complete = Digraph(13, ((i, j) for i in range(13) for j in range(13) if i != j))
        path = write_graph(tmp_path, complete)
        assert main(["color", "--json", path]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["outcome"] == "subdivision"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 0
        assert "valid subdivision witness" in capsys.readouterr().out
        obj["witness"]["paths"][0] = [0, 0]
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "invalid witness: " in capsys.readouterr().out

    def test_round_trip_color_ham(self, tmp_path, capsys):
        d = generate(GenSpec(Family.RANDOM_HAMILTONIAN, 8, 11, 2))
        path = write_graph(tmp_path, d)
        code = main(["color-ham", "--json", path])
        cert = tmp_path / "cert.json"
        cert.write_text(capsys.readouterr().out)
        if code in (0, 3):
            assert main(["verify", path, str(cert)]) == 0

    def test_stall_core_on_a_huge_header_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.dg"
        path.write_text("1000000 0\n")
        cert = tmp_path / "cert.json"
        cert.write_text('{"outcome":"stall","k":1,"core":[0,1]}')
        assert main(["verify", str(path), str(cert)]) == 3
        assert "core minimum degree 0 is below 6" in capsys.readouterr().out

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

    def test_stall_witness_must_realize_the_stall_pattern(self, tmp_path, capsys):
        """K13's core has minimum degree 12 = 6k for k = 2, but a witness
        of C(1,1,1,1) is no subdivision of C(2,1,2,1)."""
        complete = Digraph(13, ((i, j) for i in range(13) for j in range(13) if i != j))
        path = write_graph(tmp_path, complete)
        w = find_cycle_subdivision(complete, CyclePattern((1, 1, 1, 1)))
        obj = {"outcome": "stall", "k": 2, "core": list(range(13)),
               "witness": witness_to_json(w, CyclePattern((1, 1, 1, 1)))}
        cert = tmp_path / "stall.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "invalid witness" in capsys.readouterr().out
        obj["k"] = 1
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 0

    def test_subdivision_witness_must_realize_the_requested_pattern(
        self, tmp_path, capsys
    ):
        """A C(1,1,1,1) witness on K13 does not answer a run that asked
        for C(2,1,1,1); without k1/k3 the claimed pattern is checked."""
        complete = Digraph(13, ((i, j) for i in range(13) for j in range(13) if i != j))
        path = write_graph(tmp_path, complete)
        w = find_cycle_subdivision(complete, CyclePattern((1, 1, 1, 1)))
        obj = {"outcome": "subdivision", "k1": 2, "k3": 1,
               "witness": witness_to_json(w, CyclePattern((1, 1, 1, 1)))}
        cert = tmp_path / "sub.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 3
        assert "invalid witness" in capsys.readouterr().out
        obj["k1"] = 1
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 0
        assert "C(1, 1, 1, 1)" in capsys.readouterr().out
        for k1 in (0, 1.5, True, "2"):
            obj["k1"] = k1
            cert.write_text(json.dumps(obj))
            assert main(["verify", path, str(cert)]) == 1
        del obj["k1"], obj["k3"]
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 0

    def test_pipeline_subdivision_names_its_block_lengths(self, tmp_path, capsys):
        complete = Digraph(25, ((i, j) for i in range(25) for j in range(25) if i != j))
        path = write_graph(tmp_path, complete)
        assert main(["color", "--k1", "2", "--json", path]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert (obj["outcome"], obj["k1"], obj["k3"]) == ("subdivision", 2, 1)
        cert = tmp_path / "sub.json"
        cert.write_text(json.dumps(obj))
        assert main(["verify", path, str(cert)]) == 0
        assert "C(2, 1, 1, 1)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fields",
        [
            {"colors": [0.2, 1.7, 2.1], "k": 1, "bound": 6},
            {"colors": [0, 1, 2], "k": 1.5, "bound": 6},
            {"colors": [0, 1, 2], "k1": 1, "k3": 1.9, "bound": 432},
            {"colors": [0, 1, 2], "k1": 1, "k3": 1, "bound": "432"},
            {"colors": [0, 1, 2], "k": True, "bound": 6},
        ],
        ids=["float-colors", "float-k", "float-k3", "string-bound", "bool-k"],
    )
    def test_non_integer_numbers_are_malformed(self, tmp_path, fields):
        path = write_graph(tmp_path, cycle(3))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"outcome": "coloring", **fields}))
        assert main(["verify", path, str(cert)]) == 1

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

    def test_planted_campaign_with_unequal_blocks(self, capsys, tmp_path, monkeypatch):
        # the plant is C(2,1,1,1), which need not contain C(2,1,2,1): the
        # planted check searches for the planted pattern itself
        monkeypatch.chdir(tmp_path)
        argv = ["stress", "--family", "planted", "--k1", "2", "--k3", "1",
                "--count", "10", "--n", "14"]
        assert main(argv) == 0
        assert "pass=10 fail=0" in capsys.readouterr().out

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

    def test_unwritable_dump_still_reports_the_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        import fourblocks.cli as cli

        monkeypatch.chdir(tmp_path)
        (tmp_path / "stress_fail_strong_11.dg").mkdir()
        monkeypatch.setattr(cli, "_stress_one", lambda args, seed: ("fail", "forced"))
        assert main(["stress", "--count", "1", "--n", "6", "--seed", "11"]) == 1
        out, err = capsys.readouterr()
        assert "seed 11: FAIL (forced)" in err
        assert "cannot write stress_fail_strong_11.dg" in err
        assert "pass=0 fail=1 skip=0" in out


class TestBench:
    def test_smoke(self, capsys):
        assert main(["bench", "--count", "3", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "pure" in out

    @staticmethod
    def fake_kernels(monkeypatch, statuses):
        """Replace the loaded kernels by ones that return statuses[name] and
        record each call's kernel name; returns that record."""
        from fourblocks import witness

        calls = []

        def kernel(name):
            def search_cycle_subdivision(out, k1, k2, k3, k4, budget):
                calls.append(name)
                return statuses[name], None, 0

            return SimpleNamespace(search_cycle_subdivision=search_cycle_subdivision)

        monkeypatch.setattr(
            witness, "available_kernels", lambda: {name: kernel(name) for name in statuses}
        )
        return calls

    def test_one_kernel_is_called_count_times_5(self, capsys, monkeypatch):
        calls = self.fake_kernels(monkeypatch, {"pure": 1})
        assert main(["bench", "--count", "4", "--n", "8"]) == 0
        assert calls == ["pure"] * 4 * 5
        out = capsys.readouterr().out
        assert "median of 5 passes" in out and "pure kernel only" in out

    # The kernels take turns pass by pass; each pass runs one kernel on
    # every instance.
    def test_kernels_alternate_pass_by_pass(self, capsys, monkeypatch):
        calls = self.fake_kernels(monkeypatch, {"pure": 1, "compiled": 1})
        assert main(["bench", "--count", "3", "--n", "8"]) == 0
        assert calls == (["compiled"] * 3 + ["pure"] * 3) * 5
        assert "kernels agree on all outcomes: True" in capsys.readouterr().out

    def test_kernels_that_disagree_exit_1(self, capsys, monkeypatch):
        self.fake_kernels(monkeypatch, {"pure": 1, "compiled": 2})
        assert main(["bench", "--count", "2", "--n", "8"]) == 1
        assert "kernels agree on all outcomes: False" in capsys.readouterr().out


class TestBudgetDefault:
    def test_environment_does_not_change_the_budget(self, tmp_path, monkeypatch):
        # only --budget sets the budget; a three-node budget would end this
        # search inconclusive (exit 4)
        path = write_graph(tmp_path, tt(8))
        monkeypatch.setenv("FOURBLOCKS_BUDGET", "3")
        assert main(["find", path]) == 0


class TestEmptyDigraph:
    def test_zero_vertices_rejected(self, tmp_path):
        path = tmp_path / "empty.dg"
        path.write_text("0 0\n")
        assert main(["color", str(path)]) == 1


def run_cli(argv, env=None):
    """(exit code, stderr) of the CLI run as its own process."""
    src = str(Path(fourblocks.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fourblocks.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        timeout=120,
    )
    return proc.returncode, proc.stderr


class TestInputProblemsExit1:
    """Missing files, block lengths below 1, bad budgets and counts below 1
    exit 1 before any work; an unparsable certificate or an unwritable
    output file exits 1 too. None of them prints a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "{missing}"],
            ["color-ham", "{missing}"],
            ["find", "{missing}"],
            ["verify", "{missing}", "{graph}"],
            ["color", "--k1", "0", "{graph}"],
            # tt(4) has no Hamiltonian cycle: a search would exit 5
            ["color-ham", "--k1", "0", "{graph}"],
            ["find", "--k3", "0", "{graph}"],
            ["stress", "--k1", "0", "--count", "1"],
            ["bench", "--k3", "-2", "--count", "1"],
            ["stress", "--count", "-3"],
            ["bench", "--count", "0"],
            ["find", "--budget", "-1", "{graph}"],
            ["verify", "{graph}", "{deep}"],
            ["gen", "--family", "cycle", "--n", "5", "-o", "{missing}/g.dg"],
            # headers that no list can hold: 2^62 vertices fails the
            # allocation's size check (MemoryError) and 10^20 does not fit
            # an index (OverflowError), both before any memory is taken
            *(
                argv
                for header in ("{huge}", "{overflow}")
                for argv in (["color", header], ["color-ham", header],
                             ["find", header], ["verify", header, "{stall}"])
            ),
        ],
        ids=["color-missing", "color-ham-missing", "find-missing", "verify-missing",
             "color-k1", "color-ham-k1", "find-k3", "stress-k1", "bench-k3",
             "stress-count", "bench-count",
             "find-budget", "verify-deep-nesting", "gen-missing-dir",
             *(f"{cmd}-{header}-header"
               for header in ("huge", "overflow")
               for cmd in ("color", "color-ham", "find", "verify"))],
    )
    def test_exits_1_without_traceback(self, tmp_path, argv):
        graph = write_graph(tmp_path, tt(4))
        missing = str(tmp_path / "missing.dg")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        huge, overflow = tmp_path / "huge.dg", tmp_path / "overflow.dg"
        huge.write_text("4611686018427387904 0\n")
        overflow.write_text("99999999999999999999 0\n")
        stall = tmp_path / "stall.json"
        stall.write_text('{"outcome":"stall","k":1,"core":[0]}')
        argv = [
            a.format(graph=graph, missing=missing, deep=deep, huge=huge,
                     overflow=overflow, stall=stall)
            for a in argv
        ]
        code, err = run_cli(argv)
        assert code == 1, err
        assert err and "Traceback" not in err

    def test_budget_0_is_a_budget(self, tmp_path):
        path = write_graph(tmp_path, tt(8))
        assert main(["find", "--budget", "0", path]) == 4
        assert main(["find", "--budget", "1", path]) == 4
