import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from reachkit import cli, hardness
from reachkit.cli import build_parser, main
from reachkit.instance_io import InstanceDoc, load_instance, write_instance
from reachkit.linalg import DEFAULT_TOL
from reachkit.setfun import ColumnSelectionFunction
from reachkit.solvers import VarSelInstance
from reachkit.system import LinearSystem, star_system

COUNTEREXAMPLE = {
    "setfun": {
        "v": [-1.0, 1.0, 1.0],
        "M": [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    }
}


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    write_instance(InstanceDoc(system=star_system(5)), path)
    return str(path)


@pytest.fixture
def setfun_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(COUNTEREXAMPLE))
    return str(path)


class TestCheckFeasible:
    def test_hub_actuation_is_feasible(self, star_file, capsys):
        assert main(["check-feasible", star_file, "--actuate", "1"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_no_actuation_is_infeasible(self, star_file, capsys):
        assert main(["check-feasible", star_file]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["check-feasible", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check-feasible", str(tmp_path / "absent.json")]) == 2

    def test_overflowing_drift_exits_2(self, tmp_path, capsys):
        # exp(A) overflows, so the offset x1 - exp(A) x0 is not finite
        sys = LinearSystem(
            A=np.diag([800.0, 0.0]), B=np.eye(2), t0=0.0, t1=1.0,
            x0=np.array([0.0, 1.0]), x1=np.array([1.0, 0.0]),
        )
        path = tmp_path / "overflow.json"
        write_instance(InstanceDoc(system=sys), path)
        assert main(["check-feasible", str(path), "--actuate", "1"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_drift_norm_beyond_float_range_exits_2(self, tmp_path, capsys):
        # ||A||_F is about 2e308, so no Krylov block after the first can be
        # judged
        sys = LinearSystem(
            A=1e307 * np.ones((20, 20)), B=np.eye(20)[:, :1], t0=0.0, t1=1.0,
            x0=np.zeros(20), x1=np.ones(20),
        )
        path = tmp_path / "huge-drift.json"
        write_instance(InstanceDoc(system=sys), path)
        assert main(["check-feasible", str(path), "--actuate", "1"]) == 2
        assert "drift matrix A norm exceeds the float range" in capsys.readouterr().err

    def test_input_norm_beyond_float_range_exits_2(self, tmp_path, capsys):
        # sigma_max(B) is about 2.4e308, so the first Krylov block cannot be
        # judged
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.array([[1.7e308, 0.0], [1.7e308, 1.0]]), t0=0.0,
            t1=1.0, x0=np.zeros(2), x1=np.array([0.0, 1.0]),
        )
        path = tmp_path / "huge-input.json"
        write_instance(InstanceDoc(system=sys), path)
        for argv in (["check-feasible", str(path), "--actuate", "1", "2"], ["solve-exact", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "input matrix B norm exceeds the float range" in err
            assert "Traceback" not in err

    def test_json_output(self, star_file, capsys):
        assert main(["check-feasible", star_file, "--actuate", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["reachability_rank"] == 1
        assert set(payload) == {"feasible", "residual_sq", "reachability_rank", "actuated"}

    def test_json_reports_the_judged_set(self, capsys):
        # repeated indices denote the same node set {5, 6}
        fixture = "tests/fixtures/greedy_gap.json"
        assert main(["check-feasible", fixture, "--actuate", "6", "5", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["actuated"] == [5, 6]


class TestSolve:
    def test_feasibility_threshold_whose_square_underflows_exits_2(self, capsys):
        # at 1e-300 the exact search would call the feasible fixture infeasible
        argv = ["solve-exact", "tests/fixtures/greedy_gap.json", "--tol-feas", "1e-300"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: feas_rel ")
        assert "got 1e-300" in captured.err

    def test_exact_star(self, star_file, capsys):
        assert main(["solve-exact", star_file]) == 0
        out = capsys.readouterr().out
        assert "S = {1}" in out
        assert "cardinality = 1" in out
        assert "optimal = yes" in out

    def test_json_reports_pruned_candidates(self, star_file, capsys):
        keys = {
            "S", "cardinality", "residual_sq", "feasible", "optimal",
            "nodes_explored", "nodes_pruned",
        }
        # star(5), target e1: only node 1 reaches it, so the empty set is
        # pruned and {1} is the one evaluated subset
        assert main(["solve-exact", star_file, "--json"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert set(exact) == keys
        assert exact["S"] == [1]
        assert (exact["nodes_explored"], exact["nodes_pruned"]) == (1, 1)
        # every spoke drives the hub, so greedy can rule out no candidate
        assert main(["solve-greedy", star_file, "--json"]) == 0
        greedy = json.loads(capsys.readouterr().out)
        assert set(greedy) == keys
        assert (greedy["nodes_explored"], greedy["nodes_pruned"]) == (5, 0)

    def test_greedy_star(self, star_file, capsys):
        assert main(["solve-greedy", star_file]) == 0
        out = capsys.readouterr().out
        assert "S = {1}" in out
        assert "optimal = no" in out

    def test_gap_fixture_greedy_strictly_larger(self, capsys):
        fixture = "tests/fixtures/greedy_gap.json"
        assert main(["solve-exact", fixture, "--json"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert main(["solve-greedy", fixture, "--json"]) == 0
        greedy = json.loads(capsys.readouterr().out)
        assert greedy["cardinality"] > exact["cardinality"]

    def test_cap_without_budget_exits_3(self, tmp_path):
        path = tmp_path / "big.json"
        write_instance(InstanceDoc(system=star_system(25)), path)
        assert main(["solve-exact", str(path)]) == 3
        assert main(["solve-exact", str(path), "--budget", "2"]) == 0

    def test_env_override_lifts_cap(self, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        write_instance(InstanceDoc(system=star_system(22)), path)
        assert main(["solve-exact", str(path)]) == 3
        monkeypatch.setenv("REACHKIT_MAX_EXACT_N", "22")
        assert main(["solve-exact", str(path)]) == 0

    def test_infeasible_budget_exits_1(self, tmp_path):
        sys = star_system(5, x1=np.ones(5))
        path = tmp_path / "hard_target.json"
        write_instance(InstanceDoc(system=sys), path)
        assert main(["solve-exact", str(path), "--budget", "1"]) == 1

    def test_negative_caps_exit_2(self, star_file, capsys):
        assert main(["solve-greedy", star_file, "--max-iters", "-1"]) == 2
        assert capsys.readouterr().err == "error: max_iters must be nonnegative\n"
        assert main(["solve-exact", star_file, "--budget", "-1"]) == 2
        assert capsys.readouterr().err == "error: budget must be nonnegative\n"
        # no addition allowed: the empty set is reported, infeasible
        assert main(["solve-greedy", star_file, "--max-iters", "0", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["S"] == []


class TestVarsel:
    def test_solves_bundled_section(self, tmp_path, capsys):
        doc = InstanceDoc(
            varsel=VarSelInstance(U=np.eye(3), z=np.array([1.0, 0.0, 0.0]), delta=0.0)
        )
        path = tmp_path / "vs.json"
        write_instance(doc, path)
        assert main(["varsel", str(path)]) == 0
        out = capsys.readouterr().out
        assert "support = {1}" in out
        assert "norm0 = 1" in out

    def test_infeasible_exits_1(self, tmp_path):
        doc = InstanceDoc(
            varsel=VarSelInstance(
                U=np.array([[1.0], [1.0]]), z=np.array([1.0, -1.0]), delta=0.1
            )
        )
        path = tmp_path / "vs.json"
        write_instance(doc, path)
        assert main(["varsel", str(path)]) == 1

    def test_missing_section_exits_2(self, star_file):
        assert main(["varsel", star_file]) == 2

    def test_negative_cap_exits_2(self, tmp_path, capsys):
        doc = InstanceDoc(varsel=VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.0))
        path = tmp_path / "vs.json"
        write_instance(doc, path)
        assert main(["varsel", str(path), "--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap must be nonnegative\n"
        # a cap below the column count is still a resource limit
        assert main(["varsel", str(path), "--cap", "0"]) == 3


class TestGenHard:
    def test_from_matrix_file(self, tmp_path, capsys):
        upath = tmp_path / "U.json"
        upath.write_text(json.dumps(COUNTEREXAMPLE["setfun"]["M"]))
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--U", str(upath), "--d", "3", "--out", str(out)]) == 0
        assert "n = 12" in capsys.readouterr().out
        doc = load_instance(out)
        assert doc.system.n == 12
        assert doc.source_dims.d == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"U": COUNTEREXAMPLE["setfun"]["M"]},
            {"varsel": {"U": COUNTEREXAMPLE["setfun"]["M"], "z": [1.0] * 3, "delta": 0.0}},
            COUNTEREXAMPLE,
        ],
    )
    def test_matrix_inside_object(self, tmp_path, capsys, doc):
        upath = tmp_path / "U.json"
        upath.write_text(json.dumps(doc))
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--U", str(upath), "--d", "3", "--out", str(out)]) == 0
        assert "n = 12" in capsys.readouterr().out
        assert np.array_equal(
            load_instance(out).source.U, np.array(COUNTEREXAMPLE["setfun"]["M"])
        )

    def test_object_without_matrix_exits_2(self, tmp_path, capsys):
        upath = tmp_path / "U.json"
        upath.write_text(json.dumps({"setfun": {"v": [1.0]}}))
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--U", str(upath), "--d", "3", "--out", str(out)]) == 2
        assert "no matrix found" in capsys.readouterr().err

    def test_random_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-hard", "--random", "2", "4", "--seed", "7", "--d", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_different_seed_changes_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-hard", "--random", "3", "4", "--seed", "1", "--d", "2", "--out", str(a)]) == 0
        assert main(["gen-hard", "--random", "3", "4", "--seed", "2", "--d", "2", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_zero_stack_count_exits_2(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--random", "2", "2", "--d", "0", "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--random", "0", "3", "--d", "2"], "error: --random M must be at least 1, got 0"),
            (["--random", "2", "-1", "--d", "2"], "error: --random L must be at least 1, got -1"),
            (["--random", "2", "3"], "error: --d is required when generating an instance"),
        ],
        ids=["zero-M", "negative-L", "no-d"],
    )
    def test_bad_generation_flags_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_written_file_round_trips(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--random", "2", "3", "--seed", "3", "--d", "2", "--out", str(out)]) == 0
        doc = load_instance(out)
        assert doc.system is not None and doc.source is not None
        inst = doc.hard_instance()
        assert inst.dims.n == max(2, 3) * 3


class TestCheckSupermodular:
    def test_counterexample_reports_violation(self, setfun_file, capsys):
        assert main(["check-supermodular", setfun_file]) == 1
        out = capsys.readouterr().out
        assert "supermodular = no" in out
        assert "A = {1}, A' = {1, 2}, x = 3" in out

    def test_counterexample_json_witness(self, setfun_file, capsys):
        assert main(["check-supermodular", setfun_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violation"] == {
            "A": [1],
            "A_prime": [1, 2],
            "x": 3,
            "lhs": 0.0,
            "rhs": 1.0,
        }

    def test_fixture_pins_the_witness_bits(self, capsys):
        # the file the installed-console-script CI step checks
        fixture = Path(__file__).parent / "fixtures" / "counterexample.json"
        assert json.loads(fixture.read_text()) == COUNTEREXAMPLE
        assert main(["check-supermodular", str(fixture), "--json"]) == 1
        assert '"lhs": 0.0, "rhs": 1.0' in capsys.readouterr().out

    def test_identity_dictionary_exits_0(self, tmp_path):
        doc = InstanceDoc(
            setfun=ColumnSelectionFunction(v=np.array([1.0, 2.0]), M=np.eye(2))
        )
        path = tmp_path / "fn.json"
        write_instance(doc, path)
        assert main(["check-supermodular", str(path)]) == 0

    def test_overflowing_exponent_exits_2(self, tmp_path, capsys):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps({"setfun": dict(COUNTEREXAMPLE["setfun"], c=2000)}))
        assert main(["check-supermodular", str(path)]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_thirteen_columns_exits_3(self, tmp_path):
        doc = InstanceDoc(
            setfun=ColumnSelectionFunction(v=np.zeros(2), M=np.zeros((2, 13)))
        )
        path = tmp_path / "fn.json"
        write_instance(doc, path)
        assert main(["check-supermodular", str(path)]) == 3

    def test_negative_cap_exits_2(self, setfun_file, capsys):
        assert main(["check-supermodular", setfun_file, "--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap must be nonnegative\n"
        assert main(["check-supermodular", setfun_file, "--cap", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: ground set of size 3 is too large for brute force (cap 2)\n"
        )


class TestSynthesize:
    def test_star_transfer(self, star_file, tmp_path, capsys):
        out = tmp_path / "traj.json"
        code = main(
            ["synthesize", star_file, "--actuate", "1", "--grid", "200", "--out", str(out)]
        )
        assert code == 0
        assert "terminal_error" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert len(data["grid"]) == 201
        assert len(data["x"]) == 201
        assert data["terminal_error"] <= 1e-3

    def test_dense_fixture_on_a_fine_grid(self, capsys):
        # 20 nodes, dense stable A (normal / sqrt(n) - 1.5 I), B = I, all
        # actuated: synthesized without the response stack
        fixture = Path(__file__).parent / "fixtures" / "dense20.json"
        system = load_instance(fixture).system
        nodes = [str(i) for i in range(1, system.n + 1)]
        argv = ["synthesize", str(fixture), "--actuate", *nodes, "--grid", "5000", "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["x"]) == 5001
        assert data["gramian_rank"] == 20
        assert data["terminal_error"] <= 1e-6 * max(1.0, np.linalg.norm(system.x1))

    def test_infeasible_target_exits_1(self, tmp_path):
        sys = star_system(5, x1=np.eye(5)[2])
        path = tmp_path / "bad_target.json"
        write_instance(InstanceDoc(system=sys), path)
        assert main(["synthesize", str(path), "--actuate", "1", "--grid", "100"]) == 1

    def test_gramian_rank_below_the_reachability_rank_is_said(self, tmp_path, capsys):
        # a 6-node single-input integrator chain: node 1 reaches all six
        # states, but the Gramian's smallest eigenvalue is about 6e-11 of its
        # largest, below rank_rel, so the synthesized input misses e6
        n = 6
        A = np.zeros((n, n))
        A[np.arange(1, n), np.arange(n - 1)] = 1.0
        chain = LinearSystem(A=A, B=np.eye(n)[:, :1], t0=0.0, t1=1.0,
                             x0=np.zeros(n), x1=np.eye(n)[-1])
        path = tmp_path / "chain.json"
        write_instance(InstanceDoc(system=chain), path)
        argv = ["synthesize", str(path), "--actuate", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("terminal_error = ")
        assert lines[1:] == [
            "gramian rank = 5",
            "feasible",
            "gramian rank 5 is below the reachability rank 6: the synthesized input "
            "cannot reach every direction the rank test keeps",
        ]
        assert main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["gramian_rank"], data["reachability_rank"], data["feasible"]) == (5, 6, True)
        assert data["terminal_error"] > 0.1
        assert main(["check-feasible", str(path), "--actuate", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["reachability_rank"] == 6

    def test_star_gramian_keeps_the_reachability_rank(self, star_file, capsys):
        argv = ["synthesize", star_file, "--actuate", "1", "--grid", "200"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["gramian rank = 1", "feasible"]
        assert main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["gramian_rank"], data["reachability_rank"]) == (1, 1)

    def test_no_actuated_node_exits_1(self, tmp_path, capsys):
        path = tmp_path / "star40.json"
        write_instance(InstanceDoc(system=star_system(40)), path)
        assert main(["synthesize", str(path), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert (data["gramian_rank"], data["reachability_rank"]) == (0, 0)
        assert data["feasible"] is False
        assert data["terminal_error"] == 1.0


class TestRoundtrip:
    def test_generated_instance_verifies(self, capsys):
        code = main(["roundtrip", "--random", "2", "3", "--seed", "5", "--d", "3", "--budget", "3"])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_from_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--random", "2", "2", "--seed", "9", "--d", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["roundtrip", "--file", str(out), "--budget", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["norm0"] <= payload["cardinality"]

    def test_source_disagreeing_with_dims_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--random", "2", "3", "--seed", "1", "--d", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["source"]["dims"]["l"] = 5
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["roundtrip", "--file", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: 'source.dims.l'")


class TestInstanceSource:
    """``roundtrip`` reads its instance from ``--file`` or generates it from
    the generation flags, and refuses a command line that names both."""

    @pytest.fixture
    def hard_file(self, tmp_path):
        out = tmp_path / "hard.json"
        assert main(["gen-hard", "--random", "2", "2", "--seed", "9", "--d", "3",
                     "--out", str(out)]) == 0
        return str(out)

    def test_file_with_generation_flags_exits_2(self, hard_file, capsys):
        capsys.readouterr()
        argv = ["roundtrip", "--file", hard_file, "--random", "5", "5", "--d", "7",
                "--delta", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --file cannot be combined with --random, --delta, --d: "
            "the instance comes from the file\n"
        )

    @pytest.mark.parametrize("flags", [["--seed", "0"], ["--delta", "0"], ["--d", "3"],
                                       ["--U", "u.json"]])
    def test_file_with_any_generation_flag_exits_2(self, hard_file, flags, capsys):
        assert main(["roundtrip", "--file", hard_file, *flags]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --file cannot be combined with {flags[0]}:"
        )

    def test_file_keeps_budget_and_tolerances(self, hard_file, capsys):
        capsys.readouterr()
        argv = ["roundtrip", "--file", hard_file, "--budget", "2", "--tol-rank", "1e-9",
                "--tol-feas", "1e-9", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("command", ["roundtrip", "gen-hard"])
    def test_neither_matrix_file_nor_random_exits_2(self, tmp_path, command, capsys):
        argv = [command, "--d", "2"]
        if command == "gen-hard":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: provide either --U FILE or --random M L\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["roundtrip", "gen-hard"])
    def test_matrix_file_and_random_exit_2(self, tmp_path, command, capsys):
        U = tmp_path / "U.json"
        U.write_text(json.dumps({"U": [[1.0, 0.0], [0.0, 1.0]]}))
        argv = [command, "--U", str(U), "--random", "2", "2", "--d", "2"]
        if command == "gen-hard":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: provide either --U FILE or --random M L, not both\n"
        )
        assert not (tmp_path / "out.json").exists()


class TestOutOfMemory:
    def test_memory_error_exits_3_without_traceback(self, monkeypatch, star_file, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli, "cmd_synthesize", exhausted)
        assert main(["synthesize", star_file, "--actuate", "1", "--grid", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 7.45 GiB for an array\n"

    def test_bare_memory_error_is_named(self, monkeypatch, star_file, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_check_feasible", exhausted)
        assert main(["check-feasible", star_file, "--json"]) == 3
        assert capsys.readouterr().err == "error: out of memory: MemoryError\n"


class TestGeneratedSizeCap:
    """gen-hard and roundtrip refuse an A of more than
    ``cli.MAX_GENERATED_ENTRIES`` entries before allocating anything."""

    @pytest.fixture
    def nothing_generated(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the cap")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(cli.hardness, "generate", refuse)

    @pytest.mark.parametrize("command", ["gen-hard", "roundtrip"])
    def test_random_source_past_the_cap_exits_3(
        self, monkeypatch, tmp_path, capsys, nothing_generated, command
    ):
        # --random 2 3 --d 2 gives n = 9, so A holds 81 entries
        monkeypatch.setattr(cli, "MAX_GENERATED_ENTRIES", 80)
        out = tmp_path / "inst.json"
        argv = [command, "--random", "2", "3", "--d", "2"]
        if command == "gen-hard":
            argv += ["--out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a 2x3 source stacked 2 times gives n = 9: A would hold 81 "
            "entries, more than the cap of 80\n"
        )
        assert not out.exists()

    def test_matrix_file_past_the_cap_exits_3(
        self, monkeypatch, tmp_path, capsys, nothing_generated
    ):
        upath = tmp_path / "U.json"
        upath.write_text(json.dumps(COUNTEREXAMPLE["setfun"]["M"]))
        monkeypatch.setattr(cli, "MAX_GENERATED_ENTRIES", 143)
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--U", str(upath), "--d", "3", "--out", str(out)]) == 3
        assert "A would hold 144 entries" in capsys.readouterr().err
        assert not out.exists()

    def test_a_system_at_the_cap_is_generated(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "MAX_GENERATED_ENTRIES", 81)
        out = tmp_path / "inst.json"
        argv = ["gen-hard", "--random", "2", "3", "--d", "2", "--out", str(out), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 9
        assert load_instance(out).system.n == 9

    def test_the_default_cap_refuses_a_two_hundred_thousand_node_system(
        self, tmp_path, capsys, nothing_generated
    ):
        out = tmp_path / "inst.json"
        argv = ["gen-hard", "--random", "100", "100", "--d", "2000", "--out", str(out)]
        assert main(argv) == 3
        assert "n = 200100" in capsys.readouterr().err


class TestStackedFileSizeCap:
    """A file's ``"A": {"stack": ...}`` is refused (exit 3) before it
    expands past ``hardness.MAX_STACKED_ENTRIES`` entries."""

    def test_a_small_file_naming_three_thousand_nodes_exits_3(self, star_file, tmp_path, capsys):
        # 18 KB of JSON; the dense A and the identity B would take 72 MB each
        n = 3000
        path = tmp_path / "stack3000.json"
        path.write_text(json.dumps({
            "n": n, "m": n, "A": {"stack": {"U": [[1.0]], "d": 1}}, "B": "identity",
            "t0": 0, "t1": 1, "x0": [0] * n, "x1": [1] * n,
        }))
        assert cli.MAX_GENERATED_ENTRIES == hardness.MAX_STACKED_ENTRIES == 1 << 22
        main(["check-feasible", star_file])  # warm lazy imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["check-feasible", str(path), "--actuate", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: key 'A.stack' expands to an n x n matrix with n = 3000: "
            "9000000 entries, more than the cap of 4194304\n"
        )
        assert peak < 8e6

    def test_a_source_section_naming_three_thousand_nodes_exits_3(
        self, star_file, tmp_path, capsys
    ):
        # 165 bytes; the system generated from the source would take 72 MB
        # for A alone, and it is refused before it is built
        path = tmp_path / "source3000.json"
        path.write_text(
            '{"n":2,"m":2,"A":[[0,1],[0,0]],"B":"identity","t0":0,"t1":1,"x0":[0,0],'
            '"x1":[1,1],"source":{"U":[[1.0]],"z":[1.0],"delta":0,'
            '"dims":{"m":1,"l":1,"d":2999,"n":3000}}}\n'
        )
        assert path.stat().st_size == 165
        main(["check-feasible", star_file])  # warm lazy imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["roundtrip", "--file", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: 'source' section expands to an n x n system with n = 3000: "
            "9000000 entries, more than the cap of 4194304\n"
        )
        assert peak < 8e6


class TestSynthesisNotFinite:
    """synthesize exits 2 with reachkit's own message when the Gramian or
    the RK4 check is not finite."""

    @pytest.mark.parametrize("n, grid, message", [
        (2, "1000", "reachability Gramian is not finite"),
        (20, "1000", "reachability Gramian is not finite"),
        (None, "100", "terminal state is not finite"),
    ], ids=["stack-path", "doubling-path", "stiff-rk4"])
    def test_exits_2(self, tmp_path, capsys, n, grid, message):
        if n is None:
            # h * 1000 = 100, outside RK4's stability region
            sys = LinearSystem(A=np.diag([-1000.0, -1.0]), B=np.eye(2), t0=0.0, t1=10.0,
                               x0=np.ones(2), x1=np.full(2, 0.5))
        else:
            # exp(50 * 20) overflows the input response
            sys = LinearSystem(A=np.diag([50.0] + [-1.0] * (n - 1)), B=np.eye(n),
                               t0=0.0, t1=20.0, x0=np.zeros(n), x1=np.ones(n))
        path = tmp_path / "sys.json"
        write_instance(InstanceDoc(system=sys), path)
        nodes = [str(i) for i in range(1, sys.n + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synthesize", str(path), "--actuate", *nodes, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err and "overflows" in captured.err

    def test_huge_target_reports_a_finite_terminal_error(self, tmp_path, capsys):
        sys = LinearSystem(A=np.zeros((2, 2)), B=np.eye(2), t0=0.0, t1=1.0,
                           x0=np.zeros(2), x1=np.full(2, 1e200))
        path = tmp_path / "huge.json"
        write_instance(InstanceDoc(system=sys), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synthesize", str(path), "--actuate", "1", "2", "--grid", "10", "--json"])
        assert code == 0
        error = json.loads(capsys.readouterr().out)["terminal_error"]
        assert math.isfinite(error) and error <= 1e-6 * math.hypot(1e200, 1e200)


class TestSynthesisSizeCap:
    """synthesize refuses a report or a response stack of more than
    ``cli.MAX_SYNTH_FLOATS`` floats before synthesis.  On the 5-node star
    (B = I) at --grid 10 the report holds 11 * (5 + 5 + 1) = 121 floats and,
    with every node actuated, the stack 11 * 5 * 5 = 275."""

    ALL = ["1", "2", "3", "4", "5"]

    @pytest.fixture
    def nothing_synthesized(self, monkeypatch):
        from reachkit import synth

        def refuse(*args, **kwargs):
            raise AssertionError("synthesized past the cap")

        monkeypatch.setattr(synth, "min_energy_transfer", refuse)

    def test_report_past_the_cap_exits_3(
        self, monkeypatch, star_file, capsys, nothing_synthesized
    ):
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 120)
        argv = ["synthesize", star_file, "--actuate", "1", "--grid", "10", "--json"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a report on 10 grid intervals would hold 121 floats, "
            "more than the cap of 120\n"
        )

    def test_stack_past_the_cap_exits_3(
        self, monkeypatch, star_file, capsys, nothing_synthesized
    ):
        from reachkit.synth import _stack_is_cheaper

        assert _stack_is_cheaper(10, 5, 5)
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 274)
        assert main(["synthesize", star_file, "--actuate", *self.ALL, "--grid", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the response stack of 5 input columns on 10 grid intervals "
            "would hold 275 floats, more than the cap of 274\n"
        )

    def test_a_stack_at_the_cap_is_synthesized(self, monkeypatch, star_file, capsys):
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 275)
        argv = ["synthesize", star_file, "--actuate", *self.ALL, "--grid", "10", "--json"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["x"]) == 11

    def test_the_doubling_path_counts_only_the_report(self, monkeypatch, star_file, capsys):
        # at --grid 1000 the doubling path is cheaper and builds no stack:
        # the report's 1001 * 11 floats are all that count
        from reachkit.synth import _stack_is_cheaper

        assert not _stack_is_cheaper(1000, 5, 5)
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 1001 * 11)
        argv = ["synthesize", star_file, "--actuate", *self.ALL, "--grid", "1000", "--json"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["x"]) == 1001

    def test_the_default_cap_refuses_a_billion_intervals(
        self, star_file, capsys, nothing_synthesized
    ):
        argv = ["synthesize", star_file, "--actuate", "1", "--grid", "1000000000"]
        assert main(argv) == 3
        assert "would hold 11000000011 floats" in capsys.readouterr().err

    @pytest.fixture
    def diagonal_file(self, tmp_path):
        # A = diag(-linspace(0.5, 1.5, 8)), B = I: each node reaches itself
        # alone, so synthesis on nodes 1..j runs on j rows, not on 8; at
        # --grid 200 the report holds 201 * 17 = 3417 floats
        n = 8
        x1 = [1.0, -1.0, 0.5] + [0.0] * (n - 3)
        doc = {"n": n, "m": n, "A": np.diag(-np.linspace(0.5, 1.5, n)).tolist(),
               "B": "identity", "t0": 0.0, "t1": 1.0, "x0": [0.0] * n, "x1": x1}
        path = tmp_path / "diagonal8.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_the_stack_is_counted_on_the_reached_rows(self, monkeypatch, diagonal_file, capsys):
        # the stack holds 201 * 3 * 3 = 1809 floats, not 201 * 3 * 8 = 4824
        from reachkit.synth import _stack_is_cheaper

        assert _stack_is_cheaper(200, 3, 3)
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 201 * 17)
        argv = ["synthesize", diagonal_file, "--actuate", "1", "2", "3", "--grid", "200", "--json"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["x"]) == 201

    def test_a_stack_on_the_reached_rows_past_the_cap_exits_3(
        self, monkeypatch, diagonal_file, capsys, nothing_synthesized
    ):
        from reachkit.synth import _stack_is_cheaper

        assert _stack_is_cheaper(200, 6, 6)
        monkeypatch.setattr(cli, "MAX_SYNTH_FLOATS", 7235)
        nodes = ["1", "2", "3", "4", "5", "6"]
        assert main(["synthesize", diagonal_file, "--actuate", *nodes, "--grid", "200"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the response stack of 6 input columns on 200 grid intervals "
            "would hold 7236 floats, more than the cap of 7235\n"
        )


class TestUsage:
    def test_roundtrip_generation_without_d_exits_2(self):
        assert main(["roundtrip", "--random", "2", "2"]) == 2

    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


class TestMalformedInstance:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("check-supermodular", {"setfun": 5}),
            (
                "check-feasible",
                {"n": 2, "m": 2, "A": {"stack": 3}, "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]},
            ),
            ("varsel", {"varsel": {"U": [[1.0]], "z": [1.0], "delta": None}}),
        ],
    )
    def test_mistyped_section_exits_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("t0", True, "key 't0' is not a number: True"),
            ("t1", "2", "key 't1' is not a number: '2'"),
            ("x0", ["0", False], "key 'x0' is not a numeric array: '0' is not a number"),
            ("x1", [1, True], "key 'x1' is not a numeric array: True is not a number"),
            ("t1", 10**400, "key 't1' is not a number: 1000"),
            ("x1", [1, 10**400], "key 'x1' is not a numeric array: int too large"),
        ],
        ids=["t0", "t1", "x0", "x1", "t1-past-float-range", "x1-past-float-range"],
    )
    def test_numbers_are_json_numbers(self, tmp_path, capsys, key, value, message):
        # float() would read each value as a number the file never wrote
        doc = {"n": 2, "m": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "B": "identity",
               "t0": 0.0, "t1": 2.0, "x0": [0.0, 0.0], "x1": [1.0, 1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, key: value}))
        assert main(["check-feasible", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestUndecodableInstance:
    """A file that cannot be read as JSON text exits 2 with the file named,
    whatever the decoder raised."""

    FILES = {
        # a UTF-16 byte order mark is not UTF-8
        "not-utf8": b"\xff\xfe{}",
        # Python's int() refuses more than 4300 digits
        "long-integer": (
            b'{"n": 2, "m": 2, "A": [[0, 0], [0, 0]], "B": "identity", "t0": 0, "t1": 1, '
            b'"x0": [0, 0], "x1": [' + b"1" * 5000 + b', 0]}'
        ),
        # deeper than the decoder's recursion limit
        "deep-nesting": b"[" * 200_000,
    }

    @staticmethod
    def assert_refused(argv, path, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("name", FILES)
    def test_check_feasible_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(self.FILES[name])
        self.assert_refused(["check-feasible", str(path)], path, capsys)

    def test_long_integer_is_refused_in_reachkit_words(self, tmp_path, capsys):
        # the interpreter's advice names a call a command-line user cannot make
        path = tmp_path / "long-integer.json"
        path.write_bytes(self.FILES["long-integer"])
        err = self.assert_refused(["check-feasible", str(path)], path, capsys)
        assert "set_int_max_str_digits" not in err
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"error: {path}: an integer literal has more digits than the JSON "
            f"decoder's limit of {limit}\n"
        )

    def test_deep_matrix_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_bytes(self.FILES["deep-nesting"])
        out = tmp_path / "inst.json"
        argv = ["gen-hard", "--U", str(path), "--d", "1", "--out", str(out)]
        self.assert_refused(argv, path, capsys)
        assert not out.exists()


# A report line whose number is roundoff (it can differ across BLAS builds)
# is pinned by its label, its format and a bound on its size.
ROUNDOFF = re.compile(r"-?\d\.\d{6}e[+-]\d{2}")


def assert_report(out, expected):
    lines = out.splitlines()
    assert len(lines) == len(expected), out
    for got, want in zip(lines, expected):
        if want.endswith("<roundoff>"):
            label = want.removesuffix("<roundoff>")
            assert got.startswith(label), (got, want)
            number = got.removeprefix(label)
            assert ROUNDOFF.fullmatch(number) and abs(float(number)) <= 1e-12, got
        else:
            assert got == want


class TestHumanReports:
    """The exact human-readable report of each subcommand."""

    def test_check_feasible(self, star_file, capsys):
        assert main(["check-feasible", star_file, "--actuate", "1"]) == 0
        assert_report(capsys.readouterr().out, [
            "feasible",
            "residual_sq = <roundoff>",
            "reachability rank = 1",
        ])
        assert main(["check-feasible", star_file]) == 1
        assert_report(capsys.readouterr().out, [
            "infeasible",
            "residual_sq = 1.000000e+00",
            "reachability rank = 0",
        ])

    @pytest.mark.parametrize("command, optimal", [("solve-exact", "yes"), ("solve-greedy", "no")])
    def test_solve(self, star_file, capsys, command, optimal):
        assert main([command, star_file]) == 0
        assert_report(capsys.readouterr().out, [
            "S = {1}",
            "cardinality = 1",
            "residual_sq = <roundoff>",
            "feasible = yes",
            f"optimal = {optimal}",
        ])

    def test_varsel(self, tmp_path, capsys):
        doc = InstanceDoc(
            varsel=VarSelInstance(U=np.eye(3), z=np.array([1.0, 0.0, 0.0]), delta=0.0)
        )
        path = tmp_path / "vs.json"
        write_instance(doc, path)
        assert main(["varsel", str(path)]) == 0
        assert_report(capsys.readouterr().out, [
            "support = {1}",
            "norm0 = 1",
            "residual = <roundoff>",
            "y = [1. 0. 0.]",
        ])

    def test_check_supermodular(self, setfun_file, capsys):
        assert main(["check-supermodular", setfun_file]) == 1
        assert_report(capsys.readouterr().out, [
            "monotone nonincreasing = yes",
            "supermodular = no",
            "violation: A = {1}, A' = {1, 2}, x = 3, lhs = 0, rhs = 1",
        ])

    def test_gen_hard(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        argv = ["gen-hard", "--random", "2", "3", "--seed", "5", "--d", "3", "--out", str(out)]
        assert main(argv) == 0
        assert_report(capsys.readouterr().out, [
            "m = 2, l = 3, d = 3, n = 12",
            f"wrote {out}",
        ])

    def test_roundtrip(self, capsys):
        argv = ["roundtrip", "--random", "2", "3", "--seed", "5", "--d", "3", "--budget", "3"]
        assert main(argv) == 0
        assert_report(capsys.readouterr().out, [
            "S = {10} (cardinality 1)",
            "recovered y = [1. 0. 0.]",
            "norm0 = 1",
            "||U y - z|| = <roundoff>",
            "verified",
        ])


NO_SYSTEM = "no system section (keys n, m, A, B, ...)"


class TestMissingSection:
    @pytest.mark.parametrize(
        "command, fixture, message",
        [
            ("check-feasible", "setfun_file", NO_SYSTEM),
            ("solve-exact", "setfun_file", NO_SYSTEM),
            ("solve-greedy", "setfun_file", NO_SYSTEM),
            ("synthesize", "setfun_file", NO_SYSTEM),
            ("varsel", "star_file", "no 'varsel' section"),
            ("check-supermodular", "star_file", "no 'setfun' section"),
        ],
    )
    def test_names_the_section(self, request, capsys, command, fixture, message):
        path = request.getfixturevalue(fixture)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


class TestExactCapVariable:
    @pytest.mark.parametrize("raw", ["abc", "2.5", "-1"])
    def test_bad_value_is_named(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("REACHKIT_MAX_EXACT_N", raw)
        assert main(["solve-exact", "tests/fixtures/greedy_gap.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: REACHKIT_MAX_EXACT_N must be a nonnegative integer, got '{raw}'\n"
        )

    def test_empty_value_means_default(self, monkeypatch):
        monkeypatch.setenv("REACHKIT_MAX_EXACT_N", "")
        assert main(["solve-exact", "tests/fixtures/greedy_gap.json"]) == 0


class TestEntryPoint:
    """``python -m reachkit.cli`` runs the same ``main`` in a fresh process."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    GAP = str(Path(__file__).resolve().parent / "fixtures" / "greedy_gap.json")

    def python(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        return subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
        )

    def run(self, *argv):
        return self.python("-m", "reachkit.cli", *argv)

    def test_exit_codes_and_json(self, star_file, tmp_path):
        done = self.run("check-feasible", star_file, "--actuate", "1", "--json")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["feasible"] is True
        assert self.run("check-feasible", star_file).returncode == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        done = self.run("check-feasible", str(bad))
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")

    # runs main, then prints which of the lazily imported modules got loaded
    LOADED = (
        "import json, sys\n"
        "from reachkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "lazy = ('scipy.linalg', 'scipy.integrate', 'reachkit.synth')\n"
        "print(json.dumps([m for m in lazy if m in sys.modules]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def test_check_feasible_loads_neither_scipy_linalg_nor_synthesis(self):
        # x0 = 0 in the fixture, so no exp(A t) is formed
        done = self.python(
            "-c", self.LOADED, "check-feasible", self.GAP, "--actuate", "5", "6", "--json"
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["feasible"] is True
        assert json.loads(done.stderr) == []

    def test_synthesize_imports_synthesis_on_demand(self):
        done = self.run("synthesize", self.GAP, "--actuate", "5", "6", "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["feasible"] is True


class TestErrorsNameTheFile:
    """Errors found after a file is parsed name the file, like those found
    while reading it."""

    def test_roundtrip_file_without_source(self, star_file, capsys):
        assert main(["roundtrip", "--file", star_file]) == 2
        assert capsys.readouterr().err == (
            f"error: {star_file}: document does not bundle a system with a 'source' section\n"
        )

    def test_source_dims_disagreeing_with_source(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen-hard", "--random", "2", "3", "--seed", "1", "--d", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["source"]["dims"]["l"] = 5
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["roundtrip", "--file", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: 'source.dims.l' of {out} does not match the instance generated from "
            "'source.U' with d = 2 (5, expected 3)\n"
        )

    def test_misshapen_A_is_refused_before_B_is_expanded(self, star_file, tmp_path, capsys):
        # an identity B of a 3000-node system is 72 MB; a 1x1 A is refused
        # before it is built
        path = tmp_path / "small_a.json"
        path.write_text(json.dumps({
            "n": 3000, "m": 3000, "A": [[0.0]], "B": "identity", "t0": 0, "t1": 1,
            "x0": [0.0], "x1": [1.0],
        }))
        main(["check-feasible", star_file])  # warm lazy imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["check-feasible", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "A has shape (1, 1), expected (3000, 3000)" in capsys.readouterr().err
        assert peak < 8e6

    def test_mistyped_section(self, tmp_path, capsys):
        path = tmp_path / "vs.json"
        path.write_text(json.dumps({"varsel": {"U": [[1.0]], "z": [1.0, 2.0], "delta": 0.0}}))
        assert main(["varsel", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: inconsistent 'varsel' section: U has 1 rows but z has length 2\n"
        )


class TestParserReuse:
    """``main`` builds its parser once; every call must give what the same
    call gives on a freshly built parser."""

    def test_reused_parser_matches_a_fresh_one(self, star_file, setfun_file, tmp_path, capsys):
        varsel_file = tmp_path / "vs.json"
        write_instance(
            InstanceDoc(varsel=VarSelInstance(U=np.eye(3), z=np.array([1.0, 0.0, 0.0]), delta=0.0)),
            varsel_file,
        )
        generated = ["--random", "2", "3", "--seed", "5", "--d", "3"]
        commands = [
            ["check-feasible", star_file, "--actuate", "1"],
            ["check-feasible", star_file],
            ["solve-exact", star_file],
            ["solve-greedy", star_file],
            ["varsel", str(varsel_file)],
            ["gen-hard", *generated, "--out", str(tmp_path / "inst.json")],
            ["check-supermodular", setfun_file],
            ["synthesize", star_file, "--actuate", "1", "--grid", "10"],
            ["roundtrip", *generated, "--budget", "3"],
        ]
        calls = [
            *commands,
            *([*argv, "--json"] for argv in commands),
            ["check-feasible", star_file, "--json", "--actuate", "1"],
            ["check-feasible", star_file, "--json"],
            ["solve-exact", star_file, "--budget", "x"],
            ["--help"],
            ["synthesize", "--help"],
        ]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        build_parser.cache_clear()
        reused = [run(argv) for argv in calls]
        assert build_parser.cache_info().hits == len(calls) - 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(argv))
        for argv, got, want in zip(calls, reused, fresh):
            assert got == want, argv
        assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0, 0, 1, 0, 0] * 2 + [0, 1, 2, 0, 0]


class TestToleranceDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            [command, "x.json"]
            for command in ("check-feasible", "solve-exact", "solve-greedy", "varsel",
                            "check-supermodular", "synthesize")
        ] + [["roundtrip", "--file", "x.json"]],
    )
    def test_flags_default_to_the_library_tolerance(self, argv):
        args = build_parser().parse_args(argv)
        assert args.tol_rank == DEFAULT_TOL.rank_rel
        assert args.tol_feas == DEFAULT_TOL.feas_rel
