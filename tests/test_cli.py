"""End-to-end tests for the command-line interface (run in-process)."""

import json
import math

import pytest

from caliblist.cli import main, parse_measure
from caliblist.core import ValidationError
from caliblist.io import instance_to_dict, save_instance

from test_core import make_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(make_instance(), path)
    return str(path)


class TestParseMeasure:
    def test_known_measures(self):
        assert parse_measure("hellinger").name == "hellinger"
        assert parse_measure("power:0.25").beta == 0.25

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValidationError):
            parse_measure("cosine")


class TestSolve:
    def test_greedy_human_output(self, instance_file, capsys):
        assert main(["solve", instance_file]) == 0
        out = capsys.readouterr().out
        assert "sequence:" in out
        assert "value:" in out

    def test_machine_output_is_json_and_reproducible(self, instance_file, capsys):
        assert main(["solve", instance_file, "--machine"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", instance_file, "--machine"]) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical, including float formatting
        record = json.loads(first)
        assert record["algorithm"] == "greedy"
        assert len(record["sequence"]) == 3

    def test_exhaustive_dominates_greedy(self, instance_file, capsys):
        main(["solve", instance_file, "--machine"])
        greedy_val = json.loads(capsys.readouterr().out)["value"]
        main(["solve", instance_file, "--algorithm", "exhaustive", "--machine"])
        opt_val = json.loads(capsys.readouterr().out)["value"]
        assert opt_val >= greedy_val - 1e-12

    def test_continuous_solver_runs(self, instance_file, capsys):
        assert main(["solve", instance_file, "--algorithm", "continuous",
                     "--steps", "10", "--samples", "10", "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(set(record["sequence"])) == 3

    def test_k_override(self, instance_file, capsys):
        assert main(["solve", instance_file, "--k-override", "2",
                     "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["length"] == 2

    def test_best_length(self, instance_file, capsys):
        assert main(["solve", instance_file, "--best-length",
                     "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert 1 <= record["length"] <= 3

    def test_missing_file_is_exit_1(self, capsys):
        assert main(["solve", "/nonexistent/inst.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_measure_is_exit_1(self, instance_file, capsys):
        assert main(["solve", instance_file, "--measure", "cosine"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_weights_are_exit_1(self, tmp_path, capsys):
        # json.load reads NaN; such a file used to solve to "value": 0.0
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(
            {**instance_to_dict(make_instance()), "weights": [math.nan] * 4,
             "k": 4}))
        assert main(["solve", str(path), "--machine"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("weights", ["abc"]),
        ("weights", 5),
        ("weights", [10 ** 400]),
        ("items", 5),
        ("target", [0.5, 0.5]),
        ("items", [{"dist": {"g1": 1.0}}]),
    ])
    def test_ill_typed_field_is_exit_1(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {**instance_to_dict(make_instance()), field: value}))
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_string_mass_is_exit_1(self, tmp_path, capsys):
        data = instance_to_dict(make_instance())
        data["items"][0]["dist"]["g1"] = "0.4"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 1
        assert "expected a number" in capsys.readouterr().err


class TestVerify:
    def test_axioms_pass_for_hellinger(self, capsys):
        assert main(["verify", "--suite", "axioms", "--n", "50"]) == 0

    def test_axioms_fail_for_log_heuristic(self, capsys, tmp_path):
        out = tmp_path / "ce.json"
        code = main(["verify", "--suite", "axioms", "--measure",
                     "kl-mmr-demo", "--n", "50", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert "p" in payload and "q" in payload

    def test_mdr_suite(self, capsys):
        assert main(["verify", "--suite", "mdr", "--measure", "power:0.5",
                     "--n", "100"]) == 0

    def test_ordered_submodular_suite(self, capsys):
        assert main(["verify", "--suite", "ordered-submodular",
                     "--n", "100"]) == 0

    def test_prop41_suite(self, capsys):
        assert main(["verify", "--suite", "prop41", "--n", "50"]) == 0

    def test_ratio_suite_machine_output(self, capsys):
        assert main(["verify", "--suite", "ratios", "--algorithm",
                     "discrete-greedy", "--n", "50", "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["passed"] is True
        assert record["min_ratio"] >= record["threshold"]


class TestRepro:
    def test_appendix_c_passes(self, capsys):
        assert main(["repro", "appendix-c"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 4

    def test_appendix_b_reports_known_bad_row(self, capsys):
        # Six rows reproduce; the published w1 = 3.5 row does not, so the
        # command reports the mismatch through its exit code.
        assert main(["repro", "appendix-b"]) == 2
        out = capsys.readouterr().out
        assert out.count("pass") == 6
        assert out.count("FAIL") == 1


class TestBench:
    def test_bench_aliases_ratio_suite(self, capsys):
        assert main(["bench", "--algorithm", "discrete-greedy",
                     "--n", "25", "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["suite"] == "ratios"
