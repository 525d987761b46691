"""End-to-end tests for the command-line interface.

All run in-process except the closed-pipe tests, which need a real stdout.
"""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caliblist import cli
from caliblist.cli import main, parse_measure
from caliblist.core import (
    HellingerSquared,
    PowerOverlap,
    Sequence,
    ValidationError,
    seq_objective,
)
from caliblist.io import instance_from_dict, instance_to_dict, save_instance
from caliblist.repro import GenParams, generate_instances

from test_core import make_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def discrete_file(tmp_path):
    inst = generate_instances(GenParams(min_genres=4, max_genres=4, min_k=4,
                                        max_k=4), "discrete", seed=7, n=1)[0]
    path = tmp_path / "discrete.json"
    save_instance(inst, path)
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(make_instance(), path)
    return str(path)


class TestParseMeasure:
    def test_known_measures(self):
        assert type(parse_measure("hellinger")) is HellingerSquared
        G = parse_measure("power:0.25")
        assert type(G) is PowerOverlap and G.beta == 0.25

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

    def test_non_numeric_beta_is_exit_1(self, instance_file, capsys):
        assert main(["solve", instance_file, "--measure", "power:abc"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: beta must be a number, got 'abc'")

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

    def test_discrete_greedy_is_hellinger_only(self, discrete_file, capsys):
        # its value is the closed-form Hellinger overlap, whatever the measure
        assert main(["solve", discrete_file, "--algorithm", "discrete-greedy",
                     "--measure", "power:0.25"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["solve", discrete_file, "--algorithm", "discrete-greedy",
                     "--machine"]) == 0
        assert len(json.loads(capsys.readouterr().out)["sequence"]) == 4

    def test_string_mass_is_exit_1(self, tmp_path, capsys):
        data = instance_to_dict(make_instance())
        data["items"][0]["dist"]["g1"] = "0.4"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 1
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["continuous", "continuous-repeats"])
    def test_negative_seed_rejected(self, instance_file, capsys, algorithm):
        assert main(["solve", instance_file, "--algorithm", algorithm,
                     "--seed", "-1", "--steps", "2", "--samples", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_non_string_item_id_rejected(self, tmp_path, capsys):
        data = instance_to_dict(make_instance())
        data["items"][0]["id"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--machine"]) == 1
        assert capsys.readouterr().err.startswith("error: item id: expected a string")

    def test_directory_is_exit_1(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")

    def test_non_utf8_file_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"genres": ["drame"], "mode": "caf\xe9"}'.encode("latin-1"))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot parse {path}")

    def test_deeply_nested_json_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot parse {path}")

    def test_continuous_rejects_allow_repeats(self, instance_file, capsys):
        # continuous solves over the laminar matroid, which has no repeats
        assert main(["solve", instance_file, "--algorithm", "continuous",
                     "--allow-repeats", "--steps", "2", "--samples", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "continuous-repeats" in err

    def test_continuous_needs_a_distributional_file(self, discrete_file, capsys):
        assert main(["solve", discrete_file, "--algorithm", "continuous",
                     "--steps", "2", "--samples", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: a repeat-free continuous solve requires distributional mode\n")

    @pytest.mark.parametrize("flags", [["--steps", "0", "--samples", "2"],
                                       ["--steps", "2", "--samples", "0"]])
    def test_zero_steps_or_samples_rejected(self, instance_file, capsys, flags):
        assert main(["solve", instance_file, "--algorithm", "continuous", *flags]) == 1
        assert capsys.readouterr().err == "error: steps and samples must be >= 1\n"

    @pytest.mark.parametrize("mass", [1.0, 1])  # a file's Q rows, then its dicts
    def test_item_id_that_is_a_genre_id_rejected_in_discrete_mode(
            self, tmp_path, capsys, mass):
        # the list element 'a' would read genre a's unit row, not item a's
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps({
            "genres": ["a", "b"], "target": {"a": 0.5, "b": 0.5},
            "weights": [0.6, 0.4], "mode": "discrete",
            "items": [{"id": "x", "dist": {"a": 1.0}},
                      {"id": "a", "dist": {"b": mass}}]}))
        assert main(["solve", str(path), "--algorithm", "continuous-repeats",
                     "--steps", "2", "--samples", "2", "--machine"]) == 1
        assert capsys.readouterr().err == (
            "error: item id 'a' is also a genre id in discrete mode\n")

    def test_discrete_greedy_needs_a_discrete_file(self, instance_file, capsys):
        assert main(["solve", instance_file, "--algorithm", "discrete-greedy"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "discrete-mode" in err

    @pytest.mark.parametrize("flags", [[], ["--best-length"], ["--allow-repeats"]])
    @pytest.mark.parametrize("file", ["instance_file", "discrete_file"])
    def test_continuous_repeats_needs_an_item(self, request, tmp_path, capsys,
                                              file, flags):
        # it used to fill the list with the first of no items: an IndexError
        data = json.loads(Path(request.getfixturevalue(file)).read_text())
        data["items"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--algorithm", "continuous-repeats",
                     "--steps", "2", "--samples", "2", *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_only_validation_errors_are_exit_1(self, instance_file, capsys,
                                               monkeypatch):
        # a bug surfaces as its traceback, not as "error: 'x'" and exit 1
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "_solve_one", fail)
        error = KeyError("x")
        with pytest.raises(KeyError):
            main(["solve", instance_file])
        error = ValidationError("bad input")
        assert main(["solve", instance_file]) == 1
        assert capsys.readouterr().err == "error: bad input\n"

    def test_misreported_value_fails_revalidation(self, instance_file, capsys,
                                                  monkeypatch):
        solve_one = cli._solve_one

        def misreport(inst, args, G):
            seq, value, gains = solve_one(inst, args, G)
            return seq, value + 1e-9, gains

        monkeypatch.setattr(cli, "_solve_one", misreport)
        assert main(["solve", instance_file]) == 1
        assert capsys.readouterr() == (
            "", "error: reported value failed re-validation\n")


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

    def test_out_directory_is_exit_1_after_the_record(self, capsys, tmp_path):
        assert main(["verify", "--suite", "axioms", "--measure", "kl-mmr-demo",
                     "--n", "3", "--out", str(tmp_path), "--machine"]) == 1
        cap = capsys.readouterr()
        assert json.loads(cap.out)["violations"] == 3
        assert cap.err.startswith(f"error: cannot write {tmp_path}: ")

    def test_out_missing_parent_is_exit_1_after_the_record(self, capsys, tmp_path):
        out = tmp_path / "missing" / "ce.json"
        assert main(["verify", "--suite", "axioms", "--measure", "kl-mmr-demo",
                     "--n", "3", "--out", str(out), "--machine"]) == 1
        cap = capsys.readouterr()
        assert json.loads(cap.out)["violations"] == 3
        assert cap.err == f"error: cannot write {out}: No such file or directory\n"

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

    def test_discrete_greedy_ratios_are_hellinger_only(self, capsys):
        assert main(["verify", "--suite", "ratios", "--algorithm",
                     "discrete-greedy", "--measure", "power:0.5",
                     "--n", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ratio_suite_record_names_its_suite(self, capsys):
        assert main(["verify", "--suite", "ratios", "--algorithm",
                     "discrete-greedy", "--n", "25", "--machine"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["suite"] == "ratios"

    @pytest.mark.parametrize("algorithm", ["exhaustive", "continuous-repeats"])
    def test_ratio_suite_rejects_other_algorithms(self, capsys, algorithm):
        assert main(["verify", "--suite", "ratios", "--algorithm", algorithm,
                     "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: unknown algorithm")

    def test_bench_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--algorithm", "discrete-greedy", "--n", "25"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--suite", "ratios", "--algorithm", "continuous",
                     "--seed", "-1", "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_empty_beta_is_exit_1(self, capsys):
        assert main(["verify", "--suite", "axioms", "--measure", "power:"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: beta must be a number, got ''")

    @pytest.mark.parametrize("suite, n", [("ratios", "0"), ("axioms", "-5")])
    def test_n_below_one_rejected(self, capsys, suite, n):
        # zero ratio instances used to crash; zero trials passed vacuously
        assert main(["verify", "--suite", suite, "--n", n]) == 1
        assert capsys.readouterr().err.startswith(f"error: --n must be >= 1, got {n}")


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


@pytest.mark.parametrize("argv", [["verify", "--suite", "axioms", "--n", "3"],
                                  ["repro", "appendix-c"]])
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run([sys.executable, "-m", "caliblist.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


# ---------------------------------------------------------------------------
# Fuzzed instance files: solve with a re-validated value, or exit 1
# ---------------------------------------------------------------------------

_BAD_VALUES = [None, True, "abc", "", [], {}, 0, 5, -1.0, 10 ** 400,
               math.nan, math.inf, -math.inf, [0.5, 0.5], {"g1": 1.0}]
_NON_STRINGS = [None, True, 0, 1.5, ["g1"], {"g1": 1.0}]


def _locations(doc, path=()):
    """Every path to a value inside a JSON document, the root excluded."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield path + (key,)
        yield from _locations(value, path + (key,))


@st.composite
def perturbed_documents(draw):
    """A valid instance document with up to three fields broken."""
    inst = generate_instances(
        GenParams(max_genres=4, max_items=5, max_k=4),
        draw(st.sampled_from(["distributional", "discrete"])),
        seed=draw(st.integers(0, 2 ** 32 - 1)), n=1)[0]
    doc = instance_to_dict(inst)
    for _ in range(draw(st.integers(0, 3))):
        *where, key = draw(st.sampled_from(list(_locations(doc))))
        parent = doc
        for step in where:
            parent = parent[step]
        value = parent[key]
        ops = ["replace", "delete"]
        if isinstance(value, dict):
            ops.append("extra key")
        if isinstance(value, list) and value:
            ops.append("duplicate")
        if isinstance(value, float):
            ops.append("nudge")
        if isinstance(value, str):  # an item id, a genre id or the mode
            ops.append("non-string")
        op = draw(st.sampled_from(ops))
        if op == "non-string":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_NON_STRINGS)))
        elif op == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
        elif op == "delete":
            del parent[key]
        elif op == "extra key":
            value["extra"] = 1.0
        elif op == "duplicate":
            value.append(copy.deepcopy(value[draw(st.integers(0, len(value) - 1))]))
        else:
            parent[key] = value + draw(st.sampled_from([1e-3, -1e-3]))
    return doc


@given(perturbed_documents())
@settings(max_examples=300, deadline=None)
def test_fuzzed_instance_files_solve_or_exit_1(doc):
    try:
        inst = instance_from_dict(copy.deepcopy(doc))
    except ValidationError:
        inst = None
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["solve", path, "--machine"])
    if rc == 0:
        record = json.loads(out.getvalue())
        assert inst is not None
        loaded = instance_to_dict(inst)  # ids load as written, not coerced
        assert [e["id"] for e in loaded["items"]] == [e["id"] for e in doc["items"]]
        assert (loaded["genres"], loaded["mode"]) == (doc["genres"], doc["mode"])
        recheck = seq_objective(HellingerSquared(),
                                Sequence(tuple(record["sequence"])), inst)
        assert abs(recheck - record["value"]) <= 1e-12
    else:
        assert rc == 1
        assert err.getvalue().startswith("error:")
