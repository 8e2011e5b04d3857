"""The ``bntrim`` command: subcommand outputs, formats, determinism, and
the exit-code ladder (0 ok, 1 usage, 2 data, 3 enumeration guard)."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bntrim import cli, serialize_dataset, serialize_network

from conftest import FIXTURES, binary_chain
from test_evalharness import RARE_HELD_OUT_SEED, noisy_dataset, rare_value_dataset
from test_trimsearch import big_nb

QUIZ = str(FIXTURES / "quiz.bn.json")
BASE = ["--network", QUIZ, "--class", "C", "--positive", "+", "--threshold", "0.07"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrim:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["trim", *BASE, "--budget", "2", "--nb", "off"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2"]
        assert doc["score"] == pytest.approx(0.9748, abs=1e-9)
        assert doc["threshold_interval"][0] == pytest.approx(1 / 13, abs=1e-9)
        assert doc["representative"] == pytest.approx(1 / 3, abs=1e-9)
        assert doc["stats"] == {
            "maa_evals": 3,
            "bound_evals": 7,
            "nodes_expanded": 5,
            "pruned": 2,
        }

    def test_auto_dispatch_uses_nb_frontier(self, capsys):
        # The fixture is naive Bayes, so the default "--nb auto" takes the
        # specialized path: same answer, single scoring pass.
        code, out, _ = run(capsys, ["trim", *BASE, "--budget", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2"]
        assert doc["score"] == pytest.approx(0.9748, abs=1e-9)
        assert doc["stats"]["maa_evals"] == 1

    def test_byte_identical_across_runs(self, capsys):
        first = run(capsys, ["trim", *BASE, "--budget", "2"])
        second = run(capsys, ["trim", *BASE, "--budget", "2"])
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, ["trim", *BASE, "--budget", "2", "--nb", "off", "--format", "text"]
        )
        assert code == 0
        assert "best_features: Q1 Q2" in out
        assert "score: 0.9748" in out
        assert "stats.maa_evals: 3" in out

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, ["trim", *BASE, "--budget", "2", "--nb", "off", "--trace"]
        )
        assert code == 0
        json.loads(out)  # stdout still clean JSON
        lines = err.strip().split("\n")
        shape = re.compile(r"^(maa|update|bound|prune) I=\S+ E=\S+ b=\S+ value=\S+$")
        assert all(shape.match(line) for line in lines)
        assert lines[0].startswith("maa I=- E=- b=2 value=0.7318")
        assert any(line.startswith("prune ") for line in lines)


class TestAgreementCommands:
    def test_maa_with_sentinel_interval(self, capsys):
        code, out, _ = run(capsys, ["maa", *BASE, "--keep", "Q2,Q3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == pytest.approx(0.7318, abs=1e-9)
        assert doc["threshold_interval"] == [0.25, "inf"]
        assert doc["representative"] == pytest.approx(1.25, abs=1e-12)

    def test_maa_default_keeps_nothing(self, capsys):
        code, out, _ = run(capsys, ["maa", *BASE])
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == pytest.approx(0.7318, abs=1e-9)
        assert doc["threshold_interval"][1] == "inf"
        assert doc["representative"] == pytest.approx(1.1, abs=1e-9)

    def test_mpa(self, capsys):
        code, out, _ = run(capsys, ["mpa", *BASE, "--keep", "Q3"])
        assert code == 0
        assert json.loads(out)["score"] == pytest.approx(0.7318, abs=1e-9)

    def test_eca(self, capsys):
        code, out, _ = run(
            capsys,
            ["eca", *BASE, "--trim-features", "Q1,Q3", "--trim-threshold", "0.10"],
        )
        assert code == 0
        assert json.loads(out)["eca"] == pytest.approx(0.9082, abs=1e-9)

    def test_sdp(self, capsys):
        code, out, _ = run(
            capsys, ["sdp", *BASE, "--query", "Q1,Q2", "--observe", "Q3=+"]
        )
        assert code == 0
        assert json.loads(out)["sdp"] == pytest.approx(9 / 22, abs=1e-9)


class TestBaselineAndExhaustive:
    def test_ig(self, capsys):
        code, out, _ = run(capsys, ["ig", *BASE, "--budget", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "information-gain"
        assert doc["chosen"] == ["Q1", "Q2"]
        assert doc["threshold"] == pytest.approx(0.07, abs=1e-12)
        assert doc["eca"] == pytest.approx(0.9082, abs=1e-9)
        assert list(doc["scores"]) == ["Q1", "Q2", "Q3"]

    def test_ig_retune(self, capsys):
        code, out, _ = run(capsys, ["ig", *BASE, "--budget", "2", "--retune"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "information-gain+retune"
        assert doc["eca"] == pytest.approx(0.9748, abs=1e-9)
        assert doc["threshold"] == pytest.approx(1 / 3, abs=1e-9)

    def test_exhaustive_with_fractional_budget(self, capsys):
        # ceil(0.67 * 3) = 3, so everything fits and the full set wins.
        code, out, _ = run(capsys, ["exhaustive", *BASE, "--budget-frac", "0.67"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2", "Q3"]
        assert doc["score"] == pytest.approx(1.0, abs=1e-12)
        assert doc["stats"]["maa_evals"] == 8


class TestValidate:
    def test_valid_network(self, capsys):
        code, out, _ = run(capsys, ["validate", QUIZ])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"valid": True, "variables": ["C", "Q1", "Q2", "Q3"]}

    def test_broken_rows_reported(self, capsys, tmp_path):
        bad = {
            "variables": [{"name": "C", "values": ["+", "-"]}],
            "cpds": [{"child": "C", "parents": [], "rows": [[0.6, 0.5]]}],
        }
        path = tmp_path / "bad.bn.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert "row sum" in doc["problems"][0]

    def test_problem_text_with_separator_stays_one_problem(self, capsys, tmp_path):
        bad = {
            "variables": [{"name": "x; y", "values": ["+", "-"]}],
            "cpds": [{"child": "x; y", "parents": [], "rows": [[0.4, 0.2]]}],
        }
        path = tmp_path / "bad.bn.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert len(doc["problems"]) == 1
        assert doc["problems"][0].startswith("cpt 'x; y' row 0: row sum")

    def test_repeated_parent(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "quiz.bn.json").read_text())
        cpt = next(c for c in doc["cpds"] if c["child"] == "Q1")
        cpt["parents"] = ["C", "C"]
        cpt["rows"] = [cpt["rows"][0], cpt["rows"][0], cpt["rows"][1], cpt["rows"][1]]
        path = tmp_path / "repeated.bn.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", "--format", "text", str(path)])
        assert code == 2
        assert out.startswith("valid: false\n")
        assert "cpt 'Q1' lists parent 'C' twice" in out
        network = ["--network", str(path), "--class", "C"]
        for argv in (
            ["maa", *network, "--keep", "Q1"],
            ["sdp", *network, "--query", "Q1", "--observe", "Q3=+"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert "cpt 'Q1' lists parent 'C' twice" in err
            assert "Traceback" not in err

    def test_garbage_input(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {{{")
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert len(doc["problems"]) == 1


class TestLearn:
    CSV = "L,F\nc,+\nc,+\nd,-\nd,+\n"

    def test_learn_to_stdout(self, capsys, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text(self.CSV)
        code, out, _ = run(capsys, ["learn", "--data", str(data), "--class", "L"])
        assert code == 0
        doc = json.loads(out)
        assert [v["name"] for v in doc["variables"]] == ["L", "F"]
        assert doc["cpds"][1]["rows"][0][0] == 0.75

    def test_learn_then_validate(self, capsys, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text(self.CSV)
        net_path = tmp_path / "toy.bn.json"
        code, _, err = run(
            capsys,
            ["learn", "--data", str(data), "--class", "L", "--out", str(net_path)],
        )
        assert code == 0
        assert "wrote" in err
        code, out, _ = run(capsys, ["validate", str(net_path)])
        assert code == 0
        assert json.loads(out)["valid"] is True


class TestScatter:
    @pytest.fixture()
    def data_path(self, tmp_path):
        path = tmp_path / "scatter.csv"
        path.write_bytes(serialize_dataset(noisy_dataset()))
        return str(path)

    ARGS = ["--class", "label", "--budget", "1", "--folds", "4"]

    def test_default_csv_format(self, capsys, data_path):
        code, out, err = run(
            capsys, ["scatter", "--data", data_path, *self.ARGS, "--seed", "7"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "subset,eca,cv_accuracy,marker"
        assert len(lines) == 4  # (), (A,), (B,)
        summary = json.loads(err.strip().split("\n")[-1])
        assert set(summary) == {"optimal_eca", "optimal_accuracy"}

    def test_json_format(self, capsys, data_path):
        code, out, _ = run(
            capsys,
            ["scatter", "--data", data_path, *self.ARGS, "--seed", "7", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"rows", "summary"}
        assert set(doc["rows"][0]) == {"subset", "eca", "cv_accuracy", "marker"}

    def test_env_seed_matches_flag(self, capsys, data_path, monkeypatch):
        flagged = run(capsys, ["scatter", "--data", data_path, *self.ARGS, "--seed", "7"])
        monkeypatch.setenv(cli.ENV_SEED, "7")
        via_env = run(capsys, ["scatter", "--data", data_path, *self.ARGS])
        assert via_env == flagged
        monkeypatch.setenv(cli.ENV_SEED, "9")
        other = run(capsys, ["scatter", "--data", data_path, *self.ARGS])
        assert other[1] != flagged[1]


class TestClassOnlyNetwork:
    """A network holding only the class variable, Pr(C = +) = 0.7."""

    @pytest.fixture()
    def net_path(self, tmp_path):
        doc = {
            "variables": [{"name": "C", "values": ["-", "+"]}],
            "cpds": [{"child": "C", "parents": [], "rows": [[0.3, 0.7]]}],
        }
        path = tmp_path / "class_only.bn.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["maa"],
            ["mpa"],
            ["eca", "--trim-threshold", "0.5"],
            ["trim", "--budget", "1", "--trace"],
            ["exhaustive", "--budget", "0"],
            ["ig", "--budget", "1"],
            ["ig", "--budget", "1", "--retune"],
            ["sdp"],
        ],
    )
    def test_every_network_subcommand_succeeds(self, capsys, net_path, argv):
        base = ["--network", net_path, "--class", "C", "--positive", "+"]
        code, out, err = run(capsys, [argv[0], *base, *argv[1:]])
        assert code == 0
        assert "Traceback" not in err
        assert json.loads(out)

    def test_maa_covers_thresholds_up_to_the_prior(self, capsys, net_path):
        code, out, _ = run(capsys, ["maa", "--network", net_path, "--class", "C", "--positive", "+"])
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == 1.0
        assert doc["threshold_interval"] == ["-inf", 0.7]

    def test_validate_and_class_only_data(self, capsys, net_path, tmp_path):
        code, out, _ = run(capsys, ["validate", net_path])
        assert code == 0
        assert json.loads(out)["valid"] is True
        data = tmp_path / "class_only.csv"
        data.write_text("C\n+\n-\n+\n+\n-\n+\n")
        code, out, err = run(capsys, ["scatter", "--data", str(data), "--class", "C", "--folds", "2"])
        assert code == 0
        assert out.split("\n")[1].startswith(",1,")
        assert "Traceback" not in err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, ["trim", *BASE, "--budget", "2", "--nope"])
        assert code == 1

    def test_missing_budget(self, capsys):
        code, _, err = run(capsys, ["trim", *BASE])
        assert code == 1
        assert "--budget" in err

    def test_malformed_costs(self, capsys):
        code, _, err = run(capsys, ["trim", *BASE, "--budget", "2", "--costs", "Q1=x"])
        assert code == 1
        assert "malformed cost" in err

    def test_missing_trim_threshold(self, capsys):
        code, _, _ = run(capsys, ["eca", *BASE, "--trim-features", "Q1"])
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "/no/such/file.json"])
        assert code == 2
        assert "error:" in err

    def test_unknown_class_variable(self, capsys):
        code, _, _ = run(
            capsys, ["maa", "--network", QUIZ, "--class", "NOPE", "--keep", "Q1"]
        )
        assert code == 2

    def test_unknown_positive_label(self, capsys):
        code, _, err = run(
            capsys, ["maa", "--network", QUIZ, "--class", "C", "--positive", "Z"]
        )
        assert code == 2
        assert "positive label" in err

    def test_negative_budget(self, capsys):
        code, _, _ = run(capsys, ["trim", *BASE, "--budget", "-1"])
        assert code == 2

    @pytest.mark.parametrize(
        "payload, message",
        [(b'{"variables": "\xff"}', "not UTF-8 text"), (b"[" * 100_000, "nested too deeply")],
        ids=["undecodable", "nested"],
    )
    def test_unreadable_network_is_data_error(self, capsys, tmp_path, payload, message):
        path = tmp_path / "bad.bn.json"
        path.write_bytes(payload)
        code, _, err = run(capsys, ["maa", "--network", str(path), "--class", "C"])
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        code, out, err = run(capsys, ["validate", "--format", "text", str(path)])
        assert code == 2
        assert out.startswith("valid: false\n")
        assert message in out
        assert "Traceback" not in err

    def test_undecodable_dataset_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"F,C\n\xff,pos\n")
        code, out, err = run(capsys, ["scatter", "--data", str(path), "--class", "C"])
        assert code == 2
        assert out == ""
        assert "not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fraction", ["nan", "inf", "1.5", "0"])
    @pytest.mark.parametrize("command", ["trim", "exhaustive", "ig"])
    def test_budget_fraction_outside_unit_interval(self, capsys, command, fraction):
        code, out, err = run(capsys, [command, *BASE, "--budget-frac", fraction])
        assert code == 2
        assert out == ""
        assert f"budget fraction must be in (0,1], got {float(fraction)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["learn", "scatter"])
    def test_smoothing_not_finite_and_nonnegative(self, capsys, tmp_path, command, smoothing):
        path = tmp_path / "noisy.csv"
        path.write_bytes(serialize_dataset(noisy_dataset()))
        argv = [command, "--data", str(path), "--class", "label", "--smoothing", smoothing]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"smoothing must be a finite value >= 0, got {float(smoothing)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["learn", "scatter"])
    def test_duplicate_column_names(self, capsys, tmp_path, command):
        path = tmp_path / "dup.csv"
        path.write_bytes(b"C,A,A\n" + b"".join(
            f"{'pos' if i % 2 else 'neg'},{'xy'[i % 3 % 2]},{'uv'[i % 5 % 2]}\n".encode()
            for i in range(20)
        ))
        code, out, err = run(capsys, [command, "--data", str(path), "--class", "C"])
        assert code == 2
        assert out == ""
        assert "duplicate column name 'A'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["learn", "scatter"])
    def test_constant_column(self, capsys, tmp_path, command):
        path = tmp_path / "constant.csv"
        path.write_bytes(b"C,A,B\n" + b"".join(
            f"{'pos' if i % 2 else 'neg'},{'xy'[i % 3 % 2]},z\n".encode() for i in range(20)
        ))
        code, out, err = run(capsys, [command, "--data", str(path), "--class", "C"])
        assert code == 2
        assert out == ""
        assert "column 'B' has one value 'z'" in err
        assert "Traceback" not in err

    def test_enumeration_guard(self, capsys, tmp_path):
        net, _ = big_nb(21)
        path = tmp_path / "big.bn.json"
        path.write_bytes(serialize_network(net))
        code, _, err = run(
            capsys,
            ["exhaustive", "--network", str(path), "--class", "C", "--budget", "3"],
        )
        assert code == 3
        assert "2^21" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sdp", "--query", "X1", "--observe", "X0=a"],
            ["ig", "--budget", "2"],
            ["maa"],
        ],
        ids=["sdp", "ig", "maa"],
    )
    def test_cell_guard_on_both_routes(self, capsys, tmp_path, argv):
        # 27 binary variables: 2**26 completions for sdp, 2**27 for ig's
        # joint and maa's grid.
        path = tmp_path / "chain.bn.json"
        path.write_bytes(serialize_network(binary_chain(27)))
        argv = [*argv[:1], "--network", str(path), "--class", "X26", *argv[1:]]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "exceeds the 4194304 cell guard" in err
        assert "Traceback" not in err

    def test_unsmoothed_zero_evidence_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "rare.csv"
        path.write_bytes(serialize_dataset(rare_value_dataset()))
        argv = ["scatter", "--data", str(path), "--class", "C", "--folds", "2"]
        code, out, err = run(
            capsys, [*argv, "--smoothing", "0", "--seed", str(RARE_HELD_OUT_SEED)]
        )
        assert code == 2
        assert out == ""
        assert "evidence {'F': 2} has probability 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--order", "input"], ["--nb", "on"]])
    def test_removed_search_flags_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, ["trim", *BASE, "--budget", "2", *flags])
        assert code == 1
        assert out == ""
        assert flags[0] in err
        assert "Traceback" not in err

    def test_jobs_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["trim", *BASE, "--budget", "2", "--jobs", "2"])
        assert code == 1
        assert "--jobs" in err
        data_path = tmp_path / "noisy.csv"
        data_path.write_bytes(serialize_dataset(noisy_dataset()))
        code, _, err = run(
            capsys, ["scatter", "--data", str(data_path), "--class", "label", "--jobs", "2"]
        )
        assert code == 1
        assert "--jobs" in err

    def test_usage_error_leaves_next_call_as_in_fresh_process(self, capsys):
        argv = ["trim", *BASE, "--budget", "2", "--trace"]
        code, _, err = run(capsys, ["trim", *BASE, "--budget", "2", "--budget-frac", "0.5"])
        assert code == 1
        assert "not allowed with" in err
        after = run(capsys, argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "bntrim.cli", *argv], capture_output=True, text=True
        )
        assert after == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "usage:" in out


def test_module_entry_point_matches_in_process(capsys, tmp_path):
    in_proc = run(capsys, ["maa", *BASE, "--keep", "Q2,Q3"])
    proc = subprocess.run(
        [sys.executable, "-m", "bntrim.cli", "maa", *BASE, "--keep", "Q2,Q3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == in_proc[1]
