"""The ``bntrim`` command: subcommand outputs, formats, determinism, and
the exit-code ladder (0 ok, 1 usage, 2 data, 3 enumeration guard)."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import MISSING, fields

import pytest

from bntrim import CostModel, Dataset, EvalConfig, cli, serialize_dataset, serialize_network, trimsearch

from conftest import FIXTURES, binary_chain, bound_filter_models
from test_evalharness import RARE_HELD_OUT_SEED, noisy_dataset, rare_value_dataset
from test_trimsearch import big_nb

QUIZ = str(FIXTURES / "quiz.bn.json")
BASE = ["--network", QUIZ, "--class", "C", "--positive", "+", "--threshold", "0.07"]
GBN4 = ["--network", str(FIXTURES / "gbn4.bn.json"), "--class", "C", "--positive", "+"]
TRACE_LINE = re.compile(r"^(maa|update|bound|prune) I=\S+ E=\S+ b=\S+ value=\S+$")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrim:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["trim", *BASE, "--budget", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2"]
        assert doc["score"] == pytest.approx(0.9748, abs=1e-9)
        assert doc["threshold_interval"][0] == pytest.approx(1 / 13, abs=1e-9)
        assert doc["representative"] == pytest.approx(1 / 3, abs=1e-9)
        assert doc["stats"] == {
            "maa_evals": 1,
            "bound_evals": 7,
            "nodes_expanded": 5,
            "pruned": 2,
        }

    def test_auto_dispatch_uses_nb_frontier(self, capsys):
        # The fixture is naive Bayes, so the search takes the specialized
        # path: same answer, single scoring pass.
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

    # GBN4 is a general DAG whose features are coupled given the class,
    # so the command takes the generic search on it.
    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["trim", *GBN4, "--budget", "2", "--format", "text"])
        assert code == 0
        assert "best_features: F2 F3" in out
        assert "score: 0.948" in out
        assert "stats.maa_evals: 4" in out

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, ["trim", *GBN4, "--budget", "2", "--trace"])
        assert code == 0
        json.loads(out)  # stdout still clean JSON
        lines = err.strip().split("\n")
        assert all(TRACE_LINE.match(line) for line in lines)
        assert lines[0].startswith("maa I=- E=- b=2 value=0.5768")
        assert any(line.startswith("prune ") for line in lines)


class TestGenericSearchOutput:
    """The generic search on QUIZ, which the command does not take there
    (QUIZ is naive Bayes), reached through ``trimsearch._run`` and
    printed by the command's own document, format and trace printer."""

    @staticmethod
    def generic(quiz_net, quiz_alpha, trace_hook=None):
        costs = CostModel.unit(quiz_alpha.features, 2)
        return trimsearch._run(quiz_net, quiz_alpha, costs, trace_hook, nb_frontier_only=False)

    def test_json_output(self, capsys, quiz_net, quiz_alpha):
        cli._emit(cli._trim_doc(self.generic(quiz_net, quiz_alpha)), "json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_features"] == ["Q1", "Q2"]
        assert doc["score"] == pytest.approx(0.9748, abs=1e-9)
        assert doc["stats"] == {
            "maa_evals": 3,
            "bound_evals": 7,
            "nodes_expanded": 5,
            "pruned": 2,
        }

    def test_text_format(self, capsys, quiz_net, quiz_alpha):
        cli._emit(cli._trim_doc(self.generic(quiz_net, quiz_alpha)), "text")
        out = capsys.readouterr().out
        assert "best_features: Q1 Q2" in out
        assert "score: 0.9748" in out
        assert "stats.maa_evals: 3" in out

    def test_trace(self, capsys, quiz_net, quiz_alpha):
        self.generic(quiz_net, quiz_alpha, cli._trace_printer)
        lines = capsys.readouterr().err.strip().split("\n")
        assert all(TRACE_LINE.match(line) for line in lines)
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

    @pytest.mark.parametrize("flags", [[], ["--retune"]])
    def test_ig_when_mass_products_underflow(self, capsys, tmp_path, flags):
        # Entry 14 has CPT entries of 1e-300 and below, so some class mass
        # times feature-value mass underflows to 0.
        net, clf = bound_filter_models()[14]
        path = tmp_path / "tiny.bn.json"
        path.write_bytes(serialize_network(net))
        argv = ["ig", "--network", str(path), "--class", clf.class_var, "--budget", "1", *flags]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        scores = json.loads(out)["scores"]
        assert list(scores) == list(clf.features)
        assert all(math.isfinite(x) for x in scores.values())

    def test_exhaustive_with_fractional_budget(self, capsys):
        # ceil(0.67 * 3) = 3, so everything fits and the full set wins.
        code, out, _ = run(capsys, ["exhaustive", *BASE, "--budget-frac", "0.67"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2", "Q3"]
        assert doc["score"] == pytest.approx(1.0, abs=1e-12)
        assert doc["stats"]["maa_evals"] == 8


class TestDecimalBudget:
    """Budgets are judged on the binary floats of the typed decimals:
    0.1 + 0.2 rounds to 0.30000000000000004, above a budget of 0.3, while
    the same costs and budget scaled by 10 fit exactly."""

    TENTHS = ["--costs", "Q1=0.1,Q2=0.2,Q3=1", "--budget", "0.3"]
    SCALED = ["--costs", "Q1=1,Q2=2,Q3=10", "--budget", "3"]

    @pytest.mark.parametrize("command", ["trim", "exhaustive"])
    def test_tenths_keep_q1_alone(self, capsys, command):
        code, out, _ = run(capsys, [command, *BASE, *self.TENTHS])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1"]
        assert doc["score"] == pytest.approx(0.9082, abs=1e-9)

    @pytest.mark.parametrize("command", ["trim", "exhaustive"])
    def test_scaled_by_ten_keeps_q1_and_q2(self, capsys, command):
        code, out, _ = run(capsys, [command, *BASE, *self.SCALED])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_features"] == ["Q1", "Q2"]
        assert doc["score"] == pytest.approx(0.9748, abs=1e-9)

    def test_ig_applies_the_same_rule(self, capsys):
        chosen = []
        for budget_flags in (self.TENTHS, self.SCALED):
            code, out, _ = run(capsys, ["ig", *BASE, *budget_flags])
            assert code == 0
            chosen.append(json.loads(out)["chosen"])
        assert chosen == [["Q1"], ["Q1", "Q2"]]

    def test_totals_past_the_largest_float_do_not_fit(self, capsys):
        # 1e308 + 1e308 overflows a float, so Q1 and Q2 together exceed
        # every finite budget; either alone with Q3 fits.
        huge = [
            "--network", QUIZ, "--class", "C", "--costs", "Q1=1e308,Q2=1e308,Q3=1", "--budget", "1e308",
        ]
        docs = {}
        for command in ("trim", "exhaustive", "ig"):
            code, out, err = run(capsys, [command, *huge])
            assert (code, err) == (0, "")
            docs[command] = json.loads(out)
        assert docs["trim"]["score"] == docs["exhaustive"]["score"]
        kept = [docs["trim"]["best_features"], docs["exhaustive"]["best_features"], docs["ig"]["chosen"]]
        assert not any({"Q1", "Q2"} <= set(chosen) for chosen in kept)
        assert docs["ig"]["chosen"] == ["Q1", "Q3"]


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

    def test_variable_problems_listed_with_the_rest(self, capsys, tmp_path):
        bad = {
            "variables": [
                {"name": "C", "values": ["+"]},
                {"name": "A", "values": ["x", "x"]},
                {"name": "B", "values": ["u", "v", "w"]},
            ],
            "cpds": [
                {"child": "C", "parents": [], "rows": [[1.0]]},
                {"child": "A", "parents": ["C"], "rows": [[0.5, 0.5]]},
                {"child": "B", "parents": [], "rows": [[0.5, 0.5]]},
                {"child": "Z", "parents": [], "rows": [[1.0]]},
            ],
        }
        problems = [
            "variable 'C' needs at least 2 values",
            "variable 'A' has duplicate value labels",
            "cpt 'B' row 0: expected 3 entries, found 2",
            "cpt references unknown child 'Z'",
        ]
        path = tmp_path / "bad.bn.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert json.loads(out) == {"valid": False, "problems": problems}
        code, out, err = run(capsys, ["maa", "--network", str(path), "--class", "C"])
        assert (code, out) == (2, "")
        assert err == "error: invalid network: " + "; ".join(problems) + "\n"

    def test_type_faults_listed_with_the_rest(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "quiz.bn.json").read_text())
        doc["variables"][1]["values"] = "xy"
        doc["cpds"][0]["rows"] = [[0.6, 0.6]]
        doc["cpds"][2]["rows"][1][0] = "a"
        problems = [
            "variable 'Q1' needs a list of string 'values'",
            "cpt 'C' row 0: row sum 1.2 != 1",
            "cpd 'Q2' row 1 must be a list of numbers",
        ]
        path = tmp_path / "typed.bn.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert json.loads(out) == {"valid": False, "problems": problems}

    def test_entries_without_a_name_listed_together(self, capsys, tmp_path):
        # The row sum of C is not read: without its names, the network
        # cannot be assembled.
        doc = json.loads((FIXTURES / "quiz.bn.json").read_text())
        doc["variables"][1]["name"] = 1
        doc["variables"][2] = "Q2"
        doc["cpds"][0]["rows"] = [[0.6, 0.6]]
        doc["cpds"][3] = None
        problems = [
            "variables[1] needs a string 'name'",
            "variables[2] must be an object",
            "cpds[3] must be an object",
        ]
        path = tmp_path / "shapes.bn.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 2
        assert json.loads(out) == {"valid": False, "problems": problems}

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
        assert err == f"wrote {net_path}: class 'L', 1 features\n"
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

    def test_seed_is_the_flag_alone(self, capsys, data_path, monkeypatch):
        # No environment variable stands in for --seed, whatever it holds.
        monkeypatch.setenv("BNTRIM_SEED", "abc")
        unflagged = run(capsys, ["scatter", "--data", data_path, *self.ARGS])
        assert unflagged == run(capsys, ["scatter", "--data", data_path, *self.ARGS, "--seed", "0"])
        assert unflagged[0] == 0
        assert unflagged[1] != run(capsys, ["scatter", "--data", data_path, *self.ARGS, "--seed", "7"])[1]


    def test_grid_guard_is_the_first_error(self, capsys, tmp_path):
        # 12 four-valued features and a binary class: a joint of 2 * 4**12
        # cells, over the guard.  The agreement side meets it before
        # cross-validation runs, and nothing is written to stdout.
        rng = random.Random(35)
        features = [f"F{i}" for i in range(1, 13)]
        rows = [
            ",".join(["pos" if rng.random() < 0.5 else "neg", *(rng.choice("abcd") for _ in features)])
            for _ in range(60)
        ]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join([",".join(["C", *features]), *rows]) + "\n")
        columns = list(zip(*(r.split(",") for r in rows)))
        assert [len(set(c)) for c in columns] == [2] + [4] * 12
        argv = ["scatter", "--data", str(path), "--class", "C", "--budget", "1", "--folds", "3"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "error: joint grid of 33554432 cells exceeds the 4194304 cell guard\n"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_folds_use_the_csv_vocabularies(self, capsys, tmp_path, seed):
        # Seed 0 trains without the one row where A = y, seed 3 without
        # the one negative row; the CSV holds both values of each column.
        path = tmp_path / "rare.csv"
        path.write_text("C,A,B\n" + "pos,x,u\n" * 8 + "neg,x,v\npos,y,u\n")
        argv = ["scatter", "--data", str(path), "--class", "C", "--folds", "2", "--budget", "2"]
        code, out, err = run(capsys, [*argv, "--seed", str(seed)])
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()] == ["subset", "", "A", "B", "A;B"]

    def test_csv_quotes_names_that_need_it(self, capsys, tmp_path):
        names = ("A,x", 'B"q')
        rows = noisy_dataset().rows
        path = tmp_path / "quoted.csv"
        path.write_bytes(serialize_dataset(Dataset(("label", *names), rows, "label")))
        code, out, err = run(capsys, ["scatter", "--data", str(path), "--class", "label", "--budget", "2"])
        assert code == 0, err
        records = list(csv.reader(io.StringIO(out)))
        assert records[0] == ["subset", "eca", "cv_accuracy", "marker"]
        assert [len(r) for r in records] == [4] * 5
        assert [r[0] for r in records[1:]] == ["", names[0], names[1], ";".join(names)]

    def test_budget_flags_are_exclusive(self, capsys, data_path):
        code, out, err = run(
            capsys, ["scatter", "--data", data_path, *self.ARGS, "--budget-frac", "0.5"]
        )
        assert code == 1
        assert out == ""
        assert "argument --budget-frac: not allowed with argument --budget" in err

    def test_text_format_is_usage_error(self, capsys, data_path):
        code, out, err = run(capsys, ["scatter", "--data", data_path, *self.ARGS, "--format", "text"])
        assert code == 1
        assert out == ""
        assert "invalid choice: 'text'" in err

    def test_every_setting_is_a_flag_with_the_field_default(self):
        # _cmd_scatter reads each EvalConfig field from the flag of that
        # dest; only the budget, resolved by cli._budget, has no default.
        args = cli.build_parser().parse_args(["scatter", "--data", "d.csv", "--class", "C"])
        for f in fields(EvalConfig):
            assert hasattr(args, f.name), f.name
            if f.default is not MISSING:
                assert getattr(args, f.name) == f.default, f.name
        assert [f.name for f in fields(EvalConfig) if f.default is MISSING] == ["budget"]

    @pytest.mark.parametrize(
        "flags, budget", [(["--budget-frac", "0.6"], "2"), ([], "1")], ids=["0.6", "default"]
    )
    def test_fraction_is_the_budget_of_the_csv_feature_count(self, capsys, data_path, flags, budget):
        # Two features: ceil(0.6 * 2) = 2, and the default ceil(0.5 * 2) = 1.
        argv = ["scatter", "--data", data_path, "--class", "label", "--folds", "4"]
        fraction = run(capsys, [*argv, *flags])
        assert fraction[0] == 0
        assert fraction == run(capsys, [*argv, "--budget", budget])
        assert fraction[1] != run(capsys, [*argv, "--budget", "0"])[1]

    @pytest.mark.parametrize("fraction", ["nan", "inf", "1.5", "0"])
    def test_fraction_outside_unit_interval(self, capsys, data_path, fraction):
        argv = ["scatter", "--data", data_path, "--class", "label", "--budget-frac", fraction]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: budget fraction must be in (0,1], got {float(fraction)}\n"

    def test_fraction_is_checked_before_the_other_settings(self, capsys, data_path):
        argv = ["scatter", "--data", data_path, "--class", "label", "--split", "2", "--budget-frac", "2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: budget fraction must be in (0,1], got 2.0\n"


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
        assert err == "error: malformed entry 'Q1=x' in --costs; expected NAME=NUMBER\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["trim", *BASE, "--budget", "2", "--costs", "Q1=1,Q2"],
                "malformed entry 'Q2' in --costs; expected NAME=NUMBER",
            ),
            (
                ["trim", *BASE, "--budget", "2", "--costs", "=1"],
                "malformed entry '=1' in --costs; expected NAME=NUMBER",
            ),
            (
                ["trim", *BASE, "--budget", "2", "--costs", "Q1=1,Q1=x"],
                "malformed entry 'Q1=x' in --costs; expected NAME=NUMBER",
            ),
            (
                ["sdp", *BASE, "--query", "Q1", "--observe", "Q2"],
                "malformed entry 'Q2' in --observe; expected VAR=VALUE",
            ),
            (
                ["sdp", *BASE, "--query", "Q1", "--observe", "Q3=+,=-"],
                "malformed entry '=-' in --observe; expected VAR=VALUE",
            ),
        ],
        ids=["costs-no-value", "costs-no-name", "costs-bad-repeat", "observe-no-value", "observe-no-name"],
    )
    def test_malformed_entry(self, capsys, argv, err):
        code, out, got = run(capsys, argv)
        assert (code, out, got) == (1, "", f"error: {err}\n")

    def test_equals_sign_is_part_of_a_name(self, capsys):
        code, out, err = run(capsys, ["maa", *BASE, "--keep", "Q1=x"])
        assert (code, out) == (2, "")
        assert err == "error: kept set names non-features: ['Q1=x']\n"

    def test_duplicate_cost_entry(self, capsys):
        argv = ["trim", *BASE, "--budget", "2", "--costs", "Q1=1,Q1=5,Q2=1,Q3=1"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: duplicate name in --costs; 'Q1' is given twice\n"

    @pytest.mark.parametrize("command", ["trim", "exhaustive", "ig"])
    def test_costs_for_non_features(self, capsys, command):
        argv = [command, *BASE, "--budget", "2", "--costs", "Q1=1,Q2=1,Q3=1,Q9=5,C=2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: costs name non-features: ['C', 'Q9']\n"

    def test_duplicate_observation(self, capsys):
        argv = ["sdp", *BASE, "--query", "Q1", "--observe", "Q2=+,Q2=-"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: duplicate name in --observe; 'Q2' is given twice\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["maa", *BASE, "--keep", "Q1,Q1"], "--keep"),
            (["mpa", *BASE, "--keep", "Q2, Q1,Q2"], "--keep"),
            (["sdp", *BASE, "--query", "Q1,Q1", "--observe", "Q2=+"], "--query"),
            (["trim", *BASE, "--features", "Q1,Q1,Q2", "--budget", "2"], "--features"),
            (["eca", *BASE, "--trim-features", "Q1,Q1", "--trim-threshold", "0.5"], "--trim-features"),
        ],
        ids=["maa-keep", "mpa-keep", "sdp-query", "trim-features", "eca-trim-features"],
    )
    def test_duplicate_name_in_a_list(self, capsys, argv, flag):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        name = "Q2" if argv[0] == "mpa" else "Q1"
        assert err == f"error: duplicate name in {flag}; {name!r} is given twice\n"

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

    def test_unknown_positive_label(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["maa", "--network", QUIZ, "--class", "C", "--positive", "Z"]
        )
        assert code == 2
        assert err == "error: positive label 'Z' is not a value of 'C'\n"
        path = tmp_path / "noisy.csv"
        path.write_bytes(serialize_dataset(noisy_dataset()))
        argv = ["scatter", "--data", str(path), "--class", "label", "--positive", "Z"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: positive label 'Z' is not a value of 'label'\n"

    def test_negative_budget(self, capsys):
        code, _, _ = run(capsys, ["trim", *BASE, "--budget", "-1"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "1e400"], "budget must be a finite value >= 0, got inf"),
            (["--budget", "2", "--costs", "Q1=inf"], "cost of 'Q1' must be a finite value > 0, got inf"),
        ],
        ids=["budget", "cost"],
    )
    def test_infinite_budget_or_cost_names_finiteness(self, capsys, flags, message):
        code, out, err = run(capsys, ["trim", *BASE, *flags])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "smoothing, message",
        [
            ("nan", "smoothing must be a finite value >= 0, got nan"),
            ("inf", "smoothing must be a finite value >= 0, got inf"),
            ("-1", "smoothing must be a finite value >= 0, got -1.0"),
            ("1e308", "smoothing 1e+308 overflows the estimate's denominator total + smoothing * "),
        ],
        ids=["nan", "inf", "-1", "1e308"],
    )
    @pytest.mark.parametrize("command", ["learn", "scatter"])
    def test_smoothing_not_finite_and_nonnegative(
        self, capsys, tmp_path, command, smoothing, message
    ):
        path = tmp_path / "noisy.csv"
        path.write_bytes(serialize_dataset(noisy_dataset()))
        argv = [command, "--data", str(path), "--class", "label", "--smoothing", smoothing]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err
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
        # 27 binary variables: 2**27 cells in the joint that sdp's, ig's
        # and maa's grids are read from.
        path = tmp_path / "chain.bn.json"
        path.write_bytes(serialize_network(binary_chain(27)))
        argv = [*argv[:1], "--network", str(path), "--class", "X26", *argv[1:]]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "exceeds the 4194304 cell guard" in err
        assert "Traceback" not in err

    def test_sdp_guard_counts_the_joint(self, capsys, tmp_path):
        # 23 binary variables, one observed: 2**22 completions, at the
        # scalar route's guard, but 2**23 cells in the joint that sdp's
        # classifier grid is read from, so sdp refuses.
        path = tmp_path / "chain.bn.json"
        path.write_bytes(serialize_network(binary_chain(23)))
        code, out, err = run(capsys, [
            "sdp", "--network", str(path), "--class", "X22", "--query", "X1", "--observe", "X0=a",
        ])
        assert (code, out) == (3, "")
        assert err == "error: joint grid of 8388608 cells exceeds the 4194304 cell guard\n"

    @pytest.mark.parametrize(
        "entry, message",
        [("1" + "0" * 400, "cpd 'C' has an integer too large for a float"),
         ("1" * 5000, "an integer literal has more than 4300 digits")],
        ids=["past-float-range", "past-digit-limit"],
    )
    def test_oversized_network_number_is_data_error(self, capsys, tmp_path, entry, message):
        path = tmp_path / "big.bn.json"
        path.write_text(
            '{"variables": [{"name": "C", "values": ["a", "b"]}],'
            f' "cpds": [{{"child": "C", "parents": [], "rows": [[{entry}, 0]]}}]}}'
        )
        code, out, err = run(capsys, ["maa", "--network", str(path), "--class", "C"])
        assert (code, out) == (2, "")
        assert message in err
        assert "Traceback" not in err
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 2
        assert json.loads(out) == {"valid": False, "problems": [message]}
        assert err == ""

    @pytest.mark.parametrize("command", ["learn", "scatter"])
    def test_oversized_csv_field_is_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "wide.csv"
        path.write_text("C,A\npos,x\nneg," + "y" * 131_073 + "\n")
        code, out, err = run(capsys, [command, "--data", str(path), "--class", "C"])
        assert (code, out) == (2, "")
        assert err == "error: line 3: field larger than field limit (131072)\n"

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

    @pytest.mark.parametrize(
        "flags", [["--order", "input"], ["--nb", "on"], ["--nb", "off"], ["--nb", "auto"]]
    )
    def test_removed_search_flags_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, ["trim", *BASE, "--budget", "2", *flags])
        assert code == 1
        assert out == ""
        assert flags[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--positive", "neg"], ["--threshold", "0.9"]])
    def test_removed_learn_flags_are_usage_errors(self, capsys, tmp_path, flags):
        path = tmp_path / "noisy.csv"
        path.write_bytes(serialize_dataset(noisy_dataset()))
        code, out, err = run(capsys, ["learn", "--data", str(path), "--class", "label", *flags])
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


CLASSIFIER_FLAGS = ("-h", "--help", "--network", "--class", "--positive", "--features", "--threshold", "--format")
BUDGET_FLAGS = ("--costs", "--budget", "--budget-frac")

# Every subcommand's option strings (a positional by its name), in the
# order the parser declares them.  A flag added or removed is an edit here.
SURFACE = {
    "trim": (*CLASSIFIER_FLAGS, *BUDGET_FLAGS, "--trace"),
    "exhaustive": (*CLASSIFIER_FLAGS, *BUDGET_FLAGS),
    "maa": (*CLASSIFIER_FLAGS, "--keep"),
    "mpa": (*CLASSIFIER_FLAGS, "--keep"),
    "eca": (*CLASSIFIER_FLAGS, "--trim-features", "--trim-threshold"),
    "sdp": (*CLASSIFIER_FLAGS, "--query", "--observe"),
    "ig": (*CLASSIFIER_FLAGS, *BUDGET_FLAGS, "--retune"),
    "learn": ("-h", "--help", "--data", "--class", "--smoothing", "--out"),
    "scatter": (
        "-h", "--help", "--data", "--class", "--positive", "--split", "--folds", "--smoothing",
        "--budget", "--budget-frac", "--threshold", "--threshold-mode", "--seed", "--format",
    ),
    "validate": ("-h", "--help", "network", "--format"),
}


def test_command_line_surface_is_pinned():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: tuple(s for action in sub._actions for s in action.option_strings or [action.dest])
        for name, sub in commands.choices.items()
    }
    assert surface == SURFACE


def test_module_entry_point_matches_in_process(capsys, tmp_path):
    in_proc = run(capsys, ["maa", *BASE, "--keep", "Q2,Q3"])
    proc = subprocess.run(
        [sys.executable, "-m", "bntrim.cli", "maa", *BASE, "--keep", "Q2,Q3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == in_proc[1]
