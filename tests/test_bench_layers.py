"""tools/bench_layers.py: how sessions pool under one label, and which
timings --compare calls SLOWER or FASTER."""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from datetime import datetime
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_layers.py"


@pytest.fixture
def bench_layers(monkeypatch):
    """The tool as a module, with the import path and the modules it adds
    taken back afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def bench(cases: dict[str, list[float]], criterion5_s: float) -> dict:
    """A one-session BENCH document, as written before sessions were
    pooled: single suite seconds."""
    return {
        "machine": {"cpu": "test"},
        "cases": {
            name: {"median_s": sorted(runs)[len(runs) // 2], "runs_s": runs}
            for name, runs in cases.items()
        },
        "suite": {"tier1_s": 60.0, "criterion5_s": criterion5_s},
    }


def compare(bench_layers, monkeypatch, tmp_path, capsys, before: dict, after: dict):
    """The exit code and each timing's line of ``--compare a b``."""
    for label, doc in (("a", before), ("b", after)):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
    code = bench_layers.main(["--compare", "a", "b"])
    lines = capsys.readouterr().out.splitlines()
    return code, {line.split()[0]: line for line in lines}


class TestCompare:
    def test_one_run_timing_is_never_slower(self, bench_layers, monkeypatch, tmp_path, capsys):
        # criterion5_s is one run on each side, 33 % slower: unresolved.
        runs = {"scatter": [0.10, 0.11, 0.12]}
        code, lines = compare(
            bench_layers, monkeypatch, tmp_path, capsys, bench(runs, 13.83), bench(runs, 18.39)
        )
        assert code == 0
        assert lines["criterion5_s"].endswith("x1.330  unresolved")
        assert lines["scatter"].endswith("x1.000")

    def test_separated_runs_are_slower(self, bench_layers, monkeypatch, tmp_path, capsys):
        before = bench({"scatter": [0.10, 0.11, 0.12], "sdp": [0.10, 0.11, 0.12]}, 10.0)
        # scatter's runs all lie above sdp's; sdp's overlap the parent's.
        after = bench({"scatter": [0.13, 0.14, 0.15], "sdp": [0.11, 0.14, 0.15]}, 10.0)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 1
        assert lines["scatter"].endswith("x1.273  SLOWER")
        assert lines["sdp"].endswith("x1.273  unresolved")
        assert lines["criterion5_s"].endswith("x1.000")

    def test_separated_runs_are_faster_and_never_fail(
        self, bench_layers, monkeypatch, tmp_path, capsys
    ):
        before = bench({"scatter": [0.13, 0.14, 0.15], "sdp": [0.11, 0.14, 0.15]}, 10.0)
        # scatter's runs all lie below the parent's; sdp's overlap them;
        # cv_accuracy's ratio is inside the 1.10 band either way.
        after = bench(
            {"scatter": [0.10, 0.11, 0.12], "sdp": [0.10, 0.11, 0.12], "cv_accuracy": [1.0, 1.0]},
            13.0,
        )
        before["cases"]["cv_accuracy"] = {"median_s": 1.095, "runs_s": [1.09, 1.10]}
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 0
        assert lines["scatter"].endswith("x0.786  FASTER")
        assert lines["sdp"].endswith("x0.786  unresolved")
        assert lines["cv_accuracy"].endswith("x0.913")
        assert lines["criterion5_s"].endswith("x1.300  unresolved")

    def test_one_run_case_is_never_slower(self, bench_layers, monkeypatch, tmp_path, capsys):
        before = bench({"scatter": [0.10]}, 10.0)
        after = bench({"scatter": [0.13, 0.14, 0.15]}, 10.0)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 0
        assert lines["scatter"].endswith("x1.400  unresolved")


def compare_files(bench_layers, capsys, before: str, after: str):
    """The exit code and each line of ``--compare before after``, by its
    first word."""
    code = bench_layers.main(["--compare", before, after])
    return code, {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}


def session(bench_layers, monkeypatch, label: str, cases: dict, tier1_s: float) -> int:
    """``--label label`` with these timings in place of the real ones."""
    suite = {"tier1_s": tier1_s, "criterion5_s": tier1_s / 4, "passed": 9, "failed": 0}
    monkeypatch.setattr(bench_layers, "machine", lambda: {"cpu": "test"})
    monkeypatch.setattr(bench_layers, "time_cases", lambda: {k: list(v) for k, v in cases.items()})
    monkeypatch.setattr(bench_layers, "time_suite", lambda: dict(suite))
    return bench_layers.main(["--label", label])


def untimed(bench_layers, monkeypatch):
    """Make any timing fail the test."""
    def fail():
        raise AssertionError("timed a session")
    monkeypatch.setattr(bench_layers, "time_cases", fail)
    monkeypatch.setattr(bench_layers, "time_suite", fail)


class TestSessions:
    def test_second_session_extends_runs_and_retakes_medians(
        self, bench_layers, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        first = {"scatter": [0.10, 0.11, 0.12], "sdp": [0.20, 0.21, 0.22]}
        second = {"scatter": [0.16, 0.17, 0.18], "sdp": [0.30, 0.31, 0.32]}
        assert session(bench_layers, monkeypatch, "a", first, 60.0) == 0
        assert session(bench_layers, monkeypatch, "a", second, 70.0) == 0
        text = (tmp_path / "BENCH_a.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        for name in first:
            runs = first[name] + second[name]
            assert doc["cases"][name] == {"median_s": statistics.median(runs), "runs_s": runs}
        assert doc["suite"]["tier1_s"] == {"median_s": 65.0, "runs_s": [60.0, 70.0]}
        assert doc["suite"]["criterion5_s"] == {"median_s": 16.25, "runs_s": [15.0, 17.5]}
        assert [s["passed"] for s in doc["sessions"]] == [9, 9]
        for s in doc["sessions"]:
            datetime.fromisoformat(s["started"])
        assert "reference_s" not in text
        capsys.readouterr()
        bench_layers.main(["--compare", "a", "a"])
        assert capsys.readouterr().out.startswith("sessions: 2 in BENCH_a.json, 2 in BENCH_a.json\n")

    def test_session_joins_a_one_session_file(self, bench_layers, monkeypatch, tmp_path):
        # A file written before pooling: its suite seconds are scalars and
        # its cases carry reference-loop seconds, which are dropped.
        old = bench({"scatter": [0.10, 0.11, 0.12]}, 15.0)
        old["cases"]["scatter"]["reference_s"] = 0.015
        old["suite"].update(passed=8, failed=1)
        (tmp_path / "BENCH_a.json").write_text(json.dumps(old), encoding="utf-8")
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        assert session(bench_layers, monkeypatch, "a", {"scatter": [0.13, 0.14]}, 80.0) == 0
        doc = json.loads((tmp_path / "BENCH_a.json").read_text(encoding="utf-8"))
        assert doc["cases"]["scatter"] == {"median_s": 0.12, "runs_s": [0.10, 0.11, 0.12, 0.13, 0.14]}
        assert doc["suite"]["tier1_s"]["runs_s"] == [60.0, 80.0]
        assert doc["suite"]["criterion5_s"]["runs_s"] == [15.0, 20.0]
        first, second = doc["sessions"]
        assert (first["started"], first["failed"]) == (None, 1)
        datetime.fromisoformat(second["started"])

    def test_other_machine_is_refused(self, bench_layers, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        assert session(bench_layers, monkeypatch, "a", {"scatter": [0.10, 0.11]}, 60.0) == 0
        before = (tmp_path / "BENCH_a.json").read_bytes()
        capsys.readouterr()
        monkeypatch.setattr(bench_layers, "machine", lambda: {"cpu": "other"})
        untimed(bench_layers, monkeypatch)
        assert bench_layers.main(["--label", "a"]) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 and "BENCH_a.json" in out
        assert (tmp_path / "BENCH_a.json").read_bytes() == before

    def test_alternated_drift_pools_to_unresolved(self, bench_layers, monkeypatch, tmp_path, capsys):
        # The host slows by 15 % per session, and nothing else changes:
        # parent, change, parent, change.
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        base = [0.100, 0.104, 0.108]
        drift = (1.00, 1.15, 1.30, 1.45)
        runs = [[r * f for r in base] for f in drift]
        for label, k in (("p", 0), ("c", 1), ("p", 2), ("c", 3), ("p1", 0), ("c1", 1)):
            assert session(bench_layers, monkeypatch, label, {"scatter": runs[k]}, 60.0 * drift[k]) == 0
        capsys.readouterr()
        # Alternated and pooled, the drift lies on both sides.
        code, lines = compare_files(bench_layers, capsys, "p", "c")
        assert code == 0
        assert lines["scatter"].endswith("unresolved")
        assert lines["sessions:"] == "sessions: 2 in BENCH_p.json, 2 in BENCH_c.json"
        # One session a side, the drift reads as a slowdown.
        code, lines = compare_files(bench_layers, capsys, "p1", "c1")
        assert code == 1
        assert lines["scatter"].endswith("x1.150  SLOWER")


class TestBenchFiles:
    def test_every_committed_pair_compares(self, bench_layers, capsys):
        labels = [p.name[len("BENCH_"):-len(".json")] for p in ROOT.glob("BENCH_*.json")]
        # A pair being recorded has only one of its files in its checkout.
        pairs = sorted(x for x in labels if f"{x}-parent" in labels)
        docs = [json.loads((ROOT / f"BENCH_{x}.json").read_text(encoding="utf-8")) for x in pairs]
        # The committed files include both older forms.
        assert any(not isinstance(d["suite"]["tier1_s"], dict) for d in docs)
        assert any("reference_s" in case for d in docs for case in d["cases"].values())
        for x in pairs:
            code, lines = compare_files(bench_layers, capsys, f"{x}-parent", x)
            assert code in (0, 1)
            assert "tier1_s" in lines and "sessions:" in lines

    def test_missing_file(self, bench_layers, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        (tmp_path / "BENCH_a.json").write_text(json.dumps(bench({"sdp": [0.1]}, 1.0)), encoding="utf-8")
        for labels in (("nosuch", "a"), ("a", "nosuch")):
            assert bench_layers.main(["--compare", *labels]) == 2
            assert capsys.readouterr().out == "BENCH_nosuch.json: No such file or directory\n"

    @pytest.mark.parametrize("text", [
        "",
        "[1, 2]",
        '{"machine": {}, "cases": {}}',
        '{"machine": {}, "cases": {"sdp": {"runs_s": []}}, "suite": {}}',
        '{"machine": {}, "cases": {"sdp": {"runs_s": ["0.1"]}}, "suite": {}}',
        '{"machine": {}, "cases": {"sdp": {"runs_s": [0.1]}}, "suite": {"tier1_s": true}}',
    ])
    def test_not_a_bench_document(self, bench_layers, monkeypatch, tmp_path, capsys, text):
        monkeypatch.setattr(bench_layers, "ROOT", tmp_path)
        (tmp_path / "BENCH_a.json").write_text(json.dumps(bench({"sdp": [0.1]}, 1.0)), encoding="utf-8")
        (tmp_path / "BENCH_bad.json").write_text(text, encoding="utf-8")
        untimed(bench_layers, monkeypatch)
        for argv in (["--compare", "a", "bad"], ["--compare", "bad", "a"], ["--label", "bad"]):
            assert bench_layers.main(argv) == 2
            assert capsys.readouterr().out == "BENCH_bad.json: not a BENCH document\n"
        assert (tmp_path / "BENCH_bad.json").read_text(encoding="utf-8") == text
