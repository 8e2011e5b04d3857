"""tools/bench_layers.py --compare: which timings it calls SLOWER."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


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


def bench(cases: dict[str, list[float]], criterion5_s: float, reference_s=None) -> dict:
    """A BENCH document; with ``reference_s``, every case records that
    reference loop time, as the tool writes it."""
    ref = {} if reference_s is None else {"reference_s": reference_s}
    return {
        "machine": {"cpu": "test"},
        "cases": {
            name: {"median_s": sorted(runs)[len(runs) // 2], "runs_s": runs, **ref}
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

    def test_one_run_case_is_never_slower(self, bench_layers, monkeypatch, tmp_path, capsys):
        before = bench({"scatter": [0.10]}, 10.0)
        after = bench({"scatter": [0.13, 0.14, 0.15]}, 10.0)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 0
        assert lines["scatter"].endswith("x1.400  unresolved")


class TestReferenceScaling:
    def test_host_drift_is_scaled_out(self, bench_layers, monkeypatch, tmp_path, capsys):
        # Every run 30 % slower, on a host whose reference loop ran 30 %
        # slower too: the same speed.  Suite times stay raw.
        before = bench({"scatter": [0.10, 0.11, 0.12]}, 10.0, reference_s=0.010)
        after = bench({"scatter": [0.13, 0.143, 0.156]}, 13.0, reference_s=0.013)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 0
        assert lines["scatter"].endswith("0.1100 s  ref x1.300  x1.000")
        assert lines["criterion5_s"].endswith("13.0000 s  x1.300  unresolved")

    def test_slowdown_on_a_faster_host_is_slower(self, bench_layers, monkeypatch, tmp_path, capsys):
        # Raw runs 9 % slower, but the host ran its reference loop 20 %
        # faster: 36 % slower at equal speed.
        before = bench({"scatter": [0.10, 0.11, 0.12]}, 10.0, reference_s=0.010)
        after = bench({"scatter": [0.11, 0.12, 0.13]}, 10.0, reference_s=0.008)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 1
        assert lines["scatter"].endswith("ref x0.800  x1.364  SLOWER")

    def test_raw_seconds_without_both_references(self, bench_layers, monkeypatch, tmp_path, capsys):
        before = bench({"scatter": [0.10, 0.11, 0.12]}, 10.0)
        after = bench({"scatter": [0.13, 0.14, 0.15]}, 10.0, reference_s=0.013)
        code, lines = compare(bench_layers, monkeypatch, tmp_path, capsys, before, after)
        assert code == 1
        assert lines["scatter"].endswith("0.1400 s  x1.273  SLOWER")
