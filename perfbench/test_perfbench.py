"""Self-tests of the benchmark: seeded generation, output checks and span
arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import run  # puts the sources on sys.path
import generate
from bntrim import cli
from spans import Tracer, self_times


def _input(case) -> bytes:
    return run.input_bytes(sys.modules["bntrim"], case)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload):
    make = generate.CASES[workload]
    first = [_input(make(i)) for i in range(4)]
    assert first == [_input(make(i)) for i in range(4)]
    assert len(set(first)) == 4
    refs = run.load_refs(workload)
    assert len(refs.hashes) == generate.POOL[workload]
    assert [run.digest(b)[:16] for b in first] == refs.hashes[:4]


def test_seeded_order_cycles_through_strata():
    order = generate.pool_order("trim", 3)
    assert order == generate.pool_order("trim", 3)
    assert order != generate.pool_order("trim", 4)
    assert sorted(order) == list(range(generate.POOL["trim"]))
    assert [i % 12 for i in order[:24]] == list(range(12)) * 2


def test_rename_changes_names_only():
    case = generate.trim_case(1)
    renamed = generate.rename(case, "o7x0_")
    assert renamed.net != case.net
    assert _input(renamed) == _input(case).replace(b'"f', b'"o7x0_f')
    assert [c for _, c in renamed.costs] == [c for _, c in case.costs]


def _op(workload, index, tmp_path):
    case = generate.rename(generate.CASES[workload](index), "o1x0_")
    op = run.Op(index, case, "o1x0_", tmp_path / "in")
    op.path.write_bytes(_input(case))
    code, stdout, _ = run.call(cli, run.argv_for(case, str(op.path)))
    return op, run.load_refs(workload).expected[index], code, stdout


def test_trim_checker_flags_wrong_outputs(tmp_path):
    op, ref, code, stdout = _op("trim", 0, tmp_path)
    assert run.check(op, ref, code, stdout)[0]
    doc = json.loads(stdout)
    assert not run.check(op, ref, 1, stdout)[0]
    assert not run.check(op, ref, code, "")[0]
    assert not run.check(op, ref, code, json.dumps({**doc, "score": doc["score"] - 1e-9}))[0]
    everything = [f for f, _ in op.case.costs]
    assert not run.check(op, ref, code, json.dumps({**doc, "best_features": everything}))[0]


@pytest.mark.parametrize("workload", ["maa-wide", "scalar", "scatter"])
def test_stdout_checker_flags_wrong_outputs(workload, tmp_path):
    op, ref, code, stdout = _op(workload, 1, tmp_path)
    assert run.check(op, ref, code, stdout)[0]
    assert not run.check(op, ref, 2, stdout)[0]
    digit = max(i for i, ch in enumerate(stdout) if ch in "123456789")
    flipped = stdout[:digit] + str(int(stdout[digit]) % 9 + 1) + stdout[digit + 1:]
    assert not run.check(op, ref, code, flipped)[0]
    assert not run.check(op, ref, code, stdout + "\n")[0]


def test_checker_flags_names_without_the_prefix(tmp_path):
    op, ref, code, stdout = _op("scatter", 1, tmp_path)
    assert "o1x0_f0" in stdout
    assert not run.check(op, ref, code, stdout.replace("o1x0_", ""))[0]


def test_spans_are_scaled_by_the_loops_around_them():
    # refs[i] was timed before span i, refs[i + 1] after it; each span
    # takes the median of up to two loops on either side.
    ref = run.REF_S
    refs = [ref, ref, 2 * ref, 2 * ref, 4 * ref]
    scaled = run.at_reference_speed([1.0, 2.0, 3.0, 4.0], refs)
    assert scaled == pytest.approx([1 / 1.0, 2 / 1.5, 3 / 2.0, 4 / 2.0])
    with pytest.raises(ValueError):
        run.at_reference_speed([1.0], [ref])


def test_every_run_times_whole_passes():
    for workload, pass_s in run.PASS_S.items():
        assert run.passes(workload, 0) == 1
        assert run.passes(workload, 2 * pass_s) == 2


def test_self_time_of_a_span_tree():
    # 0 [0,10] has children 1 [1,4] and 3 [5,9]; 1 has child 2 [2,3];
    # 3 has children 4 [6,7] and 5 [7.5,8].
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.5]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5]


def test_self_time_counts_covered_time_once():
    # Overlapping children, and one reaching past its parent's end.
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 10.0 - 5.0 - 2.0


def test_tracer_rebinds_every_caller_and_links_parents(monkeypatch):
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf(x):\n    return x + 1\n\ndef tick():\n    pass\n", inner.__dict__)
    outer = types.ModuleType("fakepkg.outer")
    outer.leaf, outer.tick = inner.leaf, inner.tick
    exec("def top(x):\n    tick()\n    return leaf(x) * 2\n", outer.__dict__)
    package = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", package), ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)

    tracer = Tracer()
    tracer.install({"inner.leaf": None, "outer.top": None}, ["inner.tick"], package="fakepkg")
    assert outer.top(1) == 4
    assert len(tracer.start) == 0 and not tracer.calls
    tracer.op = 7
    assert outer.top(1) == 4
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["outer.top", "inner.leaf"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.op_id) == [7, 7]
    assert tracer.calls == {"inner.tick": 1}
    calls, busy = tracer.summary()
    assert calls == {"outer.top": 1, "inner.leaf": 1}
    assert busy["outer.top"] <= tracer.end[0] - tracer.start[0]
