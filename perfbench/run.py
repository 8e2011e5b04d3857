"""Benchmark of the ``bntrim`` command on seeded models and datasets.

    python3 perfbench/run.py --workload trim --seed 1 --seconds 25 --trace 0

A closed loop with one client: one process, one thread, and each
operation (op) is one ``bntrim.cli.main(argv)`` call with stdout and
stderr captured, issued only after the previous one returned.

Each workload has a fixed pool of seeded models or datasets
(``generate.py``) with references recorded from the program
(``perfbench/refs``, written by ``record_refs.py``).  A run times whole
passes through the pool, each in an order drawn from ``--seed`` that
cycles through the pool's strata: ``--seconds`` divided by the time of a
pass on a 2-core Xeon (PASS_S), rounded and at least one.  So every run
of a workload attempts the same ops whatever the seed or the host speed,
and an entry that fails fails the same share of them.  Each op writes its
entry under fresh feature names, so no two ops hand the program an equal
network and nothing carries over in its caches.  That holds only while
the program keys its caches on networks with their variable names: a
cache keyed on a name-blind fingerprint would hit on every repeated pool
entry (the info line gives their share as ``repeat_share``) and on the
second op of each pair in the traced run.  Every op's output is checked;
a wrong output counts as a failed op.

* ``trim``      ``bntrim trim`` on naive Bayes and general DAG models;
                the score must be within 1e-12 of the exhaustive optimum
                and the subset's ``fsum`` cost within the budget.
* ``maa-wide``  ``bntrim maa --keep`` with 9-12 of 12 features kept.
* ``scalar``    ``bntrim sdp`` and ``bntrim ig``, alternating.
* ``scatter``   ``bntrim scatter`` on sampled naive Bayes datasets.

For the last three, stdout must equal the recorded stdout byte for byte.

The host is shared: how fast it runs the same Python code drifts by a
third within a minute.  So every time below is taken at reference speed.
Between ops the run times a fixed loop that calls nothing in bntrim
(``reference_s``), and a span of seconds measured by the run counts as
its wall seconds times REF_S, the loop's typical wall seconds on a 2-core
Xeon, over the median of the loops timed around it.  Raw wall figures go
to the info line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
Latencies are taken per pool entry, as the median of the entry's ops, so
every run weighs the pool alike:

* ``op_s.p50``, ``op_s.p90``  seconds per op, over the pool entries;
* ``ops_per_s``    ops with right outputs / seconds of the timed loop,
                   which also checks every output (writing inputs and
                   the reference loops excluded);
* ``ok_ratio``     ops with a right output / ops attempted (one minus the
                   failure ratio, which could read 0);
* ``setup_s``      median over SETUP_REPEATS fresh processes of the
                   seconds from process start to where the first op
                   would start: interpreter start, importing numpy and
                   bntrim, loading the references, generating the pool,
                   writing one pass of inputs and parsing each back;
* ``peak_rss_mb``  peak resident memory of the process.  The largest
                   model has 13 binary variables, so the grid and joint
                   caches hold well under 1 MB and this mostly reads the
                   interpreter and numpy.

With ``--trace 1`` it reports per-layer metrics from spans around each
module's public functions (``spans.py``), per traced op, in wall seconds.
The traced run takes one pass and times each input twice, once traced
and once not, in alternating order, and reports the difference as the
tracing overhead.
The line before the last one records the machine, the op count, the
number of pool entries behind the latencies, the share of ops that
repeat an entry, the failing pool entries and the raw wall figures.
``correct`` is false when an op fails on a pool entry that the references
do not list as a known failure.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("trim", "maa-wide", "scalar", "scatter")
SETUP_REPEATS = 3
# Wall seconds of one pass through each workload's pool, as measured on a
# 2-core Xeon; they turn ``--seconds`` into a whole number of passes.
PASS_S = {"trim": 24.0, "maa-wide": 21.0, "scalar": 14.0, "scatter": 13.0}
# The reference loop's rounds and its typical wall seconds on a 2-core Xeon.
REF_ROUNDS = 50
REF_S = 0.0115
TRIM_TOL = 1e-12
SCATTER_ARGS = ("--folds", "5", "--budget", "2")
# Feature names in program output, before and after an op's prefix.
BARE_NAME = re.compile(r"(?<![A-Za-z0-9_])f\d\d(?![A-Za-z0-9_])")

sys.path.insert(0, str(SRC))


def _fresh_import():
    """Import bntrim, its command and the generators from scratch."""
    for name in [n for n in sys.modules if n == "bntrim" or n.startswith("bntrim.")]:
        del sys.modules[name]
    sys.modules.pop("generate", None)
    bntrim = importlib.import_module("bntrim")
    if Path(bntrim.__file__).resolve().parent != SRC / "bntrim":
        raise ImportError(f"bntrim imported from {bntrim.__file__}, not from {SRC}")
    importlib.import_module("bntrim.cli")
    return bntrim, importlib.import_module("generate")


def input_bytes(bntrim, case) -> bytes:
    if case.data is not None:
        return bntrim.serialize_dataset(case.data)
    return bntrim.serialize_network(case.net)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def argv_for(case, path: str) -> list[str]:
    """The ``bntrim`` arguments for one case whose input is at ``path``."""
    if case.kind == "scatter":
        return [
            "scatter", "--data", path, "--class", "C", "--positive", "pos",
            *SCATTER_ARGS, "--seed", "0",
        ]
    argv = [
        case.kind, "--network", path, "--class", "C", "--positive", "pos",
        "--threshold", repr(case.threshold),
    ]
    if case.kind in ("trim", "ig"):
        argv += [
            "--costs", ",".join(f"{f}={c!r}" for f, c in case.costs),
            "--budget", repr(case.budget),
        ]
    elif case.kind == "maa":
        argv += ["--keep", ",".join(case.keep)]
    elif case.kind == "sdp":
        argv += [
            "--query", ",".join(case.query),
            "--observe", ",".join(f"{f}={v}" for f, v in case.observe),
        ]
    return argv


def canonical(stdout: str, prefix: str) -> str | None:
    """stdout with the op's feature prefix removed, or None when it names
    a feature without the prefix."""
    if BARE_NAME.search(stdout):
        return None
    return stdout.replace(prefix, "")


@dataclass(frozen=True)
class Op:
    """One op's input: a renamed pool entry written to ``path``."""

    index: int
    case: object
    prefix: str
    path: Path


def check(op: Op, ref, code: int | None, stdout: str) -> tuple[bool, dict | None]:
    """Whether an op's output is right, plus the parsed ``trim`` output."""
    if code != 0:
        return False, None
    case = op.case
    if case.kind != "trim":
        text = canonical(stdout, op.prefix)
        return text is not None and digest(text.encode())[:32] == ref, None
    try:
        doc = json.loads(stdout)
        costs = dict(case.costs)
        spent = math.fsum(costs[f] for f in doc["best_features"])
        score = float(doc["score"])
    except (ValueError, KeyError, TypeError):
        return False, None
    return abs(score - ref) <= TRIM_TOL and spent <= case.budget, doc


def call(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One timed op: exit code (None when it raised), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
        t1 = time.perf_counter()
    return code, out.getvalue(), t1 - t0


@dataclass(frozen=True)
class Refs:
    """Per pool entry: a digest of its canonical input and the expected
    result (the exhaustive score for ``trim``, else a stdout digest)."""

    hashes: list[str]
    expected: list
    known_failures: frozenset[int]


def load_refs(workload: str) -> Refs:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return Refs(
        [e[0] for e in doc["entries"]],
        [e[1] for e in doc["entries"]],
        frozenset(doc["known_failures"]),
    )


class Inputs:
    """The run's op inputs: pool entries in a seeded order, each written
    under fresh feature names to its own file."""

    def __init__(self, bntrim, generate, workload: str, seed: int, refs: Refs, directory: Path):
        self.bntrim, self.generate = bntrim, generate
        self.make = generate.CASES[workload]
        self.refs = refs
        if len(refs.hashes) != generate.POOL[workload]:
            raise RuntimeError(f"references of {workload} do not cover its pool")
        self.order = generate.pool_order(workload, seed)
        self.directory = directory
        self.cases: dict[int, object] = {}
        self.count = 0

    def case(self, index: int):
        """Pool entry ``index``, generated once and checked against the
        references."""
        case = self.cases.get(index)
        if case is None:
            case = self.make(index)
            if digest(input_bytes(self.bntrim, case))[:16] != self.refs.hashes[index]:
                raise RuntimeError(
                    f"pool entry {index} differs from the one the references were recorded on"
                )
            self.cases[index] = case
        return case

    def next(self, copies: int) -> list[Op]:
        """The next pool entry, as ``copies`` ops under distinct names."""
        k = self.count
        self.count += 1
        index = self.order[k % len(self.order)]
        case = self.case(index)
        ops = []
        for c in range(copies):
            prefix = f"o{k}x{c}_"
            renamed = self.generate.rename(case, prefix)
            path = self.directory / f"{prefix}.in"
            path.write_bytes(input_bytes(self.bntrim, renamed))
            ops.append(Op(index, renamed, prefix, path))
        return ops


def read_back(bntrim, op: Op) -> None:
    """Check that the op's input file parses back to its model."""
    data = op.path.read_bytes()
    if op.case.data is not None:
        same = bntrim.parse_dataset(data, op.case.data.class_column) == op.case.data
    else:
        same = bntrim.parse_network(data) == op.case.net
    if not same:
        raise RuntimeError(f"input of pool entry {op.index} does not parse back to it")


def set_up(workload: str, seed: int, directory: Path, copies: int):
    """Import bntrim, load the references, and write the inputs of one
    pass through the pool, reading each back."""
    bntrim, generate = _fresh_import()
    refs = load_refs(workload)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    inputs = Inputs(bntrim, generate, workload, seed, refs, directory)
    ready = [inputs.next(copies) for _ in inputs.order]
    for ops in ready:
        for op in ops:
            read_back(bntrim, op)
    return inputs, ready


_REF_KEYS = [(f"k{i % 97}", i % 13) for i in range(600)]


def reference_s() -> float:
    """Wall seconds of a fixed loop of the kinds of work the program does
    (integer arithmetic, dicts keyed by tuples, ``fsum`` over lists, small
    numpy arrays), a gauge of how fast the host runs Python at the moment.
    It calls nothing in bntrim, so a faster program does not move it."""
    import numpy

    grid = numpy.linspace(0.0, 1.0, 256).reshape(16, 16)
    t0 = time.perf_counter()
    total, sums = 0, {}
    for r in range(REF_ROUNDS):
        for i in range(1700):
            total += i * i % 7
        for key in _REF_KEYS:
            sums[key] = sums.get(key, 0.0) + 0.5
        for i in range(16):
            row = numpy.transpose(grid * (r + 1))[i].tolist()
            sums[("row", i)] = math.fsum(row) / (1.0 + sum(row))
        sums[("all", r)] = math.fsum(sorted(sums.values()))
    return time.perf_counter() - t0


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Span i's wall seconds scaled to the reference speed.  ``refs`` has
    one more entry than ``seconds``: refs[i] was timed just before span i
    and refs[i + 1] just after it.  Each span uses the median of the two
    loops on either side of it."""
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference time before each span and one after the last")
    return [
        s * REF_S / statistics.median(refs[max(0, i - 1):i + 3])
        for i, s in enumerate(seconds)
    ]


def passes(workload: str, seconds: float) -> int:
    """Whole passes through the pool that fill about ``seconds``."""
    return max(1, round(seconds / PASS_S[workload]))


def fresh_setups(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from the start of a fresh process to where its first op
    would start, for ``repeats`` processes run one after another, with
    reference loops timed around each; returns wall seconds and reference
    loop seconds."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--setup-only",
    ]
    times, refs = [], [reference_s()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                t1 = time.perf_counter()
                child.stdout.read()
                code = child.wait(timeout=60)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if code != 0 or line != "ready\n":
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(t1 - t0)
        refs.append(reference_s())
    return times, refs


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


SPANS = {
    "cli.main": None,
    "netio.parse_network": None,
    "netio.parse_dataset": None,
    "trimsearch.eca_trim": None,
    "agreement.mpa": None,
    "agreement.eca": None,
    "agreement.build_instance_table": lambda args, table: len(table.rows),
    "agreement.compute_maa": lambda args, result: len(args[0].rows),
    "inference.marginal": None,
    "inference.classify": None,
    "baselines.info_gain": None,
    "evalharness.scatter": None,
    "evalharness.learn_nb": None,
    "evalharness.cv_accuracy": None,
}
ROWS = ("agreement.build_instance_table", "agreement.compute_maa")
COUNTED = ("bnmodel.check_classifier", "bnmodel.check_network")
SEARCH_STATS = ("maa_evals", "bound_evals", "nodes_expanded", "pruned")
CACHES = {"grid": "_classifier_grid", "joint": "_full_joint"}


def _cache_counts() -> dict[str, tuple[int, int]] | None:
    """(hits, misses) of the agreement module's caches, None once they
    are no longer ``lru_cache`` functions."""
    agreement = sys.modules["bntrim.agreement"]
    out = {}
    for key, name in CACHES.items():
        info = getattr(getattr(agreement, name, None), "cache_info", None)
        if info is None:
            return None
        i = info()
        out[key] = (i.hits, i.misses)
    return out


class Tally:
    """Op counts of one run."""

    def __init__(self, known_failures: frozenset[int]) -> None:
        self.known_failures = known_failures
        self.attempted = 0
        self.failed = 0
        self.failed_entries: set[int] = set()

    def record(self, op: Op, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_entries.add(op.index)

    @property
    def unexpected(self) -> set[int]:
        """Failed pool entries not recorded as failing with the references."""
        return self.failed_entries - self.known_failures


def _run_op(cli, refs: Refs, op: Op, tally: Tally) -> tuple[float, dict | None]:
    code, stdout, seconds = call(cli, argv_for(op.case, str(op.path)))
    op.path.unlink()
    ok, doc = check(op, refs.expected[op.index], code, stdout)
    tally.record(op, ok)
    return seconds, doc


def _entries(inputs: Inputs, ready: list, copies: int, count: int):
    """Set-up's inputs, then fresh ones, ``count`` pool entries in all."""
    for k in range(count):
        yield ready[k] if k < len(ready) else inputs.next(copies)


def run_plain(inputs: Inputs, ready: list, count: int, tally: Tally) -> tuple[dict, dict]:
    """Op latency is taken per pool entry, as the median over the entry's
    ops, so runs that repeat different entries weigh the pool alike.
    Also returns the raw wall figures for the info line."""
    cli = sys.modules["bntrim.cli"]
    index, op_s, loop_s, refs = [], [], [], [reference_s()]
    for (op,) in _entries(inputs, ready, 1, count):
        t0 = time.perf_counter()
        op_s.append(_run_op(cli, inputs.refs, op, tally)[0])
        loop_s.append(time.perf_counter() - t0)
        index.append(op.index)
        refs.append(reference_s())

    def per_entry(seconds: list[float]) -> list[float]:
        by_entry: dict[int, list[float]] = {}
        for i, s in zip(index, seconds):
            by_entry.setdefault(i, []).append(s)
        return [statistics.median(v) for v in by_entry.values()]

    entry_s = per_entry(at_reference_speed(op_s, refs))
    done = tally.attempted - tally.failed
    wall_s = per_entry(op_s)
    return {
        "op_s.p50": (statistics.median(entry_s), "s"),
        "op_s.p90": (_quantile(entry_s, 90), "s"),
        "ops_per_s": (done / math.fsum(at_reference_speed(loop_s, refs)), "1/s"),
        "ok_ratio": (done / tally.attempted, "ratio"),
    }, {
        "latency_samples": len(entry_s),
        "wall_op_s.p50": statistics.median(wall_s),
        "wall_op_s.p90": _quantile(wall_s, 90),
        "wall_ops_per_s": done / math.fsum(loop_s),
        "reference_s.p50": statistics.median(refs),
    }


def run_traced(inputs: Inputs, ready: list, count: int, tally: Tally) -> tuple[dict, Tracer]:
    """Each pool entry runs as two ops, one traced and one not, in
    alternating order; spans and counters cover the traced ops only."""
    tracer = Tracer()
    tracer.install(SPANS, COUNTED)
    cli = sys.modules["bntrim.cli"]
    plain_s: list[float] = []
    traced_s: list[float] = []
    stats = dict.fromkeys(SEARCH_STATS, 0)
    caches = {key: [0, 0] for key in CACHES}
    have_caches = _cache_counts() is not None
    for k, (first, second) in enumerate(_entries(inputs, ready, 2, count)):
        plain = first if k % 2 == 0 else second
        for op in (first, second):
            if op is plain:
                plain_s.append(_run_op(cli, inputs.refs, op, tally)[0])
                continue
            before = _cache_counts()
            tracer.op = k
            try:
                dt, doc = _run_op(cli, inputs.refs, op, tally)
            finally:
                tracer.op = None
            traced_s.append(dt)
            if have_caches:
                after = _cache_counts()
                for key in CACHES:
                    for m in range(2):
                        caches[key][m] += after[key][m] - before[key][m]
            if doc is not None:
                for s in SEARCH_STATS:
                    stats[s] += doc["stats"][s]

    ops = len(traced_s)
    calls, busy = tracer.summary()
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op")
        metrics[f"{name}.self_s"] = (busy[name] / ops, "s/op")
    for name in ROWS:
        metrics[f"{name}.rows"] = (tracer.rows[name] / ops, "count/op")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "count/op")
    hits, misses = caches["grid"]
    metrics["agreement.cache.present"] = (int(have_caches), "bool")
    metrics["agreement.grid.hits"] = (hits / ops, "count/op")
    metrics["agreement.grid.misses"] = (misses / ops, "count/op")
    metrics["agreement.grid.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["agreement.joint.misses"] = (caches["joint"][1] / ops, "count/op")
    for s in SEARCH_STATS:
        metrics[f"trimsearch.{s}"] = (stats[s] / ops, "count/op")
    bound = stats["bound_evals"]
    metrics["trimsearch.prune_ratio"] = (stats["pruned"] / bound if bound else 0.0, "ratio")
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.op_s"] = (statistics.median(traced_s), "s")
    metrics["trace.untraced_op_s"] = (statistics.median(plain_s), "s")
    metrics["trace.overhead_ratio"] = (math.fsum(traced_s) / math.fsum(plain_s) - 1.0, "ratio")
    return metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print 'ready' and exit (used to time set-up in fresh processes)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "bntrim" / "__init__.py").is_file():
        print(f"error: no bntrim sources under {SRC}", file=sys.stderr)
        return 2
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    copies = 2 if args.trace else 1
    info = {}
    try:
        inputs, ready = set_up(args.workload, args.seed, directory, copies)
        info["own_setup_s"] = time.perf_counter() - T_PROCESS
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setups, setup_refs = ([], []) if args.trace else fresh_setups(
            args.workload, args.seed, SETUP_REPEATS
        )
        tally = Tally(inputs.refs.known_failures)
        count = len(inputs.order) * (1 if args.trace else passes(args.workload, args.seconds))
        gc.collect()
        if args.trace:
            metrics, tracer = run_traced(inputs, ready, count, tally)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics, raw = run_plain(inputs, ready, count, tally)
            setup_s = at_reference_speed(setups, setup_refs)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
            info.update(raw)
            info["repeat_share"] = 1.0 - raw["latency_samples"] / tally.attempted
            info["setup_runs_s"] = setups
            info["setup_runs_at_reference_s"] = setup_s
    except (ImportError, OSError, RuntimeError, KeyError, ValueError, subprocess.SubprocessError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": tally.attempted,
        "failed_pool_entries": sorted(tally.failed_entries),
        "unexpected_failures": sorted(tally.unexpected),
        **info,
        "machine": machine(),
    }))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
