"""Timings of bntrim's layers, written to BENCH_<label>.json.

    python3 tools/bench_layers.py --label after
    python3 tools/bench_layers.py --compare before after

Each case times seeded calls into the library of this checkout (``src/``)
on models from perfbench's generators or the test suite's, and records
the wall seconds of five runs and their median, together with the
machine.  The cases on perfbench's and the suite's smaller models
(``sdp`` and ``info_gain`` read the grid route, the others the scalar
route or the data harness):

* ``marginal``     every one-variable marginal of three binary
                   11-variable DAGs;
* ``sdp``          four-feature queries given one observed feature, on
                   three 10-variable DAGs; each repeat starts with the
                   grid caches cleared, so it times the three classifier
                   grids, as ``bntrim sdp`` pays for its one;
* ``sdp oracle``   the same queries through ``inference.sdp``, the
                   scalar route that checks ``sdp``;
* ``info_gain``    mutual information of every feature, on three DAGs of
                   the class and 8 features; each repeat starts with the
                   grid caches cleared, so it times the three classifier
                   grids ``info_gain`` builds, as ``bntrim ig`` pays for
                   its one;
* ``esdp+eca_bruteforce``  ``esdp_two_threshold`` and ``eca_bruteforce``
                   on the first ten instances of the acceptance suite's
                   criterion 5, ten subsets each, at the subset's
                   best-agreement threshold (computed before the timing
                   starts).  ``eca_bruteforce`` is one call to
                   ``esdp_two_threshold`` behind its guard, so the case
                   times one computation twice; its name is kept so
                   ``--compare`` still pairs it with older BENCH files;
* ``cv_accuracy``  5-fold accuracy of naive Bayes over all features and
                   over three, at three seeds, on 300 rows sampled from
                   an 8-feature model;
* ``scatter``      ``evalharness.scatter`` with 5 folds and budget 2 on
                   the first ten datasets of perfbench's ``scatter``
                   pool (200 rows, 5 features of cardinality 2-3).

The grid-route cases run on ``conftest.nb_instance`` models, seed 1,
binary features, with the model's grid built before the timing starts:

* ``maa n=N``, ``compute_maa n=N``  best agreement keeping all N = 12,
                   14, 16 features: ``maa`` from the network, and
                   ``compute_maa`` on the instance table built beforehand;
* ``maa n=12 keep 11``  ``maa`` keeping the first 11 of 12 features, so
                   each table row sums two grid cells per kind and meets
                   the row certification, as perfbench's ``maa-wide``
                   kept-11 ops do; the one-cell rows of the ``maa n=N``
                   cases are added directly and never certified;
* ``compute_maa plateau``  ``compute_maa`` on a 4 096-row table, each
                   row its own posterior group and every rate 1/2, so
                   every cut ties exactly and the sweep takes its exact
                   fallback over every cut: its worst case;
* ``mpa n=16``     the bound keeping all 16 features;
* ``info_gain nb n=16``  mutual information of all 16 features, each
                   repeat from cleared grid caches like ``info_gain``, so
                   the grid is built inside the timing;
* ``eca_trim nb n=16``, ``eca_trim nb-off n=16``  the search at unit
                   costs and budget 8: ``eca_trim``, which takes the
                   frontier search on naive Bayes since its features are
                   independent given the class, and the generic search,
                   reached through ``trimsearch._run(...,
                   nb_frontier_only=False)``.

``eca_trim trim pool`` runs ``eca_trim`` on every entry of perfbench's
``trim`` pool (108 naive Bayes and general DAG models of 9-11 binary
features, unit or one-decimal costs, half the total as budget), with the
classifier ``bntrim trim`` builds.  Each entry's grid is built before its
search, and the case's seconds are the 108 searches' sum, which its run
returns (it is marked ``times_itself``).

The tier-1 test suite then runs once; its wall seconds and the duration
of criterion 5 are recorded as one run each.

One run of ``--label L`` is a session.  When BENCH_L.json already
exists, the session joins it: each case's runs and each suite time's run
are added to the runs already there, every median is retaken over all of
them, and the session's start time and test counts are appended to the
file's ``sessions``.  A session on a machine other than the file's is
refused: the tool prints one line and exits 2, leaving the file as it
was.  The shared host drifts by more than 10 % within minutes, so record
a pair as alternating sessions of the two trees, each in its own
checkout, under two labels, then copy both files into one checkout:

    (parent checkout)  python3 tools/bench_layers.py --label x-parent
    (change checkout)  python3 tools/bench_layers.py --label x
    ... three times or more, in turn

Each file then carries the drift of the whole recording.

``--compare A B`` reads BENCH_A.json and BENCH_B.json, prints how many
sessions each pools, then B's median over A's per case and suite time,
in raw seconds, and exits 1 when one of A's is missing from B or one of
B's is SLOWER: its median more than 10 % above A's and every one of its
runs slower than every one of A's, with at least two runs on each side.
The mirror of that rule prints FASTER, which never fails the
comparison: B's median below A's over 1.10 and every one of its runs
faster than every one of A's, with at least two runs on each side, so
drift in either direction shows.  A median more than 10 % off A's either
way is otherwise printed as ``unresolved``: when the runs overlap, the
host's drift between runs is that large, and a timing of one run (each
suite time of a one-session file) cannot show whether they would.  Files written before sessions
were pooled hold one session, with single suite seconds; the
per-case ``reference_s`` some of them record is ignored.  A label with
no file (for ``--compare``), or a file that is not a BENCH document,
makes the tool print one line naming the file and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from bntrim import (  # noqa: E402
    Classifier,
    CostModel,
    EvalConfig,
    InstanceTable,
    agreement,
    build_instance_table,
    compute_maa,
    cv_accuracy,
    eca_trim,
    eca_bruteforce,
    esdp_two_threshold,
    inference,
    info_gain,
    maa,
    marginal,
    mpa,
    scatter,
    sdp,
    synthesize_dataset,
    trimsearch,
)
from conftest import acceptance_instances, nb_instance, nested_subsets  # noqa: E402
from generate import (  # noqa: E402
    CLASS,
    CLASS_VALUES,
    POOL,
    feature_names,
    general_dag,
    naive_bayes,
    scatter_case,
    trim_case,
)
from run import machine  # noqa: E402

REPEATS = 5
SLOWER = 1.10


def dag_model(seed: int, n: int):
    """perfbench's general DAG over the class and n features of
    cardinality 2 or 3, with a classifier over every feature."""
    net = general_dag(random.Random(seed), n, 3)
    return net, Classifier(CLASS, 1, tuple(feature_names(n)), 0.5)


def case_marginal():
    nets = [general_dag(random.Random(seed), 10, 2) for seed in (1, 2, 3)]

    def run():
        for net in nets:
            for v in net.variables:
                for x in range(v.cardinality):
                    marginal(net, {v.name: x})
    return run


def clear_grids() -> None:
    """Empty the joint and classifier-grid caches."""
    agreement._full_joint.cache_clear()
    agreement._classifier_grid.cache_clear()


def case_sdp(route):
    """Three queries per model through ``route``, ``sdp`` or its oracle."""
    def make():
        calls = []
        for net, clf in (dag_model(seed, 9) for seed in (4, 5, 6)):
            for k in range(3):
                picked = clf.features[k:k + 5]
                calls.append((net, clf, picked[:4], {picked[4]: 0}))

        def run():
            clear_grids()
            for call in calls:
                route(*call)
        return run
    return make


def case_info_gain():
    models = [dag_model(seed, 8) for seed in (7, 8, 9)]

    def run():
        clear_grids()
        for net, clf in models:
            info_gain(net, clf)
    return run


def case_oracles():
    calls = []
    for i, (net, clf, _) in enumerate(acceptance_instances(10)):
        for subset, _ in nested_subsets(clf, i):
            threshold = maa(net, clf, subset).interval.representative
            beta = replace(clf, features=subset, threshold=threshold)
            dropped = tuple(f for f in clf.features if f not in subset)
            calls.append((net, clf, beta, dropped))

    def run():
        for net, clf, beta, dropped in calls:
            esdp_two_threshold(net, clf, beta.threshold, dropped, beta.features)
            eca_bruteforce(net, clf, beta)
    return run


def case_cv_accuracy():
    names = feature_names(8)
    data = synthesize_dataset(naive_bayes(random.Random(10), 8, 3), CLASS, 300, seed=3)
    subsets = (tuple(names), tuple(names[1:7:2]))

    def run():
        for seed in range(3):
            for subset in subsets:
                cv_accuracy(data, subset, 5, seed=seed)
    return run


def case_scatter():
    datasets = [scatter_case(i).data for i in range(10)]
    config = EvalConfig(folds=5, budget=2.0)

    def run():
        for data in datasets:
            scatter(data, config, positive_label=CLASS_VALUES[1])
    return run


def nb_model(n: int):
    """conftest's naive Bayes model with n binary features, seed 1, with
    its grid built."""
    net, clf = nb_instance(random.Random(1), n, max_card=2)
    mpa(net, clf, ())
    return net, clf


def case_maa(n: int, keep: int | None = None):
    """``maa`` keeping the first ``keep`` features, or all of them."""
    def make():
        net, clf = nb_model(n)
        kept = clf.features[:keep]
        return lambda: maa(net, clf, kept)
    return make


def case_compute_maa(n: int):
    def make():
        net, clf = nb_model(n)
        table = build_instance_table(net, clf, clf.features)
        return lambda: compute_maa(table)
    return make


def case_compute_maa_plateau():
    rng = random.Random(1)
    masses = [rng.random() for _ in range(4096)]
    total = sum(masses)
    table = InstanceTable(
        ("X",), np.arange(4096), np.array([m / total for m in masses]),
        np.array([i / 4096 for i in range(4096)]), np.full(4096, 0.5),
    )
    return lambda: compute_maa(table)


def case_mpa():
    net, clf = nb_model(16)
    return lambda: mpa(net, clf, clf.features)


def case_info_gain_nb():
    net, clf = nb_model(16)

    def run():
        clear_grids()
        info_gain(net, clf)
    return run


def case_eca_trim(frontier: bool):
    def make():
        net, clf = nb_model(16)
        costs = CostModel.unit(clf.features, 8.0)
        if frontier:
            return lambda: eca_trim(net, clf, costs)
        return lambda: trimsearch._run(net, clf, costs, None, nb_frontier_only=False)
    return make


def case_eca_trim_pool():
    """Every ``trim`` pool entry as ``bntrim trim`` searches it: the
    classifier over every feature, the entry's costs and budget.  Each
    entry's grid is built before its search is timed, so the case's
    seconds are the searches' alone."""
    entries = []
    for i in range(POOL["trim"]):
        case = trim_case(i)
        features = tuple(v.name for v in case.net.variables if v.name != CLASS)
        positive = case.net.var(CLASS).values.index(CLASS_VALUES[1])
        clf = Classifier(CLASS, positive, features, case.threshold)
        entries.append((case.net, clf, CostModel(dict(case.costs), case.budget)))

    def run() -> float:
        spent = 0.0
        for net, clf, costs in entries:
            mpa(net, clf, ())
            t0 = time.perf_counter()
            eca_trim(net, clf, costs)
            spent += time.perf_counter() - t0
        return spent
    run.times_itself = True
    return run


CASES = {
    "marginal": case_marginal,
    "sdp": case_sdp(sdp),
    "sdp oracle": case_sdp(inference.sdp),
    "info_gain": case_info_gain,
    "esdp+eca_bruteforce": case_oracles,
    "cv_accuracy": case_cv_accuracy,
    "scatter": case_scatter,
    **{f"maa n={n}": case_maa(n) for n in (12, 14, 16)},
    "maa n=12 keep 11": case_maa(12, 11),
    **{f"compute_maa n={n}": case_compute_maa(n) for n in (12, 14, 16)},
    "compute_maa plateau": case_compute_maa_plateau,
    "mpa n=16": case_mpa,
    "info_gain nb n=16": case_info_gain_nb,
    "eca_trim nb n=16": case_eca_trim(True),
    "eca_trim nb-off n=16": case_eca_trim(False),
    "eca_trim trim pool": case_eca_trim_pool,
}


def time_cases() -> dict[str, list[float]]:
    """Each case's runs, in seconds."""
    out = {}
    for name, make in CASES.items():
        run = make()
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            spent = run()
            runs.append(spent if getattr(run, "times_itself", False) else time.perf_counter() - t0)
        out[name] = runs
        print(f"{name:22s} {statistics.median(runs):.4f} s", flush=True)
    return out


def time_suite() -> dict:
    """One tier-1 run: its wall seconds, and criterion 5's from --durations."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=1", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    crit5 = re.search(r"([\d.]+)s call\s+\S*test_criterion_5_agreement_identities", proc.stdout)
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    return {
        "tier1_s": wall,
        "criterion5_s": float(crit5.group(1)) if crit5 else None,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
    }


def bench_path(label: str) -> Path:
    return ROOT / f"BENCH_{label}.json"


SUITE_TIMES = ("tier1_s", "criterion5_s")


class BenchFileError(Exception):
    """A BENCH file that is missing or is not a BENCH document."""


def _runs(timing) -> list[float]:
    """A timing's runs: its ``runs_s``, or a one-session file's single
    suite seconds, or none for a suite time not taken."""
    if timing is None:
        return []
    runs = timing["runs_s"] if isinstance(timing, dict) else [timing]
    if not all(type(r) in (int, float) and r > 0 for r in runs):
        raise TypeError("a run is not a positive number")
    return list(runs)


def load(label: str) -> dict:
    """BENCH_<label>.json as its machine, its sessions and each timing's
    runs (cases and suite times alike, by name).  A file written before
    sessions were pooled is one session, its test counts in ``suite``."""
    path = bench_path(label)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        suite = doc["suite"]
        sessions = doc.get("sessions") or [
            {"started": None, "passed": suite.get("passed"), "failed": suite.get("failed")}
        ]
        timings = {name: _runs(case) for name, case in doc["cases"].items()}
        timings.update((k, _runs(suite.get(k))) for k in SUITE_TIMES)
        if not (isinstance(doc["machine"], dict) and isinstance(sessions, list)):
            raise TypeError("no machine, or no session list")
        if not all(timings[name] for name in doc["cases"]):
            raise ValueError("a case without runs")
    except OSError as e:
        raise BenchFileError(f"{path.name}: {e.strerror or e}") from None
    except (ValueError, LookupError, TypeError, AttributeError):
        raise BenchFileError(f"{path.name}: not a BENCH document") from None
    return {"machine": doc["machine"], "sessions": sessions, "timings": timings}


def record(label: str) -> int:
    """Time one session and add it to BENCH_<label>.json, starting the
    file when there is none."""
    here = machine()
    pooled = {"machine": here, "sessions": [], "timings": {}}
    if bench_path(label).exists():
        pooled = load(label)
        if pooled["machine"] != here:
            print(f"BENCH_{label}.json was written on another machine: {pooled['machine']}")
            return 2
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    cases, suite = time_cases(), time_suite()
    print(json.dumps(suite))
    pooled["sessions"].append({"started": started, "passed": suite["passed"], "failed": suite["failed"]})
    timings = pooled["timings"]
    for name, runs in cases.items():
        timings.setdefault(name, []).extend(runs)
    for k in SUITE_TIMES:
        timings.setdefault(k, []).extend([] if suite[k] is None else [suite[k]])

    def timed(names) -> dict:
        return {
            name: {"median_s": statistics.median(timings[name]), "runs_s": timings[name]}
            for name in names if timings.get(name)
        }

    doc = {
        "label": label,
        "machine": here,
        "repeats": REPEATS,
        "sessions": pooled["sessions"],
        "cases": timed(k for k in timings if k not in SUITE_TIMES),
        "suite": timed(SUITE_TIMES),
    }
    bench_path(label).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def compare(before: str, after: str) -> int:
    a, b = load(before), load(after)
    print(f"sessions: {len(a['sessions'])} in BENCH_{before}.json, {len(b['sessions'])} in BENCH_{after}.json")
    old, new = a["timings"], b["timings"]
    failed = []
    for name in sorted(new.keys() - old.keys()):
        print(f"{name:22s} missing from BENCH_{before}.json")
    for name, runs_old in old.items():
        runs_new = new.get(name)
        if not runs_old:
            print(f"{name:22s} missing from BENCH_{before}.json")
        elif not runs_new:
            print(f"{name:22s} missing from BENCH_{after}.json")
            failed.append(name)
        else:
            t_old, t_new = statistics.median(runs_old), statistics.median(runs_new)
            ratio = t_new / t_old
            flag = ""
            two_each = min(len(runs_old), len(runs_new)) >= 2
            if ratio > SLOWER:
                flag = "  SLOWER" if two_each and min(runs_new) > max(runs_old) else "  unresolved"
            elif ratio < 1 / SLOWER:
                flag = "  FASTER" if two_each and max(runs_new) < min(runs_old) else "  unresolved"
            print(f"{name:22s} {t_old:9.4f} -> {t_new:9.4f} s  x{ratio:.3f}{flag}")
            if flag == "  SLOWER":
                failed.append(name)
    if a["machine"] != b["machine"]:
        print("note: the two files were written on different machines")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="time a session into BENCH_<label>.json at the repository root")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if not (args.compare or args.label):
        ap.error("--label is required unless --compare is given")
    try:
        return compare(*args.compare) if args.compare else record(args.label)
    except BenchFileError as e:
        print(e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
