"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_refs.py --workload trim

For each of the workload's ``generate.POOL`` entries this stores a
digest of its canonical input and the expected result: for ``trim`` the
optimum from ``exhaustive_trim``, for the other workloads a digest of
the program's stdout.  Entries where ``bntrim trim`` misses the optimum
or the budget are listed under ``known_failures``; the benchmark still
counts them as failed ops.  Run it only when the generators change, on
a commit whose outputs are trusted, since later outputs are judged
against these.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def record(workload: str) -> dict:
    bntrim, generate = run._fresh_import()
    cli = sys.modules["bntrim.cli"]
    directory = run.WORK / f"refs-{workload}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    entries, failures = [], []
    try:
        for index in range(generate.POOL[workload]):
            case = generate.CASES[workload](index)
            op = run.Op(index, generate.rename(case, "r_"), "r_", directory / "r.in")
            op.path.write_bytes(run.input_bytes(bntrim, op.case))
            code, stdout, _ = run.call(cli, run.argv_for(op.case, str(op.path)))
            if workload == "trim":
                features = tuple(f for f, _ in case.costs)
                expected = bntrim.exhaustive_trim(
                    case.net,
                    bntrim.Classifier("C", 1, features, case.threshold),
                    bntrim.CostModel(dict(case.costs), case.budget),
                ).best_score
                if not run.check(op, expected, code, stdout)[0]:
                    failures.append(index)
            else:
                text = run.canonical(stdout, op.prefix) if code == 0 else None
                if text is None:
                    raise RuntimeError(f"{workload} entry {index} failed: exit {code}")
                expected = run.digest(text.encode())[:32]
            entries.append([run.digest(run.input_bytes(bntrim, case))[:16], expected])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"workload": workload, "known_failures": failures, "entries": entries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    args = parser.parse_args()
    doc = record(args.workload)
    run.REFS.mkdir(exist_ok=True)
    with open(run.REFS / f"{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{args.workload}: {len(doc['entries'])} entries, known failures {doc['known_failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
