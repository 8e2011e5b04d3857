"""Malformed input never escapes the command: byte mutations of a network
document and of a CSV dataset, and JSON-level edits of the network
fixtures, run through ``cli.main``, end with one of the documented exit
codes (0 ok, 1 usage, 2 data, 3 enumeration guard) and no exception."""

from __future__ import annotations

import contextlib
import copy
import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bntrim import (
    Classifier,
    ParseError,
    cli,
    eca,
    esdp_two_threshold,
    parse_network,
    serialize_dataset,
    synthesize_dataset,
    validate_network,
)

from conftest import FIXTURES

NETWORK = (FIXTURES / "quiz.bn.json").read_bytes()
DATASET = b"C,A,B\n" + b"".join(
    f"{'pos' if i % 2 else 'neg'},{'xy'[i % 3 % 2]},{'uvw'[i % 4 % 3]}\n".encode()
    for i in range(12)
)
NETWORK_COMMANDS = (
    ["maa", "--class", "C", "--keep", "Q1,Q3"],
    ["trim", "--class", "C", "--budget", "2"],
)
DATA_COMMANDS = (
    ["learn", "--class", "C"],
    ["scatter", "--class", "C", "--folds", "2", "--budget", "1"],
)


# Bytes that mean something to JSON, CSV or a float, drawn as often as
# arbitrary bytes, so that mutations get past the decoder and the parser.
SIGNIFICANT = b'0123456789.-+eE,;\n\r"[]{}:CQABxyuv '


@st.composite
def mutations(draw, base: bytes) -> bytes:
    """``base`` with one to four bytes replaced, inserted or deleted."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.one_of(st.sampled_from(SIGNIFICANT), st.integers(0, 255)))
        if kind == "replace":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return bytes(data)


def exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(network=mutations(NETWORK), dataset=mutations(DATASET))
def test_mutated_inputs_end_with_a_documented_exit_code(workdir, network, dataset):
    net_path, data_path = workdir / "net.json", workdir / "data.csv"
    net_path.write_bytes(network)
    data_path.write_bytes(dataset)
    calls = [["validate", str(net_path)]]
    calls += [[*argv[:1], "--network", str(net_path), *argv[1:]] for argv in NETWORK_COMMANDS]
    calls += [[*argv[:1], "--data", str(data_path), *argv[1:]] for argv in DATA_COMMANDS]
    for argv in calls:
        assert exit_code(argv) in (0, 1, 2, 3), argv


# Both fixtures name their binary class variable "C"; in gbn4 it is a
# root with a root beside it (F1), so giving it a parent can stay acyclic.
DOCUMENTS = [
    json.loads((FIXTURES / name).read_text()) for name in ("quiz.bn.json", "gbn4.bn.json")
]
SUBNORMAL = 5e-324
EDITS = (
    "repeat parent", "reorder parents", "own parent", "class parent",
    "deterministic row", "subnormal entry", "row sum off by 1e-10",
)


def _add_parent(cpd: dict, parent: str, card: int) -> None:
    """``parent`` appended as the last, fastest-varying parent: every row
    repeated once per value of it, so the row count still fits."""
    cpd["parents"].append(parent)
    cpd["rows"] = [list(row) for row in cpd["rows"] for _ in range(card)]


@st.composite
def edited_networks(draw) -> tuple[dict, list[str]]:
    """A fixture document after one to three structural or numeric edits,
    and a classifier's features: some of the non-class variables."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    cards = {v["name"]: len(v["values"]) for v in doc["variables"]}
    cpds = {c["child"]: c for c in doc["cpds"]}
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(EDITS))
        cpd = cpds[draw(st.sampled_from(sorted(cpds)))]
        row = draw(st.sampled_from(cpd["rows"]))
        if edit == "repeat parent" and cpd["parents"]:
            parent = draw(st.sampled_from(cpd["parents"]))
            _add_parent(cpd, parent, cards[parent])
        elif edit == "reorder parents":
            cpd["parents"] = draw(st.permutations(cpd["parents"]))
        elif edit == "own parent":
            _add_parent(cpd, cpd["child"], cards[cpd["child"]])
        elif edit == "class parent":
            parent = draw(st.sampled_from(sorted(set(cards) - {"C"})))
            _add_parent(cpds["C"], parent, cards[parent])
        elif edit == "deterministic row":
            hot = draw(st.integers(0, len(row) - 1))
            row[:] = [float(j == hot) for j in range(len(row))]
        elif edit == "subnormal entry":
            j = draw(st.integers(0, len(row) - 1))
            row[j] = SUBNORMAL if row[j] == 0.0 else row[j] - SUBNORMAL
        elif edit == "row sum off by 1e-10":
            row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from((1e-10, -1e-10)))
    others = [v["name"] for v in doc["variables"] if v["name"] != "C"]
    features = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    return doc, features


def network_subcommands(network: str, features: list[str], threshold: float) -> list[list[str]]:
    """Every subcommand that reads a network, with the classifier's
    features and threshold."""
    base = ["--network", network, "--class", "C", "--features", ",".join(features)]
    base += ["--threshold", str(threshold)]
    kept = ",".join(features[1:])
    return [
        ["validate", network],
        ["maa", *base, "--keep", kept],
        ["mpa", *base, "--keep", kept],
        ["eca", *base, "--trim-features", kept, "--trim-threshold", "0.3"],
        ["sdp", *base, "--query", kept, "--observe", f"{features[0]}=+"],
        ["ig", *base, "--budget", "1", "--retune"],
        ["trim", *base, "--budget", "1"],
        ["exhaustive", *base, "--budget", "1"],
    ]


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(
    edited=edited_networks(),
    thresholds=st.tuples(*[st.sampled_from((0.0, 0.3, 0.5, 1.0, 2.0))] * 2),
    kept_mask=st.integers(0, 7),
)
def test_edited_networks_run_every_subcommand(workdir, edited, thresholds, kept_mask):
    doc, features = edited
    net_path, data_path = workdir / "edited.json", workdir / "edited.csv"
    net_path.write_text(json.dumps(doc))
    calls = network_subcommands(str(net_path), features, thresholds[0])
    try:
        net = parse_network(net_path.read_bytes())
    except ParseError as e:
        assert e.problems  # every edit keeps the document well formed
    else:
        assert validate_network(net) == []
        # The data subcommands, on rows sampled from the network.
        data_path.write_bytes(serialize_dataset(synthesize_dataset(net, "C", 24, 7)))
        calls += [
            ["learn", "--data", str(data_path), "--class", "C"],
            ["scatter", "--data", str(data_path), "--class", "C", "--folds", "2", "--budget", "1"],
        ]
        # The grid route and the scalar route agree on every valid edit.
        clf = Classifier("C", 1, tuple(features), thresholds[0])
        kept = tuple(f for i, f in enumerate(features) if kept_mask >> i & 1)
        dropped = tuple(f for f in features if f not in kept)
        beta = replace(clf, features=kept, threshold=thresholds[1])
        assert abs(
            eca(net, clf, beta) - esdp_two_threshold(net, clf, thresholds[1], dropped, kept)
        ) <= 1e-12
    for argv in calls:
        assert exit_code(argv) in (0, 1, 2, 3), argv
