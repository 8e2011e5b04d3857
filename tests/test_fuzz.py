"""Malformed input never escapes the command: byte mutations of a network
document and of a CSV dataset, run through ``cli.main``, end with one of
the documented exit codes (0 ok, 1 usage, 2 data, 3 enumeration guard)
and no exception."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bntrim import cli

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
