"""Reading and writing network documents and CSV datasets.

Networks are stored as JSON with two top-level arrays: ``variables``
(objects with ``name`` and ``values``) and ``cpds`` (objects with
``child``, ``parents`` and ``rows``).  The serializer is canonical: fixed
key order, two-space indent, LF line endings, floats in their shortest
round-trip decimal form, so parse(serialize(net)) == net.

Datasets are plain CSV with a header row.  LF and CRLF are both accepted;
the serializer emits LF.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

from .bnmodel import BayesianNetwork, Cpt, Variable, names_tuple, validate_network
from .errors import ModelError, ParseError


def _decode(text: bytes | str, encoding: str) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode(encoding)
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: byte {e.start} ({e.reason})") from None


def parse_network(text: bytes | str) -> BayesianNetwork:
    """Parse a JSON network document and validate it.

    Raises ParseError with position information for malformed JSON and
    with a violation list for structurally invalid networks: the entries
    that are no object or lack a string name or child, else every
    problem :func:`validate_network` finds.
    """
    try:
        doc = json.loads(_decode(text, "utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError(
            f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None

    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    variables = doc.get("variables")
    cpds = doc.get("cpds")
    if not isinstance(variables, list) or not variables:
        raise ParseError("no variables")
    if not isinstance(cpds, list):
        raise ParseError("missing 'cpds' array")

    # Entries with no string name or child cannot be told apart, so they
    # are reported alone; other field types are validate_network's rule.
    problems = []
    for key, entries, name in (("variables", variables, "name"), ("cpds", cpds, "child")):
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                problems.append(f"{key}[{i}] must be an object")
            elif not isinstance(entry.get(name), str):
                problems.append(f"{key}[{i}] needs a string {name!r}")
    if not problems:
        net = BayesianNetwork(
            tuple(Variable(e.get("name"), e.get("values")) for e in variables),
            tuple(Cpt(e.get("child"), e.get("parents", []), e.get("rows")) for e in cpds),
        )
        problems = validate_network(net)
    if problems:
        raise ParseError("invalid network: " + "; ".join(problems), problems=tuple(problems))
    return net


def serialize_network(net: BayesianNetwork) -> bytes:
    """Serialize a network to canonical JSON bytes."""
    doc = {
        "variables": [
            {"name": v.name, "values": list(v.values)} for v in net.variables
        ],
        "cpds": [
            {
                "child": c.child,
                "parents": list(c.parents),
                "rows": [list(row) for row in c.rows],
            }
            for c in net.cpts
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


@dataclass(frozen=True)
class Dataset:
    """A rectangular table of string cells with distinct named columns,
    one of which is designated as the class column."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    class_column: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for i, c in enumerate(self.columns):
            if c in self.columns[:i]:
                raise ModelError(f"duplicate column name {c!r}")
        if self.class_column not in self.columns:
            raise ModelError(f"unknown class column {self.class_column!r}")

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise ModelError(f"unknown column {name!r}") from None

    def column_values(self, name: str) -> list[str]:
        i = self.column_index(name)
        return [r[i] for r in self.rows]

    def restrict(self, keep: list[str]) -> "Dataset":
        """A copy with only the given columns, in data order (class column
        always kept); ModelError for an unknown name or a bare string."""
        idx = sorted({self.column_index(c) for c in (*names_tuple(keep), self.class_column)})
        rows = tuple(tuple(r[i] for i in idx) for r in self.rows)
        return Dataset(tuple(self.columns[i] for i in idx), rows, self.class_column)

    def take(self, indices: list[int]) -> "Dataset":
        return Dataset(self.columns, tuple(self.rows[i] for i in indices), self.class_column)


def parse_dataset(text: bytes | str, class_column: str) -> Dataset:
    """Parse a CSV dataset with a header row.

    Rejects empty files, fields past the csv module's size limit, unknown
    class columns, ragged rows, missing (empty) cells and repeated column
    names.  Row numbers in error messages count data rows from 1.
    """
    reader = csv.reader(_decode(text, "utf-8-sig").splitlines())
    try:
        records = list(reader)
    except csv.Error as e:  # a field longer than the csv module's limit
        raise ParseError(str(e), line=reader.line_num) from None
    if not records:
        raise ParseError("empty file")
    header = tuple(records[0])
    if any(not h for h in header):
        raise ParseError("header contains an empty column name")
    if class_column not in header:
        raise ParseError(f"unknown class column {class_column!r}")
    rows: list[tuple[str, ...]] = []
    for n, rec in enumerate(records[1:], start=1):
        if not rec:
            continue  # ignore blank lines
        if len(rec) != len(header):
            raise ParseError(f"ragged row {n}: {len(rec)} cells, expected {len(header)}")
        if "" in rec:
            raise ParseError(f"missing value in row {n}, column {header[rec.index('')]!r}")
        rows.append(tuple(rec))
    try:
        return Dataset(header, tuple(rows), class_column)
    except ModelError as e:
        raise ParseError(str(e)) from None


def serialize_dataset(data: Dataset) -> bytes:
    """Serialize a dataset to CSV bytes with LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data.columns)
    writer.writerows(data.rows)
    return buf.getvalue().encode("utf-8")
