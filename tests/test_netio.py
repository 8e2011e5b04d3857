"""Network JSON parsing/serialization and the CSV dataset container."""

from __future__ import annotations

import json

import pytest

from bntrim import (
    Dataset,
    ModelError,
    ParseError,
    parse_dataset,
    parse_network,
    serialize_dataset,
    serialize_network,
)

from conftest import FIXTURES


class TestParseNetwork:
    def test_round_trip_preserves_model(self, quiz_net):
        again = parse_network(serialize_network(quiz_net))
        assert again.variables == quiz_net.variables
        assert again.cpts == quiz_net.cpts

    def test_serialization_is_canonical(self, quiz_net, gbn4_net):
        for net in (quiz_net, gbn4_net):
            once = serialize_network(net)
            twice = serialize_network(parse_network(once))
            assert once == twice
            assert once.endswith(b"\n")

    def test_accepts_str_and_bytes(self):
        raw = (FIXTURES / "quiz.bn.json").read_bytes()
        assert parse_network(raw) == parse_network(raw.decode("utf-8"))

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_network(b"not json")

    def test_rejects_undecodable_and_deeply_nested_documents(self):
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0"):
            parse_network(b"\xff{}")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_network(b"[" * 100_000)

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            parse_network(b"[1, 2]")

    def test_rejects_missing_sections(self):
        with pytest.raises(ParseError):
            parse_network(b"{}")

    def test_invalid_model_message_lists_problems(self):
        doc = {
            "variables": [{"name": "C", "values": ["a", "b"]}],
            "cpds": [{"child": "C", "parents": [], "rows": [[0.5, 0.6]]}],
        }
        with pytest.raises(ParseError) as e:
            parse_network(json.dumps(doc))
        assert str(e.value).startswith("invalid network: ")
        assert "row sum" in str(e.value)

    def test_multiple_problems_joined(self):
        doc = {
            "variables": [
                {"name": "C", "values": ["a", "b"]},
                {"name": "X", "values": ["a", "b"]},
            ],
            "cpds": [
                {"child": "C", "parents": [], "rows": [[0.5, 0.6]]},
                {"child": "X", "parents": [], "rows": [[0.7, 0.4]]},
            ],
        }
        with pytest.raises(ParseError) as e:
            parse_network(json.dumps(doc))
        message = str(e.value)
        assert "; " in message
        assert "'C'" in message and "'X'" in message


class TestDataset:
    def make(self) -> Dataset:
        return Dataset(
            ("label", "A", "B"),
            (("pos", "x", "u"), ("neg", "y", "u"), ("pos", "x", "v")),
            "label",
        )

    def test_rejects_unknown_class_column(self):
        with pytest.raises(ModelError):
            Dataset(("A",), (("x",),), "label")

    def test_column_access(self):
        data = self.make()
        assert data.column_index("B") == 2
        assert data.column_values("A") == ["x", "y", "x"]
        with pytest.raises(ModelError):
            data.column_index("Z")

    def test_restrict_keeps_class_column(self):
        small = self.make().restrict(["B"])
        assert small.columns == ("label", "B")
        assert small.rows[0] == ("pos", "u")

    def test_restrict_keeps_data_order_whatever_the_names_order(self):
        data = self.make()
        assert data.restrict(["B", "A", "B"]).columns == data.columns
        assert data.restrict([]).columns == ("label",)
        assert data.restrict(["label"]).rows == (("pos",), ("neg",), ("pos",))

    def test_restrict_rejects_an_unknown_column(self):
        with pytest.raises(ModelError, match="unknown column 'Z'"):
            self.make().restrict(["A", "Z"])

    def test_restrict_rejects_a_bare_string(self):
        with pytest.raises(ModelError, match="got the string 'AB'"):
            self.make().restrict("AB")

    def test_rejects_duplicate_column_names(self):
        with pytest.raises(ModelError, match="duplicate column name 'A'"):
            Dataset(("C", "A", "A"), (("pos", "x", "y"),), "C")

    def test_take_reorders_rows(self):
        taken = self.make().take([2, 0])
        assert [r[0] for r in taken.rows] == ["pos", "pos"]
        assert taken.rows[0][1] == "x"


class TestParseDataset:
    def test_parse_and_round_trip(self):
        text = "label,A\npos,x\nneg,y\n"
        data = parse_dataset(text, "label")
        assert data.columns == ("label", "A")
        assert data.rows == (("pos", "x"), ("neg", "y"))
        assert serialize_dataset(data).decode("utf-8") == text

    def test_unknown_class_column(self):
        with pytest.raises((ModelError, ParseError)):
            parse_dataset("a,b\n1,2\n", "label")

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(ParseError, match="not UTF-8 text: byte 12"):
            parse_dataset(b"label,A\npos,\xff\n", "label")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_dataset("label,A\npos\n", "label")

    def test_missing_value_names_the_first_empty_cell(self):
        # Row 2 has two empty cells; the first one's column is named.
        with pytest.raises(ParseError) as info:
            parse_dataset("C,A,B\npos,x,u\nneg,,\n", "C")
        assert str(info.value) == "missing value in row 2, column 'A'"

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate column name 'A'"):
            parse_dataset("C,A,B,A\npos,x,u,y\n", "C")
