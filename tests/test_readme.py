"""README's examples, run as written: every ``$ bntrim ...`` block
through ``cli.main`` with its stdout compared byte for byte, and the
library example's printed values that README gives as Python literals."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex

import pytest

from bntrim import cli

from conftest import FIXTURES

ROOT = FIXTURES.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list[str]:
    """The bodies of README's code blocks in one language."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def shell_examples() -> list:
    """(argv, expected stdout) of every block that opens with ``$ bntrim``;
    a trailing backslash continues the command onto the next line."""
    out = []
    for body in fenced("sh"):
        lines = body.splitlines()
        if not lines[0].startswith("$ bntrim "):
            continue
        command = lines.pop(0)[2:]
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        argv = shlex.split(command)[1:]
        out.append(pytest.param(argv, "".join(f"{line}\n" for line in lines), id=argv[0]))
    return out


def test_readme_has_the_three_command_examples():
    assert [p.id for p in shell_examples()] == ["trim", "maa", "ig"]


@pytest.mark.parametrize("argv, expected", shell_examples())
def test_command_example_prints_what_readme_shows(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_library_example_prints_its_literal_comments(monkeypatch):
    (source,) = fenced("python")
    monkeypatch.chdir(ROOT)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(source, "README.md", "exec"), {})
    printed = stdout.getvalue().splitlines()
    calls = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    checked = 0
    for call, line in zip(calls, printed):
        comment = call.partition("#")[2].strip()
        try:
            ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # prose, not a value
        assert line == comment
        checked += 1
    assert checked == 2
