"""Which module holds what, read from the source with ``ast``: the grid
route and the scalar route that checks it share no code, every name the
benchmark instruments exists and its row counters count table rows, and
no import or private name is dead."""

from __future__ import annotations

import ast
import importlib
import pathlib

import bntrim
from bntrim import build_instance_table, compute_maa

from conftest import FIXTURES

SRC = pathlib.Path(bntrim.__file__).parent
RUN = FIXTURES.parent / "perfbench" / "run.py"


def tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imports(module: str) -> set[tuple[str, str | None]]:
    """(module, name bound) of every import in ``bntrim.<module>``, with
    relative imports resolved; a module-level import binds no name here."""
    out = set()
    for node in ast.walk(tree(SRC / f"{module}.py")):
        if isinstance(node, ast.Import):
            out.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "bntrim." * (node.level > 0) + (node.module or "")
            for alias in node.names:
                if node.module is None:
                    out.add((base + alias.name, None))
                else:
                    out.add((base, alias.asname or alias.name))
    return out


class TestRoutes:
    def test_grid_route_takes_only_the_cell_limit(self):
        taken = {name for mod, name in imports("agreement") if mod == "bntrim.inference"}
        assert taken == {"CELL_LIMIT"}

    def test_command_line_never_enumerates(self):
        # Every subcommand reads the grid route; the scalar route only
        # turns value labels into indices for it.
        taken = {name for mod, name in imports("cli") if mod == "bntrim.inference"}
        assert taken == {"assignment_from_labels"}

    def test_scalar_route_imports_no_grid(self):
        banned = {"agreement", "trimsearch", "baselines", "evalharness", "cli"}
        for mod, _ in imports("inference"):
            assert mod.split(".")[0] != "numpy"
            assert mod.removeprefix("bntrim.") not in banned

    def test_search_imports_no_numpy(self):
        # The search reads its bounds through agreement's bound type, so
        # the grid arithmetic behind them stays in that module.
        modules = {mod.split(".")[0] for mod, _ in imports("trimsearch")}
        assert "numpy" not in modules
        assert ("bntrim.agreement", "_MpaBound") in imports("trimsearch")

    def test_oracles_use_nothing_of_the_grid_route(self):
        grid = {
            name or mod.rpartition(".")[2]
            for mod, name in imports("baselines")
            if mod == "bntrim.agreement"
        }
        assert grid  # the information-gain report scores with it
        bodies = {
            node.name: node
            for node in tree(SRC / "baselines.py").body
            if isinstance(node, ast.FunctionDef)
        }
        for oracle in ("eca_bruteforce", "maa_bruteforce"):
            used = {n.id for n in ast.walk(bodies[oracle]) if isinstance(n, ast.Name)}
            assert used & grid == set(), oracle


def runner_values() -> dict[str, ast.expr]:
    """The value of every top-level assignment in the benchmark runner,
    read without importing it."""
    values = {}
    for node in tree(RUN).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            values[node.targets[0].id] = node.value
    return values


def benchmark_names() -> tuple[list[str], list[str], dict[str, str]]:
    """The span keys, the counted names and the caches of the benchmark
    runner."""
    values = runner_values()
    spans = [ast.literal_eval(key) for key in values["SPANS"].keys]
    return spans, ast.literal_eval(values["COUNTED"]), ast.literal_eval(values["CACHES"])


def test_benchmark_names_exist():
    spans, counted, caches = benchmark_names()
    assert spans and counted
    for dotted in spans + list(counted):
        module, _, name = dotted.partition(".")
        assert callable(getattr(importlib.import_module(f"bntrim.{module}"), name, None)), dotted
    agreement = importlib.import_module("bntrim.agreement")
    assert len(caches) == 2
    for name in caches.values():
        function = getattr(agreement, name, None)
        assert callable(getattr(function, "cache_info", None)), name
        assert callable(getattr(function, "cache_clear", None)), name


def test_row_counters_count_table_rows(gbn4_net, gbn4_alpha):
    """Each ``ROWS`` span's counter, compiled from the runner's source and
    called as its tracer calls it, on a real call's arguments and result,
    counts the instance table's rows."""
    values = runner_values()
    spans = values["SPANS"]
    counters = {ast.literal_eval(key): value for key, value in zip(spans.keys, spans.values)}
    args = (gbn4_net, gbn4_alpha, ("F1", "F2"))
    table = build_instance_table(*args)
    calls = {
        "agreement.build_instance_table": (args, table),
        "agreement.compute_maa": ((table,), compute_maa(table)),
    }
    rows = ast.literal_eval(values["ROWS"])
    assert set(rows) == set(calls)
    assert len(table.rows) == 4
    for name in rows:
        counter = eval(compile(ast.Expression(counters[name]), str(RUN), "eval"), {})
        assert counter(*calls[name]) == len(table.rows), name


def test_no_unused_imports_or_private_names():
    """Every name a module imports is used in it, and every private
    top-level name is referenced somewhere in the package, so a deletion
    leaves nothing dead behind."""
    modules = {p.stem: tree(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    referenced = set()
    for module in [*modules.values(), tree(SRC / "__init__.py")]:
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for stem, module in modules.items():
        loaded = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
        for node in module.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    assert bound in loaded, f"{stem} imports {bound} but never uses it"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                names = (
                    [t.id for t in node.targets if isinstance(t, ast.Name)]
                    if isinstance(node, ast.Assign)
                    else [node.name]
                )
                for name in names:
                    if name.startswith("_") and not name.startswith("__"):
                        assert name in referenced, f"{stem}.{name} is never referenced"
