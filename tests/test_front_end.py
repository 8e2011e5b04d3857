"""The front end, from network document to classifier grid, against the
code it replaced.

Below, verbatim, are the validity walk (``_problems_and_order``), the
joint product (``_full_joint``) and the classifier grid
(``_classifier_grid``) as they stood before the walk took type-exact
fast tests, ``Cpt`` took rows of floats whole, the product grew along its
slow axis and the grid's ``hit`` cells lost their ratio passes (the
caches dropped).  Every problem list, topological order and grid cell
must be the same.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bntrim import BayesianNetwork, Classifier, Cpt, Variable, agreement, netio
from bntrim.bnmodel import ROW_SUM_TOL, _entry, _hashable, _tuple, check_classifier
from bntrim.errors import EnumerationLimitError
from bntrim.inference import CELL_LIMIT

from conftest import bound_filter_models, dag_networks, random_dag_instance


# The replaced validity walk, verbatim.

def _problems_and_order(
    net: BayesianNetwork,
) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """validate_network's problems, and the topological order (declaration
    order breaking ties) when there are none."""
    problems: list[str] = []
    names = [v.name for v in net.variables]
    # Each name's cardinality (its first declaration's), None for bad labels.
    cards: dict[str, int | None] = {}
    for v in net.variables:
        keyed = _hashable(v.name)
        if keyed and v.name in cards:
            problems.append(f"duplicate variable name {v.name!r}")
        if not isinstance(v.name, str):
            problems.append(f"variable {v.name!r} needs a string 'name'")
        elif not v.name:
            problems.append("variable name must be nonempty")
        typed = isinstance(v.values, tuple) and all(isinstance(x, str) for x in v.values)
        if keyed:
            cards.setdefault(v.name, len(v.values) if typed else None)
        if not typed:
            problems.append(f"variable {v.name!r} needs a list of string 'values'")
        elif len(v.values) < 2:
            problems.append(f"variable {v.name!r} needs at least 2 values")
        elif len(set(v.values)) != len(v.values):
            problems.append(f"variable {v.name!r} has duplicate value labels")
    cseen: set[str] = set()
    for c in net.cpts:
        if not isinstance(c.child, str):
            problems.append(f"cpd {c.child!r} needs a string 'child'")
        if not _hashable(c.child):
            continue
        if c.child in cseen:
            problems.append(f"duplicate cpt for {c.child!r}")
        cseen.add(c.child)
    problems.extend(
        f"variable {n!r} has no cpt" for n in names if _hashable(n) and n not in cseen
    )

    for c in net.cpts:
        typed = isinstance(c.parents, tuple) and all(isinstance(p, str) for p in c.parents)
        if not typed:
            problems.append(f"cpd {c.child!r} needs a list of string 'parents'")
        rows = c.rows if isinstance(c.rows, tuple) else ()
        if not rows:
            problems.append(f"cpd {c.child!r} needs a nonempty 'rows' array")
        # Cpt keeps as given an entry that is no number or an int no float holds.
        floats = [isinstance(row, tuple) and {float}.issuperset(map(type, row)) for row in rows]
        if not all(floats):
            kinds = [set(map(type, row)) if isinstance(row, tuple) else {None} for row in rows]
            for j, kind in enumerate(kinds):
                if kind - {float, int}:
                    problems.append(f"cpd {c.child!r} row {j} must be a list of numbers")
            if any(int in kind and kind <= {float, int} for kind in kinds):
                problems.append(f"cpd {c.child!r} has an integer too large for a float")
        if not _hashable(c.child):
            continue
        if c.child not in cards:
            problems.append(f"cpt references unknown child {c.child!r}")
            continue
        if not typed or not rows:
            continue
        dangling = [p for p in c.parents if p not in cards]
        if dangling:
            problems.extend(f"cpt {c.child!r} references unknown parent {p!r}" for p in dangling)
            continue
        repeated = dict.fromkeys(p for i, p in enumerate(c.parents) if p in c.parents[:i])
        if repeated:
            problems.extend(f"cpt {c.child!r} lists parent {p!r} twice" for p in repeated)
            continue
        parent_cards = [cards[p] for p in c.parents]
        expect_rows = None if None in parent_cards else math.prod(parent_cards)
        if expect_rows is not None and len(rows) != expect_rows:
            problems.append(
                f"cpt {c.child!r}: expected {expect_rows} rows, found {len(rows)}"
            )
            continue
        card = cards[c.child]
        for i, row in enumerate(rows):
            if not floats[i]:
                continue
            if card is not None and len(row) != card:
                problems.append(
                    f"cpt {c.child!r} row {i}: expected {card} entries, found {len(row)}"
                )
                continue
            bad = [x for x in row if not (0.0 <= x <= 1.0) or not math.isfinite(x)]
            if bad:
                problems.append(
                    f"cpt {c.child!r} row {i}: entry {bad[0]!r} outside [0, 1]"
                )
                continue
            s = math.fsum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                problems.append(f"cpt {c.child!r} row {i}: row sum {s:.10g} != 1")

    if problems:
        return tuple(problems), None

    # Kahn's algorithm, on a network whose names, CPTs and parents all
    # resolve; ties go to declaration order so the result is deterministic.
    children: dict[str, list[str]] = {n: [] for n in names}
    for c in net.cpts:
        for p in c.parents:
            children[p].append(c.child)
    indeg = {n: len(net._cpt_map[n].parents) for n in names}
    ready = deque(n for n in names if indeg[n] == 0)
    order: list[str] = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for ch in children[n]:
            indeg[ch] -= 1
            if indeg[ch] == 0:
                ready.append(ch)
    if len(order) == len(names):
        return (), tuple(order)
    # Every node Kahn's algorithm left has a parent it left, so walking
    # such parents from one of them revisits a node: a cycle, read
    # backwards.
    walk = [next(n for n in names if indeg[n])]
    while True:
        n = next(p for p in net._cpt_map[walk[-1]].parents if indeg[p])
        if n in walk:
            break
        walk.append(n)
    cycle = [n, *reversed(walk[walk.index(n):])]
    return ("cycle detected: " + " -> ".join(cycle),), None


# The replaced joint product and classifier grid, verbatim but uncached.

def _full_joint(net: BayesianNetwork) -> np.ndarray:
    """Joint distribution over all network variables as a dense tensor,
    one axis per variable in declaration order: the factors of the
    network's plan, multiplied in declaration order.

    The product starts from a size-one tensor, and each factor's
    broadcast grows it over the axes that factor reads, so the early
    products are small.  Every variable's own factor reads its axis, so
    the last product has the full shape, and each cell is still
    1.0 times the factors' entries in declaration order, the bits a
    full-size start gives: broadcasting repeats a cell's value, it does
    not change the operations that make it."""
    plan = net._plan
    shape = plan.cards
    cells = math.prod(shape)
    if cells > CELL_LIMIT:
        raise EnumerationLimitError(
            f"joint grid of {cells} cells exceeds the {CELL_LIMIT} cell guard"
        )
    joint = np.ones((1,) * len(shape))
    for child, parents, rows in plan.factors:
        axes = [q for q, _ in parents] + [child]
        arr = np.asarray(rows, dtype=float).reshape([shape[q] for q in axes])
        arr = np.transpose(arr, sorted(range(len(axes)), key=axes.__getitem__))
        full = [1] * len(shape)
        for q in axes:
            full[q] = shape[q]
        joint = joint * arr.reshape(full)
    return joint


def _classifier_grid(net: BayesianNetwork, clf: Classifier) -> np.ndarray:
    """Per-instantiation masses over the full feature space, read-only
    because the array is cached.

    The array stacks three, each indexed by feature value along one axis
    per classifier feature, in classifier feature order: the mass of each
    cell with the class positive (``pos``), with it negative (``neg``),
    and ``hit``, the cell's total mass where the original classifier
    labels it positive, else 0.
    """
    check_classifier(net, clf)
    joint = _full_joint(net)
    keep = {clf.class_var, *clf.features}
    sum_axes = tuple(i for i, v in enumerate(net.variables) if v.name not in keep)
    reduced = joint.sum(axis=sum_axes) if sum_axes else joint
    kept_names = [v.name for v in net.variables if v.name in keep]
    target = [clf.class_var, *clf.features]
    reduced = np.transpose(reduced, [kept_names.index(n) for n in target])
    cells = np.empty((3, *reduced.shape[1:]))
    pos, neg, hit = cells[0, ...], cells[1, ...], cells[2, ...]  # views, even 0-d
    pos[...] = reduced[clf.positive_value]
    neg[...] = reduced[1 - clf.positive_value]
    total = pos + neg
    nonzero = total > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nonzero, pos / np.where(nonzero, total, 1.0), 0.0)
    hit[...] = np.where(nonzero & (ratio >= clf.threshold), total, 0.0)
    cells.flags.writeable = False
    return cells


def replaced_rows(rows: object) -> object:
    """``Cpt.rows`` as the replaced constructor built it: every entry
    through ``_entry``."""
    return _tuple(rows, lambda row: _tuple(row, _entry))


class Label(str):
    """A string subclass: the walk's type-exact tests fail on it, and its
    general tests must accept it as a string still."""


class Weight(float):
    """A float subclass, which ``Cpt`` reads as a float."""


NAME_SWAPS = (1, None, ["X"], "", 2.5, True, ("t",), Label("Z"))
VALUES_SWAPS = (["a"], ["a", "a"], "ab", [1, 2], None, [], ["a", Label("b")], ("a", None))
ENTRY_SWAPS = (
    math.nan, math.inf, -math.inf, -0.1, 1.5, True, "0.5", 10**400, 1, 0, None, [0.5],
    Weight(0.5), 2.0**-1074,
)


def document(net: BayesianNetwork) -> dict:
    return json.loads(netio.serialize_network(net))


KINDS = (
    "name", "values", "drop-variable", "twin-variable", "shuffle", "child", "parents",
    "parent-unknown", "parent-twice", "add-parent", "drop-cpd", "twin-cpd", "rows",
    "drop-row", "twin-row", "entry", "arity", "row-sum", "near-sum",
)


def mutate(doc: dict, choose) -> None:
    """One mutation of the document, each choice made by ``choose(seq)``:
    a retyped field, a dropped or duplicated entry, reordered variables,
    a bad row or entry, or an added parent with the rows repeated to fit,
    which may close a cycle."""
    variables, cpds = doc["variables"], doc["cpds"]
    kind = choose(KINDS)
    if KINDS.index(kind) < 5:
        if not variables:
            return
        i = choose(range(len(variables)))
        if kind == "name":
            variables[i]["name"] = choose(NAME_SWAPS)
        elif kind == "values":
            variables[i]["values"] = choose(VALUES_SWAPS)
        elif kind == "drop-variable":
            del variables[i]
        elif kind == "twin-variable":
            variables.insert(choose(range(len(variables))), dict(variables[i]))
        else:
            variables.insert(choose(range(len(variables))), variables.pop(i))
        return
    if not cpds:
        return
    c = cpds[choose(range(len(cpds)))]
    if kind == "child":
        c["child"] = choose((*NAME_SWAPS, "unknown", *(v["name"] for v in variables)))
    elif kind == "parents":
        c["parents"] = choose(("C", None, [1], [["C"]], [Label("C")]))
    elif kind == "parent-unknown":
        c["parents"] = [*c["parents"], "unknown"]
    elif kind == "parent-twice" and c["parents"]:
        c["parents"] = [*c["parents"], c["parents"][0]]
    elif kind == "add-parent":
        cards = {v["name"]: len(v["values"]) for v in variables if type(v["name"]) is str}
        extra = [n for n in cards if n != c["child"] and n not in c["parents"]]
        if extra and type(c["rows"]) is list:
            p = choose(extra)
            c["parents"] = [*c["parents"], p]
            c["rows"] = [row for row in c["rows"] for _ in range(cards[p])]
    elif kind == "drop-cpd":
        cpds.remove(c)
    elif kind == "twin-cpd":
        cpds.insert(choose(range(len(cpds))), dict(c))
    elif kind == "rows":
        c["rows"] = choose((None, [], "rows", [None], [[]], {"a": 1}))
    elif type(c["rows"]) is list and c["rows"]:
        j = choose(range(len(c["rows"])))
        row = c["rows"][j]
        if kind == "drop-row":
            del c["rows"][j]
        elif kind == "twin-row":
            c["rows"].insert(j, row)
        elif type(row) is list and row:
            k = choose(range(len(row)))
            row = list(row)
            if kind == "entry":
                row[k] = choose(ENTRY_SWAPS)
            elif kind == "arity":
                row.append(0.0)
            elif kind == "row-sum" and type(row[k]) is float:
                row[k] *= 1.01
            elif kind == "near-sum" and type(row[k]) is float:
                row[k] += choose((1e-12, -1e-12, 2e-9, 1e-9))
            c["rows"][j] = row


def build(doc: dict) -> BayesianNetwork:
    return BayesianNetwork(
        tuple(Variable(e.get("name"), e.get("values")) for e in doc["variables"]),
        tuple(Cpt(e.get("child"), e.get("parents", []), e.get("rows")) for e in doc["cpds"]),
    )


def check(doc: dict) -> BayesianNetwork:
    """The document's network, after checking its rows and its validity
    against the replaced code's."""
    net = build(doc)
    for e, c in zip(doc["cpds"], net.cpts):
        assert repr(c.rows) == repr(replaced_rows(e.get("rows")))
    assert net._validity == _problems_and_order(net)
    return net


MESSAGE_KINDS = (
    "duplicate variable name", "needs a string 'name'", "name must be nonempty",
    "needs a list of string 'values'", "needs at least 2 values", "duplicate value labels",
    "needs a string 'child'", "duplicate cpt", "has no cpt", "needs a list of string 'parents'",
    "needs a nonempty 'rows'", "must be a list of numbers", "integer too large", "unknown child",
    "unknown parent", "twice", "rows, found", "entries, found", "outside [0, 1]", "row sum",
    "cycle detected",
)


class TestValidityWalk:
    @settings(max_examples=400, deadline=None)
    @given(dag_networks(max_features=4, max_card=3), st.integers(0, 3), st.data())
    def test_problems_and_order_equal_the_replaced_walks(self, model, mutations, data):
        doc = document(model[0])
        for _ in range(mutations):
            mutate(doc, lambda seq: data.draw(st.sampled_from(seq)))
        check(doc)

    def test_the_mutations_reach_every_message(self):
        # The same mutations, seeded: they must reach every kind of
        # problem the walk reports, and leave some networks valid.
        rng = random.Random(4141)
        seen, valid = set(), 0
        for _ in range(1500):
            doc = document(random_dag_instance(rng, 4, 3)[0])
            for _ in range(rng.randint(0, 2)):
                mutate(doc, lambda seq: rng.choice(list(seq)))
            problems, order = check(doc)._validity
            valid += order is not None
            seen.update(next(k for k in MESSAGE_KINDS if k in p) for p in problems)
        assert valid > 100
        assert seen == set(MESSAGE_KINDS)


class TestClassifierGrid:
    @staticmethod
    def latent_models() -> list[tuple[BayesianNetwork, Classifier]]:
        """Seeded general DAGs of up to eight features of cardinality 2-3
        and the bound models (deterministic rows, thresholds 0 and 2,
        subnormal-scale entries), each classifier keeping a random part
        of the features, so the rest are latent and summed out."""
        rng = random.Random(4040)
        models = [random_dag_instance(rng, 8, 3) for _ in range(60)] + bound_filter_models(100)
        out = []
        for net, clf in models:
            kept = tuple(f for f in clf.features if rng.random() < 0.6)
            out.append((net, Classifier(clf.class_var, clf.positive_value, kept, clf.threshold)))
        return out

    def test_cells_equal_the_replaced_grids(self):
        latent = cards3 = 0
        for net, clf in self.latent_models():
            joint = agreement._full_joint.__wrapped__(net)
            assert joint.flags.c_contiguous
            assert joint.tobytes() == _full_joint(net).tobytes()
            got = agreement._classifier_grid.__wrapped__(net, clf)
            want = _classifier_grid(net, clf)
            assert got.shape == want.shape
            assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
            latent += len(clf.features) + 1 < len(net.variables)
            cards3 += any(net.var(f).cardinality == 3 for f in clf.features)
        assert latent > 100 and cards3 > 30
