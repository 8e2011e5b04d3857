"""Shared fixtures: the two bundled example networks plus seeded random
instance generators used by the property and acceptance tests."""

from __future__ import annotations

import json
import math
import os
import pathlib
import random

import pytest
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    Variable,
    check_classifier,
    parse_network,
)
from bntrim import bnmodel

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def pytest_configure(config):
    # pyproject's `pythonpath` puts src/ on this process's path only; the
    # tests that start `python -m bntrim.cli` need it in the child too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )


def load_network(name: str) -> BayesianNetwork:
    return parse_network((FIXTURES / name).read_bytes())


@pytest.fixture(scope="session")
def quiz_net() -> BayesianNetwork:
    return load_network("quiz.bn.json")


@pytest.fixture(scope="session")
def quiz_alpha() -> Classifier:
    return Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.07)


@pytest.fixture(scope="session")
def gbn4_net() -> BayesianNetwork:
    return load_network("gbn4.bn.json")


@pytest.fixture(scope="session")
def gbn4_alpha() -> Classifier:
    return Classifier("C", 0, ("F1", "F2", "F3"), 0.55)


def _random_rows(rng: random.Random, n_rows: int, card: int) -> tuple[tuple[float, ...], ...]:
    rows = []
    for _ in range(n_rows):
        weights = [rng.uniform(0.05, 1.0) for _ in range(card)]
        total = math.fsum(weights)
        rows.append(tuple(w / total for w in weights))
    return tuple(rows)


def nb_instance(
    rng: random.Random, n_features: int, max_card: int = 3
) -> tuple[BayesianNetwork, Classifier]:
    """A random naive Bayes network with exactly ``n_features`` features
    plus a classifier over all of them."""
    names = [f"X{i}" for i in range(1, n_features + 1)]
    variables = [Variable("C", ("neg", "pos"))]
    cpds = [Cpt("C", (), _random_rows(rng, 1, 2))]
    for name in names:
        card = rng.randint(2, max_card)
        variables.append(Variable(name, tuple(f"v{j}" for j in range(card))))
        cpds.append(Cpt(name, ("C",), _random_rows(rng, 2, card)))
    net = BayesianNetwork(tuple(variables), tuple(cpds))
    clf = Classifier("C", rng.randrange(2), tuple(names), rng.uniform(0.1, 0.9))
    check_classifier(net, clf)
    return net, clf


def random_nb_instance(
    rng: random.Random, max_features: int = 8, max_card: int = 3
) -> tuple[BayesianNetwork, Classifier]:
    """A random naive Bayes network plus a classifier over all features."""
    return nb_instance(rng, rng.randint(2, max_features), max_card)


def random_dag_instance(
    rng: random.Random, max_features: int = 8, max_card: int = 3
) -> tuple[BayesianNetwork, Classifier]:
    """A random general DAG over the class and features; every non-class
    variable is a classifier feature, and the class may have parents."""
    n = rng.randint(2, max_features)
    names = ["C"] + [f"X{i}" for i in range(1, n + 1)]
    cards = {"C": 2}
    for name in names[1:]:
        cards[name] = rng.randint(2, max_card)
    topo = names[:]
    rng.shuffle(topo)
    cpds = []
    for i, child in enumerate(topo):
        pool = topo[:i]
        k = min(len(pool), rng.randint(0, 2))
        parents = tuple(sorted(rng.sample(pool, k))) if k else ()
        n_rows = math.prod(cards[p] for p in parents)
        cpds.append(Cpt(child, parents, _random_rows(rng, n_rows, cards[child])))
    variables = tuple(Variable(m, tuple(f"v{j}" for j in range(cards[m]))) for m in names)
    net = BayesianNetwork(variables, tuple(cpds))
    clf = Classifier("C", rng.randrange(2), tuple(names[1:]), rng.uniform(0.1, 0.9))
    check_classifier(net, clf)
    return net, clf


def binary_dag(parents: dict[str, tuple[str, ...]], seed: int = 0) -> BayesianNetwork:
    """Binary variables in the given order, with the given parents and
    seeded random CPT rows."""
    rng = random.Random(seed)
    variables = tuple(Variable(m, ("v0", "v1")) for m in parents)
    cpds = tuple(Cpt(m, ps, _random_rows(rng, 2 ** len(ps), 2)) for m, ps in parents.items())
    return BayesianNetwork(variables, cpds)


# Classifiers over binary models with class C: the features are mutually
# d-separated given C in the first group, and not in the second.
SEPARATED_MODELS = {
    "latent parent": ({"C": (), "L": ("C",), "F1": ("L",), "F2": ("C",), "F3": ("C",)}, ("F1", "F2", "F3")),
    "class parent": ({"X": (), "C": ("X",), "F1": ("C",), "F2": ("C",)}, ("X", "F1", "F2")),
    "isolated feature": ({"C": (), "Z": (), "F1": ("C",), "F2": ("C",)}, ("F1", "F2", "Z")),
}
COUPLED_MODELS = {
    "feature edge": ({"C": (), "F1": ("C",), "F2": ("C", "F1"), "F3": ("C",)}, ("F1", "F2", "F3")),
    "shared latent parent": ({"C": (), "L": (), "F1": ("C", "L"), "F2": ("C", "L")}, ("F1", "F2")),
    "two class parents": ({"X": (), "Y": (), "C": ("X", "Y"), "F1": ("C",)}, ("X", "Y", "F1")),
}


def features_separated(net: BayesianNetwork, clf: Classifier) -> bool:
    """The frontier search's precondition: every feature d-separated from
    the other features given the class."""
    check_classifier(net, clf)
    return bnmodel._separated_given_class(net, clf, {f: f for f in clf.features})


def binary_chain(n: int) -> BayesianNetwork:
    """X0 -> X1 -> ... -> X{n-1}, each with values ("a", "b"): small to
    write, with 2**n completions."""
    variables = tuple(Variable(f"X{i}", ("a", "b")) for i in range(n))
    cpds = [Cpt("X0", (), ((0.5, 0.5),))]
    cpds += [Cpt(f"X{i}", (f"X{i - 1}",), ((0.9, 0.1), (0.2, 0.8))) for i in range(1, n)]
    return BayesianNetwork(variables, tuple(cpds))


def random_instance(
    rng: random.Random, index: int, max_features: int = 8, max_card: int = 3
) -> tuple[BayesianNetwork, Classifier]:
    """Alternate between naive Bayes and general-DAG instances."""
    if index % 2 == 0:
        return random_nb_instance(rng, max_features, max_card)
    return random_dag_instance(rng, max_features, max_card)


def bound_filter_models(count: int = 200) -> list[tuple[BayesianNetwork, Classifier]]:
    """Seeded models for the search bound's float estimate: naive Bayes
    and general DAGs of up to 6 features with at most 3 values, varied
    in a cycle of five: as drawn; about a third of the CPT rows made
    deterministic (one entry 1, the rest 0); an all-binary naive Bayes
    whose first feature's CPT the next two repeat, so singleton bounds
    tie exactly; threshold 0 (every positive-mass cell a hit) or 2 (no
    hit); and rows with subnormal-scale entries, so products of them
    underflow."""
    rng = random.Random(230)
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 2:
            net, clf = nb_instance(rng, rng.randint(3, 6), max_card=2)
            first = net.cpts[1].rows
            cpts = [c if c.child not in ("X2", "X3") else Cpt(c.child, c.parents, first) for c in net.cpts]
        else:
            net, clf = random_instance(rng, i // 5, max_features=6)
            cpts = list(net.cpts)
        if kind == 1:
            def hot(row: tuple[float, ...]) -> tuple[float, ...]:
                one = rng.randrange(len(row))
                return tuple(float(j == one) for j in range(len(row)))

            cpts = [
                Cpt(c.child, c.parents, tuple(hot(row) if rng.random() < 0.35 else row for row in c.rows))
                for c in cpts
            ]
        elif kind == 3:
            clf = Classifier(clf.class_var, clf.positive_value, clf.features, 2.0 * (i // 5 % 2))
        elif kind == 4:
            tiny = (1e-300, 1e-310, 5e-324)
            cpts = [
                Cpt(c.child, c.parents, tuple(
                    (rng.choice(tiny), *row[1:-1], 1.0 - math.fsum(row[1:-1]))
                    if rng.random() < 0.5 else row
                    for row in c.rows
                ))
                for c in cpts
            ]
        net = BayesianNetwork(net.variables, tuple(cpts))
        check_classifier(net, clf)
        out.append((net, clf))
    return out


def trim_pool_19() -> tuple[BayesianNetwork, Classifier, CostModel]:
    """The benchmark's ``trim`` pool entry 19: a 10-feature general DAG
    with one-decimal costs, its threshold and its budget."""
    doc = json.loads((FIXTURES / "trim19.case.json").read_text())
    net = parse_network(json.dumps(doc["network"]).encode())
    features = tuple(v.name for v in net.variables if v.name != doc["class"])
    positive = net.var(doc["class"]).index_of(doc["positive"])
    clf = Classifier(doc["class"], positive, features, doc["threshold"])
    return net, clf, CostModel(doc["costs"], doc["budget"])


def random_costs(rng: random.Random, clf: Classifier) -> CostModel:
    costs = {f: float(rng.choice((1, 2, 3))) for f in clf.features}
    budget = rng.uniform(0.0, math.fsum(costs.values()))
    return CostModel(costs, budget)


def random_subset(rng: random.Random, clf: Classifier) -> tuple[str, ...]:
    return tuple(f for f in clf.features if rng.random() < 0.5)


def acceptance_instances(count: int = 200) -> list[tuple[BayesianNetwork, Classifier, CostModel]]:
    """The acceptance suite's seeded models, the first ``count`` of one
    stream: naive Bayes and general DAGs alternating, <= 8 features with
    <= 3 values each, costs in {1,2,3}, random budget."""
    rng = random.Random(20260814)
    out = []
    for i in range(count):
        net, clf = random_instance(rng, i)
        out.append((net, clf, random_costs(rng, clf)))
    return out


def nested_subsets(clf: Classifier, index: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The acceptance suite's ten kept subsets of instance ``index``, each
    paired with a random subset of itself."""
    srng = random.Random(5000 + index)
    out = []
    for _ in range(10):
        subset = random_subset(srng, clf)
        out.append((subset, tuple(f for f in subset if srng.random() < 0.5)))
    return out


@st.composite
def dag_networks(draw, max_features: int = 4, max_card: int = 3):
    """A random DAG over a binary class "C" and 1..max_features features of
    cardinality 2..max_card, plus a classifier over every feature.  About
    one CPT row in four is deterministic (one entry 1, the rest 0), so
    zero-mass instantiations and exactly tied posteriors occur."""
    n = draw(st.integers(1, max_features))
    names = ["C"] + [f"X{i}" for i in range(1, n + 1)]
    cards = {"C": 2}
    for name in names[1:]:
        cards[name] = draw(st.integers(2, max_card))
    topo = draw(st.permutations(names))
    cpds = []
    for i, child in enumerate(topo):
        parents = ()
        if i:
            parents = tuple(sorted(draw(st.sets(st.sampled_from(topo[:i]), max_size=2))))
        card = cards[child]
        rows = []
        for _ in range(math.prod(cards[p] for p in parents)):
            if draw(st.integers(0, 3)) == 0:
                hot = draw(st.integers(0, card - 1))
                rows.append(tuple(float(j == hot) for j in range(card)))
            else:
                weights = draw(st.lists(st.integers(1, 20), min_size=card, max_size=card))
                rows.append(tuple(w / sum(weights) for w in weights))
        cpds.append(Cpt(child, parents, tuple(rows)))
    variables = tuple(Variable(m, tuple(f"v{j}" for j in range(cards[m]))) for m in names)
    net = BayesianNetwork(variables, tuple(cpds))
    clf = Classifier("C", draw(st.integers(0, 1)), tuple(names[1:]), 0.5)
    check_classifier(net, clf)
    return net, clf
