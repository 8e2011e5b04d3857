"""Seeded input generators for the benchmark.

Every random draw goes through ``random.Random.random()``, the one part of
the standard generator whose sequence Python promises to keep across
versions, so a seed yields the same models and datasets on any
interpreter.  The program under test is used only to serialize what is
generated here.

Pool entries are addressed by (workload, index).  Each entry's model has
canonical names: class ``C`` with values ``neg``/``pos`` and features
``f00``, ``f01``, ...; :func:`rename` gives an op its own copy under
fresh feature names, so no two ops hand the program an equal network.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from bntrim import BayesianNetwork, Cpt, Dataset, Variable

CLASS = "C"
CLASS_VALUES = ("neg", "pos")
# Kept-set sizes of the maa-wide strata and (subcommand, feature count)
# of the scalar strata.  Op time is set mostly by these sizes, so each
# workload's latencies form clusters; the shares are chosen so that the
# median and the 90th percentile fall inside a cluster, not in a gap
# between two, where single ops would swing them.
MAA_KEPT = (9, 10, 11, 11, 12)
SCALAR_STRATA = (("sdp", 8), ("ig", 7), ("sdp", 9), ("ig", 7), ("sdp", 9), ("ig", 6))
# Pool entry i belongs to stratum i % STRATA[workload].  Ops cycle
# through the strata, so every stretch of a run has the same mix of
# model kinds and sizes.
STRATA = {"trim": 12, "maa-wide": len(MAA_KEPT), "scalar": len(SCALAR_STRATA), "scatter": 1}
# Pool size of each workload, a multiple of its strata count, and at
# least 100 so that ten or more entries lie beyond the 90th percentile.
POOL = {"trim": 108, "maa-wide": 100, "scalar": 102, "scatter": 100}


def _rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}-{index}")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]."""
    return lo + min(int(rng.random() * (hi - lo + 1)), hi - lo)


def _sample(rng: random.Random, items: list, k: int) -> list:
    """k distinct items, in a random order (partial Fisher-Yates)."""
    pool = list(items)
    for i in range(k):
        j = i + _randint(rng, 0, len(pool) - 1 - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def pool_order(workload: str, seed: int) -> list[int]:
    """The seeded order in which a run takes pool entries: one stratum
    after another, each stratum's entries in their own shuffled order."""
    strata = STRATA[workload]
    rounds, extra = divmod(POOL[workload], strata)
    if extra:
        raise ValueError(f"pool of {workload} is not a multiple of its {strata} strata")
    shuffled = [
        _sample(random.Random(f"order-{seed}-{s}"), list(range(rounds)), rounds)
        for s in range(strata)
    ]
    return [shuffled[s][r] * strata + s for r in range(rounds) for s in range(strata)]


def feature_names(n: int) -> list[str]:
    return [f"f{i:02d}" for i in range(n)]


def _rows(rng: random.Random, n_rows: int, card: int) -> tuple[tuple[float, ...], ...]:
    rows = []
    for _ in range(n_rows):
        weights = [_uniform(rng, 0.05, 1.0) for _ in range(card)]
        total = math.fsum(weights)
        rows.append(tuple(w / total for w in weights))
    return tuple(rows)


def _variable(name: str, card: int) -> Variable:
    if name == CLASS:
        return Variable(name, CLASS_VALUES)
    return Variable(name, tuple(f"v{j}" for j in range(card)))


def naive_bayes(rng: random.Random, n: int, max_card: int) -> BayesianNetwork:
    """Class root with every feature as its only child."""
    variables = [_variable(CLASS, 2)]
    cpts = [Cpt(CLASS, (), _rows(rng, 1, 2))]
    for name in feature_names(n):
        card = _randint(rng, 2, max_card)
        variables.append(_variable(name, card))
        cpts.append(Cpt(name, (CLASS,), _rows(rng, 2, card)))
    return BayesianNetwork(tuple(variables), tuple(cpts))


def general_dag(rng: random.Random, n: int, max_card: int) -> BayesianNetwork:
    """A random DAG over the class and n features.

    Nodes are placed in a random topological order; each takes one or
    two parents among the nodes before it.  The class may have parents.
    Every non-class variable is a feature.
    """
    names = [CLASS] + feature_names(n)
    cards = {CLASS: 2}
    for name in names[1:]:
        cards[name] = _randint(rng, 2, max_card)
    topo = _sample(rng, names, len(names))
    parents: dict[str, tuple[str, ...]] = {}
    for i, child in enumerate(topo):
        k = min(i, _randint(rng, 1, 2))
        parents[child] = tuple(sorted(_sample(rng, topo[:i], k)))
    cpts = tuple(
        Cpt(m, parents[m], _rows(rng, math.prod(cards[p] for p in parents[m]), cards[m]))
        for m in names
    )
    return BayesianNetwork(tuple(_variable(m, cards[m]) for m in names), cpts)


def _joint(net: BayesianNetwork) -> np.ndarray:
    """Dense joint over all variables, axes in declaration order."""
    axis = {v.name: i for i, v in enumerate(net.variables)}
    shape = [v.cardinality for v in net.variables]
    joint = np.ones(shape)
    for cpt in net.cpts:
        src = list(cpt.parents) + [cpt.child]
        arr = np.asarray(cpt.rows).reshape([shape[axis[s]] for s in src])
        arr = np.transpose(arr, sorted(range(len(src)), key=lambda k: axis[src[k]]))
        full = [1] * len(shape)
        for s in src:
            full[axis[s]] = shape[axis[s]]
        joint = joint * arr.reshape(full)
    return joint


def median_threshold(net: BayesianNetwork) -> float | None:
    """A decision threshold that splits the full classifier's decisions
    near the mass-weighted median posterior.

    It is the midpoint between that median posterior and the next
    distinct one, so no instantiation sits on the threshold.  None when
    the class posterior takes a single value (a trivial classifier).
    """
    joint = np.moveaxis(_joint(net), [v.name for v in net.variables].index(CLASS), 0)
    pos = joint[1].ravel()
    mass = joint[0].ravel() + pos
    post = pos / mass
    order = np.argsort(post, kind="stable")
    post, mass = post[order], mass[order]
    distinct = np.unique(post)
    if len(distinct) < 2:
        return None
    median = post[min(int(np.searchsorted(np.cumsum(mass), 0.5 * mass.sum())), len(post) - 1)]
    i = int(np.searchsorted(distinct, median))
    lo, hi = (distinct[i], distinct[i + 1]) if i + 1 < len(distinct) else (distinct[i - 1], distinct[i])
    return float((lo + hi) / 2.0)


def _classifier_model(rng: random.Random, make, n: int, max_card: int):
    """Draw models until one has a non-trivial median threshold."""
    while True:
        net = make(rng, n, max_card)
        t = median_threshold(net)
        if t is not None:
            return net, t


@dataclass(frozen=True)
class Case:
    """One pool entry: a model (or dataset) plus the op's parameters.

    ``kind`` names the subcommand.  ``costs`` and ``budget`` apply to
    ``trim`` and ``ig``; ``keep`` to ``maa``; ``query`` and ``observe``
    to ``sdp``; ``data`` to ``scatter``.
    """

    kind: str
    net: BayesianNetwork
    threshold: float = 0.5
    costs: tuple[tuple[str, float], ...] = ()
    budget: float = 0.0
    keep: tuple[str, ...] = ()
    query: tuple[str, ...] = ()
    observe: tuple[tuple[str, str], ...] = ()
    data: Dataset | None = None


def trim_case(index: int) -> Case:
    """Binary naive Bayes or general DAG models with 9-11 features, with
    unit costs or one-decimal costs in [0.1, 0.9]; twelve strata, one
    per combination.  The budget is half the total cost."""
    rng = _rng("trim", index)
    stratum = index % STRATA["trim"]
    n = 9 + stratum // 4
    make = naive_bayes if stratum % 2 == 0 else general_dag
    net, t = _classifier_model(rng, make, n, 2)
    names = feature_names(n)
    if (stratum // 2) % 2 == 0:
        costs = [(f, 1.0) for f in names]
    else:
        costs = [(f, _randint(rng, 1, 9) / 10) for f in names]
    budget = math.fsum(c for _, c in costs) / 2
    return Case("trim", net, t, tuple(costs), budget)


def maa_case(index: int) -> Case:
    """A 12-feature binary naive Bayes model and a kept set of 9-12
    features (sizes by stratum, MAA_KEPT), so the table has 512-4096
    rows."""
    rng = _rng("maa-wide", index)
    net, t = _classifier_model(rng, naive_bayes, 12, 2)
    names = feature_names(12)
    kept = set(_sample(rng, names, MAA_KEPT[index % len(MAA_KEPT)]))
    return Case("maa", net, t, keep=tuple(f for f in names if f in kept))


def scalar_case(index: int) -> Case:
    """``sdp`` queries (4 features queried, 1 observed) alternating with
    ``ig`` selections (unit costs, a budget of half the features), on
    general DAGs whose features have cardinality 2-3; sizes by stratum,
    SCALAR_STRATA."""
    rng = _rng("scalar", index)
    kind, n = SCALAR_STRATA[index % len(SCALAR_STRATA)]
    if kind == "sdp":
        net, t = _classifier_model(rng, general_dag, n, 3)
        picked = _sample(rng, feature_names(n), 5)
        value = _randint(rng, 0, net.var(picked[4]).cardinality - 1)
        query = tuple(sorted(picked[:4]))
        return Case("sdp", net, t, query=query, observe=((picked[4], f"v{value}"),))
    net, t = _classifier_model(rng, general_dag, n, 3)
    return Case("ig", net, t, costs=tuple((f, 1.0) for f in feature_names(n)), budget=float(n // 2))


SCATTER_ROWS = 200


def sample_dataset(rng: random.Random, net: BayesianNetwork, count: int) -> Dataset:
    """Ancestral samples written as value labels, columns in declaration
    order.  Requires the variables to be declared in topological order."""
    names = [v.name for v in net.variables]
    rows = []
    for _ in range(count):
        a: dict[str, int] = {}
        for name in names:
            cpt = net.cpt(name)
            r = 0
            for p in cpt.parents:
                r = r * net.var(p).cardinality + a[p]
            u, acc, value = rng.random(), 0.0, len(cpt.rows[r]) - 1
            for j, p in enumerate(cpt.rows[r]):
                acc += p
                if u < acc:
                    value = j
                    break
            a[name] = value
        rows.append(tuple(net.var(m).values[a[m]] for m in names))
    return Dataset(tuple(names), tuple(rows), CLASS)


def scatter_case(index: int) -> Case:
    """200 rows sampled from a naive Bayes model with 5 features of
    cardinality 2-3."""
    rng = _rng("scatter", index)
    net = naive_bayes(rng, 5, 3)
    return Case("scatter", net, data=sample_dataset(rng, net, SCATTER_ROWS))


CASES = {
    "trim": trim_case,
    "maa-wide": maa_case,
    "scalar": scalar_case,
    "scatter": scatter_case,
}


def rename(case: Case, prefix: str) -> Case:
    """The same case with every feature name prefixed.  Results are
    unchanged apart from the names, because feature order is kept."""
    def r(name: str) -> str:
        return name if name == CLASS else prefix + name

    net = BayesianNetwork(
        tuple(Variable(r(v.name), v.values) for v in case.net.variables),
        tuple(Cpt(r(c.child), tuple(r(p) for p in c.parents), c.rows) for c in case.net.cpts),
    )
    data = case.data
    if data is not None:
        data = Dataset(tuple(r(c) for c in data.columns), data.rows, data.class_column)
    return Case(
        case.kind,
        net,
        case.threshold,
        tuple((r(f), c) for f, c in case.costs),
        case.budget,
        tuple(r(f) for f in case.keep),
        tuple(r(f) for f in case.query),
        tuple((r(f), v) for f, v in case.observe),
        data,
    )
