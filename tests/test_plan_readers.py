"""The joint grid and the ancestral sampler read CPTs through the
network's factor plan; each is checked here against a test-local
construction that looks every CPT and cardinality up by name."""

from __future__ import annotations

import random

import numpy as np

from bntrim import BayesianNetwork, Cpt, Variable, agreement, sample_rows
from bntrim.agreement import _full_joint

from conftest import load_network, random_dag_instance


def by_name_joint(net: BayesianNetwork) -> np.ndarray:
    """The joint built from ``net.cpt`` and ``net.var``: each CPT laid out
    over its parents' and its child's axes, multiplied in declaration
    order."""
    shape = [v.cardinality for v in net.variables]
    axis = {v.name: i for i, v in enumerate(net.variables)}
    joint = np.ones(shape)
    for v in net.variables:
        cpt = net.cpt(v.name)
        src = list(cpt.parents) + [v.name]
        arr = np.asarray(cpt.rows, dtype=float).reshape(
            [net.var(p).cardinality for p in cpt.parents] + [v.cardinality]
        )
        perm = sorted(range(len(src)), key=lambda k: axis[src[k]])
        arr = np.transpose(arr, perm)
        full = [1] * len(shape)
        for name in src:
            full[axis[name]] = net.var(name).cardinality
        joint = joint * arr.reshape(full)
    return joint


def by_name_samples(net: BayesianNetwork, count: int, seed: int) -> list[dict[str, int]]:
    """Ancestral samples with each CPT row found by name: the row index is
    row-major over the parents, the last parent fastest."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a: dict[str, int] = {}
        for name in net.order:
            cpt = net.cpt(name)
            row = 0
            for parent in cpt.parents:
                row = row * net.var(parent).cardinality + a[parent]
            probs = cpt.rows[row]
            u = rng.random()
            acc = 0.0
            value = len(probs) - 1
            for i, p in enumerate(probs):
                acc += p
                if u < acc:
                    value = i
                    break
            a[name] = value
        out.append(a)
    return out


def networks() -> list[BayesianNetwork]:
    """The fixtures plus seeded general DAGs of up to six features with
    cardinality 2-3, whose variables are declared in an order unrelated
    to the DAG's and whose CPTs have up to two parents."""
    rng = random.Random(910)
    dags = [random_dag_instance(rng, 6, 3)[0] for _ in range(40)]
    return [load_network("quiz.bn.json"), load_network("gbn4.bn.json"), *dags]


NETWORKS = networks()


def test_networks_cover_the_layouts():
    declared = [{v.name: i for i, v in enumerate(net.variables)} for net in NETWORKS]
    cpts = [(net, pos, c) for net, pos in zip(NETWORKS, declared) for c in net.cpts]
    assert any(any(pos[p] > pos[c.child] for p in c.parents) for _, pos, c in cpts)
    assert any(
        len(c.parents) == 2 and {net.var(p).cardinality for p in c.parents} == {2, 3}
        and net.var(c.child).cardinality == 3
        for net, _, c in cpts
    )


def test_full_joint_has_the_by_name_bytes():
    for index, net in enumerate(NETWORKS):
        got, want = _full_joint(net), by_name_joint(net)
        assert got.shape == want.shape, index
        assert got.tobytes() == want.tobytes(), index


def test_full_joint_keeps_its_bytes_on_random_models(monkeypatch):
    # The joint grows from a size-one tensor; every cell must still be
    # the full-size start's product, and so must every grid read from it.
    # Seeded general DAGs of up to eight features of cardinality 2-3.
    rng = random.Random(4034)
    models = [random_dag_instance(rng, 8, 3) for _ in range(60)]
    declared = [{v.name: i for i, v in enumerate(net.variables)} for net, _ in models]
    assert any(
        pos[p] > pos[c.child]
        for (net, _), pos in zip(models, declared) for c in net.cpts for p in c.parents
    )
    assert {net.var(f).cardinality for net, clf in models for f in clf.features} == {2, 3}
    lone = BayesianNetwork((Variable("C", ("neg", "pos")),), (Cpt("C", (), ((0.3, 0.7),)),))
    for net in (lone, *(net for net, _ in models)):
        got, want = _full_joint(net), by_name_joint(net)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    grids = [agreement._classifier_grid.__wrapped__(net, clf) for net, clf in models]
    monkeypatch.setattr(agreement, "_full_joint", by_name_joint)
    for index, ((net, clf), got) in enumerate(zip(models, grids)):
        want = agreement._classifier_grid.__wrapped__(net, clf)
        assert got.shape == want.shape, index
        assert got.tobytes() == want.tobytes(), index


def test_sample_rows_draws_the_by_name_samples():
    for index, net in enumerate(NETWORKS):
        got = sample_rows(net, 300, seed=index)
        want = by_name_samples(net, 300, seed=index)
        assert got == want, index
        assert [list(a) for a in got] == [list(a) for a in want], index  # key order too
