"""Each enumeration guard at its boundary: with the limit a module binds
lowered, a model exactly at the limit runs and one step past it is
refused before any work, counted rather than timed."""

from __future__ import annotations

import pytest

from bntrim import (
    Classifier,
    CostModel,
    EnumerationLimitError,
    eca_bruteforce,
    enumerate_feasible,
    maa,
    maa_bruteforce,
)
from bntrim import agreement, baselines, trimsearch

from conftest import binary_chain
from test_inference import count_reads
from test_trimsearch import big_nb


def chain_classifier(n: int) -> Classifier:
    """binary_chain(n)'s last variable as the class, every other one a
    feature."""
    return Classifier(f"X{n - 1}", 1, tuple(f"X{i}" for i in range(n - 1)), 0.5)


def test_joint_grid_guard(monkeypatch):
    monkeypatch.setattr(agreement, "CELL_LIMIT", 64)
    built = []
    ones = agreement.np.ones  # the joint's first array
    monkeypatch.setattr(agreement.np, "ones", lambda *a, **k: built.append(a) or ones(*a, **k))

    net, clf = binary_chain(6), chain_classifier(6)  # 64 cells: at the guard
    assert 0.0 <= maa(net, clf, clf.features[:2]).score <= 1.0
    assert built  # the counter sees the joint being built

    built.clear()
    net, clf = binary_chain(7), chain_classifier(7)
    with pytest.raises(EnumerationLimitError) as info:
        maa(net, clf, clf.features[:2])
    assert str(info.value) == "joint grid of 128 cells exceeds the 64 cell guard"
    assert built == []


def test_feasible_subset_guard(monkeypatch):
    monkeypatch.setattr(trimsearch, "EXHAUSTIVE_LIMIT", 16)
    _, clf = big_nb(4)
    assert len(enumerate_feasible(clf, CostModel.unit(clf.features, 4))) == 16
    _, clf = big_nb(5)
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_feasible(clf, CostModel.unit(clf.features, 5))
    assert str(info.value) == "2^5 subsets exceed the enumeration guard"


def test_oracle_feature_space_guard(monkeypatch):
    monkeypatch.setattr(baselines, "EXHAUSTIVE_LIMIT", 16)
    reads = []
    net, clf = big_nb(4)  # 16 feature instantiations: at the guard
    net = count_reads(net, reads)
    beta = Classifier(clf.class_var, clf.positive_value, clf.features[:1], 0.5)
    assert 0.0 <= eca_bruteforce(net, clf, beta) <= 1.0
    assert reads  # the counter sees the enumeration
    reads.clear()
    assert 0.0 <= maa_bruteforce(net, clf, beta.features)[0] <= 1.0
    assert reads

    reads.clear()
    net, clf = big_nb(5)
    net = count_reads(net, reads)
    beta = Classifier(clf.class_var, clf.positive_value, clf.features[:1], 0.5)
    message = "feature space of 32 instantiations exceeds the enumeration guard"
    for call in (
        lambda: eca_bruteforce(net, clf, beta),
        lambda: maa_bruteforce(net, clf, beta.features),
    ):
        with pytest.raises(EnumerationLimitError) as info:
            call()
        assert str(info.value) == message
    assert reads == []
