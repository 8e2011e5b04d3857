"""Exact joint/marginal/posterior computation and threshold decisions."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    Cpt,
    EnumerationLimitError,
    ModelError,
    Variable,
    ZeroEvidenceError,
    assignment_from_labels,
    classify,
    eca_bruteforce,
    esdp_two_threshold,
    info_gain,
    maa_bruteforce,
    marginal,
    posterior_class,
    sdp,
)
from bntrim import inference

from conftest import binary_chain, binary_dag, dag_networks


class TestJointAndMarginal:
    def test_joint_prob_is_cpt_product(self, quiz_net):
        # Pr(C=+, Q1=+, Q2=+, Q3=+) = 0.1 * 0.9 * 0.9 * 0.4
        a = {"C": 0, "Q1": 0, "Q2": 0, "Q3": 0}
        assert marginal(quiz_net, a) == pytest.approx(0.1 * 0.9 * 0.9 * 0.4, abs=1e-15)

    def test_joint_sums_to_one(self, quiz_net):
        total = math.fsum(
            marginal(quiz_net, dict(zip(("C", "Q1", "Q2", "Q3"), combo)))
            for combo in itertools.product((0, 1), repeat=4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_marginal_sums_completions(self, quiz_net):
        assert marginal(quiz_net, {"Q3": 0}) == pytest.approx(0.22, abs=1e-12)
        assert marginal(quiz_net, {}) == pytest.approx(1.0, abs=1e-12)

    def test_assignment_from_labels(self, quiz_net):
        a = assignment_from_labels(quiz_net, {"C": "+", "Q3": "-"})
        assert a == {"C": 0, "Q3": 1}
        with pytest.raises(ModelError):
            assignment_from_labels(quiz_net, {"C": "maybe"})


def reference_joint(net: BayesianNetwork, full) -> float:
    """A full assignment's CPT product, a zero product returned as 0.0."""
    p = 1.0
    for v in net.variables:
        cpt = net.cpt(v.name)
        row = 0
        for parent in cpt.parents:
            row = row * net.var(parent).cardinality + full[parent]
        p *= cpt.rows[row][full[v.name]]
        if p == 0.0:
            return 0.0
    return p


def reference_marginal(net: BayesianNetwork, a) -> float:
    """fsum of reference_joint over every completion of the assignment."""
    free = [v for v in net.variables if v.name not in a]
    return math.fsum(
        reference_joint(net, {**a, **{v.name: i for v, i in zip(free, combo)}})
        for combo in itertools.product(*(range(v.cardinality) for v in free))
    )


@st.composite
def late_parent_networks(draw, all_deterministic: bool = False, max_features: int = 4):
    """A random DAG over a binary class "C" and 1..max_features features,
    declared "C" first and each variable's parents after it, so the
    declaration order is the reverse of a topological one and the class
    has parents whenever it can.  With ``all_deterministic`` every CPT row
    has one entry 1 and the rest 0; otherwise about one row in four."""
    n = draw(st.integers(1, max_features))
    names = ["C"] + [f"X{i}" for i in range(1, n + 1)]
    cards = [2] + [draw(st.integers(2, 3)) for _ in range(n)]
    cpds = []
    for i, child in enumerate(names):
        later = names[i + 1:]
        parents = ()
        if later:
            count = draw(st.integers(1 if child == "C" else 0, min(2, len(later))))
            parents = tuple(draw(st.permutations(later))[:count])
        card = cards[i]
        rows = []
        for _ in range(math.prod(cards[names.index(p)] for p in parents)):
            if all_deterministic or draw(st.integers(0, 3)) == 0:
                hot = draw(st.integers(0, card - 1))
                rows.append(tuple(float(j == hot) for j in range(card)))
            else:
                weights = draw(st.lists(st.integers(1, 20), min_size=card, max_size=card))
                rows.append(tuple(w / sum(weights) for w in weights))
        cpds.append(Cpt(child, parents, tuple(rows)))
    variables = tuple(Variable(m, tuple(f"v{j}" for j in range(k))) for m, k in zip(names, cards))
    net = BayesianNetwork(variables, tuple(cpds))
    assert net.order is not None and net.order != net.names
    return net, Classifier("C", draw(st.integers(0, 1)), tuple(names[1:]), 0.5)


def draw_partial(data, net: BayesianNetwork, always=()) -> dict[str, int]:
    """A partial assignment that assigns each name in ``always`` and any
    other variable at random."""
    partial = {}
    for v in net.variables:
        value = data.draw(st.integers(0, v.cardinality - 1))
        if v.name in always or data.draw(st.booleans()):
            partial[v.name] = value
    return partial


class TestScalarPathContract:
    @settings(max_examples=200, deadline=None)
    @given(dag_networks(), st.data())
    def test_marginal_and_joint_equal_per_completion_products(self, model, data):
        net, _ = model
        partial = {}
        for v in net.variables:
            value = data.draw(st.none() | st.integers(0, v.cardinality - 1))
            if value is not None:
                partial[v.name] = value
        assert marginal(net, partial).hex() == reference_marginal(net, partial).hex()
        full = {v.name: data.draw(st.integers(0, v.cardinality - 1)) for v in net.variables}
        assert marginal(net, full).hex() == reference_joint(net, full).hex()

    @settings(max_examples=150, deadline=None)
    @given(late_parent_networks(), st.data())
    def test_parents_declared_after_their_children(self, model, data):
        net, _ = model
        partial = draw_partial(data, net)
        assert marginal(net, partial).hex() == reference_marginal(net, partial).hex()
        full = draw_partial(data, net, always=net.names)
        assert marginal(net, full).hex() == reference_joint(net, full).hex()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(dag_networks(), late_parent_networks()), st.data())
    def test_evidence_including_the_class(self, model, data):
        net, clf = model
        partial = draw_partial(data, net, always=(clf.class_var,))
        assert marginal(net, partial).hex() == reference_marginal(net, partial).hex()
        evidence = {f: v for f, v in partial.items() if f != clf.class_var}
        if reference_marginal(net, evidence) > 0.0:
            joint = {**evidence, clf.class_var: clf.positive_value}
            expected = reference_marginal(net, joint) / reference_marginal(net, evidence)
            assert posterior_class(net, clf, evidence).hex() == expected.hex()

    @settings(max_examples=150, deadline=None)
    @given(late_parent_networks(all_deterministic=True), st.data())
    def test_deterministic_rows(self, model, data):
        net, _ = model
        partial = draw_partial(data, net)
        mass = marginal(net, partial)
        assert mass.hex() == reference_marginal(net, partial).hex()
        assert mass in (0.0, 1.0)

    def test_malformed_cpt_is_never_read_past_a_row(self):
        # Built directly, not parsed: A's one row has one entry too few.
        # The check every query runs refuses it before any entry is read,
        # even for an assignment whose products would stay inside the row.
        short = BayesianNetwork(
            (Variable("A", ("0", "1")), Variable("B", ("0", "1"))),
            (Cpt("A", (), ((1.0,),)), Cpt("B", ("A",), ((0.5, 0.5), (0.5, 0.5)))),
        )
        for a in ({"A": 0, "B": 0}, {"A": 1}):
            with pytest.raises(ModelError, match="cpt 'A' row 0: expected 2 entries, found 1"):
                marginal(short, a)

    @pytest.mark.parametrize(
        "a, message",
        [
            ({"Z": 0}, "unknown variable 'Z'"),
            ({"Q1": 2}, "value index 2 out of range for 'Q1'"),
            ({"C": -1}, "value index -1 out of range for 'C'"),
            ({"Q1": 1.0}, "value index 1.0 out of range for 'Q1'"),
            ({"Q1": "0"}, "value index '0' out of range for 'Q1'"),
            # A bool is an int to isinstance, but not a value index.
            ({"Q1": True}, "value index True out of range for 'Q1'"),
            ({"C": False}, "value index False out of range for 'C'"),
        ],
    )
    def test_marginal_errors(self, quiz_net, a, message):
        with pytest.raises(ModelError) as info:
            marginal(quiz_net, a)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "features, a, message",
        [
            (("Q1", "Z"), {"Q1": 0}, "unknown variable 'Z'"),
            (("Q1", "Q2", "Q3"), {"Z": 0}, "kept set names non-features: ['Z']"),
            (("Q1", "Q2", "Q3"), {"Q1": 2}, "value index 2 out of range for 'Q1'"),
            (("Q1", "Q2", "Q3"), {"Q3": 0.0}, "value index 0.0 out of range for 'Q3'"),
            (("Q1", "Q2", "Q3"), {"Q2": True}, "value index True out of range for 'Q2'"),
        ],
    )
    def test_posterior_class_errors(self, quiz_net, features, a, message):
        with pytest.raises(ModelError) as info:
            posterior_class(quiz_net, Classifier("C", 0, features, 0.5), a)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "a, message",
        [
            ({"C": 0, "Q1": 0, "Q3": 2}, "value index 2 out of range for 'Q3'"),
            ({"C": 0, "Q1": 2, "Q2": 0, "Q3": 0}, "value index 2 out of range for 'Q1'"),
            ({"Q2": -1}, "value index -1 out of range for 'Q2'"),
            ({"C": 0, "Q1": 0, "Q2": 0, "Q3": 0, "Z": 0}, "unknown variable 'Z'"),
        ],
    )
    def test_joint_prob_errors(self, quiz_net, a, message):
        with pytest.raises(ModelError) as info:
            marginal(quiz_net, a)
        assert str(info.value) == message

    def test_joint_prob_checks_the_network_first(self):
        cyclic = BayesianNetwork(
            (Variable("A", ("0", "1")), Variable("B", ("0", "1"))),
            (
                Cpt("A", ("B",), ((0.5, 0.5), (0.5, 0.5))),
                Cpt("B", ("A",), ((0.5, 0.5), (0.5, 0.5))),
            ),
        )
        with pytest.raises(ModelError) as info:
            marginal(cyclic, {"A": 7})
        assert str(info.value) == "network is not valid: cycle detected: A -> B -> A"


class TestPosterior:
    def test_fixture_posteriors(self, quiz_net, quiz_alpha):
        assert posterior_class(quiz_net, quiz_alpha, {"Q3": 0}) == pytest.approx(
            2 / 11, abs=1e-12
        )
        assert posterior_class(quiz_net, quiz_alpha, {"Q3": 1}) == pytest.approx(
            1 / 13, abs=1e-12
        )

    def test_general_network_posterior(self, gbn4_net, gbn4_alpha):
        assert marginal(gbn4_net, {"F1": 1, "F2": 0}) == pytest.approx(0.08, abs=1e-12)
        assert posterior_class(gbn4_net, gbn4_alpha, {"F1": 1, "F2": 0}) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_zero_evidence_raises(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("u", "v"))),
            (Cpt("C", (), ((1.0, 0.0),)), Cpt("X", ("C",), ((0.0, 1.0), (0.5, 0.5)))),
        )
        clf = Classifier("C", 0, ("X",), 0.5)
        with pytest.raises(ZeroEvidenceError):
            posterior_class(net, clf, {"X": 0})


class TestDecisions:
    def test_threshold_comparison_is_inclusive(self):
        # Posterior exactly equal to the threshold decides positive.
        net = BayesianNetwork(
            (Variable("C", ("neg", "pos")), Variable("X", ("u", "v"))),
            (Cpt("C", (), ((0.5, 0.5),)), Cpt("X", ("C",), ((0.5, 0.5), (0.5, 0.5)))),
        )
        clf = Classifier("C", 1, ("X",), 0.5)
        assert posterior_class(net, clf, {"X": 0}) == 0.5
        assert classify(net, clf, {"X": 0})
        above = math.nextafter(0.5, 1.0)
        assert not classify(net, replace(clf, threshold=above), {"X": 0})

    def test_classify_matches_posterior_threshold(self, quiz_net, quiz_alpha):
        for combo in itertools.product((0, 1), repeat=3):
            a = dict(zip(("Q1", "Q2", "Q3"), combo))
            expected = posterior_class(quiz_net, quiz_alpha, a) >= quiz_alpha.threshold
            assert classify(quiz_net, quiz_alpha, a) == expected

    def test_decide_at_overrides_threshold(self, quiz_net, quiz_alpha):
        a = {"Q1": 0, "Q2": 1, "Q3": 1}
        p = posterior_class(quiz_net, quiz_alpha, a)
        assert classify(quiz_net, replace(quiz_alpha, threshold=p), a)
        above = math.nextafter(p, 1.0)
        assert not classify(quiz_net, replace(quiz_alpha, threshold=above), a)


def count_reads(net: BayesianNetwork, reads: list) -> BayesianNetwork:
    """The network, its factor plan's CPT rows swapped for ones that
    record every row index read: no product starts without a read.  Past
    a thousand reads they fail the test, so a missing guard fails fast
    instead of enumerating millions of completions."""

    class Rows(tuple):
        def __getitem__(self, r):
            reads.append(r)
            assert len(reads) <= 1000, "enumeration ran past the guard"
            return tuple.__getitem__(self, r)

    plan = net._plan
    factors = tuple((child, parents, Rows(rows)) for child, parents, rows in plan.factors)
    net.__dict__["_plan"] = plan._replace(factors=factors)
    return net


class TestEnumerationGuard:
    def test_refuses_before_the_first_product(self):
        # 25 binary variables: 2**23 completions even with two observed.
        reads = []
        net = count_reads(binary_chain(25), reads)
        clf = Classifier("X24", 1, ("X0", "X1"), 0.5)
        calls = [
            lambda: marginal(net, {}),
            lambda: marginal(net, {"X0": 0, "X1": 1}),
            lambda: posterior_class(net, clf, {"X0": 0, "X1": 1}),
            lambda: sdp(net, clf, ("X1",), {"X0": 0}),
            lambda: inference.sdp(net, clf, ("X1",), {"X0": 0}),
            lambda: info_gain(net, clf),
            lambda: esdp_two_threshold(net, clf, 0.5, ("X1",), ("X0",)),
            lambda: eca_bruteforce(net, clf, Classifier("X24", 1, ("X0",), 0.5)),
            lambda: maa_bruteforce(net, clf, ("X0",)),
        ]
        for call in calls:
            with pytest.raises(EnumerationLimitError, match="exceeds the 4194304 cell guard"):
                call()
        assert reads == []

    def test_guard_counts_the_free_variables(self, monkeypatch):
        monkeypatch.setattr(inference, "CELL_LIMIT", 8)
        reads = []
        net = count_reads(binary_chain(4), reads)
        assert marginal(net, {"X0": 0}) == pytest.approx(0.5, abs=1e-15)
        assert reads  # 8 completions: at the guard, not over it
        reads.clear()
        with pytest.raises(EnumerationLimitError) as info:
            marginal(net, {})
        assert str(info.value) == "enumeration of 16 completions exceeds the 8 cell guard"
        assert reads == []


def reference_terms(net: BayesianNetwork, a, names: tuple[str, ...]) -> dict:
    """``_terms`` by the letter: one ``reference_joint`` product per
    completion of the assignment, zeros dropped, grouped by the values of
    ``names``; each group as its sorted ``float.hex`` list."""
    free = [v for v in net.variables if v.name not in a]
    groups: dict = {}
    for combo in itertools.product(*(range(v.cardinality) for v in free)):
        full = {**a, **{v.name: i for v, i in zip(free, combo)}}
        p = reference_joint(net, full)
        if p != 0.0:
            groups.setdefault(tuple(full[m] for m in names), []).append(p)
    return hex_groups(groups)


def hex_groups(groups: dict) -> dict:
    return {key: sorted(map(float.hex, terms)) for key, terms in groups.items()}


def scanned_first_reads(net: BayesianNetwork) -> tuple[int, ...]:
    """Per variable, the declaration index of the first variable whose CPT
    names it, as child or as parent."""
    return tuple(
        next(i for i, w in enumerate(net.names) if v == w or v in net.cpt(w).parents)
        for v in net.names
    )


def shuffled_dag(rng: random.Random) -> BayesianNetwork:
    """A seeded DAG over "C", "L" and 1-3 features "Xi", of cardinality
    2-3: CPTs drawn along one random topological order with up to two
    parents each, variables declared in another random order, and about
    one CPT row in four deterministic (one entry 1, the rest 0)."""
    names = ["C", "L"] + [f"X{i}" for i in range(1, rng.randint(1, 3) + 1)]
    cards = {m: rng.randint(2, 3) for m in names}
    topo = rng.sample(names, len(names))
    cpds = []
    for i, child in enumerate(topo):
        parents = tuple(rng.sample(topo[:i], min(i, rng.randint(0, 2))))
        card = cards[child]
        rows = []
        for _ in range(math.prod(cards[p] for p in parents)):
            if rng.random() < 0.25:
                hot = rng.randrange(card)
                rows.append(tuple(float(j == hot) for j in range(card)))
            else:
                weights = [rng.randint(1, 20) for _ in range(card)]
                rows.append(tuple(w / sum(weights) for w in weights))
        cpds.append(Cpt(child, parents, tuple(rows)))
    declared = rng.sample(names, len(names))
    variables = tuple(Variable(m, tuple(f"v{j}" for j in range(cards[m]))) for m in declared)
    return BayesianNetwork(variables, tuple(cpds))


def assert_terms(net: BayesianNetwork, a, names: tuple[str, ...]) -> None:
    assert hex_groups(inference._terms(net, a, names)) == reference_terms(net, a, names)


class TestTermsByTheLetter:
    """``_terms``, which shares each product's factors up to the inner
    variable, against one product per completion."""

    def test_seeded_dags(self):
        # The plan's first reads against a direct scan; evidence on 0-2
        # variables; names empty, holding every variable that can be the
        # inner one (the free ones read first by the latest factor), and
        # holding none of them.
        not_topological = inner_inside = 0
        for seed in range(400):
            rng = random.Random(seed)
            net = shuffled_dag(rng)
            not_topological += net.order != net.names
            assert net._plan.first_read == scanned_first_reads(net)
            first_read = dict(zip(net.names, net._plan.first_read))
            observed = rng.sample(net.names, rng.randint(0, 2))
            a = {m: rng.randrange(net.var(m).cardinality) for m in observed}
            free = [m for m in net.names if m not in a]
            last = max(first_read[m] for m in free)
            inner = [m for m in free if first_read[m] == last]
            rest = [m for m in net.names if m not in inner]
            with_inner = inner + rng.sample(rest, rng.randint(0, len(rest)))
            without = rng.sample(rest, rng.randint(0, len(rest)))
            keyed = tuple(rng.sample(with_inner, len(with_inner)))
            for names in ((), keyed, tuple(without)):
                assert_terms(net, a, names)
            inner_inside += keyed[-1] not in inner
        # Most declaration orders are not topological, and many keys hold
        # the inner variable before their last slot.
        assert not_topological > 200
        assert inner_inside > 100

    @pytest.mark.parametrize(
        "parents",
        [
            {"C": (), "F1": ("C",), "L": ("C", "F1")},  # the latent is the inner variable
            {"C": (), "L": ("C",), "F1": ("L",), "F2": ("C",)},  # it is read in the head
        ],
    )
    def test_latent_variable(self, parents):
        net = binary_dag(parents, seed=3)
        for a in ({}, {"F1": 1}):
            for names in ((), ("C",), ("F1", "C")):
                assert_terms(net, a, names)

    def test_one_variable_network(self):
        net = BayesianNetwork(
            (Variable("A", ("a0", "a1", "a2")),), (Cpt("A", (), ((0.25, 0.0, 0.75),)),)
        )
        for a in ({}, {"A": 1}, {"A": 2}):
            for names in ((), ("A",)):
                assert_terms(net, a, names)
        assert inference._terms(net, {"A": 1}) == {}

    def test_no_free_variable(self):
        for seed in range(30):
            rng = random.Random(seed)
            net = shuffled_dag(rng)
            a = {m: rng.randrange(net.var(m).cardinality) for m in net.names}
            for names in ((), tuple(rng.sample(net.names, 2))):
                assert_terms(net, a, names)
        assert_terms(BayesianNetwork((), ()), {}, ())
