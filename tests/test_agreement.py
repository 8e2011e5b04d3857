"""Agreement metrics: instance tables, ECA, SDP, two-threshold E-SDP, MPA,
and the threshold-sweep MAA computation."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    EnumerationLimitError,
    InstanceTable,
    ModelError,
    ThresholdInterval,
    Variable,
    ZeroEvidenceError,
    build_instance_table,
    classify,
    compute_maa,
    eca,
    eca_trim,
    enumerate_feasible,
    esdp_two_threshold,
    maa,
    marginal,
    mpa,
    posterior_class,
    sdp,
)

from bntrim import agreement, inference

from conftest import (
    bound_filter_models,
    dag_networks,
    nb_instance,
    random_dag_instance,
    random_instance,
    random_subset,
)


def trimmed(clf: Classifier, features, threshold: float) -> Classifier:
    return Classifier(clf.class_var, clf.positive_value, tuple(features), threshold)


def row_values(net: BayesianNetwork, table: InstanceTable) -> list[tuple[int, ...]]:
    """Each row's instantiation of the table's features, read off its
    C-order index."""
    every = list(itertools.product(*(range(net.var(f).cardinality) for f in table.features)))
    return [every[i] for i in table.rows.tolist()]


def row_table(masses, posteriors, rates) -> InstanceTable:
    """A one-feature table of the given rows, in the given order."""
    return InstanceTable(
        ("X",), np.arange(len(masses)), np.array(masses, dtype=float),
        np.array(posteriors, dtype=float), np.array(rates, dtype=float),
    )


class TestInstanceTable:
    def test_quiz_single_feature_rows(self, quiz_net, quiz_alpha):
        table = build_instance_table(quiz_net, quiz_alpha, ("Q3",))
        assert table.features == ("Q3",)
        assert row_values(quiz_net, table) == [(1,), (0,)]  # sorted by posterior
        (lo_mass, hi_mass), (lo_posterior, hi_posterior), (lo_rate, hi_rate) = (
            table.mass.tolist(), table.posterior.tolist(), table.rate.tolist()
        )
        assert lo_mass == pytest.approx(0.78, abs=1e-12)
        assert lo_posterior == pytest.approx(1 / 13, abs=1e-12)
        assert lo_rate == pytest.approx(0.2284615384615385, abs=1e-12)
        assert hi_mass == pytest.approx(0.22, abs=1e-12)
        assert hi_posterior == pytest.approx(2 / 11, abs=1e-12)
        assert hi_rate == pytest.approx(0.4090909090909091, abs=1e-12)

    def test_gbn4_pair_rows(self, gbn4_net, gbn4_alpha):
        table = build_instance_table(gbn4_net, gbn4_alpha, ("F1", "F2"))
        assert row_values(gbn4_net, table) == [(1, 1), (0, 1), (0, 0), (1, 0)]
        masses = table.mass.tolist()
        posteriors = table.posterior.tolist()
        rates = table.rate.tolist()
        assert masses == pytest.approx([0.02, 0.432, 0.468, 0.08], abs=1e-12)
        assert posteriors == pytest.approx([0.0, 0.5, 9 / 13, 0.75], abs=1e-12)
        assert rates == pytest.approx([0.0, 0.7, 0.4153846153846154, 0.45], abs=1e-12)

    def test_mass_sums_to_one(self, quiz_net, quiz_alpha, gbn4_net, gbn4_alpha):
        for net, clf, subset in (
            (quiz_net, quiz_alpha, ()),
            (quiz_net, quiz_alpha, ("Q1", "Q2")),
            (gbn4_net, gbn4_alpha, ("F2", "F3")),
            (gbn4_net, gbn4_alpha, ("F1", "F2", "F3")),
        ):
            table = build_instance_table(net, clf, subset)
            assert math.fsum(table.mass.tolist()) == pytest.approx(1.0, abs=1e-9)
            for posterior, rate in zip(table.posterior.tolist(), table.rate.tolist()):
                assert 0.0 <= posterior <= 1.0
                assert 0.0 <= rate <= 1.0

    def test_full_feature_set_has_indicator_rates(self, gbn4_net, gbn4_alpha):
        table = build_instance_table(gbn4_net, gbn4_alpha, gbn4_alpha.features)
        assert all(rate in (0.0, 1.0) for rate in table.rate.tolist())

    def test_rows_sorted_nondecreasing(self, gbn4_net, gbn4_alpha):
        table = build_instance_table(gbn4_net, gbn4_alpha, ("F2", "F3"))
        posteriors = table.posterior.tolist()
        assert posteriors == sorted(posteriors)

    def test_zero_mass_rows_dropped(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("u", "v"))),
            (Cpt("C", (), ((0.6, 0.4),)), Cpt("X", ("C",), ((1.0, 0.0), (1.0, 0.0)))),
        )
        table = build_instance_table(net, Classifier("C", 0, ("X",), 0.5), ("X",))
        assert len(table.rows) == 1
        assert row_values(net, table)[0] == (0,)

    def test_kept_features_normalized_to_classifier_order(self, quiz_net, quiz_alpha):
        table = build_instance_table(quiz_net, quiz_alpha, ("Q3", "Q1"))
        assert table.features == ("Q1", "Q3")

    def test_rejects_non_feature(self, quiz_net, quiz_alpha):
        with pytest.raises(ModelError):
            build_instance_table(quiz_net, quiz_alpha, ("C",))

    @pytest.mark.parametrize("features", [3, 10])
    def test_arrays_are_fresh_copies(self, features):
        # A caller zeroing a table in place must not reach the cached
        # classifier grid behind later tables, whether the rows are summed
        # by fsum (3 features) or by one numpy pass (10).
        net, clf = nb_instance(random.Random(features), features, max_card=2)
        kept = clf.features[1:]
        beta = trimmed(clf, kept, clf.threshold)

        def bits():
            table = build_instance_table(net, clf, kept)
            arrays = [x.hex() for a in (table.mass, table.posterior, table.rate) for x in a.tolist()]
            result = maa(net, clf, kept)
            return (
                table.rows.tolist(), arrays, result.score.hex(), result.interval,
                mpa(net, clf, kept).hex(), eca(net, clf, beta).hex(),
            )

        before = bits()
        table = build_instance_table(net, clf, kept)
        # Every row kept, each laying out 2 grid cells of 3 kinds: 6 per
        # row, against the crossover.
        assert (6 * len(table.rows) >= agreement._NUMPY_MIN_CELLS) == (features == 10)
        for array in (table.mass, table.posterior, table.rate):
            array[...] = 0.0
        assert bits() == before


class TestThresholdInterval:
    def test_contains_is_left_open_right_closed(self):
        iv = ThresholdInterval(0.2, 0.5)
        assert not iv.contains(0.2)
        assert iv.contains(0.5)
        assert iv.contains(0.3)
        assert not iv.contains(0.6)

    def test_representative_rules(self):
        assert ThresholdInterval(0.2, 0.5).representative == 0.5
        sentinel = ThresholdInterval(0.25, math.inf)
        assert sentinel.representative == 1.25
        assert sentinel.contains(100.0)
        low = ThresholdInterval(-math.inf, 0.3)
        assert low.representative == 0.3


class TestEca:
    def test_fixture_values(self, quiz_net, quiz_alpha):
        assert eca(quiz_net, quiz_alpha, trimmed(quiz_alpha, ("Q1", "Q3"), 0.10)) == (
            pytest.approx(0.9082, abs=1e-9)
        )
        assert eca(quiz_net, quiz_alpha, trimmed(quiz_alpha, ("Q3",), 0.15)) == (
            pytest.approx(0.6918, abs=1e-9)
        )

    def test_identical_classifier_agrees_fully(self, quiz_net, quiz_alpha):
        assert eca(quiz_net, quiz_alpha, quiz_alpha) == 1.0

    def test_rejects_extra_features(self, quiz_net):
        alpha = Classifier("C", 0, ("Q1", "Q2"), 0.07)
        beta = Classifier("C", 0, ("Q1", "Q3"), 0.10)
        with pytest.raises(ModelError):
            eca(quiz_net, alpha, beta)

    def test_rejects_mismatched_class_setup(self, quiz_net, quiz_alpha):
        beta = Classifier("C", 1, ("Q1",), 0.10)
        with pytest.raises(ModelError):
            eca(quiz_net, quiz_alpha, beta)


class TestSdp:
    def test_fixture_value(self, quiz_net, quiz_alpha):
        assert sdp(quiz_net, quiz_alpha, ("Q1", "Q2"), {"Q3": 0}) == pytest.approx(
            0.4090909090909091, abs=1e-9
        )

    def test_empty_query_is_certain(self, quiz_net, quiz_alpha):
        assert sdp(quiz_net, quiz_alpha, (), {"Q3": 0}) == 1.0

    def test_zero_threshold_never_changes_decision(self, quiz_net):
        clf = Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.0)
        assert sdp(quiz_net, clf, ("Q1", "Q2"), {"Q3": 1}) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_overlap_and_non_features(self, quiz_net, quiz_alpha):
        with pytest.raises(ModelError):
            sdp(quiz_net, quiz_alpha, ("Q3",), {"Q3": 0})
        with pytest.raises(ModelError):
            sdp(quiz_net, quiz_alpha, ("Q1",), {"C": 0})

    def test_zero_evidence_raises(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("u", "v")), Variable("Y", ("u", "v"))),
            (
                Cpt("C", (), ((1.0, 0.0),)),
                Cpt("X", ("C",), ((0.0, 1.0), (0.5, 0.5))),
                Cpt("Y", ("C",), ((0.5, 0.5), (0.5, 0.5))),
            ),
        )
        clf = Classifier("C", 0, ("X", "Y"), 0.5)
        with pytest.raises(ZeroEvidenceError):
            sdp(net, clf, ("Y",), {"X": 0})


    @settings(max_examples=200, deadline=None)
    @given(dag_networks(), st.data())
    def test_equals_per_completion_classify_at_attained_posteriors(self, model, data):
        net, clf = model
        observed = data.draw(st.lists(st.sampled_from(clf.features), unique=True))
        evidence = {f: data.draw(st.integers(0, net.var(f).cardinality - 1)) for f in observed}
        assume(marginal(net, evidence) > 0.0)
        rest = [f for f in clf.features if f not in evidence]
        query = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        completions = [
            {**evidence, **dict(zip(query, combo))}
            for combo in itertools.product(*(range(net.var(f).cardinality) for f in query))
        ]
        attained = [posterior_class(net, clf, evidence)] + [
            posterior_class(net, clf, full) for full in completions if marginal(net, full) > 0.0
        ]
        at = replace(clf, threshold=data.draw(st.sampled_from(attained)))

        # sdp as one classify call per positive-mass completion.
        base = classify(net, at, evidence)
        kept = [
            marginal(net, full) for full in completions
            if marginal(net, full) > 0.0 and classify(net, at, full) == base
        ]
        expected = math.fsum(kept) / marginal(net, evidence)
        assert sdp(net, at, query, evidence) == expected


def attained_posteriors(net, clf, query, evidence) -> list[float]:
    """The scalar route's posteriors given the evidence and given each
    positive-mass instantiation of the query on top of it."""
    completions = [
        {**evidence, **dict(zip(query, combo))}
        for combo in itertools.product(*(range(net.var(f).cardinality) for f in query))
    ]
    return [posterior_class(net, clf, evidence)] + [
        posterior_class(net, clf, full) for full in completions if marginal(net, full) > 0.0
    ]


def draw_sdp_call(net, clf, data) -> tuple[list[str], dict[str, int]]:
    """A query and evidence on 0-2 of the classifier's features."""
    observed = []
    if clf.features:
        observed = data.draw(st.lists(st.sampled_from(clf.features), unique=True, max_size=2))
    evidence = {f: data.draw(st.integers(0, net.var(f).cardinality - 1)) for f in observed}
    rest = [f for f in clf.features if f not in evidence]
    query = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return query, evidence


def zero_evidence_messages(net, clf, query, evidence) -> list[str]:
    """The ZeroEvidenceError message of the grid route and of its oracle."""
    messages = []
    for route in (sdp, inference.sdp):
        with pytest.raises(ZeroEvidenceError) as info:
            route(net, clf, query, evidence)
        messages.append(str(info.value))
    return messages


class TestSdpGridAgainstOracle:
    """``sdp`` reads the classifier grid; ``inference.sdp``, its scalar
    oracle, enumerates the evidence's completions.  When the classifier
    covers every non-class variable each grid cell is a completion
    product and every sum is correctly rounded, so the two agree bit for
    bit, at any threshold."""

    @settings(max_examples=200, deadline=None)
    @given(dag_networks(), st.data())
    def test_same_bits_as_the_oracle(self, model, data):
        net, clf = model
        query, evidence = draw_sdp_call(net, clf, data)
        if marginal(net, evidence) == 0.0:
            first, second = zero_evidence_messages(net, clf, query, evidence)
            assert first == second
            return
        attained = attained_posteriors(net, clf, query, evidence)
        at = replace(clf, threshold=data.draw(st.sampled_from([0.0, 2.0, *attained])))
        assert sdp(net, at, query, evidence).hex() == inference.sdp(net, at, query, evidence).hex()

    @settings(max_examples=100, deadline=None)
    @given(dag_networks(), st.data())
    def test_latent_variables_agree_within_1e_12(self, model, data):
        # The grid sums the latent variables' axes with numpy, so its
        # posteriors may differ from the scalar route's in the last bits,
        # and a threshold on an attained posterior may split the routes'
        # decisions.  Thresholds are 0, 2 and the midpoints between
        # attained posteriors more than 1e-9 apart.
        net, full = model
        kept = data.draw(st.lists(
            st.sampled_from(full.features), unique=True, max_size=len(full.features) - 1
        ))
        clf = replace(full, features=tuple(f for f in full.features if f in kept))
        query, evidence = draw_sdp_call(net, clf, data)
        if marginal(net, evidence) == 0.0:
            first, second = zero_evidence_messages(net, clf, query, evidence)
            assert first == second
            return
        attained = sorted(set(attained_posteriors(net, clf, query, evidence)))
        apart = [(a + b) / 2 for a, b in zip(attained, attained[1:]) if b - a > 1e-9 * b]
        at = replace(clf, threshold=data.draw(st.sampled_from([0.0, 2.0, *apart])))
        assert abs(sdp(net, at, query, evidence) - inference.sdp(net, at, query, evidence)) <= 1e-12

    def test_zero_evidence_message(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("u", "v")), Variable("Y", ("u", "v"))),
            (
                Cpt("C", (), ((1.0, 0.0),)),
                Cpt("X", ("C",), ((0.0, 1.0), (0.5, 0.5))),
                Cpt("Y", ("C",), ((0.5, 0.5), (0.5, 0.5))),
            ),
        )
        clf = Classifier("C", 0, ("X", "Y"), 0.5)
        assert zero_evidence_messages(net, clf, ("Y",), {"X": 0}) == [
            "evidence {'X': 0} has probability 0"
        ] * 2

    @pytest.mark.parametrize(
        "query, evidence, message",
        [
            (("Q1",), {"Q3": 2}, "value index 2 out of range for 'Q3'"),
            (("Q1",), {"Q3": 0.0}, "value index 0.0 out of range for 'Q3'"),
            (("Q1",), {"Q3": "0"}, "value index '0' out of range for 'Q3'"),
            (("Q1",), {"C": 0}, "kept set names non-features: ['C']"),
            (("Q1", "Q3"), {"Q3": 0}, "kept set names 'Q3' twice"),
            ("Q1", {"Q3": 0}, "expected a collection of names, got the string 'Q1'"),
            (("Q1",), {"Q3": True}, "value index True out of range for 'Q3'"),
        ],
    )
    def test_same_checks_as_the_oracle(self, quiz_net, quiz_alpha, query, evidence, message):
        for route in (sdp, inference.sdp):
            with pytest.raises(ModelError) as info:
                route(quiz_net, quiz_alpha, query, evidence)
            assert str(info.value) == message


class TestClassOnlyNetwork:
    """With no features the empty subset is the only one, and the trimmed
    classifier decides as the full one wherever their thresholds fall on
    the same side of Pr(+) = 0.7."""

    NET = BayesianNetwork((Variable("C", ("-", "+")),), (Cpt("C", (), ((0.3, 0.7),)),))
    CLF = Classifier("C", 1, (), 0.5)

    def test_agreement_measures(self):
        result = maa(self.NET, self.CLF, ())
        assert result.score == 1.0
        assert (result.interval.lo, result.interval.hi) == (-math.inf, 0.7)
        assert mpa(self.NET, self.CLF, ()) == 1.0
        assert eca(self.NET, self.CLF, trimmed(self.CLF, (), 0.7)) == 1.0
        assert eca(self.NET, self.CLF, trimmed(self.CLF, (), 0.9)) == 0.0

    def test_trim(self):
        result = eca_trim(self.NET, self.CLF, CostModel({}, 0.0))
        assert result.best_features == ()
        assert result.best_score == 1.0
        assert result.threshold.hi == 0.7


class TestEsdpTwoThreshold:
    def test_no_hidden_same_threshold_is_one(self, quiz_net, quiz_alpha):
        full = ("Q1", "Q2", "Q3")
        value = esdp_two_threshold(quiz_net, quiz_alpha, quiz_alpha.threshold, (), full)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_equals_eca_of_the_trimming(self, quiz_net, quiz_alpha):
        assert esdp_two_threshold(
            quiz_net, quiz_alpha, 0.15, ("Q1", "Q2"), ("Q3",)
        ) == pytest.approx(0.6918, abs=1e-9)
        assert esdp_two_threshold(
            quiz_net, quiz_alpha, 0.10, ("Q2",), ("Q1", "Q3")
        ) == pytest.approx(0.9082, abs=1e-9)

    def test_rejects_overlap(self, quiz_net, quiz_alpha):
        with pytest.raises(ModelError):
            esdp_two_threshold(quiz_net, quiz_alpha, 0.1, ("Q1",), ("Q1", "Q3"))


def classify_sdp(net, clf, query, evidence) -> float:
    """sdp with its evidence decision taken by classify, which computes
    the evidence mass a second time."""
    pe = marginal(net, dict(evidence))
    base = classify(net, clf, dict(evidence))
    terms = []
    for combo in itertools.product(*(range(net.var(f).cardinality) for f in query)):
        full = {**evidence, **dict(zip(query, combo))}
        p = marginal(net, full)
        if p > 0.0:
            positive = marginal(net, {**full, clf.class_var: clf.positive_value})
            if (positive / p >= clf.threshold) == base:
                terms.append(p)
    return math.fsum(terms) / pe


def classify_esdp(net, clf, new_threshold, hidden, observed) -> float:
    """esdp_two_threshold with each observed instantiation's decision taken
    by classify at the new threshold, which computes its mass a second
    time."""
    terms = []
    for ocombo in itertools.product(*(range(net.var(f).cardinality) for f in observed)):
        part = dict(zip(observed, ocombo))
        if marginal(net, part) == 0.0:
            continue
        trimmed_decision = classify(net, replace(clf, threshold=new_threshold), part)
        for hcombo in itertools.product(*(range(net.var(f).cardinality) for f in hidden)):
            full = {**part, **dict(zip(hidden, hcombo))}
            p = marginal(net, full)
            if p > 0.0:
                positive = marginal(net, {**full, clf.class_var: clf.positive_value})
                if (positive / p >= clf.threshold) == trimmed_decision:
                    terms.append(p)
    return math.fsum(terms)


class TestOraclesComputeEachMassOnce:
    @settings(max_examples=150, deadline=None)
    @given(dag_networks(), st.data())
    def test_same_bits_as_classify_and_decide_at(self, model, data):
        net, clf = model
        observed = data.draw(st.lists(st.sampled_from(clf.features), unique=True))
        rest = [f for f in clf.features if f not in observed]
        hidden = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        observed = [f for f in clf.features if f in observed]
        hidden = [f for f in clf.features if f in hidden]
        evidence = {f: data.draw(st.integers(0, net.var(f).cardinality - 1)) for f in observed}
        attained = [0.0, 0.5, 1.0]
        if marginal(net, evidence) > 0.0:
            posterior = posterior_class(net, clf, evidence)
            positive = marginal(net, {**evidence, clf.class_var: clf.positive_value})
            assert posterior.hex() == (positive / marginal(net, evidence)).hex()
            attained.append(posterior)
        at = replace(clf, threshold=data.draw(st.sampled_from(attained)))
        new_threshold = data.draw(st.sampled_from(attained))

        got = esdp_two_threshold(net, at, new_threshold, hidden, observed)
        assert got.hex() == classify_esdp(net, at, new_threshold, hidden, observed).hex()
        if marginal(net, evidence) > 0.0:
            got = sdp(net, at, hidden, evidence)
            assert got.hex() == classify_sdp(net, at, hidden, evidence).hex()

    @pytest.mark.parametrize(
        "new_threshold, message",
        [
            (-0.1, "threshold must be a finite value >= 0, got -0.1"),
            (math.inf, "threshold must be a finite value >= 0, got inf"),
        ],
    )
    def test_esdp_checks_the_new_threshold(self, quiz_net, quiz_alpha, new_threshold, message):
        with pytest.raises(ModelError) as info:
            esdp_two_threshold(quiz_net, quiz_alpha, new_threshold, ("Q1",), ("Q3",))
        assert str(info.value) == message


class TestMpa:
    def test_fixture_values(self, quiz_net, quiz_alpha):
        assert mpa(quiz_net, quiz_alpha, ("Q3",)) == pytest.approx(0.7318, abs=1e-9)
        assert mpa(quiz_net, quiz_alpha, ()) == pytest.approx(0.7318, abs=1e-9)
        assert mpa(quiz_net, quiz_alpha, ("Q1", "Q2", "Q3")) == pytest.approx(1.0, abs=1e-12)

    def test_equals_fsum_over_table_rows(self):
        # mpa's terms must agree to the bit with the terms read off the
        # table's rows one at a time.
        rng = random.Random(2024)
        for i in range(24):
            if i % 2 == 0:
                net, clf = nb_instance(rng, rng.randint(2, 6), max_card=3)
            else:
                net, clf = random_dag_instance(rng, max_features=6, max_card=3)
            for _ in range(4):
                kept = random_subset(rng, clf)
                table = build_instance_table(net, clf, kept)
                expected = math.fsum(
                    max(r, 1.0 - r) * m for m, r in zip(table.mass.tolist(), table.rate.tolist())
                )
                assert mpa(net, clf, kept) == expected


class TestMpaEstimate:
    """The search's float estimate of mpa from a (total, hit) stack, and
    its certified error."""

    def test_error_bound_holds_for_every_kept_set_and_summing_order(self):
        rng = random.Random(2301)
        for net, clf in bound_filter_models():
            root = agreement._MpaBound.root(net, clf)
            for _ in range(4):
                dropped = [f for f in clf.features if rng.random() < 0.5]
                rng.shuffle(dropped)
                one_by_one = root
                for f in dropped:
                    one_by_one = one_by_one.without((f,))
                at_once = root.without(dropped)
                exact = mpa(net, clf, [f for f in clf.features if f not in dropped])
                for bound in (one_by_one, at_once):
                    assert abs(exact - bound.approx) <= bound.err
                    # Certified, but not vacuous: a few hundred ulps here.
                    assert bound.err <= 1e-12 * bound.approx + 1e-300

    def test_root_stack_and_summing_out(self, quiz_net, quiz_alpha):
        root = agreement._MpaBound.root(quiz_net, quiz_alpha)
        assert root.cells.shape == (2, 2, 2, 2) and root.additions == 0
        bound = root.without(("Q1",)).without(("Q3",))
        assert bound.cells.shape == (2, 1, 2, 1) and bound.additions == 2
        assert bound.kept == ("Q2",)
        assert root.without(("Q1", "Q3")).additions == 3
        assert abs(bound.approx - mpa(quiz_net, quiz_alpha, ("Q2",))) <= bound.err
        empty = root.without(quiz_alpha.features)
        assert empty.kept == ()
        assert abs(empty.approx - mpa(quiz_net, quiz_alpha, ())) <= empty.err


class TestComputeMaa:
    def test_gbn4_pair(self, gbn4_net, gbn4_alpha):
        result = maa(gbn4_net, gbn4_alpha, ("F1", "F2"))
        assert result.score == pytest.approx(0.5528, abs=1e-9)
        assert result.interval.lo == 0.0
        assert result.interval.hi == pytest.approx(0.5, abs=1e-12)

    def test_quiz_pairs(self, quiz_net, quiz_alpha):
        r13 = maa(quiz_net, quiz_alpha, ("Q1", "Q3"))
        assert r13.score == pytest.approx(0.9082, abs=1e-9)
        assert r13.interval.lo == pytest.approx(2 / 65, abs=1e-9)
        assert r13.interval.hi == pytest.approx(0.2, abs=1e-9)

        r12 = maa(quiz_net, quiz_alpha, ("Q1", "Q2"))
        assert r12.score == pytest.approx(0.9748, abs=1e-9)
        assert r12.interval.lo == pytest.approx(1 / 13, abs=1e-9)
        assert r12.interval.hi == pytest.approx(1 / 3, abs=1e-9)

        r23 = maa(quiz_net, quiz_alpha, ("Q2", "Q3"))
        assert r23.score == pytest.approx(0.7318, abs=1e-9)
        assert r23.interval.hi == math.inf
        assert r23.interval.representative == pytest.approx(1.25, abs=1e-9)

    def test_empty_subset(self, quiz_net, quiz_alpha):
        result = maa(quiz_net, quiz_alpha, ())
        assert result.score == pytest.approx(0.7318, abs=1e-9)
        assert result.interval.lo == pytest.approx(0.1, abs=1e-9)
        assert result.interval.hi == math.inf
        assert result.interval.representative == result.interval.lo + 1.0

    def test_full_set_interval_contains_original_threshold(self, quiz_net, quiz_alpha):
        result = maa(quiz_net, quiz_alpha, quiz_alpha.features)
        assert result.score == pytest.approx(1.0, abs=1e-12)
        assert result.interval.contains(quiz_alpha.threshold)

    def test_single_row_tie_takes_lowest_interval(self):
        table = InstanceTable((), np.array([0]), np.array([1.0]), np.array([0.3]), np.array([0.5]))
        result = compute_maa(table)
        assert result.score == 0.5
        assert result.interval.lo == -math.inf
        assert result.interval.hi == 0.3

    def test_interval_interior_thresholds_give_identical_eca(self, quiz_net, quiz_alpha):
        result = maa(quiz_net, quiz_alpha, ("Q1", "Q2"))
        lo, hi = result.interval.lo, result.interval.hi
        for t in (hi, (lo + hi) / 2, lo + (hi - lo) / 4):
            achieved = eca(quiz_net, quiz_alpha, trimmed(quiz_alpha, ("Q1", "Q2"), t))
            assert achieved == pytest.approx(result.score, abs=1e-12)

    def test_naive_bayes_maa_equals_mpa(self, quiz_net, quiz_alpha):
        for subset in ((), ("Q1",), ("Q2",), ("Q1", "Q3"), ("Q1", "Q2", "Q3")):
            assert maa(quiz_net, quiz_alpha, subset).score == pytest.approx(
                mpa(quiz_net, quiz_alpha, subset), abs=1e-9
            )

    def test_maa_at_least_eca_at_original_threshold(self, quiz_net, quiz_alpha):
        for subset in ((), ("Q2",), ("Q1", "Q3"), ("Q2", "Q3")):
            at_original = eca(
                quiz_net, quiz_alpha, trimmed(quiz_alpha, subset, quiz_alpha.threshold)
            )
            assert maa(quiz_net, quiz_alpha, subset).score >= at_original - 1e-12


def sweep_oracle(table: InstanceTable):
    """Independent threshold sweep: try every cut over distinct posteriors
    (rows below the cut decide negative) plus the all-negative cut."""
    masses, posteriors, rates = table.mass.tolist(), table.posterior.tolist(), table.rate.tolist()
    boundaries = [0]
    for i in range(1, len(posteriors)):
        if posteriors[i] != posteriors[i - 1]:
            boundaries.append(i)
    boundaries.append(len(posteriors))
    best_score = -math.inf
    best_cut = 0
    for cut in boundaries:
        terms = [m * (1.0 - r) for m, r in zip(masses[:cut], rates[:cut])]
        terms += [m * r for m, r in zip(masses[cut:], rates[cut:])]
        score = math.fsum(terms)
        if score > best_score:
            best_score = score
            best_cut = cut
    lo = posteriors[best_cut - 1] if best_cut > 0 else -math.inf
    hi = posteriors[best_cut] if best_cut < len(posteriors) else math.inf
    return best_score, lo, hi


@st.composite
def instance_tables(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    # Posteriors on a coarse grid so equal values are exactly equal and
    # distinct values are far beyond the grouping tolerance.
    posteriors = sorted(draw(st.lists(st.integers(0, 64), min_size=n, max_size=n)))
    masses = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    total = math.fsum(masses)
    rates = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
    return row_table([m / total for m in masses], [p / 64.0 for p in posteriors], rates)


@st.composite
def wide_instance_tables(draw):
    """Up to ~300 rows whose masses span many binades (1e-300 to 1), so
    the sweep's exact running sum spans them all."""
    n = draw(st.integers(min_value=1, max_value=300))
    posteriors = sorted(draw(st.lists(st.integers(0, 64), min_size=n, max_size=n)))
    masses = draw(
        st.lists(
            st.builds(
                lambda mant, exp: mant * 10.0 ** -exp,
                st.floats(1.0, 10.0, allow_nan=False),
                st.integers(1, 300),
            ),
            min_size=n,
            max_size=n,
        )
    )
    rates = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
    return row_table(masses, [p / 64.0 for p in posteriors], rates)


@st.composite
def tie_instance_tables(draw):
    """Rows whose masses are powers of two, all within 2**-60 of 1 or all
    within 2**60 of the smallest subnormal, with rates of 0, 1/2 or 1, so
    cut sums fall exactly halfway between two floats or in the subnormal
    range."""
    n = draw(st.integers(min_value=1, max_value=40))
    posteriors = sorted(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
    low = draw(st.sampled_from([0, 1014]))
    exponents = st.integers(low, low + 60)
    masses = draw(st.lists(exponents.map(lambda e: 2.0 ** -e), min_size=n, max_size=n))
    rates = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
    return row_table(masses, [p / 8.0 for p in posteriors], rates)


@st.composite
def near_tie_instance_tables(draw):
    """Rows in distinct posterior groups, alternating between masses in
    [0.01, 1] and masses 2**-53 to 2**-80 times one of those, so the cuts
    on either side of a small row differ by less than one ulp of the
    score: their float approximations cannot tell them apart."""
    n = draw(st.integers(min_value=2, max_value=60))
    masses = draw(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n))
    shifts = draw(st.lists(st.integers(53, 80), min_size=n, max_size=n))
    masses = [m * 2.0 ** -e if i % 2 else m for i, (m, e) in enumerate(zip(masses, shifts))]
    rate = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_nan=False))
    rates = draw(st.lists(rate, min_size=n, max_size=n))
    return row_table(masses, [i / n for i in range(n)], rates)


@st.composite
def plateau_instance_tables(draw):
    """Hundreds to thousands of rows, each its own posterior group, all at
    rate exactly 1/2: every cut scores half the total mass exactly, so
    every cut ties and the sweep must keep the lowest."""
    n = draw(st.integers(min_value=200, max_value=1200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    masses = [rng.uniform(0.01, 1.0) for _ in range(n)]
    return row_table(masses, [i / n for i in range(n)], [0.5] * n)


@st.composite
def maa_wide_scale_tables(draw):
    """2 048 to 4 096 rows, the size of a table keeping 11 or 12 binary
    features, with posteriors on a grid of 256 and some rates at 0, 1/2
    and 1."""
    n = draw(st.integers(min_value=2048, max_value=4096))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    masses = [rng.random() for _ in range(n)]
    total = math.fsum(masses)
    posteriors = sorted(rng.randrange(257) / 256.0 for _ in range(n))
    rates = [rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in range(n)]
    return row_table([m / total for m in masses], posteriors, rates)


class TestComputeMaaProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(wide_instance_tables(), tie_instance_tables(), near_tie_instance_tables()))
    def test_matches_independent_sweep_exactly_on_wide_tables(self, table):
        result = compute_maa(table)
        score, lo, hi = sweep_oracle(table)
        assert result.score == score
        assert result.interval.lo == lo
        assert result.interval.hi == hi

    @settings(max_examples=12, deadline=None)
    @given(st.one_of(plateau_instance_tables(), maa_wide_scale_tables()))
    def test_matches_independent_sweep_exactly_on_large_tables(self, table):
        result = compute_maa(table)
        score, lo, hi = sweep_oracle(table)
        assert result.score == score
        assert result.interval.lo == lo
        assert result.interval.hi == hi

    @settings(max_examples=300, deadline=None)
    @given(instance_tables())
    def test_matches_independent_sweep_exactly(self, table):
        result = compute_maa(table)
        score, lo, hi = sweep_oracle(table)
        assert result.score == score
        assert result.interval.lo == lo
        assert result.interval.hi == hi

    @settings(max_examples=200, deadline=None)
    @given(instance_tables())
    def test_score_bounds(self, table):
        result = compute_maa(table)
        rows = list(zip(table.mass.tolist(), table.rate.tolist()))
        all_positive = math.fsum(m * r for m, r in rows)
        all_negative = math.fsum(m * (1.0 - r) for m, r in rows)
        potential = math.fsum(m * max(r, 1.0 - r) for m, r in rows)
        assert result.score >= max(all_positive, all_negative) - 1e-12
        assert result.score <= potential + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(instance_tables())
    def test_interval_is_nonempty_and_contains_representative(self, table):
        result = compute_maa(table)
        assert result.interval.lo < result.interval.hi
        assert result.interval.contains(result.interval.representative)


class TestRandomModelProperties:
    def test_bounds_and_identities_on_random_models(self):
        rng = random.Random(1234)
        for i in range(25):
            net, clf = random_instance(rng, i, max_features=5)
            subset = random_subset(rng, clf)
            result = maa(net, clf, subset)
            bound = mpa(net, clf, subset)
            assert result.score <= bound + 1e-9
            beta = trimmed(clf, subset, result.interval.representative)
            achieved = eca(net, clf, beta)
            assert achieved == pytest.approx(result.score, abs=1e-12)
            hidden = tuple(f for f in clf.features if f not in subset)
            other_route = esdp_two_threshold(
                net, clf, beta.threshold, hidden, subset
            )
            assert other_route == pytest.approx(achieved, abs=1e-12)

    def test_mpa_monotone_under_inclusion(self):
        rng = random.Random(4321)
        for i in range(25):
            net, clf = random_instance(rng, i, max_features=5)
            small = random_subset(rng, clf)
            extras = [f for f in clf.features if f not in small]
            rng.shuffle(extras)
            big = tuple(list(small) + extras[: max(1, len(extras) // 2)])
            assert mpa(net, clf, small) <= mpa(net, clf, big) + 1e-9


def with_certain_rows(net: BayesianNetwork, rng: random.Random) -> BayesianNetwork:
    """The network with every CPT row of one feature made 0/1 and one row
    of another, so the instantiations where the first takes another
    value have no mass, and their table rows are dropped."""
    features = [v.name for v in net.variables if v.name != "C"]
    every, one = rng.sample(features, 2)
    cpts = []
    for cpt in net.cpts:
        rows = list(cpt.rows)
        certain = range(len(rows)) if cpt.child == every else [rng.randrange(len(rows))]
        if cpt.child in (every, one):
            for r in certain:
                rows[r] = tuple(1.0 if j == 0 else 0.0 for j in range(len(rows[r])))
        cpts.append(replace(cpt, rows=tuple(rows)))
    return BayesianNetwork(net.variables, tuple(cpts))


def table_bytes(table: InstanceTable) -> tuple:
    return (table.features, *(a.tobytes() for a in (table.rows, table.mass, table.posterior, table.rate)))


class TestInstanceTables:
    """``_instance_tables`` builds every kept set's table from one read of
    the grid, sets of as many cells per row sharing one row-sum call."""

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_equals_one_set_at_a_time(self, seed):
        rng = random.Random(8100 + seed)
        make = nb_instance if seed % 2 else random_dag_instance
        net, clf = make(rng, rng.randint(3, 6), max_card=3)
        net = with_certain_rows(net, rng)
        sets = [(), clf.features, *(random_subset(rng, clf) for _ in range(6))]
        sets.append(sets[-1])
        tables = agreement._instance_tables(net, clf, sets)
        assert [table_bytes(t) for t in tables] == [
            table_bytes(build_instance_table(net, clf, s)) for s in sets
        ]
        # Some rows have no mass and are dropped.
        grid_cells = math.prod(net.var(f).cardinality for f in clf.features)
        assert len(tables[1].rows) < grid_cells

    def test_shared_call_crosses_to_the_kernel(self, monkeypatch):
        # Three 6-of-8 sets of 256 grid cells lay out 768 cells each,
        # below the crossover, so each alone is summed by fsum; together
        # they lay out 2 304 and take the kernel, with the same bits.
        net, clf = nb_instance(random.Random(8200), 8, max_card=2)
        net = with_certain_rows(net, random.Random(8201))
        sets = [clf.features[:6], clf.features[2:], clf.features[1:7]]
        sizes = []
        real = agreement._column_sums

        def recorded(x, kinds):
            sizes.append((len(x), x.size))
            return real(x, kinds)

        monkeypatch.setattr(agreement, "_column_sums", recorded)
        alone = [table_bytes(build_instance_table(net, clf, s)) for s in sets]
        assert sizes == [(4, 768)] * 3
        assert agreement._NUMPY_MIN_CELLS == 1536
        sizes.clear()
        assert [table_bytes(t) for t in agreement._instance_tables(net, clf, sets)] == alone
        assert sizes == [(4, 2304)]

    def test_batches_are_capped(self, monkeypatch):
        # 12 binary features lay out 3 * 2**12 cells a set, so five sets
        # fill a batch: the 12 one-feature sets take three calls.
        net, clf = nb_instance(random.Random(8250), 12, max_card=2)
        sets = [(), *((f,) for f in clf.features)]
        alone = [table_bytes(build_instance_table(net, clf, s)) for s in sets]
        sizes = []
        real = agreement._column_sums

        def recorded(x, kinds):
            sizes.append(x.size)
            return real(x, kinds)

        monkeypatch.setattr(agreement, "_column_sums", recorded)
        assert [table_bytes(t) for t in agreement._instance_tables(net, clf, sets)] == alone
        assert agreement._BATCH_CELLS // (3 * 2**12) == 5
        assert sorted(sizes) == [3 * 2**12, 2 * 3 * 2**12, 5 * 3 * 2**12, 5 * 3 * 2**12]

    def test_peak_memory_does_not_grow_with_the_sets(self):
        # 16 binary features: a grid of 3 * 2**16 cells, above a batch,
        # so each of the 137 sets of at most two features is laid out
        # and summed alone.  Laying them all out first peaked at 738 MiB,
        # some 490 grids; one at a time, a layout and its sums'
        # temporaries stay near three.
        net, clf = nb_instance(random.Random(8260), 16, max_card=2)
        grid = agreement._classifier_grid(net, clf)  # cached, so not traced
        sets = enumerate_feasible(clf, CostModel.unit(clf.features, 2))
        assert len(sets) == 137
        tracemalloc.start()
        try:
            agreement._instance_tables(net, clf, sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid.nbytes

    def test_first_error_is_the_one_set_at_a_time_error(self):
        # 22 binary features: a joint of 2**23 cells, over the guard.
        net, clf = nb_instance(random.Random(8300), 22, max_card=2)
        with pytest.raises(EnumerationLimitError) as alone:
            build_instance_table(net, clf, ())
        with pytest.raises(EnumerationLimitError) as batch:
            agreement._instance_tables(net, clf, [(), ("nope",)])
        assert str(batch.value) == str(alone.value)
        with pytest.raises(ModelError, match="non-features"):
            agreement._instance_tables(net, clf, [("nope",), ()])
        assert agreement._instance_tables(net, clf, []) == []


class TestSweepTables:
    """``_sweep_tables`` gives ``compute_maa``'s result for every table."""

    def test_stacked_sweep_equals_compute_maa(self, monkeypatch):
        rng = random.Random(8400)
        tables = [row_table([rng.random()], [rng.random()], [r]) for r in (0.0, 0.3, 1.0)]
        for _ in range(12):
            n = rng.randint(2, 40)
            rates = [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
            posteriors = sorted(rng.randrange(n) / n for _ in range(n))
            tables.append(row_table([rng.random() for _ in range(n)], posteriors, rates))
        # A plateau: every row its own group at rate 1/2, so every cut ties.
        plateau = row_table([rng.random() for _ in range(30)], [i / 30 for i in range(30)], [0.5] * 30)
        # Posteriors within POSTERIOR_GROUP_RTOL of each other: one group.
        close = row_table(
            [rng.random() for _ in range(6)],
            [0.25 * (1.0 + k * 1e-11) for k in range(6)],
            [0.0, 1.0, 0.2, 0.9, 0.0, 1.0],
        )
        tables += [plateau, close]
        rng.shuffle(tables)
        swept = []
        real = agreement.compute_maa

        def recorded(table):
            swept.append(table)
            return real(table)

        monkeypatch.setattr(agreement, "compute_maa", recorded)
        got = agreement._sweep_tables(tables)
        assert any(t is plateau for t in swept)
        assert len(swept) < len(tables)
        swept.clear()
        want = [agreement.compute_maa(t) for t in tables]
        def bits(r):
            return r.score.hex(), r.interval.lo.hex(), r.interval.hi.hex()

        assert [bits(r) for r in got] == [bits(r) for r in want]
        # One table and none take the same stacked stage.
        alone = [bits(r) for t in tables for r in agreement._sweep_tables([t])]
        assert alone == [bits(r) for r in want]
        assert agreement._sweep_tables([]) == []

    def test_empty_table_raises(self):
        one = row_table([1.0], [0.5], [1.0])
        with pytest.raises(ModelError, match="no rows"):
            agreement._sweep_tables([one, row_table([], [], []), one, one])
        with pytest.raises(ModelError, match="no rows"):
            agreement._sweep_tables([row_table([], [], [])])
