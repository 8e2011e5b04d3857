"""Branch-and-bound trimming search: optimality, pruning admissibility,
the naive-Bayes frontier specialization, and the exhaustive oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    EnumerationLimitError,
    ModelError,
    SearchOptions,
    Variable,
    eca,
    eca_trim,
    exhaustive_trim,
    maa,
    nb_trim,
    trimsearch,
)

from conftest import random_costs, random_instance


def big_nb(n_features: int) -> tuple[BayesianNetwork, Classifier]:
    variables = [Variable("C", ("a", "b"))]
    cpds = [Cpt("C", (), ((0.5, 0.5),))]
    for i in range(n_features):
        variables.append(Variable(f"X{i}", ("a", "b")))
        cpds.append(Cpt(f"X{i}", ("C",), ((0.4, 0.6), (0.7, 0.3))))
    net = BayesianNetwork(tuple(variables), tuple(cpds))
    return net, Classifier("C", 0, tuple(f"X{i}" for i in range(n_features)), 0.5)


class TestEcaTrimOnFixtures:
    def test_quiz_budget_two(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        result = eca_trim(quiz_net, quiz_alpha, costs)
        assert result.best_features == ("Q1", "Q2")
        assert result.best_score == pytest.approx(0.9748, abs=1e-9)
        assert result.threshold.lo == pytest.approx(1 / 13, abs=1e-9)
        assert result.threshold.hi == pytest.approx(1 / 3, abs=1e-9)

    def test_quiz_budget_three_reproduces_original(self, quiz_net, quiz_alpha):
        result = eca_trim(quiz_net, quiz_alpha, CostModel.unit(quiz_alpha.features, 3))
        assert result.best_features == ("Q1", "Q2", "Q3")
        assert result.best_score == pytest.approx(1.0, abs=1e-12)
        assert result.threshold.contains(quiz_alpha.threshold)

    def test_zero_budget_keeps_empty_set(self, quiz_net, quiz_alpha):
        result = eca_trim(
            quiz_net,
            quiz_alpha,
            CostModel.unit(quiz_alpha.features, 0),
            SearchOptions(use_nb_fast_path=False),
        )
        assert result.best_features == ()
        assert result.best_score == pytest.approx(0.7318, abs=1e-9)

    def test_budget_equal_to_total_cost_is_perfect(self, gbn4_net, gbn4_alpha):
        costs = CostModel({"F1": 1.5, "F2": 2.0, "F3": 0.5}, 4.0)
        result = eca_trim(gbn4_net, gbn4_alpha, costs)
        assert result.best_score == pytest.approx(1.0, abs=1e-12)
        assert result.best_features == gbn4_alpha.features

    def test_result_score_matches_recomputed_maa(self, gbn4_net, gbn4_alpha):
        costs = CostModel({"F1": 1.0, "F2": 2.0, "F3": 2.0}, 3.0)
        result = eca_trim(gbn4_net, gbn4_alpha, costs)
        again = maa(gbn4_net, gbn4_alpha, result.best_features)
        assert result.best_score == pytest.approx(again.score, abs=1e-12)
        assert costs.total(result.best_features) <= costs.budget


class TestSearchTrace:
    def expected(self):  # the hand-enumerated search on QUIZ with budget 2
        return {
            "maa_values": [0.7318, 0.9082, 0.9748],
            "pruned_bounds": [0.9082, 0.7318],
        }

    def test_generic_search_trace(self, quiz_net, quiz_alpha):
        events = []
        result = eca_trim(
            quiz_net,
            quiz_alpha,
            CostModel.unit(quiz_alpha.features, 2),
            SearchOptions(use_nb_fast_path=False, trace_hook=events.append),
        )
        assert result.stats.maa_evals == 3
        assert result.stats.nodes_expanded == 5
        assert result.stats.pruned == 2
        # 3 branch-order precomputations + 4 node bounds
        assert result.stats.bound_evals == 7

        maa_events = [e for e in events if e.action == "maa"]
        assert [e.value for e in maa_events] == pytest.approx(
            self.expected()["maa_values"], abs=1e-9
        )
        assert maa_events[-1].included == ("Q1", "Q2")
        prunes = [e.value for e in events if e.action == "prune"]
        assert prunes == pytest.approx(self.expected()["pruned_bounds"], abs=1e-9)

    def test_include_child_reuses_parent_bound(self, monkeypatch):
        calls = []
        real_mpa = trimsearch.mpa

        def counting_mpa(net, clf, kept):
            calls.append(kept)
            return real_mpa(net, clf, kept)

        monkeypatch.setattr(trimsearch, "mpa", counting_mpa)
        rng = random.Random(6061)
        for i in range(8):
            net, clf = random_instance(rng, i, max_features=7)
            costs = random_costs(rng, clf)
            events = []
            calls.clear()
            result = eca_trim(
                net,
                clf,
                costs,
                SearchOptions(use_nb_fast_path=i % 4 == 0, trace_hook=events.append),
            )
            bounds = [e for e in events if e.action == "bound"]
            assert result.stats.bound_evals == len(clf.features) + len(bounds)
            # One mpa per distinct excluded set, plus the branch-order singletons.
            distinct = {frozenset(e.excluded) for e in bounds}
            assert len(calls) == len(distinct) + len(clf.features)

    def test_pruning_is_admissible_on_random_instances(self):
        rng = random.Random(99177)
        for i in range(15):
            net, clf = random_instance(rng, i, max_features=6)
            costs = random_costs(rng, clf)
            events = []
            result = eca_trim(
                net,
                clf,
                costs,
                SearchOptions(use_nb_fast_path=False, trace_hook=events.append),
            )
            incumbent = -math.inf
            for e in events:
                if e.action == "update":
                    assert e.value > incumbent
                    incumbent = e.value
                elif e.action == "prune":
                    # Anything pruned was bounded by a value the incumbent
                    # already matched or beat.
                    assert e.value <= incumbent
            assert incumbent == result.best_score
            assert result.stats.maa_evals == sum(1 for e in events if e.action == "maa")
            assert result.stats.pruned == sum(1 for e in events if e.action == "prune")


class TestFractionalBudget:
    def test_quiz_costs_summing_exactly_to_budget(self, quiz_net, quiz_alpha):
        # fsum of 0.1, 0.6 and 0.7 is 1.4, but a running remainder
        # 1.4 - 0.1 - 0.6 leaves 0.6999999999999998, less than 0.7.
        costs = CostModel({"Q1": 0.1, "Q2": 0.6, "Q3": 0.7}, 1.4)
        assert costs.fits(quiz_alpha.features)
        for fast in (True, False):
            result = eca_trim(quiz_net, quiz_alpha, costs, SearchOptions(use_nb_fast_path=fast))
            assert result.best_features == ("Q1", "Q2", "Q3")
            assert result.best_score == 1.0
        assert exhaustive_trim(quiz_net, quiz_alpha, costs).best_features == quiz_alpha.features

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tenths=st.lists(st.integers(1, 9), min_size=6, max_size=6),
        mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_search_equals_enumeration_with_one_decimal_costs(self, seed, tenths, mask):
        rng = random.Random(seed)
        net, clf = random_instance(rng, seed, max_features=6)
        costs = {f: t / 10 for f, t in zip(clf.features, tenths)}
        # The budget sits exactly on the fsum of a subset's costs.
        budget = math.fsum(c for c, keep in zip(costs.values(), mask) if keep)
        model = CostModel(costs, budget)
        expected = exhaustive_trim(net, clf, model)
        # Even seeds draw naive-Bayes models, which also run the NB path.
        fast_paths = (False, True) if seed % 2 == 0 else (False,)
        for fast in fast_paths:
            result = eca_trim(net, clf, model, SearchOptions(use_nb_fast_path=fast))
            assert model.fits(result.best_features)
            assert result.best_score == pytest.approx(expected.best_score, abs=1e-12)


class TestNbTrim:
    def test_quiz_budget_two_evaluates_frontier_only(self, quiz_net, quiz_alpha):
        events = []
        costs = CostModel.unit(quiz_alpha.features, 2)
        result = nb_trim(
            quiz_net, quiz_alpha, costs, SearchOptions(trace_hook=events.append)
        )
        assert result.best_features == ("Q1", "Q2")
        assert result.best_score == pytest.approx(0.9748, abs=1e-9)
        maa_events = [e for e in events if e.action == "maa"]
        assert result.stats.maa_evals == 1
        assert all(len(e.included) == 2 for e in maa_events)

    def test_fewer_evaluations_than_generic(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        generic = eca_trim(quiz_net, quiz_alpha, costs, SearchOptions(use_nb_fast_path=False))
        fast = nb_trim(quiz_net, quiz_alpha, costs)
        assert fast.stats.maa_evals <= generic.stats.maa_evals
        assert fast.best_score == pytest.approx(generic.best_score, abs=1e-12)

    def test_auto_dispatch_uses_frontier_on_naive_bayes(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        auto = eca_trim(quiz_net, quiz_alpha, costs)
        assert auto.stats.maa_evals == 1

    def test_single_feature_model(self):
        net, clf = big_nb(1)
        result = nb_trim(net, clf, CostModel.unit(clf.features, 1))
        assert result.best_features == clf.features
        assert result.best_score == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_naive_bayes(self, gbn4_net, gbn4_alpha):
        with pytest.raises(ModelError):
            nb_trim(gbn4_net, gbn4_alpha, CostModel.unit(gbn4_alpha.features, 2))

    def test_matches_generic_on_random_naive_bayes(self):
        from conftest import random_nb_instance

        rng = random.Random(5150)
        for _ in range(20):
            net, clf = random_nb_instance(rng, max_features=6)
            costs = random_costs(rng, clf)
            fast = nb_trim(net, clf, costs)
            generic = eca_trim(net, clf, costs, SearchOptions(use_nb_fast_path=False))
            assert fast.best_score == pytest.approx(generic.best_score, abs=1e-12)
            assert fast.stats.maa_evals <= generic.stats.maa_evals


class TestExhaustive:
    def test_quiz_budget_two(self, quiz_net, quiz_alpha):
        result = exhaustive_trim(quiz_net, quiz_alpha, CostModel.unit(quiz_alpha.features, 2))
        assert result.best_features == ("Q1", "Q2")
        assert result.best_score == pytest.approx(0.9748, abs=1e-9)
        assert result.stats.maa_evals == 7  # every within-budget subset

    def test_budget_above_total_returns_full_set(self, quiz_net, quiz_alpha):
        result = exhaustive_trim(quiz_net, quiz_alpha, CostModel.unit(quiz_alpha.features, 99))
        assert result.best_features == quiz_alpha.features
        assert result.best_score == pytest.approx(1.0, abs=1e-12)

    def test_budget_below_every_cost_keeps_empty_set(self, quiz_net, quiz_alpha):
        costs = CostModel({f: 2.0 for f in quiz_alpha.features}, 1.0)
        result = exhaustive_trim(quiz_net, quiz_alpha, costs)
        assert result.best_features == ()
        assert result.best_score == pytest.approx(0.7318, abs=1e-9)

    def test_tie_break_prefers_smaller_then_earlier(self):
        # Two identical features: {A1} and {A2} score identically, and both
        # beat the empty set; the smaller-then-input-order rule picks {A1}.
        net = BayesianNetwork(
            (
                Variable("C", ("neg", "pos")),
                Variable("A1", ("x", "y")),
                Variable("A2", ("x", "y")),
            ),
            (
                Cpt("C", (), ((0.3, 0.7),)),
                Cpt("A1", ("C",), ((0.9, 0.1), (0.2, 0.8))),
                Cpt("A2", ("C",), ((0.9, 0.1), (0.2, 0.8))),
            ),
        )
        clf = Classifier("C", 1, ("A1", "A2"), 0.5)
        costs = CostModel.unit(clf.features, 1)
        exhaustive = exhaustive_trim(net, clf, costs)
        assert exhaustive.best_features == ("A1",)
        searched = eca_trim(net, clf, costs)
        assert searched.best_features == ("A1",)
        assert searched.best_score == pytest.approx(exhaustive.best_score, abs=1e-12)

    def test_enumeration_guard(self):
        net, clf = big_nb(21)
        with pytest.raises(EnumerationLimitError):
            exhaustive_trim(net, clf, CostModel.unit(clf.features, 5))


class TestInputValidation:
    def test_missing_cost_is_an_error(self, quiz_net, quiz_alpha):
        costs = CostModel({"Q1": 1.0, "Q2": 1.0}, 2.0)  # Q3 missing
        with pytest.raises(ModelError):
            eca_trim(quiz_net, quiz_alpha, costs)

    def test_negative_budget_rejected_at_construction(self):
        with pytest.raises(ModelError):
            CostModel({"Q1": 1.0}, -2.0)


class TestAgainstExhaustive:
    def test_search_equals_enumeration_on_random_instances(self):
        rng = random.Random(2718)
        for i in range(40):
            net, clf = random_instance(rng, i, max_features=6)
            costs = random_costs(rng, clf)
            searched = eca_trim(net, clf, costs)
            enumerated = exhaustive_trim(net, clf, costs)
            assert searched.best_score == pytest.approx(enumerated.best_score, abs=1e-12)
            assert searched.stats.maa_evals <= enumerated.stats.maa_evals

    def test_dominates_fixed_threshold_selection(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        best = eca_trim(quiz_net, quiz_alpha, costs).best_score
        for subset in ((), ("Q1",), ("Q2",), ("Q3",), ("Q1", "Q2"), ("Q1", "Q3"), ("Q2", "Q3")):
            fixed = eca(
                quiz_net,
                quiz_alpha,
                Classifier("C", 0, subset, quiz_alpha.threshold),
            )
            assert best >= fixed - 1e-12
