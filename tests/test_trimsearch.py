"""Branch-and-bound trimming search: optimality, pruning admissibility,
the naive-Bayes frontier specialization, and the exhaustive oracle."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

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
    SearchStats,
    Variable,
    eca,
    agreement,
    build_instance_table,
    compute_maa,
    eca_trim,
    enumerate_feasible,
    exhaustive_trim,
    maa,
    mpa,
    trimsearch,
)

from conftest import (
    COUPLED_MODELS,
    SEPARATED_MODELS,
    binary_dag,
    bound_filter_models,
    features_separated,
    nb_instance,
    random_costs,
    random_dag_instance,
    random_instance,
    trim_pool_19,
)


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
        result = trimsearch._run(
            quiz_net,
            quiz_alpha,
            CostModel.unit(quiz_alpha.features, 0),
            None,
            nb_frontier_only=False,
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
        result = trimsearch._run(
            quiz_net,
            quiz_alpha,
            CostModel.unit(quiz_alpha.features, 2),
            events.append,
            nb_frontier_only=False,
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
        real_exact = agreement._MpaBound.exact

        def counting_exact(bound):
            if bound._exact is None:
                calls.append(bound.kept)
            return real_exact(bound)

        monkeypatch.setattr(agreement._MpaBound, "exact", counting_exact)
        rng = random.Random(6061)
        for i in range(8):
            net, clf = random_instance(rng, i, max_features=7)
            costs = random_costs(rng, clf)
            events = []
            calls.clear()
            result = trimsearch._run(
                net,
                clf,
                costs,
                events.append,
                nb_frontier_only=i % 4 == 0,
            )
            bounds = [e for e in events if e.action == "bound"]
            assert result.stats.bound_evals == len(clf.features) + len(bounds)
            # One exact mpa per distinct excluded set, printed by the trace,
            # after the branch order's exact singletons: those whose
            # estimate is too close to another's to order them.
            distinct = {frozenset(e.excluded) for e in bounds}
            singletons = len(calls) - len(distinct)
            assert 0 <= singletons <= len(clf.features)
            assert all(len(kept) == 1 for kept in calls[:singletons])

    def test_pruning_is_admissible_on_random_instances(self):
        rng = random.Random(99177)
        for i in range(15):
            net, clf = random_instance(rng, i, max_features=6)
            costs = random_costs(rng, clf)
            events = []
            result = trimsearch._run(
                net,
                clf,
                costs,
                events.append,
                nb_frontier_only=False,
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


def tenth_costs(rng: random.Random, clf: Classifier) -> CostModel:
    """One-decimal costs in [0.1, 0.9] and half their total as budget."""
    costs = {f: rng.randint(1, 9) / 10 for f in clf.features}
    return CostModel(costs, math.fsum(costs.values()) / 2)


class TestPinnedWork:
    """The exact work of two seeded searches: the stats and the order of
    every traced node, so a rewrite of the search must visit, bound,
    score and prune the same nodes in the same order."""

    @staticmethod
    def traced(net, clf, costs):
        events = []
        result = eca_trim(net, clf, costs, trace_hook=events.append)
        return result, [(e.action, e.included, e.excluded) for e in events]

    def test_general_dag_with_one_decimal_costs(self):
        rng = random.Random(0)
        net, clf = random_dag_instance(rng, max_features=5)
        costs = tenth_costs(rng, clf)
        assert not features_separated(net, clf)  # the generic path
        result, sequence = self.traced(net, clf, costs)
        assert result.stats == SearchStats(maa_evals=4, bound_evals=12, nodes_expanded=9, pruned=2)
        assert result.best_features == ("X1", "X3", "X4")
        assert sequence == [
            ("maa", (), ()),
            ("update", (), ()),
            ("bound", (), ()),
            ("maa", ("X1",), ()),
            ("update", ("X1",), ()),
            ("bound", ("X1",), ()),
            ("maa", ("X1", "X4"), ()),
            ("update", ("X1", "X4"), ()),
            ("bound", ("X1", "X4"), ()),
            ("bound", ("X1", "X4"), ("X2",)),
            ("bound", ("X1", "X4"), ("X2", "X5")),
            ("maa", ("X1", "X4", "X3"), ("X2", "X5")),
            ("update", ("X1", "X4", "X3"), ("X2", "X5")),
            ("bound", ("X1",), ("X4",)),
            ("prune", ("X1",), ("X4",)),
            ("bound", (), ("X1",)),
            ("prune", (), ("X1",)),
        ]

    def test_naive_bayes_frontier_skips_dominated_dead_ends(self):
        rng = random.Random(0)
        net, clf = nb_instance(rng, 5, max_card=2)
        costs = tenth_costs(rng, clf)
        result, sequence = self.traced(net, clf, costs)
        assert result.stats == SearchStats(maa_evals=3, bound_evals=15, nodes_expanded=17, pruned=2)
        assert result.best_features == ("X3", "X4", "X5")
        # A node without a bound event is a dead end; some go unscored.
        dead_ends = result.stats.nodes_expanded - sum(a == "bound" for a, _, _ in sequence)
        assert dead_ends > result.stats.maa_evals
        assert sequence == [
            ("bound", (), ()),
            ("bound", ("X1",), ()),
            ("bound", ("X1", "X4"), ()),
            ("maa", ("X1", "X4", "X5"), ()),
            ("update", ("X1", "X4", "X5"), ()),
            ("bound", ("X1",), ("X4",)),
            ("bound", (), ("X1",)),
            ("bound", ("X4",), ("X1",)),
            ("bound", ("X4", "X5"), ("X1",)),
            ("maa", ("X4", "X5", "X2"), ("X1",)),
            ("bound", ("X4", "X5"), ("X1", "X2")),
            ("maa", ("X4", "X5", "X3"), ("X1", "X2")),
            ("update", ("X4", "X5", "X3"), ("X1", "X2")),
            ("bound", ("X4",), ("X1", "X5")),
            ("prune", ("X4",), ("X1", "X5")),
            ("bound", (), ("X1", "X4")),
            ("prune", (), ("X1", "X4")),
        ]


class TestFractionalBudget:
    def test_quiz_costs_summing_exactly_to_budget(self, quiz_net, quiz_alpha):
        # fsum of 0.1, 0.6 and 0.7 is 1.4, but a running remainder
        # 1.4 - 0.1 - 0.6 leaves 0.6999999999999998, less than 0.7.
        costs = CostModel({"Q1": 0.1, "Q2": 0.6, "Q3": 0.7}, 1.4)
        assert costs.fits(quiz_alpha.features)
        for fast in (True, False):
            result = trimsearch._run(quiz_net, quiz_alpha, costs, None, nb_frontier_only=fast)
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
            result = trimsearch._run(net, clf, model, None, nb_frontier_only=fast)
            assert model.fits(result.best_features)
            assert result.best_score == pytest.approx(expected.best_score, abs=1e-12)


class TestNbTrim:
    """eca_trim on naive-Bayes models, where it takes the frontier search."""

    def test_quiz_budget_two_evaluates_frontier_only(self, quiz_net, quiz_alpha):
        events = []
        costs = CostModel.unit(quiz_alpha.features, 2)
        result = eca_trim(quiz_net, quiz_alpha, costs, trace_hook=events.append)
        assert result.best_features == ("Q1", "Q2")
        assert result.best_score == pytest.approx(0.9748, abs=1e-9)
        maa_events = [e for e in events if e.action == "maa"]
        assert result.stats.maa_evals == 1
        assert all(len(e.included) == 2 for e in maa_events)

    def test_fewer_evaluations_than_generic(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        generic = trimsearch._run(quiz_net, quiz_alpha, costs, None, nb_frontier_only=False)
        fast = eca_trim(quiz_net, quiz_alpha, costs)
        assert fast.stats.maa_evals <= generic.stats.maa_evals
        assert fast.best_score == pytest.approx(generic.best_score, abs=1e-12)

    def test_auto_dispatch_uses_frontier_on_naive_bayes(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        auto = eca_trim(quiz_net, quiz_alpha, costs)
        assert auto.stats.maa_evals == 1

    def test_single_feature_model(self):
        net, clf = big_nb(1)
        result = eca_trim(net, clf, CostModel.unit(clf.features, 1))
        assert result.best_features == clf.features
        assert result.best_score == pytest.approx(1.0, abs=1e-12)

    def test_matches_generic_on_random_naive_bayes(self):
        from conftest import random_nb_instance

        rng = random.Random(5150)
        for _ in range(20):
            net, clf = random_nb_instance(rng, max_features=6)
            costs = random_costs(rng, clf)
            fast = eca_trim(net, clf, costs)
            generic = trimsearch._run(net, clf, costs, None, nb_frontier_only=False)
            assert fast.best_score == pytest.approx(generic.best_score, abs=1e-12)
            assert fast.stats.maa_evals <= generic.stats.maa_evals


class TestFrontierDispatch:
    """eca_trim takes the frontier search exactly when every feature is
    d-separated from the others given the class, naive Bayes or not."""

    @staticmethod
    def searches(net, clf, costs):
        """eca_trim by default, then the frontier and the generic search."""
        return (
            eca_trim(net, clf, costs),
            trimsearch._run(net, clf, costs, None, nb_frontier_only=True),
            trimsearch._run(net, clf, costs, None, nb_frontier_only=False),
        )

    @pytest.mark.parametrize("name", SEPARATED_MODELS)
    def test_separated_models_take_the_frontier(self, name):
        parents, features = SEPARATED_MODELS[name]
        net, clf = binary_dag(parents), Classifier("C", 1, features, 0.5)
        costs = CostModel.unit(features, 2)
        auto, frontier, generic = self.searches(net, clf, costs)
        assert auto.stats.maa_evals == frontier.stats.maa_evals < generic.stats.maa_evals
        assert auto == frontier
        exact = exhaustive_trim(net, clf, costs).best_score
        assert abs(auto.best_score - exact) <= 1e-12

    def test_quiz_takes_the_frontier(self, quiz_net, quiz_alpha):
        auto, frontier, generic = self.searches(quiz_net, quiz_alpha, CostModel.unit(quiz_alpha.features, 2))
        assert auto == frontier != generic

    @pytest.mark.parametrize("name", COUPLED_MODELS)
    def test_coupled_models_take_the_generic_search(self, name):
        parents, features = COUPLED_MODELS[name]
        net, clf = binary_dag(parents), Classifier("C", 1, features, 0.5)
        auto, frontier, generic = self.searches(net, clf, CostModel.unit(features, 1))
        assert auto == generic != frontier

    def test_gbn4_takes_the_generic_search(self, gbn4_net, gbn4_alpha):
        auto, frontier, generic = self.searches(gbn4_net, gbn4_alpha, CostModel.unit(gbn4_alpha.features, 2))
        assert auto == generic != frontier


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


class TestFilteredBound:
    """The search decides prune-or-keep on a float estimate of
    mpa(F \\ E) with a certified error, and computes the exact mpa only
    when the estimate cannot decide; every decision must be the exact
    one."""

    @staticmethod
    def search(net, clf, costs, i, trace_hook=None):
        """eca_trim's own choice of search on even i, the generic search
        on odd i."""
        frontier = i % 2 == 0 and features_separated(net, clf)
        return trimsearch._run(net, clf, costs, trace_hook, nb_frontier_only=frontier)

    def test_every_estimate_holds_mpa_and_every_decision_is_exact(self, monkeypatch):
        bounds = []
        real_init = agreement._MpaBound.__init__

        def recording(self, *args):
            real_init(self, *args)
            bounds.append(self)

        monkeypatch.setattr(agreement._MpaBound, "__init__", recording)
        rng = random.Random(2323)
        kept_bounds = pruned_bounds = 0
        for i, (net, clf) in enumerate(bound_filter_models()):
            costs = random_costs(rng, clf)
            events = []
            bounds.clear()
            self.search(net, clf, costs, i, events.append)
            # Every singleton and every node estimate brackets the exact mpa.
            assert len(bounds) >= len(clf.features)
            for bound in bounds:
                assert abs(mpa(net, clf, bound.kept) - bound.approx) <= bound.err
            # The trace prints the exact bound, and a node is pruned
            # exactly when that bound cannot beat the incumbent.
            incumbent = -math.inf
            for j, e in enumerate(events):
                if e.action == "update":
                    incumbent = e.value
                elif e.action == "bound":
                    assert e.value == mpa(net, clf, set(clf.features) - set(e.excluded))
                    after = events[j + 1] if j + 1 < len(events) else None
                    pruned = after is not None and after.action == "prune" and (
                        after.included, after.excluded) == (e.included, e.excluded)
                    assert pruned == (e.value <= incumbent)
                    kept_bounds += not pruned
                    pruned_bounds += pruned
        assert kept_bounds and pruned_bounds

    def test_traced_and_untraced_searches_agree(self, monkeypatch):
        calls = []
        real_exact, real_order = agreement._MpaBound.exact, trimsearch._search_order

        def counting_exact(bound):
            if bound._exact is None:
                calls.append(bound.kept)
            return real_exact(bound)

        order_calls = []

        def counting_order(*args):
            before = len(calls)
            order = real_order(*args)
            order_calls.append(len(calls) - before)
            return order

        monkeypatch.setattr(agreement._MpaBound, "exact", counting_exact)
        monkeypatch.setattr(trimsearch, "_search_order", counting_order)
        rng = random.Random(2324)
        decisions = fallbacks = 0
        for i, (net, clf) in enumerate(bound_filter_models()):
            costs = random_costs(rng, clf)
            calls.clear()
            order_calls.clear()
            plain = self.search(net, clf, costs, i)
            decisions += plain.stats.bound_evals - len(clf.features)
            fallbacks += len(calls) - order_calls[0]
            traced = self.search(net, clf, costs, i, lambda e: None)
            assert plain == traced
        # Floats settle most decisions; exact ties reach the fallback.
        assert 0 < fallbacks < decisions / 2

    def test_search_order_is_the_exact_order(self):
        tied = 0
        for net, clf in bound_filter_models():
            exact = {f: mpa(net, clf, (f,)) for f in clf.features}
            expected = tuple(sorted(clf.features, key=lambda f: -exact[f]))
            root = agreement._MpaBound.root(net, clf)
            assert trimsearch._search_order(clf, root, SearchStats()) == expected
            tied += len(set(exact.values())) < len(exact)
        assert tied >= 40  # the models with repeated CPTs, at least


def table_bits(table) -> tuple:
    floats = ([x.hex() for x in a.tolist()] for a in (table.mass, table.posterior, table.rate))
    return (table.features, table.rows.tolist(), *floats)


class TestNodeTensor:
    """The search reads each scored node's instance table, and each
    bound's exact mpa, from the node's own tensor over F \\ E, the grid's
    cells split once into parts that sum exactly; both must equal, bit
    for bit, what the grid route computes afresh from the whole grid,
    whether the split leaves remainders to certify or not."""

    @staticmethod
    def checked_search(monkeypatch, net, clf, costs, frontier) -> dict:
        """One traced search whose every node table and exact bound is
        checked against ``build_instance_table`` and ``mpa``; returns the
        counts of checks, of rows the node path's error bound could not
        certify, and of root splits with no remainder ("exact") and with
        one ("certified")."""
        counts = {"tables": 0, "bounds": 0, "unsure": 0, "exact": 0, "certified": 0}
        real_table, real_exact, real_rows = agreement._table, agreement._MpaBound.exact, agreement._grid_rows
        real_split = agreement._split
        node_tables = []

        def counted_split(x):
            parts, rest = real_split(x)
            counts["certified" if rest else "exact"] += 1
            return parts, rest

        def node_table(*args):
            node_tables.append(real_table(*args))
            return node_tables[-1]

        def checked_maa(bound, included, incumbent):
            # A traced search sweeps every scored subset.
            assert incumbent == -math.inf
            with monkeypatch.context() as m:
                m.setattr(agreement, "_table", node_table)
                result = real_maa(bound, included, incumbent)
            reference = build_instance_table(net, clf, included)
            assert table_bits(node_tables.pop()) == table_bits(reference)
            expected = compute_maa(reference)
            assert (result.score.hex(), result.interval) == (expected.score.hex(), expected.interval)
            counts["tables"] += 1
            return result

        def checked_exact(bound):
            fresh = bound._exact is None
            value = real_exact(bound)
            if fresh:
                assert value.hex() == mpa(net, clf, bound.kept).hex()
                counts["bounds"] += 1
            return value

        def counted_rows(*args):
            read = real_rows(*args)

            def cells(rows):
                counts["unsure"] += len(rows)
                return read(rows)

            return cells

        real_maa = agreement._MpaBound.maa
        monkeypatch.setattr(agreement._MpaBound, "maa", checked_maa)
        monkeypatch.setattr(agreement._MpaBound, "exact", checked_exact)
        monkeypatch.setattr(agreement, "_grid_rows", counted_rows)
        monkeypatch.setattr(agreement, "_split", counted_split)
        events = []
        result = trimsearch._run(net, clf, costs, events.append, nb_frontier_only=frontier)
        monkeypatch.undo()
        bound_events = [e for e in events if e.action == "bound"]
        assert counts["tables"] == result.stats.maa_evals
        assert all(e.value.hex() == mpa(net, clf, set(clf.features) - set(e.excluded)).hex() for e in bound_events)
        assert counts["bounds"] >= len({frozenset(e.excluded) for e in bound_events})
        return counts

    def test_every_table_and_bound_equals_the_grid_routes(self, monkeypatch):
        # Ternary features, deterministic 0/1 rows (zero-mass rows) and
        # subnormal-scale entries, on naive Bayes and general DAGs, with
        # the frontier search where it applies and the generic one
        # everywhere.  The subnormal-scale models' grids span more
        # binades than two levels of the split hold, so their rows are
        # certified against the remainders' bound; every other model's
        # split is exact, and its rows are rounded once, uncertified.
        rng = random.Random(2901)
        totals = {"tables": 0, "bounds": 0, "unsure": 0, "exact": 0, "certified": 0}
        modes = {}
        for i, (net, clf) in enumerate(bound_filter_models()):
            costs = random_costs(rng, clf)
            frontiers = (False, True) if features_separated(net, clf) else (False,)
            for frontier in frontiers:
                counts = self.checked_search(monkeypatch, net, clf, costs, frontier)
                for key, n in counts.items():
                    totals[key] += n
                modes.setdefault(i % 5, set()).add(counts["certified"] > 0)
        assert totals["tables"] > 500 and totals["bounds"] > 1000
        assert totals["unsure"] > 0
        assert totals["exact"] > 100 and totals["certified"] > 30
        assert all(modes[kind] == {False} for kind in range(4)) and True in modes[4]

    def test_a_row_only_fsum_settles_through_the_node_path(self, monkeypatch):
        # Row A = a of a table keeping A but not B sums the cells
        # 0.5 * (1, 2**-53, 2**-106): 2**-107 above halfway between 0.5
        # and its successor.  The split leaves that last cell as a
        # remainder, the TwoSum errors' float sum rounds it away, so
        # s + e rounds to 0.5, and the cells span 106 binades, too many
        # for the Exact test: only fsum rounds it up.
        net = BayesianNetwork(
            (Variable("C", ("+", "-")), Variable("A", ("a", "b")), Variable("B", ("x", "y", "z"))),
            (
                Cpt("C", (), ((0.5, 0.5),)),
                Cpt("A", ("C",), ((1.0, 0.0), (2.0**-53, 1.0 - 2.0**-53))),
                Cpt("B", ("C",), ((1.0, 2.0**-53, 2.0**-106), (0.5, 0.25, 0.25))),
            ),
        )
        clf = Classifier("C", 0, ("A", "B"), 0.5)
        table = build_instance_table(net, clf, ("A",))
        assert dict(zip(table.rows.tolist(), table.mass.tolist()))[0] == 0.5 + 2.0**-53
        for frontier in (False, True):
            counts = self.checked_search(monkeypatch, net, clf, CostModel.unit(clf.features, 1), frontier)
            assert counts["unsure"] > 0


class TestOneSplitPerSearch:
    """The branch order builds the classifier-order root's tensor when it
    compares tied singleton bounds exactly; the search-order root then
    takes that tensor, transposed, so one search splits the grid once."""

    def test_each_search_splits_the_grid_once(self, monkeypatch):
        splits, reused = [], []
        real_split, real_searching = agreement._split, agreement._MpaBound.searching

        def searching(bound, order):
            reused.append(bound._tensor is not None)
            return real_searching(bound, order)

        monkeypatch.setattr(agreement, "_split", lambda x: splits.append(x.shape) or real_split(x))
        monkeypatch.setattr(agreement._MpaBound, "searching", searching)
        rng = random.Random(4040)
        cases = [trim_pool_19(), *((net, clf, random_costs(rng, clf)) for net, clf in bound_filter_models())]
        per_search = []
        for net, clf, costs in cases:
            splits.clear()
            eca_trim(net, clf, costs)
            per_search.append(len(splits))
        assert per_search == [1] * len(cases)
        # Most orders, trim19's among them, read an exact singleton bound
        # and so built a tensor the search reuses; some read none.
        assert reused[0] and len(cases) // 2 < sum(reused) < len(cases)


class TestSearchMemory:
    def test_one_search_path_stays_within_the_stated_bound(self):
        # 16 binary features: a grid of 3 * 2**16 cells whose split
        # leaves remainders, so the root tensor holds all three levels.
        # Down one path, held as the search's frames hold it: the root
        # tensor, then four exclusions, each with its tensor, exact mpa
        # and a three-feature table.  _MpaBound's docstring bounds the
        # split's peak by the root tensor, what the path holds by twice
        # the root's tensor and stack, and a read's temporaries by three
        # times the tensor read, the largest here the first child's.
        net, clf = nb_instance(random.Random(1), 16, max_card=2)
        agreement._classifier_grid(net, clf)  # cached, so not traced
        slack = 1 << 16  # the bounds' and arrays' Python objects
        tracemalloc.start()
        try:
            root = agreement._MpaBound.root(net, clf).searching(clf.features)
            tracemalloc.reset_peak()
            parts = root._node()[1]
            tensor, stack = parts.nbytes, root.cells.nbytes
            assert tracemalloc.get_traced_memory()[1] <= tensor + stack + slack
            path = [root]
            for step in range(4):
                path.append(path[-1].without(clf.features[step:step + 1]))
                path[-1].exact()
                assert path[-1].maa(clf.features[step + 1:step + 4], -math.inf) is not None
                assert tracemalloc.get_traced_memory()[0] <= 2 * (tensor + stack) + slack
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parts) == 3
        read = path[1]._node()[1].nbytes
        assert 2 * read == tensor
        assert peak <= 2 * (tensor + stack) + 3 * read + slack


class TestScoringAgainstTheIncumbent:
    """An untraced search passes the incumbent to ``_MpaBound.maa``, which
    skips the sort and sweep of a subset whose exact mpa is at most it.
    Every skip must be sound, every sweep the subset's ``maa``, and the
    oracle must keep sweeping every feasible subset."""

    @staticmethod
    def search(monkeypatch, net, clf, costs, frontier, scored: list) -> None:
        """One untraced search that records, per scored subset, the
        included set, the incumbent passed and the result, with the
        ``_larger_sides`` values the call took."""
        real_maa, real_sides = agreement._MpaBound.maa, agreement._larger_sides

        def recording_maa(bound, included, incumbent):
            sides = []

            def recording_sides(*args):
                sides.append(real_sides(*args))
                return sides[-1]

            with monkeypatch.context() as m:
                m.setattr(agreement, "_larger_sides", recording_sides)
                result = real_maa(bound, included, incumbent)
            scored.append((tuple(included), incumbent, result, sides))
            return result

        with monkeypatch.context() as m:
            m.setattr(agreement._MpaBound, "maa", recording_maa)
            trimsearch._run(net, clf, costs, None, nb_frontier_only=frontier)

    def test_every_skip_is_sound_and_every_sweep_exact(self, monkeypatch):
        rng = random.Random(3201)
        skipped = swept = 0
        for net, clf in bound_filter_models():
            costs = random_costs(rng, clf)
            frontiers = (False, True) if features_separated(net, clf) else (False,)
            for frontier in frontiers:
                scored = []
                self.search(monkeypatch, net, clf, costs, frontier, scored)
                for included, incumbent, result, sides in scored:
                    expected = maa(net, clf, included)
                    (upper,) = sides
                    assert upper.hex() == mpa(net, clf, included).hex()
                    if result is None:
                        assert upper <= incumbent
                        assert expected.score <= incumbent
                        skipped += 1
                    else:
                        assert upper > incumbent
                        assert (result.score.hex(), result.interval) == (
                            expected.score.hex(), expected.interval)
                        swept += 1
        assert skipped and swept

    def test_the_skip_is_at_the_subsets_mpa(self):
        # At an incumbent equal to the subset's mpa the sweep is skipped;
        # one ulp below it, it runs.
        for net, clf in bound_filter_models(40):
            root = agreement._MpaBound.root(net, clf)
            for size in range(len(clf.features) + 1):
                for included in itertools.combinations(clf.features, size):
                    upper = mpa(net, clf, included)
                    assert root.maa(included, upper) is None
                    below = root.maa(included, math.nextafter(upper, -math.inf))
                    expected = maa(net, clf, included)
                    assert (below.score.hex(), below.interval) == (
                        expected.score.hex(), expected.interval)

    def test_the_oracle_sweeps_every_feasible_subset(self, monkeypatch):
        rng = random.Random(3202)
        real_sweep = agreement.compute_maa
        swept = []

        def recording_sweep(table):
            swept.append(table.features)
            return real_sweep(table)

        monkeypatch.setattr(agreement, "compute_maa", recording_sweep)
        for net, clf in bound_filter_models(40):
            costs = random_costs(rng, clf)
            swept.clear()
            exhaustive_trim(net, clf, costs)
            assert swept == enumerate_feasible(clf, costs)
