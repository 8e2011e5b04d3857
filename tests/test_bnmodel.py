"""Domain-type validation, topological ordering, structure checks, and the
graph-based independence predicates."""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bntrim import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    ModelError,
    Variable,
    check_classifier,
    build_instance_table,
    check_network,
    cond_independent_given_class,
    cv_accuracy,
    eca,
    eca_bruteforce,
    eca_trim,
    empirical_agreement,
    esdp_two_threshold,
    maa,
    maa_bruteforce,
    marginal,
    mpa,
    parse_network,
    posterior_class,
    sample_rows,
    sdp,
    synthesize_dataset,
    validate_network,
)
from bntrim import bnmodel, inference

from conftest import (
    COUPLED_MODELS,
    FIXTURES,
    SEPARATED_MODELS,
    binary_dag,
    features_separated,
    random_dag_instance,
)


def tiny_net(prior=(0.5, 0.5), rows=((0.9, 0.1), (0.2, 0.8))) -> BayesianNetwork:
    return BayesianNetwork(
        (Variable("C", ("neg", "pos")), Variable("X", ("a", "b"))),
        (Cpt("C", (), (prior,)), Cpt("X", ("C",), rows)),
    )


class TestVariable:
    """A bad variable is one of its network's validity problems, which
    check_network raises for, not an error of its own construction."""

    @staticmethod
    def assert_sole_problem(variable: Variable, message: str) -> None:
        card = len(variable.values)
        net = BayesianNetwork((variable,), (Cpt(variable.name, (), ((1.0 / card,) * card,)),))
        assert validate_network(net) == [message]
        with pytest.raises(ModelError) as info:
            check_network(net)
        assert str(info.value) == f"network is not valid: {message}"

    def test_needs_two_values(self):
        self.assert_sole_problem(Variable("A", ("only",)), "variable 'A' needs at least 2 values")

    def test_rejects_duplicate_labels(self):
        self.assert_sole_problem(Variable("A", ("x", "x")), "variable 'A' has duplicate value labels")

    def test_rejects_empty_name(self):
        self.assert_sole_problem(Variable("", ("x", "y")), "variable name must be nonempty")

    def test_index_of(self):
        v = Variable("A", ("x", "y", "z"))
        assert v.cardinality == 3
        assert v.index_of("z") == 2
        with pytest.raises(ModelError):
            v.index_of("w")


class TestClassifier:
    def test_rejects_duplicate_features(self):
        with pytest.raises(ModelError):
            Classifier("C", 0, ("X", "X"), 0.5)

    def test_rejects_class_among_features(self):
        with pytest.raises(ModelError):
            Classifier("C", 0, ("C", "X"), 0.5)

    def test_rejects_negative_or_nonfinite_threshold(self):
        with pytest.raises(ModelError):
            Classifier("C", 0, ("X",), -0.1)
        with pytest.raises(ModelError):
            Classifier("C", 0, ("X",), math.inf)

    def test_threshold_above_one_is_admitted(self):
        # An all-negative operating point needs a threshold above every
        # attainable posterior.
        clf = Classifier("C", 0, ("X",), 1.25)
        assert clf.threshold == 1.25

    def test_positive_value_must_be_binary_index(self):
        with pytest.raises(ModelError):
            Classifier("C", 2, ("X",), 0.5)

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, "1", None, 2, -1])
    def test_positive_value_must_be_an_int_index(self, value):
        # True == 1 and 1.0 == 1, but neither is an index, as
        # check_assignment takes none.
        with pytest.raises(ModelError, match=r"^positive_value must be 0 or 1 for a binary class, got "):
            Classifier("C", value, ("X",), 0.5)

    @pytest.mark.parametrize("threshold", [True, False, "0.25", None, 1j, [0.5], 10**400])
    def test_threshold_must_be_a_real_number(self, threshold):
        # The rule CostModel applies to costs and budgets: no bool, no
        # string, and a float must hold it.
        with pytest.raises(ModelError, match=r"^threshold must be a "):
            Classifier("C", 1, ("X",), threshold)
        with pytest.raises(ModelError, match=r"^threshold must be a "):
            bnmodel.check_threshold(threshold)

    @pytest.mark.parametrize("threshold", [1, Fraction(1, 4), np.float32(0.25), np.int64(0)])
    def test_threshold_takes_any_real_number(self, threshold):
        clf = Classifier("C", 1, ("X",), threshold)
        assert type(clf.threshold) is float and clf.threshold == float(threshold)

    def test_empty_feature_set_is_allowed(self):
        assert Classifier("C", 1, (), 0.5).features == ()


class TestCostModel:
    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ModelError):
            CostModel({"A": 0.0}, 1.0)
        with pytest.raises(ModelError):
            CostModel({"A": -2.0}, 1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ModelError):
            CostModel({"A": 1.0}, -1.0)

    @pytest.mark.parametrize("value", ["x", "1.5", None, True, False, 1j, [1.0]])
    def test_rejects_a_cost_that_is_not_a_number(self, value):
        with pytest.raises(ModelError, match=r"cost of 'B' must be a number"):
            CostModel({"A": 1.0, "B": value}, 1.0)

    @pytest.mark.parametrize("value", ["x", "1.5", None, True, False, 1j, [1.0]])
    def test_rejects_a_budget_that_is_not_a_number(self, value):
        with pytest.raises(ModelError, match=r"budget must be a number"):
            CostModel({"A": 1.0}, value)

    def test_rejects_a_number_too_large_for_a_float(self):
        with pytest.raises(ModelError, match=r"cost of 'A' must be a finite value"):
            CostModel({"A": 10**400}, 1.0)
        with pytest.raises(ModelError, match=r"budget must be a finite value"):
            CostModel({"A": 1.0}, Fraction(10**400, 3))

    def test_accepts_any_real_number(self):
        costs = CostModel({"A": 2, "B": Fraction(1, 2), "C": np.float32(0.25)}, np.int64(3))
        assert costs.budget == 3.0 and type(costs.budget) is float
        assert costs.total(("A", "B", "C")) == 2.75

    def test_cost_of_unknown_feature_raises(self):
        costs = CostModel({"A": 1.0}, 1.0)
        with pytest.raises(ModelError):
            costs.cost_of("B")

    def test_total_and_unit(self):
        costs = CostModel.unit(("A", "B", "C"), 2.0)
        assert costs.budget == 2.0
        assert costs.total(("A", "C")) == 2.0
        assert CostModel({"A": 0.5, "B": 2.5}, 9).total(("A", "B")) == 3.0

    def test_total_past_the_largest_float_does_not_fit(self):
        costs = CostModel({"A": 1e308, "B": 1e308, "C": 1.0}, sys.float_info.max)
        assert costs.fits(("A", "C"))
        assert not costs.fits(("A", "B"))
        assert not costs.fits(("C", "B", "A"))

    def test_total_past_the_largest_float_is_inf(self):
        assert CostModel({"A": 1e308, "B": 1e308}, 1).total(("A", "B")) == math.inf
        assert CostModel({"A": 1e308, "B": 1e308}, 1).total(("A",)) == 1e308


class TestNetworkStructure:
    def test_topological_order_follows_edges(self):
        # Declared child-before-parent; the order must still be topological.
        net = BayesianNetwork(
            (Variable("B", ("x", "y")), Variable("A", ("x", "y"))),
            (Cpt("B", ("A",), ((0.5, 0.5), (0.2, 0.8))), Cpt("A", (), ((0.3, 0.7),))),
        )
        assert net.order == ("A", "B")
        assert net.names == ("B", "A")
        assert net.parents("B") == ("A",)

    def test_cycle_yields_no_order_and_fails_check(self):
        net = BayesianNetwork(
            (Variable("A", ("x", "y")), Variable("B", ("x", "y"))),
            (
                Cpt("A", ("B",), ((0.5, 0.5), (0.5, 0.5))),
                Cpt("B", ("A",), ((0.5, 0.5), (0.5, 0.5))),
            ),
        )
        assert net.order is None
        problems = validate_network(net)
        assert any("cycle" in p for p in problems)
        with pytest.raises(ModelError):
            check_network(net)

    def test_validate_reports_row_sum_and_shape_problems(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("a", "b"))),
            (Cpt("C", (), ((0.5, 0.6),)), Cpt("X", ("C",), ((0.5, 0.5),))),
        )
        problems = validate_network(net)
        assert any("row sum" in p for p in problems)
        assert any("expected 2 rows" in p for p in problems)

    def test_validate_reports_missing_and_dangling(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")),),
            (Cpt("C", ("Ghost",), ((0.5, 0.5), (0.5, 0.5))),),
        )
        problems = validate_network(net)
        assert any("unknown parent 'Ghost'" in p for p in problems)

    def test_repeated_parent_is_invalid(self):
        # Four rows fit the parent list ("C", "C"), but the row-major
        # index would add C's value twice and read only rows 0 and 3.
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("a", "b"))),
            (
                Cpt("C", (), ((0.5, 0.5),)),
                Cpt("X", ("C", "C"), ((0.9, 0.1), (0.9, 0.1), (0.3, 0.7), (0.3, 0.7))),
            ),
        )
        assert validate_network(net) == ["cpt 'X' lists parent 'C' twice"]
        assert net.order is None
        with pytest.raises(ModelError, match="lists parent 'C' twice"):
            check_network(net)

    def test_valid_fixture_has_no_problems(self, quiz_net):
        assert validate_network(quiz_net) == []
        check_network(quiz_net)

    def test_invalid_rows_leave_no_order(self):
        net = tiny_net(rows=((0.6, 0.6), (0.2, 0.8)))
        assert validate_network(net) == ["cpt 'X' row 0: row sum 1.2 != 1"]
        assert net.order is None

    def test_cycle_message_follows_the_edges(self):
        # A -> B -> C -> A, entered from D, which only hangs off the cycle.
        net = BayesianNetwork(
            tuple(Variable(n, ("x", "y")) for n in "DABC"),
            (
                Cpt("D", ("A",), ((0.5, 0.5),) * 2),
                Cpt("A", ("C",), ((0.5, 0.5),) * 2),
                Cpt("B", ("A",), ((0.5, 0.5),) * 2),
                Cpt("C", ("B",), ((0.5, 0.5),) * 2),
            ),
        )
        assert validate_network(net) == ["cycle detected: A -> B -> C -> A"]
        assert net.order is None

    def test_own_parent_is_a_cycle(self):
        net = tiny_net()
        looped = BayesianNetwork(
            net.variables, (net.cpts[0], Cpt("X", ("C", "X"), ((0.5, 0.5),) * 4))
        )
        assert validate_network(looped) == ["cycle detected: X -> X"]

    def test_validate_returns_a_fresh_list(self):
        net = tiny_net(rows=((0.6, 0.6), (0.2, 0.8)))
        validate_network(net).append("edited")
        assert validate_network(net) == ["cpt 'X' row 0: row sum 1.2 != 1"]

    def test_unknown_variable_lookup(self, quiz_net):
        with pytest.raises(ModelError):
            quiz_net.var("Nope")
        with pytest.raises(ModelError):
            quiz_net.cpt("Nope")


def _two_variable(x_parents, x_rows, c_parents=(), c_rows=((0.5, 0.5),)) -> BayesianNetwork:
    return BayesianNetwork(
        (Variable("C", ("neg", "pos")), Variable("X", ("a", "b"))),
        (Cpt("C", c_parents, c_rows), Cpt("X", x_parents, x_rows)),
    )


INVALID = {
    "row sum": _two_variable(("C",), ((0.6, 0.6), (0.2, 0.8))),
    "row arity": _two_variable(("C",), ((1.0,), (0.2, 0.8))),
    "row count": _two_variable(("C",), ((0.9, 0.1), (0.2, 0.8), (0.5, 0.5))),
    "entry": _two_variable(("C",), ((1.5, -0.5), (0.2, 0.8))),
    "cycle": _two_variable(("C",), ((0.9, 0.1), (0.2, 0.8)), ("X",), ((0.5, 0.5),) * 2),
    "dangling parent": _two_variable(("C", "Ghost"), ((0.9, 0.1), (0.2, 0.8))),
    "repeated parent": _two_variable(("C", "C"), ((0.9, 0.1),) * 2 + ((0.2, 0.8),) * 2),
    "bool entry": _two_variable(("C",), ((True, False), (0.2, 0.8))),
    "string entry": _two_variable(("C",), (("0.5", 0.5), (0.2, 0.8))),
    "bare-string parents": _two_variable("C", ((0.9, 0.1), (0.2, 0.8))),
    "bare-string labels": BayesianNetwork(
        (Variable("C", ("neg", "pos")), Variable("X", "ab")),
        (Cpt("C", (), ((0.5, 0.5),)), Cpt("X", ("C",), ((0.9, 0.1), (0.2, 0.8)))),
    ),
    # Unhashable, so the agreement caches meet it in hash() before check_network.
    "set labels": BayesianNetwork(
        (Variable("C", ("neg", "pos")), Variable("X", {"a", "b"})),
        (Cpt("C", (), ((0.5, 0.5),)), Cpt("X", ("C",), ((0.9, 0.1), (0.2, 0.8)))),
    ),
}
CLF = Classifier("C", 1, ("X",), 0.5)
ENTRY_POINTS = {
    "maa": lambda net: maa(net, CLF, ("X",)),
    "mpa": lambda net: mpa(net, CLF, ("X",)),
    "eca": lambda net: eca(net, CLF, replace(CLF, features=())),
    "sdp": lambda net: sdp(net, CLF, ("X",), {}),
    "sdp oracle": lambda net: inference.sdp(net, CLF, ("X",), {}),
    "marginal": lambda net: marginal(net, {"X": 0}),
    "posterior_class": lambda net: posterior_class(net, CLF, {"X": 0}),
    "eca_trim": lambda net: eca_trim(net, CLF, CostModel.unit(("X",), 1.0)),
    "sample_rows": lambda net: sample_rows(net, 3, 0),
}


class TestOneValidityRule:
    """Every library entry point refuses exactly the networks
    validate_network reports, naming the first problem, before it reads a
    CPT entry."""

    @pytest.mark.parametrize("kind", INVALID)
    @pytest.mark.parametrize("call", ENTRY_POINTS)
    def test_entry_points_refuse_invalid_networks(self, kind, call):
        net = INVALID[kind]
        problems = validate_network(net)
        assert len(problems) == 1
        with pytest.raises(ModelError) as info:
            ENTRY_POINTS[call](net)
        assert str(info.value) == "network is not valid: " + problems[0]

    def test_message_names_the_first_three_problems(self):
        net = BayesianNetwork(
            (Variable("C", ("neg", "pos")), Variable("X", ("a", "b"))),
            (Cpt("C", (), ((0.6, 0.6),)), Cpt("X", ("C",), ((2.0, -1.0), (1.0,)))),
        )
        problems = validate_network(net)
        assert len(problems) == 3
        with pytest.raises(ModelError) as info:
            check_network(net)
        assert str(info.value) == "network is not valid: " + "; ".join(problems)

    def test_problems_are_computed_once_per_network(self, monkeypatch):
        calls = []
        real = bnmodel._problems_and_order
        monkeypatch.setattr(
            bnmodel, "_problems_and_order", lambda net: calls.append(net) or real(net)
        )
        net = parse_network((FIXTURES / "quiz.bn.json").read_bytes())
        assert len(calls) == 1
        clf = Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.07)
        maa(net, clf, ("Q1",))
        mpa(net, clf, ("Q1",))
        eca(net, clf, replace(clf, features=("Q2",)))
        sdp(net, clf, ("Q1",), {"Q3": 0})
        assert validate_network(net) == []
        assert calls == [net]


class TestCheckClassifier:
    def test_accepts_fixture(self, quiz_net, quiz_alpha):
        check_classifier(quiz_net, quiz_alpha)

    def test_rejects_unknown_class(self, quiz_net):
        with pytest.raises(ModelError):
            check_classifier(quiz_net, Classifier("Z", 0, ("Q1",), 0.5))

    def test_rejects_unknown_feature(self, quiz_net):
        with pytest.raises(ModelError):
            check_classifier(quiz_net, Classifier("C", 0, ("Q9",), 0.5))

    def test_rejects_nonbinary_class(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b", "c")), Variable("X", ("a", "b"))),
            (
                Cpt("C", (), ((0.2, 0.3, 0.5),)),
                Cpt("X", ("C",), ((0.5, 0.5),) * 3),
            ),
        )
        with pytest.raises(ModelError):
            check_classifier(net, Classifier("C", 0, ("X",), 0.5))


class TestFeaturesSeparatedGivenClass:
    """The frontier search's precondition: every feature d-separated from
    the other features given the class."""

    def test_quiz_is_separated(self, quiz_net, quiz_alpha):
        assert features_separated(quiz_net, quiz_alpha)

    def test_gbn4_is_not(self, gbn4_net, gbn4_alpha):
        assert not features_separated(gbn4_net, gbn4_alpha)

    @pytest.mark.parametrize("name", SEPARATED_MODELS)
    def test_separated_beyond_naive_bayes_structure(self, name):
        parents, features = SEPARATED_MODELS[name]
        assert features_separated(binary_dag(parents), Classifier("C", 1, features, 0.5))

    @pytest.mark.parametrize("name", COUPLED_MODELS)
    def test_coupled_features(self, name):
        parents, features = COUPLED_MODELS[name]
        assert not features_separated(binary_dag(parents), Classifier("C", 1, features, 0.5))


class TestCondIndependentGivenClass:
    def test_naive_bayes_subsets_always_independent(self, quiz_net, quiz_alpha):
        for subset in ((), ("Q1",), ("Q2", "Q3"), ("Q1", "Q2", "Q3")):
            assert cond_independent_given_class(quiz_net, quiz_alpha, subset)

    def test_gbn4_coupled_subsets(self, gbn4_net, gbn4_alpha):
        assert not cond_independent_given_class(gbn4_net, gbn4_alpha, ("F1", "F2"))
        assert not cond_independent_given_class(gbn4_net, gbn4_alpha, ("F2",))
        # Empty and full subsets are vacuously independent of the rest.
        assert cond_independent_given_class(gbn4_net, gbn4_alpha, ())
        assert cond_independent_given_class(gbn4_net, gbn4_alpha, ("F1", "F2", "F3"))

    def test_rejects_non_feature(self, quiz_net, quiz_alpha):
        with pytest.raises(ModelError):
            cond_independent_given_class(quiz_net, quiz_alpha, ("C",))

    @pytest.mark.parametrize("name", [*SEPARATED_MODELS, *COUPLED_MODELS])
    def test_first_feature_against_the_rest(self, name):
        # Latent variables and parents of the class, which the random
        # models below do not have.
        parents, features = {**SEPARATED_MODELS, **COUPLED_MODELS}[name]
        net, clf = binary_dag(parents), Classifier("C", 1, features, 0.5)
        independent = cond_independent_given_class(net, clf, features[:1])
        assert independent == (name in SEPARATED_MODELS)

    def test_matches_distribution_factorization(self):
        # d-separation must agree with a numeric independence check:
        # Pr(s, r | c) == Pr(s|c) Pr(r|c) for all instantiations.
        from bntrim import marginal

        rng = random.Random(42)
        agree = 0
        for i in range(30):
            net, clf = random_dag_instance(rng, max_features=4, max_card=2)
            subset = tuple(f for f in clf.features if rng.random() < 0.5)
            rest = tuple(f for f in clf.features if f not in subset)
            claimed = cond_independent_given_class(net, clf, subset)
            if not subset or not rest:
                assert claimed
                continue
            factorizes = True
            c_card = net.var(clf.class_var).cardinality
            import itertools

            for cval in range(c_card):
                pc = marginal(net, {clf.class_var: cval})
                if pc == 0.0:
                    continue
                for sv in itertools.product(*(range(net.var(f).cardinality) for f in subset)):
                    for rv in itertools.product(*(range(net.var(f).cardinality) for f in rest)):
                        a = {clf.class_var: cval}
                        a.update(zip(subset, sv))
                        ps = marginal(net, a) / pc
                        b = {clf.class_var: cval}
                        b.update(zip(rest, rv))
                        pr = marginal(net, b) / pc
                        both = dict(a)
                        both.update(zip(rest, rv))
                        pj = marginal(net, both) / pc
                        if abs(pj - ps * pr) > 1e-9:
                            factorizes = False
                            break
                    if not factorizes:
                        break
                if not factorizes:
                    break
            # d-separation is sound: claimed independence implies numeric
            # factorization (the converse can fail on unfaithful numbers).
            if claimed:
                assert factorizes
                agree += 1
        assert agree > 0


KEEP_CLASS = "trimmed classifier must keep the class variable and positive value"

# Every library call that takes feature names, as a function of the names
# and the classifier they are read against (cv_accuracy's, against a
# dataset sampled from the network).  A sequence can repeat a name;
# a mapping cannot, and a trimmed Classifier refuses repeats (and the class
# variable) itself.
SEQUENCE_READERS = {
    "maa": lambda net, clf, names: maa(net, clf, names),
    "mpa": lambda net, clf, names: mpa(net, clf, names),
    "build_instance_table": lambda net, clf, names: build_instance_table(net, clf, names),
    "maa_bruteforce": lambda net, clf, names: maa_bruteforce(net, clf, names),
    "cond_independent_given_class": lambda net, clf, names: cond_independent_given_class(
        net, clf, names
    ),
    "sdp query": lambda net, clf, names: sdp(net, clf, names, {}),
    "sdp oracle query": lambda net, clf, names: inference.sdp(net, clf, names, {}),
    "esdp_two_threshold hidden": lambda net, clf, names: esdp_two_threshold(
        net, clf, 0.5, names, ()
    ),
    "esdp_two_threshold observed": lambda net, clf, names: esdp_two_threshold(
        net, clf, 0.5, (), names
    ),
    "cv_accuracy": lambda net, clf, names: cv_accuracy(
        synthesize_dataset(net, "C", 30, 0), names, 3, 0
    ),
}
MAPPING_READERS = {
    "sdp evidence": lambda net, clf, names: sdp(net, clf, (), dict.fromkeys(names, 0)),
    "sdp oracle evidence": lambda net, clf, names: inference.sdp(
        net, clf, (), dict.fromkeys(names, 0)
    ),
    "posterior_class": lambda net, clf, names: posterior_class(
        net, clf, dict.fromkeys(names, 0)
    ),
}
TRIMMING_READERS = {
    "eca": lambda net, clf, names: eca(net, clf, replace(clf, features=names)),
    "eca_bruteforce": lambda net, clf, names: eca_bruteforce(
        net, clf, replace(clf, features=names)
    ),
    "empirical_agreement": lambda net, clf, names: empirical_agreement(
        net, clf, replace(clf, features=names), 10, 0
    ),
}

# Every call that takes feature names, read against a model whose
# features have one-letter names, where a bare string split into its
# characters would name real features.
STRING_READERS = {
    **SEQUENCE_READERS,
    **TRIMMING_READERS,
    "Classifier": lambda net, clf, names: Classifier("C", 1, names, 0.5),
}


def one_letter_model() -> tuple[BayesianNetwork, Classifier]:
    net = BayesianNetwork(
        (Variable("C", ("neg", "pos")), Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (
            Cpt("C", (), ((0.5, 0.5),)),
            Cpt("A", ("C",), ((0.9, 0.1), (0.2, 0.8))),
            Cpt("B", ("C",), ((0.7, 0.3), (0.4, 0.6))),
        ),
    )
    return net, Classifier("C", 1, ("A", "B"), 0.5)


class TestOneReadingOfFeatureNames:
    """``kept_in_order`` decides, for every call, that each name is a
    feature and none repeats, with one message each."""

    @pytest.mark.parametrize(
        "reader", [*SEQUENCE_READERS.values(), *MAPPING_READERS.values(), *TRIMMING_READERS.values()],
        ids=[*SEQUENCE_READERS, *MAPPING_READERS, *TRIMMING_READERS],
    )
    def test_non_feature(self, quiz_net, quiz_alpha, reader):
        with pytest.raises(ModelError) as info:
            reader(quiz_net, quiz_alpha, ("Q1", "Z"))
        assert str(info.value) == "kept set names non-features: ['Z']"

    @pytest.mark.parametrize(
        "reader", [*SEQUENCE_READERS.values(), *MAPPING_READERS.values()],
        ids=[*SEQUENCE_READERS, *MAPPING_READERS],
    )
    def test_class_variable(self, quiz_net, quiz_alpha, reader):
        with pytest.raises(ModelError) as info:
            reader(quiz_net, quiz_alpha, ("C",))
        assert str(info.value) == "kept set names non-features: ['C']"

    @pytest.mark.parametrize("reader", SEQUENCE_READERS.values(), ids=SEQUENCE_READERS)
    def test_repeated_name(self, quiz_net, quiz_alpha, reader):
        with pytest.raises(ModelError) as info:
            reader(quiz_net, quiz_alpha, ("Q2", "Q1", "Q2"))
        assert str(info.value) == "kept set names 'Q2' twice"

    @pytest.mark.parametrize("reader", TRIMMING_READERS.values(), ids=TRIMMING_READERS)
    @pytest.mark.parametrize(
        "names, message",
        [
            (("Q1", "Q1"), "classifier features contain duplicates"),
            (("C",), "class variable cannot be a feature"),
        ],
    )
    def test_trimmed_classifier_refuses_before_the_call(
        self, quiz_net, quiz_alpha, reader, names, message
    ):
        with pytest.raises(ModelError) as info:
            reader(quiz_net, quiz_alpha, names)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda net, clf: sdp(net, clf, ("Q1", "Q2"), {"Q1": 0}),
            lambda net, clf: esdp_two_threshold(net, clf, 0.5, ("Q1",), ("Q3", "Q1")),
        ],
        ids=["sdp", "esdp_two_threshold"],
    )
    def test_overlap_is_a_repeat(self, quiz_net, quiz_alpha, call):
        with pytest.raises(ModelError) as info:
            call(quiz_net, quiz_alpha)
        assert str(info.value) == "kept set names 'Q1' twice"

    @pytest.mark.parametrize("reader", STRING_READERS.values(), ids=STRING_READERS)
    def test_bare_string_is_refused(self, reader):
        net, clf = one_letter_model()
        with pytest.raises(ModelError) as info:
            reader(net, clf, "AB")
        assert str(info.value) == "expected a collection of names, got the string 'AB'"


class TestEmpiricalAgreementRefusesWhatEcaRefuses:
    @pytest.mark.parametrize(
        "alpha_features, beta, message",
        [
            (("Q1", "Q2", "Q3"), Classifier("Q1", 0, ("Q2",), 0.5), KEEP_CLASS),
            (("Q1", "Q2", "Q3"), Classifier("C", 1, ("Q2",), 0.5), KEEP_CLASS),
            (("Q1", "Q2"), Classifier("C", 0, ("Q3",), 0.5), "kept set names non-features: ['Q3']"),
            (("Q1", "Q2"), Classifier("C", 0, ("Q2", "Q3"), 0.5), "kept set names non-features: ['Q3']"),
            (("Q1", "Q2", "Q3"), Classifier("C", 0, ("Q3", "Q1"), 0.3), None),
            (("Q1", "Q2", "Q3"), Classifier("C", 0, (), 0.5), None),
        ],
        ids=[
            "other class variable", "other positive value", "outside alpha",
            "partly outside alpha", "trimming", "empty trimming",
        ],
    )
    def test_same_pairs_same_messages(self, quiz_net, quiz_alpha, alpha_features, beta, message):
        alpha = replace(quiz_alpha, features=alpha_features)

        def refusal(call):
            try:
                call()
            except ModelError as e:
                return str(e)
            return None

        assert refusal(lambda: eca(quiz_net, alpha, beta)) == message
        assert refusal(lambda: empirical_agreement(quiz_net, alpha, beta, 50, 0)) == message


class TestDocumentTypes:
    """Networks built in code follow the network document's type rule:
    the constructors keep what is neither a list nor a number as given,
    and validate_network reports it."""

    def test_bare_string_labels(self):
        variable = Variable("A", "xy")
        assert variable.values == "xy"
        net = BayesianNetwork((variable,), (Cpt("A", (), ((0.5, 0.5),)),))
        assert validate_network(net) == ["variable 'A' needs a list of string 'values'"]

    def test_bare_string_parents(self):
        cpt = Cpt("B", "AC", ((0.5, 0.5),) * 4)
        assert cpt.parents == "AC"
        net = BayesianNetwork(
            tuple(Variable(n, ("x", "y")) for n in "ABC"),
            (Cpt("A", (), ((0.5, 0.5),)), cpt, Cpt("C", (), ((0.5, 0.5),))),
        )
        assert validate_network(net) == ["cpd 'B' needs a list of string 'parents'"]

    @pytest.mark.parametrize("entry", [True, "0.5"], ids=["bool", "string"])
    def test_entries_that_are_no_numbers(self, entry):
        net = tiny_net(prior=(entry, 0.5))
        assert net.cpt("C").rows[0][0] is entry
        assert validate_network(net) == ["cpd 'C' row 0 must be a list of numbers"]

    def test_names_that_are_no_strings(self):
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable(5, ("u", "v"))),
            (Cpt("C", (), ((0.5, 0.5),)), Cpt(5, ("C",), ((0.5, 0.5), (0.2, 0.8)))),
        )
        assert validate_network(net) == [
            "variable 5 needs a string 'name'",
            "cpd 5 needs a string 'child'",
        ]

    def test_unhashable_names_are_reported(self):
        # Built without error, though the names cannot key a dict.
        net = BayesianNetwork((Variable(["A"], ("x", "y")),), (Cpt(["A"], (), ((0.5, 0.5),)),))
        problems = ["variable ['A'] needs a string 'name'", "cpd ['A'] needs a string 'child'"]
        assert validate_network(net) == problems
        with pytest.raises(ModelError, match=re.escape("; ".join(problems))):
            check_network(net)
        net = BayesianNetwork(
            (Variable("C", ("a", "b")), Variable("X", ("u", "v"))),
            (Cpt("C", (), ((0.5, 0.5),)), Cpt(["X"], ("C",), ((0.5, 0.5), (0.2, 0.8)))),
        )
        assert validate_network(net) == ["cpd ['X'] needs a string 'child'", "variable 'X' has no cpt"]
        with pytest.raises(ModelError, match="needs a string 'child'"):
            maa(net, Classifier("C", 1, ("X",), 0.5), ("X",))

    def test_numbers_become_floats(self):
        rows = Cpt("A", [], [[1, Fraction(0)]]).rows
        assert rows == ((1.0, 0.0),)
        assert all(type(x) is float for x in rows[0])

    def test_invalid_network_hashes_and_misses_the_caches(self):
        # (True, False) == (1.0, 0.0), so only validity tells the two apart.
        valid, invalid = tiny_net(prior=(1.0, 0.0)), tiny_net(prior=(True, False))
        clf = Classifier("C", 1, ("X",), 0.5)
        assert hash(invalid) == hash(valid) and invalid != valid
        assert maa(valid, clf, ("X",)).score == 1.0
        with pytest.raises(ModelError, match="row 0 must be a list of numbers"):
            maa(invalid, clf, ("X",))


class TestNetworkHash:
    def test_equals_the_hash_of_the_fields_in_equality(self, quiz_net):
        assert hash(quiz_net) == hash((quiz_net.variables, quiz_net.cpts))

    def test_equal_networks_hash_alike_and_share_cache_entries(self, quiz_net, quiz_alpha):
        from bntrim.agreement import _classifier_grid, mpa

        twin = BayesianNetwork(quiz_net.variables, quiz_net.cpts)
        assert twin == quiz_net and twin is not quiz_net
        assert hash(twin) == hash(quiz_net)
        mpa(quiz_net, quiz_alpha, ("Q1",))
        before = _classifier_grid.cache_info()
        mpa(twin, quiz_alpha, ("Q1",))
        after = _classifier_grid.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        # Every caller shares the one cached array, so none may write to it.
        cells = _classifier_grid(twin, quiz_alpha)
        assert cells is _classifier_grid(quiz_net, quiz_alpha)
        with pytest.raises(ValueError):
            cells[0, ...] = 0.0

    def test_networks_differing_in_one_cpt_entry_differ(self):
        a = tiny_net(rows=((0.9, 0.1), (0.2, 0.8)))
        b = tiny_net(rows=((0.9, 0.1), (0.25, 0.75)))
        assert a != b
        assert hash(a) == hash((a.variables, a.cpts))
        assert hash(b) == hash((b.variables, b.cpts))
