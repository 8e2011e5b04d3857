"""Information-gain feature selection and the brute-force oracles that
cross-check the analytic agreement computations."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    EnumerationLimitError,
    ModelError,
    Variable,
    agreement,
    cli,
    eca,
    eca_bruteforce,
    eca_trim,
    ig_report,
    ig_select,
    inference,
    info_gain,
    maa,
    maa_bruteforce,
    marginal,
    serialize_network,
)

import exact
from conftest import (
    bound_filter_models, dag_networks, nb_instance, random_costs, random_instance, random_subset,
)

# The entries of bound_filter_models in which a class mass times a
# feature-value mass underflows to 0 while their joint mass is positive.
UNDERFLOW_MODELS = (14, 29, 69, 89, 104, 159, 169, 199)


def marginal_info_gain(net, clf):
    """info_gain as one marginal per class value, feature value and pair
    of them, the way it was computed before it read each feature's sums
    from one grouped pass."""
    class_mass = [marginal(net, {clf.class_var: c}) for c in range(2)]
    out = {}
    for f in clf.features:
        card = net.var(f).cardinality
        feature_mass = [marginal(net, {f: v}) for v in range(card)]
        terms = []
        for c in range(2):
            for v in range(card):
                joint = marginal(net, {clf.class_var: c, f: v})
                if joint > 0.0:
                    terms.append(joint * math.log2(joint / (class_mass[c] * feature_mass[v])))
        out[f] = math.fsum(terms)
    return out


def exact_info_gain(net, clf):
    """info_gain with every mass an exact fraction (``exact.cells``),
    each term's logarithm taken of its exact ratio, scaled by a power of
    two into [1/2, 2) so its float stays in range, and the terms summed
    with fsum."""
    grid = exact.cells(net, clf)
    class_mass = [sum(sides[c] for sides in grid.values()) for c in range(2)]
    out = {}
    for i, f in enumerate(clf.features):
        joint = {}
        for fvals, sides in grid.items():
            for c, m in enumerate(sides):
                joint[c, fvals[i]] = joint.get((c, fvals[i]), 0) + m
        value_mass = {}
        for (_, v), m in joint.items():
            value_mass[v] = value_mass.get(v, 0) + m
        terms = []
        for (c, v), m in joint.items():
            if m:
                ratio = m / (class_mass[c] * value_mass[v])
                k = ratio.numerator.bit_length() - ratio.denominator.bit_length()
                terms.append(float(m) * (k + math.log2(ratio / Fraction(2) ** k)))
        out[f] = math.fsum(terms)
    return out


class TestInfoGain:
    def test_quiz_values_and_ranking(self, quiz_net, quiz_alpha):
        scores = info_gain(quiz_net, quiz_alpha)
        assert list(scores) == list(quiz_alpha.features)
        assert scores["Q1"] == pytest.approx(0.102621820589, abs=1e-9)
        assert scores["Q2"] == pytest.approx(0.029916998319, abs=1e-9)
        assert scores["Q3"] == pytest.approx(0.013337158118, abs=1e-9)
        assert scores["Q1"] > scores["Q2"] > scores["Q3"]

    def test_independent_feature_scores_zero(self):
        net = BayesianNetwork(
            (Variable("C", ("neg", "pos")), Variable("X", ("a", "b"))),
            (Cpt("C", (), ((0.5, 0.5),)), Cpt("X", ("C",), ((0.25, 0.75), (0.25, 0.75)))),
        )
        assert info_gain(net, Classifier("C", 1, ("X",), 0.5)) == {"X": 0.0}

    def test_deterministic_feature_scores_one_bit(self):
        net = BayesianNetwork(
            (Variable("C", ("neg", "pos")), Variable("X", ("a", "b"))),
            (Cpt("C", (), ((0.5, 0.5),)), Cpt("X", ("C",), ((1.0, 0.0), (0.0, 1.0)))),
        )
        assert info_gain(net, Classifier("C", 1, ("X",), 0.5)) == {"X": 1.0}

    @settings(max_examples=150, deadline=None)
    @given(dag_networks(max_card=3))
    def test_same_bits_as_one_marginal_per_mass(self, model):
        # dag_networks makes about one CPT row in four deterministic, so
        # zero joint masses occur.
        net, clf = model
        got = {f: x.hex() for f, x in info_gain(net, clf).items()}
        assert got == {f: x.hex() for f, x in marginal_info_gain(net, clf).items()}

    @pytest.mark.parametrize("per_pass", [1, 2])
    def test_same_bits_in_smaller_batches(self, monkeypatch, per_pass):
        # Models this small sum every feature in one pass; a smaller batch
        # splits them, the last batch short when per_pass does not divide
        # the feature count, and widths differ within a batch.
        rng = random.Random(99)
        for i in range(20):
            net, clf = random_instance(rng, i, max_features=5)
            cells = math.prod(net.var(f).cardinality for f in clf.features)
            monkeypatch.setattr(agreement, "_BATCH_CELLS", per_pass * 2 * cells)
            got = {f: x.hex() for f, x in info_gain(net, clf).items()}
            assert got == {f: x.hex() for f, x in marginal_info_gain(net, clf).items()}

    @pytest.mark.parametrize("per_pass", [None, 1, 2])
    def test_one_column_sums_call_per_batch_of_one_cardinality(self, monkeypatch, per_pass):
        # Four ternary and two binary features, 2 * 324 pos and neg cells:
        # the default cap sums each cardinality's features in one call, a
        # smaller one splits them into batches of per_pass, and the class
        # masses take one more call, of one row.
        net, clf = nb_instance(random.Random(8400), 6, max_card=3)
        cards = [net.var(f).cardinality for f in clf.features]
        assert cards == [3, 2, 3, 3, 3, 2]
        want = {f: x.hex() for f, x in info_gain(net, clf).items()}
        if per_pass is not None:
            monkeypatch.setattr(agreement, "_BATCH_CELLS", per_pass * 2 * math.prod(cards))
        rows = []
        real = agreement._column_sums

        def recorded(x, kinds):
            rows.append(x.shape[1])
            return real(x, kinds)

        monkeypatch.setattr(agreement, "_column_sums", recorded)
        assert {f: x.hex() for f, x in info_gain(net, clf).items()} == want
        batches = {None: [4 * 3, 2 * 2], 1: [3] * 4 + [2] * 2, 2: [2 * 3] * 2 + [2 * 2]}
        assert sorted(rows) == sorted([*batches[per_pass], 1])

    @settings(max_examples=150, deadline=None)
    @given(dag_networks(max_features=5, max_card=3), st.data())
    def test_latent_variables_within_1e_12(self, model, data):
        # A classifier over a strict subset of the non-class variables
        # leaves latent ones, which the grid sums out with numpy, so its
        # cells are rounded sums, not the scalar route's products.
        net, full = model
        names = full.features
        assume(len(names) > 1)
        kept = data.draw(st.sets(st.sampled_from(names), min_size=1, max_size=len(names) - 1))
        clf = Classifier("C", full.positive_value, tuple(f for f in names if f in kept), 0.5)
        got, want = info_gain(net, clf), marginal_info_gain(net, clf)
        assert list(got) == list(want) == list(clf.features)
        for f in clf.features:
            assert abs(got[f] - want[f]) <= 1e-12, f


    def test_underflowing_mass_products_within_1e_12_of_exact(self):
        models = bound_filter_models()
        for i in UNDERFLOW_MODELS:
            net, clf = models[i]
            masses, class_masses = agreement._value_masses(net, clf)
            assert any(
                joint > 0.0 and class_mass * feature_mass == 0.0
                for feature_masses, *joints in masses
                for class_mass, joint_masses in zip(class_masses, joints)
                for feature_mass, joint in zip(feature_masses, joint_masses)
            ), i
            got, want = info_gain(net, clf), exact_info_gain(net, clf)
            assert list(got) == list(want) == list(clf.features)
            for f in clf.features:
                assert abs(got[f] - want[f]) <= 1e-12, (i, f)


class TestIgSelect:
    def test_takes_top_scores_within_budget(self):
        chosen = ig_select({"A": 0.5, "B": 0.4, "C": 0.3}, CostModel.unit(("A", "B", "C"), 2))
        assert chosen == ("A", "B")

    def test_skips_features_that_never_fit(self):
        chosen = ig_select({"A": 0.5, "B": 0.4}, CostModel({"A": 3.0, "B": 1.0}, 2))
        assert chosen == ("B",)

    def test_empty_scores(self):
        assert ig_select({}, CostModel({}, 5)) == ()

    def test_tie_breaks_by_input_order(self):
        assert ig_select({"A": 0.5, "B": 0.5}, CostModel.unit(("A", "B"), 1)) == ("A",)


class TestIgReport:
    def test_original_threshold_report(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        report = ig_report(quiz_net, quiz_alpha, costs)
        assert report.method == "information-gain"
        assert report.chosen == ("Q1", "Q2")
        assert report.threshold == quiz_alpha.threshold
        assert report.achieved_eca == pytest.approx(0.9082, abs=1e-9)
        assert costs.total(report.chosen) <= costs.budget

    def test_retuned_report_achieves_subset_optimum(self, quiz_net, quiz_alpha):
        costs = CostModel.unit(quiz_alpha.features, 2)
        report = ig_report(quiz_net, quiz_alpha, costs, retune_threshold=True)
        assert report.method == "information-gain+retune"
        assert report.achieved_eca == pytest.approx(0.9748, abs=1e-9)
        assert report.achieved_eca == pytest.approx(
            maa(quiz_net, quiz_alpha, report.chosen).score, abs=1e-12
        )

    @pytest.mark.parametrize("retune", [False, True])
    def test_builds_the_classifier_grid_once(self, quiz_net, quiz_alpha, retune):
        # info_gain builds the grid; the report's eca or maa reads it back.
        agreement._classifier_grid.cache_clear()
        ig_report(quiz_net, quiz_alpha, CostModel.unit(quiz_alpha.features, 2), retune)
        info = agreement._classifier_grid.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestEcaBruteforce:
    def test_fixture_values(self, quiz_net, quiz_alpha):
        beta = Classifier("C", 0, ("Q1", "Q3"), 0.10)
        assert eca_bruteforce(quiz_net, quiz_alpha, beta) == pytest.approx(0.9082, abs=1e-9)
        assert eca_bruteforce(quiz_net, quiz_alpha, quiz_alpha) == pytest.approx(
            1.0, abs=1e-12
        )
        low = Classifier("C", 0, ("Q3",), 0.15)
        assert eca_bruteforce(quiz_net, quiz_alpha, low) == pytest.approx(0.6918, abs=1e-9)

    def test_guard_on_huge_feature_space(self):
        from test_trimsearch import big_nb

        net, clf = big_nb(21)
        with pytest.raises(EnumerationLimitError):
            eca_bruteforce(net, clf, Classifier("C", 0, ("X0",), 0.5))

    def test_rejects_features_outside_original(self, quiz_net):
        alpha = Classifier("C", 0, ("Q1",), 0.07)
        beta = Classifier("C", 0, ("Q2",), 0.07)
        with pytest.raises(ModelError):
            eca_bruteforce(quiz_net, alpha, beta)


class TestMaaBruteforce:
    def test_gbn4_pair(self, gbn4_net, gbn4_alpha):
        score, threshold = maa_bruteforce(gbn4_net, gbn4_alpha, ("F1", "F2"))
        assert score == pytest.approx(0.5528, abs=1e-9)
        assert threshold == pytest.approx(0.5, abs=1e-9)

    def test_full_set_is_perfect(self, quiz_net, quiz_alpha):
        score, threshold = maa_bruteforce(quiz_net, quiz_alpha, quiz_alpha.features)
        assert score == pytest.approx(1.0, abs=1e-12)
        assert maa(quiz_net, quiz_alpha, quiz_alpha.features).interval.contains(threshold)

    def test_all_negative_sentinel(self, quiz_net, quiz_alpha):
        score, threshold = maa_bruteforce(quiz_net, quiz_alpha, ("Q2", "Q3"))
        assert score == pytest.approx(0.7318, abs=1e-9)
        assert threshold == pytest.approx(1.25, abs=1e-9)
        assert threshold > 1.0  # above every attainable posterior

    def test_guard_fires_before_any_enumeration(self, monkeypatch):
        # Enumerating big_nb(21)'s kept posteriors takes seconds (2^22
        # products), so the guard must fire before any enumeration.
        from test_trimsearch import big_nb

        calls = []
        real = inference._terms
        for name, module in list(sys.modules.items()):
            if name == "bntrim" or name.startswith("bntrim."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, lambda *a: calls.append(1) or real(*a))
        net, clf = big_nb(21)
        with pytest.raises(EnumerationLimitError):
            maa_bruteforce(net, clf, ("X0",))
        assert calls == []
        maa_bruteforce(*big_nb(2), ("X0",))
        assert calls  # the counter sees the enumeration

    def test_agrees_with_sweep_on_random_models(self):
        rng = random.Random(777)
        for i in range(15):
            net, clf = random_instance(rng, i, max_features=5)
            subset = random_subset(rng, clf)
            analytic = maa(net, clf, subset)
            score, threshold = maa_bruteforce(net, clf, subset)
            assert analytic.score == pytest.approx(score, abs=1e-12)
            assert analytic.interval.contains(threshold)


class TestAgreementCrossChecks:
    def test_eca_routes_agree_on_random_trimmings(self):
        rng = random.Random(31415)
        for i in range(20):
            net, clf = random_instance(rng, i, max_features=5)
            subset = random_subset(rng, clf)
            beta = Classifier(
                clf.class_var, clf.positive_value, subset, rng.uniform(0.05, 1.05)
            )
            assert eca(net, clf, beta) == pytest.approx(
                eca_bruteforce(net, clf, beta), abs=1e-12
            )

    def test_trim_dominates_ig_selection(self):
        rng = random.Random(1618)
        for i in range(20):
            net, clf = random_instance(rng, i, max_features=6)
            costs = random_costs(rng, clf)
            best = eca_trim(net, clf, costs).best_score
            chosen = ig_select(info_gain(net, clf), costs)
            fixed = eca(
                net, clf, Classifier(clf.class_var, clf.positive_value, chosen, clf.threshold)
            )
            assert best >= fixed - 1e-12


class TestIgDecimalBudgets:
    def test_choice_fits_and_is_maximal(self, tmp_path, capsys):
        # One-decimal costs and a budget on the fsum of a random subset's
        # costs: ig's choice fits, and no unchosen feature fits beside it,
        # from the library and from the CLI alike.
        rng = random.Random(2718)
        path = tmp_path / "model.bn.json"
        for i in range(200):
            net, clf = random_instance(rng, i, max_features=6)
            tenths = {f: rng.randint(1, 9) / 10 for f in clf.features}
            budget = math.fsum(c for c in tenths.values() if rng.random() < 0.5)
            costs = CostModel(tenths, budget)
            chosen = ig_report(net, clf, costs).chosen
            assert costs.fits(chosen)
            for f in clf.features:
                assert f in chosen or not costs.fits([*chosen, f])
            path.write_bytes(serialize_network(net))
            code = cli.main([
                "ig", "--network", str(path), "--class", clf.class_var,
                "--positive", net.var(clf.class_var).values[clf.positive_value],
                "--threshold", repr(clf.threshold),
                "--costs", ",".join(f"{f}={c!r}" for f, c in tenths.items()),
                "--budget", repr(budget),
            ])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["chosen"] == list(chosen)


class TestOraclesValidateOncePerCall:
    """The oracles validate their inputs up front, then enumerate through
    ``inference._terms`` without validating each assignment again;
    ``info_gain`` validates once, when it builds the classifier grid, and
    reads every mass from it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        from bntrim import inference

        calls = []
        real = inference.check_network
        monkeypatch.setattr(inference, "check_network", lambda net: calls.append(1) or real(net))
        return calls

    def test_eca_and_maa_bruteforce(self, quiz_net, quiz_alpha, checks):
        beta = Classifier("C", 0, ("Q1", "Q3"), 0.2)
        eca_bruteforce(quiz_net, quiz_alpha, beta)
        maa_bruteforce(quiz_net, quiz_alpha, ("Q2",))
        assert checks == []

    def test_esdp_two_threshold_and_sdp(self, quiz_net, quiz_alpha, checks):
        from bntrim import esdp_two_threshold
        from bntrim.inference import sdp

        esdp_two_threshold(quiz_net, quiz_alpha, 0.3, ("Q1",), ("Q2", "Q3"))
        assert checks == []
        sdp(quiz_net, quiz_alpha, ("Q1", "Q2"), {"Q3": 1})
        assert len(checks) == 1  # the evidence, once

    def test_info_gain(self, quiz_net, quiz_alpha, checks):
        # One marginal per mass would make 2 + 3 * (2 + 2 + 2) = 20 checks
        # here; the grid reads no assignment, so it checks none.
        info_gain(quiz_net, quiz_alpha)
        assert checks == []

    def test_invalid_inputs_still_raise(self, quiz_net, quiz_alpha):
        with pytest.raises(ModelError, match="non-features"):
            maa_bruteforce(quiz_net, quiz_alpha, ("C",))
        with pytest.raises(ModelError, match="non-features"):
            eca_bruteforce(quiz_net, quiz_alpha, Classifier("C", 0, ("Z",), 0.5))
