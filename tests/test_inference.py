"""Exact joint/marginal/posterior computation and threshold decisions."""

from __future__ import annotations

import itertools
import math

import pytest

from bntrim import (
    BayesianNetwork,
    Classifier,
    Cpt,
    ModelError,
    Variable,
    ZeroEvidenceError,
    assignment_from_labels,
    classify,
    decide_at,
    joint_prob,
    marginal,
    posterior_class,
)


class TestJointAndMarginal:
    def test_joint_prob_is_cpt_product(self, quiz_net):
        # Pr(C=+, Q1=+, Q2=+, Q3=+) = 0.1 * 0.9 * 0.9 * 0.4
        a = {"C": 0, "Q1": 0, "Q2": 0, "Q3": 0}
        assert joint_prob(quiz_net, a) == pytest.approx(0.1 * 0.9 * 0.9 * 0.4, abs=1e-15)

    def test_joint_sums_to_one(self, quiz_net):
        total = math.fsum(
            joint_prob(quiz_net, dict(zip(("C", "Q1", "Q2", "Q3"), combo)))
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
        assert not decide_at(net, clf, {"X": 0}, above)

    def test_classify_matches_posterior_threshold(self, quiz_net, quiz_alpha):
        for combo in itertools.product((0, 1), repeat=3):
            a = dict(zip(("Q1", "Q2", "Q3"), combo))
            expected = posterior_class(quiz_net, quiz_alpha, a) >= quiz_alpha.threshold
            assert classify(quiz_net, quiz_alpha, a) == expected

    def test_decide_at_overrides_threshold(self, quiz_net, quiz_alpha):
        a = {"Q1": 0, "Q2": 1, "Q3": 1}
        p = posterior_class(quiz_net, quiz_alpha, a)
        assert decide_at(quiz_net, quiz_alpha, a, p)
        assert not decide_at(quiz_net, quiz_alpha, a, math.nextafter(p, 1.0))
