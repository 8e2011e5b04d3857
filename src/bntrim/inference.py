"""Exact inference over discrete networks by enumeration.

An assignment maps variable names to value indices and may be partial.
The scalar operations here enumerate hidden variables directly; they are
intended for desk-scale networks (roughly 22 binary-equivalent variables)
where exactness matters more than speed.  Sums are accumulated with
``math.fsum`` so results do not depend on enumeration order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Mapping

from .bnmodel import BayesianNetwork, Classifier, check_classifier, check_network
from .errors import ModelError, ZeroEvidenceError

Assignment = Mapping[str, int]


def assignment_from_labels(net: BayesianNetwork, labels: Mapping[str, str]) -> dict[str, int]:
    """Convert {variable: value-label} into {variable: value-index}."""
    return {name: net.var(name).index_of(lab) for name, lab in labels.items()}


def _check_assignment(net: BayesianNetwork, a: Assignment) -> None:
    for name, idx in a.items():
        v = net.var(name)
        if not isinstance(idx, int) or not (0 <= idx < v.cardinality):
            raise ModelError(f"value index {idx!r} out of range for {name!r}")


def joint_prob(net: BayesianNetwork, a: Assignment) -> float:
    """Probability of one full assignment: the product of CPT entries."""
    check_network(net)
    _check_assignment(net, a)
    if len(a) != len(net.variables):
        missing = [v.name for v in net.variables if v.name not in a]
        raise ModelError(f"full assignment required, missing {missing}")
    return marginal(net, a)


def marginal(net: BayesianNetwork, a: Assignment) -> float:
    """Probability of a partial assignment: joint summed over completions."""
    check_network(net)
    _check_assignment(net, a)
    free = [v for v in net.variables if v.name not in a]
    names = [v.name for v in free]
    terms = []
    for combo in itertools.product(*(range(v.cardinality) for v in free)):
        full = dict(a)
        full.update(zip(names, combo))
        p = 1.0
        for v in net.variables:
            cpt = net.cpt(v.name)
            row = 0
            for parent in cpt.parents:
                row = row * net.var(parent).cardinality + full[parent]
            p *= cpt.rows[row][full[v.name]]
            if p == 0.0:
                break  # a zero term leaves the sum as it is
        else:
            terms.append(p)
    return math.fsum(terms)


def posterior_class(net: BayesianNetwork, clf: Classifier, a: Assignment) -> float:
    """Posterior probability of the positive class value given evidence.

    The evidence must assign feature variables only.  Raises
    ZeroEvidenceError when the evidence has probability zero.
    """
    check_classifier(net, clf)
    bad = [n for n in a if n not in clf.features]
    if bad:
        raise ModelError(f"evidence names non-feature variables: {sorted(bad)}")
    pe = marginal(net, a)
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(a)!r} has probability 0")
    joint = dict(a)
    joint[clf.class_var] = clf.positive_value
    return marginal(net, joint) / pe


def classify(net: BayesianNetwork, clf: Classifier, a: Assignment) -> bool:
    """True when the posterior of the positive value meets the threshold.

    The comparison is an exact >=; no epsilon is applied.  Evidence may be
    partial, in which case the decision is based on the posterior given
    the observed features alone.
    """
    return posterior_class(net, clf, a) >= clf.threshold


def decide_at(net: BayesianNetwork, clf: Classifier, a: Assignment, threshold: float) -> bool:
    """classify() under the same classifier but a different threshold."""
    return classify(net, replace(clf, threshold=threshold), a)
