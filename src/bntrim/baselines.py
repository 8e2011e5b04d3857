"""Comparison strategies and brute-force oracles.

``info_gain``/``ig_select`` implement the classic mutual-information
feature ranking, computed from the model distribution (no data needed):
``info_gain`` reads its masses from the classifier grid of
:mod:`bntrim.agreement` (``_value_masses``), the grid that ``ig_report``'s
``eca`` or ``maa`` then reads again from its cache.
``eca_bruteforce`` and ``maa_bruteforce`` recompute agreement and best
agreement by literal enumeration through ``inference.esdp_two_threshold``
and ``inference._terms``, and use nothing of the grid route, so they
share no arithmetic with the instance-table path they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .agreement import _value_masses, eca, maa
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    check_classifier,
    check_trimming,
    kept_in_order,
)
from .inference import _check_space, _class_masses, _terms, esdp_two_threshold


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one feature-selection strategy."""

    method: str
    chosen: tuple[str, ...]
    threshold: float
    achieved_eca: float
    scores: Mapping[str, float]


def info_gain(net: BayesianNetwork, clf: Classifier) -> dict[str, float]:
    """Mutual information I(class; feature) in bits, per feature.

    Terms with zero joint mass contribute nothing.  Keys follow the
    classifier's feature order.  Every mass is a correctly rounded sum
    of the cached classifier grid's cells, which ``eca`` and ``maa`` read
    too: ``agreement._value_masses`` takes the feature masses from the
    batched loop that sums instance tables' rows (``_set_sums``), over
    the one-feature sets.  Where the class mass times the feature mass
    underflows to 0, the term's logarithm is taken as a difference of
    logarithms.
    """
    masses, class_masses = _value_masses(net, clf)
    out: dict[str, float] = {}
    for f, (feature_masses, *joints) in zip(clf.features, masses):
        terms = []
        for class_mass, joint_masses in zip(class_masses, joints):
            for feature_mass, joint in zip(feature_masses, joint_masses):
                if joint > 0.0:
                    product = class_mass * feature_mass
                    if product > 0.0:
                        ratio = math.log2(joint / product)
                    else:
                        ratio = math.log2(joint) - math.log2(class_mass) - math.log2(feature_mass)
                    terms.append(joint * ratio)
        out[f] = math.fsum(terms)
    return out


def ig_select(scores: Mapping[str, float], costs: CostModel) -> tuple[str, ...]:
    """Greedy selection by descending score under the budget.

    Features that no longer fit the budget together with those already
    chosen are skipped; ties break toward the earlier feature in the
    mapping's order.  The chosen features are returned in the mapping's
    order.
    """
    names = list(scores)
    index = {f: i for i, f in enumerate(names)}
    chosen: list[str] = []
    for f in sorted(names, key=lambda f: (-scores[f], index[f])):
        if costs.fits(chosen + [f]):
            chosen.append(f)
    return tuple(f for f in names if f in chosen)


def ig_report(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    retune_threshold: bool = False,
) -> SelectionReport:
    """Information-gain selection plus its achieved agreement.

    By default the original threshold is kept when scoring the selection;
    with ``retune_threshold`` the selection is scored at its best
    achievable agreement instead (a stronger baseline).
    """
    costs.check_features(clf.features)
    scores = info_gain(net, clf)
    chosen = ig_select(scores, costs)
    if retune_threshold:
        result = maa(net, clf, chosen)
        return SelectionReport(
            "information-gain+retune", chosen, result.interval.representative,
            result.score, scores,
        )
    achieved = eca(net, clf, replace(clf, features=chosen))
    return SelectionReport("information-gain", chosen, clf.threshold, achieved, scores)


def eca_bruteforce(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> float:
    """Agreement by literal enumeration: sum Pr(f) over every full
    feature instantiation on which both classifiers decide alike."""
    kept = check_trimming(net, alpha, beta)
    dropped = tuple(f for f in alpha.features if f not in kept)
    return esdp_two_threshold(net, alpha, beta.threshold, dropped, kept)


def maa_bruteforce(
    net: BayesianNetwork, alpha: Classifier, kept: Iterable[str]
) -> tuple[float, float]:
    """Best agreement for a kept subset by trying every candidate
    threshold: each distinct attainable posterior, plus a value above all
    of them ("classify everything negative"), each scored as eca_bruteforce.

    Returns (score, threshold); ties resolve to the lowest candidate.
    """
    check_classifier(net, alpha)
    kept_t = kept_in_order(alpha, kept)
    _check_space(net, alpha)
    dropped = tuple(f for f in alpha.features if f not in kept_t)

    # One pass grouped by (class, kept values); each mass is an fsum of
    # the same products posterior_class sums, so the candidates keep its bits.
    rows, _ = _class_masses(_terms(net, {}, (alpha.class_var, *kept_t)), alpha.positive_value)
    posteriors = sorted({positive / mass for mass, positive in rows.values()})
    candidates = posteriors + [posteriors[-1] + 1.0]
    # max keeps the first of equal scores: the lowest candidate.
    return max(
        ((esdp_two_threshold(net, alpha, t, dropped, kept_t), t) for t in candidates),
        key=lambda scored: scored[0],
    )
