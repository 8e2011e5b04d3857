"""Exact inference over discrete networks by enumeration.

An assignment maps variable names to value indices and may be partial.
The scalar operations here enumerate hidden variables directly; they are
intended for desk-scale networks where exactness matters more than
speed, and refuse any enumeration of more than ``CELL_LIMIT`` (2**22)
completions.

Enumeration reads the network's factor plan (``bnmodel._FactorPlan``),
built once on the network's first enumeration: variable positions,
cardinalities, and per variable its CPT rows with its parents' positions
and row strides.  Each completion is a tuple of value indices; its term
is the product of one CPT entry per variable,
``rows[sum(value[q] * stride)][value[child]]``, multiplied in
declaration order.  This is the network polynomial of
Darwiche (JACM 2003) evaluated term by term, with no circuit compiled,
and it shares no arithmetic with the grid route in
:mod:`bntrim.agreement`.  ``_terms``, the one product loop, groups the
products by the values they give some variables, so a query reads every
sum it needs from one pass.  Sums are taken with ``math.fsum`` so results
do not depend on enumeration order or grouping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Mapping

from .bnmodel import BayesianNetwork, Classifier, check_classifier, check_network
from .errors import EnumerationLimitError, ModelError, ZeroEvidenceError

Assignment = Mapping[str, int]

# Enumerations of more cells than this are refused, on both routes: the
# completions of one call of ``_terms`` here and the joint grid in
# :mod:`bntrim.agreement`.  The algorithms are meant for desk-scale models.
CELL_LIMIT = 1 << 22


def assignment_from_labels(net: BayesianNetwork, labels: Mapping[str, str]) -> dict[str, int]:
    """Convert {variable: value-label} into {variable: value-index}."""
    return {name: net.var(name).index_of(lab) for name, lab in labels.items()}


def _check_assignment(net: BayesianNetwork, a: Assignment) -> None:
    """Check the network and every entry of the assignment."""
    check_network(net)
    plan = net._plan
    for name, idx in a.items():
        q = plan.position.get(name)
        if q is None:
            raise ModelError(f"unknown variable {name!r}")
        if not isinstance(idx, int) or not (0 <= idx < plan.cards[q]):
            raise ModelError(f"value index {idx!r} out of range for {name!r}")


def _terms(net: BayesianNetwork, a: Assignment, names: tuple[str, ...] = ()) -> dict:
    """The nonzero completion products of an assignment the caller has
    checked (with ``_check_assignment``, or by building it from the
    network's own variables and value ranges), grouped by the values they
    give ``names``: {values: [products]}, with no entry for values whose
    products are all zero.  The oracles call this directly, so they
    validate once per call, not once per instantiation they enumerate.
    Raises EnumerationLimitError, before any product, when the
    completions outnumber ``CELL_LIMIT``."""
    plan = net._plan
    factors = plan.factors
    domains: list = [range(card) for card in plan.cards]
    for name, idx in a.items():
        domains[plan.position[name]] = (idx,)
    completions = math.prod(map(len, domains))
    if completions > CELL_LIMIT:
        raise EnumerationLimitError(
            f"enumeration of {completions} completions exceeds the {CELL_LIMIT} cell guard"
        )
    keyed = [plan.position[name] for name in names]
    groups = {}
    for key in itertools.product(*(domains[q] for q in keyed)):
        for q, v in zip(keyed, key):
            domains[q] = (v,)
        # One term per completion: the CPT entries multiplied in
        # declaration order, the product abandoned at 0.0 (a zero term
        # leaves every sum as it is).  The network was checked, so every
        # row index and entry index lands inside its CPT.
        terms = []
        for values in itertools.product(*domains):
            p = 1.0
            for child, parents, rows in factors:
                r = 0
                for q, stride in parents:
                    r += values[q] * stride
                p *= rows[r][values[child]]
                if p == 0.0:
                    break
            else:
                terms.append(p)
        if terms:
            groups[key] = terms
    return groups


def _class_masses(groups: dict, positive: int) -> tuple[dict, tuple[float, float]]:
    """Groups keyed by (class value, *rest), as ``_terms`` returns them for
    names (class, *rest), summed into {rest: (mass, positive mass)} and
    the (mass, positive mass) of all of them.  Each is the ``fsum`` of
    exactly the products its marginal sums, so it has the same bits."""
    mixed: dict = {}
    hits: dict = {}
    for key, terms in groups.items():
        rest = key[1:]
        if key[0] == positive:
            hits[rest] = terms
        other = mixed.get(rest)
        mixed[rest] = terms if other is None else other + terms
    fsum = math.fsum
    rows = {rest: (fsum(terms), fsum(hits.get(rest, ()))) for rest, terms in mixed.items()}
    chain = itertools.chain.from_iterable
    return rows, (fsum(chain(groups.values())), fsum(chain(hits.values())))


def joint_prob(net: BayesianNetwork, a: Assignment) -> float:
    """Probability of one full assignment: the product of CPT entries."""
    _check_assignment(net, a)
    if len(a) != len(net.variables):
        missing = [v.name for v in net.variables if v.name not in a]
        raise ModelError(f"full assignment required, missing {missing}")
    return math.fsum(_terms(net, a).get((), ()))


def marginal(net: BayesianNetwork, a: Assignment) -> float:
    """Probability of a partial assignment: joint summed over completions."""
    _check_assignment(net, a)
    return math.fsum(_terms(net, a).get((), ()))


def posterior_class(net: BayesianNetwork, clf: Classifier, a: Assignment) -> float:
    """Posterior probability of the positive class value given evidence.

    The evidence must assign feature variables only.  Raises
    ZeroEvidenceError when the evidence has probability zero.
    """
    check_classifier(net, clf)
    bad = [n for n in a if n not in clf.features]
    if bad:
        raise ModelError(f"evidence names non-feature variables: {sorted(bad)}")
    _check_assignment(net, a)
    _, (pe, positive) = _class_masses(_terms(net, a, (clf.class_var,)), clf.positive_value)
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(a)!r} has probability 0")
    return positive / pe


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
