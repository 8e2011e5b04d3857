"""Exact inference over discrete networks by enumeration: the scalar
route.

An assignment maps variable names to value indices and may be partial.
The operations here enumerate hidden variables directly: marginals and
posteriors, the same-decision probability (``sdp``, the oracle of the
grid route's ``agreement.sdp``, which ``bntrim.sdp`` and the command
line call) and the two-threshold agreement (``esdp_two_threshold``) the
brute-force oracles in :mod:`bntrim.baselines` score with.  They are
intended for desk-scale networks where exactness matters more than
speed; the command line runs none of them.  Both enumeration limits
live here: ``CELL_LIMIT`` (2**22) on the completions of one pass and on
the grid route's joint, ``EXHAUSTIVE_LIMIT`` (2**20) on walks over
feature subsets or feature instantiations.  Assignments are checked by
``bnmodel.check_assignment``, as the grid route's ``sdp`` checks its
evidence.

Enumeration reads the network's factor plan (``bnmodel._FactorPlan``),
built once on the network's first enumeration: variable positions,
cardinalities, per variable its CPT rows with its parents' positions
and row strides, and per variable the first factor that reads it.  Each
completion is a tuple of value indices; its term is the product of one
CPT entry per variable, ``rows[sum(value[q] * stride)][value[child]]``,
multiplied in declaration order from 1.0.  This is the network
polynomial of Darwiche (JACM 2003) evaluated term by term, with no
circuit compiled.  It shares no arithmetic with the grid route in
:mod:`bntrim.agreement`, whose independent check it is: it imports
neither that module nor numpy, and the grid route takes nothing from
here but ``CELL_LIMIT``.  ``_terms``, the one product loop, groups the
products by the values they give some variables, so a query reads every
sum it needs from one pass.  Terms that differ only in the inner
variable, the free variable whose first reading factor comes last,
share every factor before that one, so the loop multiplies that prefix
once and finishes it once per inner value; each term keeps its bits.
The order of the groups and of the terms within a group is not part of
the result: sums are taken with ``math.fsum``, so results do not depend
on enumeration order or grouping.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping

from .bnmodel import (
    BayesianNetwork,
    Classifier,
    check_assignment,
    check_classifier,
    check_network,
    check_threshold,
    kept_in_order,
    names_tuple,
)
from .errors import EnumerationLimitError, ZeroEvidenceError

Assignment = Mapping[str, int]

# Enumerations of more cells than this are refused, on both routes: the
# completions of one call of ``_terms`` here and the joint grid in
# :mod:`bntrim.agreement`.  The algorithms are meant for desk-scale models.
CELL_LIMIT = 1 << 22

# Guard on enumerations over feature subsets or feature instantiations
# (the exhaustive search, the brute-force oracles, the data harness).
EXHAUSTIVE_LIMIT = 1 << 20


def assignment_from_labels(net: BayesianNetwork, labels: Mapping[str, str]) -> dict[str, int]:
    """Convert {variable: value-label} into {variable: value-index}."""
    return {name: net.var(name).index_of(lab) for name, lab in labels.items()}


def _check_assignment(net: BayesianNetwork, a: Assignment) -> None:
    """Check the network and every entry of the assignment."""
    check_network(net)
    check_assignment(net, a)


def _terms(net: BayesianNetwork, a: Assignment, names: tuple[str, ...] = ()) -> dict:
    """The nonzero completion products of an assignment the caller has
    checked (with ``_check_assignment``, or by building it from the
    network's own variables and value ranges), grouped by the values they
    give ``names``: {values: [products]}, with no entry for values whose
    products are all zero.  The order of the groups, and of the products
    within a group, is not part of the result: callers read them through
    ``fsum`` or sets.  The oracles call this directly, so they validate
    once per call, not once per instantiation they enumerate.  Raises
    EnumerationLimitError, before any product, when the completions
    outnumber ``CELL_LIMIT``.

    Each product is the CPT entries multiplied in declaration order from
    1.0, abandoned at 0.0 (a zero term leaves every sum as it is).  The
    products that differ only in the inner variable, the free one whose
    first reading factor (``_FactorPlan.first_read``) comes last, share
    every factor before that one: the head is multiplied once, and the
    tail once per inner value, continuing from it."""
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
    if not factors:
        return {(): [1.0]}  # the empty network's one completion
    inner = max(range(len(domains)), key=lambda q: (len(domains[q]) > 1, plan.first_read[q]))
    first = plan.first_read[inner]
    head, tail = factors[:first], factors[first:]
    inner_values = domains[inner]
    domains[inner] = (0,)  # a placeholder: the tail sets each inner value
    keyed = [plan.position[name] for name in names]
    outer = [q for q in keyed if q != inner]
    slot = keyed.index(inner) if inner in keyed else None
    groups = {}
    for key in itertools.product(*(domains[q] for q in outer)):
        for q, v in zip(outer, key):
            domains[q] = (v,)
        # One list per inner value when that value is part of the key,
        # else one list that every inner value appends to.
        shared: list = []
        bins = [shared] * len(inner_values) if slot is None else [[] for _ in inner_values]
        for values in itertools.product(*domains):
            # The network was checked, so every row index and entry index
            # lands inside its CPT.
            values = list(values)
            p = 1.0
            for child, parents, rows in head:
                r = 0
                for q, stride in parents:
                    r += values[q] * stride
                p *= rows[r][values[child]]
                if p == 0.0:
                    break
            else:
                for v, terms in zip(inner_values, bins):
                    values[inner] = v
                    t = p
                    for child, parents, rows in tail:
                        r = 0
                        for q, stride in parents:
                            r += values[q] * stride
                        t *= rows[r][values[child]]
                        if t == 0.0:
                            break
                    else:
                        terms.append(t)
        if slot is None:
            if shared:
                groups[key] = shared
        else:
            for v, terms in zip(inner_values, bins):
                if terms:
                    groups[(*key[:slot], v, *key[slot:])] = terms
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
    kept_in_order(clf, a)
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


def _agreeing(
    net: BayesianNetwork, clf: Classifier, evidence: Assignment, query: tuple, threshold: float
) -> tuple[float, list[float]]:
    """The evidence's mass, and the masses of the query instantiations whose
    decision at the classifier's threshold matches the evidence's own at
    ``threshold``, from one pass grouped by class and query values."""
    rows, (mass, positive) = _class_masses(
        _terms(net, evidence, (clf.class_var, *query)), clf.positive_value
    )
    if mass == 0.0:
        return mass, []
    base = positive / mass >= threshold
    return mass, [p for p, hit in rows.values() if (hit / p >= clf.threshold) == base]


def sdp(
    net: BayesianNetwork, clf: Classifier, query: Iterable[str], evidence: Assignment
) -> float:
    """Probability that observing the query variables on top of the
    evidence leaves the decision unchanged: the scalar oracle of
    ``agreement.sdp``, with the same checks, errors and, when the
    classifier covers every non-class variable, bits.

    Computed by one enumeration of the evidence's completions, grouped by
    class and query values; instantiations of probability zero contribute
    nothing.
    """
    check_classifier(net, clf)
    query = names_tuple(query)
    q = tuple(f for f in kept_in_order(clf, (*query, *evidence)) if f not in evidence)
    _check_assignment(net, evidence)
    pe, terms = _agreeing(net, clf, evidence, q, clf.threshold)
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(evidence)!r} has probability 0")
    return math.fsum(terms) / pe


def _check_space(net: BayesianNetwork, clf: Classifier) -> None:
    """The enumeration guard on the classifier's feature space, which the
    scalar oracles walk one instantiation at a time."""
    space = math.prod(net.var(f).cardinality for f in clf.features)
    if space > EXHAUSTIVE_LIMIT:
        raise EnumerationLimitError(
            f"feature space of {space} instantiations exceeds the enumeration guard"
        )


def esdp_two_threshold(
    net: BayesianNetwork,
    clf: Classifier,
    new_threshold: float,
    hidden: Iterable[str],
    observed: Iterable[str],
) -> float:
    """Expected probability that the full-evidence decision at the
    original threshold matches the partial-evidence decision at the new
    threshold, over joint draws of both variable sets.

    With hidden = dropped features and observed = kept features this
    equals eca() for the corresponding trimming; it is computed here by
    scalar enumeration as an independent route, refused with
    EnumerationLimitError before the first product when the feature space
    exceeds EXHAUSTIVE_LIMIT instantiations.
    """
    check_classifier(net, clf)
    hidden = names_tuple(hidden)
    both = kept_in_order(clf, (*hidden, *names_tuple(observed)))
    h = tuple(f for f in both if f in hidden)
    o = tuple(f for f in both if f not in hidden)
    new_threshold = check_threshold(new_threshold)
    _check_space(net, clf)
    terms = []
    for ocombo in itertools.product(*(range(net.var(f).cardinality) for f in o)):
        terms += _agreeing(net, clf, dict(zip(o, ocombo)), h, new_threshold)[1]
    return math.fsum(terms)
