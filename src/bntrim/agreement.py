"""Agreement measures between a classifier and its trimmed variants.

The central object is the instance table of a kept feature subset: one row
per instantiation of the kept features carrying its marginal mass, the
class posterior given the instantiation, and the probability that the
*original* classifier decides positive given the instantiation.  From the
table we get, in one pass each:

* ``eca``     expected agreement with a trimmed classifier at a fixed
              threshold (split rows at the threshold, sum the matching
              side's mass);
* ``compute_maa`` the best achievable agreement over all thresholds,
              found by sweeping the rows in posterior order.

``mpa``, an upper bound that lets every row pick its better side, reads
the same per-row sums but builds no table: it needs neither posteriors
nor an order, so it skips both.

Row sums are read from a joint probability grid materialized once per
(network, classifier) pair, so repeated subset evaluations during search
stay cheap.  Scalar cross-checks (``sdp``, ``esdp_two_threshold``) use the
enumeration path from :mod:`bntrim.inference` instead and are deliberately
kept independent of the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .bnmodel import (
    BayesianNetwork,
    Classifier,
    check_classifier,
    check_trimming,
    kept_in_order,
)
from .errors import EnumerationLimitError, ModelError, ZeroEvidenceError
from .inference import Assignment, _posterior, marginal

# Joint grids above this many cells are refused; the algorithms here are
# meant for desk-scale models.
GRID_CELL_LIMIT = 1 << 22

# Guard on enumerations over feature subsets or feature instantiations
# (the exhaustive search, the brute-force oracles, the data harness).
EXHAUSTIVE_LIMIT = 1 << 20

# Posteriors within this relative tolerance are treated as the same
# threshold candidate when sweeping.
POSTERIOR_GROUP_RTOL = 1e-9


@dataclass(frozen=True)
class InstanceRow:
    """One instantiation of the kept features.

    mass           marginal probability of the instantiation
    posterior      class posterior given the instantiation
    positive_rate  probability that the original classifier decides
                   positive, given the instantiation
    """

    values: tuple[int, ...]
    mass: float
    posterior: float
    positive_rate: float


@dataclass(frozen=True)
class InstanceTable:
    """Rows for every positive-mass instantiation of the kept features,
    sorted by nondecreasing posterior."""

    features: tuple[str, ...]
    rows: tuple[InstanceRow, ...]


@dataclass(frozen=True)
class ThresholdInterval:
    """A maximal set of thresholds inducing one fixed classification.

    The set is (lo, hi]: lo exclusive, hi inclusive.  lo is -inf when
    every instantiation is classified positive; hi is +inf when every
    instantiation is classified negative.  ``representative`` is hi when
    finite, otherwise lo + 1 (any value above the largest posterior).
    """

    lo: float
    hi: float
    representative: float

    @classmethod
    def from_bounds(cls, lo: float, hi: float) -> "ThresholdInterval":
        rep = hi if math.isfinite(hi) else lo + 1.0
        return cls(lo, hi, rep)

    def contains(self, t: float) -> bool:
        return self.lo < t <= self.hi


@dataclass(frozen=True)
class MaaResult:
    score: float
    interval: ThresholdInterval


@dataclass(frozen=True)
class _Grid:
    """Per-instantiation masses over the full feature space.

    Arrays are indexed by feature value along one axis per classifier
    feature, in classifier feature order.  ``hit`` holds a cell's total
    mass where the original classifier labels it positive, else 0.
    """

    features: tuple[str, ...]
    pos: np.ndarray
    neg: np.ndarray
    hit: np.ndarray


@lru_cache(maxsize=8)
def _full_joint(net: BayesianNetwork) -> np.ndarray:
    """Joint distribution over all network variables as a dense tensor,
    one axis per variable in declaration order."""
    shape = [v.cardinality for v in net.variables]
    cells = 1
    for c in shape:
        cells *= c
    if cells > GRID_CELL_LIMIT:
        raise EnumerationLimitError(
            f"joint grid of {cells} cells exceeds the {GRID_CELL_LIMIT} cell guard"
        )
    axis = {v.name: i for i, v in enumerate(net.variables)}
    joint = np.ones(shape)
    for v in net.variables:
        cpt = net.cpt(v.name)
        src = list(cpt.parents) + [v.name]
        arr = np.asarray(cpt.rows, dtype=float).reshape(
            [net.var(p).cardinality for p in cpt.parents] + [v.cardinality]
        )
        perm = sorted(range(len(src)), key=lambda k: axis[src[k]])
        arr = np.transpose(arr, perm)
        full = [1] * len(shape)
        for name in src:
            full[axis[name]] = net.var(name).cardinality
        joint = joint * arr.reshape(full)
    return joint


@lru_cache(maxsize=32)
def _classifier_grid(net: BayesianNetwork, clf: Classifier) -> _Grid:
    check_classifier(net, clf)
    joint = _full_joint(net)
    keep = {clf.class_var, *clf.features}
    sum_axes = tuple(i for i, v in enumerate(net.variables) if v.name not in keep)
    reduced = joint.sum(axis=sum_axes) if sum_axes else joint
    kept_names = [v.name for v in net.variables if v.name in keep]
    target = [clf.class_var, *clf.features]
    reduced = np.transpose(reduced, [kept_names.index(n) for n in target])
    pos = np.take(reduced, clf.positive_value, axis=0)
    neg = np.take(reduced, 1 - clf.positive_value, axis=0)
    total = pos + neg
    nonzero = total > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nonzero, pos / np.where(nonzero, total, 1.0), 0.0)
    hit = np.where(nonzero & (ratio >= clf.threshold), total, 0.0)
    return _Grid(clf.features, pos, neg, hit)


def _row_cells(
    net: BayesianNetwork, clf: Classifier, kept_t: tuple[str, ...]
) -> tuple[tuple[int, ...], int, list[float], list[float], list[float]]:
    """The grid's pos, neg and hit cells grouped by kept instantiation.

    Returns the kept features' shape, the number of cells per
    instantiation, and three flat lists holding one run of that many
    cells per instantiation, in C order over the shape (the order
    ``itertools.product`` enumerates it in).  Flat lists, not one small
    list per instantiation, so the row loops keep no thousands of live
    objects for every garbage collection to traverse.
    """
    grid = _classifier_grid(net, clf)
    kept_axes = [clf.features.index(f) for f in kept_t]
    rest_axes = [i for i in range(len(clf.features)) if i not in kept_axes]
    perm = kept_axes + rest_axes
    kept_shape = tuple(grid.pos.shape[i] for i in kept_axes)
    width = grid.pos.size // math.prod(kept_shape)

    def flat(a: np.ndarray) -> list[float]:
        return np.transpose(a, perm).reshape(-1).tolist()

    return kept_shape, width, flat(grid.pos), flat(grid.neg), flat(grid.hit)


def build_instance_table(
    net: BayesianNetwork, clf: Classifier, kept: Iterable[str]
) -> InstanceTable:
    """Instance table of the kept feature subset against the classifier.

    Zero-mass instantiations are dropped.  Rows come back sorted by
    nondecreasing posterior; ties keep enumeration order, so the result
    is deterministic.
    """
    kept_t = kept_in_order(clf, kept)
    kept_shape, width, pos, neg, hit = _row_cells(net, clf, kept_t)
    values = itertools.product(*(range(c) for c in kept_shape))

    # Per-row sums use fsum over the same cell multisets the enumeration
    # path in inference.py sums, so posteriors agree bit-for-bit with
    # posterior_class whenever the classifier covers every non-class
    # variable.
    rows: list[InstanceRow] = []
    for lo, v in zip(range(0, len(pos), width), values):
        hi = lo + width
        pos_cells = pos[lo:hi]
        m = math.fsum(pos_cells + neg[lo:hi])
        if m <= 0.0:
            continue
        posterior = min(math.fsum(pos_cells) / m, 1.0)
        rate = min(math.fsum(hit[lo:hi]) / m, 1.0)
        rows.append(InstanceRow(v, m, posterior, rate))
    rows.sort(key=lambda r: r.posterior)
    return InstanceTable(kept_t, tuple(rows))


def eca(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> float:
    """Expected classification agreement between a classifier and a
    trimmed variant: the probability, over instances drawn from the
    network, that both produce the same label."""
    check_trimming(net, alpha, beta)
    table = build_instance_table(net, alpha, beta.features)
    t = beta.threshold
    terms = [
        r.positive_rate * r.mass if r.posterior >= t else (1.0 - r.positive_rate) * r.mass
        for r in table.rows
    ]
    return math.fsum(terms)


def sdp(
    net: BayesianNetwork, clf: Classifier, query: Iterable[str], evidence: Assignment
) -> float:
    """Probability that observing the query variables on top of the
    evidence leaves the decision unchanged.

    Computed by direct enumeration over query completions; instantiations
    of probability zero contribute nothing.
    """
    check_classifier(net, clf)
    q = kept_in_order(clf, query)
    overlap = set(q) & set(evidence)
    if overlap:
        raise ModelError(f"query overlaps evidence: {sorted(overlap)}")
    bad = [n for n in evidence if n not in clf.features]
    if bad:
        raise ModelError(f"evidence names non-feature variables: {sorted(bad)}")
    pe = marginal(net, dict(evidence))
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(evidence)!r} has probability 0")
    base = _posterior(net, clf, evidence, pe) >= clf.threshold
    terms = []
    for combo in itertools.product(*(range(net.var(f).cardinality) for f in q)):
        full = dict(evidence)
        full.update(zip(q, combo))
        p = marginal(net, full)
        if p == 0.0:
            continue
        if (_posterior(net, clf, full, p) >= clf.threshold) == base:
            terms.append(p)
    return math.fsum(terms) / pe


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
    scalar enumeration as an independent route.
    """
    check_classifier(net, clf)
    h = kept_in_order(clf, hidden)
    o = kept_in_order(clf, observed)
    overlap = set(h) & set(o)
    if overlap:
        raise ModelError(f"hidden and observed sets overlap: {sorted(overlap)}")
    # Checked and converted as the Classifier that decide_at builds would be.
    new_threshold = replace(clf, threshold=new_threshold).threshold
    terms = []
    for ocombo in itertools.product(*(range(net.var(f).cardinality) for f in o)):
        part = dict(zip(o, ocombo))
        mass = marginal(net, part)
        if mass == 0.0:
            continue
        trimmed = _posterior(net, clf, part, mass) >= new_threshold
        for hcombo in itertools.product(*(range(net.var(f).cardinality) for f in h)):
            full = dict(part)
            full.update(zip(h, hcombo))
            p = marginal(net, full)
            if p == 0.0:
                continue
            if (_posterior(net, clf, full, p) >= clf.threshold) == trimmed:
                terms.append(p)
    return math.fsum(terms)


def mpa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> float:
    """Upper bound on agreement for a kept subset: every instantiation
    contributes its larger side, as if the threshold could be chosen per
    row instead of globally.

    Each term is the one ``build_instance_table``'s row would give
    (the same fsum-ed mass and positive rate), and fsum is correctly
    rounded, so the result does not depend on the row order the table
    would impose; no table is built.
    """
    _, width, pos, neg, hit = _row_cells(net, clf, kept_in_order(clf, kept))
    terms = []
    for lo in range(0, len(pos), width):
        hi = lo + width
        m = math.fsum(pos[lo:hi] + neg[lo:hi])
        if m > 0.0:
            rate = min(math.fsum(hit[lo:hi]) / m, 1.0)
            terms.append(max(rate, 1.0 - rate) * m)
    return math.fsum(terms)


def _group_rows(rows: Sequence[InstanceRow]) -> list[tuple[int, int]]:
    """Consecutive [start, end) runs of rows whose posteriors are equal
    within POSTERIOR_GROUP_RTOL."""
    groups: list[tuple[int, int]] = []
    start = 0
    for i in range(1, len(rows)):
        if not math.isclose(
            rows[i].posterior, rows[i - 1].posterior,
            rel_tol=POSTERIOR_GROUP_RTOL, abs_tol=0.0,
        ):
            groups.append((start, i))
            start = i
    groups.append((start, len(rows)))
    return groups


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so sums of floats are held exactly as integers in that unit.
_UNIT = 1 << 1074


def _units(x: float) -> int:
    """x as an exact integer count of 2**-1074."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def compute_maa(table: InstanceTable) -> MaaResult:
    """Best achievable agreement over all thresholds for a fixed table.

    Sweeps the candidate cuts in posterior order: cut j classifies rows
    below group j negative and the rest positive.  A running integer
    holds the exact value of cut j's terms, negative sides below the cut
    and positive sides from it on, in units of 2**-1074: it starts as the
    exact sum of every positive side, and crossing a group adds each
    row's negative side and subtracts its positive side.  Dividing it by
    the unit is correctly rounded (Python's int true division), as
    ``fsum`` of the cut's terms is, so each score is the same float
    ``fsum`` gives and the result equals a brute-force maximum of eca
    over the candidate thresholds at linear cost.  Ties go to the lowest
    cut, and a strict improvement is required to move off it.
    """
    rows = table.rows
    if not rows:
        raise ModelError("instance table has no rows")
    groups = _group_rows(rows)
    pos = [_units(r.positive_rate * r.mass) for r in rows]
    steps = [_units((1.0 - r.positive_rate) * r.mass) - p for r, p in zip(rows, pos)]

    total = sum(pos)
    best_score = total / _UNIT
    best_cut = 0
    for j, (start, end) in enumerate(groups, 1):
        total += sum(steps[start:end])
        score = total / _UNIT
        if score > best_score:
            best_score = score
            best_cut = j

    if best_cut == 0:
        lo = -math.inf
    else:
        lo = rows[groups[best_cut - 1][1] - 1].posterior
    if best_cut < len(groups):
        hi = rows[groups[best_cut][0]].posterior
    else:
        hi = math.inf
    return MaaResult(best_score, ThresholdInterval.from_bounds(lo, hi))


def maa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> MaaResult:
    """Best agreement achievable by keeping the given subset and retuning
    the threshold, together with the maximizing threshold interval."""
    return compute_maa(build_instance_table(net, clf, kept))
