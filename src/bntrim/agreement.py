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

``mpa``, an upper bound that lets every row pick its better side, and
``maa`` read the same row arrays (``_rows``) without building a table.

Row sums are read from a joint probability grid materialized once per
(network, classifier) pair, so repeated subset evaluations during search
stay cheap.  Every row sum is correctly rounded, the float ``math.fsum``
gives: small tables take them from an ``fsum`` per row, larger ones from
one vectorized pass (``_row_sums``) whose error bound certifies each
row's rounding and sends the rows it cannot certify to ``fsum``.  Scalar
cross-checks (``sdp``, ``esdp_two_threshold``) use the enumeration path
from :mod:`bntrim.inference` instead and are deliberately kept
independent of the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

import numpy as np

from .bnmodel import (
    BayesianNetwork,
    Classifier,
    check_classifier,
    check_trimming,
    kept_in_order,
)
from .errors import EnumerationLimitError, ModelError, ZeroEvidenceError
from .inference import CELL_LIMIT, Assignment, _check_assignment, _class_masses, _terms

# Guard on enumerations over feature subsets or feature instantiations
# (the exhaustive search, the brute-force oracles, the data harness).
EXHAUSTIVE_LIMIT = 1 << 20

# Posteriors within this relative tolerance are treated as the same
# threshold candidate when sweeping.
POSTERIOR_GROUP_RTOL = 1e-9

# Tables with fewer grid cells (rows x width) than this sum their rows
# with one math.fsum per row, the rest with one _row_sums pass.  Timed on
# a 2-core Xeon (Python 3.11, numpy 2.4), mpa and maa per call, numpy
# against fsum: at 256 cells 0.6-0.9x below 64 rows; at 512 cells
# 0.8-1.0x below 32 rows and 1.1-14x from there; at 1024 cells 1.2-15x
# on all but one shape.  numpy's fixed cost per call (about 100 us for
# some 100 small-array operations) is what small tables cannot pay back.
_NUMPY_MIN_CELLS = 512


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


# The caches hold what one command needs: one joint and its classifier
# grids.  At the CELL_LIMIT guard a joint is 2**22 floats (32 MiB) and a
# grid 3 * 2**21 (48 MiB), so together they stay under 128 MiB.
@lru_cache(maxsize=1)
def _full_joint(net: BayesianNetwork) -> np.ndarray:
    """Joint distribution over all network variables as a dense tensor,
    one axis per variable in declaration order: the factors of the
    network's plan, multiplied in declaration order."""
    plan = net._plan
    shape = plan.cards
    cells = math.prod(shape)
    if cells > CELL_LIMIT:
        raise EnumerationLimitError(
            f"joint grid of {cells} cells exceeds the {CELL_LIMIT} cell guard"
        )
    joint = np.ones(shape)
    for child, parents, rows in plan.factors:
        axes = [q for q, _ in parents] + [child]
        arr = np.asarray(rows, dtype=float).reshape([shape[q] for q in axes])
        arr = np.transpose(arr, sorted(range(len(axes)), key=axes.__getitem__))
        full = [1] * len(shape)
        for q in axes:
            full[q] = shape[q]
        joint = joint * arr.reshape(full)
    return joint


@lru_cache(maxsize=2)
def _classifier_grid(net: BayesianNetwork, clf: Classifier) -> np.ndarray:
    """Per-instantiation masses over the full feature space, read-only
    because the array is cached.

    The array stacks three, each indexed by feature value along one axis
    per classifier feature, in classifier feature order: the mass of each
    cell with the class positive (``pos``), with it negative (``neg``),
    and ``hit``, the cell's total mass where the original classifier
    labels it positive, else 0.
    """
    check_classifier(net, clf)
    joint = _full_joint(net)
    keep = {clf.class_var, *clf.features}
    sum_axes = tuple(i for i, v in enumerate(net.variables) if v.name not in keep)
    reduced = joint.sum(axis=sum_axes) if sum_axes else joint
    kept_names = [v.name for v in net.variables if v.name in keep]
    target = [clf.class_var, *clf.features]
    reduced = np.transpose(reduced, [kept_names.index(n) for n in target])
    cells = np.empty((3, *reduced.shape[1:]))
    pos, neg, hit = cells[0, ...], cells[1, ...], cells[2, ...]  # views, even 0-d
    pos[...] = reduced[clf.positive_value]
    neg[...] = reduced[1 - clf.positive_value]
    total = pos + neg
    nonzero = total > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nonzero, pos / np.where(nonzero, total, 1.0), 0.0)
    hit[...] = np.where(nonzero & (ratio >= clf.threshold), total, 0.0)
    cells.flags.writeable = False
    return cells


def _row_cells(
    net: BayesianNetwork, clf: Classifier, kept_t: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's pos, neg and hit cells grouped by kept instantiation.

    Returns three (rows, width) arrays: row i holds the cells of the i-th
    instantiation of the kept features, in C order over their shape (the
    order ``itertools.product`` enumerates it in).  Each array is the
    transpose of a C-contiguous (width, rows) one, so ``_row_sums`` reads
    every cell position across all rows from contiguous memory.
    """
    cells = _classifier_grid(net, clf)
    kept_axes = [clf.features.index(f) for f in kept_t]
    rest_axes = [i for i in range(len(clf.features)) if i not in kept_axes]
    n_rows = math.prod(cells.shape[1 + i] for i in kept_axes)
    perm = [0, *(1 + i for i in rest_axes), *(1 + i for i in kept_axes)]
    pos, neg, hit = np.transpose(cells, perm).reshape(3, -1, n_rows)
    return pos.T, neg.T, hit.T


_U = 2.0**-53  # unit roundoff of float64


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of every row of a nonnegative 2-D array:
    the float ``math.fsum`` returns for each row, in one numpy pass.

    A row of k <= 2 cells needs at most one ``+``, which is correctly
    rounded.  Longer rows are zero-padded to a power of two, so no level
    has an odd width, and reduced by a pairwise tree of L = log2 k
    levels: each level adds the first half of the columns to the second
    with TwoSum (Knuth), whose rounded sum s and error t satisfy
    a + b = s + t exactly.  The errors are carried down the same tree in
    float, a node's error being its children's errors plus its own t.  So
    with S the exact row sum, E the exact sum of every t and e its float
    value, S = s + E.  Then r = s + e and d = (s - r) + e.

    Bound, with u = 2**-53 and gamma(n) = n*u / (1 - n*u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3-4):

    * Every node sum is nonnegative and |t| <= u*s, so each level's node
      sums total at most (1+u)**level * S, and the errors at most
      T = L*u*(1+u)**L * S.
    * Each t meets at most 2L - 1 float additions on its way into e, so
      |E - e| <= gamma(2L)*T.  Addition has no underflow error (Hauser,
      *Handling floating-point exceptions in numeric programs*, TOPLAS
      1996), so this holds for subnormal cells too.
    * |e| is far below s, so the last two operations are Dekker's
      Fast2Sum: d is exact, with no rounding of its own, and
      S - r = d + (E - e).
    * S <= r + |d| + |E - e| turns this into |E - e| <= B with
      B = 3*L**2*u**2 * (r + |d|): 3*L**2*u**2 covers
      gamma(2L)*L*u*(1+u)**L / (1 - that) and the roundings in
      computing B itself for any L below 60.

    A row's r is then certain in either of two cases; other rows are
    summed again with ``math.fsum``.

    * Near: 2*(|d| + B) < g, with g = r - (the float below r), the
      smaller gap to a neighbour of r.  Then |S - r| < g/2, so r is the
      float nearest S, with no tie, which is what ``fsum`` returns.
      Evaluated in floats, a subnormal B may lose 2**-1075 to underflow,
      less than the 2**-1074 spacing of the floats d and g/2 it
      separates, so the strict test stays sound.  All-zero rows pass
      with r = 0.
    * Exact: 2*B < q, with q = 2**(exponent - 53) of the row's smallest
      positive cell, a power of two dividing every cell.  Every sum,
      error, r and d above is then a multiple of q, and so is
      E - e = S - r - d; smaller than q, it is 0.  So e = E, r = s + e
      rounds S itself to nearest even, as ``fsum`` does: this settles
      exact halfway ties, which the first test cannot.

    Sums are assumed far from overflow, as sums of probabilities are.
    Ogita, Rump & Oishi, *Accurate Sum and Dot Product* (SIAM J. Sci.
    Comput. 26, 2005), describe the error-free transformations used.
    """
    rows, k = x.shape
    if k <= 2:
        return x[:, 0] + x[:, 1] if k == 2 else x.sum(axis=1)
    cols = x.T  # (k, rows): each level below slices whole columns
    size = 1 << (k - 1).bit_length()
    if size != k or not cols.flags.c_contiguous:
        padded = np.zeros((size, rows))
        padded[:k] = cols
        cols = padded
    s, err, levels = cols, None, 0
    while len(s) > 1:
        half = len(s) // 2
        a, b = s[:half], s[half:]
        s = a + b
        z = s - a
        t = (a - (s - z)) + (b - z)
        err = t if err is None else (err[:half] + err[half:]) + t
        levels += 1
    s, e = s[0], err[0]
    r = s + e
    d = np.abs((s - r) + e)
    bound = (3.0 * levels * levels * _U * _U) * (r + d)
    unsure = (2.0 * (d + bound) >= r - np.nextafter(r, -np.inf)).nonzero()[0]
    if len(unsure):
        cells = cols[:, unsure]
        smallest = np.where(cells > 0.0, cells, np.inf).min(axis=0)
        q = np.ldexp(1.0, np.frexp(smallest)[1] - 53)
        for i in unsure[2.0 * bound[unsure] >= q].tolist():
            r[i] = math.fsum(x[i].tolist())
    return r


def _rows(
    net: BayesianNetwork, clf: Classifier, kept_t: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The instance table's rows as arrays: (index, mass, posterior, rate).

    ``index`` is each row's position in the C-order enumeration of the
    kept features.  Per instantiation, mass is the correctly rounded sum
    of its pos and neg cells, posterior its pos sum over the mass and
    rate its hit sum over the mass, each capped at 1.  Zero-mass rows are
    dropped and the rest sorted by posterior, stably, so ties keep
    enumeration order.  The row sums are the same floats either way they
    are taken: ``fsum`` per row below ``_NUMPY_MIN_CELLS`` cells, one
    ``_row_sums`` pass over all three kinds of row from there on.
    """
    pos, neg, hit = _row_cells(net, clf, kept_t)
    n_rows, width = pos.shape
    if pos.size < _NUMPY_MIN_CELLS:
        sums = [
            (math.fsum(p + q), math.fsum(p), math.fsum(h))
            for p, q, h in zip(pos.tolist(), neg.tolist(), hit.tolist())
        ]
        mass, pos_sum, hit_sum = np.array(sums).T
    else:
        # Column j of cells across 3 * n_rows rows: pos then neg cells of
        # each instantiation (its mass), then pos cells alone, then hit
        # cells alone, zero-padded to a power of two.
        cols = np.zeros((1 << (2 * width - 1).bit_length(), 3 * n_rows))
        cols[:width, :n_rows] = pos.T
        cols[width:2 * width, :n_rows] = neg.T
        cols[:width, n_rows:2 * n_rows] = pos.T
        cols[:width, 2 * n_rows:] = hit.T
        mass, pos_sum, hit_sum = _row_sums(cols.T).reshape(3, n_rows)
    index = (mass > 0.0).nonzero()[0]
    mass = mass[index]
    posterior = np.minimum(pos_sum[index] / mass, 1.0)
    rate = np.minimum(hit_sum[index] / mass, 1.0)
    order = posterior.argsort(kind="stable")
    return index[order], mass[order], posterior[order], rate[order]


def build_instance_table(
    net: BayesianNetwork, clf: Classifier, kept: Iterable[str]
) -> InstanceTable:
    """Instance table of the kept feature subset against the classifier.

    Zero-mass instantiations are dropped.  Rows come back sorted by
    nondecreasing posterior; ties keep enumeration order, so the result
    is deterministic.  Row sums are correctly rounded (certified in numpy
    on larger tables, ``fsum`` otherwise) over the same cell multisets
    the enumeration path in inference.py sums, so posteriors agree
    bit-for-bit with posterior_class whenever the classifier covers every
    non-class variable.
    """
    kept_t = kept_in_order(clf, kept)
    index, mass, posterior, rate = _rows(net, clf, kept_t)
    values = list(itertools.product(*(range(net.var(f).cardinality) for f in kept_t)))
    rows = tuple(
        InstanceRow(values[i], m, p, r)
        for i, m, p, r in zip(index.tolist(), mass.tolist(), posterior.tolist(), rate.tolist())
    )
    return InstanceTable(kept_t, rows)


def eca(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> float:
    """Expected classification agreement between a classifier and a
    trimmed variant: the probability, over instances drawn from the
    network, that both produce the same label."""
    check_trimming(net, alpha, beta)
    _, mass, posterior, rate = _rows(net, alpha, kept_in_order(alpha, beta.features))
    terms = np.where(posterior >= beta.threshold, rate * mass, (1.0 - rate) * mass)
    return math.fsum(terms.tolist())


def sdp(
    net: BayesianNetwork, clf: Classifier, query: Iterable[str], evidence: Assignment
) -> float:
    """Probability that observing the query variables on top of the
    evidence leaves the decision unchanged.

    Computed by one enumeration of the evidence's completions, grouped by
    class and query values; instantiations of probability zero contribute
    nothing.
    """
    check_classifier(net, clf)
    q = kept_in_order(clf, query)
    overlap = set(q) & set(evidence)
    if overlap:
        raise ModelError(f"query overlaps evidence: {sorted(overlap)}")
    bad = [n for n in evidence if n not in clf.features]
    if bad:
        raise ModelError(f"evidence names non-feature variables: {sorted(bad)}")
    _check_assignment(net, evidence)
    rows, (pe, positive) = _class_masses(
        _terms(net, evidence, (clf.class_var, *q)), clf.positive_value
    )
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(evidence)!r} has probability 0")
    base = positive / pe >= clf.threshold
    terms = [p for p, hit in rows.values() if (hit / p >= clf.threshold) == base]
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
        rows, (mass, positive) = _class_masses(
            _terms(net, dict(zip(o, ocombo)), (clf.class_var, *h)), clf.positive_value
        )
        if mass == 0.0:
            continue
        trimmed = positive / mass >= new_threshold
        terms.extend(p for p, hit in rows.values() if (hit / p >= clf.threshold) == trimmed)
    return math.fsum(terms)


def mpa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> float:
    """Upper bound on agreement for a kept subset: every instantiation
    contributes its larger side, as if the threshold could be chosen per
    row instead of globally.

    Each term is the one the instance table's row gives (its mass times
    the larger of its positive rate and one minus it), and the terms are
    summed with fsum, which is correctly rounded, so the result does not
    depend on the row order; no table is built.
    """
    _, mass, _, rate = _rows(net, clf, kept_in_order(clf, kept))
    return math.fsum((np.maximum(rate, 1.0 - rate) * mass).tolist())


def _group_rows(posterior: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive [start, end) runs of rows whose posteriors are equal
    within POSTERIOR_GROUP_RTOL, as ``math.isclose`` decides for finite
    floats: |b - a| <= rtol * max(|a|, |b|)."""
    a, b = posterior[:-1], posterior[1:]
    close = np.abs(b - a) <= POSTERIOR_GROUP_RTOL * np.maximum(np.abs(a), np.abs(b))
    bounds = [0, *((~close).nonzero()[0] + 1).tolist(), len(posterior)]
    return list(zip(bounds[:-1], bounds[1:]))


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so sums of floats are held exactly as integers in that unit.
_UNIT = 1 << 1074


def _units(x: float) -> int:
    """x as an exact integer count of 2**-1074."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def _sweep(mass: np.ndarray, posterior: np.ndarray, rate: np.ndarray) -> MaaResult:
    """The MAA sweep over rows given as arrays sorted by posterior; see
    ``compute_maa``."""
    if not len(mass):
        raise ModelError("instance table has no rows")
    groups = _group_rows(posterior)
    pos = [_units(x) for x in (rate * mass).tolist()]
    steps = [_units(x) - p for x, p in zip(((1.0 - rate) * mass).tolist(), pos)]

    total = sum(pos)
    best_score = total / _UNIT
    best_cut = 0
    for j, (start, end) in enumerate(groups, 1):
        total += sum(steps[start:end])
        score = total / _UNIT
        if score > best_score:
            best_score = score
            best_cut = j

    lo = -math.inf if best_cut == 0 else posterior[groups[best_cut - 1][1] - 1].item()
    hi = posterior[groups[best_cut][0]].item() if best_cut < len(groups) else math.inf
    return MaaResult(best_score, ThresholdInterval.from_bounds(lo, hi))


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
    return _sweep(
        np.array([r.mass for r in rows], dtype=float),
        np.array([r.posterior for r in rows], dtype=float),
        np.array([r.positive_rate for r in rows], dtype=float),
    )


def maa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> MaaResult:
    """Best agreement achievable by keeping the given subset and retuning
    the threshold, together with the maximizing threshold interval.  The
    same sweep as ``compute_maa`` over the same rows, fed the row arrays
    directly instead of a built table."""
    _, mass, posterior, rate = _rows(net, clf, kept_in_order(clf, kept))
    return _sweep(mass, posterior, rate)
