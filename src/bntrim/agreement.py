"""Agreement measures between a classifier and its trimmed variants.

The central object is the instance table of a kept feature subset
(``build_instance_table``): for every instantiation of the kept features
with positive mass, its marginal mass, the class posterior given the
instantiation, and the probability that the *original* classifier decides
positive given the instantiation, each as one array over the rows in
posterior order.  Every measure reads it, in one pass each:

* ``eca``     expected agreement with a trimmed classifier at a fixed
              threshold (split rows at the threshold, sum the matching
              side's mass);
* ``mpa``     an upper bound on agreement that lets every row pick its
              better side;
* ``compute_maa`` the best achievable agreement over all thresholds,
              found by sweeping the cuts in posterior order: a float
              sweep with an error bound shortlists the cuts that can be
              best, and only the shortlist is scored exactly.  ``maa`` is
              this sweep of a subset's table.

The search reads its bounds through ``_MpaBound`` instead, which holds
a kept set's (total, hit) tensor, a float estimate of its ``mpa`` with a
certified error bound, and the exact ``mpa``, computed only when the
estimate cannot decide a comparison.  ``_value_masses`` reads from the
same grid every class, feature-value and (class, value) mass the
information-gain ranking in :mod:`bntrim.baselines` needs.

Row sums are read from a joint probability grid materialized once per
(network, classifier) pair, so repeated subset evaluations during search
stay cheap.  Every row sum is correctly rounded, the float ``math.fsum``
gives, and ``_row_sums`` alone takes them, from the cells its callers
name: a small call from an ``fsum`` per row, a larger one from one
vectorized pass whose error bound certifies each row's rounding and
sends the rows it cannot certify to ``fsum``.

This module is the grid route alone.  The scalar route that checks it
(``sdp``, ``esdp_two_threshold``) lives in :mod:`bntrim.inference`, from
which this module takes only ``CELL_LIMIT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .bnmodel import BayesianNetwork, Classifier, check_classifier, check_trimming, kept_in_order
from .errors import EnumerationLimitError, ModelError
from .inference import CELL_LIMIT

# Posteriors within this relative tolerance are treated as the same
# threshold candidate when sweeping.
POSTERIOR_GROUP_RTOL = 1e-9

# _row_sums takes one math.fsum per row below this count, rows x the
# tallest block's cells per row (6x a table's grid cells), else one numpy
# pass.  Timed on a 2-core Xeon (Python 3.11, numpy 2.4), mpa and maa per
# call, numpy against fsum: at a count of 1536 0.6-0.9x below 64 rows; at
# 3072 0.8-1.0x below 32 rows and 1.1-14x from there; at 6144 1.2-15x on
# all but one shape.  numpy's fixed cost per call (about 100 us for some
# 100 small-array operations) is what small counts cannot pay back.
_NUMPY_MIN_CELLS = 3072

# Information gain sums several features' rows in one _row_sums call while
# their pos and neg cells total at most this many, else one feature's.
# Timed on a 2-core Xeon against 2**15 to 2**19, on naive Bayes of 10-16
# binary and 10 ternary features: 2**16 was fastest at 12 and 16 features
# and within 20 % of the fastest on all five; 2**15 took 1.5x as long at
# 10 features, 2**19 2x as long at 16, where the arrays outgrow the cache,
# and a batch per feature 2x as long on the perfbench ``scalar`` pool's
# small models, where each pass's fixed cost dominates.
_BATCH_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """The instance table of a kept feature subset as row arrays, one
    entry per positive-mass instantiation of the kept features, sorted by
    nondecreasing posterior.  ``eq=False``: arrays have no truth value.

    features   the kept features, in classifier order
    rows       each row's position in the C-order enumeration of the kept
               features' values (the order ``itertools.product`` gives)
    mass       marginal probability of the instantiation
    posterior  class posterior given the instantiation
    rate       probability that the original classifier decides
               positive, given the instantiation
    """

    features: tuple[str, ...]
    rows: np.ndarray
    mass: np.ndarray
    posterior: np.ndarray
    rate: np.ndarray


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

    @property
    def representative(self) -> float:
        return self.hi if math.isfinite(self.hi) else self.lo + 1.0

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


def _row_cells(cells: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """A C-contiguous (kind, cell, row) array of a stack laid out as
    ``_classifier_grid``'s, kind first, then one axis per feature: row
    (last index) i holds the cells of the i-th instantiation of the
    features at ``axes``, in C order (``itertools.product``'s order).
    """
    rest = [1 + i for i in range(cells.ndim - 1) if i not in axes]
    n_rows = math.prod(cells.shape[1 + i] for i in axes)
    moved = np.transpose(cells, [0, *rest, *(1 + i for i in axes)])
    return np.ascontiguousarray(moved).reshape(len(cells), -1, n_rows)


_U = 2.0**-53  # unit roundoff of float64


def _row_sums(blocks: Sequence[tuple[np.ndarray, ...]]) -> np.ndarray:
    """The correctly rounded sum of every row of every block: the float
    ``math.fsum`` returns for each row.

    A block is a tuple of nonnegative (cells, rows) arrays, and its row j
    sums column j of each, as (pos, neg) sums a mass; the result lists
    each block's row sums in turn.  Below ``_NUMPY_MIN_CELLS`` (rows times
    the tallest block's cells per row) each row is one ``fsum``, else the
    blocks fill one zero-padded array, a column per row, for one numpy
    pass (a lone array of power-of-two height is read in place).

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
    height = max(sum(len(a) for a in block) for block in blocks)
    rows = sum(block[0].shape[1] for block in blocks)
    if rows * height < _NUMPY_MIN_CELLS:
        sums = [math.fsum(row) for block in blocks for row in np.concatenate(block).T.tolist()]
        return np.array(sums)
    size = 1 << (height - 1).bit_length()
    if len(blocks) == len(blocks[0]) == 1 and size == height:
        cols = blocks[0][0]  # already the layout: read below, never written
    else:
        cols = np.zeros((size, rows))
        at = 0
        for block in blocks:
            top = 0
            for a in block:
                cols[top:top + len(a), at:at + a.shape[1]] = a
                top += len(a)
            at += block[0].shape[1]
    if len(cols) <= 2:
        return cols.sum(axis=0)
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
            r[i] = math.fsum(cols[:, i].tolist())
    return r


def _value_masses(
    net: BayesianNetwork, clf: Classifier
) -> tuple[list[tuple[list[float], list[float], list[float]]], tuple[float, float]]:
    """Every mass information gain reads, as correctly rounded sums of
    the classifier grid's cells.

    Returns one (mass, positive mass, negative mass) triple of lists per
    classifier feature, each indexed by the feature's value: the sum of
    the pos and neg cells with that value, of its pos cells alone and of
    its neg cells alone; and the (positive, negative) class masses, the
    sums of every pos and of every neg cell.  When the classifier covers
    every non-class variable, the cells are the scalar route's completion
    products (the same factors multiplied in declaration order from 1.0)
    and a zero cell adds nothing, so every sum has the bits of the
    ``fsum`` the scalar route takes of the same products.

    ``_row_cells`` reads the pos and neg cells as one kind whose first
    axis, the class side, is kept like a feature.  A batch of features of
    at most ``_BATCH_CELLS`` cells takes two ``_row_sums`` calls, a block
    per feature: a row per (side, value) pair, then the same cells a row
    per value.  The class masses take one more call, a row per side.
    """
    sides = _classifier_grid(net, clf)[None, :2]
    cards = sides.shape[2:]
    per_batch = max(1, _BATCH_CELLS // sides.size)
    out = []
    for start in range(0, len(cards), per_batch):
        batch = range(start, min(start + per_batch, len(cards)))
        # (cell, side x value) arrays, read again as (cell x side, value).
        pairs = [_row_cells(sides, (0, 1 + i))[0] for i in batch]
        side_sums = _row_sums([(x,) for x in pairs]).tolist()
        mass_sums = _row_sums([(x.reshape(-1, cards[i]),) for i, x in zip(batch, pairs)]).tolist()
        a = 0
        for i in batch:
            b = a + cards[i]
            out.append((mass_sums[a:b], side_sums[2 * a:a + b], side_sums[a + b:2 * b]))
            a = b
    positive, negative = _row_sums([(_row_cells(sides, (0,))[0],)]).tolist()
    return out, (positive, negative)


def build_instance_table(
    net: BayesianNetwork, clf: Classifier, kept: Iterable[str]
) -> InstanceTable:
    """Instance table of the kept feature subset against the classifier.

    Per instantiation, mass is the correctly rounded sum of its pos and
    neg cells, posterior its pos sum over the mass and rate its hit sum
    over the mass, capped at 1; all three kinds of row sum come from one
    ``_row_sums`` call.  Zero-mass rows are dropped and the rest sorted by
    posterior, stably, so ties keep enumeration order and the result is
    deterministic.  The row sums are over the same cell multisets the
    enumeration path in inference.py sums, so posteriors agree
    bit-for-bit with posterior_class whenever the classifier covers every
    non-class variable.  Every array is a fresh copy, never a view of a
    cache.
    """
    kept_t = kept_in_order(clf, kept)
    pos, neg, hit = _row_cells(
        _classifier_grid(net, clf), [clf.features.index(f) for f in kept_t]
    )
    mass, pos_sum, hit_sum = _row_sums([(pos, neg), (pos,), (hit,)]).reshape(3, -1)
    index = (mass > 0.0).nonzero()[0]
    mass = mass[index]
    # pos_sum <= mass, as the pos cells are among the mass cells, but a
    # hit cell is pos + neg rounded per cell, so hit_sum can exceed mass.
    posterior = pos_sum[index] / mass
    rate = np.minimum(hit_sum[index] / mass, 1.0)
    order = posterior.argsort(kind="stable")
    return InstanceTable(kept_t, index[order], mass[order], posterior[order], rate[order])


def eca(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> float:
    """Expected classification agreement between a classifier and a
    trimmed variant: the probability, over instances drawn from the
    network, that both produce the same label."""
    t = build_instance_table(net, alpha, check_trimming(net, alpha, beta))
    terms = np.where(t.posterior >= beta.threshold, t.rate * t.mass, (1.0 - t.rate) * t.mass)
    return math.fsum(terms.tolist())


def mpa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> float:
    """Upper bound on agreement for a kept subset: every instantiation
    contributes its larger side, as if the threshold could be chosen per
    row instead of globally.

    Each term is the instance table row's mass times the larger of its
    rate and one minus it, and the terms are summed with fsum, which is
    correctly rounded, so the result does not depend on the row order.
    """
    t = build_instance_table(net, clf, kept)
    return math.fsum((np.maximum(t.rate, 1.0 - t.rate) * t.mass).tolist())


class _MpaBound:
    """``mpa`` of a kept set as the search reads it: a float estimate
    from the set's (total, hit) stack with a certified error, and the
    exact value, computed at most once and only when a comparison or the
    caller needs it.

    ``cells[0]`` holds each cell's total mass, the grid's pos + neg cells
    added once per cell, and ``cells[1]`` its hit cell.  Axis 1 + i is
    classifier feature i; a summed-out feature keeps its axis at size 1,
    so the kept set is the features whose axes have more than one cell
    (every feature has at least two values).  ``additions`` is the most
    float additions any grid cell met on its way into a cell of
    ``cells``.

    The estimate A is the float sum of max(H, T - H) over the stack's R
    cells, T and H a cell's floats, and ``err`` is B with |mpa - A| <= B.
    Write u = 2**-53, gamma(n) = n*u / (1 - n*u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3-4), a = ``additions``, and
    per row of the kept set: M the exact sum of its grid cells' pos and
    neg, Tx and Hx the exact sums of its grid totals and hits, and
    Q = max(Hx, Tx - Hx), so Tx <= 2Q.  Both values are compared with
    the exact sum of every row's Q.

    * A's side.  A grid total is pos + neg rounded once, so
      |Tx - M| <= u*M.  The stack's cells are float sums of nonnegative
      grid cells, each meeting at most a additions, so they lie within
      gamma(a) of Tx and Hx.  The subtraction T - H rounds once more,
      and max is 1-Lipschitz, so each term is within
      (4*gamma(a) + 2u(1 + gamma(a))) * Q of its Q.  Summing the R
      nonnegative terms in any order meets at most R - 1 additions, so
      adds gamma(R - 1) times their sum (numpy's pairwise order is not
      assumed).
    * ``mpa``'s side.  Its row mass is M and its hit sum Hx, each
      correctly rounded; its rate is their quotient capped at 1, within
      gamma(3) of Hx/M capped, plus 2**-1075 when the quotient
      underflows; 1 - rate rounds within u; the product with the mass
      rounds within u, plus 2**-1075 for underflow; and max(Hx, M - Hx)
      (M when Hx > M) lies within u*M of Q.  Each term is then within
      about 7u*M <= 15u*Q of its Q, plus (M + 1) * 2**-1075 for the
      underflows, and the ``fsum`` of the terms rounds once more,
      within u.
    * Together.  |mpa - A| <= K*Q plus the underflow slack, where
      K <= gamma(R) + 4*gamma(a) + 20u once the products of small
      terms are absorbed, for any R and a up to the cell guard's 2**22;
      Q <= A / (1 - K) turns this into a bound in A.  So
      B = (R + 4a + 24) * u * A + (R + 4) * 2**-1074 bounds the error:
      the relative term's spare 4u*A covers the roundings in computing
      B and the quotients' underflow (2**-1075 times the masses, which
      total about 2A at most), and the absolute term covers the
      products' R * 2**-1075 and the relative term's own underflow.

    Addition has no underflow error (Hauser, TOPLAS 1996), so the
    bound holds for subnormal cells too.  As ``mpa`` and A are floats,
    A + B < x (or A - B > x) computed in floats, for a float x, still
    implies ``mpa`` < x (or > x): rounding is monotone.  So ``at_most``
    and ``<`` give the exact answers, and reach for the exact ``mpa``
    only when the intervals [A - B, A + B] they compare meet.
    """

    def __init__(self, net: BayesianNetwork, clf: Classifier, cells: np.ndarray, additions: int):
        self.net, self.clf, self.cells, self.additions = net, clf, cells, additions
        total, hit = cells
        self.approx = np.maximum(hit, total - hit).sum().item()
        rows = hit.size
        self.err = (rows + 4 * additions + 24) * _U * self.approx + (rows + 4) * 2.0**-1074
        self._exact: float | None = None

    @classmethod
    def root(cls, net: BayesianNetwork, clf: Classifier) -> _MpaBound:
        """The bound keeping every feature, the root of a search."""
        cells = _classifier_grid(net, clf)
        return cls(net, clf, np.stack((cells[0] + cells[1], cells[2])), 0)

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(f for f, size in zip(self.clf.features, self.cells.shape[1:]) if size > 1)

    def without(self, features: Iterable[str]) -> _MpaBound:
        """The bound of the kept set less these features, their axes
        summed out of the stack in one numpy call.  Each new cell is a
        float sum of m old ones, m the product of the summed axes' sizes,
        and whatever order numpy adds them in, each meets at most m - 1
        additions."""
        gone = set(features)
        axes = tuple(1 + i for i, f in enumerate(self.clf.features) if f in gone)
        cells = self.cells.sum(axis=axes, keepdims=True)
        return _MpaBound(self.net, self.clf, cells, self.additions + self.cells.size // cells.size - 1)

    def exact(self) -> float:
        """The ``mpa`` of the kept set, computed on first use."""
        if self._exact is None:
            self._exact = mpa(self.net, self.clf, self.kept)
        return self._exact

    def at_most(self, x: float) -> bool:
        """mpa <= x: the estimate decides when its error keeps it clear
        of x, the exact ``mpa`` otherwise."""
        if self.approx + self.err < x:
            return True
        if self.approx - self.err > x:
            return False
        return self.exact() <= x

    def __lt__(self, other: _MpaBound) -> bool:
        """This bound's mpa is below the other's: the estimates decide
        when their error intervals are disjoint, the exact values
        otherwise."""
        if self.approx + self.err < other.approx - other.err:
            return True
        if other.approx + other.err < self.approx - self.err:
            return False
        return self.exact() < other.exact()


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so sums of floats are held exactly as integers in that unit.
_UNIT = 1 << 1074


def _units(x: float) -> int:
    """x as an exact integer count of 2**-1074."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def compute_maa(table: InstanceTable) -> MaaResult:
    """Best achievable agreement over all thresholds for a fixed table.

    Cut j classifies the rows below posterior group j negative and the
    rest positive.  Its terms are each row's negative side,
    (1 - rate) * mass, below the cut and its positive side, rate * mass,
    from the cut on: n = len(rows) nonnegative floats, and its score is
    their correctly rounded sum, the float ``fsum`` gives.  The result is
    the lowest cut of largest score, so it equals a brute-force maximum
    of eca over the candidate thresholds.  It is found in two stages.

    * Float stage.  One prefix ``cumsum`` of the negative sides and one
      suffix ``cumsum`` of the positive sides give every cut's
      approximate score as the sum of two entries.  So each is a float
      sum of its n terms in which every term meets at most n additions,
      each multiplying it by some 1 + d, |d| <= u = 2**-53.  Its error is
      then at most gamma(n) = n*u / (1 - n*u) times the terms' sum, as
      for recursive summation of nonnegative terms (Higham, *Accuracy
      and Stability of Numerical Algorithms*, ch. 4), and that sum is at
      most N + P, the totals of every negative and every positive side.
      Addition has no underflow error (Hauser, TOPLAS 1996), so this
      holds for subnormal terms too.  The float N + P is itself such a
      sum, at least (1 - gamma(n)) times the exact one, so
      E = gamma(n + 1) times it bounds every approximation's error.
    * Shortlist.  A cut whose rounded score could equal the best's has
      an exact score within one ulp of the best exact score, so its
      approximation is within 2E plus that ulp of the largest one.  The
      shortlist keeps every cut within 2E plus a margin of that largest
      approximation: four ulps' worth, 2**-50 times it plus E, covers the
      ulp and the roundings in the test, and 2**-1072 covers E's
      underflow when the totals are tiny.  So the best cut is always on
      it.
    * Exact stage.  A one-cut shortlist holds the best cut, scored by
      one ``fsum`` of its terms.  A longer one, as when every cut ties,
      falls back to one running Python integer holding every cut's exact
      sum in units of 2**-1074: it starts as the sum of every positive
      side, and crossing a group adds each row's negative side and
      subtracts its positive side.  Dividing it by the unit is correctly
      rounded (Python's int true division), as ``fsum`` is, so the exact
      stage stays linear.  Ties go to the lowest cut, and a strict
      improvement is required to move off it.
    """
    mass, posterior, rate = table.mass, table.posterior, table.rate
    n = len(mass)
    if not n:
        raise ModelError("instance table has no rows")
    # Float stage: every cut's approximate score, and the shortlist of
    # cuts within the error bound of the best one.
    pos = rate * mass
    neg = (1.0 - rate) * mass
    # Cut j classifies rows from starts[j] on positive: 0, the first row of
    # each later posterior group, then n.  Groups are runs of posteriors
    # equal within POSTERIOR_GROUP_RTOL as math.isclose decides, which for
    # sorted nonnegative posteriors a <= b reads b - a <= rtol * b.
    a, b = posterior[:-1], posterior[1:]
    edge = np.ones(n + 1, dtype=bool)
    np.greater(b - a, POSTERIOR_GROUP_RTOL * b, out=edge[1:n])
    starts = edge.nonzero()[0]
    # below[i]: the negative sides of rows before i; above[i]: the positive
    # sides from row i on.  Each is one recursive float summation.
    below, above = np.zeros(n + 1), np.zeros(n + 1)
    np.cumsum(neg, out=below[1:])
    np.cumsum(pos[::-1], out=above[n - 1::-1])
    approx = below[starts] + above[starts]
    top = approx.max().item()
    err = (n + 1) * _U / (1.0 - (n + 1) * _U) * (below[-1].item() + above[0].item())
    slack = 2.0 * err + (top + err) * 2.0**-50 + 2.0**-1072
    near = (approx >= top - slack).nonzero()[0]

    # Exact stage: the shortlisted cut's fsum, or every cut's exact sum.
    if len(near) == 1:
        cut = near.item()
        start = starts[cut]
        score = math.fsum([*neg[:start].tolist(), *pos[start:].tolist()])
    else:
        ups = [_units(x) for x in pos.tolist()]
        steps = [_units(x) - p for x, p in zip(neg.tolist(), ups)]
        total = sum(ups)
        score, cut = total / _UNIT, 0
        bounds = starts.tolist()
        for j in range(1, len(bounds)):
            total += sum(steps[bounds[j - 1]:bounds[j]])
            if total / _UNIT > score:
                score, cut = total / _UNIT, j

    lo = -math.inf if cut == 0 else posterior[starts[cut] - 1].item()
    hi = posterior[starts[cut]].item() if cut < len(starts) - 1 else math.inf
    return MaaResult(score, ThresholdInterval(lo, hi))


def maa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> MaaResult:
    """Best agreement achievable by keeping the given subset and retuning
    the threshold, together with the maximizing threshold interval: the
    ``compute_maa`` sweep of the subset's instance table."""
    return compute_maa(build_instance_table(net, clf, kept))
