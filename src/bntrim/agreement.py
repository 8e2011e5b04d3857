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

The search reads its scores and bounds through ``_MpaBound`` instead, one
per node of the search: a kept set F \\ E's (total, hit) float stack, an
estimate of its ``mpa`` with a certified error bound, and, built only
when something reads it, the node tensor: the sums over F \\ E of the
grid's pos, neg and hit cells, each split once, at the root, into parts
that sum exactly in any order (``_split``), so a child's tensor is one
plain sum of its parent's (``_summed``).  A scored node's table, with
the rows ``build_instance_table`` gives, and the exact ``mpa`` when the
estimate cannot decide a comparison, are read from that tensor, not
from the whole grid.
``_value_masses`` reads from the same grid every class, feature-value
and (class, value) mass the information-gain ranking in
:mod:`bntrim.baselines` needs, and ``sdp``, the same-decision
probability, reads the mass and positive mass of every query
instantiation from the grid sliced at its evidence.

Row sums are read from a joint probability grid materialized once per
(network, classifier) pair.  Every row sum is correctly rounded, the
float ``math.fsum`` gives, by one of two routes that share one
certification, ``_certify``: it rounds each row's float sum and error
estimate once, certifies the result by an error bound its caller
derives, and sends the rows it cannot certify to ``fsum`` over their
grid cells.  The grid route, ``_set_sums``, lays the grid out once per
batch of feature sets, for ``_instance_tables``' many tables at once,
``_value_masses``' one-feature sets and ``sdp``'s query set, and
``_column_sums`` sums each layout: an ``fsum`` per row for small
layouts, else ``_fold``'s pairwise TwoSum tree, a mass adding its pos
and neg with one more level, certified.  The search's route reads its
node tensors: a row is the sum of the split parts' exact level sums,
rounded once, correctly rounded with no certification when the grid
splits with no remainder, and certified otherwise.
``_sweep_tables`` runs ``compute_maa``'s float stage for many tables at
once, for ``scatter``, which scores every subset.

This module is the grid route alone.  The scalar route that checks it
(``inference.sdp``, the oracle of ``sdp`` here, and
``esdp_two_threshold``) lives in :mod:`bntrim.inference`, from which
this module takes only ``CELL_LIMIT``.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bnmodel import (
    BayesianNetwork,
    Classifier,
    check_assignment,
    check_classifier,
    check_trimming,
    kept_in_order,
    names_tuple,
)
from .errors import EnumerationLimitError, ModelError, ZeroEvidenceError
from .inference import CELL_LIMIT

# Posteriors within this relative tolerance are treated as the same
# threshold candidate when sweeping.
POSTERIOR_GROUP_RTOL = 1e-9

# _column_sums takes one math.fsum per row below this many cells in its
# (cell, row, kind) layout (3 per grid cell for a table), else one numpy
# pass; a layout of one cell per row needs no sum and takes neither.
# Timed on a 2-core Xeon (Python 3.11, numpy 2.4), build_instance_table
# per call on naive Bayes models of 8-11 binary features, fsum's time
# over numpy's, two runs: at 768 cells (256 grid cells) 0.4-1.2x; at
# 1536 0.6-1.9x, about even; at 3072 1.0-2.9x; at 6144 1.6-4.6x.
# numpy's fixed cost per call (some 50 small-array operations) is what
# small layouts cannot pay back.
_NUMPY_MIN_CELLS = 1536

# _set_sums sums several sets' rows in one _column_sums call while their
# layouts total at most this many cells, for _instance_tables' tables and
# _value_masses' one-feature sets.  Timed for information gain, with the
# zero-padded row pass the kernel replaced, on a 2-core Xeon against 2**15
# to 2**19, on naive Bayes of 10-16 binary and 10 ternary features: 2**16
# was fastest at 12 and 16 features and within 20 % of the fastest on all
# five; 2**15 took 1.5x as long at 10 features, 2**19 2x as long at 16,
# where the arrays outgrow the cache, and a batch per feature 2x as long
# on the perfbench ``scalar`` pool's small models, where each pass's fixed
# cost dominates.
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


def _factors(net: BayesianNetwork, reverse: bool, values: bool = True) -> Iterator[np.ndarray]:
    """Each factor of the network's plan, in declaration order, as its CPT
    rows broadcast over the joint's shape: variable q on axis q, or on
    axis last - q when ``reverse``, and every axis the factor does not
    read of size one.  A factor is a view of its rows' (row, value) array
    with the plan's row-major strides, no copy: the array, strides
    included, that reshaping the rows over the parents and the child and
    moving the axes into place gives.  With ``values`` false the rows are
    uninitialized, for their layout alone."""
    plan = net._plan
    shape = plan.cards
    last = len(shape) - 1
    for child, parents, rows in plan.factors:
        card = shape[child]
        rows = np.array(rows, dtype=float) if values else np.empty((len(rows), card))
        full, strides = [1] * len(shape), [0] * len(shape)
        for q, weight in (*parents, (child, None)):
            axis = last - q if reverse else q
            full[axis] = shape[q]
            strides[axis] = rows.itemsize * (1 if weight is None else card * weight)
        yield np.ndarray(full, rows.dtype, rows, 0, strides)


# The caches hold what one command needs: one joint and its classifier
# grids.  At the CELL_LIMIT guard a joint is 2**22 floats (32 MiB) and a
# grid 3 * 2**21 (48 MiB), so together they stay under 128 MiB.  Building
# the joint holds two joints' worth at once, 64 MiB at the guard: the last
# product with its operand, then the product with its declaration-order
# copy; a grid with latent variables holds one more joint's worth while
# it sums their axes (_summing_layout).
@lru_cache(maxsize=1)
def _full_joint(net: BayesianNetwork) -> np.ndarray:
    """Joint distribution over all network variables as a dense,
    C-contiguous tensor, one axis per variable in declaration order: the
    factors of the network's plan, multiplied in declaration order.

    The product starts from a size-one tensor, and each factor's
    broadcast grows it over the axes that factor reads, so the early
    products are small.  It is grown with its axes reversed, the newest
    variable first: numpy lays each product out after its operands'
    strides, so the newest variable's values take the slowest axis in
    memory and each multiply's inner loop spans the block already built,
    not the newest variable's few values.  The product is then copied
    into declaration order.  Every variable's own factor reads its axis,
    so the last product has the full shape, and each cell is still 1.0
    times the factors' entries in declaration order, the bits a full-size
    start gives: broadcasting and layout repeat and place a cell's value,
    they do not change the operations that make it."""
    shape = net._plan.cards
    cells = math.prod(shape)
    if cells > CELL_LIMIT:
        raise EnumerationLimitError(
            f"joint grid of {cells} cells exceeds the {CELL_LIMIT} cell guard"
        )
    joint = np.ones((1,) * len(shape))
    for factor in _factors(net, reverse=True):
        joint = joint * factor
    return np.ascontiguousarray(joint.transpose(range(len(shape) - 1, -1, -1)))


def _summing_layout(net: BayesianNetwork) -> np.ndarray:
    """An uninitialized array of the joint's shape, axes in declaration
    order, laid out in memory as numpy lays out the product of the plan's
    factors multiplied in declaration order onto a size-one start, each
    variable on its declaration axis: each product is allocated by
    ``np.nditer`` as the multiply allocates its output (order K, after
    its operands' strides), and nothing is computed.  ``_classifier_grid``
    sums latent axes in this layout, as numpy's sum adds cells in memory
    order: so the sums of latent variables do not depend on the layout in
    which ``_full_joint`` grows its product, and keep the bits that
    product gives summed in place."""
    laid = np.empty((1,) * len(net.variables))
    for factor in _factors(net, reverse=False, values=False):
        laid = np.nditer(
            [laid, factor, None],
            op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
            order="K",
        ).operands[2]
    return laid


@lru_cache(maxsize=2)
def _classifier_grid(net: BayesianNetwork, clf: Classifier) -> np.ndarray:
    """Per-instantiation masses over the full feature space, read-only
    because the array is cached.

    The array stacks three, each indexed by feature value along one axis
    per classifier feature, in classifier feature order: the mass of each
    cell with the class positive (``pos``), with it negative (``neg``),
    and ``hit``, the cell's total mass where the original classifier
    labels it positive, else 0: the total times whether pos / total
    reaches the threshold, which is NaN, and so false, for an empty cell.
    Latent variables, neither the class nor a feature, are summed out of
    the joint laid out as ``_summing_layout`` gives.
    """
    check_classifier(net, clf)
    joint = _full_joint(net)
    keep = {clf.class_var, *clf.features}
    sum_axes = tuple(i for i, v in enumerate(net.variables) if v.name not in keep)
    if sum_axes:
        laid = _summing_layout(net)
        laid[...] = joint
        reduced = laid.sum(axis=sum_axes)
        del laid
    else:
        reduced = joint
    kept_names = [v.name for v in net.variables if v.name in keep]
    target = [clf.class_var, *clf.features]
    reduced = np.transpose(reduced, [kept_names.index(n) for n in target])
    cells = np.empty((3, *reduced.shape[1:]))
    pos, neg, hit = cells[0, ...], cells[1, ...], cells[2, ...]  # views, even 0-d
    pos[...] = reduced[clf.positive_value]
    neg[...] = reduced[1 - clf.positive_value]
    total = pos + neg
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(total, pos / total >= clf.threshold, out=hit)
    cells.flags.writeable = False
    return cells


_U = 2.0**-53  # unit roundoff of float64

# The grid kinds each row of an instance table sums: its mass (pos and
# neg cells), its positive mass (pos) and its hit mass (hit).
_TABLE_KINDS = ((0, 1), (0,), (2,))


def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Sum out the first axis of a nonnegative array as double-double:
    the hi and lo of the sums, ``lo`` None standing for zeros, and the
    levels added.

    A pairwise tree halves the axis once per level, the axis zero-padded
    to a power of two first: each level adds the first half of the hi
    slices to the second with TwoSum (Knuth), whose rounded sum s and
    error t satisfy a + b = s + t exactly, and carries the errors down
    the same tree in float, a node's lo being its children's lo plus its
    own t.  An axis of one slice is read in place.
    """
    size = 1 << (len(x) - 1).bit_length()
    if size > len(x):
        x = np.concatenate((x, np.zeros((size - len(x), *x.shape[1:]))))
    hi, lo, levels = x, None, 0
    while len(hi) > 1:
        half = len(hi) // 2
        a, b = hi[:half], hi[half:]
        hi = a + b
        z = hi - a
        t = hi - z
        np.subtract(a, t, out=t)
        np.subtract(b, z, out=z)
        t += z
        if lo is None:
            lo = t
        else:
            lo = lo[:half] + lo[half:]
            lo += t
        levels += 1
    return hi[0], None if lo is None else lo[0], levels


def _certify(
    s: np.ndarray,
    e: np.ndarray,
    bound: np.ndarray,
    kinds: Sequence[tuple[int, ...]],
    cells,
    smallest: Callable[[], float],
) -> np.ndarray:
    """The correctly rounded sum of every row, the float ``math.fsum``
    returns, from a float s and an estimate e of the rest: ``s`` and
    ``e`` are (group, row) arrays with S = s + E for each row's exact sum
    S of its nonnegative cells, a group's row taking its cells of the
    kinds ``kinds[group]`` names, and ``bound``, an array like them,
    bounds |E - e|.  Each caller derives its bound: ``_column_sums`` for
    its TwoSum tree, ``_MpaBound._sums`` for its split parts.  Both build
    s and e from the cells, and from powers of two no smaller than them,
    by float additions and subtractions, with |e| far below s or s = 0;
    ``s`` is overwritten, as scratch.  ``cells(rows)`` returns a (kind,
    row, cell) array of the given rows' cells, read once, for the rows
    the bound cannot certify.
    ``smallest()`` returns a float at most every positive cell of every
    row (the smallest positive cell of the grid or layout the rows are
    summed from), called only when the Near test below leaves some row
    unsure, so its q serves every row, and rows the Exact test settles
    with it need no cell read.  No bit can move by it: its q is at most
    each row's own, so a row it settles is also settled by the row's
    own q, and a row it leaves unsure is read and tested again with its
    own, so the rows summed with ``fsum`` are exactly those the row's
    own q leaves.

    Then r = s + e and d = (s - r) + e.  As |e| is far below s, these
    two operations are Dekker's Fast2Sum: d is exact, with no rounding
    of its own, and S - r = d + (E - e).  A row's r is then certain in
    either of two cases; other rows are summed again with ``math.fsum``.

    * Near: 2*(|d| + B) < g, with B the bound and g = r - (the float
      below r), the smaller gap to a neighbour of r.  Then |S - r| < g/2,
      so r is the float nearest S, with no tie, which is what ``fsum``
      returns.  Evaluated in floats, a subnormal B may lose 2**-1075 to
      underflow, less than the 2**-1074 spacing of the floats d and g/2
      it separates, so the strict test stays sound.  The float below r
      is read as the float whose bits are one less; at r = 0 that reads
      NaN, and the row passes, rightly: each caller's r is 0 only when
      every cell of the row is.
    * Exact: 2*B < q, with q = 2**(exponent - 53) of ``smallest()`` or
      of the row's smallest positive cell, a power of two dividing every
      cell of the row, since no positive cell is smaller, and every
      power of two no smaller than them.  Every float made from them by
      addition and subtraction, s, e, r and d among them, is then a
      multiple of q, and so is E - e = S - r - d; smaller than q, it is
      0.  So e = E, r = s + e rounds S itself to nearest even, as
      ``fsum`` does: this settles exact halfway ties, which the first
      test cannot.

    Sums are assumed far from overflow, as sums of probabilities are.
    Ogita, Rump & Oishi, *Accurate Sum and Dot Product* (SIAM J. Sci.
    Comput. 26, 2005), describe the error-free transformations used.
    """
    r = s + e
    d = np.subtract(s, r, out=s)
    d += e
    np.abs(d, out=d)
    gap = (r.view(np.int64) - 1).view(np.float64)
    np.subtract(r, gap, out=gap)
    unsure = 2.0 * (d + bound) >= gap
    del gap
    if unsure.any():
        unsure &= 2.0 * bound >= math.ldexp(1.0, math.frexp(smallest())[1] - 53)
    rows = unsure.any(axis=0).nonzero()[0]
    if not len(rows):
        return r
    x = cells(rows)
    least = np.where(x > 0.0, x, np.inf).min(axis=2)
    for group, g in enumerate(kinds):
        q = np.ldexp(1.0, np.frexp(least[list(g)].min(axis=0))[1] - 53)
        for i in (unsure[group, rows] & (2.0 * bound[group, rows] >= q)).nonzero()[0].tolist():
            r[group, rows[i]] = math.fsum(x[list(g), i].ravel().tolist())
    return r


def _grid_rows(grid: np.ndarray, axes: Sequence[int]):
    """``_certify``'s reader of the classifier grid's cells, for rows in C
    order over the classifier features at ``axes``: with those axes right
    after the kind, the rows' cells are one fancy index away."""

    def cells(rows: np.ndarray) -> np.ndarray:
        dropped = [1 + i for i in range(grid.ndim - 1) if i not in axes]
        moved = grid.transpose([0, *(1 + i for i in axes), *dropped])
        if axes:
            picked = moved[(slice(None), *np.unravel_index(rows, moved.shape[1:1 + len(axes)]))]
        else:
            picked = moved[:, None]
        return picked.reshape(len(grid), len(rows), -1)

    return cells


def _column_sums(x: np.ndarray, kinds: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Correctly rounded sums of a (cell, row, kind) array's columns, one
    array per group of kinds, a row's sum taking its cells of every kind
    in the group.  Below ``_NUMPY_MIN_CELLS`` cells each row is one
    ``fsum``.  Else ``_fold`` sums the cells; with one cell per row (no
    level) a group's sum is a cell or one correctly rounded addition of
    two, read directly, and otherwise a group of kinds (0, 1), a mass,
    adds its pos and neg with one more TwoSum level, and ``_certify``
    rounds and certifies the rows.  It settles halfway ties by ``x``'s
    smallest positive cell, as the search settles them by the grid's,
    with no bit moved, and reads the cells of the rows it still cannot
    certify from ``x``.  The smallest cell costs a pass over ``x``, taken
    only when some row is not certain without it: on a naive Bayes model
    of 16 binary features, none of ``_value_masses``' 17 calls needed it.

    The bound.  With S a row's exact sum, E the exact sum of every TwoSum
    error t of its tree and e the float lo, S = s + E for its hi s.
    With L the tree's levels (the fold's, plus one for a mass),
    u = 2**-53 and gamma(n) = n*u / (1 - n*u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3-4):

    * Every node sum is nonnegative and |t| <= u*s, so each level's node
      sums total at most (1+u)**level * S, and the errors at most
      T = L*u*(1+u)**L * S.
    * Each t meets at most 2L - 1 float additions on its way into e, so
      |E - e| <= gamma(2L)*T.  Addition has no underflow error (Hauser,
      *Handling floating-point exceptions in numeric programs*, TOPLAS
      1996), so this holds for subnormal cells too.
    * S <= s + |e| + |E - e| turns this into |E - e| <= B with
      B = 3*L**2*u**2 * (s + |e|): 3*L**2*u**2 covers
      gamma(2L)*L*u*(1+u)**L / (1 - that) and the roundings in
      computing B itself for any L below 60.

    Every hi is nonnegative and |e| far below it, so r = s + e is 0 only
    when s is, and then every cell is 0, as ``_certify`` needs."""
    if len(x) > 1 and x.size < _NUMPY_MIN_CELLS:
        return np.array([
            [math.fsum(row) for row in np.concatenate([x[..., k] for k in g]).T.tolist()]
            for g in kinds
        ])
    hi, lo, levels = _fold(x)
    if lo is None:
        return np.stack([hi[:, g[0]] if len(g) == 1 else hi[:, g[0]] + hi[:, g[1]] for g in kinds])
    s, e = np.empty((len(kinds), len(hi))), np.empty((len(kinds), len(hi)))
    for row, g in enumerate(kinds):
        if len(g) == 1:
            s[row], e[row] = hi[:, g[0]], lo[:, g[0]]
        else:
            a, b = hi[:, g[0]], hi[:, g[1]]
            total = np.add(a, b, out=s[row])
            z = total - a
            np.add(lo[:, g[0]], lo[:, g[1]], out=e[row])
            e[row] += (a - (total - z)) + (b - z)
    levels += max(map(len, kinds)) - 1
    bound = (3.0 * levels * levels * _U * _U) * (s + np.abs(e))

    def cells(rows: np.ndarray) -> np.ndarray:
        return x[:, rows].transpose(2, 1, 0)

    def smallest() -> float:
        return np.where(x > 0.0, x, math.inf).min().item()

    return _certify(s, e, bound, kinds, cells, smallest)


def _grid_layout(
    grid: np.ndarray, axes: Sequence[int], kinds: Sequence[tuple[int, ...]]
) -> np.ndarray:
    """The classifier grid's kinds up to the last one ``kinds`` names,
    laid out (cell, row, kind) for ``_column_sums``, a row per
    instantiation of the classifier features at ``axes`` in C order
    (``itertools.product``'s) and its cells the dropped features'
    instantiations: the grid transposed to (dropped features, kept
    features, kind), a copy unless no feature is dropped."""
    used = 1 + max(map(max, kinds))
    dropped = [1 + i for i in range(grid.ndim - 1) if i not in axes]
    layout = grid[:used].transpose([*dropped, *(1 + i for i in axes), 0])
    return layout.reshape(-1, math.prod(layout.shape[len(dropped):-1]), used)


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

    The feature masses are ``_set_sums`` of the one-feature sets, so
    features of one cardinality share a ``_column_sums`` call, in
    batches; the class masses are one call on the grid laid out with no
    feature kept.
    """
    grid = _classifier_grid(net, clf)
    sums = _set_sums(grid, [(i,) for i in range(grid.ndim - 1)], ((0, 1), (0,), (1,)))
    kinds = ((0,), (1,))
    (positive,), (negative,) = _column_sums(_grid_layout(grid, (), kinds), kinds).tolist()
    return [tuple(s.tolist()) for s in sums], (positive, negative)


def _rated(mass: np.ndarray, hit_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive-mass rows of row sums: their indices, masses and
    rates, each row's hit sum over its mass, capped at 1 (a hit cell is
    pos + neg rounded per cell, so a hit sum can exceed its mass)."""
    index = (mass > 0.0).nonzero()[0]
    mass = mass[index]
    return index, mass, np.minimum(hit_sum[index] / mass, 1.0)


def _table(
    features: tuple[str, ...],
    pos_sum: np.ndarray,
    index: np.ndarray,
    mass: np.ndarray,
    rate: np.ndarray,
) -> InstanceTable:
    """The instance table of row sums in C order over the kept features,
    from their pos sums and ``_rated`` rows: zero-mass rows dropped, the
    rest sorted by posterior, stably, so ties keep enumeration order.
    Every array is a fresh copy."""
    # pos_sum <= mass, as the pos cells are among the mass cells.
    posterior = pos_sum[index] / mass
    order = posterior.argsort(kind="stable")
    return InstanceTable(features, index[order], mass[order], posterior[order], rate[order])


def _set_sums(
    grid: np.ndarray, axes: Sequence[Sequence[int]], kinds: Sequence[tuple[int, ...]]
) -> list[np.ndarray]:
    """Each set's (group, row) ``_column_sums`` of its ``_grid_layout``,
    in order, for sets of the classifier features at ``axes``.  Sets with
    as many rows share a call, in batches of at most ``_BATCH_CELLS``
    layout cells (or one set): a batch's layouts are built only when it
    is summed and concatenated along the row axis, so the call's ``fsum``
    or kernel choice follows ``_NUMPY_MIN_CELLS`` on the combined layout,
    and its row sums are split back by set.  Peak memory stays one batch
    above the grid, whatever the number of sets.  A correctly rounded sum
    is unique, so every row has the bits the set's own call gives,
    whichever path sums it."""
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(axes):
        groups.setdefault(math.prod(grid.shape[1 + j] for j in a), []).append(i)
    per_batch = max(1, _BATCH_CELLS // grid[:1 + max(max(g) for g in kinds)].size)
    out: list = [None] * len(axes)
    for members in groups.values():
        for first in range(0, len(members), per_batch):
            batch = members[first:first + per_batch]
            parts = [_grid_layout(grid, axes[i], kinds) for i in batch]
            x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            del parts
            sums = _column_sums(x, kinds)
            rows = sums.shape[1] // len(batch)
            for b, i in enumerate(batch):
                out[i] = sums[:, b * rows:(b + 1) * rows]
    return out


def _instance_tables(
    net: BayesianNetwork, clf: Classifier, kept_sets: Iterable[Iterable[str]]
) -> list[InstanceTable]:
    """The instance table of every kept set, in order, from one read of
    the classifier grid: ``_set_sums`` of the sets' mass, pos and hit
    cells.  The first error is the one building the tables one at a time
    raises: the first set's names, then the grid, then the other sets'
    names in order."""
    kept: list[tuple[str, ...]] = []
    for names in kept_sets:
        kept.append(kept_in_order(clf, names))
        if len(kept) == 1:
            grid = _classifier_grid(net, clf)
    if not kept:
        return []
    axes = [[clf.features.index(f) for f in k] for k in kept]
    sums = _set_sums(grid, axes, _TABLE_KINDS)
    return [_table(k, pos, *_rated(mass, hit)) for k, (mass, pos, hit) in zip(kept, sums)]


def build_instance_table(
    net: BayesianNetwork, clf: Classifier, kept: Iterable[str]
) -> InstanceTable:
    """Instance table of the kept feature subset against the classifier.

    Per instantiation, mass is the correctly rounded sum of its pos and
    neg cells, posterior its pos sum over the mass and rate its hit sum
    over the mass, capped at 1; all three kinds of row sum come from one
    ``_column_sums`` call.  Zero-mass rows are dropped and the rest sorted
    by posterior, stably, so ties keep enumeration order and the result
    is deterministic.  The row sums are over the same cell multisets the
    enumeration path in inference.py sums, so posteriors agree
    bit-for-bit with posterior_class whenever the classifier covers every
    non-class variable.  Every array is a fresh copy, never a view of a
    cache.  This is ``_instance_tables`` of the one set.
    """
    return _instance_tables(net, clf, [kept])[0]


def _larger_sides(mass: np.ndarray, rate: np.ndarray) -> float:
    """The fsum of every row's larger side, max(rate, 1 - rate) * mass:
    ``mpa`` of rows in any order, as fsum is correctly rounded."""
    return math.fsum((np.maximum(rate, 1.0 - rate) * mass).tolist())


def eca(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> float:
    """Expected classification agreement between a classifier and a
    trimmed variant: the probability, over instances drawn from the
    network, that both produce the same label."""
    table = build_instance_table(net, alpha, check_trimming(net, alpha, beta))
    return _table_eca(table, beta.threshold)


def _table_eca(table: InstanceTable, threshold: float) -> float:
    """``eca`` read from the kept set's instance table: the ``fsum`` of
    each row's side at the trimmed classifier's threshold, rate * mass
    where the posterior reaches it, else (1 - rate) * mass."""
    mass, rate = table.mass, table.rate
    terms = np.where(table.posterior >= threshold, rate * mass, (1.0 - rate) * mass)
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
    return _larger_sides(t.mass, t.rate)


def _split(x: np.ndarray) -> tuple[np.ndarray, float]:
    """A root's node tensor: every cell of ``x``, nonnegative and shaped
    (..., kind), split into parts whose sums over the cells of one kind,
    or over a mass's pos and neg cells together, are exact in any order,
    by two levels of the error-free extraction of Rump, Ogita & Oishi
    (*Accurate Floating-Point Summation Part I*, SIAM J. Sci. Comput. 31,
    2008: ``ExtractVector``, Lemma 3.3).  Returns (parts, rest): parts
    shaped (level, ..., kind), and rest the largest magnitude of a
    remainder.  When rest is 0 the two levels hold every cell exactly;
    else a third level holds the remainders.

    With n twice the cells of one kind, the most cells a row sum takes,
    2**M >= n + 2, 2**X above the largest cell and u = 2**-53, the
    levels extract at sigma1 = 2**(M + X) and sigma2 = 2**(M - 53) *
    sigma1: q1 = (sigma1 + p) - sigma1 of each cell p, then
    q2 = (sigma2 + r1) - sigma2 of r1 = p - q1, and the remainder
    r2 = r1 - q2, each subtraction exact.  Every cell is at most
    2**-M * sigma1 and every r1 at most u*sigma1 = 2**-M * sigma2, so by
    the lemma every q1 is a multiple of u*sigma1 and every q2 of
    u*sigma2, any n of them sum below sigma1 (sigma2) in magnitude, so
    every partial sum is a float and no addition of them rounds, and
    |r2| <= u*sigma2.  Near the bottom of the float range sigma2 is kept
    at 2**-1074 or more, which only loosens the lemma's condition; there
    each addition is exact and r2 is 0.

    The three levels are one array of three grids' worth of cells, the
    remainders computed in place of a contiguous copy of ``x``, so that
    is the split's peak; with no remainder the tensor is a view of the
    first two."""
    parts = np.empty((3, *x.shape))
    high, low, rest = parts
    np.copyto(rest, x)
    n = 2 * rest[..., 0].size
    m = (n + 1).bit_length()
    top = math.frexp(rest.max(initial=0.0))[1]
    sigma1 = math.ldexp(1.0, m + top)
    sigma2 = math.ldexp(1.0, max(2 * m + top - 53, -1074))
    np.add(rest, sigma1, out=high)
    high -= sigma1
    np.subtract(rest, high, out=low)
    low += sigma2
    low -= sigma2
    rest -= high
    rest -= low
    largest = max(rest.max(initial=0.0), -rest.min(initial=0.0))
    return (parts if largest else parts[:2]), float(largest)


def _summed(x: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``x`` summed over the axes at these positions, in one ``np.einsum``
    call.  ``np.sum`` over an axis followed by a short block of cells
    runs several times slower.  Timed on a 2-core Xeon (Python 3.11,
    numpy 2.4) on a node tensor of 16 binary features, shaped
    (3, 2, ..., 2, 3): its last feature axis took 9.7 ms with ``np.sum``
    against 1.1 ms, all 15 leading feature axes 2.3 ms against 0.7 ms,
    and of eleven sets of axes, ``np.einsum`` took at most 1.4 times
    ``np.sum``'s time on any."""
    letters = string.ascii_letters[:x.ndim]
    kept = "".join(c for i, c in enumerate(letters) if i not in axes)
    return np.einsum(f"{letters}->{kept}", x)


class _MpaBound:
    """``mpa`` of a kept set as the search reads it: a float estimate
    from the set's (total, hit) stack with a certified error, and the
    exact value, computed at most once and only when a comparison or the
    caller needs it.

    A bound is a node of the search, and it also carries the node
    tensor (``_node``), built on first read only: the grid's (pos, neg,
    hit) cells split once, at the root, into levels of parts that sum
    exactly in any order (``_split``), summed over the kept set.  ``maa``
    reads a subset's instance table from it and ``exact`` the exact
    ``mpa``, each row correctly rounded (``_sums``), so both have the
    bits the grid route gives.  A root lays its tensor's axes out in
    reverse search order, so that a node's undecided features, the ones
    ``maa`` sums out, lead and sum in one pass; a child sums the features
    it lacks out of its nearest built ancestor's tensor.

    Memory.  A root tensor holds three grids' worth of cells, two levels
    and the remainders (with no remainder the third is allocated but not
    read): 9 x 2**21 cells (144 MiB) at the 2**22 cell guard, also the
    split's peak.  When the branch order has built a root tensor,
    ``searching`` copies it, so two root tensors (288 MiB) are held for a
    moment, before the old root is dropped and the search begins.  The
    tensors below the root along one path of the search hold at most as
    many again together, as a child holds at most half its parent's
    cells, and the (total, hit) stacks at most twice the
    root's two thirds of a grid.  Reading a node's rows, for a table or
    the exact ``mpa``, takes for the moment at most about three times
    that node's tensor, most of it for the table and its sweep, as the
    grid route's tables take.

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

    def __init__(
        self,
        clf: Classifier,
        grid: np.ndarray,
        cells: np.ndarray,
        additions: int,
        smallest: float,
        parent: _MpaBound | None = None,
        layout: tuple[int, ...] = (),
    ):
        self.clf, self.grid, self.cells, self.additions = clf, grid, cells, additions
        self.smallest = smallest
        total, hit = cells
        self.approx = np.maximum(hit, total - hit).sum().item()
        rows = hit.size
        self.err = (rows + 4 * additions + 24) * _U * self.approx + (rows + 4) * 2.0**-1074
        self._exact: float | None = None
        self._parent, self._layout = parent, layout
        self._tensor: tuple | None = None

    @classmethod
    def root(cls, net: BayesianNetwork, clf: Classifier) -> _MpaBound:
        """The bound keeping every feature, its node tensor's axes in
        classifier order."""
        grid = _classifier_grid(net, clf)
        smallest = np.where(grid > 0.0, grid, math.inf).min().item()
        layout = tuple(range(len(clf.features)))
        stack = np.stack((grid[0] + grid[1], grid[2]))
        return cls(clf, grid, stack, 0, smallest, None, layout)

    def searching(self, order: Sequence[str]) -> _MpaBound:
        """This root bound for a search that decides the features in
        ``order``: the same stack, its node tensor's axes that order
        reversed, so that a node's undecided features, the last ones,
        lead its tensor.  When this root's tensor is built already (the
        branch order read an exact singleton bound), the new root takes
        a copy of it transposed into the new layout, not a second split:
        the split is per cell, so its parts are the same numbers in
        either layout.  A copy, not a view, so that the search reads the
        layout it sums fastest."""
        layout = tuple(self.clf.features.index(f) for f in reversed(order))
        bound = _MpaBound(self.clf, self.grid, self.cells, 0, self.smallest, None, layout)
        if self._tensor is not None:
            axes, parts, rest = self._tensor
            moved = parts.transpose(0, *(1 + axes.index(i) for i in layout), parts.ndim - 1)
            bound._tensor = (layout, np.ascontiguousarray(moved), rest)
        return bound

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(f for f, size in zip(self.clf.features, self.cells.shape[1:]) if size > 1)

    def without(self, features: Iterable[str]) -> _MpaBound:
        """The bound of the kept set less these features, their axes
        summed out of the stack in one numpy call.  Each new cell is a
        float sum of m old ones, m the product of the summed axes' sizes,
        and whatever order numpy adds them in, each meets at most m - 1
        additions.  Its node tensor waits until it is read."""
        gone = set(features)
        axes = tuple(1 + i for i, f in enumerate(self.clf.features) if f in gone)
        cells = self.cells.sum(axis=axes, keepdims=True)
        additions = self.additions + self.cells.size // cells.size - 1
        return _MpaBound(self.clf, self.grid, cells, additions, self.smallest, self)

    def _node(self) -> tuple:
        """The node tensor: (axes, parts, rest), parts the sums of the
        grid's split (pos, neg, hit) cells over the kept set, shaped
        (level, one axis per kept feature, kind), the axes the classifier
        feature indices in their order, and rest ``_split``'s largest
        remainder.  A root's parts are the grid split once; a child's
        tensor is built on first use, from its nearest ancestor's built
        one (the root's at worst), with the features it lacks summed out
        in one call (``_summed``), exact but for the remainders."""
        if self._tensor is None:
            if self._parent is None:
                parts, rest = _split(self.grid.transpose([*(1 + i for i in self._layout), 0]))
                self._tensor = (self._layout, parts, rest)
            else:
                source = self._parent
                while source._tensor is None and source._parent is not None:
                    source = source._parent
                axes, parts, rest = source._node()
                sizes = self.cells.shape[1:]
                gone = tuple(1 + j for j, i in enumerate(axes) if sizes[i] == 1)
                self._tensor = (tuple(i for i in axes if sizes[i] > 1), _summed(parts, gone), rest)
                self._parent = None
        return self._tensor

    def _sums(self, features: Iterable[str], kinds: Sequence[tuple[int, ...]]) -> tuple:
        """Correctly rounded row sums of the node tensor, one array per
        group of kinds, a row per instantiation of the given kept
        features: the rest are summed out first.  Returns the sums, shaped
        (group, one axis per feature), and the features' classifier
        indices in that axis order.

        Per row, the levels' parts of a group's kinds sum to Q1 and Q2
        exactly, pos and neg included (``_split``), and its remainders to
        a float R' of the exact R, so the row's exact sum is
        S = Q1 + Q2 + R.  With no remainder, Q1 + Q2 rounded once is S
        correctly rounded, the float ``fsum`` gives.  Otherwise the row is
        certified by ``_certify``, from s0 = Q1 + Q2 and s = s0 + R', each
        by TwoSum with errors t0 and t1, and e = t0 + t1: S = s + E with
        E = t0 + t1 + (R - R'), and, with n the most cells a row sum takes,
        |R - R'| <= gamma(n - 1) * n * rest (any order of n - 1 additions;
        Higham ch. 4) and e rounds within u*|e|, so
        B = 2u * (n**2 * rest + |e|) bounds |E - e| with room for the
        roundings in computing it (u = 2**-53; where it underflows, the
        sums it bounds are exact).  t0 is 0 unless |s0| >= sigma2, a
        multiple of u*sigma2 being a float below that, which is far above
        |R'| <= n*u*sigma2, so |e| is far below s.  And r = s + e is 0
        only when every cell is: then s = e = 0 and S = R - R'.  If every
        cell's q1 is 0, each |r2| is at most its cell, so |R - R'| is
        below S unless S = 0; otherwise some cell is at least u*sigma1,
        far above n**2 * u**2 * sigma2 >= |R - R'|."""
        axes, parts, rest = self._node()
        keep = {self.clf.features.index(f) for f in features}
        gone = tuple(1 + j for j, i in enumerate(axes) if i not in keep)
        if gone:
            parts = _summed(parts, gone)
        rows = [i for i in axes if i in keep]
        shape = parts.shape[1:-1]
        x = parts.reshape(len(parts), -1, parts.shape[-1])
        g = np.empty((len(parts), len(kinds), x.shape[1]))
        for group, k in enumerate(kinds):
            if len(k) == 1:
                g[:, group] = x[..., k[0]]
            else:
                np.add(x[..., k[0]], x[..., k[1]], out=g[:, group])
        q1, q2, r = g[0], g[1], g[-1]
        s0 = q1 + q2
        if not rest:
            return s0.reshape(len(kinds), *shape), rows
        # The two TwoSums, in place where the level sums were, as the
        # remainder's tensors are the search's largest: q1 ends as
        # e = t0 + t1, q2 as s and r as the bound.
        z = s0 - q1
        w = s0 - z
        q1 -= w
        q2 -= z
        q1 += q2
        s = np.add(s0, r, out=q2)
        np.subtract(s, s0, out=z)
        np.subtract(s, z, out=w)
        s0 -= w
        r -= z
        s0 += r
        q1 += s0
        del s0, z, w
        n = max(map(len, kinds)) * (self.grid[0].size // x.shape[1])
        bound = np.abs(q1, out=r)
        bound += float(n * n) * rest
        bound *= 2.0 * _U
        sums = _certify(s, q1, bound, kinds, _grid_rows(self.grid, rows), lambda: self.smallest)
        return sums.reshape(len(kinds), *shape), rows

    def maa(self, included: Iterable[str], incumbent: float) -> MaaResult | None:
        """``maa`` of included features, a subset of the kept set, read
        from the node tensor, or None when it cannot beat ``incumbent``:
        when the subset's exact ``mpa`` is at most the incumbent.

        The other features are summed out and the rows correctly rounded
        (``_sums``); a correctly rounded sum is unique, so the rows have the bits
        ``build_instance_table`` gives.  Their ``_larger_sides`` is then
        ``mpa(net, clf, included)`` (fsum ignores row order), and it is
        at least the subset's MAA bit for bit: per row, the larger-side
        product max(rate, 1 - rate) * mass is the same float operations
        on a factor at least as large as either side ``compute_maa``
        takes, so it is at least as large, and both scores are correctly
        rounded sums of their terms, which keeps the order.  Only a
        subset that can beat the incumbent is put in C order over its
        features in classifier order for the one table
        ``build_instance_table`` also builds, and swept by
        ``compute_maa``; pass ``-math.inf`` to sweep every subset."""
        sums, rows = self._sums(included, _TABLE_KINDS)
        ranks = sorted(range(len(rows)), key=rows.__getitem__)
        mass, pos, hit = sums.transpose(0, *(1 + j for j in ranks)).reshape(len(_TABLE_KINDS), -1)
        rated = _rated(mass, hit)
        if _larger_sides(*rated[1:]) <= incumbent:
            return None
        return compute_maa(_table(tuple(self.clf.features[rows[j]] for j in ranks), pos, *rated))

    def exact(self) -> float:
        """The ``mpa`` of the kept set, computed on first use from the
        node tensor's own cells, each a row of the kept set: their
        correctly rounded mass and hit sums, with no table and no sort."""
        if self._exact is None:
            (mass, hit), _ = self._sums(self.kept, ((0, 1), (2,)))
            _, mass, rate = _rated(mass.ravel(), hit.ravel())
            self._exact = _larger_sides(mass, rate)
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


def _sweep_tables(tables: Sequence[InstanceTable]) -> list[MaaResult]:
    """``compute_maa`` of every table, the float stage run once for all.

    The tables are stacked as (table, row) arrays, zero-padded to the
    longest: past a table's end a row has mass 0, so both its sides are
    exact zeros that leave every prefix and suffix sum of the table's own
    rows as ``compute_maa`` computes it, and posterior +inf, so it starts
    no posterior group (inf - inf is NaN and compares false); each
    table's last cut is set at its own row count.  Every cut's
    approximate score, each table's gamma(n + 1) error bound over its own
    n rows and so its shortlist are then ``compute_maa``'s, bit for bit.
    A table whose shortlist holds one cut is scored by the ``fsum`` of
    that cut's terms, as ``compute_maa`` scores it, and any other is
    passed to ``compute_maa``.  An empty table raises its ``ModelError``.

    The stacked stage's fixed cost pays only over several tables.  Timed
    in-process on a 2-core Xeon (Python 3.11, numpy 2.4), two runs, on
    tables of perfbench ``scatter`` ops (1-9 rows): one table took
    51-77 us stacked against 21-32 us through ``compute_maa``, three
    61-97 us either way, four 67-99 us against 87-129 us and sixteen
    109-164 us against 336-536 us.  ``scatter`` scores 16 subsets per
    perfbench op; the few-subset runs that lose some 30-50 us have no
    workload to show it, so there is one path, not a cutoff.
    """
    if not tables:
        return []
    sizes = np.array([len(t.mass) for t in tables])
    if not sizes.all():
        raise ModelError("instance table has no rows")
    count, width = len(tables), sizes.max().item()
    real = np.arange(width) < sizes[:, None]
    mass, rate = np.zeros((count, width)), np.zeros((count, width))
    posterior = np.full((count, width), math.inf)
    mass[real] = np.concatenate([t.mass for t in tables])
    rate[real] = np.concatenate([t.rate for t in tables])
    posterior[real] = np.concatenate([t.posterior for t in tables])
    pos = rate * mass
    neg = (1.0 - rate) * mass
    edge = np.zeros((count, width + 1), dtype=bool)
    edge[:, 0] = True
    a, b = posterior[:, :-1], posterior[:, 1:]
    with np.errstate(invalid="ignore"):
        np.greater(b - a, POSTERIOR_GROUP_RTOL * b, out=edge[:, 1:width])
    edge[np.arange(count), sizes] = True
    below, above = np.zeros((count, width + 1)), np.zeros((count, width + 1))
    np.cumsum(neg, axis=1, out=below[:, 1:])
    np.cumsum(pos[:, ::-1], axis=1, out=above[:, width - 1::-1])
    approx = np.where(edge, below + above, -math.inf)
    top = approx.max(axis=1)
    err = (sizes + 1) * _U / (1.0 - (sizes + 1) * _U) * (below[:, -1] + above[:, 0])
    slack = 2.0 * err + (top + err) * 2.0**-50 + 2.0**-1072
    near = edge & (approx >= (top - slack)[:, None])
    single = (near.sum(axis=1) == 1).tolist()
    starts = near.argmax(axis=1).tolist()
    neg_l, pos_l, posterior_l = neg.tolist(), pos.tolist(), posterior.tolist()
    out = []
    for i, (table, n) in enumerate(zip(tables, sizes.tolist())):
        if not single[i]:
            out.append(compute_maa(table))
            continue
        start = starts[i]
        score = math.fsum(neg_l[i][:start] + pos_l[i][start:n])
        lo = -math.inf if start == 0 else posterior_l[i][start - 1]
        hi = posterior_l[i][start] if start < n else math.inf
        out.append(MaaResult(score, ThresholdInterval(lo, hi)))
    return out


def maa(net: BayesianNetwork, clf: Classifier, kept: Iterable[str]) -> MaaResult:
    """Best agreement achievable by keeping the given subset and retuning
    the threshold, together with the maximizing threshold interval: the
    ``compute_maa`` sweep of the subset's instance table."""
    return compute_maa(build_instance_table(net, clf, kept))


def sdp(
    net: BayesianNetwork, clf: Classifier, query: Iterable[str], evidence: Mapping[str, int]
) -> float:
    """Same-decision probability (Chen, Choi & Darwiche, JAIR 2014): the
    probability that observing the query features on top of the evidence
    leaves the classifier's decision unchanged.

    Read from the classifier grid sliced at the evidence values, each
    evidence axis kept at size one: one ``_set_sums`` call gives every
    query instantiation's mass and positive mass, and P(e) and P(+, e).
    The evidence decides P(+, e) / P(e) >= threshold; the instantiations
    of positive mass that decide the same way are summed with ``fsum``
    and divided by P(e).  When the classifier covers every non-class
    variable, each grid cell is a completion product of the scalar
    route, and every sum is correctly rounded, so the result has the bits
    of ``inference.sdp``, its oracle.  With latent variables the grid
    sums their axes with numpy, so posteriors may differ from the
    scalar route's in the last bits: the two agree within 1e-12 at
    thresholds away from an attained posterior.  The checks come first, in the scalar route's order;
    then the grid's guard on the joint, which counts the evidence's
    variables too.  Raises ZeroEvidenceError when P(e) is 0.
    """
    check_classifier(net, clf)
    query = names_tuple(query)
    q = tuple(f for f in kept_in_order(clf, (*query, *evidence)) if f not in evidence)
    check_assignment(net, evidence)
    grid = _classifier_grid(net, clf)
    at = [slice(None)] * grid.ndim
    for f, v in evidence.items():
        at[1 + clf.features.index(f)] = slice(v, v + 1)
    rows, total = _set_sums(
        grid[tuple(at)], [[clf.features.index(f) for f in q], ()], ((0, 1), (0,))
    )
    (pe,), (positive,) = total.tolist()
    if pe == 0.0:
        raise ZeroEvidenceError(f"evidence {dict(evidence)!r} has probability 0")
    mass, pos = rows[:, rows[0] > 0.0]
    agree = (pos / mass >= clf.threshold) == (positive / pe >= clf.threshold)
    return math.fsum(mass[agree].tolist()) / pe
