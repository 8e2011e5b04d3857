"""Budgeted search for the best feature trimming.

``eca_trim`` runs a depth-first branch-and-bound over include/exclude
decisions: every newly formed included set within budget is scored with
``maa``, and a subtree rooted at excluded set E is pruned when the upper
bound ``mpa(F \\ E)`` cannot beat the incumbent.  The bound is computed on
F \\ E even when that set itself exceeds the budget; it still bounds every
descendant subset.

``nb_trim`` is the naive-Bayes specialization: there MAA equals MPA and
is monotone in the kept set, so only budget-exhausting subsets (those no
remaining feature can extend within budget) need scoring.

``exhaustive_trim`` scores every within-budget subset and is the oracle
the other two are tested against.

Determinism: the branch order is fixed up front (descending
single-feature MPA, ties by input order), include is explored before
exclude, and the incumbent only moves on a strict improvement — so the
first subset reaching the optimum in traversal order wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .agreement import MaaResult, ThresholdInterval, maa, mpa
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    check_classifier,
    is_naive_bayes,
    kept_in_order,
)
from .errors import EnumerationLimitError, ModelError
from .inference import EXHAUSTIVE_LIMIT


@dataclass
class SearchStats:
    """Work counters for one search run.

    ``bound_evals`` counts bound checks: the branch-order pass plus one
    per node that compares its subtree bound against the incumbent,
    including the include children that reuse their parent's bound.
    """

    maa_evals: int = 0
    bound_evals: int = 0
    nodes_expanded: int = 0
    pruned: int = 0


@dataclass(frozen=True)
class TraceEvent:
    """One line of the optional search log."""

    action: str  # "maa" | "bound" | "prune" | "update"
    included: tuple[str, ...]
    excluded: tuple[str, ...]
    budget_left: float  # budget - fsum(costs of included)
    value: float


TraceHook = Callable[[TraceEvent], None]


@dataclass(frozen=True)
class SearchOptions:
    # True takes the naive-Bayes frontier path when the model is naive
    # Bayes; False forces the generic search.
    use_nb_fast_path: bool = True
    trace_hook: TraceHook | None = None


@dataclass(frozen=True)
class TrimResult:
    best_features: tuple[str, ...]
    best_score: float
    threshold: ThresholdInterval
    stats: SearchStats


class _Incumbent:
    """Best-so-far; moves only on a strictly better score, so ties go to
    the subset met first."""

    def __init__(self) -> None:
        self.score = -math.inf
        self.features: tuple[str, ...] = ()
        self.interval: ThresholdInterval | None = None

    def offer(
        self, score: float, features: tuple[str, ...], interval: ThresholdInterval
    ) -> bool:
        if score > self.score:
            self.score = score
            self.features = features
            self.interval = interval
            return True
        return False


def _search_order(
    net: BayesianNetwork, clf: Classifier, stats: SearchStats
) -> tuple[str, ...]:
    """Features by descending singleton MPA, ties by input order."""
    scores = {}
    for f in clf.features:
        scores[f] = mpa(net, clf, (f,))
        stats.bound_evals += 1
    index = {f: i for i, f in enumerate(clf.features)}
    return tuple(sorted(clf.features, key=lambda f: (-scores[f], index[f])))


class _Searcher:
    def __init__(
        self,
        net: BayesianNetwork,
        clf: Classifier,
        costs: CostModel,
        order: Sequence[str],
        trace_hook: TraceHook | None,
        nb_frontier_only: bool,
        stats: SearchStats,
    ) -> None:
        self.net = net
        self.clf = clf
        self.costs = costs
        self.order = tuple(order)
        self.all_features = frozenset(order)
        self.incumbent = _Incumbent()
        self.trace_hook = trace_hook
        self.nb_frontier_only = nb_frontier_only
        self.stats = stats

    def _emit(
        self,
        action: str,
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        value: float,
    ) -> None:
        if self.trace_hook is not None:
            budget_left = self.costs.budget - self.costs.total(included)
            self.trace_hook(TraceEvent(action, included, excluded, budget_left, value))

    def _score(self, included: tuple[str, ...], excluded: tuple[str, ...]) -> None:
        self.stats.maa_evals += 1
        res: MaaResult = maa(self.net, self.clf, included)
        self._emit("maa", included, excluded, res.score)
        if self.incumbent.offer(res.score, included, res.interval):
            self._emit("update", included, excluded, res.score)

    def _bound_and_prune(
        self,
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        bound: float | None,
    ) -> float | None:
        """Check the subtree bound against the incumbent.  Returns the
        bound, or None when the subtree is pruned.  ``bound`` is the
        parent's, passed down when the excluded set is the parent's;
        None computes it."""
        if bound is None:
            bound = mpa(self.net, self.clf, self.all_features - set(excluded))
        self.stats.bound_evals += 1
        self._emit("bound", included, excluded, bound)
        if bound <= self.incumbent.score:
            self.stats.pruned += 1
            self._emit("prune", included, excluded, bound)
            return None
        return bound

    def visit(
        self,
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        fresh: bool,
        bound: float | None,
    ) -> None:
        """Depth-first expansion of one subtree; the node's depth is the
        number of decided features."""
        self.stats.nodes_expanded += 1
        undecided = self.order[len(included) + len(excluded):]
        fits = self.costs.fits
        extendable = any(fits(included + (f,)) for f in undecided)
        if self.nb_frontier_only:
            if not extendable:
                # Dead end.  Score only budget-exhausting sets: if some
                # excluded feature still fits, a strictly larger feasible
                # set exists elsewhere in the tree and dominates this one.
                if not any(fits(included + (f,)) for f in excluded):
                    self._score(included, excluded)
                return
        else:
            if fresh:
                self._score(included, excluded)
            if not extendable:
                return
        bound = self._bound_and_prune(included, excluded, bound)
        if bound is None:
            return
        feature = undecided[0]
        if fits(included + (feature,)):
            # Same excluded set, so the same mpa(F \ E): pass it down.
            self.visit(included + (feature,), excluded, True, bound)
        self.visit(included, excluded + (feature,), False, None)


def _check_inputs(net: BayesianNetwork, clf: Classifier, costs: CostModel) -> None:
    check_classifier(net, clf)
    for f in clf.features:
        costs.cost_of(f)  # raises on a missing cost


def _finish(clf: Classifier, incumbent: _Incumbent, stats: SearchStats) -> TrimResult:
    if incumbent.interval is None:
        raise ModelError("search scored no subset")  # unreachable: ∅ is always feasible
    return TrimResult(
        kept_in_order(clf, incumbent.features), incumbent.score, incumbent.interval, stats
    )


def _run(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    trace_hook: TraceHook | None,
    nb_frontier_only: bool,
) -> TrimResult:
    _check_inputs(net, clf, costs)
    stats = SearchStats()
    order = _search_order(net, clf, stats)
    searcher = _Searcher(net, clf, costs, order, trace_hook, nb_frontier_only, stats)
    searcher.visit((), (), True, None)
    return _finish(clf, searcher.incumbent, stats)


def eca_trim(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    opts: SearchOptions | None = None,
) -> TrimResult:
    """Find the within-budget feature subset with the highest achievable
    agreement, and the threshold interval attaining it.

    Dispatches to the naive-Bayes frontier specialization when the model
    qualifies, unless ``opts.use_nb_fast_path`` is False.
    """
    opts = opts or SearchOptions()
    fast = opts.use_nb_fast_path and is_naive_bayes(net, clf)
    return _run(net, clf, costs, opts.trace_hook, nb_frontier_only=fast)


def nb_trim(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    opts: SearchOptions | None = None,
) -> TrimResult:
    """Naive-Bayes trimming: agreement equals its upper bound and grows
    with the kept set, so only budget-exhausting subsets are scored."""
    if not is_naive_bayes(net, clf):
        raise ModelError("nb_trim requires a naive Bayes classifier structure")
    opts = opts or SearchOptions()
    return _run(net, clf, costs, opts.trace_hook, nb_frontier_only=True)


def enumerate_feasible(clf: Classifier, costs: CostModel) -> list[tuple[str, ...]]:
    """Every feature subset whose total cost fits the budget, smaller
    subsets first, then lexicographic in classifier feature order."""
    n = len(clf.features)
    if 1 << n > EXHAUSTIVE_LIMIT:
        raise EnumerationLimitError(f"2^{n} subsets exceed the enumeration guard")
    return [
        combo
        for size in range(n + 1)
        for combo in itertools.combinations(clf.features, size)
        if costs.fits(combo)
    ]


def exhaustive_trim(
    net: BayesianNetwork, clf: Classifier, costs: CostModel
) -> TrimResult:
    """Score every within-budget subset; the oracle baseline.

    Subsets are visited in ``enumerate_feasible`` order, and the
    incumbent only moves on strict improvement, so ties resolve to the
    first subset in that order.  Every subset counts as a node.
    """
    _check_inputs(net, clf, costs)
    stats = SearchStats(nodes_expanded=1 << len(clf.features))
    incumbent = _Incumbent()
    for combo in enumerate_feasible(clf, costs):
        stats.maa_evals += 1
        res = maa(net, clf, combo)
        incumbent.offer(res.score, combo, res.interval)
    return _finish(clf, incumbent, stats)
