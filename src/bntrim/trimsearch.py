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

Determinism: the branch order is fixed up front (default: descending
single-feature MPA, ties by input order), include is explored before
exclude, and the incumbent only moves on a strict improvement — so the
first subset reaching the optimum in traversal order wins.  Parallel runs
return the identical result: workers prune only on strictly-worse bounds
(ties are never discarded) and the winner among equal scores is chosen by
traversal order key, independent of scheduling.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .agreement import MaaResult, ThresholdInterval, maa, mpa
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    check_classifier,
    is_naive_bayes,
)
from .errors import EnumerationLimitError, ModelError

EXHAUSTIVE_LIMIT = 1 << 20

BRANCH_ORDERS = ("individual-mpa-descending", "input-order")


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

    def merge(self, other: "SearchStats") -> None:
        self.maa_evals += other.maa_evals
        self.bound_evals += other.bound_evals
        self.nodes_expanded += other.nodes_expanded
        self.pruned += other.pruned


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
    branch_order: str = "individual-mpa-descending"
    use_nb_fast_path: bool | None = None  # None = auto-detect
    parallel: int = 1
    trace_hook: TraceHook | None = None

    def __post_init__(self) -> None:
        if self.branch_order not in BRANCH_ORDERS:
            raise ModelError(
                f"unknown branch order {self.branch_order!r}; choose from {BRANCH_ORDERS}"
            )
        if self.parallel < 1:
            raise ModelError(f"parallel worker count must be >= 1, got {self.parallel}")


@dataclass(frozen=True)
class TrimResult:
    best_features: tuple[str, ...]
    best_score: float
    threshold: ThresholdInterval
    stats: SearchStats


class _Incumbent:
    """Monotone shared best-so-far.

    ``offer`` accepts a strictly better score, or an equal score found at
    a smaller traversal key.  Under sequential depth-first traversal keys
    arrive in increasing order, so this reduces to the plain
    strictly-greater rule; under parallel evaluation it makes the winner
    independent of scheduling.
    """

    def __init__(self) -> None:
        self.score = -math.inf
        self.key: tuple[int, ...] = ()
        self.features: tuple[str, ...] = ()
        self.interval: ThresholdInterval | None = None
        self._lock = threading.Lock()

    def offer(
        self,
        score: float,
        key: tuple[int, ...],
        features: tuple[str, ...],
        interval: ThresholdInterval,
    ) -> bool:
        with self._lock:
            if score > self.score or (score == self.score and key < self.key):
                self.score = score
                self.key = key
                self.features = features
                self.interval = interval
                return True
            return False

    def current_score(self) -> float:
        return self.score


@dataclass
class _Task:
    included: tuple[str, ...]
    excluded: tuple[str, ...]
    fresh: bool
    path: tuple[int, ...]
    bound: float | None


def _branch_order(
    net: BayesianNetwork, clf: Classifier, opts: SearchOptions, stats: SearchStats
) -> tuple[str, ...]:
    if opts.branch_order == "input-order":
        return clf.features
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
        incumbent: _Incumbent,
        trace_hook: TraceHook | None,
        nb_frontier_only: bool,
    ) -> None:
        self.net = net
        self.clf = clf
        self.costs = costs
        self.order = tuple(order)
        self.all_features = frozenset(order)
        self.incumbent = incumbent
        self.trace_hook = trace_hook
        self.nb_frontier_only = nb_frontier_only
        self.stats = SearchStats()
        # prune on ties (sequential) or only on strictly worse bounds
        # (parallel workers, where a stale incumbent must never drop a
        # tying subtree that the sequential order would have kept)
        self.prune_on_tie = True

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

    def _score(
        self,
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        path: tuple[int, ...],
    ) -> None:
        self.stats.maa_evals += 1
        res: MaaResult = maa(self.net, self.clf, included)
        self._emit("maa", included, excluded, res.score)
        if self.incumbent.offer(res.score, path, included, res.interval):
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
        best = self.incumbent.current_score()
        if bound < best or (self.prune_on_tie and bound == best):
            self.stats.pruned += 1
            self._emit("prune", included, excluded, bound)
            return None
        return bound

    def visit(self, task: _Task, defer_depth: int | None = None) -> list[_Task]:
        """Depth-first expansion of one subtree.

        With ``defer_depth`` set, nodes at that depth are returned instead
        of expanded (the hand-off point for parallel workers).
        """
        deferred: list[_Task] = []
        self._visit(
            task.included, task.excluded, task.fresh, task.path, task.bound,
            defer_depth, deferred,
        )
        return deferred

    def _visit(
        self,
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        fresh: bool,
        path: tuple[int, ...],
        bound: float | None,
        defer_depth: int | None,
        deferred: list[_Task],
    ) -> None:
        if defer_depth is not None and len(path) >= defer_depth:
            deferred.append(_Task(included, excluded, fresh, path, bound))
            return
        self.stats.nodes_expanded += 1
        decided = len(path)
        undecided = self.order[decided:]
        fits = self.costs.fits
        extendable = any(fits(included + (f,)) for f in undecided)
        if self.nb_frontier_only:
            if not extendable:
                # Dead end.  Score only budget-exhausting sets: if some
                # excluded feature still fits, a strictly larger feasible
                # set exists elsewhere in the tree and dominates this one.
                if not any(fits(included + (f,)) for f in excluded):
                    self._score(included, excluded, path)
                return
        else:
            if fresh:
                self._score(included, excluded, path)
            if not extendable:
                return
        bound = self._bound_and_prune(included, excluded, bound)
        if bound is None:
            return
        feature = undecided[0]
        if fits(included + (feature,)):
            # Same excluded set, so the same mpa(F \ E): pass it down.
            self._visit(
                included + (feature,), excluded, True, path + (0,), bound,
                defer_depth, deferred,
            )
        self._visit(
            included, excluded + (feature,), False, path + (1,), None,
            defer_depth, deferred,
        )


def _ordered(clf: Classifier, names: Iterable[str]) -> tuple[str, ...]:
    chosen = set(names)
    return tuple(f for f in clf.features if f in chosen)


def _check_inputs(net: BayesianNetwork, clf: Classifier, costs: CostModel) -> None:
    check_classifier(net, clf)
    for f in clf.features:
        costs.cost_of(f)  # raises on a missing cost


def _finish(clf: Classifier, incumbent: _Incumbent, stats: SearchStats) -> TrimResult:
    if incumbent.interval is None:
        raise ModelError("search scored no subset")  # unreachable: ∅ is always feasible
    return TrimResult(
        _ordered(clf, incumbent.features), incumbent.score, incumbent.interval, stats
    )


def _run(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    opts: SearchOptions,
    nb_frontier_only: bool,
) -> TrimResult:
    _check_inputs(net, clf, costs)
    stats = SearchStats()
    order = _branch_order(net, clf, opts, stats)
    incumbent = _Incumbent()
    root = _Task((), (), True, (), None)

    if opts.parallel <= 1:
        searcher = _Searcher(
            net, clf, costs, order, incumbent, opts.trace_hook, nb_frontier_only
        )
        searcher.visit(root)
        stats.merge(searcher.stats)
        return _finish(clf, incumbent, stats)

    # Split phase: expand sequentially to a fixed depth, collecting the
    # surviving frontier as independent worker tasks.
    depth = 0
    while (1 << depth) < 4 * opts.parallel and depth < len(order):
        depth += 1
    splitter = _Searcher(
        net, clf, costs, order, incumbent, opts.trace_hook, nb_frontier_only
    )
    tasks = splitter.visit(root, defer_depth=depth)
    stats.merge(splitter.stats)

    # Parallel phase: tie subtrees are never pruned, so every subset that
    # could tie the optimum is scored and the order key picks the same
    # winner the sequential traversal would have kept.
    def work(task: _Task) -> SearchStats:
        worker = _Searcher(
            net, clf, costs, order, incumbent, opts.trace_hook, nb_frontier_only
        )
        worker.prune_on_tie = False
        worker.visit(task)
        return worker.stats

    with ThreadPoolExecutor(max_workers=opts.parallel) as pool:
        for worker_stats in pool.map(work, tasks):
            stats.merge(worker_stats)
    return _finish(clf, incumbent, stats)


def eca_trim(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    opts: SearchOptions | None = None,
) -> TrimResult:
    """Find the within-budget feature subset with the highest achievable
    agreement, and the threshold interval attaining it.

    Dispatches to the naive-Bayes frontier specialization when the model
    qualifies (override with ``opts.use_nb_fast_path``).
    """
    opts = opts or SearchOptions()
    fast = opts.use_nb_fast_path
    if fast is None:
        fast = is_naive_bayes(net, clf)
    elif fast and not is_naive_bayes(net, clf):
        raise ModelError("naive-Bayes fast path requested for a non-naive-Bayes model")
    return _run(net, clf, costs, opts, nb_frontier_only=fast)


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
    return _run(net, clf, costs, opts, nb_frontier_only=True)


def exhaustive_trim(
    net: BayesianNetwork, clf: Classifier, costs: CostModel
) -> TrimResult:
    """Score every within-budget subset; the oracle baseline.

    Subsets are visited smaller-first, then in lexicographic feature
    order, and the incumbent only moves on strict improvement, so ties
    resolve to the first subset in that order.
    """
    _check_inputs(net, clf, costs)
    n = len(clf.features)
    if 1 << n > EXHAUSTIVE_LIMIT:
        raise EnumerationLimitError(
            f"2^{n} subsets exceed the exhaustive enumeration guard"
        )
    stats = SearchStats()
    incumbent = _Incumbent()
    counter = itertools.count()
    for size in range(n + 1):
        for combo in itertools.combinations(clf.features, size):
            stats.nodes_expanded += 1
            if not costs.fits(combo):
                continue
            stats.maa_evals += 1
            res = maa(net, clf, combo)
            incumbent.offer(res.score, (next(counter),), combo, res.interval)
    return _finish(clf, incumbent, stats)
