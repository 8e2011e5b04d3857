"""Budgeted search for the best feature trimming.

``eca_trim`` runs a depth-first branch-and-bound over include/exclude
decisions: every newly formed included set within budget is scored with
``maa``, and a subtree rooted at excluded set E is pruned when the upper
bound ``mpa(F \\ E)`` cannot beat the incumbent.  The bound is computed on
F \\ E even when that set itself exceeds the budget; it still bounds every
descendant subset.

The bound is filtered: each node holds an ``agreement._MpaBound`` over
F \\ E, whose root ``agreement`` builds once per search, its node tensor
(the classifier grid split once into parts that sum exactly) laid out
for the branch order, and which an exclude child gets from its parent's
by summing out the new feature (an include child shares its parent's).
The bound decides prune-or-keep from a float estimate of ``mpa(F \\ E)``
with a certified error, and computes the exact ``mpa`` only when the
estimate cannot (once per node, shared with its include children), so
every decision is the exact one.  The branch order compares the
singleton bounds the same way.  A trace prints the exact bound, computed
for printing.  A scored node reads its included set's ``maa`` from the
same bound (``_MpaBound.maa``): the included set is a subset of F \\ E,
so its table is one plain sum of the node's tensor, already summed over
E, and has the bits ``agreement.maa`` gives.

A scored node is scored against the incumbent: its rows give its exact
``mpa``, which bounds its MAA bit for bit, and when that ``mpa`` is at
most the incumbent the subset cannot strictly improve on it, so its
table is neither sorted nor swept.  Since the incumbent only moves on a
strict improvement, skipping changes no result and no counter.  A trace
prints every scored subset's MAA, so a traced search sweeps them all.

When the features are d-separated from one another given the class, as
in naive Bayes, ``eca_trim`` takes the frontier specialization: there MAA
equals MPA and is monotone in the kept set, so only budget-exhausting
subsets (those no remaining feature can extend within budget) need
scoring.  Other models take the generic search.

``exhaustive_trim`` scores every within-budget subset and is the oracle
the search is tested against.

Determinism: the branch order is fixed up front (descending
single-feature MPA, ties by input order), include is explored before
exclude, and the incumbent only moves on a strict improvement — so the
first subset reaching the optimum in traversal order wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .agreement import ThresholdInterval, _MpaBound, maa
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    _separated_given_class,
    check_classifier,
    kept_in_order,
)
from .errors import EnumerationLimitError
from .inference import EXHAUSTIVE_LIMIT


@dataclass
class SearchStats:
    """Work counters for one search run.

    ``maa_evals`` counts the subsets scored, including those whose
    ``mpa`` shows they cannot beat the incumbent, whose MAA sweep an
    untraced search skips.  ``bound_evals`` counts bound checks: the
    branch-order pass plus one per node that compares its subtree bound
    against the incumbent, including the include children that reuse
    their parent's bound.
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
class TrimResult:
    best_features: tuple[str, ...]
    best_score: float
    threshold: ThresholdInterval
    stats: SearchStats


def _search_order(clf: Classifier, root: _MpaBound, stats: SearchStats) -> tuple[str, ...]:
    """Features by descending singleton MPA, ties by input order, as
    ``sorted`` stays stable with ``reverse``.  The singleton bounds
    compare by their estimates, and by their exact ``mpa`` only where
    the estimates' error intervals meet, so the order is the exact one."""
    singles = {f: root.without(g for g in clf.features if g != f) for f in clf.features}
    stats.bound_evals += len(singles)
    return tuple(sorted(clf.features, key=singles.__getitem__, reverse=True))


def _check_inputs(net: BayesianNetwork, clf: Classifier, costs: CostModel) -> None:
    check_classifier(net, clf)
    costs.check_features(clf.features)


def _run(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    trace_hook: TraceHook | None,
    nb_frontier_only: bool,
) -> TrimResult:
    """The branch-and-bound search from the root: nothing decided yet."""
    stats = SearchStats()
    root = _MpaBound.root(net, clf)
    order = _search_order(clf, root, stats)
    root = root.searching(order)
    fits = costs.fits
    # The incumbent moves only on a strictly better score, so ties go to
    # the subset met first.  No bound prunes before the first score, so
    # the root (generic) or the include-first dead end (frontier) is
    # always scored and sets the interval.
    best_score = -math.inf
    best: tuple[str, ...] = ()
    best_interval: ThresholdInterval

    def emit(
        action: str, included: tuple[str, ...], excluded: tuple[str, ...], value: float
    ) -> None:
        if trace_hook is not None:
            budget_left = costs.budget - costs.total(included)
            trace_hook(TraceEvent(action, included, excluded, budget_left, value))

    def visit(
        included: tuple[str, ...], excluded: tuple[str, ...], fresh: bool, bound: _MpaBound
    ) -> None:
        """Depth-first expansion of one subtree; the node's depth is the
        number of decided features.  A fresh node (the root or an include
        child) shares its parent's excluded set and gets its bound; an
        exclude child gets its parent's and sums its newest exclusion out
        of it when it needs its own."""
        nonlocal best_score, best, best_interval
        stats.nodes_expanded += 1
        undecided = order[len(included) + len(excluded):]
        extendable = any(fits(included + (f,)) for f in undecided)
        if nb_frontier_only:
            # Score only budget-exhausting dead ends: if some excluded
            # feature still fits, a strictly larger feasible set exists
            # elsewhere in the tree and dominates this one.
            scored = not extendable and not any(fits(included + (f,)) for f in excluded)
        else:
            scored = fresh
        if scored:
            stats.maa_evals += 1
            # None: the subset's mpa, and so its MAA, cannot beat the
            # incumbent.  A trace prints every score, so it sweeps them all.
            res = bound.maa(included, best_score if trace_hook is None else -math.inf)
            if res is not None:
                emit("maa", included, excluded, res.score)
                if res.score > best_score:
                    best_score, best, best_interval = res.score, included, res.interval
                    emit("update", included, excluded, res.score)
        if not extendable:
            return
        if not fresh:
            bound = bound.without(excluded[-1:])
        stats.bound_evals += 1
        if trace_hook is not None:
            emit("bound", included, excluded, bound.exact())
        if bound.at_most(best_score):
            stats.pruned += 1
            if trace_hook is not None:
                emit("prune", included, excluded, bound.exact())
            return
        feature = undecided[0]
        if fits(included + (feature,)):
            # Same excluded set, so the same mpa(F \ E): pass it down.
            visit(included + (feature,), excluded, True, bound)
        visit(included, excluded + (feature,), False, bound)

    visit((), (), True, root)
    return TrimResult(kept_in_order(clf, best), best_score, best_interval, stats)


def eca_trim(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    *,
    trace_hook: TraceHook | None = None,
) -> TrimResult:
    """Find the within-budget feature subset with the highest achievable
    agreement, and the threshold interval attaining it.

    Takes the frontier specialization exactly when every feature is
    d-separated from the others given the class; ``trace_hook``, when
    given, receives every search event.
    """
    _check_inputs(net, clf, costs)
    frontier = _separated_given_class(net, clf, {f: f for f in clf.features})
    return _run(net, clf, costs, trace_hook, nb_frontier_only=frontier)


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

    The best subset is the ``max`` of the MAA scores over
    ``enumerate_feasible``, which keeps the first of equal scores, so ties
    resolve to the first subset in that order.  Every subset counts as a
    node.
    """
    _check_inputs(net, clf, costs)
    feasible = enumerate_feasible(clf, costs)
    best, res = max(
        ((combo, maa(net, clf, combo)) for combo in feasible),
        key=lambda scored: scored[1].score,
    )
    stats = SearchStats(maa_evals=len(feasible), nodes_expanded=1 << len(clf.features))
    return TrimResult(kept_in_order(clf, best), res.score, res.interval, stats)
