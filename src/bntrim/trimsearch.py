"""Budgeted search for the best feature trimming.

``eca_trim`` runs a depth-first branch-and-bound over include/exclude
decisions: every newly formed included set within budget is scored with
``maa``, and a subtree rooted at excluded set E is pruned when the upper
bound ``mpa(F \\ E)`` cannot beat the incumbent.  The bound is computed on
F \\ E even when that set itself exceeds the budget; it still bounds every
descendant subset.

The bound is filtered: each node carries the (total, hit) tensor over
F \\ E, which ``agreement`` builds once per search for the root and an
exclude child sums over its new feature's axis (an include child reuses
its parent's tensor and bound).  ``agreement._mpa_estimate`` reads a
float estimate of ``mpa(F \\ E)`` off the tensor, with a certified error
bound B.  The node is pruned when estimate + B falls below the incumbent
and kept when estimate - B lies above it; only in between is the exact
``mpa`` computed (once per node, shared with its include children), and
``mpa <= incumbent`` decides.  So every decision is the exact one.  The
branch order's singleton bounds are estimated the same way, and a
feature whose interval meets another's is ordered by its exact ``mpa``.
A trace prints the exact bound, computed for printing.

When the features are d-separated from one another given the class, as
in naive Bayes, ``eca_trim`` takes the frontier specialization: there MAA
equals MPA and is monotone in the kept set, so only budget-exhausting
subsets (those no remaining feature can extend within budget) need
scoring.  ``use_nb_fast_path=False`` forces the generic search.

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

from .agreement import ThresholdInterval, _mpa_estimate, _mpa_stack, _MpaStack, _sum_out, maa, mpa
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
class TrimResult:
    best_features: tuple[str, ...]
    best_score: float
    threshold: ThresholdInterval
    stats: SearchStats


def _search_order(
    net: BayesianNetwork, clf: Classifier, root: _MpaStack, stats: SearchStats
) -> tuple[str, ...]:
    """Features by descending singleton MPA, ties by input order, since
    ``sorted`` is stable.  Each singleton's bound is estimated from the
    root stack with its certified error; a feature whose interval meets
    another's is keyed by its exact ``mpa``, so the order is the exact
    one."""
    n = len(clf.features)
    spans = []
    for i in range(n):
        approx, err = _mpa_estimate(_sum_out(root, [j for j in range(n) if j != i]))
        spans.append((approx - err, approx + err, approx))
    keys = {}
    for i, (f, (lo, hi, approx)) in enumerate(zip(clf.features, spans)):
        apart = all(
            hi < other_lo or other_hi < lo
            for j, (other_lo, other_hi, _) in enumerate(spans)
            if j != i
        )
        keys[f] = approx if apart else mpa(net, clf, (f,))
    stats.bound_evals += n
    return tuple(sorted(clf.features, key=lambda f: -keys[f]))


@dataclass
class _Bound:
    """A node's bound mpa(F \\ E): the estimate from its (total, hit)
    stack, the estimate's certified error, and the exact value once a
    comparison or the trace has needed it."""

    stack: _MpaStack
    approx: float
    err: float
    exact: float | None = None


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
    root = _mpa_stack(net, clf)
    order = _search_order(net, clf, root, stats)
    position = {f: i for i, f in enumerate(clf.features)}
    all_features = frozenset(order)
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

    def exact(bound: _Bound, excluded: tuple[str, ...]) -> float:
        if bound.exact is None:
            bound.exact = mpa(net, clf, all_features - set(excluded))
        return bound.exact

    def cannot_beat(bound: _Bound, excluded: tuple[str, ...]) -> bool:
        """mpa(F \\ E) <= best_score: decided by the estimate when its
        error bound keeps it clear of the incumbent, else by the exact
        mpa."""
        if bound.approx + bound.err < best_score:
            return True
        if bound.approx - bound.err > best_score:
            return False
        return exact(bound, excluded) <= best_score

    def visit(
        included: tuple[str, ...],
        excluded: tuple[str, ...],
        fresh: bool,
        bound: _Bound | None,
        stack: _MpaStack,
    ) -> None:
        """Depth-first expansion of one subtree; the node's depth is the
        number of decided features.  ``bound`` is the parent's, passed
        down when the excluded set is the parent's; with None, the node
        sums its newest exclusion out of ``stack``, its parent's (the
        root's at the root), and estimates its own."""
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
            res = maa(net, clf, included)
            emit("maa", included, excluded, res.score)
            if res.score > best_score:
                best_score, best, best_interval = res.score, included, res.interval
                emit("update", included, excluded, res.score)
        if not extendable:
            return
        if bound is None:
            if excluded:
                stack = _sum_out(stack, (position[excluded[-1]],))
            bound = _Bound(stack, *_mpa_estimate(stack))
        stats.bound_evals += 1
        if trace_hook is not None:
            emit("bound", included, excluded, exact(bound, excluded))
        if cannot_beat(bound, excluded):
            stats.pruned += 1
            emit("prune", included, excluded, bound.exact)  # set when traced
            return
        feature = undecided[0]
        if fits(included + (feature,)):
            # Same excluded set, so the same mpa(F \ E): pass it down.
            visit(included + (feature,), excluded, True, bound, bound.stack)
        visit(included, excluded + (feature,), False, None, bound.stack)

    visit((), (), True, None, root)
    return TrimResult(kept_in_order(clf, best), best_score, best_interval, stats)


def eca_trim(
    net: BayesianNetwork,
    clf: Classifier,
    costs: CostModel,
    *,
    use_nb_fast_path: bool = True,
    trace_hook: TraceHook | None = None,
) -> TrimResult:
    """Find the within-budget feature subset with the highest achievable
    agreement, and the threshold interval attaining it.

    Takes the frontier specialization when every feature is d-separated
    from the others given the class, unless ``use_nb_fast_path`` is
    False; ``trace_hook``, when given, receives every search event.
    """
    _check_inputs(net, clf, costs)
    fast = use_nb_fast_path and _separated_given_class(net, clf, {f: f for f in clf.features})
    return _run(net, clf, costs, trace_hook, nb_frontier_only=fast)


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
