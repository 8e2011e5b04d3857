"""Core types for discrete Bayesian networks and binary threshold classifiers.

A network is a DAG of discrete variables with one conditional probability
table (CPT) per variable.  CPT rows are laid out row-major over the parent
list with the *last* parent varying fastest.  A classifier designates a
binary class variable, the index of its positive value, an ordered tuple of
feature variables, and a decision threshold: an instance is labelled
positive exactly when the posterior probability of the positive value is
greater than or equal to the threshold.

All types are immutable after construction and safe to share across
threads.  Validity (field types, names and value labels, references,
row shapes and sums, acyclicity) is one rule, :func:`validate_network`'s
problem list, computed once per network and reported instead of raised
so that broken documents can be diagnosed (the constructors judge
nothing); :func:`check_network`, which every library entry point
reaches, raises exactly when that list is nonempty.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ModelError

# Tolerance for CPT row-sum validation.
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered tuple of value labels.

    A valid variable has a nonempty string name and a tuple (or list) of
    at least two distinct string labels; :func:`validate_network` reports
    a variable that breaks this with the network's other problems.
    """

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _tuple(self.values))

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def index_of(self, label: str) -> int:
        try:
            return self.values.index(label)
        except ValueError:
            raise ModelError(
                f"variable {self.name!r} has no value {label!r}"
            ) from None


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table of one child variable.

    ``rows[r][v]`` is the probability that the child takes its v-th value
    given the r-th parent configuration.  Parent configurations are
    enumerated row-major with the last parent varying fastest.
    """

    child: str
    parents: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", _tuple(self.parents))
        object.__setattr__(self, "rows", _tuple(self.rows, _row))


def _hashable(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _tuple(value: object, item=lambda x: x) -> object:
    """A list or tuple as the tuple of ``item`` of each element, else as given."""
    return tuple(map(item, value)) if isinstance(value, (list, tuple)) else value


def _row(row: object) -> object:
    """A CPT row as ``Cpt`` keeps it: a list or tuple of floats as their
    tuple, taken whole, else each entry as ``_entry`` reads it."""
    if (type(row) is list or type(row) is tuple) and {float}.issuperset(map(type, row)):
        return tuple(row)
    return _tuple(row, _entry)


def _entry(x: object) -> object:
    """A number (not a bool) as a float if a float holds it, else as given."""
    if type(x) is float or isinstance(x, bool) or not isinstance(x, numbers.Real):
        return x
    try:
        return float(x)
    except OverflowError:
        return x


class _FactorPlan(NamedTuple):
    """A network's CPTs addressed by variable position, read by scalar
    enumeration, the joint grid and the ancestral sampler.

    ``position`` maps each name to its declaration index and ``cards``
    holds the cardinalities in that order.  ``factors`` has one entry per
    variable in declaration order: ``(child position, ((parent position,
    stride), ...), cpt rows)``, where the strides are the row-major
    weights, so ``rows[sum(value[q] * stride)][value[child]]`` is the
    child's CPT entry under a full assignment.  ``first_read`` gives, per
    variable position, the index of the first factor that reads the
    variable, as child or as parent: the completions that differ only in
    one variable share every factor before that index, which scalar
    enumeration multiplies once for them (the grid and the sampler
    ignore it).
    Plans are built only for networks :func:`check_network` accepts, so
    every ``rows`` holds one row per parent configuration and one entry
    per child value.
    """

    position: dict[str, int]
    cards: tuple[int, ...]
    factors: tuple[tuple[int, tuple[tuple[int, int], ...], tuple[tuple[float, ...], ...]], ...]
    first_read: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    """A set of variables plus one CPT per variable.

    ``order`` is a topological order of the variable names, or None when
    the network is invalid; use :func:`validate_network` to find out why.
    Both come from one check, run once on first use (``_validity``).
    Valid networks also carry a factor plan (``_FactorPlan``), built on
    first use.  Equal networks have equal variables, CPTs and order.
    """

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]
    _var_map: dict = field(init=False, repr=False, compare=False)
    _cpt_map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        # Unhashable names stay out of the maps: validate_network reports
        # them as it does any other name that is no string.
        var_map: dict[str, Variable] = {}
        for v in self.variables:
            if type(v.name) is str or _hashable(v.name):
                var_map.setdefault(v.name, v)
        cpt_map: dict[str, Cpt] = {}
        for c in self.cpts:
            if type(c.child) is str or _hashable(c.child):
                cpt_map.setdefault(c.child, c)
        object.__setattr__(self, "_var_map", var_map)
        object.__setattr__(self, "_cpt_map", cpt_map)

    @cached_property
    def _hash(self) -> int:
        try:
            return hash((self.variables, self.cpts))
        except TypeError:
            # Only a field validate_network reports can be unhashable, so
            # the caches that hash a network refuse it as check_network does.
            check_network(self)
            raise

    def __hash__(self) -> int:
        # Computed once: the agreement caches hash the network on every
        # lookup, and hashing walks every CPT row.
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Validity takes part: an entry True equals 1.0 but is no number,
        # and the agreement caches must not answer for an invalid network.
        if not isinstance(other, BayesianNetwork):
            return NotImplemented
        return (self.variables, self.cpts, self.order) == (
            other.variables, other.cpts, other.order
        )

    @cached_property
    def _validity(self) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
        # (problems, order), computed once: parse_network, check_network
        # and order all read this.
        return _problems_and_order(self)

    @property
    def order(self) -> tuple[str, ...] | None:
        return self._validity[1]

    @cached_property
    def _plan(self) -> _FactorPlan:
        # Built from Cpt.rows alone, on first use; callers run
        # check_network first, so every name is unique, every CPT and
        # parent resolves and every row has the shape the plan reads.
        position = {v.name: q for q, v in enumerate(self.variables)}
        cards = tuple(v.cardinality for v in self.variables)
        factors = []
        for v in self.variables:
            cpt = self._cpt_map[v.name]
            weighted = []
            stride = 1
            for parent in reversed(cpt.parents):
                q = position[parent]
                weighted.append((q, stride))
                stride *= cards[q]
            factors.append((position[v.name], tuple(reversed(weighted)), cpt.rows))
        # Factor i is variable i's own, so it reads variable i at the latest.
        first_read = list(range(len(factors)))
        for i, (_, parents, _) in enumerate(factors):
            for q, _ in parents:
                first_read[q] = min(first_read[q], i)
        return _FactorPlan(position, cards, tuple(factors), tuple(first_read))

    def var(self, name: str) -> Variable:
        try:
            return self._var_map[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def cpt(self, name: str) -> Cpt:
        try:
            return self._cpt_map[name]
        except KeyError:
            raise ModelError(f"no cpt for variable {name!r}") from None

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


def _check_real(x: object, what: str) -> None:
    """ModelError unless x is a real number a float holds: a bool is not
    one, although Python counts it as an int."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ModelError(f"{what} must be a number, got {x!r}")
    try:
        float(x)
    except OverflowError:
        raise ModelError(f"{what} must be a finite value, got a number too large for a float") from None


def check_threshold(threshold: float) -> float:
    """The threshold as a float; ModelError unless it is a real number
    (``_check_real``: no bool and no string) that is finite and >= 0."""
    _check_real(threshold, "threshold")
    threshold = float(threshold)
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ModelError(f"threshold must be a finite value >= 0, got {threshold}")
    return threshold


def names_tuple(names: Iterable[str]) -> tuple[str, ...]:
    """The names as a tuple; ModelError for a bare string, which would
    otherwise be read as one name per character."""
    if isinstance(names, str):
        raise ModelError(f"expected a collection of names, got the string {names!r}")
    return tuple(names)


def positive_index(class_var: str, values: Sequence[str], label: str | None) -> int:
    """The index of the positive label in the class's value order: the
    second value when no label is given."""
    if label is None:
        return 1
    if label not in values:
        raise ModelError(f"positive label {label!r} is not a value of {class_var!r}")
    return values.index(label)


@dataclass(frozen=True)
class Classifier:
    """A binary threshold classifier over a subset of network variables.

    ``positive_value`` is the index into the class variable's value tuple
    that is treated as the positive label.  ``threshold`` is normally in
    [0, 1]; values above 1 are admitted because an all-negative operating
    point is represented by any threshold exceeding every attainable
    posterior.
    """

    class_var: str
    positive_value: int
    features: tuple[str, ...]
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", names_tuple(self.features))
        if len(set(self.features)) != len(self.features):
            raise ModelError("classifier features contain duplicates")
        if self.class_var in self.features:
            raise ModelError("class variable cannot be a feature")
        object.__setattr__(self, "threshold", check_threshold(self.threshold))
        # An int index, as check_assignment takes one: True == 1, but a
        # bool is no index.
        value = self.positive_value
        if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
            raise ModelError(f"positive_value must be 0 or 1 for a binary class, got {value!r}")


@dataclass(frozen=True)
class CostModel:
    """Per-feature acquisition costs and a total budget."""

    costs: Mapping[str, float]
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", dict(self.costs))
        for name, c in self.costs.items():
            _check_real(c, f"cost of {name!r}")
            if not math.isfinite(c) or c <= 0.0:
                raise ModelError(f"cost of {name!r} must be a finite value > 0, got {c}")
        _check_real(self.budget, "budget")
        object.__setattr__(self, "budget", float(self.budget))
        if not math.isfinite(self.budget) or self.budget < 0.0:
            raise ModelError(f"budget must be a finite value >= 0, got {self.budget}")

    def cost_of(self, name: str) -> float:
        try:
            return self.costs[name]
        except KeyError:
            raise ModelError(f"no cost given for feature {name!r}") from None

    def check_features(self, features: Sequence[str]) -> None:
        """ModelError unless the costs name exactly the features."""
        for f in features:
            self.cost_of(f)
        extra = self.costs.keys() - set(features)
        if extra:
            raise ModelError(f"costs name non-features: {sorted(extra)}")

    def total(self, names: Iterable[str]) -> float:
        """The correctly rounded total of the named costs.  ``fsum``
        raises when a partial sum overflows; as every cost is positive,
        the total is then past the largest float too, and rounds to
        ``math.inf``."""
        try:
            return math.fsum(self.cost_of(n) for n in names)
        except OverflowError:
            return math.inf

    def fits(self, names: Iterable[str]) -> bool:
        """Whether the named features fit the budget together.  The one
        feasibility rule: the correctly rounded total, never a running
        remainder, whose rounding errors pile up on fractional costs.  A
        total past the largest float, ``math.inf``, exceeds every finite
        budget."""
        return self.total(names) <= self.budget

    @classmethod
    def unit(cls, features: Iterable[str], budget: float) -> "CostModel":
        return cls({f: 1.0 for f in features}, budget)


def check_network(net: BayesianNetwork) -> None:
    """Raise ModelError exactly when :func:`validate_network` reports a
    problem, naming the first three."""
    problems = net._validity[0]
    if problems:
        raise ModelError("network is not valid: " + "; ".join(problems[:3]))


def check_classifier(net: BayesianNetwork, clf: Classifier) -> None:
    """Raise ModelError unless the classifier is well formed over the network."""
    check_network(net)
    cvar = net.var(clf.class_var)
    if cvar.cardinality != 2:
        raise ModelError(
            f"class variable {clf.class_var!r} must be binary, "
            f"has {cvar.cardinality} values"
        )
    for f in clf.features:
        net.var(f)


def check_assignment(net: BayesianNetwork, a: Mapping[str, int]) -> None:
    """Raise ModelError unless every entry of the assignment names a
    variable of the network and one of its value indices, an int: a
    bool is not an index, as ``CostModel`` takes no bool as a number.
    The network must be one :func:`check_network` accepts; both exact
    routes read assignments through this one check."""
    plan = net._plan
    for name, idx in a.items():
        q = plan.position.get(name)
        if q is None:
            raise ModelError(f"unknown variable {name!r}")
        if isinstance(idx, bool) or not isinstance(idx, int) or not (0 <= idx < plan.cards[q]):
            raise ModelError(f"value index {idx!r} out of range for {name!r}")


def check_trimming(net: BayesianNetwork, alpha: Classifier, beta: Classifier) -> tuple[str, ...]:
    """Beta's features in alpha's order; ModelError unless beta is a trimming
    of alpha: its class variable and positive value over alpha's features."""
    check_classifier(net, alpha)
    if beta.class_var != alpha.class_var or beta.positive_value != alpha.positive_value:
        raise ModelError("trimmed classifier must keep the class variable and positive value")
    return kept_in_order(alpha, beta.features)


def kept_in_order(clf: Classifier, kept: Iterable[str]) -> tuple[str, ...]:
    """The names in classifier feature order; the one reading of feature
    names, raising ModelError when one is not a feature or is given twice."""
    names = names_tuple(kept)
    kept_set = set(names)
    extra = kept_set.difference(clf.features)
    if extra:
        raise ModelError(f"kept set names non-features: {sorted(extra)}")
    if len(kept_set) != len(names):
        twice = next(n for i, n in enumerate(names) if n in names[:i])
        raise ModelError(f"kept set names {twice!r} twice")
    return tuple(f for f in clf.features if f in kept_set)


def validate_network(net: BayesianNetwork) -> list[str]:
    """The network's violation messages, as a fresh list; empty means valid.

    Checks: field types (string names and children, tuples of string
    labels and parents, a nonempty tuple of rows of floats), empty or
    duplicate names, variables with fewer than two or repeated value
    labels, missing or duplicate CPTs, dangling references, repeated
    parents, wrong row counts, row arity, entries outside [0, 1], row
    sums != 1, and, only when all of those pass, cycles; no check reads a
    field of the wrong type.  Computed once per network and shared with
    :func:`check_network` and ``BayesianNetwork.order``.
    """
    return list(net._validity[0])


def _strings(x: object) -> bool:
    """Whether x is a tuple of strings: a type-exact test first, then the
    general one, which admits subclasses."""
    return (type(x) is tuple and {str}.issuperset(map(type, x))) or (
        isinstance(x, tuple) and all(isinstance(s, str) for s in x)
    )


def _problems_and_order(
    net: BayesianNetwork,
) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    """validate_network's problems, and the topological order (declaration
    order breaking ties) when there are none.

    One walk applies every check, in one fixed message order.  A clean
    network pays for type-exact tests (``type(x) is str``, ``float``,
    ``tuple``), one ``fsum`` per row and the topological sort: a name
    that is no ``str`` alone is tested for hashability, the general
    ``isinstance`` tests run only where a type-exact one fails, and the
    dangling and repeated parent lists, a row's out-of-range entries and
    every message are built only for a field that fails its test."""
    problems: list[str] = []
    names = [v.name for v in net.variables]
    # Each name's cardinality (its first declaration's), None for bad labels.
    cards: dict[str, int | None] = {}
    for v in net.variables:
        name, values = v.name, v.values
        named = type(name) is str
        keyed = named or _hashable(name)
        if keyed and name in cards:
            problems.append(f"duplicate variable name {name!r}")
        if not (named or isinstance(name, str)):
            problems.append(f"variable {name!r} needs a string 'name'")
        elif not name:
            problems.append("variable name must be nonempty")
        typed = _strings(values)
        if keyed:
            cards.setdefault(name, len(values) if typed else None)
        if not typed:
            problems.append(f"variable {name!r} needs a list of string 'values'")
        elif len(values) < 2:
            problems.append(f"variable {name!r} needs at least 2 values")
        elif len(set(values)) != len(values):
            problems.append(f"variable {name!r} has duplicate value labels")
    cseen: set[str] = set()
    for c in net.cpts:
        child = c.child
        named = type(child) is str
        if not (named or isinstance(child, str)):
            problems.append(f"cpd {child!r} needs a string 'child'")
        if not (named or _hashable(child)):
            continue
        if child in cseen:
            problems.append(f"duplicate cpt for {child!r}")
        cseen.add(child)
    if not cards.keys() <= cseen:  # cards holds every hashable name
        problems.extend(
            f"variable {n!r} has no cpt"
            for n in names
            if (type(n) is str or _hashable(n)) and n not in cseen
        )

    for c in net.cpts:
        child, parents, rows = c.child, c.parents, c.rows
        typed = _strings(parents)
        if not typed:
            problems.append(f"cpd {child!r} needs a list of string 'parents'")
        if not (type(rows) is tuple or isinstance(rows, tuple)):
            rows = ()
        if not rows:
            problems.append(f"cpd {child!r} needs a nonempty 'rows' array")
        # Cpt keeps as given an entry that is no number or an int no float holds.
        floats = {tuple}.issuperset(map(type, rows)) and {float}.issuperset(
            map(type, chain.from_iterable(rows))
        )
        if not floats:
            # Which rows hold floats alone, as a list: only they are read below.
            floats = [isinstance(row, tuple) and {float}.issuperset(map(type, row)) for row in rows]
            kinds = [set(map(type, row)) if isinstance(row, tuple) else {None} for row in rows]
            for j, kind in enumerate(kinds):
                if kind - {float, int}:
                    problems.append(f"cpd {child!r} row {j} must be a list of numbers")
            if any(int in kind and kind <= {float, int} for kind in kinds):
                problems.append(f"cpd {child!r} has an integer too large for a float")
        if not (type(child) is str or _hashable(child)):
            continue
        if child not in cards:
            problems.append(f"cpt references unknown child {child!r}")
            continue
        if not typed or not rows:
            continue
        if not all(map(cards.__contains__, parents)):
            problems.extend(
                f"cpt {child!r} references unknown parent {p!r}" for p in parents if p not in cards
            )
            continue
        if len(set(parents)) != len(parents):
            repeated = dict.fromkeys(p for i, p in enumerate(parents) if p in parents[:i])
            problems.extend(f"cpt {child!r} lists parent {p!r} twice" for p in repeated)
            continue
        parent_cards = list(map(cards.__getitem__, parents))
        expect_rows = None if None in parent_cards else math.prod(parent_cards)
        if expect_rows is not None and len(rows) != expect_rows:
            problems.append(
                f"cpt {child!r}: expected {expect_rows} rows, found {len(rows)}"
            )
            continue
        card = cards[child]
        for i, row in enumerate(rows):
            if floats is not True and not floats[i]:
                continue
            # A clean row of floats: of the child's arity, nonempty, every
            # entry in [0, 1] (min and max pass NaN only after another
            # entry, and then the sum is NaN) and a sum within tolerance.
            if (
                len(row) == card and card
                and min(row) >= 0.0 and max(row) <= 1.0
                and abs(math.fsum(row) - 1.0) <= ROW_SUM_TOL
            ):
                continue
            if card is not None and len(row) != card:
                problems.append(
                    f"cpt {child!r} row {i}: expected {card} entries, found {len(row)}"
                )
                continue
            bad = [x for x in row if not (0.0 <= x <= 1.0) or not math.isfinite(x)]
            if bad:
                problems.append(
                    f"cpt {child!r} row {i}: entry {bad[0]!r} outside [0, 1]"
                )
                continue
            s = math.fsum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                problems.append(f"cpt {child!r} row {i}: row sum {s:.10g} != 1")

    if problems:
        return tuple(problems), None

    # Kahn's algorithm, on a network whose names, CPTs and parents all
    # resolve; ties go to declaration order so the result is deterministic.
    children: dict[str, list[str]] = {n: [] for n in names}
    for c in net.cpts:
        for p in c.parents:
            children[p].append(c.child)
    indeg = {n: len(net._cpt_map[n].parents) for n in names}
    ready = deque(n for n in names if indeg[n] == 0)
    order: list[str] = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for ch in children[n]:
            indeg[ch] -= 1
            if indeg[ch] == 0:
                ready.append(ch)
    if len(order) == len(names):
        return (), tuple(order)
    # Every node Kahn's algorithm left has a parent it left, so walking
    # such parents from one of them revisits a node: a cycle, read
    # backwards.
    walk = [next(n for n in names if indeg[n])]
    while True:
        n = next(p for p in net._cpt_map[walk[-1]].parents if indeg[p])
        if n in walk:
            break
        walk.append(n)
    cycle = [n, *reversed(walk[walk.index(n):])]
    return ("cycle detected: " + " -> ".join(cycle),), None


def cond_independent_given_class(
    net: BayesianNetwork, clf: Classifier, subset: Iterable[str]
) -> bool:
    """True when the subset is independent of the remaining features given
    the class variable, by d-separation in the network DAG."""
    check_classifier(net, clf)
    sub = set(kept_in_order(clf, subset))
    return _separated_given_class(net, clf, {f: f in sub for f in clf.features})


def _separated_given_class(
    net: BayesianNetwork, clf: Classifier, side: Mapping[str, object]
) -> bool:
    """Whether features on different sides (``side`` maps each feature to
    its side) are d-separated given the class, for a classifier
    :func:`check_classifier` accepts: whether no connected component of
    the moralized ancestral graph of the class and the features, less the
    class, holds features of two sides (Lauritzen et al. 1990)."""
    cls = clf.class_var
    # Union-find: the moral graph makes each family (a variable and its
    # parents) a clique, so uniting each family less the class labels the
    # components.  A component with features has one of them as its root.
    up: dict[str, str] = {}
    stack = [cls, *clf.features]
    seen = set(stack)
    while stack:
        n = stack.pop()
        anchor = None if n == cls else n
        for p in net._cpt_map[n].parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
            if p == cls:
                continue
            if anchor is None:
                anchor = p
                continue
            a, b = anchor, p
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            if a == b:
                continue
            if b in side:
                if side.get(a, side[b]) != side[b]:
                    return False
                a, b = b, a
            up[b] = a
    return True
