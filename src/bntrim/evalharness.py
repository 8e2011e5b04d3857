"""Data-driven evaluation: learn a naive Bayes classifier from CSV rows,
score every feasible feature subset, and compare model-level agreement
against held-out behaviour.

The main entry point is :func:`scatter`: split the data, learn a
full-feature classifier on the training part, then for every subset within
the configured absolute budget report its agreement with the full
classifier (``eca`` column) next to its k-fold cross-validated accuracy on
the training part.  The summary evaluates the best-agreement and
best-accuracy subsets on the held-out part.

Also houses the seeded synthetic-data utilities: ancestral sampling from a
network, dataset synthesis, and the empirical agreement estimate used to
sanity-check the exact computation against simulation.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .agreement import InstanceTable, _instance_tables, _sweep_tables, _table_eca
from .bnmodel import (
    BayesianNetwork,
    Classifier,
    CostModel,
    Cpt,
    Variable,
    check_classifier,
    check_network,
    check_threshold,
    check_trimming,
    kept_in_order,
    names_tuple,
    positive_index,
)
from .errors import ModelError, ZeroEvidenceError
from .inference import classify
from .netio import Dataset
from .trimsearch import enumerate_feasible

THRESHOLD_MODES = ("maa-optimal", "fixed")


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for the evaluation harness.

    ``budget`` is the absolute unit-cost budget every scored subset fits;
    it has no default (the CLI resolves ``--budget-frac`` into it).
    ``threshold`` is both the learned classifier's decision threshold and
    the scoring threshold in "fixed" mode.
    """

    budget: float
    split_fraction: float = 0.8
    folds: int = 10
    seed: int = 0
    smoothing: float = 1.0
    threshold: float = 0.5
    threshold_mode: str = "maa-optimal"

    def __post_init__(self) -> None:
        if not 0.0 < self.split_fraction < 1.0:
            raise ModelError(f"split fraction must be in (0,1), got {self.split_fraction}")
        for what, value in (("fold count", self.folds), ("seed", self.seed)):
            # An int, as check_assignment takes one: a bool is none.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ModelError(f"{what} must be an integer, got {value!r}")
        if self.folds < 2:
            raise ModelError(f"fold count must be >= 2, got {self.folds}")
        _check_smoothing(self.smoothing)
        CostModel({}, self.budget)  # checks the budget
        check_threshold(self.threshold)
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ModelError(
                f"unknown threshold mode {self.threshold_mode!r}; choose from {THRESHOLD_MODES}"
            )


@dataclass(frozen=True)
class ScatterRow:
    subset: tuple[str, ...]
    eca: float
    cv_accuracy: float
    marker: str  # "feasible" | "optimal-eca" | "optimal-accuracy" | "optimal-both"


def _encode(
    data: Dataset, columns: Sequence[str],
    domains: Mapping[str, tuple[str, ...]] | None = None,
) -> tuple[dict[str, tuple[str, ...]], dict[str, np.ndarray]]:
    """Each column's vocabulary (its entry of ``domains``, by default its
    sorted distinct labels) and its cells as one ``np.intp`` array of
    indices into it, both in ``columns`` order.  ModelError when
    ``domains`` lacks a column, else for the first column, in the order
    given, with a label outside its vocabulary."""
    if domains is not None and (missing := [c for c in columns if c not in domains]):
        raise ModelError(f"domains missing columns: {missing}")
    vocabularies, codes = {}, {}
    for c in columns:
        cells = data.column_values(c)
        vocabulary = tuple(sorted(set(cells))) if domains is None else tuple(domains[c])
        index = {v: x for x, v in enumerate(vocabulary)}
        column = np.array([index.get(v, -1) for v in cells], dtype=np.intp)
        if (column < 0).any():
            unknown = sorted(set(cells) - index.keys())
            raise ModelError(f"column {c!r} has values outside its domain: {unknown}")
        vocabularies[c], codes[c] = vocabulary, column
    return vocabularies, codes


def _check_smoothing(smoothing: float, card: int = 0) -> None:
    """ModelError unless smoothing is finite and >= 0, and so is every
    denominator ``_smoothed`` takes over columns of at most ``card``
    values, total + smoothing * card.  That sum is finite exactly when
    smoothing * card is: a row count is far below half an ulp of the
    largest float."""
    if not (math.isfinite(smoothing) and smoothing >= 0.0):
        raise ModelError(f"smoothing must be a finite value >= 0, got {smoothing}")
    if not math.isfinite(smoothing * card):
        raise ModelError(
            f"smoothing {smoothing} overflows the estimate's denominator"
            f" total + smoothing * {card}"
        )


def _smoothed(count: int, total: int, card: int, smoothing: float) -> float:
    """The one naive Bayes estimate: (count + smoothing) / (total +
    smoothing * card).  A CPT entry Pr(f=v|c) counts the rows of class c
    with f = v among the rows of class c, over f's card values; the class
    prior counts the rows of a class among all rows, over 2 values."""
    return (count + smoothing) / (total + smoothing * card)


def _positive_value(
    class_column: str, class_domain: tuple[str, ...], positive_label: str | None
) -> int:
    """The index of the positive label in a binary class domain: the later
    value in sorted order by default."""
    if len(class_domain) != 2:
        raise ModelError(
            f"class column {class_column!r} must be binary, has values {list(class_domain)}"
        )
    return positive_index(class_column, class_domain, positive_label)


def _prior(class_count: Sequence[int], smoothing: float) -> tuple[float, ...]:
    """The smoothed class prior from the row count of each class value."""
    if smoothing == 0.0 and min(class_count) == 0:
        raise ModelError("a class value never occurs and smoothing is 0")
    n = sum(class_count)
    return tuple(_smoothed(k, n, len(class_count), smoothing) for k in class_count)


def _nb_classifier(
    class_column: str,
    features: Sequence[str],
    domains: Mapping[str, tuple[str, ...]],
    positive_value: int,
    threshold: float,
) -> tuple[list[Variable], Classifier]:
    """The variables and the classifier of a naive Bayes model; raises
    ModelError for a column with fewer than two values, repeated features
    or a bad threshold."""
    for f in features:
        if len(domains[f]) == 1:
            raise ModelError(f"column {f!r} has one value {domains[f][0]!r}; a feature needs two")
    variables = [Variable(c, tuple(domains[c])) for c in (class_column, *features)]
    return variables, Classifier(class_column, positive_value, tuple(features), threshold)


def learn_nb(
    data: Dataset,
    smoothing: float = 1.0,
    domains: Mapping[str, tuple[str, ...]] | None = None,
    positive_label: str | None = None,
    threshold: float = 0.5,
) -> tuple[BayesianNetwork, Classifier]:
    """Estimate a naive Bayes classifier of the dataset's class column.

    Every CPT cell gets additive smoothing: Pr(f=v|c) is
    (count + smoothing) / (class count + smoothing * domain size), and the
    class prior is smoothed the same way; smoothing must be finite and
    >= 0, and keep every denominator finite.  ``domains`` fixes each
    column's value vocabulary (needed when a subsample may miss values);
    by default the vocabularies are the sorted distinct values in the
    data.  The positive label defaults to the later class value in sorted
    order.
    """
    if not data.rows:
        raise ModelError("cannot learn from an empty dataset")
    _check_smoothing(smoothing)
    columns = [data.class_column] + [c for c in data.columns if c != data.class_column]
    domains, codes = _encode(data, columns, domains)
    return _learn_codes(codes, domains, data.class_column, smoothing, positive_label, threshold)


def _learn_codes(
    codes: Mapping[str, np.ndarray], domains: Mapping[str, tuple[str, ...]], class_column: str,
    smoothing: float, positive_label: str | None, threshold: float,
) -> tuple[BayesianNetwork, Classifier]:
    """``learn_nb`` from ``_encode``'s vocabularies and codes of the
    class column and every feature, the features in ``codes`` order."""
    class_domain = domains[class_column]
    positive_value = _positive_value(class_column, class_domain, positive_label)

    _check_smoothing(smoothing, max(len(domains[c]) for c in codes))
    class_codes = codes[class_column]
    class_count = np.bincount(class_codes, minlength=len(class_domain)).tolist()
    prior = _prior(class_count, smoothing)
    features = [c for c in codes if c != class_column]
    variables, clf = _nb_classifier(class_column, features, domains, positive_value, threshold)
    cpts = [Cpt(class_column, (), (prior,))]
    for f in features:
        card = len(domains[f])
        # The (class, value) pair counts, as exact ints.
        counts = np.bincount(class_codes * card + codes[f], minlength=len(class_count) * card)
        rows = tuple(
            tuple(_smoothed(k, total, card, smoothing) for k in row)
            for row, total in zip(counts.reshape(-1, card).tolist(), class_count)
        )
        cpts.append(Cpt(f, (class_column,), rows))
    net = BayesianNetwork(tuple(variables), tuple(cpts))
    check_classifier(net, clf)
    return net, clf


def _posteriors(
    net: BayesianNetwork, table: InstanceTable, codes: Mapping[str, np.ndarray]
) -> list[float]:
    """The posterior of every data row given its ``_encode`` codes of the
    table's features, the number classify compares with a threshold.
    Each data row reads the posterior of the instance table row at its
    C-order index over the table's features, which are in classifier
    order.  A learned classifier covers every non-class variable, so the
    posteriors have posterior_class's bits; a row whose index the table
    lacks has probability 0."""
    kept = table.features
    cards = [net.var(f).cardinality for f in kept]
    lookup = np.full(math.prod(cards), np.nan)  # no posterior is NaN
    lookup[table.rows] = table.posterior
    key = np.zeros(len(next(iter(codes.values()))), dtype=np.intp)
    for f, card in zip(kept, cards):
        key = key * card + codes[f]
    out = lookup[key]
    missing = np.isnan(out).nonzero()[0]
    if len(missing):
        i = missing[0]
        evidence = {f: int(codes[f][i]) for f in kept}
        raise ZeroEvidenceError(f"evidence {evidence!r} has probability 0")
    return out.tolist()


def _deal_folds(class_codes: Sequence[int], class_card: int, folds: int, seed: int) -> list[int]:
    """Each row's fold: the rows of each class value, in domain order, are
    shuffled with the seeded RNG and dealt round-robin, the deal
    continuing across classes, so every fold is nonempty whenever
    folds <= rows."""
    rng = random.Random(seed)
    by_class: list[list[int]] = [[] for _ in range(class_card)]
    for i, c in enumerate(class_codes):
        by_class[c].append(i)
    fold_of = [0] * len(class_codes)
    cursor = 0
    for group in by_class:
        rng.shuffle(group)
        for i in group:
            fold_of[i] = cursor % folds
            cursor += 1
    return fold_of


def _fold_scorer(
    codes: Mapping[str, np.ndarray], class_column: str, folds: int, seed: int,
    domains: Mapping[str, tuple[str, ...]],
) -> Callable[[Sequence[Sequence[str]], float, str | None, float], list[float]]:
    """Stratified k-fold cross-validation of naive Bayes classifiers, over
    feature subsets of one dataset, from count tables.

    Naive Bayes is fully determined by its class and (class, feature
    value) counts, so the folds are dealt and the rows counted once, here:
    one ``np.bincount`` per column over (fold, class, value) keys, and a
    fold's training counts are the totals minus the fold's own.  The
    returned ``accuracy(subsets, smoothing, positive_label, threshold)``
    scores every subset at once and returns one score per subset.  Per
    feature, each row's CPT entry per class is estimated by ``_smoothed``
    from the training counts of the row's fold, as one (class, row)
    array, and multiplied into the class terms of every subset that keeps
    the feature, in data-column order, the order in which the scalar
    route multiplies a network's CPTs; so each score has the bits of
    ``learn_nb`` and ``posterior_class`` run per fold on its training
    rows.  The first error is the one scoring the subsets one at a time
    would raise: subsets in order, within a subset first its names, read
    as ``kept_in_order`` reads them, then the smoothing and classifier
    checks over its columns, then fold by fold the class-prior check
    before the fold's first zero-evidence row.  ``codes`` and ``domains``
    are ``_encode``'s of every column, in data-column order.
    """
    n = len(codes[class_column])
    if folds < 2:
        raise ModelError(f"fold count must be >= 2, got {folds}")
    if folds > n:
        raise ModelError(f"{folds} folds need at least {folds} rows, have {n}")
    features = [c for c in codes if c != class_column]
    class_card = len(domains[class_column])
    fold_of = np.array(_deal_folds(codes[class_column].tolist(), class_card, folds, seed))
    # Rows from here on go fold by fold, each fold's in data order.
    order = fold_of.argsort(kind="stable")
    fold_of = fold_of[order]
    codes = {c: column[order] for c, column in codes.items()}
    class_codes = codes[class_column]
    starts = np.searchsorted(fold_of, np.arange(folds))
    sizes = np.bincount(fold_of, minlength=folds)

    def training(keys: np.ndarray, card: int) -> np.ndarray:
        # (fold, class, key) row counts outside each fold, as exact ints.
        own = np.bincount(
            (fold_of * class_card + class_codes) * card + keys, minlength=folds * class_card * card
        ).reshape(folds, class_card, card)
        return own.sum(axis=0) - own

    train_class = training(np.zeros(n, dtype=int), 1)[:, :, 0]
    # Per feature, each row's training counts of its value by class, and
    # each row's training class counts: (class, row) arrays.
    row_counts = np.array(
        [training(codes[f], len(domains[f]))[fold_of, :, codes[f]].T for f in features], dtype=int
    ).reshape(len(features), class_card, n)
    row_class = train_class[fold_of].T
    # Each subset's names are read against the data's features as
    # kept_in_order reads a classifier's; nothing else of it is read.
    every = Classifier(class_column, 1, tuple(features), 0.5)
    cards = np.array([len(domains[f]) for f in features]).reshape(-1, 1, 1)

    def accuracy(
        subsets: Sequence[Sequence[str]], smoothing: float, positive_label: str | None,
        threshold: float,
    ) -> list[float]:
        # The feature order, the checks and the arithmetic are those of
        # learn_nb and posterior_class on each fold's training rows
        # restricted to each subset.
        if not subsets:
            return []
        _check_smoothing(smoothing)
        positive = _positive_value(class_column, domains[class_column], positive_label)
        # learn_nb checks the first fold's class column before the others.
        _check_smoothing(smoothing, class_card)
        _prior(train_class[0].tolist(), smoothing)
        # A name of no feature chooses nothing here; the loop below
        # rejects it at its subset's turn.
        chosen = np.array([[f in keep for f in features] for keep in map(set, subsets)], dtype=bool)
        # The first fold whose class prior _prior refuses, else folds.
        refused = (train_class.min(axis=1) == 0) & (smoothing == 0.0)
        no_prior = int(refused.argmax()) if refused.any() else folds
        # Folds from no_prior on divide by zero, and a feature whose
        # denominators overflow is refused at the first subset keeping it:
        # neither is ever scored.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            prior = _smoothed(
                train_class, train_class.sum(axis=1, keepdims=True), class_card, smoothing
            )
            cpt = _smoothed(row_counts, row_class, cards, smoothing)
            # Each subset's class terms per row: the prior times its
            # features' CPT entries in data-column order.
            terms = np.empty((len(subsets), 2, n))
            terms[...] = prior[fold_of].T
            for j in range(len(features)):
                terms[chosen[:, j]] *= cpt[j]
            # One rounding, as posterior_class's fsum of the two terms.
            mass = terms[:, 0] + terms[:, 1]
            posterior = terms[:, positive] / mass
        zero = mass == 0.0
        first_zero = zero.argmax(axis=1).tolist()
        for subset, row, has_zero in zip(subsets, first_zero, zero.any(axis=1).tolist()):
            names = kept_in_order(every, subset)
            _check_smoothing(smoothing, max([class_card, *(len(domains[f]) for f in names)]))
            _, clf = _nb_classifier(class_column, names, domains, positive, threshold)
            fold = int(fold_of[row]) if has_zero else folds
            if no_prior <= fold and no_prior < folds:
                _prior(train_class[no_prior].tolist(), smoothing)
            if fold < folds:
                evidence = {f: int(codes[f][row]) for f in names}
                raise ZeroEvidenceError(f"evidence {evidence!r} has probability 0")
        hits = (posterior >= clf.threshold) == (class_codes == positive)
        per_fold = np.add.reduceat(hits, starts, axis=1, dtype=int) / sizes
        return [math.fsum(fold_accuracies) / folds for fold_accuracies in per_fold.tolist()]

    return accuracy


def cv_accuracy(
    data: Dataset,
    subset: Iterable[str],
    folds: int,
    seed: int,
    smoothing: float = 1.0,
    positive_label: str | None = None,
    threshold: float = 0.5,
) -> float:
    """Mean stratified k-fold accuracy of a naive Bayes classifier over
    the given feature subset.

    Folds are formed by shuffling each class's rows with the seeded RNG
    and dealing rows round-robin, the deal continuing across class groups
    so every fold is nonempty whenever folds <= rows.  Each fold's
    classifier is the one ``learn_nb`` would learn from the remaining
    rows restricted to the subset, with value vocabularies taken from the
    full data, and it labels a test row by its exact posterior, as
    ``posterior_class`` computes it.  Both are computed from count tables
    (``_fold_scorer``, called with this one subset): the folds are dealt
    once, the rows counted once per (fold, class) and (fold, feature,
    class, value), and a fold's training counts are the totals minus its
    own, so no model is built and no data copied; the scores have the
    same bits.
    """
    domains, codes = _encode(data, data.columns)
    accuracy = _fold_scorer(codes, data.class_column, folds, seed, domains)
    return accuracy([names_tuple(subset)], smoothing, positive_label, threshold)[0]


def scatter(
    data: Dataset,
    config: EvalConfig,
    positive_label: str | None = None,
) -> tuple[list[ScatterRow], dict]:
    """Agreement-vs-accuracy sweep over every feature subset whose size
    (unit costs) fits ``config.budget``.

    The data is split by a seeded permutation into training and held-out
    parts.  A full-feature classifier is learned on the training part;
    each feasible subset is scored by (a) its agreement with the full
    classifier — at the subset's best-agreement threshold by default, or
    at the fixed base threshold in "fixed" mode — and (b) its
    cross-validated accuracy on the training part at the base threshold.
    The whole dataset is encoded once (``_encode``): the model is learned
    from the training part's codes with the whole data's vocabularies
    (``_learn_codes``, ``learn_nb``'s learner), and one ``_fold_scorer``
    call over the same codes cross-validates every subset at once.

    The summary reports, for the best-agreement and best-accuracy subsets,
    the fraction of held-out rows where the trimmed classifier matches the
    full classifier's label (at the subset's scoring threshold) and the
    fraction where it matches the actual label (at the base threshold).
    Every subset's instance table and the full feature set's are built
    in one batch (``_instance_tables``).  In the default mode one stacked
    sweep (``_sweep_tables``) scores every subset; in "fixed" mode each
    agreement is ``eca``'s sum over the subset's table.  Each held-out
    row's posteriors are read from those tables by its codes' index over
    the kept features (``_posteriors``), so no table is built twice.
    """
    n = len(data.rows)
    if n < 2:
        raise ModelError("scatter needs at least 2 rows")
    base_threshold = config.threshold
    domains, codes = _encode(data, data.columns)

    rng = random.Random(config.seed)
    perm = list(range(n))
    rng.shuffle(perm)
    train_n = min(max(round(config.split_fraction * n), 1), n - 1)
    train_codes = {c: column[perm[:train_n]] for c, column in codes.items()}
    test_codes = {c: column[perm[train_n:]] for c, column in codes.items()}

    net, clf_full = _learn_codes(
        train_codes, domains, data.class_column, config.smoothing, positive_label, base_threshold
    )
    subsets = enumerate_feasible(clf_full, CostModel.unit(clf_full.features, config.budget))

    # One batch builds every subset's instance table and the full
    # feature set's, which the held-out rows read; the full set's is a
    # subset's when the budget covers every feature.  Building fails
    # only on the full joint, which every table shares, so building
    # first leaves the first error where it was.
    kept_sets = list(subsets)
    if clf_full.features not in kept_sets:
        kept_sets.append(clf_full.features)
    tables = _instance_tables(net, clf_full, kept_sets)
    full_table = tables[kept_sets.index(clf_full.features)]
    scored = tables[:len(subsets)]
    # Each subset's agreement with the full classifier and its scoring
    # threshold.
    if config.threshold_mode == "maa-optimal":
        agreements = [(r.score, r.interval.representative) for r in _sweep_tables(scored)]
    else:
        agreements = [(_table_eca(t, base_threshold), base_threshold) for t in scored]
    accuracies = _fold_scorer(train_codes, data.class_column, config.folds, config.seed, domains)(
        subsets, config.smoothing, positive_label, base_threshold
    )

    best_eca = max(range(len(subsets)), key=lambda i: agreements[i][0])
    best_acc = max(range(len(subsets)), key=accuracies.__getitem__)
    rows = []
    for i, (subset, (agreement, _), accuracy) in enumerate(zip(subsets, agreements, accuracies)):
        if i == best_eca and i == best_acc:
            marker = "optimal-both"
        elif i == best_eca:
            marker = "optimal-eca"
        elif i == best_acc:
            marker = "optimal-accuracy"
        else:
            marker = "feasible"
        rows.append(ScatterRow(subset, agreement, accuracy, marker))

    full_labels = [p >= clf_full.threshold for p in _posteriors(net, full_table, test_codes)]
    actual_labels = (test_codes[data.class_column] == clf_full.positive_value).tolist()

    def held_out(i: int) -> dict:
        subset, (_, subset_threshold) = subsets[i], agreements[i]
        posteriors = _posteriors(net, tables[i], test_codes)
        agree = sum((p >= subset_threshold) == full for p, full in zip(posteriors, full_labels))
        hits = sum((p >= base_threshold) == actual for p, actual in zip(posteriors, actual_labels))
        return {
            "subset": list(subset),
            "test_agreement": agree / len(full_labels),
            "test_accuracy": hits / len(full_labels),
        }

    summary = {
        "optimal_eca": held_out(best_eca),
        "optimal_accuracy": held_out(best_acc),
    }
    return rows, summary


def write_scatter_csv(rows: Iterable[ScatterRow]) -> bytes:
    """CSV rendering of scatter rows: subsets ';'-joined (quoted where a name
    needs it), floats with 12 significant digits, LF line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(ScatterRow))
    writer.writerows(
        (";".join(r.subset), format(r.eca, ".12g"), format(r.cv_accuracy, ".12g"), r.marker)
        for r in rows
    )
    return out.getvalue().encode("utf-8")


def sample_rows(net: BayesianNetwork, count: int, seed: int) -> list[dict[str, int]]:
    """Ancestral sampling: draw full assignments in topological order,
    reading each variable's CPT row through the network's factor plan."""
    check_network(net)
    if count < 0:
        raise ModelError(f"sample count must be >= 0, got {count}")
    plan = net._plan
    steps = [(name, plan.factors[plan.position[name]]) for name in net.order]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = [0] * len(plan.cards)
        a: dict[str, int] = {}
        for name, (child, parents, rows) in steps:
            probs = rows[sum(values[q] * stride for q, stride in parents)]
            u = rng.random()
            acc = 0.0
            for value, p in enumerate(probs):
                acc += p
                if u < acc:
                    break
            else:
                # u fell in the gap a row summing just below 1 leaves:
                # take the last value that can occur.
                value = max(i for i, p in enumerate(probs) if p > 0.0)
            values[child] = a[name] = value
        out.append(a)
    return out


def synthesize_dataset(
    net: BayesianNetwork, class_column: str, count: int, seed: int
) -> Dataset:
    """A dataset of ancestral samples, with variable values written as
    their declared labels and columns in network declaration order."""
    names = [v.name for v in net.variables]
    rows = tuple(
        tuple(net.var(name).values[a[name]] for name in names)
        for a in sample_rows(net, count, seed)
    )
    return Dataset(tuple(names), rows, class_column)


def empirical_agreement(
    net: BayesianNetwork,
    alpha: Classifier,
    beta: Classifier,
    count: int,
    seed: int,
) -> float:
    """Monte-Carlo estimate of agreement: the fraction of sampled
    instances both classifiers label identically."""
    kept = check_trimming(net, alpha, beta)
    if count < 1:
        raise ModelError(f"sample count must be >= 1, got {count}")
    cache: dict[tuple[int, ...], bool] = {}
    agree = 0
    for a in sample_rows(net, count, seed):
        key = tuple(a[f] for f in alpha.features)
        hit = cache.get(key)
        if hit is None:
            full = dict(zip(alpha.features, key))
            hit = classify(net, alpha, full) == classify(net, beta, {f: a[f] for f in kept})
            cache[key] = hit
        agree += hit
    return agree / count
