"""Dataset-driven evaluation: naive-Bayes learning, feasible-subset
enumeration, cross-validation, the agreement/accuracy scatter, and model
sampling."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    BntrimError,
    Classifier,
    CostModel,
    Cpt,
    Dataset,
    EnumerationLimitError,
    EvalConfig,
    ModelError,
    Variable,
    ZeroEvidenceError,
    build_instance_table,
    classify,
    cv_accuracy,
    eca,
    empirical_agreement,
    enumerate_feasible,
    learn_nb,
    maa,
    marginal,
    posterior_class,
    sample_rows,
    scatter,
    serialize_network,
    synthesize_dataset,
    validate_network,
    write_scatter_csv,
)

from bntrim import agreement, evalharness, inference, netio
from bntrim.bnmodel import kept_in_order
from bntrim.evalharness import THRESHOLD_MODES, _encode, _posteriors
from conftest import load_network, nb_instance


def noisy_dataset(rows: int = 80, seed: int = 5) -> Dataset:
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        c = rng.random() < 0.45
        a = "x" if rng.random() < (0.8 if c else 0.25) else "y"
        b = "u" if rng.random() < (0.65 if c else 0.4) else "v"
        out.append(("pos" if c else "neg", a, b))
    return Dataset(("label", "A", "B"), tuple(out), "label")


def or_dataset(rows: int = 150, seed: int = 17) -> Dataset:
    """Label is a noisy OR of the two features, so the learned classifier's
    decision genuinely depends on both and no single feature can mimic it
    perfectly."""
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        a = "x" if rng.random() < 0.5 else "y"
        b = "u" if rng.random() < 0.5 else "v"
        c = (a == "x" or b == "u") != (rng.random() < 0.05)
        out.append(("pos" if c else "neg", a, b))
    return Dataset(("label", "A", "B"), tuple(out), "label")


def rare_value_dataset() -> Dataset:
    """Feature F takes "c" in one row only, so a model learned without
    that row and without smoothing gives F = "c" probability 0."""
    rows = tuple(("pos" if i % 2 else "neg", "ab"[i // 2 % 2]) for i in range(19))
    return Dataset(("C", "F"), rows + (("pos", "c"),), "C")


# scatter's seeded split puts the "c" row of rare_value_dataset() in the
# held-out part at this seed.
RARE_HELD_OUT_SEED = 5


def sampled_dataset(seed: int) -> Dataset:
    """30 rows sampled from a naive Bayes model of three features of two
    or three values, with the class column moved to the middle."""
    net, _ = nb_instance(random.Random(seed), 3, max_card=3)
    data = synthesize_dataset(net, "C", 30, seed)
    order = (1, 2, 0, 3)
    return Dataset(
        tuple(data.columns[i] for i in order), tuple(tuple(r[i] for i in order) for r in data.rows),
        "C",
    )


def held_out_reference(data: Dataset, config: EvalConfig, subset) -> dict:
    """One scatter summary entry, recomputed from the documented split with
    two classify calls per held-out row, on copies of the full classifier
    restricted to the subset at its scoring and its base threshold."""
    n = len(data.rows)
    rng = random.Random(config.seed)
    perm = list(range(n))
    rng.shuffle(perm)
    train_n = min(max(round(config.split_fraction * n), 1), n - 1)
    train, test = data.take(perm[:train_n]), data.take(perm[train_n:])
    domains = {c: tuple(sorted(set(data.column_values(c)))) for c in data.columns}
    net, clf = learn_nb(
        train, smoothing=config.smoothing, domains=domains, threshold=config.threshold
    )
    subset = tuple(subset)
    if config.threshold_mode == "maa-optimal":
        subset_threshold = maa(net, clf, subset).interval.representative
    else:
        subset_threshold = config.threshold
    scoring = replace(clf, features=subset, threshold=subset_threshold)
    accuracy = replace(clf, features=subset, threshold=config.threshold)
    agree = hits = 0
    for row in test.rows:
        values = {c: domains[c].index(v) for c, v in zip(test.columns, row)}
        full = {f: values[f] for f in clf.features}
        kept = {f: values[f] for f in subset}
        actual = values[test.class_column] == clf.positive_value
        agree += classify(net, scoring, kept) == classify(net, clf, full)
        hits += classify(net, accuracy, kept) == actual
    return {
        "subset": list(subset),
        "test_agreement": agree / len(test.rows),
        "test_accuracy": hits / len(test.rows),
    }


class TestLearnNb:
    def test_laplace_smoothed_estimates(self):
        data = Dataset(
            ("L", "F"), (("c", "+"), ("c", "+"), ("d", "-"), ("d", "+")), "L"
        )
        net, clf = learn_nb(data)
        # Pr(F=+|c) = (2+1)/(2+2); class prior (2+1)/(4+2)
        assert net.cpt("F").rows[0][0] == 0.75
        assert net.cpt("L").rows[0] == (0.5, 0.5)
        assert clf.class_var == "L"
        assert clf.features == ("F",)
        assert clf.threshold == 0.5
        # Positive label defaults to the second sorted class value.
        assert clf.positive_value == 1

    def test_positive_label_override(self):
        data = Dataset(("L", "F"), (("c", "+"), ("d", "-")), "L")
        _, clf = learn_nb(data, positive_label="c")
        assert clf.positive_value == 0
        with pytest.raises(ModelError):
            learn_nb(data, positive_label="nope")

    def test_unsmoothed_estimates_allow_zero_cells(self):
        data = Dataset(("L", "F"), (("c", "+"), ("c", "+"), ("d", "-")), "L")
        net, _ = learn_nb(data, smoothing=0.0)
        assert net.cpt("F").rows == ((1.0, 0.0), (0.0, 1.0))

    def test_rejects_nonbinary_class(self):
        data = Dataset(("L", "F"), (("a", "+"), ("b", "+"), ("c", "-")), "L")
        with pytest.raises(ModelError):
            learn_nb(data)

    @pytest.mark.parametrize(
        "smoothing, message",
        [
            (float("nan"), "smoothing must be a finite value >= 0"),
            (float("inf"), "smoothing must be a finite value >= 0"),
            (-1.0, "smoothing must be a finite value >= 0"),
            (1e308, "smoothing 1e[+]308 overflows the estimate's denominator"),
        ],
        ids=["nan", "inf", "-1.0", "1e+308"],
    )
    def test_rejects_smoothing_not_finite_and_nonnegative(self, smoothing, message):
        with pytest.raises(ModelError, match=message):
            learn_nb(noisy_dataset(), smoothing=smoothing)
        with pytest.raises(ModelError, match=message):
            cv_accuracy(noisy_dataset(), ("A",), folds=2, seed=0, smoothing=smoothing)

    def test_smoothing_overflowing_a_wider_column_only(self):
        # 7e307 * 2 is finite and 7e307 * 3 is not: only subsets keeping
        # the three-valued column are refused, as learn_nb on their
        # columns refuses them.
        rows = (("x", "u", "p"), ("y", "v", "n"), ("x", "w", "p"), ("y", "u", "n"))
        data = Dataset(("A", "B", "label"), rows, "label")
        message = "smoothing 7e[+]307 overflows the estimate's denominator total [+] smoothing [*] 3"
        assert learn_nb(data.restrict(["A"]), smoothing=7e307)[0].cpts[1].rows == ((0.5, 0.5),) * 2
        assert 0.0 <= cv_accuracy(data, ("A",), folds=2, seed=0, smoothing=7e307) <= 1.0
        with pytest.raises(ModelError, match=message):
            learn_nb(data, smoothing=7e307)
        with pytest.raises(ModelError, match=message):
            cv_accuracy(data, ("A", "B"), folds=2, seed=0, smoothing=7e307)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ModelError):
            learn_nb(Dataset(("L", "F"), (), "L"))

    def test_domains_override_adds_unseen_values(self):
        data = Dataset(("L", "F"), (("c", "+"), ("d", "-")), "L")
        net, _ = learn_nb(data, domains={"L": ("c", "d"), "F": ("+", "-", "?")})
        assert net.var("F").values == ("+", "-", "?")
        assert all(x > 0 for row in net.cpt("F").rows for x in row)

    def test_domains_missing_columns(self):
        data = Dataset(("L", "F", "G"), (("c", "+", "x"), ("d", "-", "y")), "L")
        with pytest.raises(ModelError) as info:
            learn_nb(data, domains={"L": ("c", "d")})
        assert str(info.value) == "domains missing columns: ['F', 'G']"

    def test_feature_value_outside_its_domain(self):
        data = Dataset(("L", "F"), (("c", "?"), ("d", "-"), ("c", "+")), "L")
        with pytest.raises(ModelError) as info:
            learn_nb(data, domains={"L": ("c", "d"), "F": ("+",)})
        assert str(info.value) == "column 'F' has values outside its domain: ['-', '?']"

    def test_class_column_is_named_before_a_bad_feature(self):
        # F comes first in the data, yet the class column is checked
        # first; its labels are listed sorted, not in row order.
        data = Dataset(("F", "L"), (("?", "e"), ("+", "c"), ("!", "b")), "L")
        with pytest.raises(ModelError) as info:
            learn_nb(data, domains={"L": ("c", "d"), "F": ("+",)})
        assert str(info.value) == "column 'L' has values outside its domain: ['b', 'e']"

    def test_domain_repeating_a_label(self):
        # Each label maps to one code, so the repeated label's rows are
        # counted once and the network check names only the labels.
        data = Dataset(("L", "F"), (("c", "+"), ("c", "+"), ("d", "-"), ("d", "+")), "L")
        with pytest.raises(ModelError) as info:
            learn_nb(data, domains={"L": ("c", "d"), "F": ("+", "+", "-")})
        assert str(info.value) == "network is not valid: variable 'F' has duplicate value labels"

    def test_learned_model_is_valid_and_normalized(self):
        net, clf = learn_nb(noisy_dataset())
        assert marginal(net, {}) == pytest.approx(1.0, abs=1e-9)
        # Naive-Bayes structure: the class is a root and each feature's
        # sole parent.
        assert net.parents(clf.class_var) == ()
        assert all(net.parents(f) == (clf.class_var,) for f in clf.features)


def counted_cpt_rows(data: Dataset, smoothing: float, domains) -> list[tuple]:
    """learn_nb's CPT rows counted over the label strings, the class
    prior's first and then each feature's in data-column order: class
    counts by list.count, (class, value) pair counts by a Counter."""
    class_cells = data.column_values(data.class_column)
    class_domain = domains[data.class_column]
    class_count = [class_cells.count(v) for v in class_domain]
    n = len(class_cells)
    out = [(tuple((k + smoothing) / (n + smoothing * len(class_domain)) for k in class_count),)]
    for f in data.columns:
        if f == data.class_column:
            continue
        counts = Counter(zip(class_cells, data.column_values(f)))
        values = domains[f]
        out.append(tuple(
            tuple((counts[c, v] + smoothing) / (total + smoothing * len(values)) for v in values)
            for c, total in zip(class_domain, class_count)
        ))
    return out


def padded_domain_case(seed: int):
    """(data, domains, smoothing): 1-4 features of 2-4 labels in the data,
    the class column at any position, and every vocabulary in shuffled
    order with labels no row takes; a class label no row takes comes with
    smoothing > 0."""
    rng = random.Random(seed)
    width = rng.randint(1, 4)
    features = [f"F{j}" for j in range(width)]
    columns = list(features)
    columns.insert(rng.randint(0, width), "C")
    classes = ["neg", "pos"] if rng.random() < 0.8 else ["pos"]
    labels = {f: [f"v{x}" for x in range(rng.randint(2, 4))] for f in features}
    rows = tuple(
        tuple(rng.choice(classes) if c == "C" else rng.choice(labels[c]) for c in columns)
        for _ in range(rng.randint(1, 40))
    )
    domains = {"C": ("neg", "pos")}
    for f in features:
        vocabulary = [*labels[f], *(f"u{x}" for x in range(rng.randint(1, 3)))]
        rng.shuffle(vocabulary)
        domains[f] = tuple(vocabulary)
    if rng.random() < 0.5:
        domains["C"] = ("pos", "neg")
    seen_both = len({r[columns.index("C")] for r in rows}) == 2
    smoothing = rng.choice([0.0, 0.5, 1.0, 2.5] if seen_both else [0.5, 1.0, 2.5])
    return Dataset(tuple(columns), rows, "C"), domains, smoothing


class TestLearnNbCounts:
    """learn_nb's integer-code counts against counting the label strings."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_bits_as_counting_labels(self, seed):
        data, domains, smoothing = padded_domain_case(seed)
        net, _ = learn_nb(data, smoothing=smoothing, domains=domains)
        entries = [x for cpt in net.cpts for row in cpt.rows for x in row]
        assert all(type(x) is float for x in entries)
        expected = counted_cpt_rows(data, smoothing, domains)
        assert [[[x.hex() for x in row] for row in cpt.rows] for cpt in net.cpts] == [
            [[x.hex() for x in row] for row in rows] for rows in expected
        ]

    def test_cases_cover_unseen_labels_and_unsmoothed_counts(self):
        cases = [padded_domain_case(seed) for seed in range(40)]
        assert any(smoothing == 0.0 for _, _, smoothing in cases)
        assert any(len(set(data.column_values("C"))) == 1 for data, _, _ in cases)
        assert any(domains["C"] == ("pos", "neg") for _, domains, _ in cases)


class TestEncode:
    """evalharness._encode, the one map from labels to value codes."""

    def test_sorted_distinct_labels_by_default(self):
        data = Dataset(("C", "F"), (("pos", "b"), ("neg", "a"), ("pos", "a")), "C")
        vocabularies, codes = _encode(data, ("F", "C"))
        assert list(vocabularies) == list(codes) == ["F", "C"]
        assert vocabularies == {"F": ("a", "b"), "C": ("neg", "pos")}
        assert codes["F"].dtype == codes["C"].dtype == np.intp
        assert codes["F"].tolist() == [1, 0, 0] and codes["C"].tolist() == [1, 0, 1]

    def test_given_vocabularies_keep_their_order_and_unseen_labels(self):
        data = Dataset(("C", "F"), (("pos", "b"), ("neg", "a")), "C")
        vocabularies, codes = _encode(data, ("C", "F"), {"C": ("pos", "neg"), "F": ("z", "b", "a")})
        assert vocabularies == {"C": ("pos", "neg"), "F": ("z", "b", "a")}
        assert codes["C"].tolist() == [0, 1] and codes["F"].tolist() == [1, 2]

    def test_first_bad_column_in_the_order_given(self):
        data = Dataset(("C", "F"), (("pos", "q"), ("maybe", "p")), "C")
        domains = {"C": ("neg", "pos"), "F": ("a",)}
        for columns, message in [
            (("C", "F"), "column 'C' has values outside its domain: ['maybe']"),
            (("F", "C"), "column 'F' has values outside its domain: ['p', 'q']"),
        ]:
            with pytest.raises(ModelError) as info:
                _encode(data, columns, domains)
            assert str(info.value) == message


class TestEnumerateFeasible:
    def test_unit_costs_fractional_budget(self):
        clf = Classifier("C", 1, ("F1", "F2", "F3"), 0.5)
        assert enumerate_feasible(clf, CostModel.unit(clf.features, 1.5)) == [
            (),
            ("F1",),
            ("F2",),
            ("F3",),
        ]

    def test_mixed_costs(self):
        clf = Classifier("C", 1, ("F1", "F2", "F3", "F4"), 0.5)
        costs = CostModel({"F1": 0.5, "F2": 1.0, "F3": 1.0, "F4": 2.0}, 1.5)
        assert enumerate_feasible(clf, costs) == [
            (),
            ("F1",),
            ("F2",),
            ("F3",),
            ("F1", "F2"),
            ("F1", "F3"),
        ]

    def test_zero_budget(self):
        clf = Classifier("C", 1, ("F1", "F2", "F3"), 0.5)
        assert enumerate_feasible(clf, CostModel.unit(clf.features, 0)) == [()]

    def test_guard(self):
        features = tuple(f"X{i}" for i in range(21))
        clf = Classifier("C", 1, features, 0.5)
        with pytest.raises(EnumerationLimitError):
            enumerate_feasible(clf, CostModel.unit(features, 3))


class TestCvAccuracy:
    def test_perfectly_separable_feature(self):
        rows = tuple(
            ("pos" if i % 2 else "neg", "a" if i % 2 else "b") for i in range(30)
        )
        data = Dataset(("L", "F"), rows, "L")
        assert cv_accuracy(data, ("F",), folds=5, seed=1) == pytest.approx(1.0, abs=1e-12)

    def test_empty_subset_scores_majority_frequency(self):
        rows = tuple(("pos" if i < 35 else "neg",) for i in range(50))
        data = Dataset(("L",), rows, "L")
        assert cv_accuracy(data, (), folds=5, seed=3) == pytest.approx(0.7, abs=1e-12)

    def test_deterministic_under_seed(self):
        data = noisy_dataset()
        a = cv_accuracy(data, ("A", "B"), folds=4, seed=9)
        b = cv_accuracy(data, ("A", "B"), folds=4, seed=9)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_unsmoothed_unseen_value_has_zero_evidence(self):
        with pytest.raises(ZeroEvidenceError) as info:
            cv_accuracy(rare_value_dataset(), ("F",), folds=2, seed=0, smoothing=0.0)
        assert str(info.value) == "evidence {'F': 2} has probability 0"

    def test_more_folds_than_rows_rejected(self):
        data = Dataset(("L", "F"), (("a", "x"), ("b", "y")), "L")
        with pytest.raises(ModelError):
            cv_accuracy(data, ("F",), folds=3, seed=0)


def per_fold_posteriors(data, subset, folds, seed, smoothing, positive_label, threshold):
    """cv_accuracy the long way, up to the decisions: deal the folds, then
    check the subset's names, then per fold learn_nb on the subset's
    training rows and one posterior_class per test row.  Per fold, the
    (posterior, actual label) of each test row."""
    # Names of no column are left to the names check below.
    work = data.restrict([c for c in subset if c in data.columns])
    n = len(work.rows)
    if folds < 2:
        raise ModelError(f"fold count must be >= 2, got {folds}")
    if folds > n:
        raise ModelError(f"{folds} folds need at least {folds} rows, have {n}")
    domains = {c: tuple(sorted(set(work.column_values(c)))) for c in work.columns}
    class_idx = work.column_index(work.class_column)
    rng = random.Random(seed)
    by_class = {v: [] for v in domains[work.class_column]}
    for i, row in enumerate(work.rows):
        by_class[row[class_idx]].append(i)
    fold_of = [0] * n
    cursor = 0
    for v in domains[work.class_column]:
        group = by_class[v]
        rng.shuffle(group)
        for i in group:
            fold_of[i] = cursor % folds
            cursor += 1
    features = [c for c in work.columns if c != work.class_column]
    scored = []
    for fold in range(folds):
        train_idx = [i for i in range(n) if fold_of[i] != fold]
        test_idx = [i for i in range(n) if fold_of[i] == fold]
        if fold == 0:
            # learn_nb's checks before its classifier's, on a class-only
            # model, then the subset's names read against every feature.
            learn_nb(
                work.take(train_idx).restrict([]), smoothing=smoothing, domains=domains,
                positive_label=positive_label,
            )
            every = [c for c in data.columns if c != data.class_column]
            kept_in_order(Classifier(data.class_column, 1, every, 0.5), subset)
        net, clf = learn_nb(
            work.take(train_idx), smoothing=smoothing, domains=domains,
            positive_label=positive_label, threshold=threshold,
        )
        scored.append([])
        for i in test_idx:
            row = work.rows[i]
            evidence = {f: domains[f].index(row[work.column_index(f)]) for f in features}
            actual = domains[work.class_column].index(row[class_idx]) == clf.positive_value
            scored[-1].append((posterior_class(net, clf, evidence), actual))
    return scored


def accuracy_at(scored, threshold: float) -> float:
    """The mean fold accuracy of per_fold_posteriors' decisions at a threshold."""
    accuracies = [sum((p >= threshold) == actual for p, actual in fold) / len(fold) for fold in scored]
    return math.fsum(accuracies) / len(scored)


def per_fold_cv_accuracy(data, subset, folds, seed, smoothing, positive_label, threshold):
    scored = per_fold_posteriors(data, subset, folds, seed, smoothing, positive_label, threshold)
    return accuracy_at(scored, float(threshold))


@st.composite
def cv_cases(draw):
    """A small dataset with the class column anywhere, 0-4 features of
    cardinality 1-3 whose values need not all occur (so training folds
    miss values), a class that is binary (one value possibly in a single
    row, so a training part can lack it) or now and then not, and
    cv_accuracy arguments, now and then invalid ones."""
    n = draw(st.integers(2, 12))
    cards = draw(st.lists(st.sampled_from([1, 2, 2, 3, 3]), max_size=4))
    names = [f"F{j}" for j in range(len(cards))]
    kind = draw(st.integers(0, 9))
    if kind < 7:
        classes = ["neg", "pos"] + [draw(st.sampled_from(["neg", "pos"])) for _ in range(n - 2)]
    elif kind == 7:
        classes = ["neg"] + ["pos"] * (n - 1)
    elif kind == 8:
        classes = ["pos"] * n
    else:
        classes = [draw(st.sampled_from(["neg", "pos", "mid"])) for _ in range(n)]
    at = draw(st.integers(0, len(names)))
    rows = []
    for c in draw(st.permutations(classes)):
        values = [f"v{draw(st.integers(0, card - 1))}" for card in cards]
        rows.append(tuple(values[:at] + [c] + values[at:]))
    subset = draw(st.lists(st.sampled_from(names + ["C", "unknown"]), unique=True))
    if draw(st.integers(0, 9)) < 9:
        folds = draw(st.integers(2, n))
    else:
        folds = draw(st.sampled_from([1, n + 1]))
    args = (
        folds,
        draw(st.integers(0, 50)),  # seed
        # smoothing; 1e308 overflows every denominator, 7e307 those of a
        # column of 3 values alone.
        draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 0.37, 2.0, 1e-300, -0.5, 1e308, 7e307])),
        draw(st.sampled_from([None, None, "pos", "neg", "nope"])),  # positive label
        draw(st.sampled_from([0.5, 0.0, 0.3, 1.0, 0.75])),  # threshold
    )
    data = Dataset(tuple(names[:at] + ["C"] + names[at:]), tuple(rows), "C")
    return data, tuple(subset), args


def outcome(route, *args):
    try:
        return route(*args).hex()
    except BntrimError as e:
        return type(e), str(e)


class TestCvAccuracyCountRoute:
    """cv_accuracy from count tables against learning each fold's
    classifier and scoring each test row on the scalar route: the same
    bits, or the same first error with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(cv_cases())
    def test_same_bits_as_per_fold_learning(self, case):
        data, subset, args = case
        try:
            scored = per_fold_posteriors(data, subset, *args)
        except BntrimError as e:
            assert outcome(cv_accuracy, data, subset, *args) == (type(e), str(e))
            return
        # At every attained posterior and the next float above it, a
        # posterior one ulp off on either side flips a decision.
        thresholds = {float(args[4])}
        for fold in scored:
            thresholds.update(t for p, _ in fold for t in (p, math.nextafter(p, 2.0)))
        for threshold in sorted(thresholds):
            got = cv_accuracy(data, subset, *args[:4], threshold)
            assert got.hex() == accuracy_at(scored, threshold).hex()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("folds", [2, 3, 5])
    def test_same_first_zero_evidence_error(self, seed, folds):
        # Unsmoothed, with values that occur once or twice, so several
        # folds hold rows whose evidence has probability 0.
        rng = random.Random(seed)
        rows = tuple(
            (
                "pos" if i % 2 else "neg",
                "ab"[i // 2 % 2] if i < 14 else "cde"[i % 3],
                "xy"[rng.random() < 0.3],
            )
            for i in range(18)
        )
        data = Dataset(("C", "F", "G"), rows, "C")
        args = (folds, seed, 0.0, None, 0.5)
        for subset in (("F",), ("F", "G"), ("G",)):
            assert outcome(cv_accuracy, data, subset, *args) == outcome(
                per_fold_cv_accuracy, data, subset, *args
            )

    def test_no_posterior_class_calls(self, monkeypatch):
        # No scalar enumeration at all: inference._terms, counted under
        # every name a bntrim module binds it to, is never called, neither
        # by cv_accuracy nor by scatter in either threshold mode.
        calls = []
        real = inference._terms

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "bntrim" or name.startswith("bntrim."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        cv_accuracy(noisy_dataset(), ("A", "B"), folds=4, seed=9)
        for mode in THRESHOLD_MODES:
            scatter(noisy_dataset(), EvalConfig(seed=2, folds=3, budget=10.0, threshold_mode=mode))
        assert calls == []
        posterior_class(*learn_nb(noisy_dataset()), {"A": 0})
        assert calls == [1]  # the counter sees the scalar route


@st.composite
def cv_batch_cases(draw):
    """cv_cases with 1-6 subsets: the drawn one and up to five more over
    the dataset's columns (the class among them) and an unknown name, in
    any order."""
    data, subset, args = draw(cv_cases())
    names = [*data.columns, "unknown"]
    more = draw(st.lists(st.lists(st.sampled_from(names), unique=True).map(tuple), max_size=5))
    return data, draw(st.permutations([subset, *more])), args


def one_call_per_subset(data, subsets, args):
    """cv_accuracy per subset in order, in hex, or the first error."""
    out = []
    for subset in subsets:
        got = outcome(cv_accuracy, data, subset, *args)
        if isinstance(got, tuple):
            return got
        out.append(got)
    return out


def one_batched_call(data, subsets, args):
    """One _fold_scorer call over every subset, on the data's codes, in
    hex, or its error."""
    folds, seed, *rest = args
    domains, codes = _encode(data, data.columns)
    try:
        scores = evalharness._fold_scorer(codes, data.class_column, folds, seed, domains)(
            subsets, *rest
        )
    except BntrimError as e:
        return type(e), str(e)
    return [a.hex() for a in scores]


def later_subset_cases():
    """(data, subsets, args, first failing subset, error type): each case
    fails first in a later subset, or in a fold after the first."""
    # Unsmoothed, F's values "c", "d" and "e" occur once or twice, so
    # their rows have probability 0 in their own fold; G's occur in every
    # fold of both classes, and H has one value, so a classifier cannot
    # take it as a feature.
    rare = Dataset(("C", "F", "G", "H"), tuple(
        ("pos" if i % 2 else "neg", "ab"[i // 2 % 2] if i < 14 else "cde"[i % 3],
         "xy"[i % 4 < 2], "h")
        for i in range(18)
    ), "C")
    # Five "neg" rows are dealt first, so the one "pos" row falls in the
    # last of three folds (seed 0: rows 0 and 5), whose training part
    # lacks "pos".  F takes a new value in every row, so each row has
    # probability 0 in its own fold; G's value "r" only in row 0.
    lonely = Dataset(("C", "F", "G"), tuple(
        ("pos" if i == 5 else "neg", f"v{i}", "r" if i == 0 else "g") for i in range(6)
    ), "C")
    return [
        (rare, [("G",), (), ("F", "G")], (3, 0, 0.0, None, 0.5), 2, ZeroEvidenceError),
        (lonely, [("G",), ("F",)], (3, 0, 0.0, None, 0.5), 0, ModelError),
        (lonely, [("F",), ("G",)], (3, 0, 0.0, None, 0.5), 0, ZeroEvidenceError),
        (rare, [("G",), (), ("G", "H"), ("F",)], (3, 0, 0.0, None, 0.5), 2, ModelError),
        (rare, [("G",), ("F",), ("H",)], (3, 0, 0.0, None, 0.5), 1, ZeroEvidenceError),
    ]


class TestBatchedFoldScorer:
    """One _fold_scorer call over several subsets against one cv_accuracy
    call per subset: the same bits, or the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(cv_batch_cases())
    def test_same_bits_as_one_call_per_subset(self, case):
        data, subsets, args = case
        assert one_batched_call(data, subsets, args) == one_call_per_subset(data, subsets, args)

    @pytest.mark.parametrize(
        "data, subsets, args, failing, error", later_subset_cases(),
        ids=["zero evidence in a later subset", "fold lacks a class before its zero evidence",
             "zero evidence before the fold that lacks a class",
             "single-valued column in a later subset",
             "zero evidence before a later single-valued column"],
    )
    def test_same_first_error_as_one_call_per_subset(self, data, subsets, args, failing, error):
        expected = one_call_per_subset(data, subsets, args)
        assert expected[0] is error
        assert one_batched_call(data, subsets, args) == expected
        # The subsets before the failing one score, alone and batched.
        clean = one_call_per_subset(data, subsets[:failing], args)
        assert isinstance(clean, list)
        assert one_batched_call(data, subsets[:failing], args) == clean


class TestScatter:
    @pytest.mark.parametrize("budget, subsets", [(0.0, 1), (1.0, 3), (10.0, 4)])
    def test_one_learn_nb_and_one_fold_deal_per_call(self, monkeypatch, budget, subsets):
        # One table batch builds every table scatter reads, the held-out
        # rows' too, with no build_instance_table call; the model is
        # learned from the training part's codes, so no part of the data
        # is copied out or encoded again.
        owners = {
            "_learn_codes": evalharness, "_deal_folds": evalharness,
            "_instance_tables": evalharness, "build_instance_table": agreement,
            "take": netio.Dataset, "_encode": evalharness,
        }
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        rows, _ = scatter(noisy_dataset(), EvalConfig(seed=11, folds=4, budget=budget))
        assert len(rows) == subsets
        assert calls == {
            "_learn_codes": 1, "_deal_folds": 1, "_instance_tables": 1, "build_instance_table": 0,
            "take": 0, "_encode": 1,
        }

    def test_learns_the_model_learn_nb_learns_from_the_training_copy(self, monkeypatch):
        # The reference is the route scatter took before it learned from
        # codes: the training rows copied out with take and learned with
        # the whole data's vocabularies.  Some training parts miss a value
        # the held-out part takes, rare_value_dataset's at its seed.
        cases = [
            (noisy_dataset(), 11), (or_dataset(rows=37, seed=8), 4),
            (rare_value_dataset(), RARE_HELD_OUT_SEED),
            *((sampled_dataset(seed), seed) for seed in range(8)),
        ]
        missed = 0
        for data, seed in cases:
            config = EvalConfig(seed=seed, folds=3, budget=1.0)
            learned = []
            real = evalharness._learn_codes

            def captured(*args, **kwargs):
                learned.append(real(*args, **kwargs))
                return learned[-1]

            monkeypatch.setattr(evalharness, "_learn_codes", captured)
            scatter(data, config)
            monkeypatch.undo()
            n = len(data.rows)
            perm = list(range(n))
            random.Random(seed).shuffle(perm)
            train = data.take(perm[:min(max(round(config.split_fraction * n), 1), n - 1)])
            domains, _ = _encode(data, data.columns)
            want = learn_nb(train, domains=domains)
            assert [serialize_network(net) for net, _ in learned] == [serialize_network(want[0])]
            assert learned[0][1] == want[1]
            missed += any(set(train.column_values(c)) != set(v) for c, v in domains.items())
        assert missed

    def test_rows_cover_feasible_subsets_with_unique_optima(self):
        data = noisy_dataset()
        rows, summary = scatter(data, EvalConfig(seed=11, folds=4, budget=1.0))
        assert [r.subset for r in rows] == [(), ("A",), ("B",)]
        optima = [r.marker for r in rows if r.marker != "feasible"]
        assert optima  # at least one optimum marked
        eca_marks = sum(r.marker in ("optimal-eca", "optimal-both") for r in rows)
        acc_marks = sum(r.marker in ("optimal-accuracy", "optimal-both") for r in rows)
        assert eca_marks == 1 and acc_marks == 1
        assert set(summary) == {"optimal_eca", "optimal_accuracy"}
        for side in summary.values():
            assert 0.0 <= side["test_agreement"] <= 1.0
            assert 0.0 <= side["test_accuracy"] <= 1.0

    def test_eca_column_matches_library_recomputation(self):
        data = noisy_dataset()
        for mode in THRESHOLD_MODES:
            config = EvalConfig(seed=11, folds=4, budget=1.0, threshold_mode=mode)
            rows, _ = scatter(data, config)
            # Mirror the documented split rule to rebuild the trained model.
            rng = random.Random(config.seed)
            perm = list(range(len(data.rows)))
            rng.shuffle(perm)
            train_n = min(max(round(config.split_fraction * len(data.rows)), 1), len(data.rows) - 1)
            train = data.take(perm[:train_n])
            domains = {c: tuple(sorted(set(data.column_values(c)))) for c in data.columns}
            net, clf = learn_nb(train, domains=domains, threshold=config.threshold)
            for row in rows:
                if mode == "fixed":
                    want = eca(net, clf, replace(clf, features=row.subset))
                else:
                    want = maa(net, clf, row.subset).score
                assert row.eca == want

    def test_budget_covering_everything_marks_full_set_optimal(self):
        data = or_dataset()
        rows, _ = scatter(data, EvalConfig(seed=11, folds=4, budget=10.0))
        full = [r for r in rows if r.subset == ("A", "B")]
        assert len(full) == 1
        assert full[0].eca == pytest.approx(1.0, abs=1e-12)
        # No strict sub-subset can reproduce a decision that depends on
        # both features, so the full set is the unique agreement optimum.
        assert full[0].marker in ("optimal-eca", "optimal-both")
        for row in rows:
            if row.subset != ("A", "B"):
                assert row.eca < 1.0

    def test_fixed_threshold_mode(self):
        data = noisy_dataset()
        rows, _ = scatter(
            data, EvalConfig(seed=11, folds=4, budget=10.0, threshold_mode="fixed")
        )
        full = [r for r in rows if r.subset == ("A", "B")]
        assert full[0].eca == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["maa-optimal", "fixed"])
    @pytest.mark.parametrize("source", ["noisy", "synthetic"])
    def test_summary_matches_per_row_classify(self, mode, source):
        if source == "noisy":
            data = noisy_dataset()
        else:
            # A model whose best subsets decide some held-out rows
            # differently at their scoring and their base threshold.
            net, _ = nb_instance(random.Random(10), 4)
            data = synthesize_dataset(net, "C", 120, seed=3)
        config = EvalConfig(seed=4, folds=3, budget=2.0, threshold_mode=mode)
        _, summary = scatter(data, config)
        for side in ("optimal_eca", "optimal_accuracy"):
            assert summary[side] == held_out_reference(data, config, summary[side]["subset"])

    def test_unsmoothed_held_out_value_has_zero_evidence(self):
        config = EvalConfig(seed=RARE_HELD_OUT_SEED, folds=2, smoothing=0.0, budget=1.0)
        with pytest.raises(ZeroEvidenceError) as info:
            scatter(rare_value_dataset(), config)
        assert str(info.value) == "evidence {'F': 2} has probability 0"

    def test_deterministic_csv_bytes(self):
        data = noisy_dataset()
        config = EvalConfig(seed=2, folds=3, budget=1.0)
        first = write_scatter_csv(scatter(data, config)[0])
        second = write_scatter_csv(scatter(data, config)[0])
        assert first == second
        lines = first.decode("utf-8").split("\n")
        assert lines[0] == "subset,eca,cv_accuracy,marker"
        assert first.endswith(b"\n")

    def test_multi_feature_subsets_joined_in_csv(self):
        data = noisy_dataset()
        rows, _ = scatter(data, EvalConfig(seed=2, folds=3, budget=10.0))
        text = write_scatter_csv(rows).decode("utf-8")
        assert "A;B" in text


def row_posteriors(net, clf, data, domains, features):
    """evalharness._posteriors of the rows, encoded over the domains,
    read from the features' instance table."""
    _, codes = _encode(data, data.columns, domains)
    return _posteriors(net, build_instance_table(net, clf, features), codes)


class TestRowPosteriors:
    """evalharness._posteriors, which computes one posterior per distinct
    row of feature values, against one posterior_class call per row."""

    @pytest.mark.parametrize("features", [("A", "B"), ("B",), ()])
    def test_same_bits_as_one_posterior_per_row(self, features):
        data = noisy_dataset()  # 80 rows, at most 4 distinct (A, B) pairs
        domains = {c: tuple(sorted(set(data.column_values(c)))) for c in data.columns}
        net, clf = learn_nb(data, domains=domains)
        per_row = [
            posterior_class(
                net, clf, {f: domains[f].index(row[data.column_index(f)]) for f in features}
            ).hex()
            for row in data.rows
        ]
        got = row_posteriors(net, clf, data, domains, features)
        assert [p.hex() for p in got] == per_row

    def test_first_zero_evidence_row_raises(self):
        # Learned without smoothing from rows where F is "a" or "b", so
        # "c" and "d" have probability 0; "d" comes first.
        train = Dataset(("C", "F"), (("neg", "a"), ("pos", "b"), ("pos", "a")), "C")
        rows = (("pos", "a"), ("neg", "d"), ("pos", "c"), ("neg", "d"))
        test = Dataset(("C", "F"), rows, "C")
        domains = {"C": ("neg", "pos"), "F": ("a", "b", "c", "d")}
        net, clf = learn_nb(train, smoothing=0.0, domains=domains)
        with pytest.raises(ZeroEvidenceError) as info:
            row_posteriors(net, clf, test, domains, ("F",))
        assert str(info.value) == "evidence {'F': 3} has probability 0"

    @pytest.mark.parametrize(
        "features", [("A", "B", "D"), ("D", "A"), ("B", "D"), ("D", "B", "A"), ("D",)]
    )
    def test_ternary_features_in_any_order(self, features):
        # A and D take three values and B two, so each value index weighs
        # differently in the C-order index over the kept features; the
        # features come in classifier order, out of it, or partly.
        rng = random.Random(3)
        rows = tuple(
            ("pos" if rng.random() < 0.4 else "neg", "abc"[rng.randrange(3)],
             "uv"[rng.randrange(2)], "xyz"[rng.randrange(3)])
            for _ in range(60)
        )
        data = Dataset(("C", "A", "B", "D"), rows, "C")
        domains = {c: tuple(sorted(set(data.column_values(c)))) for c in data.columns}
        assert [len(domains[f]) for f in "ABD"] == [3, 2, 3]
        net, clf = learn_nb(data, domains=domains)
        per_row = [
            posterior_class(
                net, clf, {f: domains[f].index(row[data.column_index(f)]) for f in features}
            ).hex()
            for row in data.rows
        ]
        assert len(set(per_row)) >= 3
        got = row_posteriors(net, clf, data, domains, features)
        assert [p.hex() for p in got] == per_row

    def test_zero_evidence_lists_kept_features_in_classifier_order(self):
        # Unsmoothed: (F, G) = ("b", "y") never occurs with either class,
        # since "b" occurs only with "pos" and "y" only with "neg".
        train = Dataset(("C", "F", "G"), (
            ("neg", "a", "y"), ("neg", "c", "x"), ("pos", "b", "x"), ("pos", "a", "x"),
        ), "C")
        test = Dataset(("C", "F", "G"), (("pos", "a", "x"), ("neg", "b", "y")), "C")
        domains = {"C": ("neg", "pos"), "F": ("a", "b", "c"), "G": ("x", "y")}
        net, clf = learn_nb(train, smoothing=0.0, domains=domains)
        for features in (("G", "F"), ("F", "G")):
            with pytest.raises(ZeroEvidenceError) as info:
                row_posteriors(net, clf, test, domains, features)
            assert str(info.value) == "evidence {'F': 1, 'G': 1} has probability 0"


class TestEvalConfig:
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, "3", None])
    @pytest.mark.parametrize("field, what", [("folds", "fold count"), ("seed", "seed")])
    def test_folds_and_seed_must_be_ints(self, field, what, value):
        # folds=2.5 once reached scatter and raised numpy's TypeError.
        with pytest.raises(ModelError) as info:
            EvalConfig(budget=2, **{field: value})
        assert str(info.value) == f"{what} must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"split_fraction": 0.0},
            {"split_fraction": 1.0},
            {"folds": 1},
            {"smoothing": -0.5},
            {"smoothing": float("nan")},
            {"smoothing": float("inf")},
            {"budget": -1.0},
            {"split_fraction": math.nan},
            {"threshold": math.inf},
            {"threshold": -0.1},
            {"threshold_mode": "whatever"},
            {"threshold": float("nan")},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ModelError):
            EvalConfig(**{"budget": 1.0, **kwargs})

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budget_follows_the_cost_model_rule(self, budget):
        with pytest.raises(ModelError) as info:
            EvalConfig(budget=budget)
        with pytest.raises(ModelError) as rule:
            CostModel({}, budget)
        assert str(info.value) == str(rule.value)


class TestSampling:
    def test_sample_rows_deterministic_and_valid(self):
        net = load_network("quiz.bn.json")
        rows = sample_rows(net, 200, seed=8)
        assert rows == sample_rows(net, 200, seed=8)
        assert len(rows) == 200
        for row in rows[:20]:
            assert set(row) == {"C", "Q1", "Q2", "Q3"}
            assert all(v in (0, 1) for v in row.values())

    def test_sample_frequencies_track_marginals(self):
        net = load_network("quiz.bn.json")
        rows = sample_rows(net, 20000, seed=8)
        freq = sum(r["Q3"] == 0 for r in rows) / len(rows)
        assert freq == pytest.approx(marginal(net, {"Q3": 0}), abs=0.02)

    def test_synthesize_dataset_round_trips_through_learning(self):
        net = load_network("quiz.bn.json")
        data = synthesize_dataset(net, "C", 5000, seed=13)
        assert data.columns == ("C", "Q1", "Q2", "Q3")
        learned, _ = learn_nb(data, positive_label="+")
        true_row = net.cpt("Q1").rows[0][0]
        learned_row = learned.cpt("Q1").rows[0][0]
        assert learned_row == pytest.approx(true_row, abs=0.05)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda net, clf: sample_rows(net, -2, 0), "sample count must be >= 0, got -2"),
            (
                lambda net, clf: synthesize_dataset(net, "C", -1, 0),
                "sample count must be >= 0, got -1",
            ),
            (
                lambda net, clf: empirical_agreement(net, clf, clf, 0, 0),
                "sample count must be >= 1, got 0",
            ),
            (
                lambda net, clf: empirical_agreement(net, clf, clf, -3, 0),
                "sample count must be >= 1, got -3",
            ),
        ],
        ids=["sample_rows", "synthesize_dataset", "empirical_agreement zero", "empirical_agreement negative"],
    )
    def test_sample_counts_are_checked(self, call, message):
        net = load_network("quiz.bn.json")
        alpha = Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.07)
        with pytest.raises(ModelError) as info:
            call(net, alpha)
        assert str(info.value) == message

    def test_draw_past_a_short_row_takes_the_last_possible_value(self, monkeypatch):
        # The row sums to 1 - 4e-10, within ROW_SUM_TOL, and its last value
        # has probability 0; a draw above the row's sum must not pick it.
        net = BayesianNetwork(
            (Variable("A", ("a", "b", "c")),), (Cpt("A", (), ((0.5, 0.5 - 4e-10, 0.0),)),)
        )
        assert validate_network(net) == []
        monkeypatch.setattr(random.Random, "random", lambda self: 1 - 1e-10)
        assert sample_rows(net, 3, 0) == [{"A": 1}] * 3

    def test_zero_samples_are_no_rows(self):
        net = load_network("quiz.bn.json")
        assert sample_rows(net, 0, 0) == []
        assert synthesize_dataset(net, "C", 0, 0).rows == ()

    def test_empirical_agreement_of_identical_classifiers(self):
        net = load_network("quiz.bn.json")
        alpha = Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.07)
        assert empirical_agreement(net, alpha, alpha, 500, seed=3) == 1.0

    def test_empirical_agreement_tracks_exact_value(self):
        net = load_network("quiz.bn.json")
        alpha = Classifier("C", 0, ("Q1", "Q2", "Q3"), 0.07)
        beta = Classifier("C", 0, ("Q1", "Q3"), 0.10)
        value = empirical_agreement(net, alpha, beta, 20000, seed=21)
        assert value == pytest.approx(0.9082, abs=0.02)
