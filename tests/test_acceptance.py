"""Acceptance gate: one test per shipped guarantee.

Each criterion is a single test function so ``pytest -v`` reports one
pass/fail line per criterion.  Expected values are frozen from
independent oracles (scalar brute force, hand-derived fixture arithmetic,
Monte-Carlo simulation); tolerances are part of the contract and must not
be loosened.

Criterion 1 checks the reference instance table at two decimals.  The
reference entries were rounded so that the eight cells keep the table's
total of 1.00 (largest remainder, in hundredths), not each on its own:
per-entry rounding sums to 0.99 and turns the exact positive-mass cell
243/1250 = 0.1944 into 0.19, while largest-remainder rounding reproduces
all eight reference entries, 0.20 included.  The test therefore checks
the exact cells against hand-derived fractions first, then rounds them
the same way the reference was rounded.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from bntrim import (
    CostModel,
    build_instance_table,
    cond_independent_given_class,
    eca,
    eca_bruteforce,
    eca_trim,
    empirical_agreement,
    esdp_two_threshold,
    exhaustive_trim,
    ig_select,
    info_gain,
    maa,
    maa_bruteforce,
    mpa,
    posterior_class,
    trimsearch,
)

from conftest import (
    acceptance_instances,
    nb_instance,
    nested_subsets,
    random_nb_instance,
    random_subset,
)


@pytest.fixture(scope="module")
def seeded_instances():
    """The 200 seeded models of ``acceptance_instances``."""
    return acceptance_instances()


def _trimmed(clf, features, threshold):
    return replace(clf, features=tuple(features), threshold=threshold)


def _round_preserving_total(values, places=2):
    """Round to ``places`` decimals by largest remainder, so the rounded
    values sum to the rounded total.  Arithmetic is on exact fractions so
    float artefacts cannot move a floor; ties go to the earlier position."""
    scale = 10**places
    scaled = [Fraction(v) * scale for v in values]
    units = [math.floor(x) for x in scaled]
    leftover = round(sum(scaled)) - sum(units)
    by_remainder = sorted(range(len(values)), key=lambda i: (units[i] - scaled[i], i))
    for i in by_remainder[:leftover]:
        units[i] += 1
    return [u / scale for u in units]


def test_criterion_1_two_feature_table_fidelity(gbn4_net, gbn4_alpha):
    start = time.perf_counter()
    kept = ("F1", "F2")
    result = maa(gbn4_net, gbn4_alpha, kept)
    oracle_score, oracle_threshold = maa_bruteforce(gbn4_net, gbn4_alpha, kept)
    table = build_instance_table(gbn4_net, gbn4_alpha, kept)
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0
    assert abs(result.score - 0.5528) <= 1e-9
    assert abs(result.score - oracle_score) <= 1e-12
    assert result.interval.contains(oracle_threshold)
    assert result.interval.lo == 0.0
    assert result.interval.hi == 0.5

    # Reference column order is by descending posterior.
    rows = list(zip(table.mass.tolist()[::-1], table.rate.tolist()[::-1]))
    positive = [m * r for m, r in rows]
    negative = [m * (1.0 - r) for m, r in rows]
    exact_positive = [Fraction(9, 250), Fraction(243, 1250), Fraction(189, 625), Fraction(0)]
    exact_negative = [Fraction(11, 250), Fraction(171, 625), Fraction(81, 625), Fraction(1, 50)]
    for got, want in zip(positive + negative, exact_positive + exact_negative):
        assert abs(got - float(want)) <= 1e-12
    # The reference sums to 1.00: it was rounded by largest remainder
    # (total-preserving), which gives positive[1] = 0.1944 -> 0.20.
    assert _round_preserving_total(positive + negative) == (
        [0.04, 0.20, 0.30, 0.00] + [0.04, 0.27, 0.13, 0.02]
    )


def test_criterion_2_three_feature_quiz_fidelity(quiz_net, quiz_alpha):
    start = time.perf_counter()
    agreement = eca(quiz_net, quiz_alpha, _trimmed(quiz_alpha, ("Q1", "Q3"), 0.10))
    posterior_up = posterior_class(quiz_net, quiz_alpha, {"Q3": 0})
    posterior_down = posterior_class(quiz_net, quiz_alpha, {"Q3": 1})
    full_table = build_instance_table(quiz_net, quiz_alpha, quiz_alpha.features)
    positive_rate = math.fsum(
        m for m, r in zip(full_table.mass.tolist(), full_table.rate.tolist()) if r == 1.0
    )
    single_feature = eca(quiz_net, quiz_alpha, _trimmed(quiz_alpha, ("Q3",), 0.15))
    empty_best = maa(quiz_net, quiz_alpha, ()).score
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0
    assert abs(agreement - 0.9082) <= 1e-9
    assert abs(agreement - 0.91) <= 0.005
    assert abs(posterior_up - 0.18) <= 0.005
    assert abs(posterior_down - 0.08) <= 0.005
    # Oracle replacements for unconfirmable narrative figures.
    assert abs(positive_rate - 0.2682) <= 1e-9
    assert abs(single_feature - 0.6918) <= 1e-9
    assert abs(empty_best - 0.7318) <= 1e-9


def test_criterion_3_search_matches_exhaustive_on_200_instances(seeded_instances):
    start = time.perf_counter()
    worst = 0.0
    for net, clf, costs in seeded_instances:
        searched = eca_trim(net, clf, costs)
        oracle = exhaustive_trim(net, clf, costs)
        gap = abs(searched.best_score - oracle.best_score)
        worst = max(worst, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n  200 instances, worst score gap {worst:.3g}, {elapsed:.1f}s")


def test_criterion_4_bounds_sound_and_monotone(seeded_instances):
    independent_hits = 0
    for i, (net, clf, _) in enumerate(seeded_instances):
        for subset, nested in nested_subsets(clf, i):
            upper = mpa(net, clf, subset)
            achieved = maa(net, clf, subset).score
            assert achieved <= upper + 1e-9
            assert mpa(net, clf, nested) <= upper + 1e-9
            if cond_independent_given_class(net, clf, subset):
                independent_hits += 1
                assert abs(achieved - upper) <= 1e-9
    assert independent_hits > 0
    print(f"\n  2000 subsets, {independent_hits} with the kept set independent of the rest")


def test_criterion_5_agreement_identities(seeded_instances):
    worst_two_threshold = worst_bruteforce = 0.0
    for i, (net, clf, _) in enumerate(seeded_instances):
        for subset, _ in nested_subsets(clf, i):
            beta = _trimmed(clf, subset, maa(net, clf, subset).interval.representative)
            direct = eca(net, clf, beta)
            dropped = tuple(f for f in clf.features if f not in subset)
            two_threshold = esdp_two_threshold(net, clf, beta.threshold, dropped, subset)
            brute = eca_bruteforce(net, clf, beta)
            worst_two_threshold = max(worst_two_threshold, abs(direct - two_threshold))
            worst_bruteforce = max(worst_bruteforce, abs(direct - brute))
            assert abs(direct - two_threshold) <= 1e-12
            assert abs(direct - brute) <= 1e-12
    print(
        f"\n  worst |eca - two-threshold| {worst_two_threshold:.3g}, "
        f"worst |eca - bruteforce| {worst_bruteforce:.3g}"
    )


def test_criterion_6_search_effort_beats_enumeration():
    start = time.perf_counter()
    net, clf = nb_instance(random.Random(1207), 12, max_card=2)
    costs = CostModel.unit(clf.features, 4)
    generic = trimsearch._run(net, clf, costs, None, nb_frontier_only=False)
    fast = eca_trim(net, clf, costs)
    oracle = exhaustive_trim(net, clf, costs)
    elapsed = time.perf_counter() - start

    assert elapsed < 120.0
    assert oracle.stats.maa_evals == 794  # sum of binom(12, k) for k <= 4
    assert generic.stats.maa_evals + generic.stats.bound_evals < 794
    assert fast.stats.maa_evals <= 495  # binom(12, 4) budget-exhausting sets
    assert abs(generic.best_score - oracle.best_score) <= 1e-12
    assert abs(fast.best_score - oracle.best_score) <= 1e-12
    print(
        f"\n  generic {generic.stats.maa_evals}+{generic.stats.bound_evals} evals, "
        f"frontier {fast.stats.maa_evals}, exhaustive {oracle.stats.maa_evals}, {elapsed:.1f}s"
    )


def test_criterion_7_search_dominates_fixed_threshold_selection(seeded_instances):
    for i, (net, clf, costs) in enumerate(seeded_instances):
        best = eca_trim(net, clf, costs).best_score
        chosen = ig_select(info_gain(net, clf), costs)
        assert eca(net, clf, _trimmed(clf, chosen, clf.threshold)) <= best + 1e-12
        srng = random.Random(6000 + i)
        for _ in range(20):
            subset = random_subset(srng, clf)
            if costs.total(subset) > costs.budget:
                continue
            assert eca(net, clf, _trimmed(clf, subset, clf.threshold)) <= best + 1e-12


def test_criterion_8_simulation_matches_exact_agreement(quiz_net, quiz_alpha):
    beta = _trimmed(quiz_alpha, ("Q1", "Q3"), 0.10)
    estimate = empirical_agreement(quiz_net, quiz_alpha, beta, 50_000, seed=20260814)
    assert abs(estimate - 0.9082) <= 0.01
    print(f"\n  50k-sample estimate {estimate:.6f} vs exact 0.9082")


def test_criterion_9_positive_rate_monotone_along_sorted_rows():
    rng = random.Random(99)
    for i in range(500):
        net, clf = random_nb_instance(rng)
        subset = random_subset(random.Random(7000 + i), clf)
        crossed_up = False
        for rate in build_instance_table(net, clf, subset).rate.tolist():
            if rate > 0.5:
                crossed_up = True
            else:
                assert not (crossed_up and rate < 0.5)
