"""The float routes against the exact rational reference in ``exact.py``.

The reference first reproduces hand-derived values.  Then the contracts
that hold today are checked on a seeded subsample of the acceptance
suite's models and on seeded models with deterministic (0/1) CPT rows,
each within 1e-12 of exact.  Known defects, of the float routes and of
the search on a benchmark model, are strict xfails that name their
ROADMAP item, so the fix that mends one turns its test into an
unexpected pass, which fails the run until the mark goes.
"""

from __future__ import annotations

import ast
import itertools
import math
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bntrim import (
    BayesianNetwork,
    Classifier,
    Cpt,
    Variable,
    ZeroEvidenceError,
    eca,
    eca_bruteforce,
    eca_trim,
    esdp_two_threshold,
    exhaustive_trim,
    maa,
    maa_bruteforce,
    mpa,
    sdp,
)

import exact
from conftest import (
    acceptance_instances,
    nested_subsets,
    random_dag_instance,
    random_nb_instance,
    random_subset,
    trim_pool_19,
)

TOL = 1e-12


def is_decimal(value: Fraction, want: Fraction) -> bool:
    """The exact value of a network whose CPT entries are decimals: the
    floats' representation error moves it by far less than 2**-50, and
    the nearest fraction with a small denominator is the decimal one."""
    return value.limit_denominator(10_000) == want and abs(value - want) < Fraction(1, 2**50)


def interior(interval) -> float:
    """A threshold strictly inside a finite interval, or 0 / lo + 1 at
    an infinite end."""
    if interval.lo == -math.inf:
        return 0.0
    if interval.hi == math.inf:
        return interval.lo + 1.0
    return (interval.lo + interval.hi) / 2


def near_tie_net() -> tuple[BayesianNetwork, Classifier]:
    """C -> A, (C, A) -> B with Pr(C = pos) = 1/2: the kept set {A} has
    two posteriors 1 + 1e-10 apart in relative terms."""
    a0 = 0.5 * (1 + 1e-10)
    net = BayesianNetwork(
        (
            Variable("C", ("pos", "neg")),
            Variable("A", ("a0", "a1")),
            Variable("B", ("b0", "b1")),
        ),
        (
            Cpt("C", (), ((0.5, 0.5),)),
            Cpt("A", ("C",), ((a0, 1 - a0), (0.5, 0.5))),
            Cpt("B", ("C", "A"), ((0.9, 0.1), (0.5, 0.5), (0.3, 0.7), (0.5, 0.5))),
        ),
    )
    return net, Classifier("C", 0, ("A", "B"), 0.5)


class TestReference:
    def test_shares_nothing_with_the_float_routes(self):
        source = pathlib.Path(exact.__file__).read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert imported == {"__future__", "itertools", "fractions", "functools"}
        assert "_plan" not in source

    def test_criterion_1_cells(self, gbn4_net, gbn4_alpha):
        # Rows by descending posterior, as criterion 1's reference table.
        rows = sorted(exact.rows(gbn4_net, gbn4_alpha, ("F1", "F2")), reverse=True)
        positive = [h for _, _, h in rows]
        negative = [m - h for _, m, h in rows]
        want_positive = [Fraction(9, 250), Fraction(243, 1250), Fraction(189, 625), Fraction(0)]
        want_negative = [Fraction(11, 250), Fraction(171, 625), Fraction(81, 625), Fraction(1, 50)]
        for got, want in zip(positive + negative, want_positive + want_negative):
            assert is_decimal(got, want)
        # 0.9 + 0.1 exceeds 1 by 2**-55 as floats; the total is 1 up to that.
        assert is_decimal(sum(positive + negative), Fraction(1))

    def test_quiz_trimming(self, quiz_net, quiz_alpha):
        agreement = exact.eca(quiz_net, quiz_alpha, ("Q1", "Q3"), 0.10)
        assert is_decimal(agreement, Fraction(9082, 10_000))

    def test_near_tie_net(self):
        # The two posteriors of {A} differ, so a cut between them exists
        # and scores 0.7999999999975; the scalar oracle finds it.
        net, clf = near_tie_net()
        assert len({post for post, _, _ in exact.rows(net, clf, ("A",))}) == 2
        best = exact.maa(net, clf, ("A",))
        assert float(best) == 0.7999999999975
        assert abs(maa_bruteforce(net, clf, ("A",))[0] - best) <= TOL


FULL = acceptance_instances()


def subsample() -> list:
    """Two of the ten criterion-5 subsets of each of twelve seeded models."""
    rng = random.Random(20261018)
    picks = []
    for i in sorted(rng.sample(range(len(FULL)), 12)):
        distinct = list(dict.fromkeys(s for s, _ in nested_subsets(FULL[i][1], i)))
        for kept in rng.sample(distinct, min(2, len(distinct))):
            picks.append(pytest.param(i, kept, id=f"{i}-{'+'.join(kept) or 'none'}"))
    return picks


@pytest.mark.parametrize("i, kept", subsample())
def test_float_routes_match_exact(i, kept):
    net, clf, _ = FULL[i]
    result = maa(net, clf, kept)
    best = exact.maa(net, clf, kept)
    assert abs(result.score - best) <= TOL
    assert abs(mpa(net, clf, kept) - exact.mpa(net, clf, kept)) <= TOL

    t = interior(result.interval)
    at_t = exact.eca(net, clf, kept, t)
    assert abs(at_t - best) <= TOL  # maa's interval achieves its score
    beta = replace(clf, features=kept, threshold=t)
    dropped = tuple(f for f in clf.features if f not in kept)
    assert abs(eca(net, clf, beta) - at_t) <= TOL
    assert abs(esdp_two_threshold(net, clf, t, dropped, kept) - at_t) <= TOL
    assert abs(eca_bruteforce(net, clf, beta) - at_t) <= TOL


def sdp_cases(count: int = 40) -> list:
    """Seeded criterion-5 models, each with one observed feature and 1-3
    queried ones."""
    rng = random.Random(20261019)
    picks = []
    for _ in range(count):
        i = rng.randrange(len(FULL))
        features = FULL[i][1].features
        picked = rng.sample(features, min(len(features), 1 + rng.randint(1, 3)))
        picks.append(pytest.param(i, picked[0], tuple(picked[1:]), id=f"{i}-{'+'.join(picked)}"))
    return picks


@pytest.mark.parametrize("i, observed, query", sdp_cases())
def test_sdp_matches_exact(i, observed, query):
    # Every value of the observed feature: a zero-mass one is refused.
    net, clf, _ = FULL[i]
    for value in range(net.var(observed).cardinality):
        evidence = {observed: value}
        want = exact.sdp(net, clf, query, evidence)
        if want is None:
            with pytest.raises(ZeroEvidenceError):
                sdp(net, clf, query, evidence)
        else:
            assert abs(sdp(net, clf, query, evidence) - want) <= TOL


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("i, kept", subsample())
def test_edge_thresholds_match_exact(i, kept, threshold):
    # The original classifier at 0 (everything positive), 1 (positive
    # only on a certain posterior) and 2 (nothing positive), and its
    # trimming at each of them.
    net, clf, _ = FULL[i]
    clf = replace(clf, threshold=threshold)
    assert abs(maa(net, clf, kept).score - exact.maa(net, clf, kept)) <= TOL
    assert abs(mpa(net, clf, kept) - exact.mpa(net, clf, kept)) <= TOL
    for t in (0.0, 1.0, 2.0):
        beta = replace(clf, features=kept, threshold=t)
        assert abs(eca(net, clf, beta) - exact.eca(net, clf, kept, t)) <= TOL


def with_deterministic_rows(rng: random.Random, net: BayesianNetwork) -> BayesianNetwork:
    """The model with each CPT row, with probability 0.4, replaced by a
    one-hot row: zero-mass instantiations and posteriors of exactly 0 or
    1 follow."""
    cpts = []
    for cpt in net.cpts:
        rows = []
        for row in cpt.rows:
            if rng.random() < 0.4:
                hot = rng.randrange(len(row))
                row = tuple(float(j == hot) for j in range(len(row)))
            rows.append(row)
        cpts.append(Cpt(cpt.child, cpt.parents, tuple(rows)))
    return BayesianNetwork(net.variables, tuple(cpts))


def deterministic_models(count: int = 80) -> list:
    """Seeded naive-Bayes and DAG models of at most 6 features of at most
    3 values, with deterministic rows, each with four kept subsets."""
    rng = random.Random(41)
    picks = []
    for i in range(count):
        make = random_nb_instance if i % 2 == 0 else random_dag_instance
        net, clf = make(rng, max_features=6, max_card=3)
        net = with_deterministic_rows(rng, net)
        kept = [random_subset(rng, clf) for _ in range(4)]
        picks.append(pytest.param(net, clf, kept, id=str(i)))
    return picks


@pytest.mark.parametrize("net, clf, subsets", deterministic_models())
def test_deterministic_rows_match_exact(net, clf, subsets):
    for kept in subsets:
        assert abs(maa(net, clf, kept).score - exact.maa(net, clf, kept)) <= TOL
        assert abs(mpa(net, clf, kept) - exact.mpa(net, clf, kept)) <= TOL
        for t in (0.0, 0.3, 0.5, 1.0, 2.0):
            beta = replace(clf, features=kept, threshold=t)
            assert abs(eca(net, clf, beta) - exact.eca(net, clf, kept, t)) <= TOL


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect A: maa merges posteriors within a relative 1e-9 "
    "and scores 0.6999999999775 where the exact best is 0.7999999999975",
)
def test_near_tie_maa_is_exact():
    net, clf = near_tie_net()
    assert abs(maa(net, clf, ("A",)).score - exact.maa(net, clf, ("A",))) <= TOL


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect B: maa's representative is hi, an attained "
    "posterior; on criterion-5 instance 0 keeping (X1, X3, X7) maa scores "
    "0.8212080951725622 and the exact agreement there is 0.8157947435892504",
)
def test_representative_reproduces_maa_score():
    net, clf, _ = FULL[0]
    kept = ("X1", "X3", "X7")
    result = maa(net, clf, kept)
    at_rep = exact.eca(net, clf, kept, result.interval.representative)
    assert abs(result.score - at_rep) <= TOL


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2, soundness gap: mpa falls 1 ulp below maa(S*) on 20 of "
    "the 64 supersets of the exhaustive optimum's subset S*, so the search prunes "
    "S* and scores 0x1.d2210e189b1b2p-1 against exhaustive_trim's 0x1.d2210e189b1b3p-1",
)
def test_search_equals_exhaustive_on_trim_pool_19():
    net, clf, costs = trim_pool_19()
    best = exhaustive_trim(net, clf, costs)
    rest = [f for f in clf.features if f not in best.best_features]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            assert mpa(net, clf, best.best_features + extra) >= best.best_score
    assert eca_trim(net, clf, costs).best_score == best.best_score
