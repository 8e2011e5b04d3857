"""Exact agreement and same-decision probability over
``fractions.Fraction``: the reference the float routes are checked
against, sharing no code with them.

Every CPT entry is a float, hence a dyadic rational n / 2**k, so the
joint distribution of the network as written, every posterior, every
agreement and every same-decision probability are rationals that this
module computes without rounding.  It reads only ``net.variables``, the
CPTs' ``child``, ``parents`` and ``rows``, and the classifier's fields,
and it indexes CPT rows by its own row-major rule (last parent
fastest).  Decisions compare a posterior with ``Fraction(threshold)`` by
``>=``; rows tie only when their posteriors are equal fractions.

The joint is enumerated in full, once per model (cached), so models are
limited to ``MAX_FEATURES`` non-class variables of at most ``MAX_CARD``
values.  Kept features may be given in any order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

MAX_FEATURES = 8
MAX_CARD = 3


def cells(net, clf) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """{values of clf.features: (mass with the class positive, mass with
    it negative)} over every instantiation of the features, zero-mass ones
    included; variables that are not features are summed out."""
    return _cells(net, clf.class_var, clf.positive_value, clf.features)


@lru_cache(maxsize=16)
def _cells(net, class_var, positive, features):
    names = [v.name for v in net.variables]
    cards = [len(v.values) for v in net.variables]
    assert len(names) - 1 <= MAX_FEATURES and max(cards) <= MAX_CARD, "model too large"
    at = {name: q for q, name in enumerate(names)}
    cpts = {c.child: c for c in net.cpts}
    factors = []
    top = 0  # a common denominator 2**top for every product
    for q, name in enumerate(names):
        cpt = cpts[name]
        rows = [[_dyadic(x) for x in row] for row in cpt.rows]
        top += max(k for row in rows for _, k in row)
        factors.append((q, [at[p] for p in cpt.parents], rows))

    sums = {}
    feature_at = [at[f] for f in features]
    for values in itertools.product(*(range(card) for card in cards)):
        num, exp = 1, 0
        for child, parents, rows in factors:
            r = 0
            for q in parents:
                r = r * cards[q] + values[q]
            n, k = rows[r][values[child]]
            num, exp = num * n, exp + k
        key = (tuple(values[q] for q in feature_at), values[at[class_var]] == positive)
        sums[key] = sums.get(key, 0) + (num << (top - exp))
    unit = 1 << top
    return {
        fvals: (Fraction(sums[fvals, True], unit), Fraction(sums[fvals, False], unit))
        for fvals in itertools.product(*(range(cards[q]) for q in feature_at))
    }


def _dyadic(x: float) -> tuple[int, int]:
    """(n, k) with x == n / 2**k."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def rows(net, alpha, kept) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(posterior, mass, mass alpha labels positive) for every
    instantiation of the kept features with positive mass."""
    return _cached_rows(net, alpha, tuple(kept))


@lru_cache(maxsize=64)
def _cached_rows(net, alpha, kept):
    threshold = Fraction(alpha.threshold)
    index = [alpha.features.index(f) for f in kept]
    sums = {}
    for fvals, (pos, neg) in cells(net, alpha).items():
        mass = pos + neg
        if mass:
            key = tuple(fvals[i] for i in index)
            p, m, h = sums.get(key, (0, 0, 0))
            sums[key] = (p + pos, m + mass, h + (mass if pos / mass >= threshold else 0))
    return tuple((p / m, m, Fraction(h)) for p, m, h in sums.values())


def eca(net, alpha, kept, threshold) -> Fraction:
    """Agreement of alpha with its trimming to ``kept`` at ``threshold``."""
    t = Fraction(threshold)
    return sum((h if post >= t else m - h for post, m, h in rows(net, alpha, kept)), Fraction(0))


def mpa(net, alpha, kept) -> Fraction:
    """The bound where every row takes its larger side."""
    return sum((max(h, m - h) for _, m, h in rows(net, alpha, kept)), Fraction(0))


def maa(net, alpha, kept) -> Fraction:
    """Best agreement over every cut between exactly distinct posteriors."""
    groups = {}
    for post, m, h in rows(net, alpha, kept):
        gm, gh = groups.get(post, (0, 0))
        groups[post] = (gm + m, gh + h)
    score = sum((h for _, h in groups.values()), Fraction(0))  # everything positive
    best = score
    for post in sorted(groups):
        m, h = groups[post]
        score += m - 2 * h  # the group's side turns from positive to negative
        best = max(best, score)
    return best


def sdp(net, clf, query, evidence) -> Fraction | None:
    """Probability, given the evidence ({feature: value index}), that
    observing the query features too leaves the decision unchanged; None
    when the evidence has probability 0."""
    t = Fraction(clf.threshold)
    at = {f: i for i, f in enumerate(clf.features)}
    seen = [(at[f], v) for f, v in evidence.items()]
    index = [at[f] for f in query]
    groups = {}
    for fvals, (pos, neg) in cells(net, clf).items():
        if all(fvals[i] == v for i, v in seen):
            key = tuple(fvals[i] for i in index)
            p, m = groups.get(key, (0, 0))
            groups[key] = (p + pos, m + pos + neg)
    pe = sum((m for _, m in groups.values()), Fraction(0))
    if not pe:
        return None
    base = sum((p for p, _ in groups.values()), Fraction(0)) / pe >= t
    kept = (m for p, m in groups.values() if m and (p / m >= t) == base)
    return sum(kept, Fraction(0)) / pe
