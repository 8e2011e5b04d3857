"""The grid route's row sums.

``agreement._column_sums`` must return, bit for bit, what ``math.fsum``
gives for every row of a (cell, row, kind) layout, per group of kinds, on
both sides of its ``_NUMPY_MIN_CELLS`` crossover; ``_grid_rows`` must read
each row's grid cells, rows in C order over the kept features; and
``build_instance_table``, which takes its row sums from one
``_column_sums`` call on a ``_grid_layout``, and ``mpa``, ``eca`` and
``maa``, which read the table it builds, must give the same floats as
the per-row ``fsum`` loops they replaced (copied below as ``loop_*``,
with each row named by its C-order index), on both sides of that
crossover.  The search's node tensors split the grid's cells once
(``agreement._split``): each extracted level must sum exactly with
``np.sum``, and the rows ``_MpaBound._sums`` rounds from them must be
``fsum``'s, with or without a remainder."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bntrim import (
    BayesianNetwork,
    Classifier,
    InstanceTable,
    build_instance_table,
    compute_maa,
    eca,
    maa,
    mpa,
)
from bntrim import agreement
from bntrim.agreement import (
    _NUMPY_MIN_CELLS, _classifier_grid, _column_sums, _grid_layout, _grid_rows,
)
from bntrim.bnmodel import kept_in_order

from conftest import dag_networks, nb_instance, random_dag_instance, random_subset


def fsum_hex(x: np.ndarray) -> list[str]:
    return [math.fsum(row).hex() for row in x.tolist()]


def hexes(sums: np.ndarray) -> list[str]:
    return [v.hex() for v in sums.tolist()]


def split_layout(cells: np.ndarray, cut: int) -> np.ndarray:
    """A (cell, row) array's cells split at ``cut`` into two kinds of one
    (cell, row, kind) layout, the shorter zero-padded: the layout of a
    mass, whose group (0, 1) adds its pos and neg cells."""
    height = max(cut, len(cells) - cut)
    layout = np.zeros((height, cells.shape[1], 2))
    layout[:cut, :, 0] = cells[:cut]
    layout[:len(cells) - cut, :, 1] = cells[cut:]
    return layout


def row_sums_hex(x: np.ndarray) -> list[str]:
    """_column_sums of the rows of x, laid out one kind per cell, as hex."""
    return hexes(_column_sums(np.ascontiguousarray(x.T)[:, :, None], ((0,),))[0])


def sums_and_fallbacks(x: np.ndarray, monkeypatch) -> tuple[list[str], int]:
    """_column_sums of the rows of x as hex, and how many rows it summed
    again with fsum."""
    calls = []
    real_fsum = math.fsum
    with monkeypatch.context() as m:
        m.setattr(math, "fsum", lambda cells: calls.append(1) or real_fsum(cells))
        got = row_sums_hex(x)
    return got, len(calls)


def tie_row(rng: random.Random, width: int) -> list[float]:
    """x, a power of two, plus pieces summing to x * 2**-53, half an ulp
    of x: the row's sum lies exactly halfway between two floats."""
    x = 2.0 ** -rng.randint(0, 900)
    split = rng.randint(0, max(0, min(3, (width - 1).bit_length() - 1)))
    row = [x] + [x * 2.0 ** (-53 - split)] * (1 << split)
    row += [0.0] * (width - len(row))
    rng.shuffle(row)
    return row


def fill_row(rng: random.Random, width: int, kind: str) -> list[float]:
    if kind == "uniform":
        return [rng.random() for _ in range(width)]
    if kind == "binades":  # mixed magnitudes, 1e-300 to 1
        return [rng.random() * 10.0 ** -rng.randint(0, 300) for _ in range(width)]
    if kind == "subnormal":  # masses near 2**-1074, some just above 2**-1022
        return [rng.randint(0, 1 << 20) * 2.0 ** -rng.choice((1074, 1060, 1040)) for _ in range(width)]
    if kind == "zero":
        return [0.0] * width
    if kind == "sparse":  # mostly zeros, like hit cells
        return [rng.random() if rng.random() < 0.2 else 0.0 for _ in range(width)]
    if kind == "tie" and width >= 2:
        return tie_row(rng, width)
    return [float(rng.randint(0, 8)) * 2.0 ** -rng.randint(0, 60) for _ in range(width)]


KINDS = ("uniform", "binades", "subnormal", "zero", "sparse", "tie", "dyadic")


@st.composite
def row_arrays(draw):
    """Arrays of 1-4096 rows of width 1-4096 (at most 2**15 cells), each
    row drawn from one of KINDS."""
    width = draw(st.one_of(st.integers(1, 64), st.integers(1, 4096)))
    rows = draw(st.integers(1, min(4096, (1 << 15) // width)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    return np.array([fill_row(rng, width, rng.choice(kinds)) for _ in range(rows)]).reshape(rows, width)


@st.composite
def block_lists(draw):
    """1-4 blocks, each the cells of its rows split between one or two
    kinds of unequal heights, as information gain and tables lay out a
    row's cells, with each block's fsum per row.  A block's rows are
    drawn from KINDS over its full height and split between its kinds,
    so a tie row's cells may sit in both.  A block's layout, its rows
    times its taller kind's height times its kinds, falls below
    ``_NUMPY_MIN_CELLS`` or not as ``above`` is drawn."""
    above = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    splits = st.lists(st.integers(1, 80), min_size=1, max_size=2)
    heights = draw(st.lists(splits, min_size=1, max_size=4))
    counts = draw(st.lists(st.integers(1, 40), min_size=len(heights), max_size=len(heights)))
    crossover = agreement._NUMPY_MIN_CELLS
    blocks, expected = [], []
    for split, n in zip(heights, counts):
        size = max(split) * len(split)
        n = max(n, -(-crossover // size)) if above else max(1, min(n, (crossover - 1) // size))
        x = np.array([fill_row(rng, sum(split), rng.choice(kinds)) for _ in range(n)])
        expected.append(fsum_hex(x))
        cells = np.ascontiguousarray(x.T)
        blocks.append(split_layout(cells, split[0]) if len(split) == 2 else cells[:, :, None])
    assert all((b.size >= crossover) == above for b in blocks)
    return blocks, expected


class TestRowSums:
    """The numpy pass itself: the crossover at 0 sends every call to it."""

    @pytest.fixture(autouse=True)
    def tree_only(self, monkeypatch):
        monkeypatch.setattr(agreement, "_NUMPY_MIN_CELLS", 0)

    @settings(max_examples=200, deadline=None)
    @given(row_arrays(), st.data())
    def test_same_bits_as_fsum_per_row(self, x, data):
        expected = fsum_hex(x)
        assert row_sums_hex(x) == expected
        # The same cells laid out anew: a transposed view, and split
        # between two kinds of one group.
        assert hexes(_column_sums(x.T[:, :, None], ((0,),))[0]) == expected
        cut = data.draw(st.integers(1, x.shape[1]))
        layout = split_layout(np.ascontiguousarray(x.T), cut)
        assert hexes(_column_sums(layout, ((0, 1),))[0]) == expected

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 4095, 4096])
    def test_edge_widths(self, width):
        rng = random.Random(width)
        x = np.array([fill_row(rng, width, kind) for kind in KINDS for _ in range(3)])
        assert row_sums_hex(x) == fsum_hex(x)

    def test_all_zero_rows_are_zero(self, monkeypatch):
        assert row_sums_hex(np.zeros((5, 37))) == [0.0.hex()] * 5
        # The smallest positive cell _certify may settle ties by: none in
        # an all-zero layout, so inf, and the least cell among subnormal
        # ones, as numpy's masked minimum gives it.
        smallest = []
        real_certify = agreement._certify

        def certify(s, e, bound, kinds, cells, least):
            smallest.append(least())
            return real_certify(s, e, bound, kinds, cells, least)

        monkeypatch.setattr(agreement, "_certify", certify)
        tiny = np.array([[0.0, 3 * 2.0**-1074, 2.0**-1060], [5 * 2.0**-1074, 0.0, 2.0**-1022]])
        for x, want in ((np.zeros((5, 37)), math.inf), (tiny, 3 * 2.0**-1074)):
            assert row_sums_hex(x) == fsum_hex(x)
            assert smallest == [want] == [x.min(initial=math.inf, where=x > 0.0).item()]
            smallest.clear()

    def test_fallback_runs_on_rows_it_cannot_certify(self, monkeypatch):
        # Exact halfway ties whose cells span some 54 binades: the sum is
        # no nearer one float than the other, and the smallest cell is too
        # fine for the exactness test.  [x, y, y] and [x, y] + 0 pad with
        # y a power of two under half an ulp of x.  Then [1, 2**-53,
        # 2**-106]: just above halfway, with the error sum inexact, so
        # only fsum rounds it up.
        rows = [
            [1.0, 2.0**-54, 2.0**-54],
            [2.0**-20, 2.0**-74, 2.0**-74],
            [1.5, 2.0**-53, 0.0],
            [2.0**-1000, 2.0**-1054, 2.0**-1054],
            [1.0, 2.0**-53, 2.0**-106],
        ]
        x = np.array(rows)
        expected = fsum_hex(x)
        assert expected[-1] == (1.0 + 2.0**-52).hex()
        assert sums_and_fallbacks(x, monkeypatch) == (expected, len(rows))

    def test_ties_between_cells_of_one_scale_are_certified_exact(self, monkeypatch):
        # 1 + (1 + 2**-52) lies halfway between 2 and 2 + 2**-51; the
        # cells' scale proves the error sum exact, so rounding it to even
        # needs no fallback.
        x = np.array([[1.0, 1.0 + 2.0**-52, 0.0], [0.75, 0.75 + 2.0**-53, 0.5]])
        assert sums_and_fallbacks(x, monkeypatch) == (fsum_hex(x), 0)


def is_halfway(cells: list[float]) -> bool:
    """The exact sum of the cells lies halfway between two floats."""
    total = sum(map(Fraction, cells))
    below = math.nextafter(float(total), 0.0) if Fraction(float(total)) > total else float(total)
    above = math.nextafter(below, math.inf)
    return 2 * (total - Fraction(below)) == Fraction(above) - Fraction(below)


def one_scale_tie_layout(rng: random.Random, rows: int) -> np.ndarray:
    """A (cell, row, kind) table layout of two cells per row and kind,
    every cell in [1/4, 2), as a kept-11 table of a 12-feature model lays
    out its pos, neg and hit cells.  The two pos cells of a row share a
    binade and have mantissas of odd sum, so their sum is an exact
    halfway tie; the other kinds are random."""
    layout = np.empty((2, rows, 3))
    for row in range(rows):
        binade = 2.0 ** -rng.randint(0, 2)
        a, b = rng.getrandbits(52), rng.getrandbits(52)
        b ^= (a + b) & 1 ^ 1
        layout[:, row, 0] = [(1.0 + m * 2.0**-52) * binade for m in (a, b)]
        layout[:, row, 1:] = [[rng.uniform(0.25, 2.0) for _ in range(2)] for _ in range(2)]
    return layout


class TestRowSumBlocks:
    @settings(max_examples=200, deadline=None)
    @given(block_lists())
    def test_same_bits_as_fsum_of_each_blocks_cells(self, case):
        blocks, expected = case
        for layout, want in zip(blocks, expected):
            group = tuple(range(layout.shape[2]))
            assert hexes(_column_sums(layout, (group,))[0]) == want

    def test_crossover_counts_the_laid_out_cells(self, monkeypatch):
        # Ties force the numpy pass's fallback, so fsum is called once per
        # row and group below the crossover and once per tie above it.
        rng = random.Random(5)
        layout = np.zeros((6, 8, 2))
        layout[:, :, 0] = np.array([tie_row(rng, 6) for _ in range(8)]).T
        layout[:2, :, 1] = np.array([fill_row(rng, 2, "dyadic") for _ in range(8)]).T
        real_fsum = math.fsum
        for crossover, fsums in ((6 * 8 * 2 + 1, 16), (6 * 8 * 2, 8)):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(agreement, "_NUMPY_MIN_CELLS", crossover)
                m.setattr(math, "fsum", lambda cells: calls.append(1) or real_fsum(cells))
                _column_sums(layout, ((0,), (1,)))
            assert len(calls) == fsums

    def test_ties_settle_without_a_cell_read(self, monkeypatch):
        # Above the crossover, halfway ties between cells of one scale are
        # settled by the layout's smallest positive cell: _certify's reader
        # of the rows' cells is never called.
        layout = one_scale_tie_layout(random.Random(34), 512)
        assert layout.size >= _NUMPY_MIN_CELLS
        kinds = agreement._TABLE_KINDS
        wanted = [
            [math.fsum(layout[:, row, list(g)].ravel().tolist()) for row in range(layout.shape[1])]
            for g in kinds
        ]
        assert all(is_halfway(layout[:, row, 0].tolist()) for row in range(layout.shape[1]))
        real_certify = agreement._certify

        def certify(s, e, bound, kinds, cells, smallest):
            def unread(rows):
                raise AssertionError(f"cells of {len(rows)} rows read")
            return real_certify(s, e, bound, kinds, unread, smallest)

        monkeypatch.setattr(agreement, "_certify", certify)
        got = _column_sums(layout, kinds)
        assert [hexes(sums) for sums in got] == [[v.hex() for v in w] for w in wanted]


class TestRowCells:
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_hold_each_instantiations_cells_in_c_order(self, seed):
        # _grid_rows reads each row's cells of every kind, and
        # _column_sums of the _grid_layout sums them, for rows in C order
        # over the kept features.
        rng = random.Random(7300 + seed)
        net, clf = nb_instance(rng, rng.randint(1, 5), max_card=3)
        grid = _classifier_grid(net, clf)
        n = len(clf.features)
        drawn = [tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(3)]
        kinds = ((0,), (1,), (2,), (0, 1))
        for axes in [(), tuple(range(n)), *drawn]:
            kept_shape = [grid.shape[1 + i] for i in axes]
            rows = math.prod(kept_shape)
            got = _grid_rows(grid, axes)(np.arange(rows))
            assert got.shape[:2] == (3, rows)
            sums = _column_sums(_grid_layout(grid, axes, kinds), kinds)
            for row, kept_values in enumerate(np.ndindex(*kept_shape)):
                index = [slice(None)] * n
                for i, v in zip(axes, kept_values):
                    index[i] = v
                for k in range(3):
                    assert sorted(got[k, row].tolist()) == sorted(grid[(k, *index)].ravel().tolist())
                for g, group in enumerate(kinds):
                    cells = np.concatenate([grid[(k, *index)].ravel() for k in group])
                    assert sums[g][row] == math.fsum(cells.tolist())


# --- The per-row fsum loops the grid route used before _row_sums. ---------


def loop_cells(net: BayesianNetwork, clf: Classifier, kept_t: tuple[str, ...]):
    """Flat row-major lists of pos, neg and hit cells, and the width."""
    grid = _classifier_grid(net, clf)
    axes = [1 + clf.features.index(f) for f in kept_t]
    rest = [a for a in range(1, grid.ndim) if a not in axes]
    rows = math.prod(grid.shape[a] for a in axes)
    pos, neg, hit = grid.transpose([0, *axes, *rest]).reshape(3, rows, -1)
    return pos.shape[1], np.ravel(pos).tolist(), np.ravel(neg).tolist(), np.ravel(hit).tolist()


def loop_table(net: BayesianNetwork, clf: Classifier, kept) -> InstanceTable:
    kept_t = kept_in_order(clf, kept)
    width, pos, neg, hit = loop_cells(net, clf, kept_t)
    rows = []
    for index, lo in enumerate(range(0, len(pos), width)):
        hi = lo + width
        pos_cells = pos[lo:hi]
        m = math.fsum(pos_cells + neg[lo:hi])
        if m <= 0.0:
            continue
        posterior = min(math.fsum(pos_cells) / m, 1.0)
        rate = min(math.fsum(hit[lo:hi]) / m, 1.0)
        rows.append((index, m, posterior, rate))
    rows.sort(key=lambda r: r[2])
    return InstanceTable(kept_t, *(np.array(column) for column in zip(*rows)))


def loop_mpa(net: BayesianNetwork, clf: Classifier, kept) -> float:
    width, pos, neg, hit = loop_cells(net, clf, kept_in_order(clf, kept))
    terms = []
    for lo in range(0, len(pos), width):
        hi = lo + width
        m = math.fsum(pos[lo:hi] + neg[lo:hi])
        if m > 0.0:
            rate = min(math.fsum(hit[lo:hi]) / m, 1.0)
            terms.append(max(rate, 1.0 - rate) * m)
    return math.fsum(terms)


def loop_eca(table: InstanceTable, t: float) -> float:
    return math.fsum(
        r * m if p >= t else (1.0 - r) * m
        for m, p, r in zip(table.mass.tolist(), table.posterior.tolist(), table.rate.tolist())
    )


def row_hex(table: InstanceTable) -> list[tuple]:
    floats = ([x.hex() for x in a.tolist()] for a in (table.mass, table.posterior, table.rate))
    return list(zip(table.rows.tolist(), *floats))


def assert_same_as_loops(net: BayesianNetwork, clf: Classifier, kept) -> None:
    reference = loop_table(net, clf, kept)
    assert row_hex(build_instance_table(net, clf, kept)) == row_hex(reference)
    assert mpa(net, clf, kept).hex() == loop_mpa(net, clf, kept).hex()
    ts = {clf.threshold, 0.0, 1.0, 2.0}
    ts.update(reference.posterior.tolist()[:: max(1, len(reference.rows) // 4)])
    for t in sorted(ts):
        beta = replace(clf, features=reference.features, threshold=t)
        assert eca(net, clf, beta).hex() == loop_eca(reference, t).hex()
    got, want = maa(net, clf, kept), compute_maa(reference)
    assert got.score.hex() == want.score.hex()
    assert got.interval == want.interval


def grid_cells(net: BayesianNetwork, clf: Classifier) -> int:
    return math.prod(net.var(f).cardinality for f in clf.features)


def subsets(rng: random.Random, clf: Classifier) -> list[tuple[str, ...]]:
    return [(), clf.features, clf.features[:1], *(random_subset(rng, clf) for _ in range(4))]


def split_bound(grid: np.ndarray) -> agreement._MpaBound:
    """The search's root bound over a (kind, A, B) grid, features A and
    B, its node tensor laid out B first, as a search deciding A first
    lays it out."""
    clf = Classifier("C", 0, ("A", "B"), 0.5)
    smallest = grid.min(initial=math.inf, where=grid > 0.0).item()
    stack = np.stack((grid[0] + grid[1], grid[2]))
    return agreement._MpaBound(clf, grid, stack, 0, smallest, None, (1, 0))


def fsum_out(cells: np.ndarray, axes: tuple[int, ...]) -> list[float]:
    """fsum over the given axes, a float per index of the others in C
    order."""
    kept = [a for a in range(cells.ndim) if a not in axes]
    moved = cells.transpose(*kept, *axes)
    return [math.fsum(row) for row in moved.reshape(math.prod(moved.shape[:len(kept)]), -1).tolist()]


@st.composite
def small_row_arrays(draw):
    """row_arrays' rows, at most 64 of width at most 64."""
    width, rows = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    return np.array([fill_row(rng, width, rng.choice(kinds)) for _ in range(rows)]).reshape(rows, width)


class TestSplit:
    KINDS = ((0, 1), (0,), (1,), (2,))

    @settings(max_examples=100, deadline=None)
    @given(small_row_arrays())
    def test_split_then_sum_rows_are_fsums(self, cells):
        # Wide-range cells (1e-300 to 1, subnormal, halfway ties) as pos
        # over features A and B, the rows reversed as neg, and a hit
        # where pos reaches neg.  Such grids split both ways: about a
        # fifth leave a remainder.
        pos, neg = cells, cells[::-1]
        grid = np.stack((pos, neg, np.where(pos >= neg, pos + neg, 0.0)))
        x = grid.transpose(1, 2, 0)
        parts, rest = agreement._split(x)
        assert len(parts) == (3 if rest else 2)
        # The parts of every cell add up to it, and each extracted
        # level's np.sum over any cells of a group is exact: fsum's.
        assert [math.fsum(p) for p in parts.reshape(len(parts), -1).T.tolist()] == x.ravel().tolist()
        for level in parts[:2]:
            for g in self.KINDS:
                for axes in ((0, 2), (1, 2), (0, 1, 2)):
                    got = level[..., list(g)].sum(axis=axes).ravel().tolist()
                    assert got == fsum_out(level[..., list(g)], axes)
        # The rows _sums rounds from the tensor, laid out B first, are
        # the fsums of their grid cells, remainder or none.
        bound = split_bound(grid)
        for features, axes in ((("A", "B"), (2,)), (("A",), (1, 2)), (("B",), (0, 2)), ((), (0, 1, 2))):
            sums, _ = bound._sums(features, self.KINDS)
            for group, g in zip(sums, self.KINDS):
                cells_of = np.moveaxis(grid[list(g)], 0, -1)
                if features == ("A", "B"):
                    cells_of = cells_of.transpose(1, 0, 2)
                assert hexes(group.ravel()) == [v.hex() for v in fsum_out(cells_of, axes)]


class TestSameBitsAsPerRowLoops:
    @pytest.mark.parametrize("seed", range(6))
    def test_binary_models_up_to_twelve_features(self, seed):
        rng = random.Random(7100 + seed)
        models = [
            nb_instance(rng, 12 - seed, max_card=2),
            random_dag_instance(rng, max_features=12, max_card=2),
            nb_instance(rng, rng.randint(2, 8), max_card=2),
        ]
        for net, clf in models:
            for kept in subsets(rng, clf):
                assert_same_as_loops(net, clf, kept)

    @pytest.mark.parametrize("seed", range(6))
    def test_cardinality_three(self, seed):
        rng = random.Random(7200 + seed)
        for net, clf in (
            nb_instance(rng, rng.randint(5, 7), max_card=3),
            random_dag_instance(rng, max_features=7, max_card=3),
        ):
            for kept in subsets(rng, clf):
                assert_same_as_loops(net, clf, kept)

    @settings(max_examples=60, deadline=None)
    @given(dag_networks(max_features=7, max_card=3), st.data())
    def test_deterministic_cpt_rows(self, model, data):
        net, clf = model
        kept = data.draw(st.sets(st.sampled_from(clf.features)))
        assert_same_as_loops(net, clf, kept)

    def test_models_cover_both_sides_of_the_crossover(self):
        # Every table of a model lays out 3 cells per grid cell: its pos,
        # neg and hit kinds.
        models = [nb_instance(random.Random(0), 12 - seed, max_card=2) for seed in range(6)]
        sizes = [3 * grid_cells(*model) for model in models]
        assert min(sizes) < _NUMPY_MIN_CELLS <= max(sizes)
