from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankaudit import (
    CandidateRecord,
    ChurnCell,
    CutoffOutOfRange,
    DayMissing,
    QuerySeries,
    RankingSnapshot,
    UnknownLabel,
    anchored_pairs,
    churn,
    churn_grid,
    churn_rate,
    consecutive_pairs,
    mean_churn_by_gap,
)
from rankaudit.model import replace

from conftest import GENDER


def entry(cid: str, label: str) -> CandidateRecord:
    if label == "x":
        return CandidateRecord(candidate_id=cid, missing=True)
    if label == "?":
        return CandidateRecord(candidate_id=cid)
    return CandidateRecord(candidate_id=cid, group_labels={"gender": label})


def series(days: dict[int, list[tuple[str, str]]], query_id: str = "q1") -> QuerySeries:
    """Series from {day: [(candidate_id, label), ...]} keeping ids across days."""
    snaps = {
        day: RankingSnapshot(
            query_id=query_id,
            day=day,
            entries=tuple(entry(cid, lbl) for cid, lbl in ranked),
        )
        for day, ranked in days.items()
    }
    return QuerySeries(query_id=query_id, snapshots=snaps)


class TestChurnRate:
    def test_counts_departed_group_members(self) -> None:
        two_days = series(
            {
                1: [("a", "F"), ("b", "F"), ("c", "M"), ("d", "M")],
                2: [("a", "F"), ("e", "F"), ("c", "M"), ("b", "F")],
            }
        )
        # Day-1 top-2 F members: a, b.  Day-2 top-2 holds a but not b.
        cell = churn_rate(two_days, GENDER, "F", 2, 1, 2)
        assert cell.churn == pytest.approx(0.5)
        assert cell.base_count == 2
        # At k=4, b reappears at rank 4, so nothing churned.
        assert churn_rate(two_days, GENDER, "F", 4, 1, 2).churn == 0.0

    def test_retention_ignores_end_day_label(self) -> None:
        # b is hidden on day 2 but still ranked: retained.
        masked = series(
            {
                1: [("a", "F"), ("b", "F")],
                2: [("a", "F"), ("b", "x")],
            }
        )
        assert churn_rate(masked, GENDER, "F", 2, 1, 2).churn == 0.0

    def test_window_is_positional_over_raw_entries(self) -> None:
        # The hidden entry occupies rank 1, so only one F is inside the
        # day-1 top-2 window.
        hidden_head = series(
            {
                1: [("h", "x"), ("a", "F"), ("b", "F")],
                2: [("b", "F"), ("a", "F"), ("h", "x")],
            }
        )
        cell = churn_rate(hidden_head, GENDER, "F", 2, 1, 2)
        assert cell.base_count == 1
        assert cell.churn == 0.0  # a stayed in the top 2

    def test_no_members_yields_undefined_not_zero(self) -> None:
        no_f = series({1: [("c", "M"), ("d", "M")], 2: [("c", "M"), ("d", "M")]})
        cell = churn_rate(no_f, GENDER, "F", 2, 1, 2)
        assert cell.churn is None
        assert cell.base_count == 0

    def test_day_and_cutoff_errors(self) -> None:
        one = series({1: [("a", "F"), ("b", "M")], 3: [("a", "F")]})
        with pytest.raises(DayMissing):
            churn_rate(one, GENDER, "F", 1, 1, 2)
        with pytest.raises(CutoffOutOfRange, match=r"^cutoff 2 outside 1\.\.1 for 'q1' day 3$"):
            churn_rate(one, GENDER, "F", 2, 1, 3)  # day-3 list is shorter than k
        with pytest.raises(ValueError):
            churn_rate(one, GENDER, "F", 1, 3, 1)
        with pytest.raises(UnknownLabel):
            churn_rate(one, GENDER, "X", 1, 1, 3)


class TestChurnGrid:
    def test_sweeps_labels_pairs_and_cutoffs(self) -> None:
        two_days = series(
            {
                1: [("a", "F"), ("b", "M")],
                2: [("b", "M"), ("c", "F")],
            }
        )
        cells = churn_grid(two_days, GENDER, (1, 2), [(1, 2)])
        keyed = {(c.label, c.k): c.churn for c in cells}
        assert keyed[("F", 1)] == 1.0  # a fell out of the top 1
        assert keyed[("F", 2)] == 1.0  # a left entirely
        assert keyed[("M", 1)] is None  # no M in day-1 top 1
        assert keyed[("M", 2)] == 0.0

    def test_bad_cells_become_undefined(self) -> None:
        two_days = series(
            {
                1: [("a", "F"), ("b", "M")],
                2: [("a", "F")],
            }
        )
        cells = churn_grid(two_days, GENDER, (2,), [(1, 2), (1, 5)])
        assert all(c.churn is None for c in cells)
        assert len(cells) == 4  # 2 labels x 2 pairs

    def test_cells_sorted_by_label_pair_cutoff(self) -> None:
        three_days = series(
            {
                1: [("a", "F"), ("b", "M")],
                2: [("a", "F"), ("b", "M")],
                3: [("a", "F"), ("b", "M")],
            }
        )
        cells = churn_grid(three_days, GENDER, (2, 1), [(1, 3), (1, 2)])
        key = [(c.label, (c.start_day, c.end_day), c.k) for c in cells]
        assert key == [
            ("F", (1, 3), 2),
            ("F", (1, 3), 1),
            ("F", (1, 2), 2),
            ("F", (1, 2), 1),
            ("M", (1, 3), 2),
            ("M", (1, 3), 1),
            ("M", (1, 2), 2),
            ("M", (1, 2), 1),
        ]

    def test_rejects_unknown_labels_and_unordered_pairs(self) -> None:
        two_days = series({1: [("a", "F")], 2: [("a", "F")]})
        with pytest.raises(UnknownLabel):
            churn_grid(two_days, GENDER, (1,), [(1, 2)], labels=["F", "X"])
        with pytest.raises(ValueError, match="must precede"):
            churn_grid(two_days, GENDER, (1,), [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="must precede"):
            churn_grid(two_days, GENDER, (1,), [(2, 2)])

    def test_pairs_as_lists_and_labels_as_a_generator(self) -> None:
        three_days = series(
            {
                1: [("a", "F"), ("b", "M"), ("c", "F")],
                2: [("c", "F"), ("a", "F")],
                3: [("b", "M"), ("a", "F"), ("d", "M")],
            }
        )
        want = churn_grid(three_days, GENDER, (1, 2, 3), [(1, 2), (1, 3)], labels=("M", "F"))
        got = churn_grid(three_days, GENDER, (1, 2, 3), [[1, 2], [1, 3]], labels=(label for label in "MF"))
        assert got == want and len(got) == 12
        assert {(c.start_day, c.end_day) for c in got} == {(1, 2), (1, 3)}

    def test_each_distinct_pair_is_scanned_once(self, monkeypatch) -> None:
        two_days = series({1: [("a", "F"), ("b", "M")], 2: [("b", "M"), ("a", "F")]})
        scanned = []
        scan = churn._scan
        monkeypatch.setattr(churn, "_scan", lambda *args: scanned.append(args[2:]) or scan(*args))
        cells = churn_grid(two_days, GENDER, (1, 2), [(1, 2), [1, 2], (1, 3)])
        assert scanned == [(1, 2), (1, 3)]
        assert cells[:4] == churn_grid(two_days, GENDER, (1, 2), [(1, 2)], labels=["F"]) * 2

    @pytest.mark.parametrize("pair", [(1, 5), (0, 1), (4, 5)])
    def test_a_missing_day_gives_undefined_cells_with_base_0(self, pair) -> None:
        two_days = series({1: [("a", "F"), ("b", "M")], 2: [("a", "F"), ("b", "M")]})
        cells = churn_grid(two_days, GENDER, (0, 1, 2, 3), [pair, (1, 2)])
        missing = [c for c in cells if (c.start_day, c.end_day) == pair]
        assert len(missing) == 8
        assert all(c.churn is None and c.base_count == 0 for c in missing)
        assert [c.churn for c in cells if (c.start_day, c.end_day) == (1, 2)] == [None, 0.0, 0.0, None,
                                                                                   None, None, 0.0, None]

    def test_errors_read_as_before_whatever_the_argument_types(self) -> None:
        two_days = series({1: [("a", "F")], 2: [("a", "F")]})
        with pytest.raises(UnknownLabel, match="^label 'X' not in scheme 'gender'$"):
            churn_grid(two_days, GENDER, (1,), [[1, 2]], labels=(label for label in ["F", "X"]))
        with pytest.raises(ValueError, match="^start day 2 must precede end day 1$"):
            churn_grid(two_days, GENDER, (1,), [[1, 2], [2, 1]])
        # An empty grid has no cell to check.
        assert churn_grid(two_days, GENDER, (), [(2, 1)], labels=["X"]) == []


@st.composite
def churn_sweeps(draw):
    """A random series with its grid arguments: lists of different lengths,
    hidden and unknown-label entries, candidates seen on one day only, pairs
    that name absent days, and the edge cutoffs 0, 1, n and n + 1."""
    pool = [f"c{i}" for i in range(12)]
    days = draw(st.sets(st.integers(1, 4), min_size=1, max_size=4))
    ranked = {}
    for day in sorted(days):
        ids = draw(st.permutations(pool))[: draw(st.integers(0, len(pool)))]
        ranked[day] = [(cid, draw(st.sampled_from("FMx?"))) for cid in ids]
    pairs = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda p: p[0] < p[1]),
                          max_size=4))
    n = draw(st.sampled_from([len(entries) for entries in ranked.values()]))
    k_grid = draw(st.lists(st.integers(-1, len(pool) + 1), max_size=5)) + [0, 1, n, n + 1]
    labels = draw(st.one_of(st.none(), st.lists(st.sampled_from(GENDER.labels), unique=True)))
    return series(ranked), k_grid, pairs, labels


@settings(max_examples=300, deadline=None)
@given(churn_sweeps())
def test_grid_matches_cell_by_cell_churn_rate(sweep) -> None:
    one, k_grid, pairs, labels = sweep
    expected = []
    for label in labels if labels is not None else GENDER.labels:
        for start_day, end_day in pairs:
            for k in k_grid:
                try:
                    expected.append(churn_rate(one, GENDER, label, k, start_day, end_day))
                except (DayMissing, CutoffOutOfRange):
                    expected.append(ChurnCell(one.query_id, GENDER.attribute_name, label, k,
                                              start_day, end_day, None, 0))
    cells = churn_grid(one, GENDER, k_grid, pairs, labels)
    assert len(cells) == len(expected)
    for cell, want in zip(cells, expected):
        assert cell == want
        assert repr(cell.churn) == repr(want.churn)
        assert type(cell.churn) is type(want.churn) and type(cell.base_count) is int


class TestChurnCell:
    """Grid cells are built past ``__init__``; they must be the cells the
    public constructor builds."""

    @pytest.fixture()
    def cells(self) -> list[ChurnCell]:
        one = series({1: [("a", "F"), ("b", "M"), ("c", "F")], 2: [("c", "F"), ("d", "M"), ("e", "F")]})
        return churn_grid(one, GENDER, [0, 1, 2, 3, 4], [(1, 2), (1, 3)])

    def test_equal_and_hash_like_public_cells(self, cells) -> None:
        assert {cell.churn for cell in cells} == {None, 0.5, 1.0}
        for cell in cells:
            public = ChurnCell(*(getattr(cell, name) for name in ChurnCell._fields))
            assert cell == public and hash(cell) == hash(public) and repr(cell) == repr(public)

    def test_frozen_and_slotted(self, cells) -> None:
        with pytest.raises(AttributeError, match="cannot assign to field 'churn'"):
            cells[0].churn = 0.0
        assert not hasattr(cells[0], "__dict__")

    def test_replace_fields_and_pickle(self, cells) -> None:
        cell = cells[3]
        assert replace(cell, k=9) == ChurnCell("q1", "gender", "F", 9, 1, 2, 0.5, 2)
        assert {name: getattr(cell, name) for name in ChurnCell._fields} == {
            "query_id": "q1", "attribute": "gender", "label": "F", "k": 3, "start_day": 1, "end_day": 2,
            "churn": 0.5, "base_count": 2,
        }
        for one in cells:
            assert pickle.loads(pickle.dumps(one)) == one


class TestDayPairs:
    def test_consecutive_pairs_follow_observed_days(self) -> None:
        gaps = series({1: [("a", "F")], 2: [("a", "F")], 4: [("a", "F")]})
        assert consecutive_pairs(gaps) == [(1, 2), (2, 4)]

    def test_anchored_pairs_start_at_first_day(self) -> None:
        gaps = series({2: [("a", "F")], 3: [("a", "F")], 5: [("a", "F")]})
        assert anchored_pairs(gaps) == [(2, 3), (2, 5)]

    def test_single_day_has_no_pairs(self) -> None:
        single = series({1: [("a", "F")]})
        assert consecutive_pairs(single) == []
        assert anchored_pairs(single) == []


class TestMeanChurnByGap:
    def test_pools_same_gap_cells_across_queries(self) -> None:
        q1 = series({1: [("a", "F"), ("b", "F")], 2: [("a", "F"), ("c", "F")]}, query_id="q1")
        q2 = series({1: [("d", "F"), ("e", "F")], 2: [("f", "F"), ("g", "F")]}, query_id="q2")
        cells = churn_grid(q1, GENDER, (2,), [(1, 2)]) + churn_grid(q2, GENDER, (2,), [(1, 2)])
        means = mean_churn_by_gap(cells)
        assert means[("F", 2, 1)] == pytest.approx((0.5 + 1.0) / 2)
        assert ("M", 2, 1) not in means  # undefined cells contribute nothing

    def test_different_gaps_keyed_separately(self) -> None:
        q = series(
            {
                1: [("a", "F"), ("b", "F")],
                2: [("a", "F"), ("c", "F")],
                3: [("c", "F"), ("d", "F")],
            }
        )
        cells = churn_grid(q, GENDER, (2,), [(1, 2), (1, 3), (2, 3)])
        means = mean_churn_by_gap(cells)
        assert means[("F", 2, 1)] == pytest.approx((0.5 + 0.5) / 2)  # (1,2) and (2,3)
        assert means[("F", 2, 2)] == pytest.approx(1.0)  # (1,3): both a and b gone
