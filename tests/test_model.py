from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import pickle
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankaudit import (
    CandidateRecord,
    ChurnCell,
    CutoffOutOfRange,
    EmptyLabeledPool,
    GroupProportions,
    GroupScheme,
    QuerySeries,
    RankingSnapshot,
    ScoredCandidate,
    names,
    observed_proportions,
    simulate,
)
from rankaudit.dataio import load_dataset, write_snapshots
from rankaudit.model import PrefixCounts, _unchecked, check_cutoff, label_codes, prefix_table, snapshot_counts

from conftest import GENDER, snapshot

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankaudit"


def numpy_prefix_table(codes: np.ndarray, n_labels: int) -> np.ndarray:
    """Reference: the labels x (n + 1) prefix counts as one numpy cumsum."""
    table = np.zeros((n_labels, len(codes) + 1), dtype=np.int64)
    np.cumsum(codes == np.arange(n_labels, dtype=codes.dtype)[:, None], axis=1, out=table[:, 1:])
    return table


class TestGroupScheme:
    def test_rejects_fewer_than_two_labels(self) -> None:
        with pytest.raises(ValueError):
            GroupScheme("gender", ("F",))

    def test_rejects_duplicate_labels(self) -> None:
        with pytest.raises(ValueError):
            GroupScheme("gender", ("F", "F"))

    def test_rejects_unknown_label_colliding_with_group(self) -> None:
        with pytest.raises(ValueError):
            GroupScheme("gender", ("F", "M"), unknown_label="M")

    def test_rejects_empty_attribute(self) -> None:
        with pytest.raises(ValueError):
            GroupScheme("", ("F", "M"))

    def test_preserves_label_order(self) -> None:
        scheme = GroupScheme("seniority", ("junior", "mid", "senior"))
        assert scheme.labels == ("junior", "mid", "senior")

    @pytest.mark.parametrize("args", [(7, ("F", "M")), ("gender", ("F", 1)), ("gender", ("F", "M"), None)])
    def test_rejects_fields_that_are_not_strings(self, args) -> None:
        with pytest.raises(TypeError, match="must be strings"):
            GroupScheme(*args)

    def test_accepts_str_subclasses(self) -> None:
        assert GroupScheme(np.str_("gender"), (np.str_("F"), "M")) == GroupScheme("gender", ("F", "M"))

    @pytest.mark.parametrize("labels", [["F", "M"], iter(("F", "M")), ("F", "M")])
    def test_keeps_labels_as_a_tuple(self, labels) -> None:
        """A list or other sequence of labels is kept as a tuple: the
        scheme hashes like the one built from a tuple, and its labels
        cannot be changed past the checks (a duplicate appended)."""
        scheme = GroupScheme("g", labels)
        assert scheme.labels == ("F", "M")
        assert type(scheme.labels) is tuple
        assert scheme == GroupScheme("g", ("F", "M"))
        assert hash(scheme) == hash(GroupScheme("g", ("F", "M")))
        with pytest.raises(AttributeError):
            scheme.labels.append("F")

    def test_a_tuple_of_labels_is_kept_as_given(self) -> None:
        labels = ("F", "M")
        assert GroupScheme("g", labels).labels is labels

    @pytest.mark.parametrize("labels", ["FM", "F", np.str_("FM")])
    def test_rejects_a_string_of_labels(self, labels) -> None:
        # As labels, "FM" would hold "F", "M" and "FM" alike.
        with pytest.raises(TypeError, match="labels must be a sequence of strings"):
            GroupScheme("g", labels)


class TestCandidateRecord:
    def test_label_for_reads_scheme_attribute(self, gender: GroupScheme) -> None:
        rec = CandidateRecord("c1", group_labels={"gender": "F", "region": "EU"})
        assert rec.label_for(gender) == "F"
        assert rec.is_labeled(gender)

    def test_absent_attribute_reads_as_unknown(self, gender: GroupScheme) -> None:
        rec = CandidateRecord("c1", group_labels={"region": "EU"})
        assert rec.label_for(gender) == gender.unknown_label
        assert not rec.is_labeled(gender)

    def test_missing_candidate_is_unknown_under_any_scheme(self, gender: GroupScheme) -> None:
        rec = CandidateRecord("c1", missing=True)
        assert rec.label_for(gender) == "unknown"
        assert not rec.is_labeled(gender)

    def test_missing_candidate_cannot_carry_names_or_labels(self) -> None:
        with pytest.raises(ValueError):
            CandidateRecord("c1", first_name="Ada", missing=True)
        with pytest.raises(ValueError):
            CandidateRecord("c1", group_labels={"gender": "F"}, missing=True)

    def test_off_scheme_label_reads_as_unknown(self, gender: GroupScheme) -> None:
        rec = CandidateRecord("c1", group_labels={"gender": "nonbinary"})
        assert rec.label_for(gender) == "nonbinary"
        assert not rec.is_labeled(gender)

    def test_records_are_slotted(self) -> None:
        rec = CandidateRecord("c1", first_name="Ada")
        assert CandidateRecord.__slots__ == ("candidate_id", "first_name", "last_name", "group_labels", "missing")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.first_name = "Eve"

    def test_public_constructor_still_checks(self) -> None:
        with pytest.raises(ValueError, match="candidate_id must be non-empty"):
            CandidateRecord("")
        with pytest.raises(ValueError, match="cannot expose names"):
            CandidateRecord("c1", last_name="Lovelace", missing=True)
        with pytest.raises(ValueError, match="cannot expose group labels"):
            CandidateRecord("c1", group_labels={"gender": "F"}, missing=True)

    @pytest.mark.parametrize("fields, message", [
        ((7,), "candidate_id must be a string"),
        (("c1", b"Ada"), "first_name must be a string or None"),
        (("c1", None, 7), "last_name must be a string or None"),
        (("c1", None, None, {"gender": 1}), "group_labels must map strings to strings"),
        (("c1", None, None, {1: "F"}), "group_labels must map strings to strings"),
        (("c1", None, None, {}, 1), "missing must be a bool"),
        (("c1", None, None, {}, None), "missing must be a bool"),
    ])
    def test_rejects_fields_of_the_wrong_type(self, fields, message) -> None:
        with pytest.raises(TypeError, match=message):
            CandidateRecord(*fields)

    def test_value_errors_come_before_type_errors(self) -> None:
        with pytest.raises(ValueError, match="candidate_id must be non-empty"):
            CandidateRecord(0)
        with pytest.raises(ValueError, match="cannot expose names"):
            CandidateRecord("c1", first_name=7, missing=True)

    def test_accepts_str_subclasses(self) -> None:
        rec = CandidateRecord(np.str_("c1"), np.str_("Ada"), None, {np.str_("gender"): np.str_("F")})
        assert rec == CandidateRecord("c1", "Ada", None, {"gender": "F"})

    def test_unchecked_builder_builds_equal_records_without_checks(self) -> None:
        fields = ("c1", "Ada", None, {"gender": "F"}, False)
        with mock.patch.object(CandidateRecord, "__post_init__", side_effect=AssertionError("checked")):
            built = _unchecked(CandidateRecord, 2, ("c1", ""), ("Ada", None), (None, None), ({"gender": "F"}, {}),
                               (False, True))
        assert built[0] == CandidateRecord(*fields)
        # It skips the checks: callers check the fields themselves.
        assert built[1].candidate_id == ""

    def test_replace_and_copy_still_work(self) -> None:
        rec = CandidateRecord("c1", first_name="Ada", group_labels={"gender": "F"})
        assert dataclasses.replace(rec, group_labels={"gender": "M"}) == CandidateRecord(
            "c1", first_name="Ada", group_labels={"gender": "M"}
        )
        with pytest.raises(ValueError):
            dataclasses.replace(rec, missing=True)
        for clone in (copy.copy(rec), copy.deepcopy(rec)):
            assert clone == rec and clone is not rec


    def test_keeps_its_own_copy_of_the_labels(self, tmp_path) -> None:
        """A change to the caller's dict after construction reaches neither
        the record nor its written line, which reloads clean."""
        labels = {"gender": "F"}
        rec = CandidateRecord("c1", "Ada", None, labels)
        labels["gender"] = 1
        labels["region"] = "EU"
        assert rec.group_labels == {"gender": "F"}
        path = tmp_path / "data.jsonl"
        write_snapshots([QuerySeries("q1", {1: RankingSnapshot("q1", 1, (rec,))})], path)
        assert path.read_text(encoding="utf-8") == (
            '{"query_id":"q1","day":1,"rank":1,"candidate_id":"c1","first_name":"Ada",'
            '"last_name":null,"groups":{"gender":"F"},"missing":false}\n'
        )
        (series,), report = load_dataset(path)
        assert report.ok and series.snapshots[1].entries == (rec,)

    def test_copied_labels_compare_pickle_and_replace(self) -> None:
        rec = CandidateRecord("c1", "Ada", None, {"gender": "F"})
        assert rec == CandidateRecord("c1", "Ada", None, {"gender": "F"})
        assert pickle.loads(pickle.dumps(rec)) == rec
        changed = dataclasses.replace(rec, first_name="Eve")
        assert changed.group_labels == {"gender": "F"} and changed.group_labels is not rec.group_labels


class TestRankingSnapshot:
    def test_rejects_duplicate_candidate_ids(self) -> None:
        rec = CandidateRecord("c1")
        with pytest.raises(ValueError, match="duplicate"):
            RankingSnapshot("q1", 1, (rec, rec))

    def test_rejects_day_below_one(self) -> None:
        with pytest.raises(ValueError):
            RankingSnapshot("q1", 0, ())

    @pytest.mark.parametrize("query_id, day", [(7, 1), ("q1", True), ("q1", 2.0), ("q1", np.int64(2))])
    def test_rejects_fields_of_the_wrong_type(self, query_id, day) -> None:
        with pytest.raises(TypeError, match="query_id must be a string|day must be an int"):
            RankingSnapshot(query_id, day, ())

    def test_missing_rate_counts_hidden_positions(self) -> None:
        snap = snapshot("FxMx")
        assert snap.missing_count == 2
        assert snap.missing_rate == pytest.approx(0.5)

    def test_missing_rate_of_empty_snapshot_is_zero(self) -> None:
        assert RankingSnapshot("q1", 1, ()).missing_rate == 0.0


def assert_like_public(snapshots: list[RankingSnapshot]) -> None:
    """Each snapshot equals the public constructor's from its fields, field
    for field in the same order, pickles, and goes through
    ``dataclasses.replace``, which runs the public checks."""
    assert snapshots
    for snap in snapshots:
        public = RankingSnapshot(snap.query_id, snap.day, snap.entries)
        assert type(snap) is RankingSnapshot and snap == public
        assert not hasattr(snap, "__dict__")
        assert pickle.loads(pickle.dumps(snap)) == public
        assert dataclasses.replace(snap, day=snap.day + 1) == RankingSnapshot(snap.query_id, snap.day + 1, snap.entries)
        with pytest.raises(ValueError, match="duplicate"):
            dataclasses.replace(snap, entries=snap.entries + snap.entries[:1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.day = 2


@contextlib.contextmanager
def no_checks():
    """Make the public checks of records and snapshots fail while active."""
    with mock.patch.object(RankingSnapshot, "__post_init__", side_effect=AssertionError("checked")), \
            mock.patch.object(CandidateRecord, "__post_init__", side_effect=AssertionError("checked")):
        yield


class TestUncheckedSnapshot:
    """``model._unchecked`` skips the checks, for callers whose ids are
    already checked or generated: the loader, the labeler and the
    simulator.  Each path runs here with the public checks made to fail."""

    def test_builds_an_equal_snapshot_without_checks(self) -> None:
        entries = snapshot("FMx?").entries
        with no_checks():
            built = _unchecked(RankingSnapshot, 2, ("q1", "q1"), (1, 2), (entries, entries[:1] * 2))
        assert_like_public(built[:1])
        assert built[1].entries == entries[:1] * 2

    def test_loaded_snapshots(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        write_snapshots([QuerySeries(q, {d: snapshot("FMx?F", q, d) for d in (1, 2)}) for q in ("q1", "q2")], path)
        with no_checks():
            series, report = load_dataset(path)
        assert report.ok
        assert_like_public([snap for one in series for snap in one.snapshots.values()])

    def test_labeled_snapshots(self) -> None:
        table = names.table_from_rows([("ada", "F", 3), ("bo", "M", 2)], GENDER)
        masked = CandidateRecord("c3", missing=True)
        entries = (CandidateRecord("c1", "Ada"), CandidateRecord("c2", "Bo"), masked)
        snaps = [RankingSnapshot("q1", day, entries) for day in (1, 2)]
        with no_checks():
            labeled, _ = names.label_dataset(iter(snaps), GENDER, [table])
        assert [record.group_labels.get("gender") for record in labeled[1].entries] == ["F", "M", None]
        assert_like_public(labeled)
        # A masked record is rebuilt with a mapping of its own.
        rebuilt = labeled[0].entries[2]
        assert rebuilt == masked and rebuilt.group_labels is not masked.group_labels

    def test_simulated_snapshots(self) -> None:
        labels = GENDER.labels
        config = simulate.SimConfig(
            seed=3, n_queries=3, pool_size=(10, 20), scheme=GENDER,
            group_weights=dict.fromkeys(labels, 0.5),
            score_models={label: simulate.ScoreModel(0.6, 0.15) for label in labels},
            days=3, departure_probs=dict.fromkeys(labels, 0.3), missing_prob=0.2,
        )
        with no_checks():
            series = simulate.generate(config).series
        assert_like_public([snap for one in series for snap in one.snapshots.values()])


# Per record type: the fields of two instances, a ``dataclasses.replace``
# change, and one its public checks reject (``None`` for a type without checks).
BUILT = [
    (CandidateRecord, [("c1", "Ada", None, {"gender": "F"}, False), ("c2", None, None, {}, True)],
     {"candidate_id": "c9"}, {"candidate_id": ""}),
    (RankingSnapshot, [("q1", 1, snapshot("FM").entries), ("q2", 3, ())], {"day": 2}, {"day": 0}),
    (ChurnCell, [("q1", "gender", "F", 2, 1, 2, 0.5, 2), ("q1", "gender", "M", 2, 1, 2, None, 0)],
     {"k": 3}, None),
    (ScoredCandidate, [("c1", "F", 0.5), ("c2", "M", -1.0)], {"score": 2.0}, {"label": ""}),
]


@pytest.mark.parametrize("cls, rows, change, bad", BUILT, ids=[one[0].__name__ for one in BUILT])
def test_unchecked_builds_what_the_public_constructor_builds(cls, rows, change, bad) -> None:
    columns = list(zip(*rows))
    built = _unchecked(cls, len(rows), *columns)
    assert [type(one) for one in built] == [cls] * len(rows)
    for one, row in zip(built, rows):
        public = cls(*row)
        assert one == public and repr(one) == repr(public)
        assert pickle.loads(pickle.dumps(one)) == public
        assert dataclasses.replace(one, **change) == dataclasses.replace(public, **change)
        if bad is not None:
            with pytest.raises(ValueError):
                dataclasses.replace(one, **bad)
        assert not hasattr(one, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(one, dataclasses.fields(cls)[0].name, row[0])
    # One column per field, no more and no fewer.
    with pytest.raises(ValueError):
        _unchecked(cls, len(rows), *columns[:-1])
    with pytest.raises(ValueError):
        _unchecked(cls, len(rows), *columns, columns[-1])


def _builder_parts(tree: ast.AST) -> Iterator[ast.AST]:
    """The ``object.__new__`` and slot ``__set__`` references of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            node.attr == "__set__" or node.attr == "__new__" and ast.unparse(node.value) == "object"
        ) or isinstance(node, ast.Constant) and node.value in ("__set__", "__new__"):
            yield node


def test_only_the_one_builder_writes_past_the_constructors() -> None:
    """``object.__new__`` and the slot descriptors' ``__set__`` appear only
    inside ``model._unchecked``, so every record is built either by its
    public constructor or by that one builder."""
    inside, loose = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_unchecked"]
        allowed = {id(node) for one in builder for node in ast.walk(one)} if path.name == "model.py" else set()
        for node in _builder_parts(tree):
            if id(node) in allowed:
                inside += 1
            else:
                loose.append(f"{path.name}:{node.lineno}")
    assert loose == []
    assert inside == 2


class TestQuerySeries:
    def test_days_sorted_and_first_day(self) -> None:
        series = QuerySeries(
            "q1",
            {
                3: snapshot("FM", day=3),
                1: snapshot("MF", day=1),
            },
        )
        assert series.days == (1, 3)
        assert series.first_day == 1

    def test_rejects_snapshot_filed_under_wrong_day(self) -> None:
        with pytest.raises(ValueError):
            QuerySeries("q1", {2: snapshot("FM", day=1)})

    def test_rejects_foreign_query_id(self) -> None:
        with pytest.raises(ValueError):
            QuerySeries("q1", {1: snapshot("FM", query_id="q2")})

    def test_rejects_empty_series(self) -> None:
        with pytest.raises(ValueError):
            QuerySeries("q1", {})


class TestGroupProportions:
    def test_rejects_incomplete_label_coverage(self, gender: GroupScheme) -> None:
        with pytest.raises(ValueError):
            GroupProportions(gender, {"F": 1.0})

    def test_rejects_shares_not_summing_to_one(self, gender: GroupScheme) -> None:
        with pytest.raises(ValueError, match="sum"):
            GroupProportions(gender, {"F": 0.5, "M": 0.6})

    def test_rejects_negative_share(self, gender: GroupScheme) -> None:
        with pytest.raises(ValueError):
            GroupProportions(gender, {"F": -0.1, "M": 1.1})

    def test_rejects_unrecognized_source(self, gender: GroupScheme) -> None:
        with pytest.raises(ValueError):
            GroupProportions(gender, {"F": 0.5, "M": 0.5}, source="guesswork")

    def test_accepts_zero_share(self, gender: GroupScheme) -> None:
        props = GroupProportions(gender, {"F": 0.0, "M": 1.0})
        assert props.shares["F"] == 0.0


class TestObservedProportions:
    def test_shares_ignore_missing_and_unknown(self, gender: GroupScheme) -> None:
        props = observed_proportions(snapshot("FFMx?"), gender)
        assert props.shares == {"F": pytest.approx(2 / 3), "M": pytest.approx(1 / 3)}
        assert props.denominator == 3
        assert props.source == "observed_pool"

    def test_max_rank_restricts_the_window(self, gender: GroupScheme) -> None:
        props = observed_proportions(snapshot("FFMM"), gender, max_rank=2)
        assert props.shares == {"F": 1.0, "M": 0.0}

    def test_max_rank_beyond_list_uses_whole_list(self, gender: GroupScheme) -> None:
        props = observed_proportions(snapshot("FM"), gender, max_rank=100)
        assert props.shares == {"F": 0.5, "M": 0.5}

    def test_negative_max_rank_raises(self, gender: GroupScheme) -> None:
        """A negative window is an error, not a slice that drops the tail."""
        with pytest.raises(CutoffOutOfRange, match=r"^max_rank must be >= 0, got -1$"):
            observed_proportions(snapshot("FFFM"), gender, max_rank=-1)
        with pytest.raises(EmptyLabeledPool):
            observed_proportions(snapshot("FFFM"), gender, max_rank=0)

    def test_raises_when_window_has_no_labeled_candidates(self, gender: GroupScheme) -> None:
        with pytest.raises(EmptyLabeledPool):
            observed_proportions(snapshot("xx??"), gender)
        with pytest.raises(EmptyLabeledPool):
            observed_proportions(snapshot("xxFM"), gender, max_rank=2)


def test_check_cutoff_names_the_range_and_the_snapshot() -> None:
    snap = snapshot("FM")
    check_cutoff(snap, 1)
    check_cutoff(snap, 2)
    for k in (0, 3):
        with pytest.raises(CutoffOutOfRange) as raised:
            check_cutoff(snap, k)
        assert str(raised.value) == f"cutoff {k} outside 1..2 for {snap.query_id!r} day {snap.day}"


class TestPrefixCounts:
    @given(st.text(alphabet="FMx?", max_size=60))
    def test_matches_a_counting_loop(self, labels: str) -> None:
        snap = snapshot(labels)
        table = snapshot_counts(snap, GENDER)
        for k in range(len(labels) + 1):
            window = [record.label_for(GENDER) for record in snap.entries[:k]]
            assert table.tally(k) == {label: window.count(label) for label in GENDER.labels}
            assert table.labeled[k] == sum(label in GENDER.labels for label in window)

    @given(st.integers(2, 5).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(-1, m - 1), max_size=80))))
    def test_matches_the_numpy_cumsum(self, case: tuple[int, list[int]]) -> None:
        n_labels, codes = case
        labels = [f"g{i}" for i in range(n_labels)]
        table = numpy_prefix_table(np.array(codes, dtype=np.int8), n_labels)
        assert prefix_table(codes, n_labels) == table.tolist()
        counts = PrefixCounts(codes, labels)
        assert counts.counts == dict(zip(labels, table.tolist()))
        assert counts.labeled == table.sum(axis=0).tolist()
        assert all(type(cell) is int for row in counts.counts.values() for cell in row)
        assert all(type(cell) is int for cell in counts.labeled)

    def test_counts_every_prefix_of_the_labeled_entries(self, gender: GroupScheme) -> None:
        table = snapshot_counts(snapshot("FxM?F"), gender)
        assert table.counts == {"F": [0, 1, 1, 1, 1, 2], "M": [0, 0, 0, 1, 1, 1]}
        assert table.labeled == [0, 1, 1, 2, 2, 3]
        assert all(type(cell) is int for cell in table.labeled + table.counts["F"])
        assert table.tally(3) == {"F": 1, "M": 1}

    def test_share_is_undefined_outside_the_list_or_without_labels(self, gender: GroupScheme) -> None:
        table = snapshot_counts(snapshot("xF"), gender)
        assert table.share("F", 1) is None
        assert table.share("F", 2) == 1.0
        assert table.share("F", 0) is None
        assert table.share("F", 3) is None

    def test_codes_outside_the_scheme_are_unlabeled(self, gender: GroupScheme) -> None:
        codes = label_codes(["M", "other", gender.unknown_label, "F"], gender)
        assert codes == [1, -1, -1, 0]
        assert prefix_table(codes, 2) == [[0, 0, 0, 0, 1], [0, 1, 1, 1, 1]]

    def test_proportions_of_an_unlabeled_prefix_raise(self, gender: GroupScheme) -> None:
        table = PrefixCounts(label_codes(["?", "F"], gender), gender.labels)
        assert table.proportions(gender).shares == {"F": 1.0, "M": 0.0}
        with pytest.raises(EmptyLabeledPool):
            table.proportions(gender, 1)
