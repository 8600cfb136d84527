from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import math
import pickle
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankaudit import (
    CandidateRecord,
    ChurnCell,
    CutoffOutOfRange,
    EmptyLabeledPool,
    GroupProportions,
    GroupScheme,
    InvalidConfig,
    QuerySeries,
    RankingSnapshot,
    RerankResult,
    ScoredCandidate,
    exposure,
    mixedlm,
    names,
    observed_proportions,
    simulate,
)
from rankaudit.dataio import load_dataset, write_snapshots
from rankaudit.model import (
    PrefixCounts,
    Record,
    _unchecked,
    check_cutoff,
    label_codes,
    prefix_table,
    replace,
    snapshot_counts,
)

from conftest import GENDER, snapshot
from reference_records import BAD, RECORD_TYPES, TWINS, VALID

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
        with pytest.raises(AttributeError, match="cannot assign to field 'first_name'"):
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
        with mock.patch.object(CandidateRecord, "__init__", side_effect=AssertionError("checked")):
            built = _unchecked(CandidateRecord, 2, ("c1", ""), ("Ada", None), (None, None), ({"gender": "F"}, {}),
                               (False, True))
        assert built[0] == CandidateRecord(*fields)
        # It skips the checks: callers check the fields themselves.
        assert built[1].candidate_id == ""

    def test_replace_and_copy_still_work(self) -> None:
        rec = CandidateRecord("c1", first_name="Ada", group_labels={"gender": "F"})
        assert replace(rec, group_labels={"gender": "M"}) == CandidateRecord(
            "c1", first_name="Ada", group_labels={"gender": "M"}
        )
        with pytest.raises(ValueError):
            replace(rec, missing=True)
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
        changed = replace(rec, first_name="Eve")
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
    ``model.replace``, which runs the public checks."""
    assert snapshots
    for snap in snapshots:
        public = RankingSnapshot(snap.query_id, snap.day, snap.entries)
        assert type(snap) is RankingSnapshot and snap == public
        assert not hasattr(snap, "__dict__")
        assert pickle.loads(pickle.dumps(snap)) == public
        assert replace(snap, day=snap.day + 1) == RankingSnapshot(snap.query_id, snap.day + 1, snap.entries)
        with pytest.raises(ValueError, match="duplicate"):
            replace(snap, entries=snap.entries + snap.entries[:1])
        with pytest.raises(AttributeError, match="cannot assign to field 'day'"):
            snap.day = 2


@contextlib.contextmanager
def no_checks():
    """Make the public checks of records and snapshots fail while active."""
    with mock.patch.object(RankingSnapshot, "__init__", side_effect=AssertionError("checked")), \
            mock.patch.object(CandidateRecord, "__init__", side_effect=AssertionError("checked")):
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


SCORES = {label: simulate.ScoreModel(0.6, 0.15) for label in GENDER.labels}
CONFIG = (3, 3, (10, 20), GENDER, {"F": 0.5, "M": 0.5}, SCORES, 3, {"F": 0.3}, 0.2, "none", None, None)
FIT = ({"intercept": 0.1}, {"intercept": 0.02}, 0.2, 1.0, -3.5, True, 40, 10, 0.2, "reml")

# Per record type: the fields of two instances, a ``model.replace`` change,
# and one its public checks reject with the exception they raise (``None``
# for a type without checks).
BUILT = [
    (GroupScheme, [("gender", ("F", "M"), "unknown"), ("region", ("EU", "US", "AS"), "?")],
     {"unknown_label": "n/a"}, ({"labels": ("F",)}, ValueError)),
    (CandidateRecord, [("c1", "Ada", None, {"gender": "F"}, False), ("c2", None, None, {}, True)],
     {"candidate_id": "c9"}, ({"candidate_id": ""}, ValueError)),
    (RankingSnapshot, [("q1", 1, snapshot("FM").entries), ("q2", 3, ())], {"day": 2}, ({"day": 0}, ValueError)),
    (QuerySeries, [("q1", {1: snapshot("FM")}), ("q1", {1: snapshot("M"), 3: snapshot("Fx", day=3)})],
     {"snapshots": {2: snapshot("F", day=2)}}, ({"snapshots": {}}, ValueError)),
    (GroupProportions, [(GENDER, {"F": 0.5, "M": 0.5}, "observed_pool", 4), (GENDER, {"F": 0.25, "M": 0.75},
                                                                              "external_baseline", 0)],
     {"denominator": 7}, ({"source": "guesswork"}, ValueError)),
    (names.NameFrequencyTable, [(GENDER, {"ada": {"F": 3}}), (GENDER, {})], {"counts": {"bo": {"M": 1}}}, None),
    (names.InferenceResult, [("F", 0.75, 0), ("unknown", 0.0, -1)], {"confidence": 1.0}, None),
    (names.CoverageReport, [(10, 7), (0, 0)], {"resolved": 1}, None),
    (exposure.TopKCounts, [(5, {"F": 2, "M": 3}, 5), (1, {}, 0)], {"k": 2}, None),
    (exposure.MetricCurve, [("q1", 1, "gender", "F", "skew", {5: -0.1, 10: None}),
                            ("q1", 2, "gender", None, "minskew", {})], {"day": 3}, None),
    (ChurnCell, [("q1", "gender", "F", 2, 1, 2, 0.5, 2), ("q1", "gender", "M", 2, 1, 2, None, 0)],
     {"k": 3}, None),
    (mixedlm.LongObservation, [("q1", 0.5, {"is_M": 1.0}), ("q2", -2.0, {})], {"response": 1.5},
     ({"response": math.nan}, ValueError)),
    (mixedlm.MixedModelFit, [FIT, FIT[:5] + (False,) + FIT[6:]], {"converged": False}, None),
    (mixedlm.WaldTest, [("intercept", 0.1, 0.02, 0.0, 5.0, 1e-6, (0.06, 0.14)),
                        ("is_M", -0.5, 0.5, -0.011, -0.98, 0.33, (-1.48, 0.48))], {"null_value": -0.011}, None),
    (mixedlm.ProtocolRow, [(25, "intercept", 0.1, 0.02, 5.0, 1e-6, 0.06, 0.14, 40, 10, 0, None),
                           (50, "intercept", None, None, None, None, None, None, 12, 3, 1, "too few groups")],
     {"k": 75}, None),
    (ScoredCandidate, [("c1", "F", 0.5), ("c2", "M", -1.0)], {"score": 2.0}, ({"label": ""}, ValueError)),
    (RerankResult, [(("c1", "c2"), True, ()), (("c2",), False, ((1, "F"),))], {"feasible": False}, None),
    (simulate.ScoreModel, [(0.6, 0.15), (0.4, 0.2)], {"spread": 0.1}, None),
    (simulate.SimConfig, [CONFIG, CONFIG[:9] + ("detgreedy", {"F": 0.5, "M": 0.5}, 2.0)], {"days": 2},
     ({"n_queries": 0}, InvalidConfig)),
    (simulate.QueryTruth, [("q1", {"F": 0.5, "M": 0.5}, {"F": 1, "M": 1}, {"c1": "F", "c2": "M"},
                            {"c1": 0.9, "c2": 0.4}, ((2, "c1"),)), ("q2", {}, {}, {}, {}, ())],
     {"departures": ()}, None),
    (simulate.SimResult, [([], [], simulate.SimConfig(*CONFIG)),
                          ([QuerySeries("q1", {1: snapshot("F")})], [], simulate.SimConfig(*CONFIG))],
     {"truth": []}, None),
]


def test_built_covers_every_record_type() -> None:
    assert [one[0] for one in BUILT] == RECORD_TYPES


@pytest.mark.parametrize("cls, rows, change, bad", BUILT, ids=[one[0].__name__ for one in BUILT])
def test_unchecked_builds_what_the_public_constructor_builds(cls, rows, change, bad) -> None:
    columns = list(zip(*rows))
    built = _unchecked(cls, len(rows), *columns)
    assert [type(one) for one in built] == [cls] * len(rows)
    for one, row in zip(built, rows):
        public = cls(*row)
        assert one == public and repr(one) == repr(public)
        assert pickle.loads(pickle.dumps(one)) == public
        assert replace(one, **change) == replace(public, **change)
        if bad is not None:
            changes, error = bad
            with pytest.raises(error):
                replace(one, **changes)
        assert not hasattr(one, "__dict__")
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(one, cls._fields[0], row[0])
    # One column per field, no more and no fewer.
    with pytest.raises(ValueError):
        _unchecked(cls, len(rows), *columns[:-1])
    with pytest.raises(ValueError):
        _unchecked(cls, len(rows), *columns, columns[-1])


def _outcome(build) -> tuple:
    """("ok", repr) of what ``build()`` returns, or ("error", exception type)."""
    try:
        return "ok", repr(build())
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return "error", type(error)


def _hash_or_error(value: object) -> object:
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=[cls.__name__ for cls in RECORD_TYPES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_behave_as_their_dataclass_twins(cls, data) -> None:
    """A record and its frozen dataclass twin (``reference_records``), built
    from the same drawn fields, agree on repr, equality, hash, pickle and
    copy round trips, changed copies and frozen fields."""
    twin = TWINS[cls]
    fields, others = data.draw(VALID[cls]), data.draw(VALID[cls])
    one, twin_one = cls(*fields), twin(*fields)
    other, twin_other = cls(*others), twin(*others)
    assert repr(one) == repr(twin_one)
    assert (one == other) == (twin_one == twin_other) and (one == one) == (twin_one == twin_one)
    assert (one != other) == (twin_one != twin_other)
    assert _hash_or_error(one) == _hash_or_error(twin_one)
    for trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        clone, twin_clone = trip(one), trip(twin_one)
        assert type(clone) is cls and not hasattr(clone, "__dict__")
        assert repr(clone) == repr(twin_clone) and (clone == one) == (twin_clone == twin_one)
    # One field changed to the other draw's value, valid or not.
    name = data.draw(st.sampled_from(cls._fields))
    change = {name: getattr(other, name)}
    assert _outcome(lambda: replace(one, **change)) == _outcome(lambda: dataclasses.replace(twin_one, **change))
    bad = data.draw(st.sampled_from(BAD[cls]))
    outcome = _outcome(lambda: replace(one, **bad))
    assert outcome[0] == "error" and outcome == _outcome(lambda: dataclasses.replace(twin_one, **bad))
    for target in (one, twin_one):
        for attribute in (name, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(target, attribute, None)
            with pytest.raises(AttributeError):
                delattr(target, attribute)
    assert repr(one) == repr(twin_one)


def test_every_record_type_derives_from_the_one_base() -> None:
    """The record types are exactly the subclasses of ``model.Record``;
    no other class of the package gives itself value equality, a hash or
    frozen fields, and no module imports ``dataclasses``."""
    assert sorted(Record.__subclasses__(), key=RECORD_TYPES.index) == RECORD_TYPES
    assert all(cls.__slots__ == cls._fields and cls.__init__ is not Record.__init__ for cls in RECORD_TYPES)
    value_methods = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__", "_fields"}
    loose, imports = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                imports.append(node.module)
            elif isinstance(node, ast.ClassDef) and node.name != "Record":
                bases = [ast.unparse(base) for base in node.bases]
                defined = {getattr(one, "name", None) for one in node.body} | {
                    target.id for one in node.body if isinstance(one, ast.Assign)
                    for target in one.targets if isinstance(target, ast.Name)
                }
                if value_methods & defined and bases != ["Record"]:
                    loose.append(f"{path.name}:{node.name}")
                if bases == ["Record"] and value_methods & defined != {"_fields"}:
                    loose.append(f"{path.name}:{node.name}")
    assert imports == []
    assert loose == []


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
