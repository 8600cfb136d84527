from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankaudit import (
    CandidateRecord,
    CoverageReport,
    MalformedRow,
    RankingSnapshot,
    UnknownLabel,
    infer_label,
    label_dataset,
    load_name_table,
    save_name_table,
    table_from_rows,
)
from rankaudit.model import replace

from conftest import GENDER


def table_from_csv(text: str):
    return load_name_table(io.StringIO(text), GENDER)


BASIC = table_from_csv(
    "name,label,count\n"
    "ada,F,900\n"
    "ada,M,100\n"
    "robin,F,50\n"
    "robin,M,50\n"
    "omar,M,400\n"
)


class TestLoadNameTable:
    def test_lookup_is_case_insensitive_and_trimmed(self) -> None:
        assert "ADA" in BASIC
        assert " Ada " in BASIC
        assert BASIC.lookup("Ada") == {"F": 900, "M": 100}

    def test_duplicate_rows_accumulate(self) -> None:
        table = table_from_csv("name,label,count\nada,F,10\nAda,F,5\n")
        assert table.lookup("ada") == {"F": 15, "M": 0}

    def test_zero_count_rows_are_skipped(self) -> None:
        table = table_from_csv("name,label,count\nada,F,0\n")
        assert "ada" not in table
        assert len(table) == 0

    def test_bad_header_raises_with_line_number(self) -> None:
        with pytest.raises(MalformedRow, match="line 1"):
            table_from_csv("nome,label,count\n")

    def test_empty_file_raises(self) -> None:
        with pytest.raises(MalformedRow, match="line 1"):
            table_from_csv("")

    def test_wrong_field_count_names_the_line(self) -> None:
        with pytest.raises(MalformedRow, match="line 3"):
            table_from_csv("name,label,count\nada,F,1\nada,F\n")

    def test_non_integer_count_names_the_line(self) -> None:
        with pytest.raises(MalformedRow, match="line 2"):
            table_from_csv("name,label,count\nada,F,many\n")

    def test_negative_count_rejected(self) -> None:
        with pytest.raises(MalformedRow, match="line 2"):
            table_from_csv("name,label,count\nada,F,-1\n")

    def test_label_outside_scheme_rejected(self) -> None:
        with pytest.raises(UnknownLabel, match="line 2"):
            table_from_csv("name,label,count\nada,X,10\n")

    def test_blank_name_rejected(self) -> None:
        with pytest.raises(MalformedRow, match="line 2"):
            table_from_csv("name,label,count\n  ,F,10\n")


class TestInferLabel:
    def test_majority_label_with_confidence(self) -> None:
        result = infer_label("Ada", [BASIC])
        assert result.label == "F"
        assert result.confidence == pytest.approx(0.9)
        assert result.provider_index == 0

    def test_exact_tie_resolves_to_unknown(self) -> None:
        result = infer_label("robin", [BASIC])
        assert result.label == GENDER.unknown_label
        assert result.confidence == 0.0
        assert result.provider_index == 0  # the table did contain the name

    def test_first_containing_table_decides(self) -> None:
        override = table_from_rows([("ada", "M", 10)], GENDER)
        result = infer_label("ada", [override, BASIC])
        assert result.label == "M"
        assert result.provider_index == 0
        fallback = infer_label("omar", [override, BASIC])
        assert fallback.label == "M"
        assert fallback.provider_index == 1

    def test_unresolved_name_has_no_provider(self) -> None:
        result = infer_label("zelda", [BASIC])
        assert result.label == GENDER.unknown_label
        assert result.provider_index == -1

    def test_none_name_is_unresolved(self) -> None:
        assert infer_label(None, [BASIC]).provider_index == -1

    def test_empty_chain_rejected(self) -> None:
        with pytest.raises(ValueError):
            infer_label("ada", [])

    def test_mixed_scheme_chain_rejected(self) -> None:
        from rankaudit import GroupScheme

        other = table_from_rows([("ada", "senior", 3)], GroupScheme("seniority", ("junior", "senior")))
        with pytest.raises(ValueError):
            infer_label("ada", [BASIC, other])


class TestLabelDataset:
    def make_snapshot(self) -> RankingSnapshot:
        return RankingSnapshot(
            "q1",
            1,
            (
                CandidateRecord("c1", first_name="Ada", last_name="Lovelace"),
                CandidateRecord("c2", first_name="Omar"),
                CandidateRecord("c3", first_name="Zelda"),
                CandidateRecord("c4", missing=True),
            ),
        )

    def test_labels_resolved_and_coverage_counted(self) -> None:
        labeled, coverage = label_dataset([self.make_snapshot()], GENDER, [BASIC])
        by_id = {r.candidate_id: r for r in labeled[0].entries}
        assert by_id["c1"].group_labels["gender"] == "F"
        assert by_id["c2"].group_labels["gender"] == "M"
        assert by_id["c3"].group_labels["gender"] == GENDER.unknown_label
        assert by_id["c4"].missing and not by_id["c4"].group_labels
        assert coverage.total == 3  # the hidden candidate is not attempted
        assert coverage.resolved == 2
        assert coverage.coverage == pytest.approx(2 / 3)

    def test_input_snapshots_untouched(self) -> None:
        snap = self.make_snapshot()
        label_dataset([snap], GENDER, [BASIC])
        assert all("gender" not in r.group_labels for r in snap.entries)

    def test_full_name_lookup_key(self) -> None:
        full = table_from_rows([("ada lovelace", "F", 4)], GENDER)
        labeled, coverage = label_dataset([self.make_snapshot()], GENDER, [full], full_name=True)
        by_id = {r.candidate_id: r for r in labeled[0].entries}
        assert by_id["c1"].group_labels["gender"] == "F"
        assert by_id["c2"].group_labels["gender"] == GENDER.unknown_label  # "Omar" alone matches nothing
        assert coverage.resolved == 1

    def test_empty_coverage_is_zero(self) -> None:
        snap = RankingSnapshot("q1", 1, (CandidateRecord("c1", missing=True),))
        _, coverage = label_dataset([snap], GENDER, [BASIC])
        assert coverage.total == 0
        assert coverage.coverage == 0.0


def ref_label_dataset(snapshots, scheme, chain, full_name=False):
    """The labeling loop as it stood before ``label_dataset`` kept one
    inference per lookup key: ``infer_label`` and ``model.replace``
    for every record."""
    total = resolved = 0
    relabeled = []
    for snap in snapshots:
        entries = []
        for rec in snap.entries:
            if rec.missing:
                entries.append(rec)
                continue
            total += 1
            key = rec.first_name
            if full_name:
                key = " ".join(part for part in (rec.first_name, rec.last_name) if part) or None
            result = infer_label(key, chain)
            resolved += result.label != scheme.unknown_label
            entries.append(replace(rec, group_labels={**rec.group_labels, scheme.attribute_name: result.label}))
        relabeled.append(replace(snap, entries=tuple(entries)))
    return relabeled, CoverageReport(total=total, resolved=resolved)


FIRST = st.sampled_from(["Ada", " ADA ", "Omar", "Zelda", "", "Łucja"])
LAST = st.sampled_from([None, "Ng", "Lovelace", ""])
TABLE_ROWS = st.lists(st.tuples(st.sampled_from(["ada", "omar", "łucja", "ada ng", "ada lovelace", "omar ng"]),
                                st.sampled_from(GENDER.labels), st.integers(0, 3)), max_size=8)


@st.composite
def labeling_snapshots(draw) -> list[RankingSnapshot]:
    snaps = []
    for day in range(1, draw(st.integers(1, 3)) + 1):
        entries = []
        for i, kind in enumerate(draw(st.lists(st.sampled_from(["named", "named", "missing"]), max_size=6))):
            if kind == "missing":
                entries.append(CandidateRecord(f"c{i}", missing=True))
            else:
                groups = draw(st.sampled_from([{}, {"region": "EU"}, {"gender": "M"}]))
                entries.append(CandidateRecord(f"c{i}", first_name=draw(st.one_of(st.none(), FIRST)),
                                               last_name=draw(LAST), group_labels=groups))
        snaps.append(RankingSnapshot("q1", day, tuple(entries)))
    return snaps


@settings(max_examples=150, deadline=None)
@given(snaps=labeling_snapshots(), tables=st.lists(TABLE_ROWS, min_size=1, max_size=2), full_name=st.booleans())
def test_label_dataset_matches_the_per_record_loop(snaps, tables, full_name) -> None:
    chain = [table_from_rows(rows, GENDER) for rows in tables]
    assert label_dataset(snaps, GENDER, chain, full_name) == ref_label_dataset(snaps, GENDER, chain, full_name)


class TestSaveNameTable:
    def test_round_trip_preserves_counts(self, tmp_path) -> None:
        path = tmp_path / "names.csv"
        save_name_table(BASIC, path)
        again = load_name_table(path, GENDER)
        assert again.counts == BASIC.counts

    def test_output_is_sorted_and_headed(self) -> None:
        buffer = io.StringIO()
        save_name_table(BASIC, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "name,label,count"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)


class TestTableFromRows:
    def test_builds_and_validates(self) -> None:
        table = table_from_rows([("Ada", "F", 3), ("ada", "F", 2)], GENDER)
        assert table.lookup("ada") == {"F": 5, "M": 0}
        with pytest.raises(UnknownLabel):
            table_from_rows([("ada", "X", 3)], GENDER)

    def test_rows_are_checked_like_csv_lines(self) -> None:
        assert len(table_from_rows([("ada", "F", 0), ()], GENDER)) == 0
        for bad, where in (([(" ", "F", 1)], "line 2"), ([("ada", "F", 1), ("bo", "M", -1)], "line 3"),
                           ([("ada", "F", "5.0")], "line 2"), ([("ada", "F")], "line 2")):
            with pytest.raises(MalformedRow, match=where):
                table_from_rows(bad, GENDER)
