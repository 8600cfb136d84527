from __future__ import annotations

import io

import pytest

from rankaudit import (
    CandidateRecord,
    MalformedRow,
    RankingSnapshot,
    UnknownLabel,
    infer_label,
    label_dataset,
    load_name_table,
    save_name_table,
    table_from_rows,
)

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
