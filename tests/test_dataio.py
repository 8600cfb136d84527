from __future__ import annotations

import csv
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankaudit import (
    EXTERNAL_BASELINE,
    ChurnCell,
    GroupScheme,
    InconsistentGrid,
    MalformedRow,
    MetricCurve,
    ProtocolRow,
    QuerySeries,
    RankingSnapshot,
    ScoreModel,
    SimConfig,
    UnknownLabel,
    generate,
)
from rankaudit.dataio import (
    curve_rows,
    churn_rows,
    export_heatmap,
    filter_queries,
    format_cell,
    format_real,
    load_baseline,
    load_dataset,
    read_long_table,
    write_ledger,
    write_long_table,
    write_protocol_table,
    write_snapshots,
    CHURN_HEADER,
    CURVE_HEADER,
)

from conftest import GENDER, load_ledger, record


def sim_result(seed: int = 5, n_queries: int = 3, days: int = 2):
    return generate(
        SimConfig(
            seed=seed,
            n_queries=n_queries,
            pool_size=(20, 30),
            scheme=GENDER,
            group_weights={"F": 0.5, "M": 0.5},
            score_models={"F": ScoreModel(0.6, 0.15), "M": ScoreModel(0.6, 0.15)},
            days=days,
            departure_probs={"F": 0.3, "M": 0.2},
            missing_prob=0.2,
        )
    )


def json_row(**overrides) -> str:
    obj = {
        "query_id": "q1",
        "day": 1,
        "rank": 1,
        "candidate_id": "c1",
        "first_name": None,
        "last_name": None,
        "groups": {"gender": "F"},
        "missing": False,
    }
    drop = overrides.pop("drop", None)
    aliases = {"qid": "query_id", "cid": "candidate_id", "first": "first_name", "last": "last_name"}
    for key, value in overrides.items():
        obj[aliases.get(key, key)] = value
    if drop:
        del obj[drop]
    return json.dumps(obj)


class TestFormatting:
    def test_ten_significant_digits(self) -> None:
        assert format_real(0.0) == "0"
        assert format_real(-0.5) == "-0.5"
        assert format_real(1 / 3) == "0.3333333333"
        assert format_real(1e-126) == "1e-126"

    def test_sentinels(self) -> None:
        assert format_cell(None) == "undefined"
        assert format_cell(-math.inf) == "-inf"
        assert format_cell(0.25) == "0.25"

    def test_formatting_is_idempotent_across_a_parse(self) -> None:
        for value in (1 / 3, 0.30000000000000004, -1.23456789012e-7, 12345.6789012345):
            once = format_real(value)
            assert format_real(float(once)) == once


class TestSnapshotRoundTrip:
    def test_write_load_preserves_everything(self, tmp_path) -> None:
        result = sim_result()
        path = tmp_path / "snapshots.jsonl"
        write_snapshots(result.series, path)
        loaded, report = load_dataset(path)
        assert report.ok
        assert loaded == result.series
        assert report.n_series == 3
        assert report.n_snapshots == 6
        assert report.n_rows == sum(
            len(snap.entries) for s in result.series for snap in s.snapshots.values()
        )

    def test_second_write_is_byte_identical(self, tmp_path) -> None:
        result = sim_result(seed=8)
        path = tmp_path / "snapshots.jsonl"
        write_snapshots(result.series, path)
        loaded, _ = load_dataset(path)
        again = io.StringIO()
        write_snapshots(loaded, again)
        assert again.getvalue() == path.read_text(encoding="utf-8")

    def test_names_survive_the_trip(self, tmp_path) -> None:
        snap = RankingSnapshot(
            query_id="q9",
            day=1,
            entries=(
                record("a", "F", first="Ada", last="Lovelace"),
                record("b", "M", first="Omar"),
                record("c", "x"),
            ),
        )
        path = tmp_path / "named.jsonl"
        write_snapshots([QuerySeries(query_id="q9", snapshots={1: snap})], path)
        loaded, report = load_dataset(path)
        assert report.ok
        entries = loaded[0].snapshots[1].entries
        assert entries[0].first_name == "Ada" and entries[0].last_name == "Lovelace"
        assert entries[1].first_name == "Omar" and entries[1].last_name is None
        assert entries[2].missing
        assert report.missing_rates == {"q9": pytest.approx(1 / 3)}

    def test_output_is_sorted_regardless_of_input_order(self, tmp_path) -> None:
        result = sim_result()
        path = tmp_path / "snapshots.jsonl"
        write_snapshots(list(reversed(result.series)), path)
        ids = [json.loads(line)["query_id"] for line in path.read_text().splitlines()]
        assert ids == sorted(ids)


class TestLoadQuarantine:
    def write(self, tmp_path, lines: list[str]):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_rank_gap_quarantines_the_snapshot(self, tmp_path) -> None:
        path = self.write(
            tmp_path,
            [
                json_row(rank=3, cid="c3"),
                json_row(rank=1, cid="c1"),
                json_row(qid="q2", rank=1, cid="c9"),
            ],
        )
        series, report = load_dataset(path)
        assert [s.query_id for s in series] == ["q2"]
        assert report.quarantined == [("q1", 1)]
        (issue,) = report.integrity_issues
        assert issue.query_id == "q1" and issue.day == 1
        assert issue.line == 2  # the snapshot's lowest-ranked surviving row
        assert issue.message == "ranks not contiguous 1..2: absent [2]"
        assert not report.ok

    def test_duplicate_rank_is_reported(self, tmp_path) -> None:
        path = self.write(
            tmp_path,
            [json_row(rank=1, cid="c1"), json_row(rank=2, cid="c2"), json_row(rank=2, cid="c3")],
        )
        series, report = load_dataset(path)
        assert series == []
        (issue,) = report.integrity_issues
        assert issue.message == "ranks not contiguous 1..3: absent [3], duplicated [2]"

    def test_duplicate_candidate_id_is_reported(self, tmp_path) -> None:
        path = self.write(tmp_path, [json_row(rank=1, cid="cX"), json_row(rank=2, cid="cX")])
        series, report = load_dataset(path)
        assert series == []
        (issue,) = report.integrity_issues
        assert issue.message == "duplicate candidate_id 'cX'"
        assert report.quarantined == [("q1", 1)]

    def test_bad_row_taints_its_whole_snapshot(self, tmp_path) -> None:
        path = self.write(
            tmp_path,
            [
                json_row(rank=1, cid="c1"),
                json_row(rank=2, cid="c2", drop="candidate_id"),
                json_row(qid="q2", rank=1, cid="c9"),
            ],
        )
        series, report = load_dataset(path)
        assert [s.query_id for s in series] == ["q2"]
        (issue,) = report.parse_issues
        assert issue.line == 2
        assert issue.message == "required field 'candidate_id' absent"
        assert report.quarantined == [("q1", 1)]

    def test_fully_tainted_snapshot_is_still_reported(self, tmp_path) -> None:
        path = self.write(tmp_path, [json_row(drop="rank")])
        series, report = load_dataset(path)
        assert series == []
        assert report.quarantined == [("q1", 1)]

    def test_parse_issues_carry_line_numbers(self, tmp_path) -> None:
        path = self.write(
            tmp_path,
            [
                json_row(rank=1, cid="c1"),
                "",
                "{not json",
                json_row(rank=2, cid="c2", day=True),
                json_row(rank=3, cid="c3", missing=True),
            ],
        )
        _, report = load_dataset(path)
        assert report.n_rows == 4  # the blank line does not count
        messages = {issue.line: issue.message for issue in report.parse_issues}
        assert messages[3].startswith("invalid JSON:")
        assert messages[4] == "day must be an integer >= 1"
        assert messages[5] == "missing entries must have null names and groups"

    def test_masked_rows_must_be_fully_null(self, tmp_path) -> None:
        path = self.write(tmp_path, [json_row(missing=True, groups=None, first="Ada")])
        _, report = load_dataset(path)
        (issue,) = report.parse_issues
        assert issue.message == "missing entries must have null names and groups"


class TestLedger:
    def test_round_trip(self, tmp_path) -> None:
        result = sim_result(seed=12)
        path = tmp_path / "truth.jsonl"
        write_ledger(result.truth, path)
        loaded = load_ledger(path)
        assert loaded == result.truth
        assert any(t.departures for t in loaded)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"query_id": "q1"}', "line 2: no 'weights' value"),
            ("[1, 2]", "line 2: row is not a JSON object"),
            ('{"query_id": ', "line 2: invalid JSON"),
            ('{"query_id": "q1", "weights": {}, "composition": {}, "labels": {}, "scores": {}, '
             '"departures": [[2]]}', r"line 2: departures must be \[day, candidate_id\] pairs"),
        ],
    )
    def test_bad_lines_raise_with_their_line_number(self, tmp_path, bad: str, message: str) -> None:
        path = tmp_path / "truth.jsonl"
        write_ledger(sim_result(seed=12).truth[:1], path)
        path.write_text(path.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=message):
            load_ledger(path)


class TestBaseline:
    def write(self, tmp_path, text: str):
        path = tmp_path / "baseline.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_and_renormalizes(self, tmp_path) -> None:
        path = self.write(
            tmp_path,
            "query_id,attribute,label,share\n"
            "q1,gender,F,0.4500003\n"
            "q1,gender,M,0.55\n"
            "q2,gender,F,0.25\n"
            "q2,gender,M,0.75\n",
        )
        table = load_baseline(path, {"gender": GENDER})
        assert set(table) == {("q1", "gender"), ("q2", "gender")}
        q1 = table[("q1", "gender")]
        assert q1.source == EXTERNAL_BASELINE
        assert abs(sum(q1.shares.values()) - 1.0) < 1e-12
        assert q1.shares["F"] == pytest.approx(0.4500003 / 1.0000003, rel=1e-12)
        assert table[("q2", "gender")].shares == {"F": 0.25, "M": 0.75}

    def test_rejects_bad_header_and_empty_file(self, tmp_path) -> None:
        with pytest.raises(MalformedRow, match="line 1"):
            load_baseline(self.write(tmp_path, "query,attr,label,share\nq1,gender,F,1\n"), {"gender": GENDER})
        with pytest.raises(MalformedRow, match="line 1: empty file, expected header query_id,attribute"):
            load_baseline(self.write(tmp_path, ""), {"gender": GENDER})

    def test_rejects_unknown_attribute_and_label(self, tmp_path) -> None:
        header = "query_id,attribute,label,share\n"
        with pytest.raises(UnknownLabel, match="line 2: no scheme"):
            load_baseline(self.write(tmp_path, header + "q1,age,F,0.5\n"), {"gender": GENDER})
        with pytest.raises(UnknownLabel, match="line 3: label 'X'"):
            load_baseline(
                self.write(tmp_path, header + "q1,gender,F,0.5\nq1,gender,X,0.5\n"),
                {"gender": GENDER},
            )

    def test_rejects_bad_shares(self, tmp_path) -> None:
        header = "query_id,attribute,label,share\n"
        with pytest.raises(MalformedRow, match="not a number"):
            load_baseline(self.write(tmp_path, header + "q1,gender,F,lots\n"), {"gender": GENDER})
        with pytest.raises(MalformedRow, match=r"in \[0, 1\]"):
            load_baseline(self.write(tmp_path, header + "q1,gender,F,1.5\n"), {"gender": GENDER})
        with pytest.raises(MalformedRow, match="duplicate label"):
            load_baseline(
                self.write(tmp_path, header + "q1,gender,F,0.5\nq1,gender,F,0.5\n"),
                {"gender": GENDER},
            )

    def test_rejects_incomplete_or_unbalanced_blocks(self, tmp_path) -> None:
        header = "query_id,attribute,label,share\n"
        with pytest.raises(MalformedRow, match=r"lacks labels \['M'\]"):
            load_baseline(self.write(tmp_path, header + "q1,gender,F,1.0\n"), {"gender": GENDER})
        with pytest.raises(MalformedRow, match="sums to"):
            load_baseline(
                self.write(tmp_path, header + "q1,gender,F,0.4\nq1,gender,M,0.55\n"),
                {"gender": GENDER},
            )


class TestFilterQueries:
    def test_thresholds_are_inclusive(self) -> None:
        result = sim_result(seed=31)
        rates = {
            s.query_id: s.snapshots[1].missing_rate for s in result.series
        }
        target = result.series[0]
        kept, manifest = filter_queries(
            result.series, max_missing_rate=rates[target.query_id], min_pool=len(target.snapshots[1].entries)
        )
        row = next(m for m in manifest if m["query_id"] == target.query_id)
        assert row["kept"] is True
        assert target in kept

    def test_manifest_covers_every_series(self) -> None:
        result = sim_result(seed=32)
        kept, manifest = filter_queries(result.series, max_missing_rate=0.1, min_pool=25)
        assert [m["query_id"] for m in manifest] == sorted(s.query_id for s in result.series)
        for m in manifest:
            assert set(m) == {"query_id", "kept", "missing_rate", "pool"}
            assert m["kept"] == (m["missing_rate"] <= 0.1 and m["pool"] >= 25)
        assert [s.query_id for s in kept] == [m["query_id"] for m in manifest if m["kept"]]

    def test_wide_open_thresholds_keep_everything(self) -> None:
        result = sim_result(seed=33)
        kept, _ = filter_queries(result.series, max_missing_rate=1.0, min_pool=0)
        assert kept == sorted(result.series, key=lambda s: s.query_id)

    def test_rejects_bad_thresholds(self) -> None:
        with pytest.raises(ValueError):
            filter_queries([], max_missing_rate=1.2, min_pool=0)
        with pytest.raises(ValueError):
            filter_queries([], max_missing_rate=0.5, min_pool=-1)


def sample_curves() -> list[MetricCurve]:
    return [
        MetricCurve(query_id="q2", day=1, attribute="gender", label="F", metric="skew",
                    values={50: -0.25, 25: None}),
        MetricCurve(query_id="q1", day=2, attribute="gender", label=None, metric="minskew",
                    values={25: -math.inf, 50: -0.5}),
        MetricCurve(query_id="q1", day=1, attribute="gender", label=None, metric="minskew",
                    values={25: 0.125, 50: 0.0}),
    ]


class TestLongTables:
    def test_curve_rows_are_deterministically_ordered(self) -> None:
        rows = curve_rows(sample_curves())
        assert [(r[0], r[1], r[4]) for r in rows] == [
            ("q1", 1, 25), ("q1", 1, 50), ("q1", 2, 25), ("q1", 2, 50), ("q2", 1, 25), ("q2", 1, 50)
        ]

    def test_csv_serialization(self) -> None:
        out = io.StringIO()
        write_long_table(curve_rows(sample_curves()), CURVE_HEADER, out, fmt="csv")
        assert out.getvalue() == (
            "query_id,day,attribute,label,k,metric,value\n"
            "q1,1,gender,,25,minskew,0.125\n"
            "q1,1,gender,,50,minskew,0\n"
            "q1,2,gender,,25,minskew,-inf\n"
            "q1,2,gender,,50,minskew,-0.5\n"
            "q2,1,gender,F,25,skew,undefined\n"
            "q2,1,gender,F,50,skew,-0.25\n"
        )

    def test_jsonl_serialization(self) -> None:
        out = io.StringIO()
        write_long_table(curve_rows(sample_curves()), CURVE_HEADER, out, fmt="json")
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert rows[0]["value"] == 0.125
        assert rows[2]["value"] == "-inf"
        assert rows[4]["value"] is None
        assert list(rows[0]) == list(CURVE_HEADER)

    def test_churn_rows_carry_day_pairs(self) -> None:
        cells = [
            ChurnCell(query_id="q1", attribute="gender", label="M", k=50, start_day=1, end_day=3,
                      churn=0.5, base_count=10),
            ChurnCell(query_id="q1", attribute="gender", label="F", k=25, start_day=1, end_day=2,
                      churn=None, base_count=0),
        ]
        out = io.StringIO()
        write_long_table(churn_rows(cells), CHURN_HEADER, out, fmt="csv")
        assert out.getvalue() == (
            "query_id,attribute,label,k,metric,start_day,end_day,value\n"
            "q1,gender,F,25,churn,1,2,undefined\n"
            "q1,gender,M,50,churn,1,3,0.5\n"
        )

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(ValueError, match="format"):
            write_long_table([], CURVE_HEADER, io.StringIO(), fmt="parquet")


def reference_curve_rows(curves) -> list[tuple]:
    """``curve_rows`` as it was written before it built each curve's rows in one ``zip``."""
    ordered = sorted(curves, key=lambda c: (c.query_id, c.day, c.attribute, c.metric, c.label or ""))
    rows = []
    for curve in ordered:
        for k in sorted(curve.values):
            rows.append((curve.query_id, curve.day, curve.attribute, curve.label or "", k, curve.metric,
                         curve.values[k]))
    return rows


def reference_churn_rows(cells) -> list[tuple]:
    """``churn_rows`` as it was written before it sorted with an ``attrgetter`` key."""
    ordered = sorted(cells, key=lambda c: (c.query_id, c.attribute, c.label, c.start_day, c.end_day, c.k))
    return [
        (cell.query_id, cell.attribute, cell.label, cell.k, "churn", cell.start_day, cell.end_day, cell.churn)
        for cell in ordered
    ]


# Few distinct keys, so that sort keys tie often; a tie must keep input order.
_curves = st.lists(st.builds(
    MetricCurve,
    query_id=st.sampled_from(["q1", "q2"]),
    day=st.integers(1, 2),
    attribute=st.just("gender"),
    label=st.sampled_from([None, "", "F", "M"]),
    metric=st.sampled_from(["minskew", "skew"]),
    values=st.dictionaries(st.integers(1, 40), st.none() | st.floats(allow_nan=False), max_size=8),
), max_size=8)
_cells = st.lists(st.builds(
    ChurnCell,
    query_id=st.sampled_from(["q1", "q2"]),
    attribute=st.just("gender"),
    label=st.sampled_from(["F", "M"]),
    k=st.integers(1, 3),
    start_day=st.integers(1, 2),
    end_day=st.integers(2, 3),
    churn=st.none() | st.floats(0, 1),
    base_count=st.integers(0, 5),
), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_curves)
@example([  # unsorted cutoffs; a None and an empty label tie on the sort key
    MetricCurve("q1", 1, "gender", None, "minskew", {50: 0.5, 25: None, 75: -math.inf}),
    MetricCurve("q1", 1, "gender", "", "minskew", {3: 1.0, 1: 2.0}),
])
def test_curve_rows_match_the_per_cell_reference(curves) -> None:
    rows, reference = curve_rows(curves), reference_curve_rows(curves)
    assert len(rows) == len(reference) and list(rows) == reference


@settings(max_examples=300, deadline=None)
@given(_cells)
@example([  # the same sort key twice, with different values
    ChurnCell("q1", "gender", "M", 25, 1, 2, 0.5, 4),
    ChurnCell("q1", "gender", "F", 25, 1, 2, None, 0),
    ChurnCell("q1", "gender", "M", 25, 1, 2, 0.25, 4),
])
def test_churn_rows_match_the_lambda_key_reference(cells) -> None:
    rows, reference = churn_rows(cells), reference_churn_rows(cells)
    assert len(rows) == len(reference) and list(rows) == reference


class TestProtocolTable:
    ROWS = [
        ProtocolRow(k=25, coefficient="intercept", estimate=-0.25, se=0.01, z=-25.0,
                    p_value=1e-126, ci_lo=-0.2696, ci_hi=-0.2304, n_obs=200, n_groups=200, n_excluded=3),
    ]

    def test_csv_layout(self) -> None:
        out = io.StringIO()
        write_protocol_table(self.ROWS, out, fmt="csv")
        assert out.getvalue() == (
            "k,coef,estimate,se,z,p,ci_lo,ci_hi\n"
            "25,intercept,-0.25,0.01,-25,1e-126,-0.2696,-0.2304\n"
        )

    def test_json_layout_includes_counts(self) -> None:
        out = io.StringIO()
        write_protocol_table(self.ROWS, out, fmt="json")
        (row,) = [json.loads(line) for line in out.getvalue().splitlines()]
        assert row["coef"] == "intercept"
        assert row["n_obs"] == 200 and row["n_groups"] == 200 and row["n_excluded"] == 3


def long_rows(rows, header=CURVE_HEADER, fmt="csv"):
    """``rows`` written as a long table and read back as (line, row) pairs."""
    out = io.StringIO()
    write_long_table(rows, header, out, fmt)
    return read_long_table(io.StringIO(out.getvalue()))


def heatmap(rows, metric="minskew", label=None) -> str:
    out = io.StringIO()
    export_heatmap(rows, metric, label, out)
    return out.getvalue()


class TestHeatmap:
    def test_curve_matrix(self) -> None:
        rows = long_rows([
            ("q1", 1, "gender", "", 25, "minskew", -0.1), ("q1", 1, "gender", "", 50, "minskew", None),
            ("q2", 1, "gender", "", 25, "minskew", 0.0), ("q2", 1, "gender", "", 50, "minskew", -0.3),
            ("q1", 2, "gender", "", 25, "minskew", -math.inf), ("q1", 2, "gender", "", 50, "minskew", -0.2),
        ])
        assert heatmap(rows) == (
            "row,25,50\n"
            "q1:1,-0.1,\n"
            "q1:2,-inf,-0.2\n"
            "q2:1,0,-0.3\n"
        )

    def test_curves_must_share_a_grid(self) -> None:
        rows = long_rows([("q1", 1, "gender", "", 25, "minskew", -0.1), ("q2", 1, "gender", "", 50, "minskew", -0.1)])
        with pytest.raises(InconsistentGrid):
            heatmap(rows)

    def test_other_metrics_and_labels_are_left_out(self) -> None:
        rows = long_rows([
            ("q1", 1, "gender", "F", 25, "skew", -0.1), ("q1", 1, "gender", "M", 25, "skew", 0.1),
            ("q1", 1, "gender", "F", 25, "deviation", 0.5),
        ])
        with pytest.raises(ValueError, match=r"rows span labels \['F', 'M'\]; pass --label to pick one"):
            heatmap(rows, "skew")
        assert heatmap(rows, "skew", "M") == "row,25\nq1:1,0.1\n"
        assert heatmap(rows, "deviation") == "row,25\nq1:1,0.5\n"

    def test_churn_matrix_averages_defined_cells(self) -> None:
        def row(qid, start, end, k, churn):
            return (qid, "gender", "F", k, "churn", start, end, churn)

        rows = long_rows([
            row("q1", 1, 2, 25, 0.2), row("q1", 1, 2, 50, 0.4),
            row("q2", 1, 2, 25, 0.4), row("q2", 1, 2, 50, None),
            row("q1", 1, 3, 25, 0.5), row("q1", 1, 3, 50, 0.1),
            row("q2", 1, 3, 25, None), row("q2", 1, 3, 50, None),
        ], CHURN_HEADER)
        assert heatmap(rows, "churn") == (
            "row,25,50\n"
            "1->2,0.3,0.4\n"
            "1->3,0.5,0.1\n"
        )

    def test_churn_day_pairs_must_share_a_grid(self) -> None:
        rows = long_rows([("q1", "gender", "F", 25, "churn", 1, 2, 0.1), ("q1", "gender", "F", 50, "churn", 1, 3, 0.1)],
                         CHURN_HEADER)
        with pytest.raises(InconsistentGrid, match="day pairs carry different cutoff grids"):
            heatmap(rows, "churn")

    def test_churn_rows_must_share_one_label(self) -> None:
        rows = long_rows([("q1", "gender", "F", 25, "churn", 1, 2, 0.1), ("q1", "gender", "M", 25, "churn", 1, 2, 0.1)],
                         CHURN_HEADER)
        with pytest.raises(ValueError, match="rows span labels"):
            heatmap(rows, "churn")

    def test_empty_export_rejected(self) -> None:
        with pytest.raises(ValueError, match="^no rows for metric 'minskew'$"):
            heatmap([])
        with pytest.raises(ValueError, match="^no rows for metric 'skew' label 'F'$"):
            heatmap(long_rows([("q1", 1, "gender", "M", 25, "skew", 0.1)]), "skew", "F")

    def test_absent_or_null_label_reads_as_empty(self) -> None:
        rows = [(1, {"query_id": "q1", "day": 1, "k": 25, "metric": "minskew", "value": 0.5}),
                (2, {"query_id": "q2", "day": 1, "k": 25, "metric": "minskew", "label": None, "value": 0.25}),
                (3, {"query_id": "q3", "day": 1, "k": 25, "metric": "minskew", "label": "", "value": None})]
        assert heatmap(rows) == heatmap(rows, label="") == "row,25\nq1:1,0.5\nq2:1,0.25\nq3:1,\n"

    @pytest.mark.parametrize("label", [1, True, 0.5, ["F"], {"F": 1}])
    def test_label_that_is_not_a_string_is_a_malformed_row(self, label) -> None:
        rows = [(1, {"query_id": "q1", "day": 1, "k": 25, "metric": "minskew", "label": "F", "value": 0.5}),
                (2, {"query_id": "q2", "day": 1, "k": 25, "metric": "minskew", "label": label, "value": 0.5})]
        with pytest.raises(MalformedRow, match=re.escape(f"line 2: label {label!r} does not parse")):
            heatmap(rows)
        with pytest.raises(MalformedRow, match="^line 2: "):
            heatmap(rows, label="F")

    def test_row_label_holding_a_carriage_return_is_quoted(self) -> None:
        rows = long_rows([("q\r1", 1, "gender", "", 5, "minskew", 0.5)])
        text = heatmap(rows)
        assert text == 'row,5\n"q\r1:1",0.5\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [["row", "5"], ["q\r1:1", "0.5"]]

    def test_matrix_reparse_reproduces_the_bytes(self, tmp_path) -> None:
        path = tmp_path / "heatmap.csv"
        export_heatmap(long_rows([("q1", 1, "gender", "", 25, "minskew", -1 / 3),
                                  ("q1", 1, "gender", "", 50, "minskew", -2 / 7)]), "minskew", None, path)
        first = path.read_text(encoding="utf-8")
        header, data = first.splitlines()
        cells = data.split(",")
        reparsed = long_rows([("q1", 1, "gender", "", 25, "minskew", float(cells[1])),
                              ("q1", 1, "gender", "", 50, "minskew", float(cells[2]))])
        export_heatmap(reparsed, "minskew", None, path)
        assert path.read_text(encoding="utf-8") == first


def test_generation_is_batch_independent() -> None:
    three = sim_result(seed=55, n_queries=3)
    six = sim_result(seed=55, n_queries=6)
    assert six.series[:3] == three.series
    assert six.truth[:3] == three.truth
