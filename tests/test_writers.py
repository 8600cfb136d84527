"""The table and JSONL writers against reference copies of their earlier,
per-schema implementations.

Each ``ref_*`` function below is the writer as it stood before every table
went through ``dataio.write_long_table`` and every path through
``dataio.text_stream``.  The hypothesis tests feed both the same rows
(strings with delimiters, quotes, line breaks and non-ASCII; ``None``,
infinities, NaN, tiny and huge floats, ints) and require equal output, for
a path destination and for an open stream.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankaudit import dataio, names
from rankaudit.dataio import format_cell, format_real
from rankaudit.mixedlm import ProtocolRow
from rankaudit.model import CandidateRecord, GroupScheme, QuerySeries, RankingSnapshot
from rankaudit.simulate import QueryTruth

# ---------------------------------------------------------------------------
# reference writers


def _ref_json_value(value):
    if value is None:
        return None
    if value == -math.inf:
        return dataio.NEG_INF
    return float(format_real(value))


def ref_write_long_table(rows, header, destination, fmt="csv"):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_write_long_table(rows, header, handle, fmt)
            return
    if fmt == "csv":
        writer = csv.writer(destination, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([*row[:-1], format_cell(row[-1])])
    elif fmt == "json":
        for row in rows:
            obj = dict(zip(header, row))
            obj[header[-1]] = _ref_json_value(row[-1])
            destination.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            destination.write("\n")
    else:
        raise ValueError(f"unrecognized format {fmt!r}")


def ref_write_protocol_table(rows, destination, fmt="csv"):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_write_protocol_table(rows, handle, fmt)
            return
    if fmt == "csv":
        writer = csv.writer(destination, lineterminator="\n")
        writer.writerow(dataio.PROTOCOL_HEADER)
        for row in rows:
            writer.writerow([row.k, row.coefficient, format_cell(row.estimate), format_cell(row.se),
                             format_cell(row.z), format_cell(row.p_value), format_cell(row.ci_lo),
                             format_cell(row.ci_hi)])
    else:
        for row in rows:
            obj = {
                "k": row.k, "coef": row.coefficient, "estimate": _ref_json_value(row.estimate),
                "se": _ref_json_value(row.se), "z": _ref_json_value(row.z),
                "p": _ref_json_value(row.p_value), "ci_lo": _ref_json_value(row.ci_lo),
                "ci_hi": _ref_json_value(row.ci_hi), "n_obs": row.n_obs,
                "n_groups": row.n_groups, "n_excluded": row.n_excluded,
            }
            destination.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            destination.write("\n")


def _ref_csv_output(destination, write_rows):
    """The former ``cli._output``: a path opened with ``newline=""``."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            write_rows(csv.writer(handle, lineterminator="\n"))
    else:
        write_rows(csv.writer(destination, lineterminator="\n"))


def ref_write_rerank(rows, destination):
    def write_rows(writer):
        writer.writerow(["rank", "candidate_id", "label", "score"])
        for rank, cid, label, score in rows:
            writer.writerow([rank, cid, label, format_real(score)])
    _ref_csv_output(destination, write_rows)


def ref_write_issues(rows, destination):
    def write_rows(writer):
        writer.writerow(["kind", "query_id", "day", "line", "message"])
        for row in rows:
            writer.writerow(list(row))
    _ref_csv_output(destination, write_rows)


def ref_save_name_table(table, destination):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_save_name_table(table, handle)
            return
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(("name", "label", "count"))
    for name in sorted(table.counts):
        entry = table.counts[name]
        for label in table.scheme.labels:
            if entry.get(label, 0):
                writer.writerow([name, label, entry[label]])


def ref_write_snapshots(series, destination):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            ref_write_snapshots(series, handle)
            return
    for one in sorted(series, key=lambda s: s.query_id):
        for day in sorted(one.snapshots):
            snap = one.snapshots[day]
            for rank, record in enumerate(snap.entries, start=1):
                row = {
                    "query_id": snap.query_id, "day": snap.day, "rank": rank,
                    "candidate_id": record.candidate_id, "first_name": record.first_name,
                    "last_name": record.last_name,
                    "groups": None if record.missing else dict(sorted(record.group_labels.items())),
                    "missing": record.missing,
                }
                destination.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
                destination.write("\n")


def ref_write_ledger(truths, destination):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            ref_write_ledger(truths, handle)
            return
    for truth in sorted(truths, key=lambda t: t.query_id):
        row = {
            "query_id": truth.query_id,
            "weights": {k: truth.weights[k] for k in sorted(truth.weights)},
            "composition": {k: truth.composition[k] for k in sorted(truth.composition)},
            "labels": {k: truth.labels[k] for k in sorted(truth.labels)},
            "scores": {k: truth.scores[k] for k in sorted(truth.scores)},
            "departures": [[day, cid] for day, cid in truth.departures],
        }
        destination.write(json.dumps(row, ensure_ascii=False, separators=(",", ":")))
        destination.write("\n")


# ---------------------------------------------------------------------------
# inputs

# Delimiters, quotes, line breaks, non-ASCII (accents, CJK, emoji).
TEXT = st.text(alphabet=st.sampled_from(list('ab ,";\'\r\n\tzé中😀\\')), max_size=8)
NAME = TEXT.filter(bool)
INTS = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-300, -1e-300, 1e300, -1.7976931348623157e308, 0.0, -0.0]),
    INTS,
)
CELLS = st.one_of(st.none(), REALS)
DAYS = st.integers(min_value=1, max_value=9)


def _outputs(tmp_dir: Path, write) -> tuple[bytes, str]:
    """What ``write(destination)`` produces for a path and for a stream."""
    path = tmp_dir / "out"
    write(path)
    buffer = io.StringIO(newline="")
    write(buffer)
    return path.read_bytes(), buffer.getvalue()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("writers")


def assert_same(out_dir, reference, write) -> None:
    assert _outputs(out_dir, write) == _outputs(out_dir, reference)


FORMATS = st.sampled_from(["csv", "json"])


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(TEXT, DAYS, TEXT, TEXT, INTS, TEXT, CELLS), max_size=6), fmt=FORMATS)
def test_curve_table_matches_reference(out_dir, rows, fmt) -> None:
    assert_same(out_dir,
                lambda d: ref_write_long_table(rows, dataio.CURVE_HEADER, d, fmt),
                lambda d: dataio.write_long_table(rows, dataio.CURVE_HEADER, d, fmt))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(TEXT, TEXT, TEXT, INTS, TEXT, DAYS, DAYS, CELLS), max_size=6), fmt=FORMATS)
def test_churn_table_matches_reference(out_dir, rows, fmt) -> None:
    assert_same(out_dir,
                lambda d: ref_write_long_table(rows, dataio.CHURN_HEADER, d, fmt),
                lambda d: dataio.write_long_table(rows, dataio.CHURN_HEADER, d, fmt))


PROTOCOL_ROWS = st.builds(
    ProtocolRow, k=INTS, coefficient=TEXT, estimate=CELLS, se=CELLS, z=CELLS, p_value=CELLS,
    ci_lo=CELLS, ci_hi=CELLS, n_obs=INTS, n_groups=INTS, n_excluded=INTS,
    reason=st.one_of(st.none(), TEXT),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(PROTOCOL_ROWS, max_size=5), fmt=FORMATS)
def test_protocol_table_matches_reference(out_dir, rows, fmt) -> None:
    assert_same(out_dir,
                lambda d: ref_write_protocol_table(rows, d, fmt),
                lambda d: dataio.write_protocol_table(rows, d, fmt))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(INTS, NAME, TEXT, REALS), max_size=6))
def test_rerank_table_matches_reference(out_dir, rows) -> None:
    assert_same(out_dir,
                lambda d: ref_write_rerank(rows, d),
                lambda d: dataio.write_long_table(rows, dataio.RERANK_HEADER, d))


ISSUE_ROWS = st.one_of(
    st.tuples(st.just("parse"), st.just(""), st.just(""), INTS, TEXT),
    st.tuples(st.just("integrity"), NAME, DAYS, INTS, TEXT),
    st.tuples(st.just("quarantined"), NAME, DAYS, st.just(""), st.just("")),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ISSUE_ROWS, max_size=6))
def test_issue_table_matches_reference(out_dir, rows) -> None:
    assert_same(out_dir,
                lambda d: ref_write_issues(rows, d),
                lambda d: dataio.write_long_table(rows, dataio.ISSUE_HEADER, d))


SCHEME = GroupScheme("gender", ("F", "M"))


@settings(max_examples=150, deadline=None)
@given(counts=st.dictionaries(NAME, st.fixed_dictionaries({"F": INTS, "M": INTS}), max_size=5))
def test_name_table_matches_reference(out_dir, counts) -> None:
    table = names.NameFrequencyTable(scheme=SCHEME, counts=counts)
    assert_same(out_dir,
                lambda d: ref_save_name_table(table, d),
                lambda d: names.save_name_table(table, d))


RECORDS = st.one_of(
    st.builds(CandidateRecord, candidate_id=NAME, first_name=st.one_of(st.none(), TEXT),
              last_name=st.one_of(st.none(), TEXT),
              group_labels=st.dictionaries(TEXT, TEXT, max_size=3)),
    st.builds(CandidateRecord, candidate_id=NAME, missing=st.just(True)),
)


@st.composite
def series_lists(draw) -> list[QuerySeries]:
    out = []
    for query_id in draw(st.lists(NAME, max_size=3, unique=True)):
        snapshots = {}
        for day in draw(st.lists(DAYS, min_size=1, max_size=3, unique=True)):
            entries = draw(st.lists(RECORDS, max_size=4, unique_by=lambda r: r.candidate_id))
            snapshots[day] = RankingSnapshot(query_id=query_id, day=day, entries=tuple(entries))
        out.append(QuerySeries(query_id=query_id, snapshots=snapshots))
    return out


@settings(max_examples=150, deadline=None)
@given(series=series_lists())
def test_snapshots_match_reference(out_dir, series) -> None:
    assert_same(out_dir,
                lambda d: ref_write_snapshots(series, d),
                lambda d: dataio.write_snapshots(series, d))


TRUTHS = st.builds(
    QueryTruth, query_id=TEXT,
    weights=st.dictionaries(TEXT, REALS, max_size=3),
    composition=st.dictionaries(TEXT, INTS, max_size=3),
    labels=st.dictionaries(TEXT, TEXT, max_size=3),
    scores=st.dictionaries(TEXT, REALS, max_size=3),
    departures=st.lists(st.tuples(DAYS, TEXT), max_size=3).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(truths=st.lists(TRUTHS, max_size=4))
def test_ledger_matches_reference(out_dir, truths) -> None:
    assert_same(out_dir,
                lambda d: ref_write_ledger(truths, d),
                lambda d: dataio.write_ledger(truths, d))


@pytest.mark.parametrize("write", [
    lambda d: dataio.write_long_table([("q", 1, "g", "F", 5, "skew", 0.5)], dataio.CURVE_HEADER, d, "parquet"),
    lambda d: dataio.write_protocol_table([], d, "parquet"),
])
def test_unknown_format_leaves_the_destination_untouched(tmp_path, write) -> None:
    out = tmp_path / "kept.csv"
    out.write_text("earlier output\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unrecognized format 'parquet'"):
        write(out)
    assert out.read_text(encoding="utf-8") == "earlier output\n"
