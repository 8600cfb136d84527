"""The table and JSONL writers against reference copies of their earlier,
per-schema implementations.

Each ``ref_*`` function below is the writer as it stood before every table
went through ``dataio.write_long_table`` and every path through
``dataio.text_stream``; ``ref_write_table`` and ``ref_write_snapshots`` are
also the writers as they stood before the generated f-string line encoders.
The hypothesis tests feed both the same rows (strings with delimiters,
quotes, line breaks and non-ASCII; ``None``, infinities, NaN, tiny and huge
floats, ints, bools) and require equal output, for a path destination and
for an open stream, with chunks small enough that a table spans several.
"""
from __future__ import annotations

import ast
import csv
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankaudit import dataio, encoders, names
from rankaudit.dataio import format_cell, format_real
from rankaudit.encoders import Runs
from rankaudit.mixedlm import ProtocolRow
from rankaudit.model import CandidateRecord, GroupScheme, QuerySeries, RankingSnapshot
from rankaudit.simulate import POSTPROCESS_DETGREEDY, QueryTruth, ScoreModel, SimConfig, generate

# ---------------------------------------------------------------------------
# reference writers


def _ref_json_value(value):
    if value is None:
        return None
    if value == -math.inf:
        return dataio.NEG_INF
    return float(format_real(value))


class _RefCsvWriter:
    """``csv.writer`` with an LF line end, except that in a row with a cell
    holding CR, every cell holding a comma, a quote, CR or LF is quoted."""

    def __init__(self, destination):
        self.destination = destination
        self.writer = csv.writer(destination, lineterminator="\n")

    def writerow(self, cells):
        if not any(isinstance(cell, str) and "\r" in cell for cell in cells):
            self.writer.writerow(cells)
            return
        texts = ["" if cell is None else str(cell) for cell in cells]
        self.destination.write(",".join(
            '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text for text in texts
        ) + "\n")


def ref_write_long_table(rows, header, destination, fmt="csv"):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_write_long_table(rows, header, handle, fmt)
            return
    if fmt == "csv":
        writer = _RefCsvWriter(destination)
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


def ref_write_table(rows, header, destination, fmt="csv"):
    """``write_long_table`` for any header, as it stood before the generated
    encoders: the ``csv`` module, or one ``json`` object per row."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_write_table(rows, header, handle, fmt)
            return
    reals = [i for i, name in enumerate(header) if name in dataio.REAL_COLUMNS]
    if fmt == "csv":
        writer = _RefCsvWriter(destination)
        writer.writerow(header)
        for row in rows:
            cells = list(row)
            for i in reals:
                cells[i] = format_cell(cells[i])
            writer.writerow(cells)
    else:
        for row in rows:
            obj = dict(zip(header, row))
            for i in reals:
                obj[header[i]] = _ref_json_value(obj[header[i]])
            destination.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            destination.write("\n")


def ref_write_protocol_table(rows, destination, fmt="csv"):
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            ref_write_protocol_table(rows, handle, fmt)
            return
    if fmt == "csv":
        writer = _RefCsvWriter(destination)
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
            write_rows(_RefCsvWriter(handle))
    else:
        write_rows(_RefCsvWriter(destination))


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
    writer = _RefCsvWriter(destination)
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


# ---------------------------------------------------------------------------
# generated line encoders: every header, and every kind of cell that takes
# a per-cell formatter instead of the inline cell code


# Every fixed-schema header the package defines.
HEADERS = sorted({value for name, value in vars(dataio).items() if name.endswith("_HEADER")}
                 | {names._TABLE_COLUMNS})

# Strings the encoders write as they are, and strings that need quoting
# or resemble what the kind checks search for.
PLAIN = st.text(alphabet=st.sampled_from(list("abz_-. é中😀")), max_size=6)
AWKWARD = st.one_of(
    st.text(alphabet=st.sampled_from(list('a ,";\r\n\t\u2028\u2029\u0085é{}:\\')), max_size=6),
    st.sampled_from(["None", "null", "nan", ":nan", ":inf", "-inf", "undefined", "True"]),
)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([5e-324, 1e-300, -1e-300, 1e300, -0.0]))
CLEAN = {
    "str": PLAIN,
    "int": INTS,
    "real": st.one_of(st.none(), FINITE, st.just(-math.inf)),
}
# Cells that may give their column a per-cell formatter, for a non-real
# and a real column.
ODD = {
    "str": st.one_of(AWKWARD, INTS, st.none(), st.booleans(), REALS),
    "real": st.one_of(REALS, st.booleans()),
}


@st.composite
def tables(draw, header):
    """Rows for ``header``: each non-real column of one type, str or int;
    in half the tables, any cell may instead be drawn from ``ODD``."""
    kinds = ["real" if name in dataio.REAL_COLUMNS else draw(st.sampled_from(["str", "int"]))
             for name in header]
    if draw(st.booleans()):
        cells = [st.one_of(CLEAN[kind], ODD["real" if kind == "real" else "str"]) for kind in kinds]
    else:
        cells = [CLEAN[kind] for kind in kinds]
    return draw(st.lists(st.tuples(*cells), max_size=10))


@pytest.mark.parametrize("header", HEADERS, ids="-".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=FORMATS, chunk=st.integers(min_value=1, max_value=4))
def test_every_header_matches_the_reference(out_dir, header, data, fmt, chunk) -> None:
    rows = data.draw(tables(header))
    with mock.patch.object(dataio, "_WRITE_ROWS", chunk):
        assert_same(out_dir,
                    lambda d: ref_write_table(rows, header, d, fmt),
                    lambda d: dataio.write_long_table(rows, header, d, fmt))


CURVE_ROW = ("q1", 1, "gender", "F", 5, "skew", 0.25)
CHUNK = 4
# (format, column, cell): a cell that needs quoting or a per-cell formatter,
# or one past the header, put into a curve row the encoders write inline.
FALLBACKS = [
    ("csv", 0, "a,b"),
    ("csv", 0, 'a"b'),
    ("csv", 0, "a\rb"),
    ("csv", 0, "a\nb"),
    ("csv", 3, None),
    ("csv", 7, "extra"),
    ("json", 0, None),
    ("json", 0, 7),
    ("json", 1, True),
    ("json", 4, 5.0),
    ("json", 6, 3),
    ("json", 6, True),
    ("json", 6, math.nan),
    ("json", 6, math.inf),
    ("json", 6, -1.7976931348623157e308),
    ("json", 7, "extra"),
]
# The cell kinds of a curve chunk that the encoders write inline.
INLINE_CURVE_KINDS = ("str", "int", "str", "str", "int", "str", "real")


@pytest.mark.parametrize("fmt, column, cell", FALLBACKS)
@pytest.mark.parametrize("at", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_a_chunk_the_encoder_could_get_wrong_takes_the_slow_path(out_dir, fmt, column, cell, at) -> None:
    """The odd row sits last in a chunk, first in one, or second.  The
    output is the reference's, and every other chunk keeps the inline cell
    code; the odd chunk's column may get a per-cell formatter instead.
    Column 7 is one past the header: a row too long, refused before the
    destination is opened."""
    rows = [(f"q{i}", *CURVE_ROW[1:6], i / 7) for i in range(3 * CHUNK)]
    bad = list(rows[at])
    if column < len(bad):
        bad[column] = cell
    else:
        bad.append(cell)
    rows[at] = tuple(bad)
    header = dataio.CURVE_HEADER
    if column == len(header):
        for destination in (out_dir / "untouched", io.StringIO()):
            with pytest.raises(ValueError, match=f"^row {at} has 8 cells, but the header has 7$"):
                dataio.write_long_table(rows, header, destination, fmt)
        assert not (out_dir / "untouched").exists() and not destination.getvalue()
        return
    with mock.patch.object(dataio, "_WRITE_ROWS", CHUNK), \
            mock.patch.object(encoders, "line_encoder", wraps=encoders.line_encoder) as encoder:
        assert_same(out_dir,
                    lambda d: ref_write_table(rows, header, d, fmt),
                    lambda d: dataio.write_long_table(rows, header, d, fmt))
    # One encoder per chunk, three chunks for each destination.
    kinds = [call.args[1] for call in encoder.call_args_list]
    assert len(kinds) == 6 and kinds[:3] == kinds[3:]
    del kinds[at // CHUNK]
    assert kinds[:2] == [INLINE_CURVE_KINDS] * 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_clean_rows_never_take_the_slow_path(out_dir, fmt) -> None:
    """Curve rows with every clean value, in chunks of three: each chunk is
    written with the inline cell code alone."""
    rows = [("q\u2028é", 1, "gender", "", 5, "skew", value)
            for value in (None, -math.inf, 0.5, 1e-300, 1e300, -0.0, 5e-324)]
    with mock.patch.object(dataio, "_WRITE_ROWS", 3), \
            mock.patch.object(encoders, "line_encoder", wraps=encoders.line_encoder) as encoder:
        assert_same(out_dir,
                    lambda d: ref_write_table(rows, dataio.CURVE_HEADER, d, fmt),
                    lambda d: dataio.write_long_table(rows, dataio.CURVE_HEADER, d, fmt))
    assert [call.args[1] for call in encoder.call_args_list] == [INLINE_CURVE_KINDS] * 6


@pytest.mark.parametrize("name", ["it's", "{k}", "back\\slash", "two\nlines", "two words", ""])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_header_names_that_are_not_identifiers(out_dir, name, fmt) -> None:
    rows = [("q1", 0.5), ("q2", None)]
    header = (name, "value")
    assert_same(out_dir,
                lambda d: ref_write_table(rows, header, d, fmt),
                lambda d: dataio.write_long_table(rows, header, d, fmt))


@pytest.mark.parametrize("header, rows", [(("name",), [("",), ("a",), (7,)]), ((), [(), ()])],
                         ids=["one-column", "no-column"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_of_one_column_and_of_none(out_dir, header, rows, fmt) -> None:
    """``csv`` quotes the empty cell of a one-column row, which would
    otherwise read back as a blank line."""
    assert_same(out_dir,
                lambda d: ref_write_table(rows, header, d, fmt),
                lambda d: dataio.write_long_table(rows, header, d, fmt))


@pytest.mark.parametrize("width", [6, 8])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_row_of_the_wrong_width_is_refused_before_writing(tmp_path, width, fmt) -> None:
    """A short or long row is refused with its index and both widths, and
    nothing is written: no CSV header line, no earlier rows."""
    rows = [CURVE_ROW, CURVE_ROW, (*CURVE_ROW, "extra")[:width], CURVE_ROW]
    path, stream = tmp_path / "kept.csv", io.StringIO()
    path.write_text("earlier output\n", encoding="utf-8")
    for destination in (path, stream):
        with pytest.raises(ValueError, match=f"^row 2 has {width} cells, but the header has 7$"):
            dataio.write_long_table(rows, dataio.CURVE_HEADER, destination, fmt)
    assert path.read_text(encoding="utf-8") == "earlier output\n" and stream.getvalue() == ""


@pytest.mark.parametrize("header", [dataio.CURVE_HEADER, ("row", "5", "10", "15", "20", "25", "30")],
                         ids=["identifiers", "matrix"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rows_may_be_any_iterable(out_dir, header, fmt) -> None:
    """An iterator of rows is read once, whatever the header's names."""
    rows = [(f"q{i}", *CURVE_ROW[1:]) for i in range(5)]
    assert_same(out_dir,
                lambda d: ref_write_table(rows, header, d, fmt),
                lambda d: dataio.write_long_table(iter(rows), header, d, fmt))


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(REALS, st.booleans(), st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf,
                                                              -math.inf, math.nan])))
def test_json_reals_take_repr_only_where_it_is_the_encoders_text(value) -> None:
    """A JSONL real cell, per cell, shared or looked up in ``JsonReals``, is
    the JSON encoder's text of ``_json_value``: ``repr`` for finite floats
    and the encoder for ``-inf``, NaN and the infinities."""
    expected = dataio._json_line(dataio._json_value(value))
    assert encoders._json_real(value) == expected
    assert encoders._shared_text(True, value, False) == expected
    if value:
        assert encoders.JsonReals()[value] == expected


def test_no_csv_writer_in_the_package() -> None:
    """Every table is written by the generated encoders: no module of the
    package calls ``csv.writer``."""
    package = Path(dataio.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "writer"
    ]
    assert calls == []


# ---------------------------------------------------------------------------
# tables written a run at a time

# Cells a run shares, by kind: clean, or hostile (delimiters, quotes, CR,
# LF and U+2028 in ids and labels, a ``None`` label, a ``bool`` day).
HOSTILE = st.text(alphabet=st.sampled_from(list('ab,"\r\n\u2028é')), max_size=4)
SHARED = {
    "text": (PLAIN, HOSTILE),
    "label": (PLAIN, st.one_of(HOSTILE, st.none())),
    "day": (DAYS, st.booleans()),
}
# Values that repeat, both zeros, NaN, the infinities and the largest float
# (whose 10 digits round past the float range); a hostile run may also
# hold an int.
RUN_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.5, -0.25, math.nan, math.inf, -math.inf,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e-300]),
    st.floats(),
)
# (header, varying columns, kinds of the shared cells, the row of shared
# cells ``s`` with cutoff ``k`` and value ``v``).
RUN_TABLES = {
    "curve": (dataio.CURVE_HEADER, (4, 6), ["text", "day", "text", "label", "text"],
              lambda s, k, v: (*s[:4], k, s[4], v)),
    "churn": (dataio.CHURN_HEADER, (3, 7), ["text", "text", "label", "text", "day", "day"],
              lambda s, k, v: (*s[:3], k, *s[3:], v)),
}


@st.composite
def run_tables(draw, shared_kinds):
    """Up to four runs of up to five rows, each run clean or hostile.  A
    value is often one already drawn, so that ``0.0`` follows ``-0.0``."""
    runs, drawn = [], [-0.0]
    for _ in range(draw(st.integers(0, 4))):
        hostile = draw(st.booleans())
        shared = tuple(draw(st.one_of(SHARED[kind][:1 + hostile])) for kind in shared_kinds)
        values = st.one_of(st.sampled_from(drawn), RUN_VALUES, *[st.integers(-3, 3)] * hostile)
        ks = draw(st.lists(INTS, max_size=5))
        runs.append((shared, (ks, [draw(values) for _ in ks])))
        drawn += runs[-1][1][1]
    return runs


@pytest.mark.parametrize("table", RUN_TABLES)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), fmt=FORMATS, chunk=st.integers(min_value=1, max_value=4), as_runs=st.booleans())
def test_runs_match_the_reference_over_their_rows(out_dir, table, data, fmt, chunk, as_runs) -> None:
    """Written a run at a time (``_LONG_RUN`` 0) or as plain rows (these
    runs are shorter than the default ``_LONG_RUN``)."""
    header, varying, shared_kinds, row = RUN_TABLES[table]
    runs = data.draw(run_tables(shared_kinds))
    rows = [row(shared, k, v) for shared, columns in runs for k, v in zip(*columns)]
    written = Runs(header, varying, runs)
    assert len(written) == len(rows) and list(written) == rows
    long_run = 0 if as_runs else encoders._LONG_RUN
    with mock.patch.object(dataio, "_WRITE_ROWS", chunk), mock.patch.object(encoders, "_LONG_RUN", long_run):
        assert_same(out_dir,
                    lambda d: ref_write_long_table(rows, header, d, fmt),
                    lambda d: dataio.write_long_table(written, header, d, fmt))


@pytest.mark.parametrize("run_rows, runs, encoders_per_write", [
    # 4,000 rows in runs of 4: eight chunks of at most 512 rows.
    pytest.param([4] * 1000, 1000, 8, id="short-runs"),
    # A mean of 10 rows per run takes the run path, one encoder per run.
    pytest.param([9, 11] * 30, 60, 60, id="mean-at-the-crossover"),
    pytest.param([9, 10] * 30, 60, 2, id="mean-below-the-crossover"),
    # Runs as long as a full-grid sweep's: one encoder per run.
    pytest.param([300] * 12, 12, 12, id="long-runs"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_short_runs_are_written_as_plain_rows(out_dir, run_rows, runs, encoders_per_write, fmt) -> None:
    """A table whose runs average fewer than ``_LONG_RUN`` rows is written
    as plain rows, ``_WRITE_ROWS`` at a time, with the same bytes."""
    assert len(run_rows) == runs
    table = Runs(dataio.CURVE_HEADER, (4, 6), [
        ((f"q{i}", 1, "gender", "F", "skew"), (list(range(1, n + 1)), [k / 7 for k in range(n)]))
        for i, n in enumerate(run_rows)
    ])
    rows = list(table)
    with mock.patch.object(encoders, "line_encoder", wraps=encoders.line_encoder) as encoder:
        assert_same(out_dir,
                    lambda d: ref_write_long_table(rows, dataio.CURVE_HEADER, d, fmt),
                    lambda d: dataio.write_long_table(table, dataio.CURVE_HEADER, d, fmt))
    # Two destinations: a path and an open stream.
    assert encoder.call_count == 2 * encoders_per_write


# (field, value): a record field the loader refuses to read back, and
# which ``json`` writes differently from the f-string.
LOADER_REFUSED_FIELDS = [
    ("candidate_id", 7),
    ("first_name", 7),
    ("last_name", True),
    ("missing", 0),
    ("missing", None),
    ("group_labels", {"gender": 1}),
    ("group_labels", {"gender": ["F"]}),
    ("group_labels", {1: "F"}),
]


@pytest.mark.parametrize("field, value", LOADER_REFUSED_FIELDS)
def test_a_field_the_loader_refuses_is_refused_when_built(field, value) -> None:
    fields = {"candidate_id": "c1", "first_name": None, "last_name": None,
              "group_labels": {"gender": "M"}, "missing": False, field: value}
    with pytest.raises(TypeError, match=field):
        CandidateRecord(**fields)


@pytest.mark.parametrize("field, value", LOADER_REFUSED_FIELDS)
@pytest.mark.parametrize("day", [1, 2, 3])
def test_a_snapshot_the_encoder_could_get_wrong_takes_the_slow_path(out_dir, field, value, day) -> None:
    """Three three-record snapshots; the middle record of the first,
    second or last one carries a field ``json`` would write differently
    from the f-string.  Its constructor refuses it, so the writer never
    sees that snapshot, and the other two write as the reference does,
    two lines at a time, and reload equal."""
    snapshots = {}
    for d in (1, 2, 3):
        records = [CandidateRecord(f"c{i}\u2028", "Zoë", None, {"gender": "F"}) for i in range(3)]
        if d == day:
            fields = {"candidate_id": "bad", "first_name": None, "last_name": None,
                      "group_labels": {"gender": "M"}, "missing": False, field: value}
            with pytest.raises(TypeError, match=field):
                CandidateRecord(**fields)
            continue
        snapshots[d] = RankingSnapshot(query_id="q1", day=d, entries=tuple(records))
    series = [QuerySeries(query_id="q1", snapshots=snapshots)]
    written = out_dir / "written.jsonl"
    with mock.patch.object(dataio, "_WRITE_ROWS", 2):
        assert_same(out_dir,
                    lambda d: ref_write_snapshots(series, d),
                    lambda d: dataio.write_snapshots(series, d))
        dataio.write_snapshots(series, written)
    loaded, report = dataio.load_dataset(written)
    assert report.ok
    assert loaded == series


class Text(str):
    """A ``str`` subclass, as ``numpy.str_`` is."""


# Strings of the round trip: line separators other than LF, quotes,
# backslashes, braces, non-ASCII; plain, as ``Text`` or as ``numpy.str_``.
_BUILT_TEXT = st.text(alphabet=st.sampled_from(list('ab ,";\r\n\t\u2028\u2029\u0085é中😀\\{}:')), max_size=6)
BUILT_TEXT = st.one_of(_BUILT_TEXT, _BUILT_TEXT.map(Text), _BUILT_TEXT.map(np.str_))
BUILT_ID = BUILT_TEXT.filter(bool)
BUILT_RECORDS = st.one_of(
    st.builds(CandidateRecord, candidate_id=BUILT_ID, first_name=st.one_of(st.none(), BUILT_TEXT),
              last_name=st.one_of(st.none(), BUILT_TEXT), group_labels=st.dictionaries(BUILT_TEXT, BUILT_TEXT, max_size=3)),
    st.builds(CandidateRecord, candidate_id=BUILT_ID, missing=st.just(True)),
)


@st.composite
def built_datasets(draw) -> list[QuerySeries]:
    """Series built through the public constructors.  Snapshots are never
    empty, since the format has no line for an empty one."""
    out = []
    for query_id in draw(st.lists(BUILT_ID, min_size=1, max_size=3, unique=True)):
        snapshots = {}
        for day in draw(st.lists(st.integers(1, 2 ** 63 - 1), min_size=1, max_size=3, unique=True)):
            entries = draw(st.lists(BUILT_RECORDS, min_size=1, max_size=4, unique_by=lambda r: r.candidate_id))
            snapshots[day] = RankingSnapshot(query_id=query_id, day=day, entries=tuple(entries))
        out.append(QuerySeries(query_id=query_id, snapshots=snapshots))
    return out


@settings(max_examples=150, deadline=None)
@given(series=built_datasets(), chunk=st.integers(min_value=1, max_value=5))
def test_built_datasets_write_and_reload_equal(out_dir, series, chunk) -> None:
    first, second = out_dir / "first.jsonl", out_dir / "second.jsonl"
    with mock.patch.object(dataio, "_WRITE_ROWS", chunk):
        assert_same(out_dir,
                    lambda d: ref_write_snapshots(series, d),
                    lambda d: dataio.write_snapshots(series, d))
        dataio.write_snapshots(series, first)
        loaded, report = dataio.load_dataset(first)
        assert report.ok
        assert loaded == sorted(series, key=lambda s: s.query_id)
        dataio.write_snapshots(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def assert_built_publicly(series: list[QuerySeries]) -> None:
    """Every snapshot and record of ``series`` passes the public checks."""
    for one in series:
        for snap in one.snapshots.values():
            assert RankingSnapshot(snap.query_id, snap.day, snap.entries) == snap
            for record in snap.entries:
                fields = (record.candidate_id, record.first_name, record.last_name, record.group_labels, record.missing)
                assert CandidateRecord(*fields) == record


def test_simulated_records_pass_the_public_checks() -> None:
    scheme = GroupScheme("group", ("A", "B", "C"))
    labels = scheme.labels
    config = SimConfig(
        seed=5, n_queries=4, pool_size=(20, 30), scheme=scheme,
        group_weights=dict.fromkeys(labels, 1 / 3),
        score_models={label: ScoreModel(0.6, 0.15) for label in labels},
        days=3, departure_probs=dict.fromkeys(labels, 0.2), missing_prob=0.2,
        postprocess=POSTPROCESS_DETGREEDY,
    )
    series = generate(config).series
    assert any(record.missing for one in series for snap in one.snapshots.values() for record in snap.entries)
    assert_built_publicly(series)


def test_labeled_records_pass_the_public_checks() -> None:
    table = names.table_from_rows([("ada", "F", 3), ("bo", "M", 2), ("cy", "F", 1), ("cy", "M", 1)], SCHEME)
    entries = (
        CandidateRecord("c1", "Ada", "L", {"region": "EU"}),
        CandidateRecord("c2", "Bo"),
        CandidateRecord("c3", "Cy"),
        CandidateRecord("c4", None, "X"),
        CandidateRecord("c5", missing=True),
    )
    labeled, _ = names.label_dataset([RankingSnapshot("q1", 1, entries)], SCHEME, [table])
    assert [record.group_labels.get("gender") for record in labeled[0].entries] == ["F", "M", "unknown", "unknown", None]
    assert_built_publicly([QuerySeries("q1", {1: snap}) for snap in labeled])


# ---------------------------------------------------------------------------
# write -> read -> write


def round_trip_rows(header, alphabet):
    text = st.text(alphabet=st.sampled_from(list(alphabet)), max_size=6)
    if header == dataio.CURVE_HEADER:
        return st.tuples(text, DAYS, text, text, INTS, text, CELLS)
    return st.tuples(text, text, text, INTS, text, DAYS, DAYS, CELLS)


# Line separators other than LF (U+2028, U+2029, U+0085), quotes, commas,
# CR, LF, non-ASCII.
ROUND_TRIP_ALPHABET = 'ab ,";\r\n\u2028\u2029\u0085é中'


def _round_trip(out_dir, rows, header, fmt) -> tuple[bytes, bytes]:
    first, second = out_dir / "first", out_dir / "second"
    dataio.write_long_table(rows, header, first, fmt)
    read = [tuple(raw[name] for name in header) for _, raw in dataio.read_long_table(first)]
    assert len(read) == len(rows)
    dataio.write_long_table(read, header, second, fmt)
    return first.read_bytes(), second.read_bytes()


@pytest.mark.parametrize("header", [dataio.CURVE_HEADER, dataio.CHURN_HEADER], ids=["curve", "churn"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=FORMATS)
def test_write_read_write_is_byte_identical(out_dir, header, data, fmt) -> None:
    rows = data.draw(st.lists(round_trip_rows(header, ROUND_TRIP_ALPHABET), max_size=6))
    first, second = _round_trip(out_dir, rows, header, fmt)
    assert second == first


def test_csv_cell_holding_a_carriage_return_reads_back(out_dir) -> None:
    first, second = _round_trip(out_dir, [("q\r1", 1, "gender", "F", 5, "skew", 0.5)], dataio.CURVE_HEADER, "csv")
    assert second == first
    assert first == b'query_id,day,attribute,label,k,metric,value\n"q\r1",1,gender,F,5,skew,0.5\n'


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_largest_float_reads_back(out_dir, fmt) -> None:
    first, second = _round_trip(out_dir, [("q1", 1, "gender", "F", 5, "skew", -1.7976931348623157e308)],
                                dataio.CURVE_HEADER, fmt)
    assert second == first
    assert b"-1.7976931348623157e+308" in first
