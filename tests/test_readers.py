"""Every input reader against arbitrary input, and the CSV readers against
reference copies of their earlier implementations.

The fuzz tests feed arbitrary text and arbitrary bytes (invalid UTF-8
included) to each reader and allow only the errors the CLI reports as one
``error:`` line: :class:`AuditError`, ``ValueError`` and ``OSError``.

Each ``ref_*`` function below is a reader as it stood before every headed
CSV input went through ``dataio.csv_table``: ``ref_csv_rows`` numbered rows
by counting them, and the baseline, name-table and pool readers each
checked their own header, blank rows and widths; ``ref_read_long_table``
read CSV through ``csv.DictReader``.  The differential tests require the
same results, exception types and messages, save for the announced changes
that :func:`announced` applies to the reference's outcome.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankaudit import cli, dataio, names, readers
from rankaudit.detgreedy import ScoredCandidate
from rankaudit.errors import AuditError, MalformedRow, UnknownLabel
from rankaudit.model import EXTERNAL_BASELINE, GroupProportions, GroupScheme

from conftest import GENDER, load_ledger

# ---------------------------------------------------------------------------
# reference readers


def ref_csv_rows(stream):
    reader = csv.reader(stream)
    lineno = 0
    while True:
        lineno += 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from None
        yield lineno, row


def ref_number(text, kind=float):
    """``kind(text)`` of a number cell; text with the ``_`` digit grouping
    that ``float`` and ``int`` accept is refused."""
    if isinstance(text, str) and "_" in text:
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    return kind(text)


def ref_load_baseline(path, schemes):
    shares = {}
    with open(path, encoding="utf-8", newline="") as handle:
        rows = ref_csv_rows(handle)
        _, header = next(rows, (1, None))
        if header is None:
            raise MalformedRow("line 1: empty baseline file")
        if tuple(h.strip() for h in header) != dataio.BASELINE_HEADER:
            raise MalformedRow(f"line 1: expected header {','.join(dataio.BASELINE_HEADER)}, got {header!r}")
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 4:
                raise MalformedRow(f"line {lineno}: expected 4 fields, got {len(row)}")
            query_id, attribute, label, raw_share = (f.strip() for f in row)
            scheme = schemes.get(attribute)
            if scheme is None:
                raise UnknownLabel(f"line {lineno}: no scheme for attribute {attribute!r}")
            if label not in scheme.labels:
                raise UnknownLabel(f"line {lineno}: label {label!r} not in scheme {attribute!r}")
            try:
                share = ref_number(raw_share)
            except ValueError:
                raise MalformedRow(f"line {lineno}: share {raw_share!r} is not a number") from None
            if not 0.0 <= share <= 1.0:
                raise MalformedRow(f"line {lineno}: share must be in [0, 1]")
            bucket = shares.setdefault((query_id, attribute), {})
            if label in bucket:
                raise MalformedRow(f"line {lineno}: duplicate label {label!r} for {query_id!r}/{attribute!r}")
            bucket[label] = share
    out = {}
    for (query_id, attribute), bucket in shares.items():
        scheme = schemes[attribute]
        if set(bucket) != set(scheme.labels):
            absent = sorted(set(scheme.labels) - set(bucket))
            raise MalformedRow(f"baseline for {query_id!r}/{attribute!r} lacks labels {absent}")
        total = sum(bucket.values())
        if abs(total - 1.0) > 1e-6:
            raise MalformedRow(f"baseline for {query_id!r}/{attribute!r} sums to {total!r}, expected 1")
        out[(query_id, attribute)] = GroupProportions(
            scheme=scheme, shares={label: bucket[label] / total for label in scheme.labels}, source=EXTERNAL_BASELINE
        )
    return out


def ref_load_name_table(path, scheme):
    counts = {}
    with open(path, encoding="utf-8", newline="") as handle:
        rows = ref_csv_rows(handle)
        _, header = next(rows, (1, None))
        if header is None:
            raise MalformedRow("line 1: empty table, expected header name,label,count")
        if tuple(h.strip() for h in header) != ("name", "label", "count"):
            raise MalformedRow(f"line 1: expected header name,label,count, got {header!r}")
        for lineno, row in rows:
            ref_add_row(counts, scheme, lineno, row)
    return names.NameFrequencyTable(scheme=scheme, counts=counts)


def ref_add_row(counts, scheme, lineno, row):
    if not row:
        return
    if len(row) != 3:
        raise MalformedRow(f"line {lineno}: expected 3 fields, got {len(row)}")
    raw_name, raw_label, raw_count = row
    name = raw_name.strip().casefold()
    if not name:
        raise MalformedRow(f"line {lineno}: empty name")
    label = raw_label.strip()
    if label not in scheme.labels:
        raise UnknownLabel(f"line {lineno}: label {label!r} not in scheme {scheme.attribute_name!r}")
    try:
        count = ref_number(raw_count, int)
    except ValueError:
        raise MalformedRow(f"line {lineno}: count {raw_count!r} is not an integer") from None
    if count < 0:
        raise MalformedRow(f"line {lineno}: count must be non-negative")
    if count:
        counts.setdefault(name, dict.fromkeys(scheme.labels, 0))[label] += count


def ref_read_pool(path):
    pool = []
    with open(path, encoding="utf-8", newline="") as handle:
        rows = ref_csv_rows(handle)
        _, header = next(rows, (1, None))
        if header is None or tuple(h.strip() for h in header) != ("candidate_id", "label", "score"):
            raise ValueError("pool CSV must have header candidate_id,label,score")
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRow(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                pool.append(ScoredCandidate(row[0].strip(), row[1].strip(), ref_number(row[2])))
            except ValueError as exc:
                raise MalformedRow(f"line {lineno}: {exc}") from None
    return pool


def ref_read_long_table(path):
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    if text.lstrip()[:1] == "{":
        rows = list(ref_json_objects(text.split("\n")))
    else:
        reader = csv.DictReader(io.StringIO(text))
        try:
            rows = [(reader.line_num, raw) for raw in reader]
        except csv.Error as exc:
            raise MalformedRow(f"line {reader.reader.line_num}: {exc}") from None
    for lineno, raw in rows:
        raw["value"] = ref_cell(lineno, raw, "value", ref_parse_cell, required=False)
    return rows


def ref_json_objects(lines):
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRow(f"line {lineno}: invalid JSON: {exc.msg}") from None
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {dataio.INVALID_NUMBER}: {exc}") from None
        except RecursionError:
            raise MalformedRow(f"line {lineno}: {dataio.NESTING_TOO_DEEP}") from None
        if not isinstance(raw, dict):
            raise MalformedRow(f"line {lineno}: row is not a JSON object")
        yield lineno, raw


def ref_cell(lineno, row, column, parse, required=True):
    value = row.get(column)
    if value is None and required:
        raise MalformedRow(f"line {lineno}: no {column!r} value")
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise MalformedRow(f"line {lineno}: {column} {value!r} does not parse") from None


def ref_parse_cell(value):
    if value is None or value == dataio.UNDEFINED or value == "":
        return None
    if value == dataio.NEG_INF:
        return -math.inf
    return ref_number(value)


# ---------------------------------------------------------------------------
# comparing outcomes


def outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # both readers must fail the same way
        return type(exc), str(exc)


def row_ends(path) -> list[int]:
    """The physical line each CSV row of ``path`` ends on; for a row the
    ``csv`` module cannot split, the line it stopped at."""
    ends = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            for _ in reader:
                ends.append(reader.line_num)
        except csv.Error:
            ends.append(reader.line_num)
        except UnicodeDecodeError:
            pass
    return ends


def announced(ref, path, header):
    """The reference's outcome for the file at ``path`` with the announced
    changes applied: a row's error names the physical line the row ends on
    (the reference counted rows), and a missing or different header reads
    ``line 1: empty file, expected header ...`` or ``line 1: expected
    header ..., got [...]``, a :class:`MalformedRow` for the pool too."""
    if not (isinstance(ref, tuple) and len(ref) == 2 and isinstance(ref[0], type)):
        return ref
    kind, message = ref
    expected = ",".join(header)
    if message in ("line 1: empty baseline file", "line 1: empty table, expected header name,label,count"):
        return MalformedRow, f"line 1: empty file, expected header {expected}"
    if message == "pool CSV must have header candidate_id,label,score":
        with open(path, encoding="utf-8", newline="") as handle:
            first = next(csv.reader(handle), None)
        if first is None:
            return MalformedRow, f"line 1: empty file, expected header {expected}"
        return MalformedRow, f"line 1: expected header {expected}, got {first!r}"
    if "expected header" in message:
        return ref
    ends = row_ends(path)
    return kind, re.sub(r"^line (\d+):", lambda m: f"line {ends[int(m[1]) - 1]}:", message)


# ---------------------------------------------------------------------------
# strategies


CELLS = st.one_of(
    st.sampled_from([
        "", " ", "F", "M", "X", " F ", "q1", "gender", "age", "0.5", " 0.5", "1", "0", "-1", "1.5", "lots",
        "nan", "inf", "-inf", "1e400", "1_5", "0_5", "undefined", "ada", "Ada", " ", "é", '"a,b"', '"a\nb"',
        '"a\r\nb"',
        '"a""b"', '"', 'a"b', '"x"y', "\r", "\x00", "9" * 5000,
    ]),
    st.text(max_size=4),
)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw, header):
    """A CSV file: the header (as is, padded, changed or absent), then rows
    of 0-5 cells, blank lines and cells holding quotes, delimiters and line
    breaks, joined by LF, CRLF or CR."""
    first = draw(st.sampled_from([
        ",".join(header), " , ".join(header), ",".join(header[:-1]), ",".join(header) + ",x", "", None,
        '"' + '","'.join(header) + '"', ",".join(header).upper(),
    ]))
    lines = [] if first is None else [first]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.one_of(st.just(len(header)), st.integers(0, 5)))
        lines.append(",".join(draw(st.lists(CELLS, min_size=width, max_size=width))))
    newline = draw(NEWLINES)
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.just(10**400), st.floats(),
    st.sampled_from(["", "1", "-inf", "undefined", "q1", "x", "2.5", "2_5"]), st.lists(st.integers(), max_size=1),
)


@st.composite
def jsonl_texts(draw, keys):
    """JSONL lines of objects over ``keys`` with values of every JSON type,
    NaN, infinities and ints too large for a float, among blank and broken
    lines."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        obj = draw(st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=len(keys)))
        lines.append(draw(st.sampled_from(["{}", "", "{", "[1]", json.dumps(obj)[:-1], json.dumps(obj)]))
                     if draw(st.integers(0, 3)) == 0 else json.dumps(obj))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\n\n"])) for line in lines)


TEXTS = st.one_of(st.text(), st.text(alphabet=',"\r\n{}[]:0F x é'))
BINARY = st.binary(max_size=40)

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def read_fuzz(read, path: Path) -> None:
    try:
        read(path)
    except (AuditError, ValueError, OSError):
        pass


# ---------------------------------------------------------------------------
# differential: the CSV readers against the references


BASELINE_CASES = csv_texts(dataio.BASELINE_HEADER)
NAME_CASES = csv_texts(("name", "label", "count"))
POOL_CASES = csv_texts(dataio.POOL_HEADER)


def _differ(path: Path, text: str, read, ref_read, header):
    path.write_text(text, encoding="utf-8", newline="")
    got, expected = outcome(read, path), announced(outcome(ref_read, path), path, header)
    assert repr(got) == repr(expected)


@FUZZ
@given(text=BASELINE_CASES)
def test_baseline_reads_like_the_reference(tmp_path, text) -> None:
    schemes = {"gender": GENDER}
    _differ(tmp_path / "baseline.csv", text, lambda p: dataio.load_baseline(p, schemes),
            lambda p: ref_load_baseline(p, schemes), dataio.BASELINE_HEADER)


@FUZZ
@given(text=NAME_CASES)
def test_name_table_reads_like_the_reference(tmp_path, text) -> None:
    _differ(tmp_path / "names.csv", text, lambda p: names.load_name_table(p, GENDER),
            lambda p: ref_load_name_table(p, GENDER), ("name", "label", "count"))


@FUZZ
@given(text=POOL_CASES)
def test_pool_reads_like_the_reference(tmp_path, text) -> None:
    _differ(tmp_path / "pool.csv", text, dataio.read_pool, ref_read_pool, dataio.POOL_HEADER)


@FUZZ
@given(text=st.one_of(csv_texts(dataio.CURVE_HEADER), csv_texts(dataio.CHURN_HEADER),
                      jsonl_texts(dataio.CURVE_HEADER + ("start_day", "end_day"))))
def test_long_table_reads_like_the_reference(tmp_path, text) -> None:
    # CSV line numbers were physical lines here already.  A short CSV row's
    # absent cells read as None in both; the reference kept a long row's
    # extra cells under the key None, which no caller reads.
    path = tmp_path / "table"
    path.write_text(text, encoding="utf-8", newline="")
    got, expected = outcome(dataio.read_long_table, path), outcome(ref_read_long_table, path)
    if isinstance(expected, list):
        for _, raw in expected:
            raw.pop(None, None)
    if isinstance(expected, tuple) and expected[0] is OverflowError:
        # The reference let a value too large for a float escape.
        assert got[0] is MalformedRow and got[1].endswith("does not parse")
    else:
        assert repr(got) == repr(expected)


def test_row_after_a_quoted_line_break_names_its_physical_line(tmp_path) -> None:
    path = tmp_path / "pool.csv"
    path.write_text('candidate_id,label,score\n"a\nb",F,0.5\nc,F\n', encoding="utf-8")
    with pytest.raises(MalformedRow, match="^line 4: expected 3 fields, got 2$"):
        dataio.read_pool(path)
    with pytest.raises(MalformedRow, match="^line 3: expected 3 fields, got 2$"):
        ref_read_pool(path)


BASELINE_SCHEMES = {"gender": GENDER, "age": GroupScheme("age", ("young", "mid", "old"))}
BASELINE_IDS = st.text(alphabet=',"\r\n éq1\u00df\u4e2d', max_size=6).filter(lambda q: q == q.strip())


@FUZZ
@given(data=st.data())
def test_baseline_round_trips_through_a_reference_writer(tmp_path, data) -> None:
    """Blocks written by ``csv.writer`` (CRLF, quoting as needed), shares
    with ``repr``, rows of the blocks interleaved: each block reads back
    with every share divided by the block's total, summed in row order."""
    keys = data.draw(st.lists(st.tuples(BASELINE_IDS, st.sampled_from(sorted(BASELINE_SCHEMES))),
                              unique=True, max_size=4))
    rows = []
    for query_id, attribute in keys:
        labels = BASELINE_SCHEMES[attribute].labels
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(labels), max_size=len(labels))
                            .filter(lambda w: sum(w) > 0))
        rows += [(query_id, attribute, label, w / sum(weights)) for label, w in zip(labels, weights)]
    rows = data.draw(st.permutations(rows))
    path = tmp_path / "baseline.csv"
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataio.BASELINE_HEADER)
        writer.writerows((query_id, attribute, label, repr(share)) for query_id, attribute, label, share in rows)
    blocks: dict = {}
    for query_id, attribute, label, share in rows:
        blocks.setdefault((query_id, attribute), {})[label] = share
    got = dataio.load_baseline(path, BASELINE_SCHEMES)
    assert {key: (p.source, dict(p.shares)) for key, p in got.items()} == {
        key: (EXTERNAL_BASELINE, {label: share / sum(shares.values()) for label, share in shares.items()})
        for key, shares in blocks.items()
    }


@pytest.mark.parametrize("read, header", [
    (lambda p: dataio.load_baseline(p, {"gender": GENDER}), "query_id,attribute,label,share"),
    (lambda p: names.load_name_table(p, GENDER), "name,label,count"),
    (dataio.read_pool, "candidate_id,label,score"),
])
def test_headers_are_checked_in_one_wording(tmp_path, read, header) -> None:
    path = tmp_path / "input.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedRow, match=f"^line 1: empty file, expected header {header}$"):
        read(path)
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=re.escape(f"line 1: expected header {header}, got ['a', 'b']")):
        read(path)


# ---------------------------------------------------------------------------
# fuzz: every reader against arbitrary text and bytes


READERS = {
    "baseline": lambda p: dataio.load_baseline(p, {"gender": GENDER}),
    "names": lambda p: names.load_name_table(p, GENDER),
    "pool": dataio.read_pool,
    "long_table": dataio.read_long_table,
    "config": lambda p: cli._load_config(str(p)),
    "ledger": load_ledger,
    "dataset": dataio.load_dataset,
}


@pytest.mark.parametrize("reader", sorted(READERS))
@FUZZ
@given(text=TEXTS)
def test_arbitrary_text_raises_only_reported_errors(tmp_path, reader, text) -> None:
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8", newline="")
    read_fuzz(READERS[reader], path)


@pytest.mark.parametrize("reader", sorted(READERS))
@FUZZ
@given(data=BINARY)
def test_arbitrary_bytes_raise_only_reported_errors(tmp_path, reader, data) -> None:
    path = tmp_path / "input"
    path.write_bytes(data)
    read_fuzz(READERS[reader], path)


@FUZZ
@given(text=st.one_of(jsonl_texts(dataio.LEDGER_KEYS), jsonl_texts(dataio.SNAPSHOT_FIELDS),
                      jsonl_texts(dataio.CHURN_HEADER)))
def test_json_objects_of_any_shape_raise_only_reported_errors(tmp_path, text) -> None:
    path = tmp_path / "input.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    for read in (load_ledger, dataio.load_dataset, dataio.read_long_table):
        read_fuzz(read, path)


@FUZZ
@given(text=st.one_of(csv_texts(dataio.CURVE_HEADER), csv_texts(dataio.CHURN_HEADER),
                      jsonl_texts(dataio.CURVE_HEADER), jsonl_texts(dataio.CHURN_HEADER)))
def test_export_of_any_long_table_raises_only_reported_errors(tmp_path, text) -> None:
    # The metric of the first row, so that rows reach the label check and
    # the pivot, whatever their cells hold.
    path = tmp_path / "table"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        rows = dataio.read_long_table(path)
        metric = rows[0][1].get("metric") if rows else "minskew"
        dataio.export_heatmap(rows, metric, None, io.StringIO())
    except (AuditError, ValueError, OSError):
        pass


def test_value_too_large_for_a_float_is_a_malformed_row(tmp_path) -> None:
    path = tmp_path / "table.jsonl"
    path.write_text('{"metric":"skew","value":1' + "0" * 400 + "}\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="^line 1: value 10+ does not parse$"):
        dataio.read_long_table(path)


# ---------------------------------------------------------------------------
# digit-group underscores


def test_pool_score_with_an_underscore_is_a_malformed_row(tmp_path) -> None:
    path = tmp_path / "pool.csv"
    path.write_text("candidate_id,label,score\nc0,M,0.5\nc1,F,1_5\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"^line 3: could not convert string to float: '1_5'$"):
        dataio.read_pool(path)


def test_baseline_share_with_an_underscore_is_a_malformed_row(tmp_path) -> None:
    path = tmp_path / "baseline.csv"
    path.write_text("query_id,attribute,label,share\nq1,gender,F,0_5\nq1,gender,M,0.5\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"^line 2: share '0_5' is not a number$"):
        dataio.load_baseline(path, {"gender": GENDER})


@pytest.mark.parametrize("text, lineno", [
    ("query_id,day,attribute,label,k,metric,value\nq1,1,gender,F,5,skew,0.5\nq1,1,gender,F,10,skew,1_5\n", 3),
    ('{"query_id":"q1","day":1,"k":5,"metric":"skew","value":0.5}\n'
     '{"query_id":"q1","day":1,"k":10,"metric":"skew","value":"1_5"}\n', 2),
], ids=["csv", "jsonl"])
def test_long_table_value_with_an_underscore_is_a_malformed_row(tmp_path, text, lineno) -> None:
    path = tmp_path / "table"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRow, match=rf"^line {lineno}: value '1_5' does not parse$"):
        dataio.read_long_table(path)


def test_name_count_with_an_underscore_is_a_malformed_row(tmp_path) -> None:
    path = tmp_path / "names.csv"
    path.write_text("name,label,count\nada,F,900\nomar,M,1_000\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"^line 3: count '1_000' is not an integer$"):
        names.load_name_table(path, GENDER)
    with pytest.raises(MalformedRow, match=r"^line 2: count '1_0' is not an integer$"):
        names.table_from_rows([("ada", "F", "1_0")], GENDER)


@pytest.mark.parametrize("text, kind, value", [("1.5", float, 1.5), (" -2e3 ", float, -2000.0), ("12", int, 12),
                                               (" 7 ", int, 7), (2.5, float, 2.5)])
def test_numeral_reads_what_float_and_int_read_without_underscores(text, kind, value) -> None:
    assert readers.numeral(text, kind) == value
