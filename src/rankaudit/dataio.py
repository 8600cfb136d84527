"""File formats, dataset validation, and tabular exports.

Snapshot datasets travel as JSONL, one object per ranked entry; baselines,
name tables and scored pools as CSV; metric curves and churn grids as
long-format tables (CSV or JSONL); heatmaps as rectangular CSV matrices.
Paths and open streams both pass through :func:`text_stream`.  Headed CSV
inputs (:func:`load_baseline`, :func:`read_pool`, ``names.load_name_table``)
are read through :func:`csv_table`, long tables through
:func:`read_long_table`, JSONL through :func:`load_dataset` and
:func:`json_objects`; every fixed-schema table, heatmap matrices
(:func:`export_heatmap`) and the ground-truth ledger (:func:`write_ledger`)
included, is written by :func:`write_long_table`.  All
text output is UTF-8 with LF line endings, and cells of the
:data:`REAL_COLUMNS` are formatted with 10 significant digits so identical
analyses produce byte-identical files.  Undefined cells serialize as
``"undefined"`` in long tables and as empty cells in matrices; negative
infinity as ``"-inf"``.

Every table is written by one writer, a run at a time: the cells a run of
rows shares (one curve's, or one day pair's churn cells) become text once,
and each row then costs one f-string of its other cells; a table of runs a
few rows long goes out as plain rows, :data:`_WRITE_ROWS` at a time.
Snapshots are written from one f-string per record (:mod:`.encoders`).
CSV quoting is RFC 4180 for every table: a cell holding a comma, a quote,
a line feed or a carriage return is quoted, its quotes doubled, and the
empty cell of a one-column row is written ``""``.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from . import churn, detgreedy, encoders, exposure, mixedlm, model, simulate
from .errors import InconsistentGrid, MalformedRow, UnknownLabel

SNAPSHOT_FIELDS = ("query_id", "day", "rank", "candidate_id", "first_name", "last_name", "groups", "missing")
# A row's values in ``SNAPSHOT_FIELDS`` order.
_snapshot_fields = operator.itemgetter(*SNAPSHOT_FIELDS)
BASELINE_HEADER = ("query_id", "attribute", "label", "share")
POOL_HEADER = ("candidate_id", "label", "score")
CURVE_HEADER = ("query_id", "day", "attribute", "label", "k", "metric", "value")
CHURN_HEADER = ("query_id", "attribute", "label", "k", "metric", "start_day", "end_day", "value")
LEDGER_KEYS = ("query_id", "weights", "composition", "labels", "scores", "departures")
PROTOCOL_HEADER = ("k", "coef", "estimate", "se", "z", "p", "ci_lo", "ci_hi")
# The JSON protocol table also carries the size of each fit.
PROTOCOL_JSON_HEADER = (*PROTOCOL_HEADER, "n_obs", "n_groups", "n_excluded")
RERANK_HEADER = ("rank", "candidate_id", "label", "score")
ISSUE_HEADER = ("kind", "query_id", "day", "line", "message")
# Columns whose cells are reals, written with ``format_cell`` / ``_json_value``.
REAL_COLUMNS = frozenset({"value", "estimate", "se", "z", "p", "ci_lo", "ci_hi", "score"})

# The parse issue of a line nested deeper than the JSON decoder recurses.
NESTING_TOO_DEEP = "invalid JSON: nesting too deep"
# The start of the parse issue of a line whose JSON parses but holds a
# number Python will not convert (an integer past ``sys.get_int_max_str_digits``).
INVALID_NUMBER = "invalid number"

UNDEFINED = "undefined"
NEG_INF = "-inf"

FORMAT_CSV = "csv"
FORMAT_JSON = "json"


def format_real(value: float) -> str:
    """Decimal form with 10 significant digits; stable across runs.  A float
    so large that those digits round past the float range keeps its
    ``repr``, so it reads back as itself and not as infinity."""
    text = f"{value:.10g}"
    if text.endswith("e+308") and math.isinf(float(text)):
        return repr(float(value))
    return text


def format_cell(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    if value == -math.inf:
        return NEG_INF
    return format_real(value)


# One JSONL line: compact separators, non-ASCII kept (``json.dumps`` with
# these keywords would build a new encoder per call).
_json_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


@contextmanager
def text_stream(target: str | Path | TextIO, mode: str) -> Iterator[TextIO]:
    """``target`` itself when it is an open stream; a path opened as UTF-8
    with ``newline=""`` (no newline translation) and closed on exit."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target


def csv_rows(stream: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each row of a CSV stream, numbered by the
    physical line the row ends on; a row the ``csv`` module cannot split,
    such as one with an overlong field, raises :class:`MalformedRow` with
    the line it stopped at.  The ``csv`` module is loaded by the first
    call, so that a run which reads no CSV never loads it."""
    import csv

    reader = csv.reader(stream)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None


def csv_table(source: str | Path | TextIO, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each non-blank row of a CSV table whose
    first row, stripped, must be ``header``; a missing or different header
    and a row of the wrong width raise :class:`MalformedRow`."""
    expected, width = ",".join(header), len(header)
    with text_stream(source, "r") as handle:
        rows = csv_rows(handle)
        _, first = next(rows, (1, None))
        if first is None:
            raise MalformedRow(f"line 1: empty file, expected header {expected}")
        if tuple(h.strip() for h in first) != tuple(header):
            raise MalformedRow(f"line 1: expected header {expected}, got {first!r}")
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != width:
                raise MalformedRow(f"line {lineno}: expected {width} fields, got {len(row)}")
            yield lineno, row


# ---------------------------------------------------------------------------
# snapshot JSONL


def write_snapshots(series: Iterable[model.QuerySeries], destination: str | Path | TextIO) -> None:
    """Write a dataset as snapshot JSONL, sorted by query, day, rank.

    Each record's line comes from one f-string, with every distinct string
    and group mapping JSON-encoded once per query (ids rarely recur across
    queries, so a cache for the whole call would only grow); lines are
    written :data:`_WRITE_ROWS` at a time.  The f-string is
    :func:`.encoders.encoded_snapshot`; it writes what ``json`` would for
    the field types the :mod:`.model` constructors check.
    """
    with text_stream(destination, "w") as out:
        lines: list[str] = []
        for one in sorted(series, key=lambda s: s.query_id):
            strings, groups = encoders.JsonStrings(), encoders.JsonGroups()
            for day in sorted(one.snapshots):
                lines += encoders.encoded_snapshot(one.snapshots[day], strings, groups)
                if len(lines) >= _WRITE_ROWS:
                    out.write("".join(lines))
                    lines.clear()
        out.write("".join(lines))


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


@dataclass(frozen=True)
class IntegrityIssue:
    query_id: str
    day: int
    line: int
    message: str


@dataclass
class ValidationReport:
    """Everything the loader noticed; no row disappears without a trace."""

    n_rows: int = 0
    n_snapshots: int = 0
    n_series: int = 0
    parse_issues: list[ParseIssue] = field(default_factory=list)
    integrity_issues: list[IntegrityIssue] = field(default_factory=list)
    quarantined: list[tuple[str, int]] = field(default_factory=list)
    missing_rates: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.parse_issues and not self.integrity_issues and not self.quarantined

    def to_dict(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_snapshots": self.n_snapshots,
            "n_series": self.n_series,
            "ok": self.ok,
            "parse_issues": [{"line": i.line, "message": i.message} for i in self.parse_issues],
            "integrity_issues": [
                {"query_id": i.query_id, "day": i.day, "line": i.line, "message": i.message}
                for i in self.integrity_issues
            ],
            "quarantined": [{"query_id": q, "day": d} for q, d in self.quarantined],
            "missing_rates": dict(sorted(self.missing_rates.items())),
        }


def load_dataset(path: str | Path) -> tuple[list[model.QuerySeries], ValidationReport]:
    """Load snapshot JSONL, quarantining malformed snapshots instead of failing.

    Rows that do not parse are reported line by line; snapshots with rank
    gaps, rank duplicates, or duplicate candidate ids are quarantined whole.
    Everything that survives is grouped into QuerySeries sorted by query id.
    Lines end at LF alone: a CR is JSON whitespace, not a line end.

    The file is read :data:`_CHUNK_LINES` lines at a time, and the lines
    of a chunk that hold no ``[`` are parsed with one ``json.loads`` (see
    :func:`_bulk_values`).  :func:`_checked_columns` then checks the
    chunk's rows a column at a time: it transposes them into one column
    per field and tests each rule of :func:`_row_problem` on a whole
    column.  A chunk with a broken row, or with a line the bulk parse left,
    is checked row by row instead (:func:`_valid_rows`), so every message
    and line number is the one a line-by-line load gives.  The valid rows
    of either path become records a column at a time and are filed by runs
    of rows of one query and day (:func:`_file_runs`); a snapshot whose
    ranks do not read 1..n in line order is sorted stably by rank.
    """
    report = ValidationReport()
    grouped: dict[tuple[str, int], list[tuple[Sequence, ...]]] = {}
    tainted: dict[tuple[str, int], int] = {}

    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for linenos, lines in _chunks(handle):
            report.n_rows += len(lines)
            values = _bulk_values(lines)
            columns = _checked_columns(values)
            if columns is None:
                linenos, values = _valid_rows(linenos, lines, values, report, tainted)
                if not values:
                    continue
                columns = tuple(zip(*map(_snapshot_fields, values)))
            _file_runs(grouped, linenos, columns)

    snapshots: dict[str, dict[int, model.RankingSnapshot]] = {}
    for key in sorted(grouped):
        query_id, day = key
        if key in tainted:
            report.quarantined.append(key)
            continue
        linenos, ranks, ids, records = _snapshot_rows(grouped[key])
        if not _counts_up(ranks):
            report.integrity_issues.append(
                IntegrityIssue(query_id, day, linenos[0], f"ranks not contiguous 1..{len(ranks)}: {_rank_gap(ranks)}")
            )
            report.quarantined.append(key)
            continue
        if len(set(ids)) != len(ids):
            # A Counter keeps first-seen order: this is the first repeated id.
            dupe = next(cid for cid, times in Counter(ids).items() if times > 1)
            report.integrity_issues.append(
                IntegrityIssue(query_id, day, linenos[0], f"duplicate candidate_id {dupe!r}")
            )
            report.quarantined.append(key)
            continue
        # The column check passed the query id and day, and the ids are distinct.
        snapshots.setdefault(query_id, {})[day] = model._unchecked(
            model.RankingSnapshot, 1, (query_id,), (day,), (tuple(records),))[0]

    for key in sorted(tainted):
        if key not in grouped:
            report.quarantined.append(key)
    report.quarantined.sort()

    series = [
        model.QuerySeries(query_id=query_id, snapshots=days)
        for query_id, days in sorted(snapshots.items())
    ]
    report.n_series = len(series)
    report.n_snapshots = sum(len(s.snapshots) for s in series)
    for one in series:
        report.missing_rates[one.query_id] = one.snapshots[one.first_day].missing_rate
    return series, report


# Lines of the file per bulk parse.  A chunk's text and its parsed rows are
# alive together, so the chunk size bounds the loader's extra memory.
_CHUNK_LINES = 2048


def _chunks(handle: Iterable[str]) -> Iterator[tuple[Sequence[int], list[str]]]:
    """(line numbers from 1, lines) of the non-blank lines of ``handle``,
    read :data:`_CHUNK_LINES` lines at a time."""
    start = 1
    while lines := list(itertools.islice(handle, _CHUNK_LINES)):
        linenos: Sequence[int] = range(start, start + len(lines))
        start += len(lines)
        # ``isspace`` and ``strip`` share one definition of whitespace, and
        # a line read from a file is never empty.
        if any(map(str.isspace, lines)):
            kept = [(n, line) for n, line in zip(linenos, lines) if not line.isspace()]
            linenos = [n for n, _ in kept]
            lines = [line for _, line in kept]
        if lines:
            yield linenos, lines


# Marks a line that :func:`_bulk_values` left to be parsed on its own.
_UNPARSED = object()


def _bulk_values(lines: list[str]) -> list:
    """The JSON value of each line from one ``json.loads``, with
    :data:`_UNPARSED` for a line that holds a ``[`` and for every line when
    the parse fails or does not give one value per line.

    The lines are joined as ``[[line],[line],...]``.  With no ``[`` in any
    of them, the joiner's brackets are the only ones that open a list: a
    line cannot leave a list open, and a line's own ``]`` outside a string
    closes more lists than were opened, which does not parse.  A string
    cannot span two lines, since every line but the file's last ends in a
    newline and no JSON string may hold one, and an object cannot take in
    the joiner's ``],[``.  So when the text parses into one list per line,
    each list holds exactly its own line's content, and a list of length
    one holds the value ``json.loads`` gives that line alone.
    """
    plain = [line for line in lines if "[" not in line]
    try:
        rows = json.loads("[[" + "],[".join(plain) + "]]")
    except (ValueError, RecursionError):
        return [_UNPARSED] * len(lines)
    if len(rows) != len(plain) or set(map(len, rows)) != {1}:
        return [_UNPARSED] * len(lines)
    if len(plain) == len(lines):
        return list(itertools.chain.from_iterable(rows))
    values = iter(rows)
    return [_UNPARSED if "[" in line else next(values)[0] for line in lines]


_NAME_TYPES = frozenset({str, type(None)})
_GROUP_TYPES = frozenset({dict, type(None)})
# The names and groups of a masked row.
_MASKED = (None, None, None)


def _checked_columns(values: list) -> tuple[tuple, ...] | None:
    """The columns of ``values`` (at least one row), one per field in
    ``SNAPSHOT_FIELDS`` order, when :func:`_row_problem` finds every row
    valid; otherwise None.

    Each rule is tested on a whole column by builtins, with exact types as
    in :func:`_row_problem`.  A value that is not an object or lacks a
    field, and :data:`_UNPARSED`, already fails the transpose.
    """
    try:
        columns = tuple(zip(*map(_snapshot_fields, values)))
    except (KeyError, TypeError):
        return None
    query_ids, days, ranks, candidate_ids, first_names, last_names, groups, missing = columns
    types = _column_types
    if (
        types(query_ids) == types(candidate_ids) == {str}
        and all(query_ids)
        and all(candidate_ids)
        and types(days) == types(ranks) == {int}
        and min(days) >= 1
        and min(ranks) >= 1
        and types(first_names) <= _NAME_TYPES
        and types(last_names) <= _NAME_TYPES
        and types(groups) <= _GROUP_TYPES
        and types(itertools.chain.from_iterable(map(dict.values, filter(None, groups)))) <= {str}
        and types(missing) == {bool}
        and all(map(_MASKED.__eq__, itertools.compress(zip(first_names, last_names, groups), missing)))
    ):
        return columns
    return None


def _column_types(column: Iterable) -> set[type]:
    return set(map(type, column))


def _valid_rows(
    linenos: Sequence[int],
    lines: list[str],
    values: list,
    report: ValidationReport,
    tainted: dict[tuple[str, int], int],
) -> tuple[list[int], list[dict]]:
    """(line numbers, values) of a chunk's valid rows, checked one at a
    time.  Each other line adds its parse issue to ``report``, and its
    (query_id, day), when it has one, to ``tainted`` with its line unless
    an earlier line already put it there."""
    kept_linenos, kept = [], []
    for lineno, line, raw in zip(linenos, lines, values):
        if raw is _UNPARSED:
            raw, problem = _parse_json_line(line)
            if problem is not None:
                report.parse_issues.append(ParseIssue(lineno, problem))
                continue
        problem = _row_problem(raw)
        if problem is not None:
            report.parse_issues.append(ParseIssue(lineno, problem))
            key = _row_key(raw)
            if key is not None:
                tainted.setdefault(key, lineno)
            continue
        kept_linenos.append(lineno)
        kept.append(raw)
    return kept_linenos, kept


def _file_runs(
    grouped: dict[tuple[str, int], list[tuple[Sequence, ...]]],
    linenos: Sequence[int],
    columns: tuple[tuple, ...],
) -> None:
    """Build the records of a chunk's checked columns and file each run of
    consecutive rows of one (query_id, day) under that key, as slices:
    (line numbers, ranks, candidate ids, records)."""
    query_ids, days, ranks, candidate_ids, first_names, last_names, groups, missing = columns
    records = model._unchecked(
        model.CandidateRecord, len(candidate_ids), candidate_ids, first_names, last_names,
        [labels or {} for labels in groups], missing,
    )
    start = 0
    for key, run in itertools.groupby(zip(query_ids, days)):
        end = start + len(list(run))
        grouped.setdefault(key, []).append(
            (linenos[start:end], ranks[start:end], candidate_ids[start:end], records[start:end])
        )
        start = end


def _snapshot_rows(runs: list[tuple[Sequence, ...]]) -> list[Sequence]:
    """The line numbers, ranks, candidate ids and records of one snapshot's
    runs, in line order sorted stably by rank."""
    columns = [
        parts[0] if len(parts) == 1 else list(itertools.chain.from_iterable(parts))
        for parts in zip(*runs)
    ]
    ranks = columns[1]
    if not _counts_up(ranks):
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        columns = [list(map(column.__getitem__, order)) for column in columns]
    return columns


def _counts_up(ranks: Sequence[int]) -> bool:
    """True when ``ranks`` reads 1, 2, ..., len(ranks)."""
    return all(map(operator.eq, ranks, itertools.count(1)))


def _parse_json_line(line: str) -> tuple[object, str | None]:
    """(value, None) for a line holding one JSON value, else (None, the
    parse issue that says why it does not parse)."""
    try:
        return json.loads(line), None
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"
    except ValueError as exc:
        return None, f"{INVALID_NUMBER}: {exc}"
    except RecursionError:
        return None, NESTING_TOO_DEEP


def _row_key(raw: object) -> tuple[str, int] | None:
    if (
        isinstance(raw, dict)
        and isinstance(raw.get("query_id"), str)
        and isinstance(raw.get("day"), int)
        and not isinstance(raw.get("day"), bool)
    ):
        return (raw["query_id"], raw["day"])
    return None


def _row_problem(raw: object) -> str | None:
    """The first rule a parsed row breaks, or None when it is a valid row.

    ``json.loads`` gives exact ``dict``, ``list``, ``str``, ``int``,
    ``bool``, ``float`` and ``None`` values, and only string keys, so exact
    type tests say what ``isinstance`` would, save that a ``bool`` is not an
    ``int`` here.
    """
    if type(raw) is not dict:
        return "row is not a JSON object"
    try:
        query_id, day, rank, candidate_id, first_name, last_name, groups, missing = _snapshot_fields(raw)
    except KeyError:
        absent = next(name for name in SNAPSHOT_FIELDS if name not in raw)
        return f"required field {absent!r} absent"
    if type(query_id) is not str or not query_id:
        return "query_id must be a non-empty string"
    if type(day) is not int or day < 1:
        return "day must be an integer >= 1"
    if type(rank) is not int or rank < 1:
        return "rank must be an integer >= 1"
    if type(candidate_id) is not str or not candidate_id:
        return "candidate_id must be a non-empty string"
    if first_name is not None and type(first_name) is not str:
        return "first_name must be a string or null"
    if last_name is not None and type(last_name) is not str:
        return "last_name must be a string or null"
    if groups is not None:
        if type(groups) is not dict:
            return "groups must be a string-to-string object or null"
        for label in groups.values():
            if type(label) is not str:
                return "groups must be a string-to-string object or null"
    if missing is not True and missing is not False:
        return "missing must be a boolean"
    if missing and not (first_name is None and last_name is None and groups is None):
        return "missing entries must have null names and groups"
    return None


def _rank_gap(ranks: Sequence[int]) -> str:
    expected = set(range(1, len(ranks) + 1))
    gaps = sorted(expected - set(ranks))
    dupes = sorted(r for r, times in Counter(ranks).items() if times > 1)
    parts = []
    if gaps:
        parts.append(f"absent {gaps}")
    if dupes:
        parts.append(f"duplicated {dupes}")
    return ", ".join(parts) if parts else f"out of range {sorted(set(ranks) - expected)}"


# ---------------------------------------------------------------------------
# ground-truth ledger JSONL


def write_ledger(truths: Iterable[simulate.QueryTruth], destination: str | Path | TextIO) -> None:
    """Write one JSONL object of :data:`LEDGER_KEYS` per query, by query id,
    through :func:`write_long_table`: each mapping sorted by key and each
    departure a ``[day, candidate_id]`` list."""
    rows = []
    for truth in sorted(truths, key=lambda t: t.query_id):
        mappings = (truth.weights, truth.composition, truth.labels, truth.scores)
        departures = [[day, cid] for day, cid in truth.departures]
        rows.append((truth.query_id, *[dict(sorted(one.items())) for one in mappings], departures))
    write_long_table(rows, LEDGER_KEYS, destination, FORMAT_JSON)


def load_ledger(path: str | Path) -> list[simulate.QueryTruth]:
    """Read a ledger written by :func:`write_ledger`; a line that is not a
    ledger object raises :class:`MalformedRow` with its line number.  Lines
    end at LF alone."""
    truths = []
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for lineno, raw in json_objects(handle):
            for key in LEDGER_KEYS:
                if key not in raw:
                    raise MalformedRow(f"line {lineno}: no {key!r} value")
            try:
                departures = tuple((day, cid) for day, cid in raw["departures"])
            except (TypeError, ValueError):
                raise MalformedRow(f"line {lineno}: departures must be [day, candidate_id] pairs") from None
            truths.append(
                simulate.QueryTruth(
                    query_id=raw["query_id"],
                    weights=raw["weights"],
                    composition=raw["composition"],
                    labels=raw["labels"],
                    scores=raw["scores"],
                    departures=departures,
                )
            )
    return truths


def json_objects(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL stream; a
    line that is not a JSON object raises :class:`MalformedRow`."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        raw, problem = _parse_json_line(line)
        if problem is None and not isinstance(raw, dict):
            problem = "row is not a JSON object"
        if problem is not None:
            raise MalformedRow(f"line {lineno}: {problem}")
        yield lineno, raw


# ---------------------------------------------------------------------------
# baseline proportions CSV


def load_baseline(
    path: str | Path | TextIO,
    schemes: Mapping[str, model.GroupScheme],
) -> dict[tuple[str, str], model.GroupProportions]:
    """Read external target proportions keyed by (query_id, attribute).

    Every (query, attribute) block must cover the scheme's labels exactly
    and sum to 1 within 1e-6; shares are renormalized to sum exactly 1.
    """
    shares: dict[tuple[str, str], dict[str, float]] = {}
    for lineno, row in csv_table(path, BASELINE_HEADER):
        query_id, attribute, label, raw_share = (f.strip() for f in row)
        scheme = schemes.get(attribute)
        if scheme is None:
            raise UnknownLabel(f"line {lineno}: no scheme for attribute {attribute!r}")
        if label not in scheme.labels:
            raise UnknownLabel(f"line {lineno}: label {label!r} not in scheme {attribute!r}")
        try:
            share = float(raw_share)
        except ValueError:
            raise MalformedRow(f"line {lineno}: share {raw_share!r} is not a number") from None
        if not 0.0 <= share <= 1.0:
            raise MalformedRow(f"line {lineno}: share must be in [0, 1]")
        bucket = shares.setdefault((query_id, attribute), {})
        if label in bucket:
            raise MalformedRow(f"line {lineno}: duplicate label {label!r} for {query_id!r}/{attribute!r}")
        bucket[label] = share

    out: dict[tuple[str, str], model.GroupProportions] = {}
    for (query_id, attribute), bucket in shares.items():
        scheme = schemes[attribute]
        if set(bucket) != set(scheme.labels):
            absent = sorted(set(scheme.labels) - set(bucket))
            raise MalformedRow(f"baseline for {query_id!r}/{attribute!r} lacks labels {absent}")
        total = sum(bucket.values())
        if abs(total - 1.0) > 1e-6:
            raise MalformedRow(f"baseline for {query_id!r}/{attribute!r} sums to {total!r}, expected 1")
        out[(query_id, attribute)] = model.GroupProportions(
            scheme=scheme,
            shares={label: bucket[label] / total for label in scheme.labels},
            source=model.EXTERNAL_BASELINE,
        )
    return out


# ---------------------------------------------------------------------------
# scored pool CSV


def read_pool(source: str | Path | TextIO) -> list[detgreedy.ScoredCandidate]:
    """Read a ``candidate_id,label,score`` CSV; bad rows raise
    :class:`MalformedRow` with their line number.  Every row is checked
    here first, one that fails the checks of
    :class:`.detgreedy.ScoredCandidate` through the constructor for its
    error; the whole pool is then built in one :func:`.model._unchecked`
    call, which runs no check again."""
    ids, labels, scores, isfinite = [], [], [], math.isfinite
    for lineno, (candidate_id, label, score) in csv_table(source, POOL_HEADER):
        candidate_id, label = candidate_id.strip(), label.strip()
        try:
            value = float(score)
            if not (candidate_id and label and isfinite(value)):
                detgreedy.ScoredCandidate(candidate_id, label, value)
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from None
        ids.append(candidate_id)
        labels.append(label)
        scores.append(value)
    return model._unchecked(detgreedy.ScoredCandidate, len(ids), ids, labels, scores)


# ---------------------------------------------------------------------------
# query filtering


def filter_queries(
    series: Iterable[model.QuerySeries],
    max_missing_rate: float,
    min_pool: int,
) -> tuple[list[model.QuerySeries], list[dict]]:
    """Keep series whose first-day snapshot passes both inclusion thresholds.

    A series is kept when its day-1 missing rate is at most
    ``max_missing_rate`` and its day-1 list holds at least ``min_pool``
    entries.  Returns the kept series plus a manifest line per input series.
    """
    if not 0.0 <= max_missing_rate <= 1.0:
        raise ValueError("max_missing_rate must be in [0, 1]")
    if min_pool < 0:
        raise ValueError("min_pool must be non-negative")
    kept: list[model.QuerySeries] = []
    manifest: list[dict] = []
    for one in sorted(series, key=lambda s: s.query_id):
        snap = one.snapshots[one.first_day]
        rate = snap.missing_rate
        pool = len(snap.entries)
        keep = rate <= max_missing_rate and pool >= min_pool
        manifest.append(
            {
                "query_id": one.query_id,
                "kept": keep,
                "missing_rate": rate,
                "pool": pool,
            }
        )
        if keep:
            kept.append(one)
    return kept, manifest


# ---------------------------------------------------------------------------
# long-format tables


def curve_rows(curves: Iterable[exposure.MetricCurve]) -> Sequence[tuple]:
    """Long-format rows for metric curves, deterministically ordered: a
    :class:`.encoders.Runs` of one run per curve."""
    ordered = sorted(curves, key=lambda c: (c.query_id, c.day, c.attribute, c.metric, c.label or ""))
    runs = []
    for curve in ordered:
        values = curve.values
        cutoffs = sorted(values)
        shared = (curve.query_id, curve.day, curve.attribute, curve.label or "", curve.metric)
        runs.append((shared, (cutoffs, list(map(values.__getitem__, cutoffs)))))
    return encoders.Runs(CURVE_HEADER, (4, 6), runs)


# A churn cell's run: the cells of one label and day pair of a query.
_CHURN_RUN = operator.attrgetter("query_id", "attribute", "label", "start_day", "end_day")
_k, _churn = operator.attrgetter("k"), operator.attrgetter("churn")


def churn_rows(cells: Iterable[churn.ChurnCell]) -> Sequence[tuple]:
    """Long-format rows for churn cells, deterministically ordered: a
    :class:`.encoders.Runs` of one run per query, label and day pair."""
    # A stable sort by run and k, from runs sorted by key and each run's
    # cells, in input order, sorted by k (``churn_grid`` gives them sorted).
    groups: dict[tuple, list[churn.ChurnCell]] = {}
    for key, run in itertools.groupby(cells, _CHURN_RUN):
        groups.setdefault(key, []).extend(run)
    runs = []
    for key in sorted(groups):
        query_id, attribute, label, start_day, end_day = key
        group = groups[key]
        ks = list(map(_k, group))
        if ks != sorted(ks):
            group = sorted(group, key=_k)
            ks = list(map(_k, group))
        runs.append(((query_id, attribute, label, churn.CHURN, start_day, end_day), (ks, list(map(_churn, group)))))
    return encoders.Runs(CHURN_HEADER, (3, 7), runs)


def write_long_table(
    rows: Iterable[Sequence],
    header: Sequence[str],
    destination: str | Path | TextIO,
    fmt: str = FORMAT_CSV,
) -> None:
    """Write fixed-schema rows as CSV (with a header line) or JSONL (one
    object per row); cells of :data:`REAL_COLUMNS` are formatted as reals,
    all others written as they are.  An unknown ``fmt``, or a row whose
    width is not the header's, raises ``ValueError`` before
    ``destination`` is opened.

    ``rows`` is a :class:`.encoders.Runs` (from :func:`curve_rows` and
    :func:`churn_rows`), or any iterable of rows, read once.  Every table
    goes out a run at a time through one writer,
    :func:`.encoders.write_runs`.
    """
    if fmt not in (FORMAT_CSV, FORMAT_JSON):
        raise ValueError(f"unrecognized format {fmt!r}")
    header = tuple(header)
    if not (isinstance(rows, encoders.Runs) and rows.header == header):
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if set(map(len, rows)) - {len(header)}:
            index, row = next((i, row) for i, row in enumerate(rows) if len(row) != len(header))
            raise ValueError(f"row {index} has {len(row)} cells, but the header has {len(header)}")
    with text_stream(destination, "w") as out:
        encoders.write_runs(rows, header, out, fmt)


# Rows (or snapshot records) per write.  A chunk's lines and its text are
# alive together, so the chunk size bounds the writers' extra memory: 2,048
# snapshot lines raised the peak RSS of a 65k-row `simulate` by ~1 MB, 512
# by ~0.1 MB, and the larger chunk wrote no faster.
_WRITE_ROWS = 512


def _json_value(value: float | None) -> float | str | None:
    if value is None:
        return None
    if value == -math.inf:
        return NEG_INF
    return float(format_real(value))


def read_long_table(source: str | Path | TextIO) -> list[tuple[int, dict]]:
    """Read back a long-format table, CSV or JSONL, as (line number, row)
    pairs with the value cell typed.  The text is read without newline
    translation and its lines end at ``\\n`` alone: a string cell may hold
    U+2028, U+0085 or a quoted CSV ``\\r``, which ``str.splitlines`` and
    universal newlines would take for line ends.  A CSV row's cells are
    keyed by the header; a short row's absent cells read as None."""
    with text_stream(source, "r") as handle:
        text = handle.read()
    lines = io.StringIO(text)
    if text.lstrip()[:1] == "{":
        rows = list(json_objects(lines))
    else:
        table = csv_rows(lines)
        _, header = next(table, (1, []))
        rows = [(n, dict(itertools.zip_longest(header, row[:len(header)]))) for n, row in table if row]
    for lineno, raw in rows:
        raw["value"] = table_cell(lineno, raw, "value", _parse_cell, required=False)
    return rows


def table_cell(lineno: int, row: dict, column: str, parse, required: bool = True):
    """One cell of a long-table row passed through ``parse``; an absent or
    unparsable cell raises :class:`MalformedRow` with the line number."""
    value = row.get(column)
    if value is None and required:
        raise MalformedRow(f"line {lineno}: no {column!r} value")
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRow(f"line {lineno}: {column} {value!r} does not parse") from None


def _parse_cell(value) -> float | None:
    """A real cell as :func:`format_cell` or :func:`_json_value` wrote it."""
    if value is None or value == UNDEFINED or value == "":
        return None
    if value == NEG_INF:
        return -math.inf
    return float(value)


def write_protocol_table(
    rows: Iterable[mixedlm.ProtocolRow],
    destination: str | Path | TextIO,
    fmt: str = FORMAT_CSV,
) -> None:
    """Write protocol results in the fixed k,coef,estimate,... layout (JSON
    adds the fit sizes); the test fields of a failed fit are ``undefined``
    in CSV, ``null`` in JSON."""
    header = PROTOCOL_HEADER if fmt == FORMAT_CSV else PROTOCOL_JSON_HEADER
    table = [
        (row.k, row.coefficient, row.estimate, row.se, row.z, row.p_value, row.ci_lo, row.ci_hi,
         row.n_obs, row.n_groups, row.n_excluded)[: len(header)]
        for row in rows
    ]
    write_long_table(table, header, destination, fmt)


# ---------------------------------------------------------------------------
# heatmap matrices


def export_heatmap(
    rows: Iterable[tuple[int, dict]],
    metric: str,
    label: str | None,
    destination: str | Path | TextIO,
) -> None:
    """Pivot the ``metric`` rows of a long table, the (line number, row)
    pairs of :func:`read_long_table`, into a CSV matrix whose columns are
    the cutoff grid.

    The rows kept (those of ``label`` too, when it is given) must share one
    label; an absent or null label reads as ``""``, and any other that is
    not a string is a :class:`MalformedRow`.  Curve rows pivot to one row
    per ``query_id:day``; every grid must be a prefix of the longest, and
    cells past a shorter one are empty.  Churn rows (a table with a
    ``start_day`` column) pivot to one row per ``start->end`` day pair, all
    pairs over one grid, each cell the mean of the defined per-query
    values.  Undefined cells come out empty, negative infinity as ``-inf``.
    """
    wanted = []
    for lineno, row in rows:
        if row.get("metric") == metric:
            row_label = table_cell(lineno, row, "label", _label, required=False)
            if label is None or row_label == label:
                wanted.append((lineno, row, row_label))
    if not wanted:
        raise ValueError(f"no rows for metric {metric!r}" + (f" label {label!r}" if label else ""))
    labels = {row_label for _, _, row_label in wanted}
    if len(labels) > 1:
        raise ValueError(f"rows span labels {sorted(labels)}; pass --label to pick one")

    cell = table_cell
    if "start_day" in wanted[0][1]:
        values, grids = [], {}
        for n, r, _ in wanted:
            cell(n, r, "query_id", str)  # required, though the matrix averages over queries
            k = cell(n, r, "k", _integer)
            pair = (cell(n, r, "start_day", _integer), cell(n, r, "end_day", _integer))
            grids.setdefault(pair, set()).add(k)
            values.append(((pair, k), r["value"]))
        if len({frozenset(ks) for ks in grids.values()}) > 1:
            raise InconsistentGrid("day pairs carry different cutoff grids")
        grid = sorted(next(iter(grids.values())))
        means = churn.mean_churn_by(values)
        matrix = [(f"{s}->{e}", [means.get(((s, e), k)) for k in grid]) for s, e in sorted(grids)]
    else:
        curves: dict[tuple[str, int], dict[int, float | None]] = {}
        for n, r, _ in wanted:
            key = (cell(n, r, "query_id", str), cell(n, r, "day", _integer))
            curves.setdefault(key, {})[cell(n, r, "k", _integer)] = r["value"]
        # Lists of different lengths (`audit --k-grid full`) give grids that
        # are prefixes of the longest one; cells past a shorter list are empty.
        shapes = {tuple(sorted(curve)) for curve in curves.values()}
        grid = list(max(shapes, key=len))
        if any(list(shape) != grid[: len(shape)] for shape in shapes):
            raise InconsistentGrid("curves carry different cutoff grids")
        matrix = [(f"{q}:{d}", [curve.get(k) for k in grid]) for (q, d), curve in sorted(curves.items())]
    table = [(name, *("" if v is None else format_cell(v) for v in cells)) for name, cells in matrix]
    write_long_table(table, ("row", *map(str, grid)), destination)


def _integer(value) -> int:
    """A cutoff or day cell: a JSON integer (``int()`` would truncate 10.7
    and take ``true``) or CSV text of an optional minus and ASCII digits."""
    if type(value) is int or isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        return int(value)
    raise ValueError(value)


def _label(value) -> str:
    """A long table's label cell; absent or null reads as ``""``."""
    if value is None or isinstance(value, str):
        return value or ""
    raise TypeError(value)
