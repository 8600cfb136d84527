"""The snapshot loader: snapshot JSONL in, query series and a validation
report out, and the choice of series a study keeps.

:func:`load_dataset` reads a scrape, quarantines what does not check out and
says so in a :class:`ValidationReport`; :func:`filter_queries` applies the
inclusion thresholds.  The report's issues are named tuples and the report a
namespace, so that a start which loads nothing executes no :mod:`.model`.
Every name here is also read as ``dataio.<name>`` (:mod:`.dataio`).
"""
from __future__ import annotations

import itertools
import json
import operator
import types
from collections import Counter, namedtuple
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import model
from .dataio import SNAPSHOT_FIELDS, _parse_json_line

if TYPE_CHECKING:
    from pathlib import Path

# A row's values in ``SNAPSHOT_FIELDS`` order.
_snapshot_fields = operator.itemgetter(*SNAPSHOT_FIELDS)

ParseIssue = namedtuple("ParseIssue", "line message")
IntegrityIssue = namedtuple("IntegrityIssue", "query_id day line message")


class ValidationReport(types.SimpleNamespace):
    """Everything the loader noticed; no row disappears without a trace.

    Built with keywords or in field order, every field optional.  As a
    namespace it is equal to another with the same fields, has no hash (its
    lists grow while the loader runs) and shows its fields in order.
    """

    def __init__(
        self,
        n_rows: int = 0,
        n_snapshots: int = 0,
        n_series: int = 0,
        parse_issues: list[ParseIssue] | None = None,
        integrity_issues: list[IntegrityIssue] | None = None,
        quarantined: list[tuple[str, int]] | None = None,
        missing_rates: dict[str, float] | None = None,
    ) -> None:
        self.n_rows = n_rows
        self.n_snapshots = n_snapshots
        self.n_series = n_series
        self.parse_issues = [] if parse_issues is None else parse_issues
        self.integrity_issues = [] if integrity_issues is None else integrity_issues
        self.quarantined = [] if quarantined is None else quarantined
        self.missing_rates = {} if missing_rates is None else missing_rates

    @property
    def ok(self) -> bool:
        return not self.parse_issues and not self.integrity_issues and not self.quarantined

    def to_dict(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_snapshots": self.n_snapshots,
            "n_series": self.n_series,
            "ok": self.ok,
            "parse_issues": [issue._asdict() for issue in self.parse_issues],
            "integrity_issues": [issue._asdict() for issue in self.integrity_issues],
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
    is checked in halves instead, down to parts of :data:`_LEAF_LINES`
    lines that are checked row by row (:func:`_load_lines`), so every
    message and line number is the one a line-by-line load gives.  The
    valid rows of either path become records a column at a time and are
    filed by runs of rows of one query and day (:func:`_file_runs`); a
    snapshot whose ranks do not read 1..n in line order is sorted stably by
    rank.
    """
    report = ValidationReport()
    grouped: dict[tuple[str, int], list[tuple[Sequence, ...]]] = {}
    tainted: dict[tuple[str, int], int] = {}

    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for linenos, lines in _chunks(handle):
            report.n_rows += len(lines)
            _load_lines(grouped, linenos, lines, _bulk_values(lines), report, tainted)

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


# A failing part of a chunk this long or shorter is checked row by row
# rather than in halves.
_LEAF_LINES = 64


def _load_lines(
    grouped: dict, linenos: Sequence[int], lines: list[str], values: list | None, report: ValidationReport,
    tainted: dict,
) -> None:
    """File the records of the valid rows among ``lines``, whose values
    :func:`_bulk_values` gave: all at once when the column check passes,
    else half by half, down to :data:`_LEAF_LINES` lines that
    :func:`_valid_rows` checks row by row.  A half of lines whose parse
    failed is parsed again on its own."""
    columns = None if values is None else _checked_columns(values)
    if columns is None and len(lines) > _LEAF_LINES:
        half = len(lines) // 2
        for part in slice(half), slice(half, None):
            part_values = _bulk_values(lines[part]) if values is None else values[part]
            _load_lines(grouped, linenos[part], lines[part], part_values, report, tainted)
        return
    if columns is None:
        linenos, values = _valid_rows(linenos, lines, values or [_UNPARSED] * len(lines), report, tainted)
        if not values:
            return
        columns = tuple(zip(*map(_snapshot_fields, values)))
    _file_runs(grouped, linenos, columns)


# Marks a line that :func:`_bulk_values` left to be parsed on its own.
_UNPARSED = object()


def _bulk_values(lines: list[str]) -> list | None:
    """The JSON value of each line from one ``json.loads``, with
    :data:`_UNPARSED` for a line that holds a ``[``; None when the parse
    fails or does not give one value per line.

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
        return None
    if len(rows) != len(plain) or set(map(len, rows)) != {1}:
        return None
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
