"""The table readers: headed CSV tables, JSONL objects, baselines, scored
pools and long tables in, and the heatmap matrix a long table pivots into.

Headed CSV inputs (:func:`load_baseline`, :func:`read_pool`,
``names.load_name_table``) are read through :func:`csv_table`, long tables
through :func:`read_long_table`.  A number cell is read by
:func:`.dataio.numeral`, which refuses the ``_`` digit grouping ``float``
and ``int`` accept.  Every name here is also read as ``dataio.<name>``
(:mod:`.dataio`).
"""
from __future__ import annotations

import io
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, TextIO

from . import churn, detgreedy, model
from .dataio import (
    BASELINE_HEADER,
    NEG_INF,
    POOL_HEADER,
    UNDEFINED,
    _parse_json_line,
    format_cell,
    numeral,
    text_stream,
    write_long_table,
)
from .errors import InconsistentGrid, MalformedRow, UnknownLabel

if TYPE_CHECKING:
    from pathlib import Path


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
            share = numeral(raw_share)
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
            value = numeral(score)
            if not (candidate_id and label and isfinite(value)):
                detgreedy.ScoredCandidate(candidate_id, label, value)
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: {exc}") from None
        ids.append(candidate_id)
        labels.append(label)
        scores.append(value)
    return model._unchecked(detgreedy.ScoredCandidate, len(ids), ids, labels, scores)


# ---------------------------------------------------------------------------
# long-format tables


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
    """A real cell as ``dataio.format_cell`` or ``dataio._json_value`` wrote
    it; a JSON ``true`` or ``false`` is no number (``float`` would read 1 or 0)."""
    if value is None or value == UNDEFINED or value == "":
        return None
    if value == NEG_INF:
        return -math.inf
    if type(value) is bool:
        raise ValueError(value)
    return numeral(value)


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
