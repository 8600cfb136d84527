"""Line encoders: the one writer of the tables and snapshot files of
:mod:`rankaudit.dataio`.

``dataio.write_long_table`` writes a table a run at a time (:class:`Runs`):
the cells a run's rows share become text once, and each row then costs one
f-string of its other cells; a plain row list, or runs shorter than
:data:`_LONG_RUN` rows on average, is written as runs of
:data:`.dataio._WRITE_ROWS` rows that share nothing.  Each column of a
piece of a run gets the cell code for the kind of cells it holds (see
:func:`_kind`).  ``dataio.write_snapshots`` writes one f-string per record;
the public constructors of :mod:`.model` check each snapshot field's type,
so the f-string writes every record as ``json`` would.  Table encoders are
generated on first use.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence, TextIO

from . import dataio, model
from .dataio import FORMAT_CSV, NEG_INF, REAL_COLUMNS, UNDEFINED, _json_line, _json_value, format_cell

# The mean run length from which a :class:`Runs` is written a run at a time.
# A table of shorter runs is written as its rows, :data:`.dataio._WRITE_ROWS`
# at a time, which sets up one encoder per chunk instead of one per run.
# Measured on curve and churn tables of about 4,096 rows, CSV and JSONL,
# the two take the same time at 9 rows per run; at 4 the runs take 1.35 to
# 1.7 times as long as the rows, at 300 rows per run 0.44 to 0.68 times.
_LONG_RUN = 10

# The cell types a real column may hold for its inline cell code.
_REAL_TYPES = frozenset({float, type(None)})


class Runs:
    """Long-table rows held as runs, for :func:`.dataio.write_long_table`.

    Each run is ``(shared, columns)``: ``shared`` holds the cells common to
    the run's rows, those of the ``header`` columns not in ``varying``, in
    header order; ``columns`` holds one equal-length sequence per
    ``varying`` column.  Read-only: ``len()`` is the number of rows, and
    iterating yields each row as the tuple of its cells in header order.
    """

    __slots__ = ("header", "varying", "runs", "_order", "_rows")

    def __init__(self, header: Sequence[str], varying: tuple[int, ...], runs: list[tuple[tuple, Sequence]]) -> None:
        self.header, self.varying, self.runs = tuple(header), varying, runs
        # Where each header column sits in ``shared + varying cells``.
        spliced = [i for i in range(len(self.header)) if i not in varying] + list(varying)
        self._order = operator.itemgetter(*map(spliced.index, range(len(self.header))))
        self._rows = sum(len(columns[0]) for _, columns in runs)

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        order = self._order
        for shared, columns in self.runs:
            yield from (order(shared + cells) for cells in zip(*columns))


def write_runs(rows: Sequence[Sequence], header: tuple[str, ...], out: TextIO, fmt: str) -> None:
    """Write the table of ``rows`` to ``out``, CSV with its header line or
    JSONL: a :class:`Runs` for ``header`` whose runs average at least
    :data:`_LONG_RUN` rows, or any other rows of the header's width taken
    :data:`.dataio._WRITE_ROWS` at a time as runs that share nothing.  A
    run goes out in pieces of at most that many rows.

    Each varying column of a piece gets the cell code of its kind (see
    :func:`_kind`), and the text between the varying cells (separators,
    JSON keys and the shared cells) is passed to the encoder as it is.  CSV
    real cells are formatted inline with ``%.10g``, which rounds the largest
    floats past the float range where :func:`.dataio.format_real` keeps
    their ``repr``, so a CSV piece whose text holds ``e+308`` is written
    again with :func:`.dataio.format_cell` for each real cell.
    """
    size, csv = dataio._WRITE_ROWS, fmt == FORMAT_CSV
    alone = csv and len(header) == 1
    if csv:
        out.write(",".join([_csv_cell(name, alone) for name in header]) + "\n")
    if isinstance(rows, Runs) and rows.header == header and len(rows) >= _LONG_RUN * len(rows.runs):
        varying = rows.varying
        pieces = ((shared, columns if len(columns[0]) <= size else [column[i:i + size] for column in columns], None)
                  for shared, columns in rows.runs for i in range(0, len(columns[0]), size))
    else:
        varying = tuple(range(len(header)))
        rows = iter(rows)
        pieces = (((), None, chunk) for chunk in iter(lambda: list(itertools.islice(rows, size)), []))
    real = [name in REAL_COLUMNS for name in header]
    # The text before each cell: its separator, and in JSONL its key.
    keys = [("," if i else "") + ("" if csv else _json_line(name) + ":") for i, name in enumerate(header)]
    fixed = [i for i in range(len(header)) if i not in varying]
    strings, reals = JsonStrings(), JsonReals()

    for shared, columns, chunk in pieces:
        if chunk is not None:
            columns = list(zip(*chunk))
        kinds = tuple(_kind(real[i], column, csv, alone) for i, column in zip(varying, columns))
        texts = {i: _shared_text(real[i], cell, csv) for i, cell in zip(fixed, shared)}
        segments, text = [], ""
        for i, key in enumerate(keys):
            if i in texts:
                text += key + texts[i]
            else:
                segments.append(text + key)
                text = ""
        segments.append(text)
        present = tuple(map(bool, segments))
        text = line_encoder(csv, kinds, present)(chunk or zip(*columns), strings, reals, *segments)
        if csv and "real" in kinds and "e+308" in text:
            kinds = tuple("real_cell" if kind == "real" else kind for kind in kinds)
            text = line_encoder(csv, kinds, present)(chunk or zip(*columns), strings, reals, *segments)
        out.write(text)


def _kind(is_real: bool, column: Sequence, csv: bool, alone: bool) -> str:
    """The kind of cells a varying column of a piece holds, the key of its
    cell code in :data:`_CELLS`: ``real`` (exact floats and ``None``),
    ``real_cell`` (any other real column), ``int`` and ``str`` (exact, and
    in CSV free of characters that need quoting), ``lone`` (the text cells
    of a one-column CSV table), and ``any``."""
    types = set(map(type, column))
    if is_real:
        return "real" if types <= _REAL_TYPES else "real_cell"
    if types == {int}:
        return "int"
    if alone:
        return "lone"
    if types == {str} and not (csv and _csv_special("".join(column))):
        return "str"
    return "any"


def _shared_text(is_real: bool, value: object, csv: bool) -> str:
    """A shared cell's text, by the rules of the per-cell kinds."""
    if csv:
        return format_cell(value) if is_real else _csv_cell(value)
    return _json_real(value) if is_real else _json_line(value)


def _json_real(value: object) -> str:
    """``_json_line(_json_value(value))``: a finite float's JSON text is its
    ``repr``, which takes about a third of the encoder's time."""
    value = _json_value(value)
    return repr(value) if isinstance(value, float) and math.isfinite(value) else _json_line(value)


def _csv_special(text: str) -> bool:
    """Whether ``text`` holds a character that makes its CSV cell quoted."""
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_cell(value: object, alone: bool = False) -> str:
    """``value`` as a CSV cell: empty for ``None``, else its ``str``,
    quoted with its quotes doubled when it holds a comma, a quote, LF or CR,
    or when it is the empty cell of a one-column row (``alone``), which
    would otherwise read back as a blank line.  This is what the ``csv``
    module writes with ``QUOTE_MINIMAL``, but that it also quotes CR."""
    text = "" if value is None else str(value)
    if _csv_special(text) or alone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


# The code of a cell ``$`` of each kind, (CSV, JSONL).  Reals follow
# :func:`.dataio.format_cell` (CSV) and :func:`.dataio._json_value`
# (JSONL), the inline JSONL ones through ``reals`` (a :class:`JsonReals`)
# but for zeros: ``0.0`` and ``-0.0`` are equal keys with different texts.
# ``%`` formatting gives the text of ``f"{$:.10g}"`` in less time.
_CELLS = {
    "real": ('{undefined if $ is None else neg_inf if $ == minus_inf else "%.10g" % $}',
             '{reals[$] if $ else "null" if $ is None else repr($)}'),
    "real_cell": ("{format_cell($)}", "{json_real($)}"),
    "int": ("{$}", "{$}"),
    "str": ("{$}", "{strings[$]}"),
    "lone": ("{csv_cell($, True)}", None),
    "any": ("{csv_cell($)}", "{json_line($)}"),
}


@functools.cache
def line_encoder(csv: bool, kinds: tuple[str, ...], present: tuple[bool, ...]):
    """``encode(rows, strings, reals, *segments)`` for pieces whose varying
    columns hold cells of ``kinds`` (see :func:`_kind`), CSV or JSONL.

    It returns the lines of ``rows``, each row the tuple of its varying
    cells, from one f-string per row: ``segments[0]``, the first cell,
    ``segments[1]``, and so on to the last segment, between the braces of
    a JSONL object and before the line end.  Every other fixed text is a
    segment, so no header name or shared cell is ever written into the
    source; a segment that is not ``present`` (empty) is left out of it.
    Like ``collections.namedtuple``, it builds the function from source,
    here on first use for each format, kinds and segments, never at import.
    """
    line = "".join(f"{{s{j}}}" * present[j] + _CELLS[kind][not csv].replace("$", f"c{j}")
                   for j, kind in enumerate(kinds))
    line += f"{{s{len(kinds)}}}" * present[-1]
    segments = ", ".join(f"s{j}" for j in range(len(kinds) + 1))
    # A row of no varying cells unpacks into ``()``.
    target = "".join(f"c{j}, " for j in range(len(kinds))) or "()"
    start, end = ("", "") if csv else ("{{", "}}")
    source = (
        f"def encode(rows, strings, reals, {segments}):\n"
        f"    return ''.join([f'{start}{line}{end}\\n' for {target} in rows])\n"
    )
    namespace = {"undefined": UNDEFINED, "neg_inf": NEG_INF, "minus_inf": -math.inf, "format_cell": format_cell,
                 "json_real": _json_real, "json_line": _json_line, "csv_cell": _csv_cell}
    exec(source, namespace)
    return namespace["encode"]


class JsonReals(dict):
    """The JSON text of each nonzero real cell looked up, formatted on
    first use by the rules of :func:`.dataio._json_value`, so a table
    formats each distinct value once."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _json_real(value)
        return text


# A record's fields in snapshot JSONL order, as a tuple.
_record_fields = operator.attrgetter("candidate_id", "first_name", "last_name", "group_labels", "missing")


def encoded_snapshot(snap: model.RankingSnapshot, strings: JsonStrings, groups: JsonGroups) -> list[str]:
    """The JSONL lines of ``snap``, one ``json`` object per record with
    compact separators and non-ASCII kept, for fields of the types the
    :mod:`.model` constructors check."""
    head = f'{{"query_id":{_json_line(snap.query_id)},"day":{_json_line(snap.day)},"rank":'
    return [
        f'{head}{rank},"candidate_id":{strings[candidate_id]},'
        f'"first_name":{"null" if first is None else strings[first]},'
        f'"last_name":{"null" if last is None else strings[last]},'
        f'"groups":{"null" if missing else groups[tuple(labels.items())]},'
        f'"missing":{"true" if missing else "false"}}}\n'
        for rank, (candidate_id, first, last, labels, missing) in enumerate(map(_record_fields, snap.entries), 1)
    ]


class JsonStrings(dict):
    """The JSON text of each string looked up, encoded on first use.  Keys
    are strings only: a non-string equal to a cached key (``1`` and
    ``True``) would share its text, so looking one up raises ``TypeError``."""

    def __missing__(self, key: object) -> str:
        if not isinstance(key, str):
            raise TypeError(f"{key!r} is not a str")
        text = self[key] = _json_line(key)
        return text


class JsonGroups(dict):
    """The JSON text of a group mapping, sorted by attribute, keyed by the
    tuple of its string items in any order."""

    def __missing__(self, items: tuple) -> str:
        text = self[items] = _json_line(dict(sorted(items)))
        return text
