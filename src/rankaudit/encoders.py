"""Line encoders for the fixed-schema writers of :mod:`rankaudit.dataio`.

``dataio.write_long_table`` writes a table a run at a time (:class:`Runs`):
the cells a run's rows share become text once, and each row then costs one
f-string of its other cells; a plain row list is written as runs of
:data:`.dataio._WRITE_ROWS` rows that share nothing.  ``dataio.write_snapshots``
writes one f-string per record.  A run these encoders could render
differently from the ``csv``/``json`` modules goes to those modules
instead; the public constructors of :mod:`.model` check each snapshot
field's type, so the f-string writes every record as ``json`` would.
Table encoders are generated from the header on first use.  The writers
import this module when they run, so a CLI start that writes nothing does
not compile it.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import Sequence, TextIO

from . import dataio
from .dataio import FORMAT_CSV, NEG_INF, REAL_COLUMNS, UNDEFINED, _json_line
from .model import RankingSnapshot

# The cell types a real column may hold for the generated encoder.
_REAL_TYPES = frozenset({float, type(None)})
# The types a shared cell may have.
_SHARED_TYPES = frozenset({str, int})


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
        for shared, columns in self.runs:
            yield from self.rows(shared, columns)

    def rows(self, shared: tuple, columns: Sequence) -> list[tuple]:
        """The rows of one run."""
        order = self._order
        return [order(shared + cells) for cells in zip(*columns)]


def write_runs(rows: Sequence[tuple], header: tuple[str, ...], out: TextIO, fmt: str) -> None:
    """Write the lines of ``rows`` to ``out``: a :class:`Runs` for
    ``header``, or plain rows taken :data:`.dataio._WRITE_ROWS` at a time
    as runs that share nothing.  A run goes out in pieces of at most that
    many rows, and a piece whose lines could differ from what
    :func:`.dataio._write_rows` writes goes through it instead.

    The generated encoder writes a non-real cell with ``str`` (CSV) or
    through :class:`JsonStrings` (JSONL), so every such cell must be an
    exact ``str`` or ``int`` (a ``bool`` or ``None`` prints differently),
    all of one type in a varying column, and no CSV string may hold a
    character the ``csv`` path quotes.  A real cell must be an exact
    ``float`` or ``None``.  JSONL real cells come from a :class:`JsonReals`,
    which refuses the values whose text would differ from ``json``'s.  CSV
    real cells are formatted inline, which rounds the largest floats to 10
    digits past the float range where :func:`.dataio.format_real` keeps
    their ``repr``, so no CSV piece may hold ``e+308`` (a string holding it
    only costs the slower path).
    """
    size = dataio._WRITE_ROWS
    if isinstance(rows, Runs) and rows.header == header:
        varying = rows.varying
        pieces = ((shared, columns if len(columns[0]) <= size else [column[i:i + size] for column in columns], None)
                  for shared, columns in rows.runs for i in range(0, len(columns[0]), size))
    else:
        varying = tuple(range(len(header)))
        pieces = (((), None, rows[i:i + size]) for i in range(0, len(rows), size))
    csv = fmt == FORMAT_CSV
    strings, reals = JsonStrings(), JsonReals()
    real = [header[i] in REAL_COLUMNS for i in varying]

    def lines(shared: tuple, columns: Sequence) -> str | None:
        kinds = []
        for is_real, column in zip(real, columns):
            types = set(map(type, column))
            if is_real and types <= _REAL_TYPES:
                kinds.append(float)
            elif not is_real and (types == {int} or types == {str} and not (csv and _csv_special("".join(column)))):
                kinds.append(types.pop())
            else:
                return None
        if not csv:
            texts = [str(cell) if type(cell) is int else strings[cell] for cell in shared]
        elif set(map(type, shared)) <= _SHARED_TYPES:
            texts = list(map(str, shared))
            if _csv_special("".join(texts)):
                return None
        else:
            return None
        encode, templates = line_encoder(header, csv, varying, tuple(kinds))
        text = encode(columns, strings, reals, *[template.format(*texts) for template in templates])
        if csv and float in kinds and "e+308" in text:
            return None
        return text

    for shared, columns, chunk in pieces:
        try:
            # The varying cells of a chunk of plain rows, column by column.
            if chunk is not None and set(map(len, chunk)) == {len(header)}:
                columns = list(zip(*chunk))
            text = None if columns is None else lines(shared, columns)
        except (TypeError, ValueError):
            # A row without a length or a cell no encoder can format: the
            # ``csv``/``json`` path writes it or raises its own error.
            text = None
        if text is None:
            dataio._write_rows(rows.rows(shared, columns) if chunk is None else chunk, header, out, fmt)
        else:
            out.write(text)


def _csv_special(text: str) -> bool:
    """Whether ``text`` holds a character the ``csv`` path quotes (or, for
    CR, that :func:`.dataio._write_rows` quotes)."""
    return "," in text or '"' in text or "\n" in text or "\r" in text


@functools.cache
def line_encoder(header: tuple[str, ...], csv: bool, varying: tuple[int, ...], kinds: tuple[type, ...]):
    """``(encode, templates)`` for runs of ``header`` rows, CSV or JSONL,
    whose ``varying`` columns hold cells of ``kinds`` (``str``, ``int``, or
    ``float`` for a real column); the names must be identifiers, so that
    they can be written into the f-string as they are.

    ``encode(columns, strings, reals, *segments)`` returns the lines of the
    rows of ``columns`` from one f-string per row: the varying cells, and
    between them fixed text or ``segments``, the ``templates`` (text that
    holds shared cells) formatted with a run's shared texts.  Like
    ``collections.namedtuple``, it builds the function from source, here on
    first use for each header and kinds, never at import.  Real cells follow
    :func:`.dataio.format_cell` (CSV) and :func:`.dataio._json_value`
    (JSONL), the JSONL ones through ``reals`` (a :class:`JsonReals`) but for
    zeros: ``0.0`` and ``-0.0`` are equal keys with different texts.
    """
    names = [f"c{j}" for j in range(len(varying))]
    cells = []
    for c, kind in zip(names, kinds):
        if kind is float and csv:
            # ``format_real`` but for the largest floats: ``%`` formatting
            # gives the text of ``f"{c:.10g}"`` in less time.
            cell = f'{{undefined if {c} is None else neg_inf if {c} == minus_inf else "%.10g" % {c}}}'
        elif kind is float:
            cell = f'{{reals[{c}] if {c} else "null" if {c} is None else repr({c})}}'
        elif kind is str and not csv:
            cell = f"{{strings[{c}]}}"
        else:
            cell = f"{{{c}}}"
        cells.append(cell)
    # The line's text in template syntax, a shared cell as ``{j}``, split
    # at the varying cells: the text before each and after the last.
    text, shared = "", 0
    for i, name in enumerate(header):
        text += ("," if i else "") if csv else ("," if i else "{{") + _json_line(name) + ":"
        if i in varying:
            text += "\0"
        else:
            text, shared = f"{text}{{{shared}}}", shared + 1
    line, templates = "", []
    for segment, cell in zip((text + ("" if csv else "}}")).split("\0"), [*cells, ""]):
        # Literal braces are doubled, so any other brace opens a shared cell.
        if "{" in segment.replace("{{", ""):
            templates.append(segment)
            segment = f"{{s{len(templates)}}}"
        line += segment + cell
    params = "".join(f", s{j}" for j in range(1, len(templates) + 1))
    source = (
        f"def encode(columns, strings, reals{params}):\n"
        f"    return ''.join([f'{line}\\n' for {', '.join(names)}, in zip(*columns)])\n"
    )
    namespace = {"undefined": UNDEFINED, "neg_inf": NEG_INF, "minus_inf": -math.inf}
    exec(source, namespace)
    return namespace["encode"], templates


class JsonReals(dict):
    """The JSON text of each nonzero real cell looked up, formatted on
    first use by the rules of :func:`.dataio._json_value`, so a table
    formats each distinct value once.  A NaN, an infinity other than -inf,
    or a float whose 10 digits round past the float range (which ``json``
    writes as ``NaN``, ``Infinity`` or ``-Infinity``, or as its ``repr``)
    raises ``ValueError``, so its run goes through the ``json`` path."""

    def __missing__(self, value: float) -> str:
        text = _json_line(NEG_INF) if value == -math.inf else repr(float("%.10g" % value))
        if text in ("nan", "inf", "-inf"):
            raise ValueError(f"{value!r} has no inline JSON text")
        self[value] = text
        return text


# A record's fields in snapshot JSONL order, as a tuple.
_record_fields = operator.attrgetter("candidate_id", "first_name", "last_name", "group_labels", "missing")


def encoded_snapshot(snap: RankingSnapshot, strings: JsonStrings, groups: JsonGroups) -> list[str]:
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
