"""Line encoders for the fixed-schema writers of :mod:`rankaudit.dataio`.

``dataio.write_long_table`` and ``dataio.write_snapshots`` emit whole lines
from one f-string per row, a chunk at a time, and hand any chunk these
encoders could render differently from the ``csv``/``json`` modules back to
those modules.  Table encoders are generated from the header on first use.
The writers import this module when they run, so a CLI start that writes
nothing does not compile it.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

from .dataio import FORMAT_CSV, NEG_INF, REAL_COLUMNS, UNDEFINED, _json_line
from .model import RankingSnapshot

# The cell types a JSONL real column may hold for the generated encoder.
_REAL_TYPES = frozenset({float, type(None)})


def encoded_rows(chunk: Sequence[tuple], header: tuple[str, ...], fmt: str, strings: JsonStrings) -> str | None:
    """The lines of ``chunk`` from the generated encoder, or None when they
    could differ from :func:`.dataio._write_rows`'s.

    CSV: the encoder writes every cell unquoted, so the text must hold one
    comma fewer than the header has columns, one line feed per row, no
    ``"`` and no CR, leaving no cell the ``csv`` path would quote.  It
    writes ``None`` as ``None`` where ``csv`` writes an empty cell, so no
    ``None`` may appear either, and it writes the largest floats rounded
    past the float range, where :func:`.dataio.format_real` keeps their
    ``repr``, so no ``e+308`` may appear (a string holding either only
    costs the slower path).

    JSONL: each non-real column must hold only exact ``str`` or only exact
    ``int`` cells (a ``bool`` would print as ``True``), and each real column
    only ``None`` and exact ``float`` cells.  A real cell other than
    ``None`` and -inf is the float that :func:`.dataio._json_value` gives,
    written with ``repr``, which agrees with ``json`` except on NaN and
    infinities (including the largest floats, which the inline rule rounds
    to 10 digits past the float range): there it writes ``nan``, ``inf``
    and ``-inf`` where ``json`` writes ``NaN``, ``Infinity`` and
    ``-Infinity``, and only there can a colon be followed by one of these
    words.
    """
    try:
        if fmt == FORMAT_CSV:
            encode = line_encoder(header, None)
            if encode is None:
                return None
            text = encode(chunk, strings)
            if (
                text.count(",") != len(chunk) * (len(header) - 1)
                or text.count("\n") != len(chunk)
                or '"' in text
                or "\r" in text
                or "None" in text
                or "e+308" in text
            ):
                return None
            return text
        kinds = []
        for name, column in zip(header, zip(*chunk)):
            types = set(map(type, column))
            if name in REAL_COLUMNS:
                if not types <= _REAL_TYPES:
                    return None
                kinds.append(float)
            elif types == {str} or types == {int}:
                kinds.append(types.pop())
            else:
                return None
        encode = line_encoder(header, tuple(kinds))
        if encode is None:
            return None
        text = encode(chunk, strings)
        if ":nan" in text or ":inf" in text or ":-inf" in text:
            return None
        return text
    except (TypeError, ValueError):
        # A row of the wrong length (the encoder unpacks every row into one
        # name per column) or a cell no encoder can format: the ``csv``/
        # ``json`` path writes it or raises its own error.
        return None


@functools.cache
def line_encoder(header: tuple[str, ...], kinds: tuple[type, ...] | None):
    """A function ``encode(rows, strings)`` that returns the lines of
    ``rows`` from one f-string per row: CSV when ``kinds`` is None, else
    JSONL, where ``kinds`` gives each column's cell type (``str``, ``int``,
    or ``float`` for a real column) and ``strings`` is a
    :class:`JsonStrings`.  None for a header whose names are not all
    identifiers, which could not be written into the f-string as they are.

    Like ``collections.namedtuple``, it builds the function from source,
    here on first use for each header and kinds, never at import.  Real
    cells are formatted inline by the rules of :func:`.dataio.format_cell`
    (CSV) and :func:`.dataio._json_value` (JSONL).
    """
    if not header or not all(name.isidentifier() for name in header):
        return None
    names = [f"c{i}" for i in range(len(header))]
    if kinds is None:
        cells = [
            f'{{undefined if {c} is None else neg_inf if {c} == minus_inf else f"{{{c}:.10g}}"}}'
            if name in REAL_COLUMNS else f"{{{c}!s}}"
            for name, c in zip(header, names)
        ]
        line = ",".join(cells)
    else:
        cells = []
        for name, c, kind in zip(header, names, kinds):
            if kind is float:
                cell = (f'{{"null" if {c} is None else json_neg_inf if {c} == minus_inf '
                        f'else repr(float(f"{{{c}:.10g}}"))}}')
            elif kind is str:
                cell = f"{{strings[{c}]}}"
            else:
                cell = f"{{{c}}}"
            cells.append(f"{_json_line(name)}:{cell}")
        line = "{{" + ",".join(cells) + "}}"
    source = (
        "def encode(rows, strings):\n"
        f"    return ''.join([f'{line}\\n' for {', '.join(names)}, in rows])\n"
    )
    namespace = {
        "undefined": UNDEFINED,
        "neg_inf": NEG_INF,
        "json_neg_inf": _json_line(NEG_INF),
        "minus_inf": -math.inf,
    }
    exec(source, namespace)
    return namespace["encode"]


# A record's fields in snapshot JSONL order, as a tuple.
_record_fields = operator.attrgetter("candidate_id", "first_name", "last_name", "group_labels", "missing")


def encoded_snapshot(snap: RankingSnapshot, strings: JsonStrings, groups: JsonGroups) -> list[str]:
    """The JSONL lines of ``snap``; raises ``TypeError`` where they could
    differ from :func:`.dataio._snapshot_lines`, discarding them all.  A
    ``missing`` that is neither ``True`` nor ``False`` raises in
    :func:`_not_a_bool`, so the ``groups`` cell of a kept line saw a
    ``bool``."""
    head = f'{{"query_id":{_json_line(snap.query_id)},"day":{_json_line(snap.day)},"rank":'
    return [
        f'{head}{rank},"candidate_id":{strings[candidate_id]},'
        f'"first_name":{"null" if first is None else strings[first]},'
        f'"last_name":{"null" if last is None else strings[last]},'
        f'"groups":{"null" if missing else groups[tuple(labels.items())]},'
        f'"missing":{"true" if missing is True else "false" if missing is False else _not_a_bool(missing)}}}\n'
        for rank, (candidate_id, first, last, labels, missing) in enumerate(map(_record_fields, snap.entries), 1)
    ]


def _not_a_bool(value: object) -> str:
    raise TypeError(f"missing is {value!r}, not a bool")


class JsonStrings(dict):
    """The JSON text of each string looked up, encoded on first use.  Keys
    are exact ``str`` only: a non-string equal to a cached key (``1`` and
    ``True``) would share its text, so looking one up raises ``TypeError``."""

    def __missing__(self, key: object) -> str:
        if type(key) is not str:
            raise TypeError(f"{key!r} is not a str")
        text = self[key] = _json_line(key)
        return text


class JsonGroups(dict):
    """The JSON text of a group mapping, sorted by attribute, keyed by the
    tuple of its items in any order; items that are not exact ``str`` pairs
    raise ``TypeError``, as in :class:`JsonStrings`."""

    def __missing__(self, items: tuple) -> str:
        for attribute, label in items:
            if type(attribute) is not str or type(label) is not str:
                raise TypeError(f"group label {attribute!r}: {label!r} is not a str pair")
        text = self[items] = _json_line(dict(sorted(items)))
        return text
