"""File formats and tabular exports: the table writers, the format
constants and helpers, and where the snapshot loader and table readers are.

Snapshot datasets travel as JSONL, one object per ranked entry; baselines,
name tables and scored pools as CSV; metric curves and churn grids as
long-format tables (CSV or JSONL); heatmaps as rectangular CSV matrices.
Paths and open streams both pass through :func:`text_stream`.  Every
fixed-schema table, heatmap matrices and the ground-truth ledger
(:func:`write_ledger`) included, is written by :func:`write_long_table`.
All text output is UTF-8 with LF line endings, and cells of the
:data:`REAL_COLUMNS` are formatted with 10 significant digits so identical
analyses produce byte-identical files.  Undefined cells serialize as
``"undefined"`` in long tables and as empty cells in matrices; negative
infinity as ``"-inf"``.

The code is split by role, so that a run compiles only the part it runs:

- this module: the writers, the constants, the format helpers (the
  number reader :func:`numeral` among them) and :func:`text_stream`,
  which every stage with output uses;
- :mod:`.loader`: ``load_dataset``, its ``ValidationReport`` with the
  ``ParseIssue`` and ``IntegrityIssue`` entries, and ``filter_queries``;
- :mod:`.readers`: the CSV, JSONL, baseline, pool and long-table readers
  and ``export_heatmap``.

Each of the other two is executed on its first use, and its public names
still read as ``dataio.<name>`` (PEP 562 :func:`__getattr__`), so
``dataio.load_dataset`` and ``from rankaudit.dataio import read_pool``
work as before.

Every table is written by one writer, a run at a time: the cells a run of
rows shares (one curve's, or one day pair's churn cells) become text once,
and each row then costs one f-string of its other cells; a table of runs a
few rows long goes out as plain rows, :data:`_WRITE_ROWS` at a time
(:mod:`.encoders`).  Snapshots are written here, from one f-string per
record, so writing them executes no table encoder.
CSV quoting is RFC 4180 for every table: a cell holding a comma, a quote,
a line feed or a carriage return is quoted, its quotes doubled, and the
empty cell of a one-column row is written ``""``.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
from contextlib import contextmanager
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from . import churn, encoders, exposure, loader, mixedlm, model, readers, simulate

if TYPE_CHECKING:
    from pathlib import Path

SNAPSHOT_FIELDS = ("query_id", "day", "rank", "candidate_id", "first_name", "last_name", "groups", "missing")
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

# The public names of the loader and the readers, read here as well.
_MOVED = {
    "loader": "IntegrityIssue ParseIssue ValidationReport filter_queries load_dataset",
    "readers": "csv_rows csv_table export_heatmap json_objects load_baseline read_long_table read_pool table_cell",
}
_OWNER = {name: module for module, names in _MOVED.items() for name in names.split()}


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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


def numeral(text, kind: type = float):
    """``kind(text)``, for ``kind`` ``float`` or ``int``, of a table's
    number cell or a CLI number; a text holding ``_`` raises ``ValueError``
    too.  Both read ``1_5`` as 15, but no writer groups digits and no
    option's help shows it, so such a text is a typo or a mangled file."""
    if type(text) is str and "_" in text:
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    return kind(text)


# One JSONL line: compact separators, non-ASCII kept (``json.dumps`` with
# these keywords would build a new encoder per call).
_json_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


@contextmanager
def text_stream(target: str | Path | TextIO, mode: str) -> Iterator[TextIO]:
    """``target`` itself when it is an open stream; a path opened as UTF-8
    with ``newline=""`` (no newline translation) and closed on exit."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target


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


# ---------------------------------------------------------------------------
# snapshot JSONL


def write_snapshots(series: Iterable[model.QuerySeries], destination: str | Path | TextIO) -> None:
    """Write a dataset as snapshot JSONL, sorted by query, day, rank.

    Each record's line comes from one f-string (:func:`_snapshot_lines`),
    each string in it encoded by ``json``'s own string encoder and each
    distinct group mapping once per query (ids rarely recur across
    queries, so a cache for the whole call would only grow); lines are
    written :data:`_WRITE_ROWS` at a time.
    """
    with text_stream(destination, "w") as out:
        lines: list[str] = []
        for one in sorted(series, key=lambda s: s.query_id):
            groups = JsonGroups()
            for day in sorted(one.snapshots):
                lines += _snapshot_lines(one.snapshots[day], groups)
                if len(lines) >= _WRITE_ROWS:
                    out.write("".join(lines))
                    lines.clear()
        out.write("".join(lines))


# A record's fields in snapshot JSONL order, as a tuple.
_record_fields = operator.attrgetter("candidate_id", "first_name", "last_name", "group_labels", "missing")


def _snapshot_lines(snap: model.RankingSnapshot, groups: JsonGroups) -> list[str]:
    """The JSONL lines of ``snap``, one ``json`` object per record with
    compact separators and non-ASCII kept.  The :mod:`.model` constructors
    check each field's type, so this writes what ``json`` would: a string
    through ``encode_basestring``, the function ``json`` itself calls for a
    ``str`` when ``ensure_ascii`` is off."""
    head = f'{{"query_id":{_json_line(snap.query_id)},"day":{_json_line(snap.day)},"rank":'
    string = encode_basestring
    return [
        f'{head}{rank},"candidate_id":{string(candidate_id)},'
        f'"first_name":{"null" if first is None else string(first)},'
        f'"last_name":{"null" if last is None else string(last)},'
        f'"groups":{"null" if missing else groups[tuple(labels.items())]},'
        f'"missing":{"true" if missing else "false"}}}\n'
        for rank, (candidate_id, first, last, labels, missing) in enumerate(map(_record_fields, snap.entries), 1)
    ]


class JsonGroups(dict):
    """The JSON text of a group mapping, sorted by attribute, keyed by the
    tuple of its string items in any order."""

    def __missing__(self, items: tuple) -> str:
        text = self[items] = _json_line(dict(sorted(items)))
        return text


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
