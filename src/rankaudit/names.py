"""Group-label inference from name-frequency tables.

A frequency table maps a name to per-label occurrence counts (for example a
registry of first names by recorded sex).  Inference walks an ordered chain
of tables, lets the first table that contains the name decide, and assigns
the majority label.  An exact tie resolves to the scheme's unknown label
rather than guessing.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

from .dataio import numeral, write_long_table
from .errors import MalformedRow, UnknownLabel
from .model import CandidateRecord, GroupScheme, RankingSnapshot, Record, _unchecked
from .readers import csv_table

_TABLE_COLUMNS = ("name", "label", "count")


def _fold(name: str) -> str:
    """Canonical lookup key: trimmed, Unicode-case-folded."""
    return name.strip().casefold()


class NameFrequencyTable(Record):
    """Per-name label counts under one group scheme."""

    __slots__ = _fields = ("scheme", "counts")

    def __init__(self, scheme: GroupScheme, counts: Mapping[str, Mapping[str, int]]) -> None:
        self._set(scheme, counts)

    def __contains__(self, name: str) -> bool:
        return _fold(name) in self.counts

    def lookup(self, name: str) -> Mapping[str, int] | None:
        return self.counts.get(_fold(name))

    def __len__(self) -> int:
        return len(self.counts)


class InferenceResult(Record):
    """Outcome of one name lookup.

    ``provider_index`` is the position of the resolving table in the chain,
    or -1 when no table contained the name.  ``confidence`` is the winning
    count divided by the name's total count; 0.0 when unresolved or tied.
    """

    __slots__ = _fields = ("label", "confidence", "provider_index")

    def __init__(self, label: str, confidence: float, provider_index: int) -> None:
        self._set(label, confidence, provider_index)


class CoverageReport(Record):
    """How much of a dataset the inference chain labeled."""

    __slots__ = _fields = ("total", "resolved")

    def __init__(self, total: int, resolved: int) -> None:
        self._set(total, resolved)

    @property
    def coverage(self) -> float:
        return self.resolved / self.total if self.total else 0.0


def load_name_table(source: str | Path | TextIO, scheme: GroupScheme) -> NameFrequencyTable:
    """Read a ``name,label,count`` CSV into a frequency table.

    Names are case-folded and whitespace-trimmed; duplicate (name, label)
    rows accumulate.  Raises :class:`MalformedRow` (with the line number) on
    unparsable rows and :class:`UnknownLabel` on labels outside the scheme.
    """
    counts: dict[str, dict[str, int]] = {}
    for lineno, row in csv_table(source, _TABLE_COLUMNS):
        _add_row(counts, scheme, lineno, row)
    return NameFrequencyTable(scheme=scheme, counts=counts)


def infer_label(name: str | None, chain: Sequence[NameFrequencyTable]) -> InferenceResult:
    """Resolve a name against an ordered chain of frequency tables.

    The first table containing the (case-folded) name decides; later tables
    are consulted only when the name is absent earlier.  Within a table the
    majority-count label wins; an exact tie yields the unknown label with
    confidence 0.
    """
    if not chain:
        raise ValueError("inference chain must contain at least one table")
    scheme = chain[0].scheme
    for table in chain[1:]:
        if table.scheme != scheme:
            raise ValueError("all tables in a chain must share one scheme")

    if name is not None:
        for index, table in enumerate(chain):
            entry = table.lookup(name)
            if entry is None:
                continue
            total = sum(entry.values())
            best = max(entry.values())
            winners = [lbl for lbl in scheme.labels if entry.get(lbl, 0) == best]
            if len(winners) > 1:
                return InferenceResult(scheme.unknown_label, 0.0, index)
            return InferenceResult(winners[0], best / total, index)
    return InferenceResult(scheme.unknown_label, 0.0, -1)


def label_dataset(
    snapshots: Iterable[RankingSnapshot],
    scheme: GroupScheme,
    chain: Sequence[NameFrequencyTable],
    full_name: bool = False,
) -> tuple[list[RankingSnapshot], CoverageReport]:
    """Infer labels for every non-missing candidate in the snapshots.

    Returns relabeled snapshot copies plus a coverage report; the inputs are
    left untouched.  ``full_name`` switches the lookup key from the first
    name to ``"first last"``, for chains built over full-name tables.
    Missing candidates stay unlabeled, and a candidate whose lookup fails
    gets the unknown label explicitly.
    """
    total = 0
    resolved = 0
    # ``infer_label`` is a function of the lookup key alone, and a scrape
    # repeats first names far more often than it brings new ones.
    results: dict[str | None, InferenceResult] = {}
    snapshots = list(snapshots)
    relabeled: list[tuple[CandidateRecord, ...]] = []
    for snapshot in snapshots:
        entries = snapshot.entries
        group_labels: list[dict[str, str]] = []
        for record in entries:
            if record.missing:
                group_labels.append({})
                continue
            total += 1
            key = _lookup_key(record, full_name)
            result = results.get(key)
            if result is None:
                result = results[key] = infer_label(key, chain)
            if result.label != scheme.unknown_label:
                resolved += 1
            labels = dict(record.group_labels)
            labels[scheme.attribute_name] = result.label
            group_labels.append(labels)
        records = _unchecked(CandidateRecord, len(entries), [r.candidate_id for r in entries],
                             [r.first_name for r in entries], [r.last_name for r in entries], group_labels,
                             [r.missing for r in entries])
        relabeled.append(tuple(records))
    # The copies keep each snapshot's checked id, day, candidate ids and
    # names; the labels added are strings of the scheme.
    copies = _unchecked(RankingSnapshot, len(snapshots), [s.query_id for s in snapshots],
                        [s.day for s in snapshots], relabeled)
    return copies, CoverageReport(total=total, resolved=resolved)


def _lookup_key(record: CandidateRecord, full_name: bool) -> str | None:
    if not full_name:
        return record.first_name
    parts = [p for p in (record.first_name, record.last_name) if p]
    return " ".join(parts) if parts else None


def save_name_table(table: NameFrequencyTable, destination: str | Path | TextIO) -> None:
    """Write a frequency table back to ``name,label,count`` CSV, sorted."""
    rows = [
        (name, label, table.counts[name][label])
        for name in sorted(table.counts)
        for label in table.scheme.labels
        if table.counts[name].get(label, 0)
    ]
    write_long_table(rows, _TABLE_COLUMNS, destination)


def table_from_rows(rows: Iterable[tuple[str, str, int]], scheme: GroupScheme) -> NameFrequencyTable:
    """Build a table from in-memory rows; same validation as the CSV loader.

    Each cell is read as its text, as it would be after a CSV round trip,
    and errors count lines as if a header row came first.
    """
    counts: dict[str, dict[str, int]] = {}
    for lineno, row in enumerate(rows, start=2):
        _add_row(counts, scheme, lineno, ["" if cell is None else str(cell) for cell in row])
    return NameFrequencyTable(scheme=scheme, counts=counts)


def _add_row(counts: dict[str, dict[str, int]], scheme: GroupScheme, lineno: int, row: Sequence[str]) -> None:
    """Check one ``name,label,count`` row and add its count under the
    case-folded name; empty rows and zero counts add nothing."""
    if not row:
        return
    if len(row) != 3:
        raise MalformedRow(f"line {lineno}: expected 3 fields, got {len(row)}")
    raw_name, raw_label, raw_count = row
    name = _fold(raw_name)
    if not name:
        raise MalformedRow(f"line {lineno}: empty name")
    label = raw_label.strip()
    if label not in scheme.labels:
        raise UnknownLabel(f"line {lineno}: label {label!r} not in scheme {scheme.attribute_name!r}")
    try:
        count = numeral(raw_count, int)
    except ValueError:
        raise MalformedRow(f"line {lineno}: count {raw_count!r} is not an integer") from None
    if count < 0:
        raise MalformedRow(f"line {lineno}: count must be non-negative")
    if count:
        counts.setdefault(name, dict.fromkeys(scheme.labels, 0))[label] += count
