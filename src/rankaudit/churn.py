"""Between-day churn of top-k membership, per group.

Churn from day s to day e at cutoff k is the fraction of a group's day-s
top-k members that no longer appear anywhere in the day-e top k, matched by
candidate id.  The top-k window is positional over the raw entry list
(hidden candidates occupy their slots); the group filter applies only to the
day-s membership, so a candidate who is still ranked on day e counts as
retained even if its label was masked that day.

A day-s entry at 0-based position ``i`` whose candidate sits at position
``p`` on day e (``p`` infinite when absent) is retained at cutoff ``k``
exactly when ``max(i, p) < k``.  :func:`churn_grid` therefore scans each day
pair once: the group base at every ``k`` is a prefix count of the day-s
labels and the retained count a running sum over a per-label histogram of
``max(i, p) + 1``.
"""
from __future__ import annotations

from itertools import accumulate, repeat
from typing import Hashable, Iterable, Sequence

from .errors import DayMissing, UnknownLabel
from .model import (
    GroupScheme,
    QuerySeries,
    RankingSnapshot,
    Record,
    _unchecked,
    check_cutoff,
    label_codes,
    prefix_table,
)

# The metric name of churn rows in long tables.
CHURN = "churn"


class ChurnCell(Record):
    """One churn measurement; ``churn`` is ``None`` when no group member
    was in the day-s top k (rate undefined, not zero)."""

    __slots__ = _fields = ("query_id", "attribute", "label", "k", "start_day", "end_day", "churn", "base_count")

    def __init__(
        self, query_id: str, attribute: str, label: str, k: int, start_day: int, end_day: int,
        churn: float | None, base_count: int,
    ) -> None:
        self._set(query_id, attribute, label, k, start_day, end_day, churn, base_count)


def churn_rate(
    series: QuerySeries,
    scheme: GroupScheme,
    label: str,
    k: int,
    start_day: int,
    end_day: int,
) -> ChurnCell:
    """Churn of ``label`` members between two days of one query.

    Raises :class:`DayMissing` when either day has no snapshot and
    :class:`CutoffOutOfRange` when ``k`` exceeds either day's list.
    """
    _check_cell(scheme, label, start_day, end_day)
    start = _snapshot_for(series, start_day)
    end = _snapshot_for(series, end_day)
    for snap in (start, end):
        check_cutoff(snap, k)
    members = [r.candidate_id for r in start.entries[:k] if r.label_for(scheme) == label]
    base = len(members)
    churn = None
    if base:
        retained = {r.candidate_id for r in end.entries[:k]}
        churn = sum(1 for cid in members if cid not in retained) / base
    return ChurnCell(series.query_id, scheme.attribute_name, label, k, start_day, end_day, churn, base)


def churn_grid(
    series: QuerySeries,
    scheme: GroupScheme,
    k_grid: Sequence[int],
    day_pairs: Iterable[Sequence[int]],
    labels: Iterable[str] | None = None,
) -> list[ChurnCell]:
    """Churn cells over labels x day pairs x cutoffs for one query.

    The same cells as element-wise :func:`churn_rate`, read from one scan
    per day pair; a missing day or an out-of-range cutoff yields an
    undefined cell rather than aborting the sweep.  Cells come out sorted by
    (label order, day pair, k).
    """
    grid = list(k_grid)
    if not grid:
        return []
    labels = list(scheme.labels if labels is None else labels)
    pairs = [(start_day, end_day) for start_day, end_day in day_pairs]
    for label in labels:
        for start_day, end_day in pairs:
            _check_cell(scheme, label, start_day, end_day)
    scans = {pair: _scan(series, scheme, *pair) for pair in dict.fromkeys(pairs)}
    # The cells' fields but the shared query id and attribute, one column each.
    labels_of, ks, starts, ends, churns, bases = [], [], [], [], [], []
    for label in labels:
        for start_day, end_day in pairs:
            n, base_of, retained_of = scans[start_day, end_day]
            base, retained = base_of[label], retained_of[label]
            # A cutoff outside 1..n, or with no member, has base 0.
            counts = [base[k] if 0 < k <= n else 0 for k in grid]
            labels_of += repeat(label, len(grid))
            ks += grid
            starts += repeat(start_day, len(grid))
            ends += repeat(end_day, len(grid))
            churns += [(b - retained[k]) / b if b else None for k, b in zip(grid, counts)]
            bases += counts
    # The labels are the scheme's and the days ordered, as checked above.
    return _unchecked(ChurnCell, len(ks), repeat(series.query_id), repeat(scheme.attribute_name),
                      labels_of, ks, starts, ends, churns, bases)


def consecutive_pairs(series: QuerySeries) -> list[tuple[int, int]]:
    """Adjacent-day pairs present in the series, for example (1,2),(2,3),..."""
    days = series.days
    return [(days[i], days[i + 1]) for i in range(len(days) - 1)]


def anchored_pairs(series: QuerySeries) -> list[tuple[int, int]]:
    """Pairs from the first observed day to every later day."""
    days = series.days
    return [(days[0], d) for d in days[1:]]


def mean_churn_by_gap(cells: Iterable[ChurnCell]) -> dict[tuple[str, int, int], float]:
    """Average defined churn over same-distance day pairs.

    Keyed by (label, k, end_day - start_day); pools all queries present in
    ``cells``.  Pairs whose churn is undefined are left out of the average.
    """
    return mean_churn_by(((c.label, c.k, c.end_day - c.start_day), c.churn) for c in cells)


def mean_churn_by(pairs: Iterable[tuple[Hashable, float | None]]) -> dict:
    """Mean of the defined values sharing each key of the (key, value)
    ``pairs``, summed in pair order; keys with no defined value are absent."""
    sums: dict = {}
    counts: dict = {}
    for group, value in pairs:
        if value is None:
            continue
        sums[group] = sums.get(group, 0.0) + value
        counts[group] = counts.get(group, 0) + 1
    return {group: sums[group] / counts[group] for group in sums}


def _scan(
    series: QuerySeries, scheme: GroupScheme, start_day: int, end_day: int
) -> tuple[int, dict[str, list[int]], dict[str, list[int]]]:
    """(n, base, retained) of one day pair, for ``k`` up to the shorter
    list of ``n``: ``base[label][k]`` counts the label's members in the
    day-s top ``k`` and ``retained[label][k]`` those of them also in the
    day-e top ``k``.  A missing day reads as an empty list, so ``n`` is 0."""
    snapshots = series.snapshots
    both = start_day in snapshots and end_day in snapshots
    start = snapshots[start_day].entries if both else ()
    end = snapshots[end_day].entries if both else ()
    n = min(len(start), len(end))
    # Entries past the shorter list fall in no defined cutoff.
    head = start[:n]
    codes = label_codes([r.label_for(scheme) for r in head], scheme)
    position = {r.candidate_id: p for p, r in enumerate(end)}
    # hits[code][k]: members whose smallest cutoff holding them on both
    # days is k; a member at or past position n on day e, or gone, has
    # no such cutoff and is never retained.
    hits = [[0] * (n + 1) for _ in scheme.labels]
    for i, (code, record) in enumerate(zip(codes, head)):
        if code >= 0:
            first_k = max(i, position.get(record.candidate_id, n)) + 1
            if first_k <= n:
                hits[code][first_k] += 1
    base = prefix_table(codes, len(scheme.labels))
    retained = [list(accumulate(row)) for row in hits]
    return n, dict(zip(scheme.labels, base)), dict(zip(scheme.labels, retained))


def _check_cell(scheme: GroupScheme, label: str, start_day: int, end_day: int) -> None:
    if label not in scheme.labels:
        raise UnknownLabel(f"label {label!r} not in scheme {scheme.attribute_name!r}")
    if start_day >= end_day:
        raise ValueError(f"start day {start_day} must precede end day {end_day}")


def _snapshot_for(series: QuerySeries, day: int) -> RankingSnapshot:
    snap = series.snapshots.get(day)
    if snap is None:
        raise DayMissing(f"series {series.query_id!r} has no day {day}")
    return snap

