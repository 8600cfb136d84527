"""Per-cutoff exposure metrics for one ranking snapshot.

All metrics compare the group composition of the top-k prefix against a
target proportion vector.  Shares are computed over *labeled* candidates
only: hidden or unresolved entries occupy rank positions but enter neither
numerator nor denominator.

Sign conventions:

* deviation at k  =  target share - observed share (positive = the group is
  under-represented in the prefix),
* skew at k       =  ln(observed share / target share), -inf when the group
  is absent from a non-empty labeled prefix,
* MinSkew at k    =  min over groups of skew; never positive.

Point operations raise typed errors on unusable inputs; curve builders mark
those cells undefined (``None``) and keep going.  A curve builder's
``counts`` keyword takes the snapshot's prefix counts
(:func:`~rankaudit.model.snapshot_counts`) when the caller already built
them, so several curves of one snapshot share one table, and the share
and skew rows kept on it.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import (
    CutoffOutOfRange,
    DegenerateProportion,
    EmptyLabeledPrefix,
    UnknownLabel,
    ZeroTargetProportion,
)
from .model import (
    GroupProportions,
    GroupScheme,
    PrefixCounts,
    RankingSnapshot,
    Record,
    check_cutoff,
    snapshot_counts,
)

DEVIATION = "deviation"
SKEW = "skew"
MINSKEW = "minskew"
CORRECTED_SKEW = "corrected_skew"

DEFAULT_PAGE_SIZE = 25


class TopKCounts(Record):
    """Group tallies over the top-k prefix of one snapshot."""

    __slots__ = _fields = ("k", "counts", "labeled_total")

    def __init__(self, k: int, counts: Mapping[str, int], labeled_total: int) -> None:
        self._set(k, counts, labeled_total)


class MetricCurve(Record):
    """One metric traced over a cutoff grid for one query-day.

    ``values`` maps cutoff k to the metric value; ``None`` marks an undefined
    cell (cutoff beyond the list, or no labeled candidates in the prefix) and
    ``-inf`` is a legitimate skew value.  ``label`` is ``None`` for metrics
    that aggregate over groups (MinSkew).
    """

    __slots__ = _fields = ("query_id", "day", "attribute", "label", "metric", "values")

    def __init__(
        self, query_id: str, day: int, attribute: str, label: str | None, metric: str,
        values: Mapping[int, float | None],
    ) -> None:
        self._set(query_id, day, attribute, label, metric, values)

    def defined(self) -> dict[int, float]:
        return {k: v for k, v in self.values.items() if v is not None}


def page_cutoffs(limit: int, page_size: int = DEFAULT_PAGE_SIZE) -> tuple[int, ...]:
    """Page-boundary cutoffs (page_size, 2*page_size, ...) up to ``limit``."""
    if page_size < 1:
        raise ValueError("page_size must be >= 1")
    return tuple(range(page_size, limit + 1, page_size))


def topk_counts(snapshot: RankingSnapshot, scheme: GroupScheme, k: int) -> TopKCounts:
    """Tally group labels over the top-k prefix.

    Raises :class:`CutoffOutOfRange` unless ``1 <= k <= len(entries)``.
    """
    check_cutoff(snapshot, k)
    table = snapshot_counts(snapshot, scheme)
    return TopKCounts(k=k, counts=table.tally(k), labeled_total=table.labeled[k])


def deviation_at_k(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    label: str,
    k: int,
) -> float:
    """Target share minus observed labeled share of ``label`` in the top k."""
    check_cutoff(snapshot, k)
    return _point(deviation_curve(snapshot, scheme, proportions, label, [k]), snapshot, k)


def skew_at_k(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    label: str,
    k: int,
) -> float:
    """Log ratio of observed to target share for ``label`` in the top k.

    Returns ``-inf`` when the group is absent from a non-empty labeled
    prefix.  Raises :class:`ZeroTargetProportion` when the target share is
    not strictly positive and :class:`EmptyLabeledPrefix` when no labeled
    candidate sits above the cutoff.
    """
    check_cutoff(snapshot, k)
    return _point(skew_curve(snapshot, scheme, proportions, label, [k]), snapshot, k)


def min_skew_at_k(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    k: int,
) -> float:
    """Minimum skew over all labels of the scheme; at most zero."""
    check_cutoff(snapshot, k)
    return _point(minskew_curve(snapshot, scheme, proportions, [k]), snapshot, k)


def best_attainable_skew(p_star: float, k: int) -> float:
    """Smallest skew magnitude any length-k prefix can realize.

    Non-integral ``k * p_star`` forces every prefix share off target; the
    nearest attainable shares are ``floor(k p*) / k`` and ``ceil(k p*) / k``.
    The floor branch is excluded when the floor count is zero (its skew is
    infinite).  Zero when ``k * p_star`` is an integer.
    """
    if not 0.0 < p_star < 1.0:
        raise DegenerateProportion(f"target proportion must be inside (0, 1), got {p_star!r}")
    if k < 1:
        raise CutoffOutOfRange(f"cutoff must be >= 1, got {k}")
    return _attainable_floors(p_star, (k,))[0]


def _attainable_floors(p_star: float, ks: Iterable[int]) -> list[float]:
    """:func:`best_attainable_skew` of each ``k`` of ``ks``, for a
    ``p_star`` inside (0, 1) and cutoffs of at least 1, already checked."""
    floor, ceil, log = math.floor, math.ceil, math.log
    floors = []
    for k in ks:
        lo, hi = floor(k * p_star), ceil(k * p_star)
        if lo == hi:
            floors.append(0.0)
            continue
        up = abs(log((hi / k) / p_star))
        floors.append(up if lo == 0 else min(abs(log((lo / k) / p_star)), up))
    return floors


def corrected_skew(observed: float | None, p_star: float, k: int) -> float | None:
    """Observed skew with the unattainability floor removed.

    Shrinks the magnitude by :func:`best_attainable_skew` while keeping the
    sign, so a prefix that is as close to target as integer counts allow
    scores zero.  ``None`` and ``-inf`` pass through unchanged.
    """
    if observed is None:
        return None
    if observed == -math.inf:
        return -math.inf
    floor_term = best_attainable_skew(p_star, k)
    if observed == 0.0:
        return 0.0
    sign = 1.0 if observed > 0.0 else -1.0
    return sign * (abs(observed) - floor_term)


def deviation_curve(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    label: str,
    k_grid: Sequence[int] | None = None,
    *,
    counts: PrefixCounts | None = None,
) -> MetricCurve:
    """Deviation traced over ``k_grid`` (default: every cutoff 1..n)."""
    _check_label(scheme, label)
    target = _target(proportions, label)
    table = counts if counts is not None else snapshot_counts(snapshot, scheme)
    grid = _grid(snapshot, k_grid)
    values = [None if share is None else target - share for share in _share_row(table, label, grid)]
    return _curve(snapshot, scheme, label, DEVIATION, grid, values)


def skew_curve(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    label: str,
    k_grid: Sequence[int] | None = None,
    *,
    counts: PrefixCounts | None = None,
) -> MetricCurve:
    """Skew traced over ``k_grid`` (default: every cutoff 1..n)."""
    _check_label(scheme, label)
    target = _positive_target(proportions, label)
    table = counts if counts is not None else snapshot_counts(snapshot, scheme)
    grid = _grid(snapshot, k_grid)
    return _curve(snapshot, scheme, label, SKEW, grid, _skew_row(table, label, target, grid))


def minskew_curve(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    k_grid: Sequence[int] | None = None,
    *,
    counts: PrefixCounts | None = None,
) -> MetricCurve:
    """MinSkew traced over ``k_grid`` (default: every cutoff 1..n)."""
    targets = {label: _positive_target(proportions, label) for label in scheme.labels}
    table = counts if counts is not None else snapshot_counts(snapshot, scheme)
    grid = _grid(snapshot, k_grid)
    rows = [_skew_row(table, label, targets[label], grid) for label in scheme.labels]
    values = [None if None in skews else min(skews) for skews in zip(*rows)]
    return _curve(snapshot, scheme, None, MINSKEW, grid, values)


def corrected_skew_curve(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    proportions: GroupProportions,
    label: str,
    k_grid: Sequence[int] | None = None,
    *,
    counts: PrefixCounts | None = None,
) -> MetricCurve:
    """Integrality-corrected skew traced over ``k_grid``."""
    _check_label(scheme, label)
    target = _positive_target(proportions, label)
    if not target < 1.0:
        raise DegenerateProportion(f"target proportion must be inside (0, 1), got {target!r}")
    table = counts if counts is not None else snapshot_counts(snapshot, scheme)
    grid = _grid(snapshot, k_grid)
    skews = _skew_row(table, label, target, grid)
    # corrected_skew of each cell: a finite skew other than zero, whose
    # cutoff has 1 <= k <= n, shrinks by its floor and keeps its sign.
    minus_inf = -math.inf
    shifted = [skew is not None and skew != minus_inf and skew != 0.0 for skew in skews]
    floors = iter(_attainable_floors(target, compress(grid, shifted)))
    values = [
        (1.0 if skew > 0.0 else -1.0) * (abs(skew) - next(floors)) if shift else skew
        for skew, shift in zip(skews, shifted)
    ]
    return _curve(snapshot, scheme, label, CORRECTED_SKEW, grid, values)


def _share_row(table: PrefixCounts, label: str, grid: tuple[int, ...]) -> list[float | None]:
    """``table.share_row(label, grid)``, computed once per table."""
    key = ("share", label, grid)
    row = table.rows.get(key)
    if row is None:
        row = table.rows[key] = table.share_row(label, grid)
    return row


def _skew_row(table: PrefixCounts, label: str, target: float, grid: tuple[int, ...]) -> list[float | None]:
    """The skew of ``label`` against ``target`` at each cutoff of
    ``grid``, computed once per table."""
    key = (SKEW, label, target, grid)
    row = table.rows.get(key)
    if row is None:
        log, minus_inf = math.log, -math.inf
        row = table.rows[key] = [
            None if share is None else minus_inf if share == 0.0 else log(share / target)
            for share in _share_row(table, label, grid)
        ]
    return row


def _point(curve: MetricCurve, snapshot: RankingSnapshot, k: int) -> float:
    """The cell of a one-cutoff curve at a cutoff already checked: it is
    undefined only when no labeled candidate sits above the cutoff."""
    value = curve.values[k]
    if value is None:
        raise EmptyLabeledPrefix(f"no labeled candidates in top {k} of {snapshot.query_id!r} day {snapshot.day}")
    return value


def _curve(snapshot, scheme, label, metric, grid, values):
    return MetricCurve(
        query_id=snapshot.query_id,
        day=snapshot.day,
        attribute=scheme.attribute_name,
        label=label,
        metric=metric,
        values=dict(zip(grid, values)),
    )


def _grid(snapshot: RankingSnapshot, k_grid: Sequence[int] | None) -> tuple[int, ...]:
    if k_grid is None:
        return tuple(range(1, len(snapshot.entries) + 1))
    return tuple(map(int, k_grid))


def _check_label(scheme: GroupScheme, label: str) -> None:
    if label not in scheme.labels:
        raise UnknownLabel(f"label {label!r} not in scheme {scheme.attribute_name!r}")


def _target(proportions: GroupProportions, label: str) -> float:
    """The target share of ``label``; :class:`UnknownLabel` when it is not
    a label of the proportions' scheme."""
    _check_label(proportions.scheme, label)
    return proportions.shares[label]


def _positive_target(proportions: GroupProportions, label: str) -> float:
    target = _target(proportions, label)
    if target <= 0.0:
        raise ZeroTargetProportion(f"target share for {label!r} must be positive, got {target!r}")
    return target
