"""Core domain types for ranked-list audits.

A dataset is a collection of query series; each series holds one ranking
snapshot per day; each snapshot is an ordered list of candidate records.
Candidates hidden by the data source ("missing") still occupy their rank
position but expose no name and no group labels.

Each frozen record type with slots (:class:`CandidateRecord`,
:class:`RankingSnapshot`, ``churn.ChurnCell`` and
``detgreedy.ScoredCandidate``) has one public constructor, which checks
every field, and one unchecked batch builder, :func:`_unchecked`, which
checks none.  Only the package's own hot paths call the builder, and only
with fields they have checked or generated valid themselves: the snapshot
loader (:mod:`.loader`), the pool reader (:mod:`.readers`), the labeler,
the simulator and the churn grid.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from itertools import accumulate, repeat
from typing import Iterable, Mapping, Sequence

from .errors import CutoffOutOfRange, EmptyLabeledPool

OBSERVED_POOL = "observed_pool"
EXTERNAL_BASELINE = "external_baseline"

_SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GroupScheme:
    """A protected attribute and its closed set of group labels.

    ``labels`` fixes the canonical label order used for deterministic
    tie-breaking and for column order in tabular output.  ``unknown_label``
    marks candidates whose group could not be resolved; it is never a member
    of ``labels``.  All three are strings, and ``labels`` is a sequence of
    them, not one string (``TypeError`` otherwise), kept as a tuple.
    """

    attribute_name: str
    labels: tuple[str, ...]
    unknown_label: str = "unknown"

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            # Label tests would match the string's substrings.
            raise TypeError(f"labels must be a sequence of strings, not the string {self.labels!r}")
        # Kept as a tuple whatever sequence was given: the scheme hashes,
        # and its labels cannot change after the checks below.
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.attribute_name:
            raise ValueError("attribute_name must be non-empty")
        if len(self.labels) < 2:
            raise ValueError("a scheme needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if any(not lbl for lbl in self.labels):
            raise ValueError("labels must be non-empty strings")
        if self.unknown_label in self.labels:
            raise ValueError("unknown_label must not collide with a group label")
        for value in (self.attribute_name, *self.labels, self.unknown_label):
            if not isinstance(value, str):
                raise TypeError(f"attribute_name, labels and unknown_label must be strings, got {value!r}")


@dataclass(frozen=True, slots=True)
class CandidateRecord:
    """One candidate occurrence inside a ranking snapshot.

    ``group_labels`` maps attribute name to the candidate's label under that
    attribute; an absent attribute reads as the scheme's unknown label.
    Missing candidates carry no names and no labels at all.  The id, the
    names that are not ``None`` and the labels' attributes and values are
    strings (a subclass such as ``numpy.str_`` counts) and ``missing`` is a
    ``bool``, the types the snapshot loader reads back; any other type
    raises ``TypeError``.  It keeps a copy of ``group_labels``.
    """

    candidate_id: str
    first_name: str | None = None
    last_name: str | None = None
    group_labels: Mapping[str, str] = field(default_factory=dict)
    missing: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_labels", dict(self.group_labels.items()))
        if not self.candidate_id:
            raise ValueError("candidate_id must be non-empty")
        if self.missing:
            if self.first_name is not None or self.last_name is not None:
                raise ValueError("missing candidates cannot expose names")
            if self.group_labels:
                raise ValueError("missing candidates cannot expose group labels")
        if not isinstance(self.candidate_id, str):
            raise TypeError(f"candidate_id must be a string, got {self.candidate_id!r}")
        for name, value in (("first_name", self.first_name), ("last_name", self.last_name)):
            if value is not None and not isinstance(value, str):
                raise TypeError(f"{name} must be a string or None, got {value!r}")
        if not all(isinstance(text, str) for item in self.group_labels.items() for text in item):
            raise TypeError(f"group_labels must map strings to strings, got {dict(self.group_labels)!r}")
        if type(self.missing) is not bool:
            raise TypeError(f"missing must be a bool, got {self.missing!r}")

    def label_for(self, scheme: GroupScheme) -> str:
        """Label of this candidate under ``scheme``, unknown when unresolved."""
        if self.missing:
            return scheme.unknown_label
        return self.group_labels.get(scheme.attribute_name, scheme.unknown_label)

    def is_labeled(self, scheme: GroupScheme) -> bool:
        """True when the candidate carries one of the scheme's group labels."""
        return self.label_for(scheme) in scheme.labels


@dataclass(frozen=True, slots=True)
class RankingSnapshot:
    """An ordered candidate list for one query on one day.

    ``entries`` is rank order: ``entries[0]`` is rank 1.  ``query_id`` is a
    string and ``day`` an ``int`` other than a ``bool`` (``TypeError``
    otherwise).
    """

    query_id: str
    day: int
    entries: tuple[CandidateRecord, ...]

    def __post_init__(self) -> None:
        if not self.query_id:
            raise ValueError("query_id must be non-empty")
        if self.day < 1:
            raise ValueError("day must be >= 1")
        if not isinstance(self.query_id, str):
            raise TypeError(f"query_id must be a string, got {self.query_id!r}")
        if not isinstance(self.day, int) or isinstance(self.day, bool):
            raise TypeError(f"day must be an int, got {self.day!r}")
        ids = [e.candidate_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate candidate_id in snapshot {self.query_id!r} day {self.day}")

    @property
    def missing_count(self) -> int:
        return sum(1 for e in self.entries if e.missing)

    @property
    def missing_rate(self) -> float:
        """Fraction of list positions occupied by hidden candidates."""
        if not self.entries:
            return 0.0
        return self.missing_count / len(self.entries)


def _unchecked(cls: type, count: int, *columns: Iterable) -> list:
    """``count`` instances of the frozen slots dataclass ``cls``, the i-th
    built from the i-th value of each column, one column per field in field
    order; a column may run longer than ``count`` (``itertools.repeat`` for
    a field all instances share), never shorter.  No ``__init__`` or
    ``__post_init__`` runs, so the caller vouches for every value.  A
    number of columns other than the number of fields raises
    ``ValueError``."""
    instances = list(map(object.__new__, repeat(cls, count)))
    for one, column in zip(fields(cls), columns, strict=True):
        # The slot descriptor's ``__set__`` writes past the frozen
        # ``__setattr__``; a zero-length deque runs it without keeping results.
        deque(map(getattr(cls, one.name).__set__, instances, column), maxlen=0)
    return instances


def check_cutoff(snapshot: RankingSnapshot, k: int) -> None:
    """Raise :class:`CutoffOutOfRange` unless ``1 <= k <= len(snapshot.entries)``."""
    if k < 1 or k > len(snapshot.entries):
        raise CutoffOutOfRange(
            f"cutoff {k} outside 1..{len(snapshot.entries)} for {snapshot.query_id!r} day {snapshot.day}"
        )


@dataclass(frozen=True)
class QuerySeries:
    """All snapshots collected for one query, keyed by day."""

    query_id: str
    snapshots: Mapping[int, RankingSnapshot]

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("a series needs at least one snapshot")
        for day, snap in self.snapshots.items():
            if snap.day != day:
                raise ValueError(f"snapshot day {snap.day} filed under key {day}")
            if snap.query_id != self.query_id:
                raise ValueError(f"snapshot for {snap.query_id!r} filed under series {self.query_id!r}")

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(sorted(self.snapshots))

    @property
    def first_day(self) -> int:
        return min(self.snapshots)


@dataclass(frozen=True)
class GroupProportions:
    """Target (or observed) group shares for one scheme.

    ``shares`` covers every label of the scheme exactly, sums to one, and is
    either measured from a candidate pool (``source = "observed_pool"``,
    ``denominator`` = number of labeled candidates) or supplied externally
    (``source = "external_baseline"``, ``denominator 0``).
    """

    scheme: GroupScheme
    shares: Mapping[str, float]
    source: str = OBSERVED_POOL
    denominator: int = 0

    def __post_init__(self) -> None:
        if self.source not in (OBSERVED_POOL, EXTERNAL_BASELINE):
            raise ValueError(f"unrecognized proportions source {self.source!r}")
        if set(self.shares) != set(self.scheme.labels):
            raise ValueError("shares must cover the scheme labels exactly")
        if not all(s >= 0.0 for s in self.shares.values()):
            raise ValueError("shares must be non-negative numbers")
        total = sum(self.shares.values())
        if abs(total - 1.0) > _SHARE_SUM_TOL:
            raise ValueError(f"shares sum to {total!r}, expected 1")
        if self.denominator < 0:
            raise ValueError("denominator must be non-negative")


def prefix_table(codes: Sequence[int], n_labels: int) -> list[list[int]]:
    """Cumulative group counts of a ranked code sequence, one pass per label.

    ``codes`` holds one label index per position (-1 for missing or unknown
    entries); row ``i``, column ``k`` of the ``n_labels x (n + 1)`` result is
    how many of the first ``k`` positions carry code ``i``.
    """
    return [list(accumulate(map(code.__eq__, codes), initial=0)) for code in range(n_labels)]


class PrefixCounts:
    """Per-group counts for every prefix of one ranked label sequence.

    ``counts[label][k]`` is how many of the first ``k`` positions carry
    ``label`` and ``labeled[k]`` how many carry any of the labels, read from
    one :func:`prefix_table`.  Cells are plain ints, so shares divide exactly
    as a loop over the entries would.  ``rows`` keeps the rows that
    :mod:`.exposure`'s curve builders derive from the table, keyed by what
    each depends on, so the curves of one snapshot compute each row once.
    """

    __slots__ = ("counts", "labeled", "n", "rows")

    def __init__(self, codes: Sequence[int], labels: Sequence[str]) -> None:
        self.n = len(codes)
        self.counts = dict(zip(labels, prefix_table(codes, len(labels))))
        self.labeled = list(accumulate(map((0).__le__, codes), initial=0))
        self.rows: dict[tuple, list] = {}

    def tally(self, k: int) -> dict[str, int]:
        """Per-label counts over the first ``k`` positions."""
        return {label: counts[k] for label, counts in self.counts.items()}

    def share(self, label: str, k: int) -> float | None:
        """Labeled share of ``label`` in the first ``k``; None when undefined."""
        return self.share_row(label, (k,))[0]

    def share_row(self, label: str, grid: Iterable[int]) -> list[float | None]:
        """The labeled share of ``label`` in the first ``k`` for each ``k`` of
        ``grid``, in order: None unless ``1 <= k <= n`` and some entry of
        the prefix is labeled."""
        counts, labeled, n = self.counts[label], self.labeled, self.n
        return [counts[k] / labeled[k] if 0 < k <= n and labeled[k] else None for k in grid]

    def proportions(self, scheme: GroupScheme, k: int | None = None) -> GroupProportions:
        """Observed shares among the labeled entries of the first ``k`` (all by
        default); raises :class:`EmptyLabeledPool` when there are none."""
        k = self.n if k is None else k
        labeled = self.labeled[k]
        if labeled == 0:
            raise EmptyLabeledPool(f"no labeled candidates for {scheme.attribute_name!r} in the first {k} entries")
        shares = {label: self.counts[label][k] / labeled for label in scheme.labels}
        return GroupProportions(scheme=scheme, shares=shares, source=OBSERVED_POOL, denominator=labeled)


def label_codes(labels: Iterable[str], scheme: GroupScheme) -> list[int]:
    """Label codes for :class:`PrefixCounts`: the index of each label in
    ``scheme.labels``, -1 for anything outside the scheme."""
    index = {label: code for code, label in enumerate(scheme.labels)}
    return [index.get(label, -1) for label in labels]


def snapshot_counts(snapshot: RankingSnapshot, scheme: GroupScheme) -> PrefixCounts:
    """Prefix counts of ``snapshot`` under ``scheme``."""
    codes = label_codes([record.label_for(scheme) for record in snapshot.entries], scheme)
    return PrefixCounts(codes, scheme.labels)


def observed_proportions(
    snapshot: RankingSnapshot,
    scheme: GroupScheme,
    max_rank: int | None = None,
    *,
    counts: PrefixCounts | None = None,
) -> GroupProportions:
    """Group shares among labeled candidates in the top ``max_rank`` positions.

    Missing and unknown-labeled candidates are excluded from both numerator
    and denominator.  ``max_rank`` of ``None`` (or beyond the list) uses the
    whole list.  Raises :class:`CutoffOutOfRange` for a negative ``max_rank``
    and :class:`EmptyLabeledPool` when no labeled candidate falls inside the
    window.  ``counts`` passes in the snapshot's :func:`snapshot_counts` when
    the caller already has them.
    """
    if max_rank is not None and max_rank < 0:
        raise CutoffOutOfRange(f"max_rank must be >= 0, got {max_rank}")
    window = len(snapshot.entries) if max_rank is None else min(max_rank, len(snapshot.entries))
    table = counts if counts is not None else snapshot_counts(snapshot, scheme)
    if table.labeled[window] == 0:
        raise EmptyLabeledPool(
            f"no labeled candidates for {scheme.attribute_name!r} in "
            f"{snapshot.query_id!r} day {snapshot.day} (window {window})"
        )
    return table.proportions(scheme, window)
