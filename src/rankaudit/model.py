"""Core domain types for ranked-list audits.

A dataset is a collection of query series; each series holds one ranking
snapshot per day; each snapshot is an ordered list of candidate records.
Candidates hidden by the data source ("missing") still occupy their rank
position but expose no name and no group labels.

Every record type of the package, here and in the layer modules, derives
from :class:`Record`: a frozen slotted class whose fields are its
``_fields``.  Each has one public constructor, which checks every field,
and :func:`replace` builds changed copies through it.  The unchecked batch
builder :func:`_unchecked` checks none.  Only the package's own hot paths
call the builder, and only with fields they have checked or generated
valid themselves: the snapshot loader (:mod:`.loader`), the pool reader
(:mod:`.readers`), the labeler, the simulator and the churn grid.
"""
from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import CutoffOutOfRange, EmptyLabeledPool

OBSERVED_POOL = "observed_pool"
EXTERNAL_BASELINE = "external_baseline"

_SHARE_SUM_TOL = 1e-9


class Record:
    """Base of every frozen record type of the package.

    A record type lists its fields once, as ``__slots__ = _fields = (...)``,
    and checks them in its own ``__init__``, which writes them with
    :meth:`_set`.  This base gives every record type what a frozen
    dataclass would: equality of the field tuples between records of one
    type, the hash of that tuple (``TypeError`` when a field does not
    hash), a ``Type(field=value, ...)`` repr, ``AttributeError`` on
    assignment and deletion, and pickling and ``copy`` of the fields as
    they are, with no check run.  :func:`replace` builds a changed copy
    through the public constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Write ``values`` to the fields in order, past the frozen ``__setattr__``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _restore, (self.__class__, *self._values())


def _restore(cls: type, *values: object) -> Record:
    """One ``cls`` with ``values`` in field order, unchecked: a pickled or
    copied record was checked when it was first built."""
    return _unchecked(cls, 1, *zip(values))[0]


def replace(record: Record, /, **changes: object) -> Record:
    """A copy of ``record`` with the fields named in ``changes`` changed,
    built by its type's public constructor, which checks every field."""
    for name in record._fields:
        changes.setdefault(name, getattr(record, name))
    return record.__class__(**changes)


# Stands for a fresh empty dict as a constructor default.
_NEW_DICT: Mapping = MappingProxyType({})


class GroupScheme(Record):
    """A protected attribute and its closed set of group labels.

    ``labels`` fixes the canonical label order used for deterministic
    tie-breaking and for column order in tabular output.  ``unknown_label``
    marks candidates whose group could not be resolved; it is never a member
    of ``labels``.  All three are strings, and ``labels`` is a sequence of
    them, not one string (``TypeError`` otherwise), kept as a tuple.
    """

    __slots__ = _fields = ("attribute_name", "labels", "unknown_label")

    def __init__(self, attribute_name: str, labels: Sequence[str], unknown_label: str = "unknown") -> None:
        if isinstance(labels, str):
            # Label tests would match the string's substrings.
            raise TypeError(f"labels must be a sequence of strings, not the string {labels!r}")
        # Kept as a tuple whatever sequence was given: the scheme hashes,
        # and its labels cannot change after the checks below.
        labels = tuple(labels)
        if not attribute_name:
            raise ValueError("attribute_name must be non-empty")
        if len(labels) < 2:
            raise ValueError("a scheme needs at least two labels")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if any(not lbl for lbl in labels):
            raise ValueError("labels must be non-empty strings")
        if unknown_label in labels:
            raise ValueError("unknown_label must not collide with a group label")
        for value in (attribute_name, *labels, unknown_label):
            if not isinstance(value, str):
                raise TypeError(f"attribute_name, labels and unknown_label must be strings, got {value!r}")
        self._set(attribute_name, labels, unknown_label)


class CandidateRecord(Record):
    """One candidate occurrence inside a ranking snapshot.

    ``group_labels`` maps attribute name to the candidate's label under that
    attribute; an absent attribute reads as the scheme's unknown label.
    Missing candidates carry no names and no labels at all.  The id, the
    names that are not ``None`` and the labels' attributes and values are
    strings (a subclass such as ``numpy.str_`` counts) and ``missing`` is a
    ``bool``, the types the snapshot loader reads back; any other type
    raises ``TypeError``.  It keeps a copy of ``group_labels``.
    """

    __slots__ = _fields = ("candidate_id", "first_name", "last_name", "group_labels", "missing")

    def __init__(
        self,
        candidate_id: str,
        first_name: str | None = None,
        last_name: str | None = None,
        group_labels: Mapping[str, str] = _NEW_DICT,
        missing: bool = False,
    ) -> None:
        group_labels = dict(group_labels.items())
        if not candidate_id:
            raise ValueError("candidate_id must be non-empty")
        if missing:
            if first_name is not None or last_name is not None:
                raise ValueError("missing candidates cannot expose names")
            if group_labels:
                raise ValueError("missing candidates cannot expose group labels")
        if not isinstance(candidate_id, str):
            raise TypeError(f"candidate_id must be a string, got {candidate_id!r}")
        for name, value in (("first_name", first_name), ("last_name", last_name)):
            if value is not None and not isinstance(value, str):
                raise TypeError(f"{name} must be a string or None, got {value!r}")
        if not all(isinstance(text, str) for item in group_labels.items() for text in item):
            raise TypeError(f"group_labels must map strings to strings, got {group_labels!r}")
        if type(missing) is not bool:
            raise TypeError(f"missing must be a bool, got {missing!r}")
        self._set(candidate_id, first_name, last_name, group_labels, missing)

    def label_for(self, scheme: GroupScheme) -> str:
        """Label of this candidate under ``scheme``, unknown when unresolved."""
        if self.missing:
            return scheme.unknown_label
        return self.group_labels.get(scheme.attribute_name, scheme.unknown_label)

    def is_labeled(self, scheme: GroupScheme) -> bool:
        """True when the candidate carries one of the scheme's group labels."""
        return self.label_for(scheme) in scheme.labels


class RankingSnapshot(Record):
    """An ordered candidate list for one query on one day.

    ``entries`` is rank order: ``entries[0]`` is rank 1.  ``query_id`` is a
    string and ``day`` an ``int`` other than a ``bool`` (``TypeError``
    otherwise).
    """

    __slots__ = _fields = ("query_id", "day", "entries")

    def __init__(self, query_id: str, day: int, entries: tuple[CandidateRecord, ...]) -> None:
        if not query_id:
            raise ValueError("query_id must be non-empty")
        if day < 1:
            raise ValueError("day must be >= 1")
        if not isinstance(query_id, str):
            raise TypeError(f"query_id must be a string, got {query_id!r}")
        if not isinstance(day, int) or isinstance(day, bool):
            raise TypeError(f"day must be an int, got {day!r}")
        ids = [e.candidate_id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate candidate_id in snapshot {query_id!r} day {day}")
        self._set(query_id, day, entries)

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
    """``count`` instances of the record type ``cls``, the i-th built from
    the i-th value of each column, one column per field of ``cls._fields``
    in order; a column may run longer than ``count`` (``itertools.repeat``
    for a field all instances share), never shorter.  No ``__init__`` runs,
    so the caller vouches for every value.  A number of columns other than
    the number of fields raises ``ValueError``."""
    instances = list(map(object.__new__, repeat(cls, count)))
    for name, column in zip(cls._fields, columns, strict=True):
        # The slot descriptor's ``__set__`` writes past the frozen
        # ``__setattr__``; a zero-length deque runs it without keeping results.
        deque(map(getattr(cls, name).__set__, instances, column), maxlen=0)
    return instances


def check_cutoff(snapshot: RankingSnapshot, k: int) -> None:
    """Raise :class:`CutoffOutOfRange` unless ``1 <= k <= len(snapshot.entries)``."""
    if k < 1 or k > len(snapshot.entries):
        raise CutoffOutOfRange(
            f"cutoff {k} outside 1..{len(snapshot.entries)} for {snapshot.query_id!r} day {snapshot.day}"
        )


class QuerySeries(Record):
    """All snapshots collected for one query, keyed by day."""

    __slots__ = _fields = ("query_id", "snapshots")

    def __init__(self, query_id: str, snapshots: Mapping[int, RankingSnapshot]) -> None:
        if not snapshots:
            raise ValueError("a series needs at least one snapshot")
        for day, snap in snapshots.items():
            if snap.day != day:
                raise ValueError(f"snapshot day {snap.day} filed under key {day}")
            if snap.query_id != query_id:
                raise ValueError(f"snapshot for {snap.query_id!r} filed under series {query_id!r}")
        self._set(query_id, snapshots)

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(sorted(self.snapshots))

    @property
    def first_day(self) -> int:
        return min(self.snapshots)


class GroupProportions(Record):
    """Target (or observed) group shares for one scheme.

    ``shares`` covers every label of the scheme exactly, sums to one, and is
    either measured from a candidate pool (``source = "observed_pool"``,
    ``denominator`` = number of labeled candidates) or supplied externally
    (``source = "external_baseline"``, ``denominator 0``).
    """

    __slots__ = _fields = ("scheme", "shares", "source", "denominator")

    def __init__(
        self, scheme: GroupScheme, shares: Mapping[str, float], source: str = OBSERVED_POOL, denominator: int = 0
    ) -> None:
        if source not in (OBSERVED_POOL, EXTERNAL_BASELINE):
            raise ValueError(f"unrecognized proportions source {source!r}")
        if set(shares) != set(scheme.labels):
            raise ValueError("shares must cover the scheme labels exactly")
        if not all(s >= 0.0 for s in shares.values()):
            raise ValueError("shares must be non-negative numbers")
        total = sum(shares.values())
        if abs(total - 1.0) > _SHARE_SUM_TOL:
            raise ValueError(f"shares sum to {total!r}, expected 1")
        if denominator < 0:
            raise ValueError("denominator must be non-negative")
        self._set(scheme, shares, source, denominator)


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
