"""DetGreedy: feasibility-constrained greedy re-ranking.

Every length-k prefix of a fair ranking should carry between floor(k * p_i)
and ceil(k * p_i) members of group i, where p_i is the group's target
proportion.  DetGreedy walks the positions in order and, at each one:

1. if any group with candidates left sits below its current floor, the group
   with the largest floor deficit is served (ties: higher head score, then
   scheme label order);
2. otherwise the highest-scoring head among groups still below their ceiling
   is placed (ties: scheme label order);
3. if every remaining group is at or above its ceiling (possible only when a
   group ran out of candidates), the highest-scoring head is placed anyway
   and the overflow shows up in the feasibility check.

Scores order candidates only within their own group and at the competing
heads; they are never summed or compared otherwise, so any order-preserving
rescaling leaves the output unchanged.  With at most three groups and no
group exhausted, the produced ranking satisfies every prefix constraint
(Geyik et al., KDD 2019, arXiv:1905.01989, prove this for DetGreedy only up
to three groups; with four, a prefix can break while every group still has
candidates).
"""
from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

from .errors import EmptyPool, LabelWithoutProportion
from .model import GroupProportions, Record, label_codes, prefix_table


class ScoredCandidate(Record):
    """Pool entry for re-ranking: id, group label, relevance score."""

    __slots__ = _fields = ("candidate_id", "label", "score")

    def __init__(self, candidate_id: str, label: str, score: float) -> None:
        if not candidate_id:
            raise ValueError("candidate_id must be non-empty")
        if not label:
            raise ValueError("label must be non-empty")
        if not math.isfinite(score):
            raise ValueError(f"score must be finite, got {score!r}")
        self._set(candidate_id, label, score)


# A hair below 1, so that a due position computed as ``(count + 1) * _EARLY /
# target`` is never later than the first k whose rounded ``target * k``
# reaches ``count + 1``.
_EARLY = 1.0 - 1e-9


class RerankResult(Record):
    """Re-ranked candidate ids plus the prefix-constraint audit of the output."""

    __slots__ = _fields = ("order", "feasible", "violation_positions")

    def __init__(
        self, order: tuple[str, ...], feasible: bool, violation_positions: tuple[tuple[int, str], ...]
    ) -> None:
        self._set(order, feasible, violation_positions)


def detgreedy_rerank(pool: Sequence[ScoredCandidate], proportions: GroupProportions) -> RerankResult:
    """Re-rank ``pool`` so every prefix tracks ``proportions`` as closely as
    integer counts allow.

    Within a group, candidates always appear in descending score order
    (score ties broken by candidate id).  The returned result carries the
    full permutation plus any (position, label) constraint violations.  As
    the module docstring says, none arises with at most three groups while
    every group still has candidates; with four or more, one can.
    """
    if not pool:
        raise EmptyPool("cannot re-rank an empty pool")
    labels = proportions.scheme.labels
    label_index = {label: i for i, label in enumerate(labels)}
    ids = {cand.candidate_id for cand in pool}
    if len(ids) != len(pool) or not {cand.label for cand in pool} <= label_index.keys():
        _raise_first_bad_candidate(pool, label_index)

    # Descending score, ties by id: the sort is stable, also with ``reverse``.
    ranked = sorted(pool, key=attrgetter("candidate_id"))
    ranked.sort(key=attrgetter("score"), reverse=True)
    targets = [proportions.shares[label] for label in labels]
    codes = [label_index[c.label] for c in ranked]
    picks = _walk(codes, [c.score for c in ranked], targets)
    violations = _violations_by_index([codes[p] for p in picks], targets, labels)
    return RerankResult(
        order=tuple([ranked[p].candidate_id for p in picks]),
        feasible=not violations,
        violation_positions=violations,
    )


def _walk(codes: Sequence[int], scores: Sequence[float], targets: Sequence[float]) -> list[int]:
    """DetGreedy over a pool already in (descending score, id) order, given
    as each entry's group index and score.  Returns the pool positions in
    ranked order."""
    m = len(targets)
    queues: list[list[int]] = [[] for _ in range(m)]
    for position, code in enumerate(codes):
        queues[code].append(position)

    heads = [scores[queue[0]] if queue else 0.0 for queue in queues]
    counts = [0] * m  # also the index of each group's next candidate
    active = [i for i in range(m) if queues[i]]
    order: list[int] = []
    # Group i reaches a positive floor deficit (target * k >= count + 1)
    # no earlier than position due[i]; before the first due position every
    # deficit is at most 0, so pass 1 is skipped.
    below = [_EARLY / t if t > 0.0 else math.inf for t in targets]
    due = below.copy()
    first_due = min(due)

    for k in range(1, len(codes) + 1):
        pick = -1
        best_score = -math.inf
        if k >= first_due:
            # pass 1: largest floor deficit, ties by head score then label order
            best_deficit = 0
            for i in active:
                if k >= due[i]:
                    deficit = int(targets[i] * k) - counts[i]
                    if deficit > best_deficit or (deficit == best_deficit > 0 and heads[i] > best_score):
                        best_deficit = deficit
                        best_score = heads[i]
                        pick = i
        if pick < 0:
            # pass 2: best head still below its ceiling (an int count is
            # below ceil(x) exactly when it is below x)
            for i in active:
                if counts[i] < targets[i] * k and heads[i] > best_score:
                    best_score = heads[i]
                    pick = i
            if pick < 0:
                # pass 3: every remaining group at/over ceiling; overflow knowingly
                for i in active:
                    if heads[i] > best_score:
                        best_score = heads[i]
                        pick = i
        queue = queues[pick]
        taken = counts[pick]
        order.append(queue[taken])
        counts[pick] = taken = taken + 1
        if taken == len(queue):
            active.remove(pick)
            heads[pick] = -math.inf
        else:
            heads[pick] = scores[queue[taken]]
        due[pick] = (taken + 1) * below[pick]
        first_due = min(due)

    return order


def _raise_first_bad_candidate(pool: Sequence[ScoredCandidate], label_index: dict[str, int]) -> None:
    """Raise for the first candidate, in pool order, whose label has no
    target or whose id repeats an earlier one."""
    seen: set[str] = set()
    for cand in pool:
        if cand.label not in label_index:
            raise LabelWithoutProportion(
                f"candidate {cand.candidate_id!r} has label {cand.label!r} with no target proportion"
            )
        if cand.candidate_id in seen:
            raise ValueError(f"duplicate candidate_id {cand.candidate_id!r} in pool")
        seen.add(cand.candidate_id)


def check_feasibility(
    order: Sequence[str],
    proportions: GroupProportions,
) -> tuple[tuple[int, str], ...]:
    """Prefix-constraint violations of a ranked label sequence.

    Returns every (k, label) where the top-k count of ``label`` falls outside
    [floor(k p), ceil(k p)], sorted by position then scheme label order.
    Empty means the ranking is feasible.
    """
    labels = proportions.scheme.labels
    indexed = label_codes(order, proportions.scheme)
    if -1 in indexed:
        raise LabelWithoutProportion(f"ranked label {order[indexed.index(-1)]!r} has no target proportion")
    return _violations_by_index(indexed, [proportions.shares[label] for label in labels], labels)


def _violations_by_index(
    indexed: Sequence[int],
    targets: Sequence[float],
    labels: Sequence[str],
) -> tuple[tuple[int, str], ...]:
    found = []
    for i, (target, counts) in enumerate(zip(targets, prefix_table(indexed, len(labels)))):
        # For an int count c and the float x = target * k, floor(x) <= c <=
        # ceil(x) holds exactly when c - 1 < x < c + 1; int-float comparisons
        # are exact, so this flags the same cells as floor and ceil would.
        found.extend((k, i) for k, count in enumerate(counts) if not count - 1 < target * k < count + 1)
    return tuple((k, labels[i]) for k, i in sorted(found))
