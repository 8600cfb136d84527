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
group exhausted, the produced ranking satisfies every prefix constraint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyPool, LabelWithoutProportion
from .model import GroupProportions, prefix_table


@dataclass(frozen=True)
class ScoredCandidate:
    """Pool entry for re-ranking: id, group label, relevance score."""

    candidate_id: str
    label: str
    score: float

    def __post_init__(self) -> None:
        if not self.candidate_id:
            raise ValueError("candidate_id must be non-empty")
        if not self.label:
            raise ValueError("label must be non-empty")
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score!r}")


@dataclass(frozen=True)
class RerankResult:
    """Re-ranked candidate ids plus the prefix-constraint audit of the output."""

    order: tuple[str, ...]
    feasible: bool
    violation_positions: tuple[tuple[int, str], ...]


def detgreedy_rerank(pool: Sequence[ScoredCandidate], proportions: GroupProportions) -> RerankResult:
    """Re-rank ``pool`` so every prefix tracks ``proportions`` as closely as
    integer counts allow.

    Within a group, candidates always appear in descending score order
    (score ties broken by candidate id).  The returned result carries the
    full permutation plus any (position, label) constraint violations, which
    can only arise when some group's supply runs out.
    """
    if not pool:
        raise EmptyPool("cannot re-rank an empty pool")
    labels = proportions.scheme.labels
    label_index = {label: i for i, label in enumerate(labels)}
    seen: set[str] = set()
    for cand in pool:
        if cand.label not in label_index:
            raise LabelWithoutProportion(
                f"candidate {cand.candidate_id!r} has label {cand.label!r} with no target proportion"
            )
        if cand.candidate_id in seen:
            raise ValueError(f"duplicate candidate_id {cand.candidate_id!r} in pool")
        seen.add(cand.candidate_id)

    m = len(labels)
    queues: list[list[ScoredCandidate]] = [[] for _ in range(m)]
    for cand in pool:
        queues[label_index[cand.label]].append(cand)
    for queue in queues:
        queue.sort(key=lambda c: (-c.score, c.candidate_id))
    targets = [proportions.shares[label] for label in labels]

    heads = [queue[0].score if queue else 0.0 for queue in queues]
    nexts = [0] * m
    counts = [0] * m
    groups = range(m)
    active = [i for i in groups if queues[i]]
    order: list[str] = []
    violations: list[tuple[int, str]] = []

    for k in range(1, len(pool) + 1):
        pick = -1
        # pass 1: largest floor deficit, ties by head score then label order
        best_deficit = 0
        best_score = -math.inf
        for i in active:
            x = targets[i] * k
            deficit = int(x) - counts[i]
            if deficit > best_deficit or (deficit == best_deficit > 0 and heads[i] > best_score):
                best_deficit = deficit
                best_score = heads[i]
                pick = i
        if pick < 0:
            # pass 2: best head still below its ceiling
            best_score = -math.inf
            for i in active:
                x = targets[i] * k
                fl = int(x)
                ceiling = fl + (fl < x)
                if counts[i] < ceiling and heads[i] > best_score:
                    best_score = heads[i]
                    pick = i
            if pick < 0:
                # pass 3: every remaining group at/over ceiling; overflow knowingly
                for i in active:
                    if heads[i] > best_score:
                        best_score = heads[i]
                        pick = i
        queue = queues[pick]
        order.append(queue[nexts[pick]].candidate_id)
        counts[pick] += 1
        nexts[pick] += 1
        if nexts[pick] == len(queue):
            active.remove(pick)
            heads[pick] = -math.inf
        else:
            heads[pick] = queue[nexts[pick]].score
        # The prefix constraints at k, tested as in _violations_by_index.
        for i in groups:
            count = counts[i]
            if not count - 1 < targets[i] * k < count + 1:
                violations.append((k, labels[i]))

    return RerankResult(order=tuple(order), feasible=not violations, violation_positions=tuple(violations))


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
    label_index = {label: i for i, label in enumerate(labels)}
    indexed: list[int] = []
    for lbl in order:
        if lbl not in label_index:
            raise LabelWithoutProportion(f"ranked label {lbl!r} has no target proportion")
        indexed.append(label_index[lbl])
    targets = [proportions.shares[label] for label in labels]
    return _violations_by_index(indexed, targets, labels)


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
