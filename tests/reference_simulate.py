"""Test-only reference: the simulator and DetGreedy loop as they were before
the plain-Python rewrite, kept so that hypothesis can compare the shipped
code against them on every config and pool shape.

The simulator converts each numpy draw element by element, re-creates a
checked ``ScoredCandidate`` for every candidate on every day, rebuilds its id
map on every re-rank and one record per snapshot entry.  DetGreedy validates
in one loop and scans every group's prefix bounds at every position.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from rankaudit import (
    EXTERNAL_BASELINE,
    CandidateRecord,
    EmptyPool,
    GroupProportions,
    GroupScheme,
    LabelWithoutProportion,
    QuerySeries,
    RankingSnapshot,
    RerankResult,
    ScoredCandidate,
)
from rankaudit.model import PrefixCounts
from rankaudit.simulate import POSTPROCESS_DETGREEDY, QueryTruth, SimConfig

_CORE_STREAM = 0
_MASK_STREAM = 1


def reference_rerank(pool: Sequence[ScoredCandidate], proportions: GroupProportions) -> RerankResult:
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
            best_score = -math.inf
            for i in active:
                x = targets[i] * k
                fl = int(x)
                ceiling = fl + (fl < x)
                if counts[i] < ceiling and heads[i] > best_score:
                    best_score = heads[i]
                    pick = i
            if pick < 0:
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
        for i in groups:
            count = counts[i]
            if not count - 1 < targets[i] * k < count + 1:
                violations.append((k, labels[i]))

    return RerankResult(order=tuple(order), feasible=not violations, violation_positions=tuple(violations))


def reference_generate_query(config: SimConfig, index: int) -> tuple[QuerySeries, QueryTruth]:
    rng = _substream(config.seed, index, _CORE_STREAM)
    mask_rng = _substream(config.seed, index, _MASK_STREAM)
    scheme = config.scheme
    labels = scheme.labels
    query_id = f"q{index:05d}"

    lo, hi = config.pool_size
    n = int(rng.integers(lo, hi + 1))
    base = np.array([config.group_weights[label] for label in labels])
    if config.weights_concentration is not None:
        weights = rng.dirichlet(config.weights_concentration * np.clip(base, 1e-12, None))
    else:
        weights = base
    means = np.array([config.score_models[label].mean for label in labels])
    spreads = np.array([config.score_models[label].spread for label in labels])

    group_idx = rng.choice(len(labels), size=n, p=weights)
    scores = _truncated_scores(rng, means[group_idx], spreads[group_idx])
    masked = mask_rng.random(n) < config.missing_prob

    serial = 0
    pool: list[_Candidate] = []
    truth_labels: dict[str, str] = {}
    truth_scores: dict[str, float] = {}
    for g, score, hide in zip(group_idx, scores, masked):
        cid = f"{query_id}-c{serial:06d}"
        serial += 1
        cand = _Candidate(cid, int(g), float(score), bool(hide))
        pool.append(cand)
        truth_labels[cid] = labels[int(g)]
        truth_scores[cid] = float(score)
    composition = PrefixCounts(group_idx.tolist(), labels).tally(n)

    departure = np.array([config.departure_probs.get(label, 0.0) for label in labels])
    snapshots: dict[int, RankingSnapshot] = {}
    departures: list[tuple[int, str]] = []
    order = _rank(pool, config, scheme, labels)
    snapshots[1] = _snapshot(query_id, 1, order, scheme, labels)

    for day in range(2, config.days + 1):
        u = rng.random(len(order))
        survivors = [cand for cand, draw in zip(order, u) if draw >= departure[cand.group]]
        departed = [cand for cand, draw in zip(order, u) if draw < departure[cand.group]]
        replacements: list[_Candidate] = []
        if departed:
            groups = np.array([cand.group for cand in departed])
            fresh = _truncated_scores(rng, means[groups], spreads[groups])
            hidden = mask_rng.random(len(departed)) < config.missing_prob
            for cand, score, hide in zip(departed, fresh, hidden):
                departures.append((day, cand.candidate_id))
                cid = f"{query_id}-c{serial:06d}"
                serial += 1
                newcomer = _Candidate(cid, cand.group, float(score), bool(hide))
                replacements.append(newcomer)
                truth_labels[cid] = labels[cand.group]
                truth_scores[cid] = float(score)
        order = _rank(survivors + replacements, config, scheme, labels)
        snapshots[day] = _snapshot(query_id, day, order, scheme, labels)

    series = QuerySeries(query_id=query_id, snapshots=snapshots)
    truth = QueryTruth(
        query_id=query_id,
        weights={label: float(w) for label, w in zip(labels, weights)},
        composition=composition,
        labels=truth_labels,
        scores=truth_scores,
        departures=tuple(departures),
    )
    return series, truth


@dataclass(frozen=True)
class _Candidate:
    candidate_id: str
    group: int
    score: float
    masked: bool


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _truncated_scores(rng: np.random.Generator, means: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    lo = ndtr((0.0 - means) / spreads)
    hi = ndtr((1.0 - means) / spreads)
    u = rng.random(means.shape[0])
    return np.clip(means + spreads * ndtri(lo + u * (hi - lo)), 0.0, 1.0)


def _rank(
    pool: Sequence[_Candidate],
    config: SimConfig,
    scheme: GroupScheme,
    labels: tuple[str, ...],
) -> list[_Candidate]:
    by_score = sorted(pool, key=lambda c: (-c.score, c.candidate_id))
    if config.postprocess != POSTPROCESS_DETGREEDY:
        return by_score
    if config.postprocess_targets is not None:
        proportions = GroupProportions(
            scheme=scheme,
            shares=dict(config.postprocess_targets),
            source=EXTERNAL_BASELINE,
        )
    else:
        proportions = PrefixCounts([cand.group for cand in pool], labels).proportions(scheme)
    scored = [ScoredCandidate(c.candidate_id, labels[c.group], c.score) for c in by_score]
    result = reference_rerank(scored, proportions)
    by_id = {c.candidate_id: c for c in pool}
    return [by_id[cid] for cid in result.order]


def _snapshot(
    query_id: str,
    day: int,
    order: Sequence[_Candidate],
    scheme: GroupScheme,
    labels: tuple[str, ...],
) -> RankingSnapshot:
    entries = []
    for cand in order:
        if cand.masked:
            entries.append(CandidateRecord(cand.candidate_id, missing=True))
        else:
            entries.append(CandidateRecord(cand.candidate_id, group_labels={scheme.attribute_name: labels[cand.group]}))
    return RankingSnapshot(query_id=query_id, day=day, entries=tuple(entries))
