"""Synthetic ranking datasets with known ground truth.

Generation mirrors a two-stage ranking system: a retrieval stage draws a
candidate pool from a group mix, a scoring stage assigns each candidate a
relevance score, and the ranking is descending score order (optionally
post-processed by DetGreedy).  Later days evolve the pool: each candidate
independently departs with its group's daily probability and is replaced by
a fresh same-group candidate, after which the list is re-ranked.
Missingness masks names and labels without touching ids or positions.

Scores are normal draws truncated to [0, 1] (inverse-CDF transform), one
unimodal bump per group.  All randomness flows from a single seed through
counter-based per-query substreams, so each query regenerates identically
however many others are generated with it; masking uses a separate
substream so toggling it never perturbs pool composition or order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Mapping, Sequence

from .detgreedy import ScoredCandidate, detgreedy_rerank
from .errors import InvalidConfig
from .model import (
    EXTERNAL_BASELINE,
    CandidateRecord,
    GroupProportions,
    GroupScheme,
    PrefixCounts,
    QuerySeries,
    RankingSnapshot,
)

# numpy is imported inside the functions that compute with it, so that the
# subcommands which neither simulate nor fit start without it.
if TYPE_CHECKING:
    import numpy as np

POSTPROCESS_NONE = "none"
POSTPROCESS_DETGREEDY = "detgreedy"

_CORE_STREAM = 0
_MASK_STREAM = 1


@dataclass(frozen=True)
class ScoreModel:
    """Truncated-normal score bump for one group: location and spread."""

    mean: float
    spread: float


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic dataset.

    ``group_weights`` is the generating mix over scheme labels; with
    ``weights_concentration`` set, each query draws its own mix from a
    Dirichlet centered on the weights (larger = tighter).  ``departure_probs``
    gives each group's independent daily drop-out chance; replacements are
    always fresh candidates from the departing group.
    """

    seed: int
    n_queries: int
    pool_size: tuple[int, int]
    scheme: GroupScheme
    group_weights: Mapping[str, float]
    score_models: Mapping[str, ScoreModel]
    days: int = 1
    departure_probs: Mapping[str, float] = field(default_factory=dict)
    missing_prob: float = 0.0
    postprocess: str = POSTPROCESS_NONE
    postprocess_targets: Mapping[str, float] | None = None
    weights_concentration: float | None = None

    def __post_init__(self) -> None:
        labels = set(self.scheme.labels)
        if self.n_queries < 1:
            raise InvalidConfig("n_queries must be >= 1")
        lo, hi = self.pool_size
        if not 1 <= lo <= hi:
            raise InvalidConfig(f"pool_size range ({lo}, {hi}) must satisfy 1 <= min <= max")
        if self.days < 1:
            raise InvalidConfig("days must be >= 1")
        if set(self.group_weights) != labels:
            raise InvalidConfig("group_weights must cover the scheme labels exactly")
        if not all(math.isfinite(w) for w in self.group_weights.values()):
            raise InvalidConfig("group weights must be finite")
        if any(w < 0.0 for w in self.group_weights.values()):
            raise InvalidConfig("group weights must be non-negative")
        if abs(sum(self.group_weights.values()) - 1.0) > 1e-9:
            raise InvalidConfig("group weights must sum to 1")
        if set(self.score_models) != labels:
            raise InvalidConfig("score_models must cover the scheme labels exactly")
        for label, model in self.score_models.items():
            if not math.isfinite(model.mean):
                raise InvalidConfig(f"score mean for {label!r} must be finite")
            if not 0.0 < model.spread < math.inf:
                raise InvalidConfig(f"score spread for {label!r} must be positive and finite")
        extra = set(self.departure_probs) - labels
        if extra:
            raise InvalidConfig(f"departure_probs for labels outside the scheme: {sorted(extra)}")
        for label, prob in self.departure_probs.items():
            if not 0.0 <= prob <= 1.0:
                raise InvalidConfig(f"departure probability for {label!r} must be in [0, 1]")
        if not 0.0 <= self.missing_prob <= 1.0:
            raise InvalidConfig("missing_prob must be in [0, 1]")
        if self.postprocess not in (POSTPROCESS_NONE, POSTPROCESS_DETGREEDY):
            raise InvalidConfig(f"unrecognized postprocess {self.postprocess!r}")
        if self.postprocess_targets is not None:
            if self.postprocess != POSTPROCESS_DETGREEDY:
                raise InvalidConfig("postprocess_targets requires the detgreedy postprocess")
            if set(self.postprocess_targets) != labels:
                raise InvalidConfig("postprocess_targets must cover the scheme labels exactly")
            if any(not 0.0 <= t <= 1.0 for t in self.postprocess_targets.values()):
                raise InvalidConfig("postprocess targets must lie in [0, 1]")
            if abs(sum(self.postprocess_targets.values()) - 1.0) > 1e-9:
                raise InvalidConfig("postprocess targets must sum to 1")
        if self.weights_concentration is not None and not 0.0 < self.weights_concentration < math.inf:
            raise InvalidConfig("weights_concentration must be positive and finite")


@dataclass(frozen=True)
class QueryTruth:
    """Unmasked generating state for one query."""

    query_id: str
    weights: Mapping[str, float]
    composition: Mapping[str, int]
    labels: Mapping[str, str]
    scores: Mapping[str, float]
    departures: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class SimResult:
    """Generated dataset plus its ground-truth ledger."""

    series: list[QuerySeries]
    truth: list[QueryTruth]
    config: SimConfig


def generate(config: SimConfig) -> SimResult:
    """Generate the full dataset described by ``config``.

    Deterministic: the same config (seed included) always yields the same
    series and ledger, byte for byte once serialized.
    """
    results = [_generate_query(config, qi) for qi in range(config.n_queries)]
    return SimResult(
        series=[series for series, _ in results],
        truth=[truth for _, truth in results],
        config=config,
    )


def _substream(seed: int, *key: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _generate_query(config: SimConfig, index: int) -> tuple[QuerySeries, QueryTruth]:
    import numpy as np

    rng = _substream(config.seed, index, _CORE_STREAM)
    mask_rng = _substream(config.seed, index, _MASK_STREAM)
    scheme = config.scheme
    labels = scheme.labels
    attribute = scheme.attribute_name
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

    # Each draw becomes Python values once, through ``tolist``, which gives
    # the same ints, doubles and bools as converting element by element.
    groups = group_idx.tolist()
    pool_counts = PrefixCounts(groups, labels)
    proportions = None
    if config.postprocess == POSTPROCESS_DETGREEDY:
        if config.postprocess_targets is not None:
            proportions = GroupProportions(
                scheme=scheme, shares=dict(config.postprocess_targets), source=EXTERNAL_BASELINE
            )
        else:
            # Departures are replaced from their own group, so the pool's
            # observed proportions hold for every day.
            proportions = pool_counts.proportions(scheme)
    by_id: dict[str, tuple] = {}

    def join(drawn_groups: list[int], drawn_scores: list[float], hidden: list[bool]) -> list[tuple]:
        """New candidates, numbered on from those the query already has.
        Generated ids are non-empty, scores finite and masked entries get no
        labels, so records and DetGreedy entries need no checks."""
        fresh = []
        for serial, group, score, hide in zip(count(len(by_id)), drawn_groups, drawn_scores, hidden):
            cid = f"{query_id}-c{serial:06d}"
            label = labels[group]
            if hide:
                record = CandidateRecord._trusted(cid, None, None, {}, True)
            else:
                record = CandidateRecord._trusted(cid, None, None, {attribute: label}, False)
            scored = ScoredCandidate._trusted(cid, label, score) if proportions is not None else None
            cand = by_id[cid] = (-score, cid, group, record, scored)
            fresh.append(cand)
        return fresh

    order = _rank(join(groups, scores.tolist(), masked.tolist()), proportions, by_id)
    snapshots = {1: _snapshot(query_id, 1, order)}
    departure = [config.departure_probs.get(label, 0.0) for label in labels]
    departures: list[tuple[int, str]] = []
    for day in range(2, config.days + 1):
        survivors: list[tuple] = []
        departed: list[tuple] = []
        for cand, draw in zip(order, rng.random(len(order)).tolist()):
            if draw < departure[cand[_GROUP]]:
                departed.append(cand)
            else:
                survivors.append(cand)
        if departed:
            lost = [cand[_GROUP] for cand in departed]
            fresh = _truncated_scores(rng, means[lost], spreads[lost])
            hidden = mask_rng.random(len(departed)) < config.missing_prob
            departures.extend((day, cand[_ID]) for cand in departed)
            survivors += join(lost, fresh.tolist(), hidden.tolist())
        order = _rank(survivors, proportions, by_id)
        snapshots[day] = _snapshot(query_id, day, order)

    series = QuerySeries(query_id=query_id, snapshots=snapshots)
    truth = QueryTruth(
        query_id=query_id,
        weights={label: float(w) for label, w in zip(labels, weights)},
        composition=pool_counts.tally(n),
        labels={cid: labels[cand[_GROUP]] for cid, cand in by_id.items()},
        scores={cid: -cand[_NEG_SCORE] for cid, cand in by_id.items()},
        departures=tuple(departures),
    )
    return series, truth


# A generated candidate is the tuple (-score, id, group index, snapshot
# record, DetGreedy entry or None).  Ids are unique within a query, so the
# tuples sort by descending score, ties by id, without a key; each snapshot
# that lists the candidate reuses its frozen record.
_NEG_SCORE, _ID, _GROUP, _RECORD, _SCORED = 0, 1, 2, 3, 4


def _truncated_scores(rng: np.random.Generator, means: np.ndarray, spreads: np.ndarray) -> np.ndarray:
    # Imported here: loading scipy costs ~0.5 s, and only generation needs it.
    import numpy as np
    from scipy.special import ndtr, ndtri

    lo = ndtr((0.0 - means) / spreads)
    hi = ndtr((1.0 - means) / spreads)
    u = rng.random(means.shape[0])
    return np.clip(means + spreads * ndtri(lo + u * (hi - lo)), 0.0, 1.0)


def _rank(pool: list[tuple], proportions: GroupProportions | None, by_id: dict[str, tuple]) -> list[tuple]:
    by_score = sorted(pool)
    if proportions is None:
        return by_score
    result = detgreedy_rerank([cand[_SCORED] for cand in by_score], proportions)
    return [by_id[cid] for cid in result.order]


def _snapshot(query_id: str, day: int, order: list[tuple]) -> RankingSnapshot:
    return RankingSnapshot(query_id=query_id, day=day, entries=tuple([cand[_RECORD] for cand in order]))


def inject_topk_bias(
    series: Sequence[QuerySeries],
    scheme: GroupScheme,
    label: str,
    strength: float,
    seed: int,
    page_size: int = 25,
) -> tuple[list[QuerySeries], dict]:
    """Probabilistically demote ``label`` members out of the first page.

    Every labeled member of the first ``page_size`` positions is demoted with
    probability ``strength``; vacated slots are filled by the highest-ranked
    non-members from below the boundary (in order), and the demoted members
    land just under the boundary keeping their relative order.  When fewer
    alternatives exist than flagged members, only as many as can be replaced
    are demoted.  Returns the modified series plus an effect record.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength!r}")
    if label not in scheme.labels:
        raise ValueError(f"label {label!r} not in scheme {scheme.attribute_name!r}")
    modified: list[QuerySeries] = []
    demotions = 0
    snapshots_touched = 0
    for si, one in enumerate(series):
        rng = _substream(seed, si)
        new_snaps: dict[int, RankingSnapshot] = {}
        for day in sorted(one.snapshots):
            snap = one.snapshots[day]
            entries, moved = _demote_page(snap.entries, scheme, label, strength, rng, page_size)
            if moved:
                demotions += moved
                snapshots_touched += 1
                new_snaps[day] = RankingSnapshot(query_id=snap.query_id, day=snap.day, entries=entries)
            else:
                new_snaps[day] = snap
        modified.append(QuerySeries(query_id=one.query_id, snapshots=new_snaps))
    record = {
        "label": label,
        "strength": strength,
        "page_size": page_size,
        "seed": seed,
        "demotions": demotions,
        "snapshots_touched": snapshots_touched,
    }
    return modified, record


def _demote_page(
    entries: tuple[CandidateRecord, ...],
    scheme: GroupScheme,
    label: str,
    strength: float,
    rng: np.random.Generator,
    page_size: int,
) -> tuple[tuple[CandidateRecord, ...], int]:
    page = entries[:page_size]
    below = entries[page_size:]
    flagged = [
        i
        for i, record in enumerate(page)
        if record.label_for(scheme) == label and rng.random() < strength
    ]
    alternatives = [i for i, record in enumerate(below) if record.label_for(scheme) != label]
    moved = min(len(flagged), len(alternatives))
    if moved == 0:
        return entries, 0
    flagged = flagged[:moved]
    pulled = alternatives[:moved]
    kept_page = [record for i, record in enumerate(page) if i not in set(flagged)]
    new_page = kept_page + [below[i] for i in pulled]
    pulled_set = set(pulled)
    new_below = [page[i] for i in flagged] + [r for i, r in enumerate(below) if i not in pulled_set]
    return tuple(new_page) + tuple(new_below), moved
