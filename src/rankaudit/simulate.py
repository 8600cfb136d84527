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
from itertools import repeat
from typing import TYPE_CHECKING, Mapping, Sequence

from .detgreedy import _walk
from .errors import InvalidConfig
from .model import (
    CandidateRecord,
    GroupScheme,
    PrefixCounts,
    QuerySeries,
    RankingSnapshot,
    Record,
    _NEW_DICT,
    _unchecked,
)

# numpy is imported inside the functions that compute with it, so that the
# subcommands which neither simulate nor fit start without it.
if TYPE_CHECKING:
    import numpy as np

POSTPROCESS_NONE = "none"
POSTPROCESS_DETGREEDY = "detgreedy"

_CORE_STREAM = 0
_MASK_STREAM = 1


class ScoreModel(Record):
    """Truncated-normal score bump for one group: location and spread."""

    __slots__ = _fields = ("mean", "spread")

    def __init__(self, mean: float, spread: float) -> None:
        self._set(mean, spread)


class SimConfig(Record):
    """Full description of one synthetic dataset.

    ``group_weights`` is the generating mix over scheme labels; with
    ``weights_concentration`` set, each query draws its own mix from a
    Dirichlet centered on the weights (larger = tighter).  ``departure_probs``
    gives each group's independent daily drop-out chance; replacements are
    always fresh candidates from the departing group.
    """

    __slots__ = _fields = (
        "seed", "n_queries", "pool_size", "scheme", "group_weights", "score_models", "days", "departure_probs",
        "missing_prob", "postprocess", "postprocess_targets", "weights_concentration",
    )

    def __init__(
        self,
        seed: int,
        n_queries: int,
        pool_size: tuple[int, int],
        scheme: GroupScheme,
        group_weights: Mapping[str, float],
        score_models: Mapping[str, ScoreModel],
        days: int = 1,
        departure_probs: Mapping[str, float] = _NEW_DICT,
        missing_prob: float = 0.0,
        postprocess: str = POSTPROCESS_NONE,
        postprocess_targets: Mapping[str, float] | None = None,
        weights_concentration: float | None = None,
    ) -> None:
        if departure_probs is _NEW_DICT:
            departure_probs = {}
        self._set(seed, n_queries, pool_size, scheme, group_weights, score_models, days, departure_probs,
                  missing_prob, postprocess, postprocess_targets, weights_concentration)
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


class QueryTruth(Record):
    """Unmasked generating state for one query."""

    __slots__ = _fields = ("query_id", "weights", "composition", "labels", "scores", "departures")

    def __init__(
        self, query_id: str, weights: Mapping[str, float], composition: Mapping[str, int], labels: Mapping[str, str],
        scores: Mapping[str, float], departures: tuple[tuple[int, str], ...],
    ) -> None:
        self._set(query_id, weights, composition, labels, scores, departures)


class SimResult(Record):
    """Generated dataset plus its ground-truth ledger."""

    __slots__ = _fields = ("series", "truth", "config")

    def __init__(self, series: list[QuerySeries], truth: list[QueryTruth], config: SimConfig) -> None:
        self._set(series, truth, config)


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
    bands = [_score_band(config.score_models[label]) for label in labels]

    # Each draw becomes Python values once, through ``tolist``, which gives
    # the same ints, doubles and bools as converting element by element.
    groups = rng.choice(len(labels), size=n, p=weights).tolist()
    scores = _truncated_scores(rng, groups, bands)
    masked = mask_rng.random(n) < config.missing_prob
    pool_counts = PrefixCounts(groups, labels)
    targets = None
    if config.postprocess == POSTPROCESS_DETGREEDY:
        # ``SimConfig`` has checked external targets as ``GroupProportions``
        # would.  Departures are replaced from their own group, so the pool's
        # observed proportions hold for every day.
        shares = config.postprocess_targets
        if shares is None:
            shares = pool_counts.proportions(scheme).shares
        targets = [shares[label] for label in labels]
    by_id: dict[str, tuple] = {}

    def join(drawn_groups: list[int], drawn_scores: list[float], hidden: list[bool]) -> list[tuple]:
        """New candidates, numbered on from those the query already has.
        Generated ids are non-empty and masked entries get no labels, so
        records need no checks."""
        ids = [f"{query_id}-c{serial:06d}" for serial in range(len(by_id), len(by_id) + len(hidden))]
        group_labels = [{} if hide else {attribute: labels[group]} for group, hide in zip(drawn_groups, hidden)]
        records = _unchecked(CandidateRecord, len(ids), ids, repeat(None), repeat(None), group_labels, hidden)
        fresh = list(zip([-score for score in drawn_scores], ids, drawn_groups, records))
        by_id.update(zip(ids, fresh))
        return fresh

    order = _rank(join(groups, scores, masked.tolist()), targets)
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
            fresh = _truncated_scores(rng, lost, bands)
            hidden = mask_rng.random(len(departed)) < config.missing_prob
            departures.extend((day, cand[_ID]) for cand in departed)
            survivors += join(lost, fresh, hidden.tolist())
        order = _rank(survivors, targets)
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
# record).  Ids are unique within a query, so the tuples sort by descending
# score, ties by id, without a key, the order DetGreedy's walk takes; each
# snapshot that lists the candidate reuses its frozen record.
_NEG_SCORE, _ID, _GROUP, _RECORD = 0, 1, 2, 3


def _score_band(model: ScoreModel) -> tuple[float, float, float, float]:
    """Mean, spread and the normal CDF at the ends of [0, 1] for one group."""
    mean, spread = model.mean, model.spread
    return mean, spread, _ndtr((0.0 - mean) / spread), _ndtr((1.0 - mean) / spread)


def _truncated_scores(rng: np.random.Generator, groups: list[int], bands: list[tuple]) -> list[float]:
    """One score per group index by the inverse CDF, from one uniform draw,
    clipped to [0, 1] the way ``np.clip`` clips (nan stays nan)."""
    scores = []
    for group, u in zip(groups, rng.random(len(groups)).tolist()):
        mean, spread, lo, hi = bands[group]
        x = mean + spread * _ndtri(lo + u * (hi - lo))
        scores.append(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
    return scores


# The standard normal CDF and its inverse, ported step for step from scipy
# 1.17's cephes ``ndtr.h`` and ``ndtri.h`` (scipy: BSD-3-Clause; Cephes Math
# Library, Copyright 1984-2000 Stephen L. Moshier), so scores keep their
# bytes without importing scipy.  libm is reached only through ``math``:
# numpy's vector exp/log may differ from it by an ulp.
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
# erfc for 1 <= x < 8, P/Q; for x >= 8, R/S; erf for |x| <= 1, T/U.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416, 5.01905042251180477414, 6.16021097993053585195,
      7.40974269950448939160, 2.97886665372100240670)
_S = (2.26052863220117276590, 9.39603524938001434673, 1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198, 3.36907645100081516050)
_T = (9.60497373987051638749, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
# ndtri in the central band, P0/Q0; in the tails, P1/Q1 for x < 8 and P2/Q2
# beyond, where x = sqrt(-2 log y).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016)
_Q0 = (1.95448858338141759834, 4.67627912898881538453, 8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142)
_P1 = (4.05544892305962419923, 3.15251094599893866154e1, 5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539, -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979, -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970, 6.91522889068984211695, 3.93881025292474443415, 1.33303460815807542389,
       2.01485389549179081538e-1, 1.23716634817820021358e-2, 3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255, 3.67983563856160859403, 1.37702099489081330271, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """``_polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """The standard normal CDF at ``a``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = (z * _polevl(x, _P)) / _p1evl(x, _Q)
        else:
            y = (z * _polevl(x, _R)) / _p1evl(x, _S)
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def _ndtri(y0: float) -> float:
    """The inverse of ``_ndtr``: -inf at 0, inf at 1, nan outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _rank(pool: list[tuple], targets: list[float] | None) -> list[tuple]:
    """Candidates by descending score, re-ranked by DetGreedy toward the
    per-group ``targets`` when given."""
    by_score = sorted(pool)
    if targets is None:
        return by_score
    picks = _walk([cand[_GROUP] for cand in by_score], [-cand[_NEG_SCORE] for cand in by_score], targets)
    return [by_score[p] for p in picks]


def _snapshot(query_id: str, day: int, order: list[tuple]) -> RankingSnapshot:
    # The query ids, days and candidate ids are generated distinct and valid.
    return _unchecked(RankingSnapshot, 1, (query_id,), (day,), (tuple([cand[_RECORD] for cand in order]),))[0]


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
    if page_size < 1:
        raise ValueError(f"page_size must be >= 1, got {page_size!r}")
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
    flagged_set = set(flagged)
    kept_page = [record for i, record in enumerate(page) if i not in flagged_set]
    new_page = kept_page + [below[i] for i in pulled]
    pulled_set = set(pulled)
    new_below = [page[i] for i in flagged] + [r for i, r in enumerate(below) if i not in pulled_set]
    return tuple(new_page) + tuple(new_below), moved
