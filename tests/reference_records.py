"""Test-only reference: a frozen dataclass twin of every record type, kept so
that hypothesis can compare the records' one shared base
(``rankaudit.model.Record``) against what ``@dataclass(frozen=True)`` gave
each type before it.

A twin has the record type's name and ``_fields``; its ``__post_init__``
runs the record type's public constructor on its fields and keeps the
values that constructor keeps, so ``dataclasses.replace`` on a twin runs
the same checks as ``model.replace`` on a record.  Each twin is a global of
this module under the record type's name, so that it pickles.  ``VALID``
holds a strategy of valid field tuples per record type, and ``BAD`` the
changes its checks reject.
"""
from __future__ import annotations

import dataclasses
import math

from hypothesis import strategies as st

from rankaudit import churn, detgreedy, exposure, mixedlm, model, names, simulate

# Every record type of the package, in module order.
RECORD_TYPES = [
    model.GroupScheme,
    model.CandidateRecord,
    model.RankingSnapshot,
    model.QuerySeries,
    model.GroupProportions,
    names.NameFrequencyTable,
    names.InferenceResult,
    names.CoverageReport,
    exposure.TopKCounts,
    exposure.MetricCurve,
    churn.ChurnCell,
    mixedlm.LongObservation,
    mixedlm.MixedModelFit,
    mixedlm.WaldTest,
    mixedlm.ProtocolRow,
    detgreedy.ScoredCandidate,
    detgreedy.RerankResult,
    simulate.ScoreModel,
    simulate.SimConfig,
    simulate.QueryTruth,
    simulate.SimResult,
]


def _make_twin(cls: type) -> type:
    def __post_init__(self) -> None:
        checked = cls(*(getattr(self, name) for name in cls._fields))
        for name in cls._fields:
            object.__setattr__(self, name, getattr(checked, name))

    return dataclasses.make_dataclass(
        cls.__name__, cls._fields, frozen=True, namespace={"__post_init__": __post_init__, "__module__": __name__},
    )


TWINS = {cls: _make_twin(cls) for cls in RECORD_TYPES}
globals().update({twin.__name__: twin for twin in TWINS.values()})

TEXT = st.text(max_size=3)
NAME = st.text(min_size=1, max_size=3)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Any field value of a type without checks: unhashable lists and dicts and
# NaN included, so that hashing and equality meet them.
ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=2) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=4,
)


@st.composite
def _schemes(draw) -> tuple:
    labels = draw(st.lists(NAME, min_size=2, max_size=3, unique=True))
    return draw(NAME), tuple(labels), draw(NAME.filter(lambda unknown: unknown not in labels))


@st.composite
def _records(draw) -> tuple:
    if draw(st.booleans()):
        return draw(NAME), None, None, {}, True
    names_ = st.none() | TEXT
    return draw(NAME), draw(names_), draw(names_), draw(st.dictionaries(NAME, TEXT, max_size=2)), False


def _entries() -> st.SearchStrategy:
    return st.lists(_records(), max_size=3, unique_by=lambda row: row[0]).map(
        lambda rows: tuple(model.CandidateRecord(*row) for row in rows))


@st.composite
def _snapshots(draw) -> tuple:
    return draw(NAME), draw(st.integers(min_value=1)), draw(_entries())


@st.composite
def _series(draw) -> tuple:
    query_id = draw(NAME)
    days = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3, unique=True))
    return query_id, {day: model.RankingSnapshot(query_id, day, draw(_entries())) for day in days}


@st.composite
def _proportions(draw) -> tuple:
    scheme = model.GroupScheme(*draw(_schemes()))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(scheme.labels),
                            max_size=len(scheme.labels)))
    shares = {label: weight / sum(weights) for label, weight in zip(scheme.labels, weights)}
    source = draw(st.sampled_from([model.OBSERVED_POOL, model.EXTERNAL_BASELINE]))
    return scheme, shares, source, draw(st.integers(min_value=0))


@st.composite
def _configs(draw) -> tuple:
    scheme = model.GroupScheme("gender", ("F", "M"))
    scores = {label: simulate.ScoreModel(0.6, 0.15) for label in scheme.labels}
    detgreedy_ = draw(st.booleans())
    return (draw(st.integers()), draw(st.integers(min_value=1)), (1, draw(st.integers(min_value=1, max_value=9))),
            scheme, {"F": 0.5, "M": 0.5}, scores, draw(st.integers(min_value=1)),
            draw(st.dictionaries(st.sampled_from(scheme.labels), st.floats(0.0, 1.0))),
            draw(st.floats(0.0, 1.0)), "detgreedy" if detgreedy_ else "none",
            {"F": 0.25, "M": 0.75} if detgreedy_ else None, draw(st.none() | st.floats(0.5, 10.0)))


# A strategy of valid field tuples per record type.
VALID = {cls: st.tuples(*[ANY] * len(cls._fields)) for cls in RECORD_TYPES}
VALID.update({
    model.GroupScheme: _schemes(),
    model.CandidateRecord: _records(),
    model.RankingSnapshot: _snapshots(),
    model.QuerySeries: _series(),
    model.GroupProportions: _proportions(),
    mixedlm.LongObservation: st.tuples(TEXT, FINITE, st.dictionaries(TEXT, FINITE, max_size=2)),
    detgreedy.ScoredCandidate: st.tuples(NAME, NAME, FINITE),
    simulate.SimConfig: _configs(),
})

# Changes the public checks reject, per record type.  An unknown field name
# is rejected by every type's constructor.
BAD = {cls: [{"no_such_field": 1}] for cls in RECORD_TYPES}
BAD[model.GroupScheme] += [{"labels": ("F",)}, {"labels": "FM"}, {"attribute_name": ""}, {"unknown_label": 7}]
BAD[model.CandidateRecord] += [{"candidate_id": ""}, {"candidate_id": 7}, {"missing": 1}, {"group_labels": {1: "F"}}]
BAD[model.RankingSnapshot] += [{"day": 0}, {"day": True}, {"query_id": ""}]
BAD[model.QuerySeries] += [{"snapshots": {}}, {"query_id": "no such query"}]
BAD[model.GroupProportions] += [{"source": "guesswork"}, {"shares": {}}, {"denominator": -1}]
BAD[mixedlm.LongObservation] += [{"response": math.nan}, {"response": math.inf}]
BAD[detgreedy.ScoredCandidate] += [{"candidate_id": ""}, {"label": ""}, {"score": math.nan}]
BAD[simulate.SimConfig] += [{"n_queries": 0}, {"days": 0}, {"missing_prob": 2.0}, {"postprocess": "other"}]
