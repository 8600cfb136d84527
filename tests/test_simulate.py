from __future__ import annotations

import math

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rankaudit import (
    EXTERNAL_BASELINE,
    GroupProportions,
    GroupScheme,
    InvalidConfig,
    ScoreModel,
    SimConfig,
    check_feasibility,
    generate,
    inject_topk_bias,
    minskew_curve,
)
from rankaudit import dataio
from rankaudit.simulate import _generate_query

from conftest import GENDER, series_from_days
from reference_simulate import reference_generate_query


def cfg(**overrides) -> SimConfig:
    base = dict(
        seed=1,
        n_queries=2,
        pool_size=(30, 40),
        scheme=GENDER,
        group_weights={"F": 0.5, "M": 0.5},
        score_models={"F": ScoreModel(0.6, 0.15), "M": ScoreModel(0.6, 0.15)},
    )
    base.update(overrides)
    return SimConfig(**base)


def label_sequence(snapshot, truth) -> list[str]:
    return [truth.labels[e.candidate_id] for e in snapshot.entries]


class TestConfigValidation:
    def test_rejects_out_of_range_scalars(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(n_queries=0)
        with pytest.raises(InvalidConfig):
            cfg(pool_size=(5, 2))
        with pytest.raises(InvalidConfig):
            cfg(pool_size=(0, 4))
        with pytest.raises(InvalidConfig):
            cfg(days=0)
        with pytest.raises(InvalidConfig):
            cfg(missing_prob=1.5)
        with pytest.raises(InvalidConfig):
            cfg(weights_concentration=0.0)

    def test_rejects_bad_group_weights(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(group_weights={"F": 1.0})
        with pytest.raises(InvalidConfig):
            cfg(group_weights={"F": 0.7, "M": 0.7})
        with pytest.raises(InvalidConfig):
            cfg(group_weights={"F": -0.2, "M": 1.2})

    def test_rejects_bad_score_models(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(score_models={"F": ScoreModel(0.6, 0.15)})
        with pytest.raises(InvalidConfig):
            cfg(
                score_models={"F": ScoreModel(0.6, 0.0), "M": ScoreModel(0.6, 0.15)}
            )

    @pytest.mark.parametrize("spread", [math.inf, math.nan])
    def test_rejects_a_non_finite_spread(self, spread) -> None:
        # An infinite spread used to pass and give NaN scores in the ledger.
        with pytest.raises(InvalidConfig, match="score spread for 'M' must be positive and finite"):
            cfg(score_models={"F": ScoreModel(0.6, 0.15), "M": ScoreModel(0.6, spread)})

    @pytest.mark.parametrize("concentration", [math.inf, math.nan])
    def test_rejects_a_non_finite_weights_concentration(self, concentration) -> None:
        with pytest.raises(InvalidConfig, match="weights_concentration must be positive and finite"):
            cfg(weights_concentration=concentration)

    def test_rejects_bad_departures(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(departure_probs={"X": 0.1})
        with pytest.raises(InvalidConfig):
            cfg(departure_probs={"F": 1.2})

    def test_rejects_unknown_modes(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(postprocess="shuffle")

    def test_postprocess_targets_need_detgreedy(self) -> None:
        with pytest.raises(InvalidConfig, match="detgreedy"):
            cfg(postprocess_targets={"F": 0.45, "M": 0.55})

    def test_postprocess_targets_validated(self) -> None:
        with pytest.raises(InvalidConfig):
            cfg(postprocess="detgreedy", postprocess_targets={"F": 1.0})
        with pytest.raises(InvalidConfig):
            cfg(postprocess="detgreedy", postprocess_targets={"F": -0.1, "M": 1.1})
        with pytest.raises(InvalidConfig):
            cfg(postprocess="detgreedy", postprocess_targets={"F": 0.4, "M": 0.4})


class TestGeneration:
    def test_same_config_regenerates_identically(self) -> None:
        config = cfg(seed=7, n_queries=4, days=3, departure_probs={"F": 0.3, "M": 0.1}, missing_prob=0.2)
        first, second = generate(config), generate(config)
        assert first.series == second.series
        assert first.truth == second.truth

    def test_query_streams_do_not_depend_on_batch_size(self) -> None:
        short = generate(cfg(seed=9, n_queries=3, days=2, departure_probs={"F": 0.2, "M": 0.2}))
        long = generate(cfg(seed=9, n_queries=8, days=2, departure_probs={"F": 0.2, "M": 0.2}))
        assert long.series[:3] == short.series
        assert long.truth[:3] == short.truth

    def test_ids_pool_sizes_and_scores(self) -> None:
        result = generate(cfg(seed=3, n_queries=5, pool_size=(30, 30)))
        assert [t.query_id for t in result.truth] == [f"q{i:05d}" for i in range(5)]
        for series, truth in zip(result.series, result.truth):
            snap = series.snapshots[1]
            assert len(snap.entries) == 30
            assert sum(truth.composition.values()) == 30
            assert set(truth.labels) == {e.candidate_id for e in snap.entries}
            assert set(truth.scores) == set(truth.labels)
            assert all(0.0 <= s <= 1.0 for s in truth.scores.values())
            assert abs(sum(truth.weights.values()) - 1.0) < 1e-12

    def test_default_ranking_is_descending_score_order(self) -> None:
        result = generate(cfg(seed=5, n_queries=3, pool_size=(40, 60)))
        for series, truth in zip(result.series, result.truth):
            scores = [truth.scores[e.candidate_id] for e in series.snapshots[1].entries]
            assert scores == sorted(scores, reverse=True)

    def test_fixed_weights_are_reported_verbatim(self) -> None:
        result = generate(cfg(seed=5, n_queries=3, group_weights={"F": 0.3, "M": 0.7}))
        for truth in result.truth:
            assert truth.weights == {"F": 0.3, "M": 0.7}

    def test_dirichlet_weights_vary_per_query(self) -> None:
        result = generate(cfg(seed=5, n_queries=6, weights_concentration=50.0))
        drawn = {tuple(sorted(t.weights.items())) for t in result.truth}
        assert len(drawn) == 6  # continuous draws never coincide
        for truth in result.truth:
            assert abs(sum(truth.weights.values()) - 1.0) < 1e-9

    def test_pool_composition_matches_weights(self) -> None:
        # A goodness-of-fit sweep over 100 seeds: at the 1% level the
        # composition draw should essentially never look non-multinomial.
        rejections = 0
        for seed in range(100):
            config = cfg(seed=seed, n_queries=1, pool_size=(500, 500), group_weights={"F": 0.3, "M": 0.7})
            truth = generate(config).truth[0]
            observed = [truth.composition["F"], truth.composition["M"]]
            result = stats.chisquare(observed, f_exp=[150.0, 350.0])
            rejections += result.pvalue < 0.01
        assert rejections <= 2


class TestMissingness:
    def test_masking_never_perturbs_order_or_truth(self) -> None:
        base_kw = dict(seed=21, n_queries=4, days=3, departure_probs={"F": 0.3, "M": 0.2})
        clean = generate(cfg(**base_kw, missing_prob=0.0))
        masked = generate(cfg(**base_kw, missing_prob=0.35))
        assert clean.truth == masked.truth
        for a, b in zip(clean.series, masked.series):
            for day in a.snapshots:
                ids_a = [e.candidate_id for e in a.snapshots[day].entries]
                ids_b = [e.candidate_id for e in b.snapshots[day].entries]
                assert ids_a == ids_b
        assert any(
            e.missing for s in masked.series for snap in s.snapshots.values() for e in snap.entries
        )

    def test_mask_rate_tracks_probability(self) -> None:
        result = generate(cfg(seed=33, n_queries=20, pool_size=(200, 200), missing_prob=0.3))
        rates = [s.snapshots[1].missing_rate for s in result.series]
        assert abs(float(np.mean(rates)) - 0.3) < 0.02

    def test_full_masking(self) -> None:
        result = generate(cfg(seed=2, n_queries=1, missing_prob=1.0))
        snap = result.series[0].snapshots[1]
        assert snap.missing_rate == 1.0
        assert all(e.missing for e in snap.entries)


class TestChurnDynamics:
    def test_no_departures_means_frozen_rankings(self) -> None:
        result = generate(cfg(seed=11, n_queries=3, days=4))
        for series in result.series:
            first = series.snapshots[1].entries
            for day in (2, 3, 4):
                assert series.snapshots[day].entries == first
        assert all(t.departures == () for t in result.truth)

    def test_departure_ledger_matches_snapshots(self) -> None:
        config = cfg(seed=13, n_queries=4, pool_size=(60, 80), days=4, departure_probs={"F": 0.5, "M": 0.2})
        result = generate(config)
        saw_departure = False
        for series, truth in zip(result.series, result.truth):
            ids = {day: {e.candidate_id for e in snap.entries} for day, snap in series.snapshots.items()}
            sizes = {len(v) for v in ids.values()}
            assert len(sizes) == 1  # one-for-one replacement keeps the pool size
            by_day: dict[int, list[str]] = {}
            for day, cid in truth.departures:
                saw_departure = True
                by_day.setdefault(day, []).append(cid)
                assert cid in ids[day - 1]
                for later in range(day, config.days + 1):
                    assert cid not in ids[later]
            for day in range(2, config.days + 1):
                arrivals = sorted(ids[day] - ids[day - 1])
                departed = by_day.get(day, [])
                assert len(arrivals) == len(departed)
                # Replacements are drawn from the departing group, and fresh
                # ids are issued in the order departures were recorded.
                for old, new in zip(departed, arrivals):
                    assert truth.labels[new] == truth.labels[old]
        assert saw_departure

    def test_departure_probability_is_respected_per_group(self) -> None:
        config = cfg(
            seed=17, n_queries=40, pool_size=(100, 100), days=2, departure_probs={"F": 0.4, "M": 0.1}
        )
        result = generate(config)
        gone = {"F": 0, "M": 0}
        total = {"F": 0, "M": 0}
        for series, truth in zip(result.series, result.truth):
            for label, count in truth.composition.items():
                total[label] += count
            for _, cid in truth.departures:
                gone[truth.labels[cid]] += 1
        assert gone["F"] / total["F"] == pytest.approx(0.4, abs=0.03)
        assert gone["M"] / total["M"] == pytest.approx(0.1, abs=0.03)


class TestPostprocess:
    def test_detgreedy_output_is_feasible_for_realized_shares(self) -> None:
        config = cfg(seed=19, n_queries=10, pool_size=(40, 80), group_weights={"F": 0.35, "M": 0.65},
                     postprocess="detgreedy")
        result = generate(config)
        for series, truth in zip(result.series, result.truth):
            n = sum(truth.composition.values())
            proportions = GroupProportions(
                scheme=GENDER,
                shares={label: count / n for label, count in truth.composition.items()},
                denominator=n,
            )
            assert check_feasibility(label_sequence(series.snapshots[1], truth), proportions) == ()

    def test_detgreedy_honors_external_targets_through_the_pages(self) -> None:
        config = cfg(
            seed=23,
            n_queries=10,
            pool_size=(160, 250),
            group_weights={"F": 0.45, "M": 0.55},
            postprocess="detgreedy",
            postprocess_targets={"F": 0.45, "M": 0.55},
        )
        targets = GroupProportions(
            scheme=GENDER, shares={"F": 0.45, "M": 0.55}, source=EXTERNAL_BASELINE
        )
        result = generate(config)
        for series, truth in zip(result.series, result.truth):
            violations = check_feasibility(label_sequence(series.snapshots[1], truth), targets)
            # Sampling noise must not break the quota anywhere a page ends.
            assert [v for v in violations if v[0] <= 100] == []

    def test_rerank_applies_every_day(self) -> None:
        config = cfg(
            seed=29, n_queries=4, pool_size=(50, 60), days=3,
            departure_probs={"F": 0.3, "M": 0.3}, postprocess="detgreedy",
        )
        result = generate(config)
        for series, truth in zip(result.series, result.truth):
            for day, snap in series.snapshots.items():
                order = label_sequence(snap, truth)
                counts = {label: 0 for label in GENDER.labels}
                for lbl in order:
                    counts[lbl] += 1
                n = len(order)
                proportions = GroupProportions(
                    scheme=GENDER,
                    shares={label: counts[label] / n for label in GENDER.labels},
                    denominator=n,
                )
                assert check_feasibility(order, proportions) == ()


class TestInjectTopkBias:
    def test_strength_zero_is_identity(self) -> None:
        result = generate(cfg(seed=31, n_queries=4, days=2, departure_probs={"F": 0.2, "M": 0.2}))
        modified, record = inject_topk_bias(result.series, GENDER, "F", 0.0, seed=5)
        assert modified == result.series
        assert record["demotions"] == 0
        assert record["snapshots_touched"] == 0

    def test_strength_one_clears_the_page_when_alternatives_abound(self) -> None:
        result = generate(cfg(seed=37, n_queries=6, pool_size=(150, 200)))
        modified, record = inject_topk_bias(result.series, GENDER, "F", 1.0, seed=5)
        for series in modified:
            labels = [e.label_for(GENDER) for e in series.snapshots[1].entries[:25]]
            assert "F" not in labels
        assert record["demotions"] > 0

    def test_entries_are_only_permuted(self) -> None:
        result = generate(cfg(seed=41, n_queries=5, pool_size=(60, 90), missing_prob=0.1))
        modified, _ = inject_topk_bias(result.series, GENDER, "F", 0.6, seed=8)
        for before, after in zip(result.series, modified):
            for day in before.snapshots:
                assert sorted(
                    e.candidate_id for e in before.snapshots[day].entries
                ) == sorted(e.candidate_id for e in after.snapshots[day].entries)

    def test_injection_is_deterministic_in_its_seed(self) -> None:
        result = generate(cfg(seed=43, n_queries=4))
        once, record_a = inject_topk_bias(result.series, GENDER, "F", 0.5, seed=9)
        twice, record_b = inject_topk_bias(result.series, GENDER, "F", 0.5, seed=9)
        assert once == twice and record_a == record_b
        other, _ = inject_topk_bias(result.series, GENDER, "F", 0.5, seed=10)
        assert other != once

    def test_demoted_members_land_just_below_the_boundary_in_order(self) -> None:
        series = series_from_days("FMFFMM")
        modified, record = inject_topk_bias([series], GENDER, "F", 1.0, seed=1, page_size=3)
        ids = [e.candidate_id for e in modified[0].snapshots[1].entries]
        assert ids == [f"q1-d1-{i:03d}" for i in (1, 4, 5, 0, 2, 3)]
        assert record["demotions"] == 2
        assert record["snapshots_touched"] == 1

    def test_unlabeled_candidates_count_as_alternatives(self) -> None:
        series = series_from_days("FMxF")
        modified, _ = inject_topk_bias([series], GENDER, "F", 1.0, seed=1, page_size=2)
        ids = [e.candidate_id for e in modified[0].snapshots[1].entries]
        assert ids == [f"q1-d1-{i:03d}" for i in (1, 2, 0, 3)]

    def test_demotions_are_capped_by_available_alternatives(self) -> None:
        series = series_from_days("FFFFM")
        modified, record = inject_topk_bias([series], GENDER, "F", 1.0, seed=1, page_size=3)
        ids = [e.candidate_id for e in modified[0].snapshots[1].entries]
        assert ids == [f"q1-d1-{i:03d}" for i in (1, 2, 4, 0, 3)]
        assert record["demotions"] == 1

    def test_rejects_bad_strength_and_label(self) -> None:
        with pytest.raises(ValueError, match="strength"):
            inject_topk_bias([], GENDER, "F", 1.5, seed=1)
        with pytest.raises(ValueError, match="label"):
            inject_topk_bias([], GENDER, "X", 0.5, seed=1)

    @pytest.mark.parametrize("page_size", [0, -25])
    def test_rejects_a_page_below_one(self, page_size: int) -> None:
        with pytest.raises(ValueError, match="page_size must be >= 1"):
            inject_topk_bias([series_from_days("FMFM")], GENDER, "F", 1.0, seed=1, page_size=page_size)

    def test_partial_strength_depresses_minskew(self) -> None:
        config = cfg(seed=47, n_queries=150, pool_size=(60, 100))
        result = generate(config)
        proportions = GroupProportions(
            scheme=GENDER, shares={"F": 0.5, "M": 0.5}, source=EXTERNAL_BASELINE
        )

        def mean_minskew(series_list) -> float:
            cells = []
            for series in series_list:
                value = minskew_curve(series.snapshots[1], GENDER, proportions, (25,)).values[25]
                if value is not None and math.isfinite(value):
                    cells.append(value)
            return float(np.mean(cells))

        injected, _ = inject_topk_bias(result.series, GENDER, "F", 0.5, seed=47)
        assert mean_minskew(injected) < mean_minskew(result.series) - 0.1


def mix(draw, labels: tuple[str, ...]) -> dict[str, float]:
    """A normalised mix over ``labels`` with some shares possibly 0, so a
    pool may hold one group only."""
    weights = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=len(labels), max_size=len(labels))
                   .filter(any))
    return {label: w / sum(weights) for label, w in zip(labels, weights)}


@st.composite
def sim_configs(draw) -> SimConfig:
    labels = ("a", "b", "c", "d")[: draw(st.integers(min_value=2, max_value=4))]
    lo = draw(st.integers(min_value=1, max_value=25))
    postprocess = draw(st.sampled_from(["none", "detgreedy"]))
    return SimConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        n_queries=draw(st.integers(min_value=1, max_value=3)),
        pool_size=(lo, lo + draw(st.integers(min_value=0, max_value=15))),
        scheme=GroupScheme("tier", labels),
        group_weights=mix(draw, labels),
        # A mean far above 1 truncates every score to 1.0, so scores tie.
        score_models={
            label: ScoreModel(draw(st.sampled_from([0.2, 0.5, 0.9, 5.0])), draw(st.sampled_from([0.05, 0.15, 0.4])))
            for label in labels
        },
        days=draw(st.integers(min_value=1, max_value=4)),
        departure_probs={label: draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])) for label in labels},
        missing_prob=draw(st.sampled_from([0.0, 0.2, 1.0])),
        postprocess=postprocess,
        postprocess_targets=mix(draw, labels) if postprocess == "detgreedy" and draw(st.booleans()) else None,
        weights_concentration=draw(st.sampled_from([None, 0.5, 5.0])),
    )


@given(config=sim_configs())
@settings(max_examples=60, deadline=None)
def test_generation_matches_the_per_element_reference(config: SimConfig) -> None:
    """The plain-Python simulator and trusted DetGreedy entries reproduce the
    per-element reference: equal series and truths, equal output bytes."""
    ours = [_generate_query(config, qi) for qi in range(config.n_queries)]
    reference = [reference_generate_query(config, qi) for qi in range(config.n_queries)]
    assert repr(ours) == repr(reference)
    for write in (
        lambda results, out: dataio.write_snapshots([series for series, _ in results], out),
        lambda results, out: dataio.write_ledger([truth for _, truth in results], out),
    ):
        ours_out, reference_out = io.StringIO(), io.StringIO()
        write(ours, ours_out)
        write(reference, reference_out)
        assert ours_out.getvalue() == reference_out.getvalue()
