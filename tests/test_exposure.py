from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from rankaudit import (
    AuditError,
    CutoffOutOfRange,
    DegenerateProportion,
    EmptyLabeledPool,
    EmptyLabeledPrefix,
    GroupProportions,
    GroupScheme,
    UnknownLabel,
    ZeroTargetProportion,
    best_attainable_skew,
    corrected_skew,
    corrected_skew_curve,
    deviation_at_k,
    deviation_curve,
    exposure,
    min_skew_at_k,
    minskew_curve,
    observed_proportions,
    page_cutoffs,
    skew_at_k,
    skew_curve,
    topk_counts,
)
from rankaudit.model import snapshot_counts

from conftest import GENDER, snapshot

HALF = GroupProportions(GENDER, {"F": 0.5, "M": 0.5})


def proportions(f_share: float) -> GroupProportions:
    return GroupProportions(GENDER, {"F": f_share, "M": 1.0 - f_share})


class TestPageCutoffs:
    def test_default_page_size(self) -> None:
        assert page_cutoffs(100) == (25, 50, 75, 100)
        assert page_cutoffs(110) == (25, 50, 75, 100)

    def test_limit_below_one_page_is_empty(self) -> None:
        assert page_cutoffs(24) == ()

    def test_custom_page_size(self) -> None:
        assert page_cutoffs(35, page_size=10) == (10, 20, 30)

    def test_rejects_nonpositive_page_size(self) -> None:
        with pytest.raises(ValueError):
            page_cutoffs(100, page_size=0)


class TestTopKCounts:
    def test_counts_only_scheme_labels(self) -> None:
        tally = topk_counts(snapshot("FFMx?"), GENDER, 5)
        assert tally.counts == {"F": 2, "M": 1}
        assert tally.labeled_total == 3

    def test_cutoff_bounds(self) -> None:
        snap = snapshot("FM")
        with pytest.raises(CutoffOutOfRange):
            topk_counts(snap, GENDER, 0)
        with pytest.raises(CutoffOutOfRange):
            topk_counts(snap, GENDER, 3)


class TestDeviation:
    def test_under_representation_is_positive(self) -> None:
        # F absent from the top 2 while targeted at 0.5.
        assert deviation_at_k(snapshot("MMFF"), GENDER, HALF, "F", 2) == pytest.approx(0.5)

    def test_share_uses_labeled_denominator(self) -> None:
        # Top 4 has one F among two labeled entries: share 1/2, target 0.4.
        snap = snapshot("Fx?M")
        assert deviation_at_k(snap, GENDER, proportions(0.4), "F", 4) == pytest.approx(0.4 - 0.5)

    def test_zero_target_is_allowed(self) -> None:
        assert deviation_at_k(snapshot("FM"), GENDER, proportions(0.0), "F", 2) == pytest.approx(-0.5)

    def test_empty_labeled_prefix_raises(self) -> None:
        with pytest.raises(EmptyLabeledPrefix):
            deviation_at_k(snapshot("xxFM"), GENDER, HALF, "F", 2)

    def test_unknown_label_raises(self) -> None:
        with pytest.raises(UnknownLabel):
            deviation_at_k(snapshot("FM"), GENDER, HALF, "X", 2)


class TestSkew:
    def test_matches_log_share_ratio(self) -> None:
        snap = snapshot("FFFMMMMMMM")  # 3 F in 10
        expected = math.log((3 / 10) / 0.4)
        assert skew_at_k(snap, GENDER, proportions(0.4), "F", 10) == pytest.approx(expected)

    def test_absent_group_is_negative_infinity(self) -> None:
        assert skew_at_k(snapshot("MM"), GENDER, HALF, "F", 2) == -math.inf

    def test_zero_target_raises(self) -> None:
        with pytest.raises(ZeroTargetProportion):
            skew_at_k(snapshot("FM"), GENDER, proportions(0.0), "F", 2)

    def test_empty_labeled_prefix_raises(self) -> None:
        with pytest.raises(EmptyLabeledPrefix):
            skew_at_k(snapshot("x?FM"), GENDER, HALF, "F", 2)

    def test_min_skew_takes_worst_group(self) -> None:
        snap = snapshot("FFFM")
        skews = [skew_at_k(snap, GENDER, HALF, lbl, 4) for lbl in ("F", "M")]
        assert min_skew_at_k(snap, GENDER, HALF, 4) == min(skews)


class TestBestAttainableSkew:
    def test_integral_target_count_attains_zero(self) -> None:
        assert best_attainable_skew(0.4, 25) == 0.0
        assert best_attainable_skew(0.5, 2) == 0.0

    def test_nearest_branch_wins(self) -> None:
        # k p* = 11.25: floor share 11/25, ceiling share 12/25.
        down = abs(math.log((11 / 25) / 0.45))
        up = abs(math.log((12 / 25) / 0.45))
        assert best_attainable_skew(0.45, 25) == pytest.approx(min(down, up))

    def test_floor_of_zero_is_excluded(self) -> None:
        # k p* = 0.6: an empty prefix has infinite skew, so only the
        # one-member branch counts.
        assert best_attainable_skew(0.3, 2) == pytest.approx(math.log((1 / 2) / 0.3))

    def test_rejects_degenerate_targets(self) -> None:
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DegenerateProportion):
                best_attainable_skew(p, 25)

    def test_rejects_nonpositive_cutoff(self) -> None:
        with pytest.raises(CutoffOutOfRange):
            best_attainable_skew(0.4, 0)


class TestCorrectedSkew:
    def test_shrinks_magnitude_keeping_sign(self) -> None:
        floor = best_attainable_skew(0.45, 25)
        assert corrected_skew(0.1, 0.45, 25) == pytest.approx(0.1 - floor)
        assert corrected_skew(-0.1, 0.45, 25) == pytest.approx(-(0.1 - floor))

    def test_best_attainable_prefix_scores_zero(self) -> None:
        floor = best_attainable_skew(0.45, 25)
        assert corrected_skew(-floor, 0.45, 25) == pytest.approx(0.0)

    def test_passthrough_values(self) -> None:
        assert corrected_skew(None, 0.4, 25) is None
        assert corrected_skew(-math.inf, 0.4, 25) == -math.inf
        assert corrected_skew(0.0, 0.4, 25) == 0.0


class TestCurves:
    def test_default_grid_covers_every_cutoff(self) -> None:
        curve = deviation_curve(snapshot("FMFM"), GENDER, HALF, "F")
        assert sorted(curve.values) == [1, 2, 3, 4]

    def test_cells_match_point_operation(self) -> None:
        snap = snapshot("FMMFFM")
        curve = skew_curve(snap, GENDER, proportions(0.4), "F")
        for k, value in curve.values.items():
            assert value == pytest.approx(skew_at_k(snap, GENDER, proportions(0.4), "F", k))

    def test_unusable_cells_are_none_not_errors(self) -> None:
        # Leading hidden entries leave early prefixes shareless; cutoffs
        # beyond the list are undefined rather than out-of-range errors.
        snap = snapshot("xxFM")
        curve = skew_curve(snap, GENDER, HALF, "F", k_grid=(1, 2, 3, 4, 9))
        assert curve.values[1] is None
        assert curve.values[2] is None
        assert curve.values[3] == pytest.approx(math.log((1 / 1) / 0.5))
        assert curve.values[9] is None

    def test_minskew_curve_undefined_until_all_groups_measurable(self) -> None:
        curve = minskew_curve(snapshot("FFM"), GENDER, HALF, k_grid=(1, 2, 3))
        assert curve.values[1] == -math.inf  # M absent: min(-inf, ...) defined
        assert curve.values[3] == pytest.approx(min(math.log((2 / 3) / 0.5), math.log((1 / 3) / 0.5)))
        assert curve.label is None
        assert curve.metric == "minskew"

    def test_corrected_curve_composes_correction(self) -> None:
        snap = snapshot("FFMMMFMM")
        raw = skew_curve(snap, GENDER, proportions(0.45), "F")
        corrected = corrected_skew_curve(snap, GENDER, proportions(0.45), "F")
        for k in raw.values:
            assert corrected.values[k] == pytest.approx(corrected_skew(raw.values[k], 0.45, k))

    def test_corrected_curve_rejects_degenerate_targets(self) -> None:
        snap = snapshot("FM")
        with pytest.raises(DegenerateProportion):
            corrected_skew_curve(snap, GENDER, proportions(1.0), "F")
        with pytest.raises(ZeroTargetProportion):
            corrected_skew_curve(snap, GENDER, proportions(1.0), "M")

    @pytest.mark.parametrize("build", [
        lambda snap, props: deviation_curve(snap, GENDER, props, "F"),
        lambda snap, props: skew_curve(snap, GENDER, props, "F"),
        lambda snap, props: minskew_curve(snap, GENDER, props),
        lambda snap, props: corrected_skew_curve(snap, GENDER, props, "F"),
        lambda snap, props: deviation_at_k(snap, GENDER, props, "F", 1),
    ], ids=["deviation", "skew", "minskew", "corrected_skew", "deviation_at_k"])
    def test_targets_of_another_scheme_raise_unknown_label(self, build) -> None:
        race = GroupProportions(GroupScheme("race", ("A", "B")), {"A": 0.5, "B": 0.5})
        with pytest.raises(UnknownLabel, match="^label 'F' not in scheme 'race'$"):
            build(snapshot("FM"), race)

    def test_defined_filters_out_none_cells(self) -> None:
        curve = skew_curve(snapshot("xFM"), GENDER, HALF, "F", k_grid=(1, 2, 3))
        assert set(curve.defined()) == {2, 3}


@st.composite
def labeled_snapshots(draw):
    labels = draw(st.text(alphabet="FMx?", min_size=1, max_size=40))
    f_share = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    return snapshot(labels), proportions(f_share)


class TestInvariants:
    @given(labeled_snapshots())
    def test_minskew_never_positive(self, case) -> None:
        snap, props = case
        curve = minskew_curve(snap, GENDER, props)
        for value in curve.values.values():
            if value is not None:
                assert value <= 1e-12

    @given(labeled_snapshots())
    def test_deviations_sum_to_zero_over_labels(self, case) -> None:
        snap, props = case
        curves = {lbl: deviation_curve(snap, GENDER, props, lbl) for lbl in GENDER.labels}
        for k in range(1, len(snap.entries) + 1):
            cells = [curves[lbl].values[k] for lbl in GENDER.labels]
            if all(c is not None for c in cells):
                assert sum(cells) == pytest.approx(0.0, abs=1e-12)

    @given(labeled_snapshots())
    def test_curve_agrees_with_point_errors(self, case) -> None:
        snap, props = case
        curve = skew_curve(snap, GENDER, props, "F")
        for k, cell in curve.values.items():
            try:
                point = skew_at_k(snap, GENDER, props, "F", k)
            except EmptyLabeledPrefix:
                assert cell is None
            else:
                if point == -math.inf:
                    assert cell == -math.inf
                else:
                    assert cell == pytest.approx(point)


# Per-cell reference for the curve builders, written out from the formulas
# rather than read from them: the point operations are themselves one-cell
# curves, so they cannot stand in for a reference.
THREE = GroupScheme("gender", ("A", "B", "C"))


def ref_share(snap, scheme, label, k):
    if k < 1 or k > len(snap.entries):
        return None
    window = [entry.label_for(scheme) for entry in snap.entries[:k]]
    labeled = sum(1 for one in window if one in scheme.labels)
    if labeled == 0:
        return None
    return sum(1 for one in window if one == label) / labeled


def ref_skew(snap, scheme, label, target, k):
    share = ref_share(snap, scheme, label, k)
    if share is None:
        return None
    if share == 0.0:
        return -math.inf
    return math.log(share / target)


def ref_corrected(snap, scheme, label, target, k):
    observed = ref_skew(snap, scheme, label, target, k)
    if observed is None or observed == -math.inf:
        return observed
    lo, hi = math.floor(k * target), math.ceil(k * target)
    if lo == hi:
        floor_term = 0.0
    elif lo == 0:
        floor_term = abs(math.log((hi / k) / target))
    else:
        floor_term = min(abs(math.log((lo / k) / target)), abs(math.log((hi / k) / target)))
    if observed == 0.0:
        return 0.0
    return (1.0 if observed > 0.0 else -1.0) * (abs(observed) - floor_term)


def ref_minskew(snap, scheme, props, k):
    skews = [ref_skew(snap, scheme, label, props.shares[label], k) for label in scheme.labels]
    return None if any(s is None for s in skews) else min(skews)


# Targets a share can equal exactly (skew 0.0), and targets near 0 and 1.
FIRST_TARGETS = [1 / 2, 1 / 3, 1 / 4, 2 / 3, 3 / 4, 2 / 5, 1e-9, 1e-4, 1 - 1e-4, 1 - 1e-9]


@st.composite
def curve_cases(draw):
    scheme = draw(st.sampled_from([GENDER, THREE]))
    # "?" is unlabeled, "x" hidden and "Z" outside the scheme.
    labels = draw(st.text(alphabet="".join(scheme.labels) + "x?Z", max_size=30))
    first = draw(st.one_of(st.sampled_from(FIRST_TARGETS), st.floats(1e-6, 1 - 1e-6)))
    rest = (1.0 - first) / (len(scheme.labels) - 1)
    props = GroupProportions(scheme, {label: first if i == 0 else rest for i, label in enumerate(scheme.labels)})
    n = len(labels)
    cutoffs = draw(st.lists(st.integers(-3, n + 3), max_size=12))
    grid = draw(st.permutations(cutoffs + [0, -1, 1, n, n + 1] + cutoffs[:2]))
    return snapshot(labels), scheme, props, draw(st.one_of(st.none(), st.just(grid)))


@settings(max_examples=300, deadline=None)
@given(curve_cases())
# Shares on target (exact 0.0), an empty labeled prefix and an absent group.
@example((snapshot("x?FMMF"), GENDER, HALF, [6, 0, 2, -1, 4, 2, 7, 1]))
@example((snapshot("AAZB"), THREE, GroupProportions(THREE, {"A": 1 - 2e-9, "B": 1e-9, "C": 1e-9}), None))
def test_curves_match_the_per_cell_formulas_bit_for_bit(case) -> None:
    snap, scheme, props, grid = case
    cutoffs = list(range(1, len(snap.entries) + 1)) if grid is None else grid
    expected = {
        (exposure.MINSKEW, None): {k: ref_minskew(snap, scheme, props, k) for k in cutoffs},
    }
    built = [minskew_curve(snap, scheme, props, grid)]
    for label in scheme.labels:
        target = props.shares[label]
        expected[exposure.DEVIATION, label] = {
            k: None if (share := ref_share(snap, scheme, label, k)) is None else target - share for k in cutoffs
        }
        expected[exposure.SKEW, label] = {k: ref_skew(snap, scheme, label, target, k) for k in cutoffs}
        expected[exposure.CORRECTED_SKEW, label] = {
            k: ref_corrected(snap, scheme, label, target, k) for k in cutoffs
        }
        built += [
            deviation_curve(snap, scheme, props, label, grid),
            skew_curve(snap, scheme, props, label, grid),
            corrected_skew_curve(snap, scheme, props, label, grid),
        ]
    assert len(built) == len(expected)
    for curve in built:
        want = expected[curve.metric, curve.label]
        assert list(curve.values) == list(want)
        assert [repr(v) for v in curve.values.values()] == [repr(v) for v in want.values()], curve.metric


CURVE_METRICS = (exposure.DEVIATION, exposure.SKEW, exposure.MINSKEW, exposure.CORRECTED_SKEW)


@settings(max_examples=200, deadline=None)
@given(
    case=curve_cases(),
    calls=st.lists(
        st.tuples(st.sampled_from(CURVE_METRICS), st.booleans(), st.booleans(), st.integers(0, 2)),
        min_size=1, max_size=12,
    ),
)
def test_rows_kept_on_a_table_read_like_a_fresh_table(case, calls) -> None:
    # Builders called in any order on one table, against two targets (the
    # snapshot's observed shares and a baseline) and two grids, give what
    # each gives on a table of its own, bit for bit, or the same error.
    snap, scheme, baseline, grid = case
    try:
        observed = observed_proportions(snap, scheme)
    except EmptyLabeledPool:
        observed = GroupProportions(scheme, {label: 1 / len(scheme.labels) for label in scheme.labels})
    grids = (None, grid if grid is not None else [2, len(snap.entries) + 1, 1])
    shared = snapshot_counts(snap, scheme)

    def build(metric, targets, k_grid, label, counts):
        builder = getattr(exposure, f"{metric}_curve")
        args = (targets, k_grid) if metric == exposure.MINSKEW else (targets, label, k_grid)
        try:
            curve = builder(snap, scheme, *args, counts=counts)
        except AuditError as exc:
            return type(exc), str(exc)
        return list(curve.values), [repr(value) for value in curve.values.values()]

    for metric, use_observed, full_grid, label_index in calls:
        targets = observed if use_observed else baseline
        label = scheme.labels[label_index % len(scheme.labels)]
        k_grid = grids[0] if full_grid else grids[1]
        fresh = snapshot_counts(snap, scheme)
        assert build(metric, targets, k_grid, label, shared) == build(metric, targets, k_grid, label, fresh), metric
