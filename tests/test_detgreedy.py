from __future__ import annotations

import io
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rankaudit import (
    EmptyPool,
    GroupProportions,
    GroupScheme,
    LabelWithoutProportion,
    RerankResult,
    ScoredCandidate,
    check_feasibility,
    detgreedy_rerank,
)

from rankaudit import MalformedRow, dataio

from conftest import GENDER
from reference_simulate import reference_rerank

HALF = GroupProportions(GENDER, {"F": 0.5, "M": 0.5})


def pool_of(*entries: tuple[str, str, float]) -> list[ScoredCandidate]:
    return [ScoredCandidate(cid, label, score) for cid, label, score in entries]


def prefix_counts_ok(result: RerankResult, labels_by_id: dict[str, str], props: GroupProportions) -> bool:
    """Independent check: every prefix count within [floor(kp), ceil(kp)]."""
    order = [labels_by_id[cid] for cid in result.order]
    ks = np.arange(1, len(order) + 1, dtype=float)
    for label in props.scheme.labels:
        cum = np.cumsum([lbl == label for lbl in order])
        scaled = props.shares[label] * ks
        if ((cum < np.floor(scaled)) | (cum > np.ceil(scaled))).any():
            return False
    return True


class TestRerankOrder:
    def test_interleaves_balanced_targets(self) -> None:
        # Enumerating all 4!/(2!2!) feasible label sequences shows FMFM is the
        # only one meeting every prefix bound with these scores on top.
        pool = pool_of(("f1", "F", 0.9), ("m1", "M", 0.8), ("f2", "F", 0.5), ("m2", "M", 0.4))
        result = detgreedy_rerank(pool, HALF)
        assert result.order == ("f1", "m1", "f2", "m2")
        assert result.feasible
        assert result.violation_positions == ()

    def test_serves_floor_before_score(self) -> None:
        # At position 2 the M floor kicks in even though f2 outscores m1.
        pool = pool_of(("f1", "F", 0.9), ("f2", "F", 0.8), ("m1", "M", 0.1))
        result = detgreedy_rerank(pool, HALF)
        assert result.order == ("f1", "m1", "f2")

    def test_equal_heads_fall_back_to_scheme_label_order(self) -> None:
        pool = pool_of(("m1", "M", 0.5), ("f1", "F", 0.5))
        assert detgreedy_rerank(pool, HALF).order == ("f1", "m1")

    def test_score_ties_within_group_break_by_candidate_id(self) -> None:
        pool = pool_of(("fb", "F", 0.5), ("fa", "F", 0.5), ("m1", "M", 0.9), ("m2", "M", 0.2))
        result = detgreedy_rerank(pool, HALF)
        assert result.order.index("fa") < result.order.index("fb")

    def test_group_members_stay_score_sorted(self) -> None:
        pool = pool_of(
            ("f1", "F", 0.2), ("f2", "F", 0.8), ("f3", "F", 0.5),
            ("m1", "M", 0.9), ("m2", "M", 0.1), ("m3", "M", 0.6),
        )
        result = detgreedy_rerank(pool, HALF)
        scores = {c.candidate_id: c.score for c in pool}
        for label in ("F", "M"):
            group = [scores[cid] for cid in result.order if cid.startswith(label.lower())]
            assert group == sorted(group, reverse=True)

    def test_rescaling_scores_keeps_the_order(self) -> None:
        pool = pool_of(("f1", "F", 0.9), ("m1", "M", 0.8), ("f2", "F", 0.5), ("m2", "M", 0.4))
        scaled = [ScoredCandidate(c.candidate_id, c.label, 3.0 * c.score + 5.0) for c in pool]
        assert detgreedy_rerank(pool, HALF).order == detgreedy_rerank(scaled, HALF).order


class TestRerankEdgeCases:
    def test_empty_pool_raises(self) -> None:
        with pytest.raises(EmptyPool):
            detgreedy_rerank([], HALF)

    def test_label_without_target_raises(self) -> None:
        with pytest.raises(LabelWithoutProportion):
            detgreedy_rerank(pool_of(("c1", "X", 0.5)), HALF)

    def test_duplicate_candidate_raises(self) -> None:
        with pytest.raises(ValueError, match="duplicate"):
            detgreedy_rerank(pool_of(("c1", "F", 0.5), ("c1", "M", 0.4)), HALF)

    def test_nonfinite_score_rejected_at_construction(self) -> None:
        with pytest.raises(ValueError):
            ScoredCandidate("c1", "F", math.nan)
        with pytest.raises(ValueError):
            ScoredCandidate("c1", "F", math.inf)

    def test_empty_id_or_label_rejected_at_construction(self) -> None:
        with pytest.raises(ValueError, match="candidate_id must be non-empty"):
            ScoredCandidate("", "F", 0.5)
        with pytest.raises(ValueError, match="label must be non-empty"):
            ScoredCandidate("c1", "", 0.5)

    @pytest.mark.parametrize("row, message", [
        (" ,F,0.5", "line 2: candidate_id must be non-empty"),
        ("c1, ,0.5", "line 2: label must be non-empty"),
        ("c1,F,nan", "line 2: score must be finite, got nan"),
        ("c1,F,-inf", "line 2: score must be finite, got -inf"),
    ])
    def test_read_pool_keeps_the_checks(self, tmp_path, row, message) -> None:
        path = tmp_path / "pool.csv"
        path.write_text(f"candidate_id,label,score\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=f"^{message}$"):
            dataio.read_pool(path)

    def test_read_pool_builds_checked_rows_without_checking_again(self, tmp_path) -> None:
        path = tmp_path / "pool.csv"
        path.write_text("candidate_id,label,score\nc1, F ,0.5\nc2,M,-1e3\n", encoding="utf-8")
        with mock.patch.object(ScoredCandidate, "__init__", side_effect=AssertionError("checked")):
            pool = dataio.read_pool(path)
        assert pool == [ScoredCandidate("c1", "F", 0.5), ScoredCandidate("c2", "M", -1000.0)]
        assert dataio.read_pool(io.StringIO("candidate_id,label,score\n")) == []

    def test_entries_are_slotted(self) -> None:
        entry = ScoredCandidate("c1", "F", 0.5)
        assert ScoredCandidate.__slots__ == ("candidate_id", "label", "score")
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError, match="cannot assign to field 'score'"):
            entry.score = 0.9

    def test_nan_target_rejected(self) -> None:
        with pytest.raises(ValueError, match="shares must be non-negative numbers"):
            GroupProportions(GENDER, {"F": math.nan, "M": 0.5})

    def test_four_groups_can_violate_with_every_group_supplied(self) -> None:
        # The at-most-three-groups guarantee does not extend to four: here a
        # falls below its floor at position 7 while all 24 of each group are
        # still on hand.
        labels = ("a", "b", "c", "d")
        props = GroupProportions(GroupScheme("tier", labels),
                                 {label: w / 21 for label, w in zip(labels, (9, 5, 1, 6))})
        pool = [ScoredCandidate(f"{label}{i:02d}", label, float(24 - i)) for label in labels for i in range(24)]
        result = detgreedy_rerank(pool, props)
        assert not result.feasible
        assert result.violation_positions[0] == (7, "a")
        placed = result.order[:7]
        assert all(sum(cid.startswith(label) for cid in placed) < 24 for label in labels)

    def test_exhausted_group_overflows_knowingly(self) -> None:
        # One M for four slots: the tail must violate both groups' bounds,
        # and the result says exactly where.
        pool = pool_of(("f1", "F", 0.9), ("f2", "F", 0.8), ("f3", "F", 0.7), ("m1", "M", 0.6))
        result = detgreedy_rerank(pool, HALF)
        assert not result.feasible
        assert result.violation_positions == ((4, "F"), (4, "M"))
        assert set(result.order) == {"f1", "f2", "f3", "m1"}

    def test_zero_share_group_is_released_last(self) -> None:
        lopsided = GroupProportions(GENDER, {"F": 1.0, "M": 0.0})
        pool = pool_of(("f1", "F", 0.1), ("m1", "M", 0.9))
        result = detgreedy_rerank(pool, lopsided)
        assert result.order == ("f1", "m1")
        assert not result.feasible
        assert result.violation_positions == ((2, "F"), (2, "M"))


class TestCheckFeasibility:
    def test_flags_first_floor_breach(self) -> None:
        violations = check_feasibility(["F", "F", "F", "F"], HALF)
        assert violations[0] == (2, "F")
        assert (2, "M") in violations

    def test_feasible_sequence_is_clean(self) -> None:
        assert check_feasibility(["F", "M", "M", "F"], HALF) == ()

    def test_unknown_label_raises(self) -> None:
        with pytest.raises(LabelWithoutProportion):
            check_feasibility(["F", "X"], HALF)

    def test_empty_sequence_is_feasible(self) -> None:
        assert check_feasibility([], HALF) == ()

    @given(
        st.lists(st.sampled_from("abc"), max_size=40),
        st.one_of(
            st.sampled_from([(0.2, 0.3, 0.5), (0.1, 0.2, 0.7), (1 / 3, 1 / 3, 1 / 3), (0.0, 1e-9, 1 - 1e-9)]),
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
            .map(lambda ab: (ab[0], ab[1], 1.0 - ab[0] - ab[1]))
            .filter(lambda shares: shares[2] >= 0.0),
        ),
    )
    def test_matches_a_prefix_loop(self, order: list[str], shares: tuple[float, float, float]) -> None:
        props = GroupProportions(GroupScheme("tier", ("a", "b", "c")), dict(zip("abc", shares)))
        expected = []
        for k in range(1, len(order) + 1):
            for label in "abc":
                x = props.shares[label] * k
                if not math.floor(x) <= order[:k].count(label) <= math.ceil(x):
                    expected.append((k, label))
        assert check_feasibility(order, props) == tuple(expected)


@st.composite
def ample_pools(draw):
    """Pools where both groups hold at least half the slots: never exhausted."""
    per_group = draw(st.integers(min_value=2, max_value=12))
    scores = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=2 * per_group,
            max_size=2 * per_group,
            unique=True,
        )
    )
    pool = []
    for i in range(per_group):
        pool.append(ScoredCandidate(f"f{i:03d}", "F", float(scores[2 * i])))
        pool.append(ScoredCandidate(f"m{i:03d}", "M", float(scores[2 * i + 1])))
    return pool


class TestInvariants:
    @given(ample_pools())
    @settings(max_examples=150)
    def test_balanced_targets_always_feasible(self, pool) -> None:
        result = detgreedy_rerank(pool, HALF)
        assert result.feasible
        labels = {c.candidate_id: c.label for c in pool}
        assert prefix_counts_ok(result, labels, HALF)
        assert check_feasibility([labels[cid] for cid in result.order], HALF) == ()

    @given(ample_pools())
    @settings(max_examples=100)
    def test_output_is_a_permutation(self, pool) -> None:
        result = detgreedy_rerank(pool, HALF)
        assert sorted(result.order) == sorted(c.candidate_id for c in pool)

    @given(ample_pools(), st.sampled_from([0.5, 2.0, 3.0]), st.sampled_from([-1.0, 0.0, 7.0]))
    @settings(max_examples=100)
    def test_affine_score_maps_leave_order_unchanged(self, pool, a, b) -> None:
        mapped = [ScoredCandidate(c.candidate_id, c.label, a * c.score + b) for c in pool]
        assert detgreedy_rerank(mapped, HALF).order == detgreedy_rerank(pool, HALF).order


@st.composite
def lopsided_pools(draw):
    """2-4 labels with arbitrary targets and group sizes, some of them too
    small (or empty) for their share, so groups run out mid-ranking."""
    labels = ("a", "b", "c", "d")[: draw(st.integers(min_value=2, max_value=4))]
    weights = draw(st.lists(st.integers(min_value=0, max_value=10), min_size=len(labels), max_size=len(labels))
                   .filter(any))
    props = GroupProportions(GroupScheme("tier", labels),
                             {label: w / sum(weights) for label, w in zip(labels, weights)})
    pool = [
        ScoredCandidate(f"{label}{i}", label, float(draw(st.integers(min_value=0, max_value=5))))
        for label in labels
        for i in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    return pool, props


@given(lopsided_pools().filter(lambda case: case[0]))
@settings(max_examples=300)
def test_violations_match_check_feasibility(case) -> None:
    pool, props = case
    result = detgreedy_rerank(pool, props)
    labels = {c.candidate_id: c.label for c in pool}
    assert result.violation_positions == check_feasibility([labels[cid] for cid in result.order], props)
    assert result.feasible == (result.violation_positions == ())


@st.composite
def scored_pools(draw):
    """2-5 labels, targets with zeros and uneven splits, float scores with
    ties, and group sizes from empty to well past their share."""
    labels = ("a", "b", "c", "d", "e")[: draw(st.integers(min_value=2, max_value=5))]
    weights = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=len(labels), max_size=len(labels))
                   .filter(any))
    props = GroupProportions(GroupScheme("tier", labels),
                             {label: w / sum(weights) for label, w in zip(labels, weights)})
    score = st.one_of(st.integers(min_value=0, max_value=3).map(float), st.floats(min_value=-1e6, max_value=1e6))
    pool = [
        ScoredCandidate(f"{label}{i}", label, draw(score))
        for label in labels
        for i in range(draw(st.integers(min_value=0, max_value=40)))
    ]
    return draw(st.permutations(pool)), props


# Every group's head scores 2.0, and a9/a10, b9/b10 and c9/c10 tie on score
# with ids whose string order (a10 first) is not their numeric order.  The
# examples give this pool in (descending score, id) order, reversed and
# shuffled.
TIERS = GroupProportions(GroupScheme("tier", ("a", "b", "c")), {"a": 0.5, "b": 0.3, "c": 0.2})
TIED = sorted(
    (ScoredCandidate(cid, cid[0], score) for cid, score in (
        ("a9", 2.0), ("a10", 2.0), ("b9", 2.0), ("b10", 2.0), ("c1", 2.0),
        ("a2", 1.0), ("b2", 1.0), ("c9", 1.0), ("c10", 1.0), ("a1", 0.5),
    )),
    key=lambda c: (-c.score, c.candidate_id),
)


@given(scored_pools().filter(lambda case: case[0]))
@settings(max_examples=400)
@example((TIED, TIERS))
@example((TIED[::-1], TIERS))
@example((random.Random(4).sample(TIED, len(TIED)), TIERS))
def test_matches_the_full_scan_reference(case) -> None:
    """Skipping pass 1 before a group can be due picks exactly what scanning
    every group at every position does, and the violations flagged match."""
    pool, props = case
    assert detgreedy_rerank(pool, props) == reference_rerank(pool, props)


@given(lopsided_pools(), st.sampled_from(["x", "a"]), st.integers(min_value=0, max_value=20))
@settings(max_examples=200)
def test_bad_pools_raise_as_the_reference_does(case, label, at) -> None:
    """A foreign label or a repeated id is named as the one-pass check named
    it: the first offending candidate in pool order."""
    pool, props = case
    bad = ScoredCandidate(pool[0].candidate_id if pool and label == "a" else "z9", label, 1.0)
    pool = pool[:at] + [bad] + pool[at:]
    errors = []
    for rerank in (detgreedy_rerank, reference_rerank):
        try:
            rerank(pool, props)
            errors.append(None)
        except (ValueError, LabelWithoutProportion) as exc:
            errors.append((type(exc), str(exc)))
    assert errors[0] == errors[1]
