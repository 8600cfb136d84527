"""End-to-end acceptance checks, one test per guarantee.

Each test pins down a user-visible promise of the package: the skew metrics
reproduce reference values, DetGreedy output is feasible whenever feasibility
is attainable, audited deviations on re-ranked synthetic data shrink at the
integrality rate, injected top-page bias is detected while null data stays
calibrated, the mixed-model fit matches closed-form oracles, measured churn
tracks the generating departure rates, and the whole pipeline is
byte-for-byte deterministic.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

from rankaudit import (
    EXTERNAL_BASELINE,
    GroupProportions,
    GroupScheme,
    MixedModelFit,
    ScoreModel,
    ScoredCandidate,
    SimConfig,
    check_feasibility,
    churn_grid,
    churn_protocol,
    consecutive_pairs,
    corrected_skew_curve,
    detgreedy_rerank,
    deviation_curve,
    generate,
    inject_topk_bias,
    min_skew_at_k,
    minskew_curve,
    minskew_protocol,
    observed_proportions,
    skew_at_k,
    wald_test,
)
from rankaudit.cli import main

from conftest import GENDER, child_env, snapshot


def score_models(mean: float = 0.6, spread: float = 0.15) -> dict[str, ScoreModel]:
    return {"F": ScoreModel(mean, spread), "M": ScoreModel(mean, spread)}


def test_skew_reference_values() -> None:
    started = time.monotonic()
    targets = GroupProportions(
        scheme=GENDER, shares={"F": 0.4, "M": 0.6}, source=EXTERNAL_BASELINE
    )

    thirty_seventy = snapshot("F" * 30 + "M" * 70)
    assert abs(skew_at_k(thirty_seventy, GENDER, targets, "F", 100) - (-0.2877)) < 5e-4
    assert abs(skew_at_k(thirty_seventy, GENDER, targets, "M", 100) - 0.154) < 5e-4
    assert abs(min_skew_at_k(thirty_seventy, GENDER, targets, 100) - (-0.2877)) < 5e-4

    nearly_balanced = snapshot("F" * 39 + "M" * 61)
    assert abs(min_skew_at_k(nearly_balanced, GENDER, targets, 100) - (-0.0253)) < 5e-4

    assert time.monotonic() - started < 1.0


def test_rerank_feasibility_sweep() -> None:
    """10,000 random pools: the re-ranker only misses a quota when the pool
    itself ran out of the needed group, and feasible prefixes stay within
    one candidate of the ideal count at every position."""
    started = time.monotonic()
    schemes = {
        2: GroupScheme("grp", ("A", "B")),
        3: GroupScheme("grp", ("A", "B", "C")),
    }
    rng = np.random.default_rng(20002)
    unexcused = 0
    fully_feasible = 0

    for trial in range(10_000):
        m = int(rng.integers(2, 4))
        scheme = schemes[m]
        n = int(rng.integers(10, 501))
        mix = rng.dirichlet(np.ones(m) * 2.0)
        group_idx = rng.choice(m, size=n, p=mix)
        counts = np.bincount(group_idx, minlength=m)
        if trial % 2 == 0:
            shares = counts / n
            proportions = GroupProportions(
                scheme=scheme,
                shares={lbl: float(s) for lbl, s in zip(scheme.labels, shares)},
                denominator=n,
            )
        else:
            shares = rng.dirichlet(np.ones(m))
            proportions = GroupProportions(
                scheme=scheme,
                shares={lbl: float(s) for lbl, s in zip(scheme.labels, shares)},
                source=EXTERNAL_BASELINE,
            )
        scores = rng.random(n)
        pool = [
            ScoredCandidate(f"c{i}", scheme.labels[g], float(s))
            for i, (g, s) in enumerate(zip(group_idx, scores))
        ]

        result = detgreedy_rerank(pool, proportions)
        by_id = {c.candidate_id: c.label for c in pool}
        order = [by_id[cid] for cid in result.order]
        assert check_feasibility(order, proportions) == result.violation_positions
        assert result.feasible == (result.violation_positions == ())

        index = {lbl: i for i, lbl in enumerate(scheme.labels)}
        placed = np.zeros((n, m), dtype=np.int64)
        placed[np.arange(n), [index[lbl] for lbl in order]] = 1
        prefix = np.cumsum(placed, axis=0)
        ks = np.arange(1, n + 1, dtype=np.float64)
        ideal = ks[:, None] * np.asarray([proportions.shares[lbl] for lbl in scheme.labels])
        floors = np.floor(ideal)
        ceils = np.ceil(ideal)

        if result.feasible:
            fully_feasible += 1
            assert np.all(np.abs(prefix - ideal) < 1.0)
            continue

        supply = counts
        before = np.vstack([np.zeros((1, m), dtype=np.int64), prefix[:-1]])
        # A short prefix is excusable only because the group has no members
        # left to give.
        floor_bad = (prefix < floors) & (prefix != supply)
        unexcused += int(floor_bad.sum())
        # An over-quota placement is excusable only when, at that moment,
        # every other group was exhausted or already at its own ceiling.
        overflow = (placed == 1) & (before + 1 > ceils)
        satisfied = (before >= ceils) | (before == supply)
        forced = np.all(satisfied | (placed == 1), axis=1)
        unexcused += int((overflow.any(axis=1) & ~forced).sum())

    assert unexcused == 0
    assert fully_feasible > 5_000  # exhaustion is the exception, not the rule
    assert time.monotonic() - started < 30.0


def test_reranked_audit_hits_integrality_tolerances() -> None:
    """Audit metrics on re-ranked synthetic data: mean absolute deviation
    beats 1/k from k=25 on, and the integrality-corrected skew stays inside
    0.05 at every page boundary for at least 95% of queries."""
    targets = {"F": 0.45, "M": 0.55}
    config = SimConfig(
        seed=77003,
        n_queries=300,
        pool_size=(160, 250),
        scheme=GENDER,
        group_weights=targets,
        score_models=score_models(),
        postprocess="detgreedy",
        postprocess_targets=targets,
    )
    proportions = GroupProportions(scheme=GENDER, shares=targets, source=EXTERNAL_BASELINE)
    result = generate(config)

    grid = list(range(25, 101))
    cutoffs = (25, 50, 75, 100)
    abs_dev = {label: np.zeros(len(grid)) for label in GENDER.labels}
    within_tolerance = 0
    for series in result.series:
        snap = series.snapshots[1]
        worst = 0.0
        for label in GENDER.labels:
            dev = deviation_curve(snap, GENDER, proportions, label, grid)
            abs_dev[label] += np.abs([dev.values[k] for k in grid])
            corr = corrected_skew_curve(snap, GENDER, proportions, label, cutoffs)
            worst = max(worst, max(abs(corr.values[k]) for k in cutoffs))
        within_tolerance += worst < 0.05

    for label in GENDER.labels:
        mean_dev = abs_dev[label] / len(result.series)
        assert np.all(mean_dev < 1.0 / np.asarray(grid, dtype=float))
    assert within_tolerance / len(result.series) >= 0.95


def test_page_bias_is_detected_and_null_data_stays_calibrated() -> None:
    """A strength-0.5 demotion of one group out of the first page must be
    flagged at p < 0.001, while untouched datasets reject a true null at
    most 7% of the time at the 5% level."""

    def base_config(seed: int, n_queries: int) -> SimConfig:
        return SimConfig(
            seed=seed,
            n_queries=n_queries,
            pool_size=(40, 60),
            scheme=GENDER,
            group_weights={"F": 0.5, "M": 0.5},
            score_models=score_models(),
        )

    def minskew_cells(series_list):
        curves = []
        for series in series_list:
            snap = series.snapshots[1]
            curves.append(
                minskew_curve(snap, GENDER, observed_proportions(snap, GENDER), (25,))
            )
        return curves

    # The finite-sample null level of MinSkew@25 is strictly negative even
    # for unbiased rankings, so calibrate it once from a large pilot.
    pilot = generate(base_config(seed=88_000, n_queries=10_000))
    pilot_values = [
        c.values[25]
        for c in minskew_cells(pilot.series)
        if c.values[25] is not None and math.isfinite(c.values[25])
    ]
    pilot_null = float(np.mean(pilot_values))
    assert pilot_null < 0.0

    biased_source = generate(base_config(seed=91_000, n_queries=200))
    biased, record = inject_topk_bias(biased_source.series, GENDER, "F", 0.5, seed=91_000)
    assert record["demotions"] > 0
    (row,) = minskew_protocol(minskew_cells(biased), null=pilot_null, cutoffs=(25,))
    assert row.p_value < 0.001
    (default_row,) = minskew_protocol(minskew_cells(biased), cutoffs=(25,))
    assert default_row.p_value < 0.001

    rejections = 0
    for replicate in range(200):
        clean_source = generate(base_config(seed=90_000 + replicate, n_queries=200))
        clean, _ = inject_topk_bias(clean_source.series, GENDER, "F", 0.0, seed=90_000 + replicate)
        (null_row,) = minskew_protocol(minskew_cells(clean), null=pilot_null, cutoffs=(25,))
        rejections += null_row.p_value < 0.05
    assert rejections / 200 <= 0.07


def test_mixed_model_matches_closed_forms_and_flags_benchmarks() -> None:
    """The random-intercept fit reproduces the balanced-design ANOVA
    estimators to 1e-6, collapses to ordinary least squares without a group
    effect, and its Wald test cleanly flags four published
    (estimate, standard error) pairs against a -0.011 null."""
    from rankaudit import LongObservation, fit_random_intercept

    rng = np.random.default_rng(101)
    G, q = 12, 5
    obs = []
    for j in range(G):
        b = rng.normal(0.0, 0.4)
        for y in 1.5 + b + rng.normal(0.0, 0.3, size=q):
            obs.append(LongObservation(f"g{j:02d}", float(y), {}))

    values = np.array([o.response for o in obs]).reshape(G, q)
    grand = values.mean()
    group_means = values.mean(axis=1)
    msb = q * ((group_means - grand) ** 2).sum() / (G - 1)
    msw = ((values - group_means[:, None]) ** 2).sum() / (G * q - G)
    assert msb > msw  # the draw carries a real group effect
    fit = fit_random_intercept(obs, ("intercept",))
    assert abs(fit.beta["intercept"] - grand) <= 1e-6 * abs(grand)
    assert abs(fit.sigma2 - msw) <= 1e-6 * msw
    assert abs(fit.tau2 - (msb - msw) / q) <= 1e-6 * abs((msb - msw) / q)
    assert abs(fit.se["intercept"] - math.sqrt(msb / (G * q))) <= 1e-6 * math.sqrt(msb / (G * q))

    # Seed chosen so the fitted variance ratio lands on the zero boundary,
    # where the mixed fit must coincide with ordinary least squares.
    flat_rng = np.random.default_rng(1)
    flat = []
    for j in range(15):
        x = flat_rng.normal(size=4)
        y = 2.0 - 0.5 * x + flat_rng.normal(0.0, 0.6, size=4)
        for xi, yi in zip(x, y):
            flat.append(LongObservation(f"g{j:02d}", float(yi), {"x": float(xi)}))
    ols_fit = fit_random_intercept(flat, ("intercept", "x"))
    assert ols_fit.var_ratio == 0.0
    assert ols_fit.tau2 == 0.0
    X = np.array([[1.0, o.covariates["x"]] for o in flat])
    y = np.array([o.response for o in flat])
    beta, (rss,), *_ = np.linalg.lstsq(X, y, rcond=None)
    assert abs(ols_fit.beta["intercept"] - beta[0]) <= 1e-6 * abs(beta[0])
    assert abs(ols_fit.beta["x"] - beta[1]) <= 1e-6 * abs(beta[1])
    assert abs(ols_fit.sigma2 - rss / (len(flat) - 2)) <= 1e-6 * rss / (len(flat) - 2)

    benchmarks = [(-0.360, 0.030), (-0.278, 0.031), (-0.247, 0.032), (-0.213, 0.031)]
    for estimate, se in benchmarks:
        reported = MixedModelFit(
            beta={"intercept": estimate},
            se={"intercept": se},
            tau2=0.0,
            sigma2=1.0,
            loglik=0.0,
            converged=True,
            n_obs=200,
            n_groups=200,
            var_ratio=0.0,
            method="reml",
        )
        test = wald_test(reported, "intercept", null_value=-0.011)
        assert test.z < 0.0
        assert abs(test.z) > 6.0


def test_measured_churn_tracks_departure_rates() -> None:
    started = time.monotonic()
    config = SimConfig(
        seed=424_242,
        n_queries=500,
        pool_size=(200, 200),
        scheme=GENDER,
        group_weights={"F": 0.5, "M": 0.5},
        score_models=score_models(),
        days=5,
        departure_probs={"F": 0.3, "M": 0.2},
    )
    result = generate(config)

    cells = []
    for series in result.series:
        cells.extend(churn_grid(series, GENDER, [200], consecutive_pairs(series)))
    for label, expected in (("F", 0.3), ("M", 0.2)):
        values = [c.churn for c in cells if c.label == label and c.churn is not None]
        assert abs(float(np.mean(values)) - expected) < 0.02

    rows = churn_protocol(cells, GENDER, cutoffs=(200,))
    group_row = next(row for row in rows if row.coefficient == "is_M")
    assert group_row.estimate < 0.0  # group M turns over more slowly
    assert group_row.p_value < 0.01
    assert time.monotonic() - started < 60.0


def test_pipeline_is_byte_for_byte_deterministic(tmp_path, monkeypatch) -> None:
    """The same seed produces identical files through simulate, audit,
    churn, both protocols, and the heatmap export - in this process and in
    fresh interpreter processes with another string-hash seed."""
    stages = [
        ["simulate", "--seed", "31337", "--queries", "40", "--pool", "120:140",
         "--days", "3", "--departures", "0.25,0.15", "--missing-prob", "0.1",
         "--postprocess", "detgreedy", "-o", "snapshots.jsonl", "--ledger", "truth.jsonl"],
        ["audit", "snapshots.jsonl", "--k-grid", "25,50,75,100", "-o", "curves.csv"],
        ["churn", "snapshots.jsonl", "--pairs", "consecutive", "--k-grid", "25,50", "-o", "churn.csv"],
        ["stats", "minskew-protocol", "snapshots.jsonl", "--cutoffs", "25,50", "-o", "minskew_protocol.csv"],
        ["stats", "churn-protocol", "snapshots.jsonl", "--cutoffs", "25,50", "-o", "churn_protocol.csv"],
        ["export", "curves.csv", "--metric", "minskew", "-o", "heatmap.csv"],
    ]

    def outputs(workdir) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    first = tmp_path / "in_process"
    first.mkdir()
    monkeypatch.chdir(first)
    for argv in stages:
        assert main(argv) == 0, argv

    second = tmp_path / "child_processes"
    second.mkdir()
    env = child_env()
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    for argv in stages:
        done = subprocess.run([sys.executable, "-m", "rankaudit.cli", *argv], cwd=second, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)

    one, two = outputs(first), outputs(second)
    assert set(one) == set(two)
    for name in one:
        assert one[name] == two[name], f"{name} differs between runs"
    assert len(one) == 7  # snapshots, ledger, curves, churn, 2 protocols, heatmap
