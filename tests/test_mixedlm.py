from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from rankaudit import (
    AuditError,
    ChurnCell,
    CoefficientMissing,
    FitRefused,
    GroupScheme,
    LongObservation,
    MetricCurve,
    MixedModelFit,
    NonConvergence,
    RankDeficientDesign,
    TooFewGroups,
    churn_protocol,
    fit_random_intercept,
    minskew_protocol,
    wald_test,
)

from rankaudit import mixedlm
from rankaudit.model import replace

from conftest import GENDER


def balanced_data(G: int, q: int, tau: float, sigma: float, seed: int) -> list[LongObservation]:
    rng = np.random.default_rng(seed)
    obs = []
    for j in range(G):
        b = rng.normal(0.0, tau)
        for y in 1.5 + b + rng.normal(0.0, sigma, size=q):
            obs.append(LongObservation(f"g{j:03d}", float(y), {}))
    return obs


def covariate_data(G: int, q: int, tau: float, sigma: float, seed: int) -> list[LongObservation]:
    rng = np.random.default_rng(seed)
    obs = []
    for j in range(G):
        b = rng.normal(0.0, tau)
        x = rng.normal(size=q)
        y = 2.0 - 0.5 * x + b + rng.normal(0.0, sigma, size=q)
        for xi, yi in zip(x, y):
            obs.append(LongObservation(f"g{j:03d}", float(yi), {"x": float(xi)}))
    return obs


def balanced_anova(obs: list[LongObservation]) -> dict[str, float]:
    """Closed-form REML for the balanced one-way random-effects model."""
    groups: dict[str, list[float]] = {}
    for o in obs:
        groups.setdefault(o.query_id, []).append(o.response)
    q = len(next(iter(groups.values())))
    G = len(groups)
    n = G * q
    grand = sum(sum(v) for v in groups.values()) / n
    group_means = {g: sum(v) / q for g, v in groups.items()}
    msb = q * sum((m - grand) ** 2 for m in group_means.values()) / (G - 1)
    msw = sum(
        (y - group_means[g]) ** 2 for g, v in groups.items() for y in v
    ) / (n - G)
    tau2 = max((msb - msw) / q, 0.0)
    return {
        "beta": grand,
        "sigma2": msw,
        "tau2": tau2,
        "se": math.sqrt(msb / (G * q)),
        "ratio": tau2 / msw,
    }


def dense_gls(obs, names, lam):
    """Direct dense-matrix GLS at a fixed variance ratio, for cross-checking."""
    ids = sorted({o.query_id for o in obs})
    code = {g: i for i, g in enumerate(ids)}
    n, p = len(obs), len(names)
    X = np.array([[1.0 if nm == "intercept" else o.covariates[nm] for nm in names] for o in obs])
    y = np.array([o.response for o in obs])
    Z = np.zeros((n, len(ids)))
    for r, o in enumerate(obs):
        Z[r, code[o.query_id]] = 1.0
    W = np.eye(n) + lam * Z @ Z.T
    Wi = np.linalg.inv(W)
    xtwix = X.T @ Wi @ X
    beta = np.linalg.solve(xtwix, X.T @ Wi @ y)
    resid = y - X @ beta
    rss = float(resid @ Wi @ resid)
    sigma2 = rss / (n - p)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtwix)))
    return beta, sigma2, se


class TestBalancedOracle:
    def test_matches_closed_form_anova(self) -> None:
        obs = balanced_data(G=15, q=6, tau=0.4, sigma=0.3, seed=11)
        oracle = balanced_anova(obs)
        assert oracle["tau2"] > 0.0  # the draw really has between-group spread
        fit = fit_random_intercept(obs, ("intercept",))
        assert fit.converged
        assert fit.beta["intercept"] == pytest.approx(oracle["beta"], rel=1e-9)
        assert fit.sigma2 == pytest.approx(oracle["sigma2"], rel=1e-6)
        assert fit.tau2 == pytest.approx(oracle["tau2"], rel=1e-6)
        assert fit.se["intercept"] == pytest.approx(oracle["se"], rel=1e-6)
        assert fit.var_ratio == pytest.approx(oracle["ratio"], rel=1e-5)

    def test_no_group_effect_degrades_to_ols(self) -> None:
        # MSB < MSW here, so the ratio sits on the boundary and the fit is
        # exactly ordinary least squares.
        obs = covariate_data(G=12, q=4, tau=0.0, sigma=0.6, seed=29)
        fit = fit_random_intercept(obs, ("intercept", "x"))
        assert fit.var_ratio == 0.0
        assert fit.tau2 == 0.0
        X = np.array([[1.0, o.covariates["x"]] for o in obs])
        y = np.array([o.response for o in obs])
        beta, (rss,), *_ = np.linalg.lstsq(X, y, rcond=None)
        sigma2 = rss / (len(obs) - 2)
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
        assert fit.beta["intercept"] == pytest.approx(beta[0], rel=1e-9)
        assert fit.beta["x"] == pytest.approx(beta[1], rel=1e-9)
        assert fit.sigma2 == pytest.approx(sigma2, rel=1e-9)
        assert fit.se["intercept"] == pytest.approx(se[0], rel=1e-9)
        assert fit.se["x"] == pytest.approx(se[1], rel=1e-9)


class TestProfiledFit:
    def test_agrees_with_dense_gls_at_fitted_ratio(self) -> None:
        obs = covariate_data(G=10, q=5, tau=0.5, sigma=0.4, seed=3)
        names = ("intercept", "x")
        fit = fit_random_intercept(obs, names)
        beta, sigma2, se = dense_gls(obs, names, fit.var_ratio)
        assert fit.beta["intercept"] == pytest.approx(beta[0], rel=1e-8)
        assert fit.beta["x"] == pytest.approx(beta[1], rel=1e-8)
        assert fit.sigma2 == pytest.approx(sigma2, rel=1e-8)
        assert fit.se["intercept"] == pytest.approx(se[0], rel=1e-8)
        assert fit.se["x"] == pytest.approx(se[1], rel=1e-8)

    def test_fitted_ratio_is_a_criterion_minimum(self) -> None:
        # Nudging lambda either way from the fitted value cannot find a
        # better restricted criterion (checked through the public fit by
        # comparing dense REML criteria).
        obs = covariate_data(G=10, q=5, tau=0.5, sigma=0.4, seed=7)
        names = ("intercept", "x")
        fit = fit_random_intercept(obs, names)

        def criterion(lam: float) -> float:
            beta, _, _ = dense_gls(obs, names, lam)
            ids = sorted({o.query_id for o in obs})
            code = {g: i for i, g in enumerate(ids)}
            n = len(obs)
            X = np.array([[1.0 if nm == "intercept" else o.covariates[nm] for nm in names] for o in obs])
            y = np.array([o.response for o in obs])
            Z = np.zeros((n, len(ids)))
            for r, o in enumerate(obs):
                Z[r, code[o.query_id]] = 1.0
            W = np.eye(n) + lam * Z @ Z.T
            Wi = np.linalg.inv(W)
            resid = y - X @ beta
            return (
                (n - len(names)) * math.log(float(resid @ Wi @ resid))
                + math.log(np.linalg.det(W))
                + math.log(np.linalg.det(X.T @ Wi @ X))
            )

        at_hat = criterion(fit.var_ratio)
        for factor in (0.9, 1.1):
            assert criterion(fit.var_ratio * factor) >= at_hat - 1e-7

    def test_response_shift_and_scale_transform_consistently(self) -> None:
        obs = covariate_data(G=12, q=4, tau=0.4, sigma=0.5, seed=17)
        names = ("intercept", "x")
        base = fit_random_intercept(obs, names)
        scaled = fit_random_intercept(
            [LongObservation(o.query_id, 3.0 * o.response - 2.0, o.covariates) for o in obs],
            names,
        )
        assert scaled.var_ratio == pytest.approx(base.var_ratio, rel=1e-6)
        assert scaled.beta["intercept"] == pytest.approx(3.0 * base.beta["intercept"] - 2.0, rel=1e-6)
        assert scaled.beta["x"] == pytest.approx(3.0 * base.beta["x"], rel=1e-6)
        assert scaled.sigma2 == pytest.approx(9.0 * base.sigma2, rel=1e-6)
        assert scaled.tau2 == pytest.approx(9.0 * base.tau2, rel=1e-6)
        assert scaled.se["x"] == pytest.approx(3.0 * base.se["x"], rel=1e-6)

    def test_singleton_groups_report_boundary_fit(self) -> None:
        rng = np.random.default_rng(41)
        obs = [
            LongObservation(f"g{i}", float(y), {})
            for i, y in enumerate(rng.normal(0.2, 1.0, size=60))
        ]
        fit = fit_random_intercept(obs, ("intercept",))
        assert fit.converged
        assert fit.var_ratio == 0.0
        assert fit.tau2 == 0.0
        y = np.array([o.response for o in obs])
        assert fit.beta["intercept"] == pytest.approx(float(y.mean()), rel=1e-12)
        assert fit.se["intercept"] == pytest.approx(float(y.std(ddof=1) / math.sqrt(len(y))), rel=1e-9)

    def test_ml_method_uses_unrestricted_dof(self) -> None:
        obs = balanced_data(G=10, q=4, tau=0.3, sigma=0.5, seed=23)
        reml = fit_random_intercept(obs, ("intercept",), method="reml")
        ml = fit_random_intercept(obs, ("intercept",), method="ml")
        assert ml.method == "ml"
        assert math.isfinite(ml.loglik)
        # Same data, same model: the ML variance cannot exceed the REML one.
        assert ml.sigma2 <= reml.sigma2 * (1.0 + 1e-9)


class TestFitErrors:
    def test_single_group_rejected(self) -> None:
        obs = [LongObservation("g0", float(i), {}) for i in range(5)]
        with pytest.raises(TooFewGroups):
            fit_random_intercept(obs, ("intercept",))

    def test_rank_deficient_design_rejected(self) -> None:
        obs = covariate_data(G=6, q=3, tau=0.2, sigma=0.4, seed=2)
        doubled = [
            LongObservation(o.query_id, o.response, {"x": o.covariates["x"], "x2": o.covariates["x"]})
            for o in obs
        ]
        with pytest.raises(RankDeficientDesign):
            fit_random_intercept(doubled, ("intercept", "x", "x2"))

    def test_absent_covariate_rejected(self) -> None:
        obs = balanced_data(G=4, q=3, tau=0.2, sigma=0.4, seed=2)
        with pytest.raises(ValueError, match="lacks covariate"):
            fit_random_intercept(obs, ("intercept", "x"))

    def test_too_few_observations_rejected(self) -> None:
        obs = [LongObservation("g0", 1.0, {}), LongObservation("g1", 2.0, {})]
        with pytest.raises(ValueError):
            fit_random_intercept(obs, ("intercept",))
        with pytest.raises(FitRefused, match="need at least 3 observations"):
            fit_random_intercept(obs, ("intercept",))
        assert issubclass(FitRefused, AuditError)

    def test_pure_group_structure_exhausts_the_ratio_search(self) -> None:
        # Zero within-group variance pushes the ratio beyond any bound.
        obs = []
        for j in range(8):
            for _ in range(3):
                obs.append(LongObservation(f"g{j}", float(j), {}))
        with pytest.raises(NonConvergence):
            fit_random_intercept(obs, ("intercept",))

    def test_unknown_method_rejected(self) -> None:
        obs = balanced_data(G=4, q=3, tau=0.2, sigma=0.4, seed=2)
        with pytest.raises(ValueError, match="method"):
            fit_random_intercept(obs, ("intercept",), method="mcmc")


def random_profile(seed: int) -> mixedlm._Profile:
    """A profiled criterion's statistics for a seeded random design: 1-3
    coefficients, 3-12 groups of 1-6 rows, tau drawn from 0 to 10."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    sizes = rng.integers(1, 7, size=int(rng.integers(3, 13)))
    sizes[0] = max(int(sizes[0]), 2)  # at least one repeated query
    tau = float(rng.choice([0.0, 0.05, 0.3, 1.0, 3.0, 10.0]))
    codes = np.repeat(np.arange(len(sizes)), sizes)
    X = np.column_stack([np.ones(len(codes)), rng.normal(size=(len(codes), p - 1))])
    y = X @ rng.normal(size=p) + rng.normal(0.0, tau, len(sizes))[codes] + rng.normal(size=len(codes))
    return mixedlm._Profile(X, y, codes, len(sizes))


class TestBoundedMinimize:
    """The in-module bounded search retraces scipy's, float for float."""

    @staticmethod
    def same_as_scipy(func, lo: float, hi: float, xatol: float) -> int:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        x, fx = mixedlm._bounded_minimize(func, lo, hi, xatol)
        assert (x, fx) == (res.x, res.fun), (lo, hi, xatol)
        return int(res.nfev)

    def test_matches_scipy_on_profiled_criteria(self) -> None:
        grid = [0.0] + list(np.logspace(-8.0, 8.0, 65))
        log_grid = [math.log(lam) for lam in grid[1:]]
        cases = 0
        for seed in range(40):
            profile = random_profile(seed)
            for reml in (True, False):
                def objective(lam: float) -> float:
                    return profile.criterion(lam, reml)

                def in_logs(u: float) -> float:
                    return objective(math.exp(u))

                # The boundary branch of _minimize_ratio ...
                self.same_as_scipy(objective, 0.0, grid[1], 1e-12)
                # ... and its log-space bracket around the best grid point,
                # plus a spread of other brackets along the grid.
                values = [objective(lam) for lam in grid]
                best = min(max(int(np.argmin(values)), 2), len(grid) - 2)
                for i in sorted({best, *range(2 + seed % 7, len(grid) - 1, 7)}):
                    self.same_as_scipy(in_logs, log_grid[i - 2], log_grid[i], 0.5e-8)
                    cases += 1
        assert cases > 700

    def test_matches_scipy_when_the_evaluation_budget_runs_out(self) -> None:
        # Without an absolute tolerance, a search toward a minimum at the
        # bound 0 never meets its relative stopping rule.  A criterion alone
        # goes flat in floating point near 0 and lets the search stop, so it
        # is scaled by x, which keeps it increasing at every scale.
        profile = random_profile(2)
        calls = []

        def objective(x: float) -> float:
            calls.append(x)
            return x * profile.criterion(x, False)

        assert self.same_as_scipy(objective, 0.0, 1e-8, 0.0) == 500
        assert len(calls) == 1000


class TestMonteCarlo:
    def test_recovery_within_three_standard_errors(self) -> None:
        hits = 0
        reps = 500
        for rep in range(reps):
            obs = covariate_data(G=30, q=3, tau=0.3, sigma=0.5, seed=10_000 + rep)
            fit = fit_random_intercept(obs, ("intercept", "x"))
            ok = (
                abs(fit.beta["intercept"] - 2.0) <= 3.0 * fit.se["intercept"]
                and abs(fit.beta["x"] + 0.5) <= 3.0 * fit.se["x"]
            )
            hits += ok
        # Joint 2-coefficient coverage at three standard errors; the finite
        # number of groups costs a little relative to the asymptotic 99.5%.
        assert hits / reps >= 0.98

    def test_null_rejection_rate_is_calibrated(self) -> None:
        rejections = 0
        reps = 1000
        for rep in range(reps):
            obs = covariate_data(G=25, q=3, tau=0.3, sigma=0.5, seed=50_000 + rep)
            fit = fit_random_intercept(obs, ("intercept", "x"))
            test = wald_test(fit, "x", null_value=-0.5)  # the generating value
            rejections += test.p_value < 0.05
        assert 30 <= rejections <= 70  # nominal 50 of 1000


class TestWaldTest:
    def make_fit(self) -> MixedModelFit:
        obs = balanced_data(G=10, q=4, tau=0.3, sigma=0.5, seed=31)
        return fit_random_intercept(obs, ("intercept",))

    def test_z_and_two_sided_p(self) -> None:
        fit = self.make_fit()
        test = wald_test(fit, "intercept", null_value=1.0)
        expected_z = (fit.beta["intercept"] - 1.0) / fit.se["intercept"]
        assert test.z == pytest.approx(expected_z)
        assert test.p_value == pytest.approx(math.erfc(abs(expected_z) / math.sqrt(2.0)))
        lo, hi = test.ci95
        assert lo == pytest.approx(fit.beta["intercept"] - 1.96 * fit.se["intercept"])
        assert hi == pytest.approx(fit.beta["intercept"] + 1.96 * fit.se["intercept"])

    def test_null_at_estimate_gives_p_one(self) -> None:
        fit = self.make_fit()
        test = wald_test(fit, "intercept", null_value=fit.beta["intercept"])
        assert test.z == 0.0
        assert test.p_value == pytest.approx(1.0)

    def test_absent_coefficient_rejected(self) -> None:
        with pytest.raises(CoefficientMissing):
            wald_test(self.make_fit(), "slope")

    def test_non_converged_fit_is_refused(self) -> None:
        fit = replace(self.make_fit(), converged=False)
        with pytest.raises(FitRefused, match="non-converged"):
            wald_test(fit, "intercept")


def curve_at(query_id: str, day: int, values: dict[int, float | None]) -> MetricCurve:
    return MetricCurve(
        query_id=query_id, day=day, attribute="gender", label=None, metric="minskew", values=values
    )


class TestMinskewProtocol:
    def test_balanced_intercept_is_the_grand_mean(self) -> None:
        rng = np.random.default_rng(6)
        curves = []
        raw = []
        for qi in range(12):
            offset = rng.normal(0.0, 0.05)
            for day in (1, 2):
                value = -0.2 + offset + rng.normal(0.0, 0.02)
                raw.append(value)
                curves.append(curve_at(f"q{qi}", day, {25: value}))
        rows = minskew_protocol(curves, null=-0.011, cutoffs=(25,))
        assert len(rows) == 1
        row = rows[0]
        assert row.k == 25 and row.coefficient == "intercept"
        assert row.estimate == pytest.approx(float(np.mean(raw)), rel=1e-9)
        assert row.n_obs == 24 and row.n_groups == 12 and row.n_excluded == 0
        assert row.z == pytest.approx((row.estimate + 0.011) / row.se)

    @pytest.mark.parametrize("null", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_null_is_refused_before_any_fit(self, null, monkeypatch) -> None:
        monkeypatch.setattr(mixedlm, "fit_random_intercept", mock.Mock(side_effect=AssertionError("fitted")))
        with pytest.raises(ValueError, match="null must be finite"):
            minskew_protocol([curve_at("q0", 1, {25: -0.1})], null=null, cutoffs=(25,))

    def test_undefined_and_negative_infinity_cells_are_excluded(self) -> None:
        curves = [
            curve_at("q0", 1, {25: -0.1, 50: -0.05}),
            curve_at("q1", 1, {25: None, 50: -0.15}),
            curve_at("q2", 1, {25: -math.inf, 50: -0.25}),
            curve_at("q3", 1, {25: -0.3, 50: None}),
            curve_at("q4", 1, {25: -0.2, 50: -0.1}),
        ]
        rows = minskew_protocol(curves, cutoffs=(25, 50))
        by_k = {row.k: row for row in rows}
        assert by_k[25].n_excluded == 2
        assert by_k[25].n_obs == 3
        assert by_k[50].n_excluded == 1
        assert by_k[50].n_obs == 4

    def test_failed_cutoff_gets_an_undefined_row(self) -> None:
        rng = np.random.default_rng(8)
        curves = [
            curve_at(f"q{qi}", day, {25: float(rng.normal(-0.2, 0.05)), 50: -0.1 if qi < 2 and day == 1 else None})
            for qi in range(6)
            for day in (1, 2)
        ]
        rows = minskew_protocol(curves, cutoffs=(25, 50))
        assert rows[0] == minskew_protocol(curves, cutoffs=(25,))[0]
        assert rows[0].reason is None
        failed = rows[1]
        assert (failed.k, failed.coefficient) == (50, "intercept")
        assert failed.reason == "need at least 3 observations for 1 coefficients, got 2"
        assert [failed.estimate, failed.se, failed.z, failed.p_value, failed.ci_lo, failed.ci_hi] == [None] * 6
        assert (failed.n_obs, failed.n_groups, failed.n_excluded) == (2, 2, 10)

    def test_unexpected_fit_errors_propagate(self, monkeypatch) -> None:
        def broken(*args, **kwargs):
            raise ValueError("not a documented fit failure")

        monkeypatch.setattr(mixedlm, "fit_random_intercept", broken)
        with pytest.raises(ValueError, match="not a documented"):
            minskew_protocol([curve_at("q0", 1, {25: -0.1})], cutoffs=(25,))


class TestChurnProtocol:
    def make_cells(self, gap_effect: float = 0.12) -> list[ChurnCell]:
        rng = np.random.default_rng(9)
        cells = []
        for qi in range(40):
            offset = rng.normal(0.0, 0.03)
            for end_day in (2, 3):
                for label, bump in (("F", 0.0), ("M", gap_effect)):
                    value = 0.25 + bump + 0.02 * end_day + offset + rng.normal(0.0, 0.01)
                    cells.append(
                        ChurnCell(
                            query_id=f"q{qi:02d}",
                            attribute="gender",
                            label=label,
                            k=25,
                            start_day=1,
                            end_day=end_day,
                            churn=float(np.clip(value, 0.0, 1.0)),
                            base_count=10,
                        )
                    )
        return cells

    def test_recovers_group_gap_and_day_slope(self) -> None:
        rows = churn_protocol(self.make_cells(), GENDER, cutoffs=(25,))
        by_coef = {row.coefficient: row for row in rows}
        assert set(by_coef) == {"is_M", "day"}
        assert by_coef["is_M"].estimate == pytest.approx(0.12, abs=0.01)
        assert by_coef["day"].estimate == pytest.approx(0.02, abs=0.01)
        assert by_coef["is_M"].p_value < 1e-6

    def test_queries_with_undefined_cells_are_dropped(self) -> None:
        cells = self.make_cells()
        broken = cells[0]
        cells[0] = ChurnCell(
            query_id=broken.query_id,
            attribute=broken.attribute,
            label=broken.label,
            k=25,
            start_day=broken.start_day,
            end_day=broken.end_day,
            churn=None,
            base_count=0,
        )
        rows = churn_protocol(cells, GENDER, cutoffs=(25,))
        assert rows[0].n_excluded == 1
        assert rows[0].n_groups == 39

    def test_failed_cutoff_gets_undefined_rows(self) -> None:
        # At k=50 every cell ends on day 2, so the day column duplicates the
        # intercept and the design is rank deficient.
        cells = self.make_cells()
        cells += [replace(cell, k=50) for cell in cells if cell.end_day == 2]
        rows = churn_protocol(cells, GENDER, cutoffs=(25, 50))
        assert rows[:2] == churn_protocol(cells, GENDER, cutoffs=(25,))
        assert [(row.k, row.coefficient) for row in rows[2:]] == [(50, "is_M"), (50, "day")]
        for row in rows[2:]:
            assert row.reason == "fixed-effect design is rank deficient"
            assert [row.estimate, row.se, row.z, row.p_value, row.ci_lo, row.ci_hi] == [None] * 6
            assert (row.n_obs, row.n_groups, row.n_excluded) == (80, 40, 0)

    def test_requires_two_label_scheme(self) -> None:
        wide = GroupScheme("region", ("EU", "US", "APAC"))
        with pytest.raises(ValueError):
            churn_protocol([], wide, cutoffs=(25,))
