"""Random-intercept linear mixed models and the audit test protocols.

The model is ``y = X beta + Z b + e`` with one random intercept per query:
``b ~ N(0, tau^2 I)``, ``e ~ N(0, sigma^2 I)``.  Writing ``lambda`` for the
variance ratio ``tau^2 / sigma^2`` gives ``y ~ N(X beta, sigma^2 W)`` with
``W = I + lambda Z Z^T`` block diagonal, so everything profiles down to a
one-dimensional search:

* ``W^-1`` restricted to a query with ``n_j`` rows is
  ``I - (lambda / (1 + lambda n_j)) J``,
* ``log |W| = sum_j log(1 + lambda n_j)``,
* GLS at fixed lambda gives ``beta_hat`` and the residual quadratic form
  ``r^T W^-1 r``, and the restricted criterion to minimize is
  ``(n - p) log(r^T W^-1 r) + log |W| + log |X^T W^-1 X|``.

The search brackets the minimizer on a log-spaced grid (with the boundary
``lambda = 0`` evaluated explicitly, so pure fixed-effects data degrades to
OLS exactly) and then polishes with an in-module bounded Brent search
(:func:`_bounded_minimize`) to 1e-8 relative tolerance, so fitting needs no
scipy.  Standard errors come from
``sigma_hat^2 (X^T W^-1 X)^-1`` at the fitted ratio.
"""
from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import churn, exposure
from .errors import (
    CoefficientMissing,
    FitRefused,
    NonConvergence,
    RankDeficientDesign,
    TooFewGroups,
)
from .model import GroupScheme, Record

# numpy is imported inside the functions that compute with it, so that the
# subcommands which neither fit nor simulate start without it.
if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

INTERCEPT = "intercept"

# Published post-deployment MinSkew@100 self-audit figure used as the default
# null level when testing whether independently measured skew is worse.
DEFAULT_MINSKEW_NULL = -0.011

DEFAULT_CUTOFFS = (25, 50, 75, 100)

_LAMBDA_MAX = 1e8
_REL_TOL = 1e-8

# The documented ways one cutoff's fit or test can fail; the protocols turn
# them into an undefined row instead of losing the other cutoffs.
_FIT_FAILURES = (TooFewGroups, RankDeficientDesign, NonConvergence, FitRefused)


class LongObservation(Record):
    """One response row: grouping id, response value, named covariates."""

    __slots__ = _fields = ("query_id", "response", "covariates")

    def __init__(self, query_id: str, response: float, covariates: Mapping[str, float]) -> None:
        if not math.isfinite(response):
            raise ValueError(f"response must be finite, got {response!r}")
        self._set(query_id, response, covariates)


class MixedModelFit(Record):
    """Fitted random-intercept model."""

    __slots__ = _fields = (
        "beta", "se", "tau2", "sigma2", "loglik", "converged", "n_obs", "n_groups", "var_ratio", "method",
    )

    def __init__(
        self, beta: Mapping[str, float], se: Mapping[str, float], tau2: float, sigma2: float, loglik: float,
        converged: bool, n_obs: int, n_groups: int, var_ratio: float, method: str,
    ) -> None:
        self._set(beta, se, tau2, sigma2, loglik, converged, n_obs, n_groups, var_ratio, method)


class WaldTest(Record):
    """Two-sided normal test of one coefficient against a null value."""

    __slots__ = _fields = ("coefficient", "estimate", "se", "null_value", "z", "p_value", "ci95")

    def __init__(
        self, coefficient: str, estimate: float, se: float, null_value: float, z: float, p_value: float,
        ci95: tuple[float, float],
    ) -> None:
        self._set(coefficient, estimate, se, null_value, z, p_value, ci95)


class ProtocolRow(Record):
    """One emitted line of a test protocol table.

    When the cutoff's fit failed, the test fields are ``None`` and
    ``reason`` says why; the counts still describe the cells it was given.
    """

    __slots__ = _fields = (
        "k", "coefficient", "estimate", "se", "z", "p_value", "ci_lo", "ci_hi", "n_obs", "n_groups", "n_excluded",
        "reason",
    )

    def __init__(
        self, k: int, coefficient: str, estimate: float | None, se: float | None, z: float | None,
        p_value: float | None, ci_lo: float | None, ci_hi: float | None, n_obs: int, n_groups: int,
        n_excluded: int, reason: str | None = None,
    ) -> None:
        self._set(k, coefficient, estimate, se, z, p_value, ci_lo, ci_hi, n_obs, n_groups, n_excluded, reason)


class _Profile:
    """Sufficient statistics for evaluating the profiled criterion in
    O(groups * p^2) per lambda, independent of n."""

    def __init__(self, X: np.ndarray, y: np.ndarray, codes: np.ndarray, n_groups: int) -> None:
        import numpy as np

        self.n, self.p = X.shape
        self.S = np.zeros((n_groups, self.p))
        np.add.at(self.S, codes, X)
        self.t = np.bincount(codes, weights=y, minlength=n_groups)
        self.sizes = np.bincount(codes, minlength=n_groups).astype(np.float64)
        self.A = X.T @ X
        self.b = X.T @ y
        self.q = float(y @ y)

    def gls(self, lam: float) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """(beta, XtWiX, rss, logdetW, logdetXtWiX) at fixed variance ratio."""
        import numpy as np

        c = lam / (1.0 + lam * self.sizes)
        xtwix = self.A - (self.S.T * c) @ self.S
        xtwiy = self.b - self.S.T @ (c * self.t)
        ytwiy = self.q - float(c @ (self.t * self.t))
        beta = np.linalg.solve(xtwix, xtwiy)
        rss = max(ytwiy - float(xtwiy @ beta), 1e-300)
        logdet_w = float(np.log1p(lam * self.sizes).sum())
        sign, logdet_x = np.linalg.slogdet(xtwix)
        if sign <= 0:
            raise np.linalg.LinAlgError("X^T W^-1 X not positive definite")
        return beta, xtwix, rss, logdet_w, logdet_x

    def criterion(self, lam: float, reml: bool) -> float:
        import numpy as np

        try:
            _, _, rss, logdet_w, logdet_x = self.gls(lam)
        except np.linalg.LinAlgError:
            return math.inf
        if reml:
            return (self.n - self.p) * math.log(rss) + logdet_w + logdet_x
        return self.n * math.log(rss) + logdet_w


def fit_random_intercept(
    data: Iterable[LongObservation],
    fixed_design: Sequence[str] = (INTERCEPT,),
    method: str = "reml",
) -> MixedModelFit:
    """Fit a random-intercept model by profiled REML (or ML).

    ``fixed_design`` lists coefficient names in order; the name
    ``"intercept"`` denotes the constant column, every other name is looked
    up in each observation's covariates.  Raises :class:`FitRefused` on too
    few observations, :class:`RankDeficientDesign`, :class:`TooFewGroups`,
    or :class:`NonConvergence` when the ratio search runs off its bracket.
    """
    import numpy as np

    if method not in ("reml", "ml"):
        raise ValueError(f"method must be 'reml' or 'ml', got {method!r}")
    rows = list(data)
    names = list(fixed_design)
    if not names:
        raise ValueError("fixed_design must name at least one coefficient")
    if len(set(names)) != len(names):
        raise ValueError("fixed_design names must be unique")
    n, p = len(rows), len(names)
    if n < p + 2:
        raise FitRefused(f"need at least {p + 2} observations for {p} coefficients, got {n}")

    group_ids: dict[str, int] = {}
    codes = np.empty(n, dtype=np.intp)
    X = np.empty((n, p))
    y = np.empty(n)
    for r, obs in enumerate(rows):
        codes[r] = group_ids.setdefault(obs.query_id, len(group_ids))
        y[r] = obs.response
        for j, name in enumerate(names):
            if name == INTERCEPT:
                X[r, j] = 1.0
            else:
                try:
                    X[r, j] = obs.covariates[name]
                except KeyError:
                    raise ValueError(f"observation {r} lacks covariate {name!r}") from None
    n_groups = len(group_ids)
    if n_groups < 2:
        raise TooFewGroups(f"need at least 2 queries, got {n_groups}")
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficientDesign("fixed-effect design is rank deficient")
    profile = _Profile(X, y, codes, n_groups)
    reml = method == "reml"
    if n_groups == n:
        # With one observation per query W = (1 + lambda)I, which cancels out
        # of the profiled criterion entirely; report the boundary fit.
        logger.warning(
            "one observation per query: variance ratio unidentifiable, reporting boundary fit"
        )
        lam_hat, converged = 0.0, True
    else:
        lam_hat, converged = _minimize_ratio(lambda lam: profile.criterion(lam, reml))

    beta, xtwix, rss, logdet_w, logdet_x = profile.gls(lam_hat)
    dof = n - p if reml else n
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(xtwix)
    se = np.sqrt(np.diag(cov))
    if reml:
        loglik = -0.5 * ((n - p) * (math.log(2.0 * math.pi * sigma2) + 1.0) + logdet_w + logdet_x)
    else:
        loglik = -0.5 * (n * (math.log(2.0 * math.pi * sigma2) + 1.0) + logdet_w)
    return MixedModelFit(
        beta={name: float(b) for name, b in zip(names, beta)},
        se={name: float(s) for name, s in zip(names, se)},
        tau2=lam_hat * sigma2,
        sigma2=sigma2,
        loglik=loglik,
        converged=converged,
        n_obs=n,
        n_groups=n_groups,
        var_ratio=lam_hat,
        method=method,
    )


def _minimize_ratio(objective) -> tuple[float, bool]:
    """Bracket on a log grid, polish with bounded search, check stationarity."""
    import numpy as np

    grid = [0.0] + list(np.logspace(-8.0, math.log10(_LAMBDA_MAX), 65))
    values = [objective(lam) for lam in grid]
    best = int(np.argmin(values))
    if best == len(grid) - 1:
        raise NonConvergence(f"variance ratio exceeded search bound {_LAMBDA_MAX:g}")

    if best == 0:
        x, fx = _bounded_minimize(objective, 0.0, grid[1], xatol=1e-12)
        lam = float(x) if fx < values[0] else 0.0
    else:
        lo, hi = math.log(grid[best - 1]), math.log(grid[best + 1])
        x, fx = _bounded_minimize(lambda u: objective(math.exp(u)), lo, hi, xatol=0.5 * _REL_TOL)
        lam = math.exp(x)
        if values[0] <= fx:
            lam = 0.0

    f_hat = objective(lam)
    h = max(lam, 1e-6) * 1e-5
    tol = 1e-7 * max(1.0, abs(f_hat))
    stationary = objective(lam + h) >= f_hat - tol
    if lam > h:
        stationary = stationary and objective(lam - h) >= f_hat - tol
    return lam, bool(stationary)


def _bounded_minimize(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> tuple[float, float]:
    """Brent's bounded minimization of ``func`` on ``[lo, hi]``: ``(x, f(x))``.

    Golden-section steps with parabolic interpolation, stopping when the
    bracket around the best point is within ``xatol`` (plus a relative
    term) or after ``maxfun`` evaluations.  Step for step the same search as
    ``scipy.optimize.minimize_scalar(method="bounded")``, so fits keep their
    bytes without importing scipy.
    """
    # Port of scipy.optimize._optimize._minimize_scalar_bounded (BSD-3-Clause).
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Try a parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def _sign(value: float) -> float:
    """-1 for negative ``value``, else 1 (zero steps go up, as in scipy)."""
    return -1.0 if value < 0.0 else 1.0


def wald_test(fit: MixedModelFit, coefficient: str, null_value: float = 0.0) -> WaldTest:
    """Two-sided z-test of one fitted coefficient against ``null_value``."""
    if not fit.converged:
        raise FitRefused("cannot test a non-converged fit")
    if coefficient not in fit.beta:
        raise CoefficientMissing(f"coefficient {coefficient!r} not in fitted design")
    estimate = fit.beta[coefficient]
    se = fit.se[coefficient]
    if not se > 0.0:
        raise ValueError(f"standard error for {coefficient!r} must be positive, got {se!r}")
    z = (estimate - null_value) / se
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    half = 1.96 * se
    return WaldTest(
        coefficient=coefficient,
        estimate=estimate,
        se=se,
        null_value=null_value,
        z=z,
        p_value=p_value,
        ci95=(estimate - half, estimate + half),
    )


def minskew_protocol(
    curves: Iterable[exposure.MetricCurve],
    null: float = DEFAULT_MINSKEW_NULL,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> list[ProtocolRow]:
    """Test whether mean MinSkew sits below a published benchmark level.

    Each curve contributes one cell per cutoff; cells that are undefined or
    ``-inf`` are excluded (and counted).  Per cutoff, an intercept-only
    random-intercept model pools repeated days within a query, and the
    intercept is Wald-tested against ``null``, which must be finite
    (``ValueError`` before any fit otherwise).  A cutoff whose fit fails
    gets an undefined row carrying the reason.
    """
    if not math.isfinite(null):
        raise ValueError(f"null must be finite, got {null!r}")
    curve_list = list(curves)
    rows: list[ProtocolRow] = []
    for k in cutoffs:
        observations: list[LongObservation] = []
        excluded = 0
        for curve in curve_list:
            value = curve.values.get(k)
            if value is None or value == -math.inf:
                excluded += 1
                continue
            observations.append(LongObservation(curve.query_id, value, {}))
        if excluded:
            logger.info("MinSkew@%d: excluded %d undefined or -inf cells", k, excluded)
        rows.extend(_fit_rows(k, observations, (INTERCEPT,), {INTERCEPT: null}, excluded))
    return rows


def churn_protocol(
    cells: Iterable[churn.ChurnCell],
    scheme: GroupScheme,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
) -> list[ProtocolRow]:
    """Test for a between-group churn gap, adjusting for horizon.

    Expects churn cells anchored at one start day with varying end days, for
    a two-label scheme.  Per cutoff, churn is regressed on an indicator for
    the second scheme label plus the end day, with a random intercept per
    query; queries with any undefined cell at that cutoff are dropped (and
    counted).  The group indicator is tested against zero; the day slope is
    reported alongside.  A cutoff whose fit fails gets undefined rows
    carrying the reason.
    """
    if len(scheme.labels) != 2:
        raise ValueError("churn protocol expects a two-label scheme")
    reference, other = scheme.labels
    group_coef = f"is_{other}"
    by_k: dict[int, dict[str, list[churn.ChurnCell]]] = {k: {} for k in cutoffs}
    for cell in cells:
        if cell.k in by_k and cell.label in (reference, other):
            by_k[cell.k].setdefault(cell.query_id, []).append(cell)

    rows: list[ProtocolRow] = []
    for k in cutoffs:
        observations: list[LongObservation] = []
        excluded = 0
        for query_id in sorted(by_k[k]):
            bucket = by_k[k][query_id]
            if any(cell.churn is None for cell in bucket):
                excluded += 1
                continue
            for cell in bucket:
                observations.append(
                    LongObservation(
                        query_id=query_id,
                        response=cell.churn,
                        covariates={
                            group_coef: 1.0 if cell.label == other else 0.0,
                            "day": float(cell.end_day),
                        },
                    )
                )
        if excluded:
            logger.info("churn@%d: dropped %d queries with undefined cells", k, excluded)
        tested = {group_coef: 0.0, "day": 0.0}
        rows.extend(_fit_rows(k, observations, (INTERCEPT, group_coef, "day"), tested, excluded))
    return rows


def _fit_rows(
    k: int,
    observations: list[LongObservation],
    design: Sequence[str],
    tested: Mapping[str, float],
    excluded: int,
) -> list[ProtocolRow]:
    """One row per tested coefficient (name -> null value) at cutoff ``k``;
    undefined rows with the reason when the fit or a test fails."""
    try:
        fit = fit_random_intercept(observations, design)
        tests = [wald_test(fit, name, null) for name, null in tested.items()]
    except _FIT_FAILURES as exc:
        n_groups = len({obs.query_id for obs in observations})
        return [
            ProtocolRow(k, name, None, None, None, None, None, None,
                        len(observations), n_groups, excluded, reason=str(exc))
            for name in tested
        ]
    return [
        ProtocolRow(
            k=k,
            coefficient=test.coefficient,
            estimate=test.estimate,
            se=test.se,
            z=test.z,
            p_value=test.p_value,
            ci_lo=test.ci95[0],
            ci_hi=test.ci95[1],
            n_obs=fit.n_obs,
            n_groups=fit.n_groups,
            n_excluded=excluded,
        )
        for test in tests
    ]
