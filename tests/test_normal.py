"""The simulator's normal CDF and its inverse against ``scipy.special``, bit
for bit.

``simulate._ndtr`` and ``simulate._ndtri`` (with ``_erf`` and ``_erfc``)
port cephes step for step.  Every simulated score goes through them and the
ledger writes scores at full precision, so the port is exact only if every
double agrees: results are compared by bit pattern, so that ``-0.0`` against
``0.0`` or a nan of the other sign also counts as a difference.  The regions
below cover every branch of the four functions, and together hold more than
10⁶ points.  scipy comes from the ``test`` extra.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from rankaudit.simulate import (
    ScoreModel,
    _erf,
    _erfc,
    _ndtr,
    _ndtri,
    _score_band,
    _substream,
    _truncated_scores,
)

MAXLOG = 7.09782712893383996843e2
SQRT2 = math.sqrt(2.0)
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2e-308,
            1.7976931348623157e308, -1.7976931348623157e308]
# The score models of the bench's generate-rerank workload and the CLI
# default, then the grid the simulator's hypothesis test draws from.
SCORE_MODELS = [(0.6, 0.15), (0.5, 0.15), (0.45, 0.15)] + [
    (mean, spread) for mean in (0.2, 0.5, 0.9, 5.0) for spread in (0.05, 0.15, 0.4)
]


def rng() -> np.random.Generator:
    return np.random.default_rng(20240601)


def ulps(center: float, n: int) -> np.ndarray:
    """The 2n + 1 doubles closest to ``center``, a positive finite double."""
    bits = np.array([center]).view(np.int64)[0]
    return (bits + np.arange(-n, n + 1, dtype=np.int64)).view(np.float64)


def both_signs(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def subnormals(n: int) -> np.ndarray:
    return rng().integers(1, 2**52, n, dtype=np.int64).view(np.float64)


def assert_bitwise(ours, reference, xs: np.ndarray) -> None:
    xs = np.asarray(xs, dtype=np.float64)
    got = np.array([ours(x) for x in xs.tolist()], dtype=np.float64)
    want = reference(xs)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(float(xs[i]), float(got[i]), float(want[i])) for i in differ[:5]]


# erf and erfc on their own, as scipy exposes them: the points are x.
ERF_REGIONS = {
    "erf, |x| <= 1": lambda: np.concatenate([rng().uniform(-1.0, 1.0, 60_000), both_signs(ulps(1.0, 500))]),
    "erf, |x| > 1 through erfc": lambda: both_signs(rng().uniform(1.0, 30.0, 20_000)),
    "specials": lambda: np.array(SPECIALS),
}
ERFC_REGIONS = {
    "erfc, |x| < 1 through erf": lambda: rng().uniform(-1.0, 1.0, 20_000),
    "erfc on [1, 8)": lambda: both_signs(np.concatenate([rng().uniform(1.0, 8.0, 40_000), ulps(1.0, 500)])),
    "erfc on [8, sqrt(MAXLOG)]": lambda: both_signs(np.concatenate([
        rng().uniform(8.0, math.sqrt(MAXLOG), 40_000), ulps(8.0, 500)])),
    "erfc past underflow": lambda: both_signs(np.concatenate([
        ulps(math.sqrt(MAXLOG), 2_000), rng().uniform(26.0, 27.5, 20_000),
        np.exp(rng().uniform(math.log(27.5), 700.0, 10_000))])),
    "specials": lambda: np.array(SPECIALS),
}
# ndtr(a) evaluates erf or erfc at |a|/sqrt(2): the points are a.
NDTR_REGIONS = {
    "erf side of the split, |a| < 1": lambda: rng().uniform(-1.0, 1.0, 150_000),
    "both sides of the split at |a| = 1": lambda: both_signs(ulps(1.0, 5_000)),
    "erfc band [sqrt(1/2), 1)": lambda: both_signs(rng().uniform(1.0, SQRT2, 100_000)),
    "erfc on [1, 8)": lambda: both_signs(np.concatenate([
        rng().uniform(SQRT2, 8.0 * SQRT2, 100_000), ulps(SQRT2, 2_000)])),
    "erfc on [8, sqrt(MAXLOG)]": lambda: both_signs(np.concatenate([
        rng().uniform(8.0 * SQRT2, math.sqrt(MAXLOG) * SQRT2, 80_000), ulps(8.0 * SQRT2, 2_000)])),
    "erfc past underflow": lambda: both_signs(np.concatenate([
        ulps(math.sqrt(MAXLOG) * SQRT2, 5_000), rng().uniform(36.5, 39.0, 30_000),
        np.exp(rng().uniform(math.log(39.0), 700.0, 20_000))])),
    "specials and subnormals": lambda: np.concatenate([np.array(SPECIALS), both_signs(subnormals(10_000))]),
}
NDTRI_REGIONS = {
    "central band": lambda: rng().uniform(math.exp(-2.0), 1.0 - math.exp(-2.0), 200_000),
    "edges of the band": lambda: np.concatenate([ulps(math.exp(-2.0), 10_000), ulps(1.0 - math.exp(-2.0), 10_000)]),
    "lower tail, x < 8": lambda: np.exp(-rng().uniform(2.0, 32.0, 100_000)),
    "lower tail, x >= 8": lambda: np.exp(-rng().uniform(32.0, 744.0, 100_000)),
    "lower tail around x = 8": lambda: ulps(math.exp(-32.0), 10_000),
    "upper tail, x < 8": lambda: 1.0 - np.exp(-rng().uniform(2.0, 32.0, 100_000)),
    # The doubles closest below 1: 1 - y < e^-32 for the first 114 of them.
    "upper tail around x = 8": lambda: 1.0 - np.arange(1, 20_000) * 2.0**-53,
    "subnormals": lambda: subnormals(100_000),
    "0, 1 and out of range": lambda: np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), -5e-324, -1.0, 2.0,
                                               math.inf, -math.inf, math.nan, -math.nan]),
}


@pytest.mark.parametrize("region", ERF_REGIONS)
def test_erf_matches_scipy(region: str) -> None:
    assert_bitwise(_erf, special.erf, ERF_REGIONS[region]())


@pytest.mark.parametrize("region", ERFC_REGIONS)
def test_erfc_matches_scipy(region: str) -> None:
    assert_bitwise(_erfc, special.erfc, ERFC_REGIONS[region]())


@pytest.mark.parametrize("region", NDTR_REGIONS)
def test_ndtr_matches_scipy(region: str) -> None:
    assert_bitwise(_ndtr, special.ndtr, NDTR_REGIONS[region]())


@pytest.mark.parametrize("region", NDTRI_REGIONS)
def test_ndtri_matches_scipy(region: str) -> None:
    assert_bitwise(_ndtri, special.ndtri, NDTRI_REGIONS[region]())


def test_the_regions_hold_a_million_points() -> None:
    sizes = [build().size for regions in (ERF_REGIONS, ERFC_REGIONS, NDTR_REGIONS, NDTRI_REGIONS)
             for build in regions.values()]
    assert sum(sizes) >= 10**6


@pytest.mark.parametrize("region", ["lower tail around x = 8", "upper tail around x = 8"])
def test_the_boundary_regions_straddle_x_equal_8(region: str) -> None:
    x = [math.sqrt(-2.0 * math.log(min(y, 1.0 - y))) for y in NDTRI_REGIONS[region]().tolist()]
    assert min(x) < 8.0 <= max(x)


@pytest.mark.parametrize("mean, spread", SCORE_MODELS)
def test_simulated_scores_match_the_scipy_formula(mean: float, spread: float) -> None:
    """The bounds, the inverse-CDF arguments and the clipped scores the
    simulator builds for each score model, against the numpy/scipy formula
    it replaced, on the stream of a simulated query."""
    band = _score_band(ScoreModel(mean, spread))
    lo, hi = special.ndtr((0.0 - mean) / spread), special.ndtr((1.0 - mean) / spread)
    assert np.array(band).view(np.int64).tolist() == np.array([mean, spread, lo, hi]).view(np.int64).tolist()
    n = 20_000
    u = _substream(1, 0, 0).random(n)
    assert_bitwise(_ndtri, special.ndtri, lo + u * (hi - lo))
    scores = np.array(_truncated_scores(_substream(1, 0, 0), [0] * n, [band]))
    want = np.clip(mean + spread * special.ndtri(lo + u * (hi - lo)), 0.0, 1.0)
    assert (scores.view(np.int64) == want.view(np.int64)).all()


def test_clipping_treats_special_values_as_numpy_does() -> None:
    """The score is ``mean + spread * ndtri(0.5)``, that is ``mean + -0.0``
    with a spread of -1, so each special mean reaches the clip as it is."""
    x = np.array(SPECIALS + [1.0, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)])
    bands = [(mean, -1.0, 0.5, 0.5) for mean in x.tolist()]
    scores = np.array(_truncated_scores(_substream(1, 0, 0), list(range(x.size)), bands))
    assert (scores.view(np.int64) == np.clip(x, 0.0, 1.0).view(np.int64)).all()
