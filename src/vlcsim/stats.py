"""Channel statistics: transfer functions, correlations, link metrics.

Correlation estimates are Monte-Carlo averages over an ensemble of
independently seeded scenes. Every estimate carries a standard error;
normalized quantities propagate the error of the zero-lag normalizer
through a first-order linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as spstats

from .channel import ChannelMatrix, Cir, cir_snapshot
from .errors import (
    ConfigMismatchError,
    DegenerateFitError,
    EmptyCirError,
    NonPositivePowerError,
    TooFewSamplesError,
    ZeroGainError,
)
from .scene import Scene

__all__ = [
    "CorrelationSeries",
    "Ctf",
    "PathLossFit",
    "ShadowingStats",
    "acf",
    "bandwidth_3db",
    "ccf",
    "ctf",
    "dc_gain",
    "fcf",
    "fit_ci",
    "path_loss",
    "received_power",
    "rms_delay_spread",
    "shadowing_stats",
    "stfcf",
    "transfer",
]


# === transfer function ===

@dataclass(frozen=True, eq=False)
class Ctf:
    """Channel transfer function samples of one sub-channel at one instant.

    Keeps the originating tap arrays so |H| can be re-evaluated exactly
    between grid points (bandwidth refinement).
    """

    freqs: np.ndarray
    values: np.ndarray
    element: tuple[int, int]
    pd: int
    time: float
    tap_powers: np.ndarray
    tap_delays: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def value_at(self, freq) -> complex:
        return _response(self.tap_powers, self.tap_delays, np.atleast_1d(freq))[0]


def _response(powers: np.ndarray, delays: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    phase = np.exp(-2j * math.pi * np.outer(freqs, delays))
    return phase @ powers.astype(complex)


def ctf(cir: Cir, freqs) -> Ctf:
    """Transfer function H(f) = sum of P * exp(-j 2 pi f tau) on a grid."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if cir.powers.size == 0:
        raise EmptyCirError("impulse response has no taps")
    return Ctf(
        freqs,
        _response(cir.powers, cir.delays, freqs),
        cir.element,
        cir.pd,
        cir.time,
        cir.powers,
        cir.delays,
    )


def transfer(
    scene: Scene,
    link: tuple[int, int, int],
    t: float,
    freqs,
    nlos_only: bool = False,
) -> np.ndarray:
    """H(t, f) of one sub-channel directly from a scene (empty CIR -> 0)."""
    i, j, p = link
    cir = cir_snapshot(i, j, p, scene, t)
    if nlos_only:
        cir = cir.nlos_only()
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if cir.powers.size == 0:
        return np.zeros(freqs.size, dtype=complex)
    return _response(cir.powers, cir.delays, freqs)


# === correlation functions ===

@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """Monte-Carlo correlation estimate over a lag axis.

    ``values[k] = E{H_a(t, f) * conj(H_b(t + dt[k], f + df[k]))}`` with the
    per-run products retained for paired comparisons. ``zero_lag`` is the
    anchor's own mean power E{|H_a(t, f)|^2}, used for normalization.
    """

    dt: np.ndarray
    df: np.ndarray
    values: np.ndarray
    standard_error: np.ndarray
    products: np.ndarray
    zero_lag: float
    zero_lag_products: np.ndarray
    link: tuple[int, int, int]
    other_link: tuple[int, int, int]
    t: float
    f: float
    n_runs: int

    @property
    def normalized(self) -> np.ndarray:
        return self.values / self.zero_lag

    @property
    def normalized_standard_error(self) -> np.ndarray:
        """Delta-method standard error of values/zero_lag."""
        infl = _normalized_influence(self.products, self.zero_lag_products)
        return _complex_sem(infl)


def _complex_sem(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[0]
    mu = samples.mean(axis=0)
    var = np.abs(samples - mu) ** 2
    return np.sqrt(var.sum(axis=0) / (n - 1) / n)


def _normalized_influence(products: np.ndarray, zero_products: np.ndarray) -> np.ndarray:
    r0 = zero_products.mean(axis=0).real
    ratio = products.mean(axis=0) / r0
    return (products - ratio[None, :] * zero_products.real[:, None]) / r0


def _check_ensemble(scenes) -> list[Scene]:
    scenes = list(scenes)
    if len(scenes) < 2:
        raise ValueError("correlation estimates need at least two runs")
    prints = {s.fingerprint for s in scenes if s.fingerprint}
    if len(prints) > 1:
        raise ConfigMismatchError("ensemble mixes runs from different scenarios")
    return scenes


def stfcf(
    scenes,
    link: tuple[int, int, int],
    other_link: tuple[int, int, int],
    t: float,
    f: float,
    dt_lags,
    df_lags,
) -> CorrelationSeries:
    """Space-time-frequency correlation between two sub-channels.

    ``dt_lags`` and ``df_lags`` broadcast against each other into one lag
    axis.
    """
    scenes = _check_ensemble(scenes)
    dt_arr, df_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(dt_lags, dtype=float)),
        np.atleast_1d(np.asarray(df_lags, dtype=float)),
    )
    dt_arr = dt_arr.ravel()
    df_arr = df_arr.ravel()
    n_lags = dt_arr.size
    n = len(scenes)

    products = np.empty((n, n_lags), dtype=complex)
    zero_products = np.empty(n, dtype=complex)

    f_arr = np.array([f], dtype=float)
    same_link = tuple(other_link) == tuple(link)
    for k, scene in enumerate(scenes):
        cir1 = cir_snapshot(link[0], link[1], link[2], scene, t)
        h1 = _response(cir1.powers, cir1.delays, f_arr)[0] if cir1.powers.size else 0j
        zero_products[k] = h1 * np.conj(h1)

        for dt_u in np.unique(dt_arr):
            sel = dt_arr == dt_u
            freqs = f + df_arr[sel]
            if same_link and dt_u == 0.0:
                cir2 = cir1
            else:
                i2, j2, p2 = other_link
                cir2 = cir_snapshot(i2, j2, p2, scene, t + dt_u)
            if cir2.powers.size:
                h2 = _response(cir2.powers, cir2.delays, freqs)
            else:
                h2 = np.zeros(freqs.size, dtype=complex)
            products[k, sel] = h1 * np.conj(h2)

    return CorrelationSeries(
        dt=dt_arr,
        df=df_arr,
        values=products.mean(axis=0),
        standard_error=_complex_sem(products),
        products=products,
        zero_lag=float(zero_products.mean().real),
        zero_lag_products=zero_products,
        link=tuple(link),
        other_link=tuple(other_link),
        t=t,
        f=f,
        n_runs=n,
    )


def acf(scenes, link, t, f, dt_lags) -> CorrelationSeries:
    """Temporal autocorrelation: same sub-channel, frequency offset zero."""
    return stfcf(scenes, link, link, t, f, dt_lags, 0.0)


def fcf(scenes, link, t, f, df_lags) -> CorrelationSeries:
    """Frequency correlation: same sub-channel, time offset zero."""
    return stfcf(scenes, link, link, t, f, 0.0, df_lags)


def ccf(scenes, link, other_link, t, f) -> CorrelationSeries:
    """Space correlation between two elements at zero time/frequency lag."""
    return stfcf(scenes, link, other_link, t, f, 0.0, 0.0)


# === scalar link metrics ===

def dc_gain(cir: Cir) -> float:
    """Zero-frequency gain: the plain tap power sum."""
    if cir.powers.size == 0:
        raise EmptyCirError("impulse response has no taps")
    return cir.dc_gain


def received_power(matrix: ChannelMatrix, tx_power) -> tuple[np.ndarray, np.ndarray]:
    """Received power per (element, detector) and the per-detector totals.

    ``tx_power`` is the per-element transmit power in watts: a scalar or
    an (rows, cols) array. Returns (per_element, per_detector_total).
    """
    keys = list(matrix.cirs)
    rows = max(k[0] for k in keys)
    cols = max(k[1] for k in keys)
    pds = max(k[2] for k in keys)
    pt = np.broadcast_to(np.asarray(tx_power, dtype=float), (rows, cols))
    per_element = np.zeros((rows, cols, pds))
    for (i, j, p), cir in matrix.cirs.items():
        per_element[i - 1, j - 1, p - 1] = pt[i - 1, j - 1] * cir.dc_gain
    return per_element, per_element.sum(axis=(0, 1))


def rms_delay_spread(cir: Cir) -> float:
    """Power-weighted standard deviation of the tap delays."""
    if cir.powers.size == 0:
        raise EmptyCirError("impulse response has no taps")
    total = cir.powers.sum()
    if total <= 0.0:
        raise ZeroGainError("delay spread needs positive total power")
    mean = float(np.sum(cir.delays * cir.powers) / total)
    second = float(np.sum((cir.delays - mean) ** 2 * cir.powers) / total)
    return math.sqrt(max(second, 0.0))


def bandwidth_3db(transfer_fn: Ctf) -> float | None:
    """Smallest frequency where |H(f)|^2 falls to half of |H(0)|^2.

    Scans the stored grid for the first crossing and refines it by
    bisection to a relative tolerance of 1e-3. None when the magnitude
    never crosses inside the grid.
    """
    mag2 = np.abs(transfer_fn.values) ** 2
    h0 = abs(transfer_fn.value_at(0.0)) ** 2
    if h0 <= 0.0:
        raise ZeroGainError("bandwidth needs a positive DC response")
    target = 0.5 * h0
    below = np.flatnonzero(mag2 <= target)
    if below.size == 0:
        return None
    k = below[0]
    if k == 0:
        return float(transfer_fn.freqs[0])
    lo, hi = float(transfer_fn.freqs[k - 1]), float(transfer_fn.freqs[k])
    while hi - lo > 1e-3 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if abs(transfer_fn.value_at(mid)) ** 2 <= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def path_loss(tx_power_total: float, rx_power_total: float) -> float:
    """Link path loss 10 log10(P_T / P_R) in dB."""
    if tx_power_total <= 0.0 or rx_power_total <= 0.0:
        raise NonPositivePowerError("powers must be strictly positive")
    return 10.0 * math.log10(tx_power_total / rx_power_total)


# === path-loss model fit ===

@dataclass(frozen=True, eq=False)
class PathLossFit:
    """Close-in reference-distance fit PL(d) = PL(d0) + 10 n log10(d/d0)."""

    d0: float
    pl_d0: float
    exponent: float
    distances: np.ndarray
    pl_db: np.ndarray
    residuals: np.ndarray

    def predict(self, distances) -> np.ndarray:
        d = np.asarray(distances, dtype=float)
        return self.pl_d0 + 10.0 * self.exponent * np.log10(d / self.d0)


def fit_ci(distances, pl_db, d0: float = 1.0) -> PathLossFit:
    """Least-squares close-in model fit over (distance, path loss) samples."""
    d = np.asarray(distances, dtype=float)
    pl = np.asarray(pl_db, dtype=float)
    if d.size != pl.size or d.size < 2:
        raise DegenerateFitError("need at least two (distance, PL) samples")
    if np.any(d <= 0.0) or d0 <= 0.0:
        raise ValueError("distances must be positive")
    x = 10.0 * np.log10(d / d0)
    if np.ptp(x) < 1e-12:
        raise DegenerateFitError("all samples share one distance")
    a = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(a, pl, rcond=None)
    fitted = a @ coef
    return PathLossFit(d0, float(coef[0]), float(coef[1]), d, pl, pl - fitted)


@dataclass(frozen=True, eq=False)
class ShadowingStats:
    """Gaussianity summary of the dB shadowing residuals."""

    mean: float
    std: float
    ks_distance: float
    ks_critical: float
    passes_normality: bool
    sorted_residuals: np.ndarray
    empirical_cdf: np.ndarray


def shadowing_stats(residuals, alpha: float = 0.05) -> ShadowingStats:
    """Residual moments plus a KS check against the fitted Gaussian.

    Uses the asymptotic 5% critical value 1.358/sqrt(n); needs >= 30
    samples.
    """
    r = np.sort(np.asarray(residuals, dtype=float))
    n = r.size
    if n < 30:
        raise TooFewSamplesError("normality check needs at least 30 residuals")
    if alpha != 0.05:
        raise ValueError("only the 5% level is tabulated")
    mean = float(r.mean())
    std = float(r.std(ddof=1))
    ks = float(spstats.kstest(r, "norm", args=(mean, std)).statistic)
    crit = 1.358 / math.sqrt(n)
    return ShadowingStats(
        mean=mean,
        std=std,
        ks_distance=ks,
        ks_critical=crit,
        passes_normality=ks < crit,
        sorted_residuals=r,
        empirical_cdf=(np.arange(1, n + 1) - 0.5) / n,
    )
