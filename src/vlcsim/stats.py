"""Channel statistics: transfer functions, correlations, link metrics.

Correlation estimates are Monte-Carlo averages over an ensemble of
independently seeded scenes. Every estimate carries a standard error;
normalized quantities propagate the error of the zero-lag normalizer
through a first-order linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix, Cir, _cirs, _sub_channel, cir_snapshot
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
    "stfcf_many",
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
) -> np.ndarray:
    """H(t, f) of one sub-channel directly from a scene (empty CIR -> 0)."""
    i, j, p = _link(link)
    cir = cir_snapshot(i, j, p, scene, t)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
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
    axis. Each scene's CIRs at the anchor ``t`` and at each distinct
    ``t + dt`` share what stays the same across those instants: for a
    receiver moving past static clusters, the LED-side half of every
    bounce leg is built once per scene and call, and blocks of
    consecutive instants are evaluated in stacked passes. Every CIR has
    the bits of a lone ``cir_snapshot(..., scene, t + dt)``. A link that
    is not three integers raises ``ValueError`` before any scene is
    evaluated; so do a non-finite ``t``, ``f`` or lag and lags that are
    not 1-D. A link outside the array or the detector head raises
    ``ValueError`` too.
    This is the one-request case of :func:`stfcf_many`, which shares all
    of that across several estimates of one ensemble.
    """
    return stfcf_many(scenes, [(link, other_link, t, f, dt_lags, df_lags)])[0]


class _Request(NamedTuple):
    """One stfcf request, with its lag axis split by distinct time lag:
    ``groups`` holds (instant ``t + dt``, lag mask, frequencies) per
    distinct ``dt``, in increasing order."""

    link: tuple[int, int, int]
    other_link: tuple[int, int, int]
    t: float
    f: float
    dt: np.ndarray
    df: np.ndarray
    groups: list


def _link(link) -> tuple[int, int, int]:
    """``link`` as three plain ints (see :func:`cir_snapshot`), or ``ValueError``."""
    try:
        i, j, p = link
    except (TypeError, ValueError):
        raise ValueError(f"link {link!r} is not three integers (i, j, p)") from None
    return _sub_channel(i, j, p)


def _request(link, other_link, t, f, dt_lags, df_lags) -> _Request:
    link, other_link = _link(link), _link(other_link)
    dt_arr = np.asarray(dt_lags, dtype=float)
    df_arr = np.asarray(df_lags, dtype=float)
    for name, lags in (("dt_lags", dt_arr), ("df_lags", df_arr)):
        if lags.ndim > 1:
            raise ValueError(f"{name} must be a scalar or 1-D, got an array of shape {lags.shape}")
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    if not math.isfinite(f):
        raise ValueError(f"frequency f = {f} is not finite")
    for name, lags in (("dt", dt_arr), ("df", df_arr)):
        if not np.isfinite(lags).all():
            raise ValueError(f"{name} lag {lags[~np.isfinite(lags)].flat[0]} is not finite")
    dt_arr, df_arr = (x.ravel() for x in np.broadcast_arrays(np.atleast_1d(dt_arr),
                                                              np.atleast_1d(df_arr)))
    groups = []
    for dt_u in np.unique(dt_arr):
        sel = dt_arr == dt_u
        groups.append((t + dt_u, sel, f + df_arr[sel]))
    return _Request(link, other_link, t, f, dt_arr, df_arr, groups)


def stfcf_many(scenes, requests) -> list[CorrelationSeries]:
    """Several space-time-frequency correlations over one ensemble.

    Each request is the argument tuple ``(link, other_link, t, f,
    dt_lags, df_lags)`` of :func:`stfcf`; the series returned for it
    equals that call's, field for field. Per scene, one pass over the
    distinct instants of all requests evaluates each distinct (link,
    instant) CIR once, sharing as :func:`stfcf` does, so for a receiver
    moving past static clusters each LED-side half is built once per
    scene for all requests. The plan it hands :func:`vlcsim.channel._cirs`
    names the links of each instant, so a stacked pass over a block of
    instants evaluates just those (link, instant) pairs. Only the
    current block and the scene's H values are kept while it runs.
    """
    scenes = _check_ensemble(scenes)
    plans = [_request(*request) for request in requests]
    # instant -> link -> [(request, lag group, or None for the anchor)]
    uses: dict[float, dict[tuple, list]] = {}
    for r, plan in enumerate(plans):
        uses.setdefault(plan.t, {}).setdefault(plan.link, []).append((r, None))
        for g, (t2, _, _) in enumerate(plan.groups):
            uses.setdefault(t2, {}).setdefault(plan.other_link, []).append((r, g))
    instants, consumers = list(uses), list(uses.values())

    n = len(scenes)
    products = [np.empty((n, plan.dt.size), dtype=complex) for plan in plans]
    zero_products = [np.empty(n, dtype=complex) for _ in plans]
    for k, scene in enumerate(scenes):
        h1 = [None] * len(plans)
        h2 = [[None] * len(plan.groups) for plan in plans]
        for q, link, cir in _cirs(scene, instants, consumers):   # each dict lists its links
            for r, g in consumers[q][link]:
                if g is None:
                    f_arr = np.array([plans[r].f], dtype=float)
                    h1[r] = _response(cir.powers, cir.delays, f_arr)[0]
                else:
                    h2[r][g] = _response(cir.powers, cir.delays, plans[r].groups[g][2])
        for r, plan in enumerate(plans):
            zero_products[r][k] = h1[r] * np.conj(h1[r])
            for (_, sel, _), h in zip(plan.groups, h2[r]):
                products[r][k, sel] = h1[r] * np.conj(h)

    return [
        CorrelationSeries(
            dt=plan.dt,
            df=plan.df,
            values=prod.mean(axis=0),
            standard_error=_complex_sem(prod),
            products=prod,
            zero_lag=float(zero.mean().real),
            zero_lag_products=zero,
            link=plan.link,
            other_link=plan.other_link,
            t=plan.t,
            f=plan.f,
            n_runs=n,
        )
        for plan, prod, zero in zip(plans, products, zero_products)
    ]


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
    an (rows, cols) array. The element grid is read from the largest
    keys of ``matrix``; an empty matrix, or a ``tx_power`` that does not
    broadcast to that grid, raises ``ValueError``. Returns (per_element,
    per_detector_total).
    """
    if not matrix.cirs:
        raise ValueError("received power needs a channel matrix with at least one CIR; "
                         "this one is empty")
    keys = list(matrix.cirs)
    rows = max(k[0] for k in keys)
    cols = max(k[1] for k in keys)
    pds = max(k[2] for k in keys)
    power = np.asarray(tx_power, dtype=float)
    try:
        pt = np.broadcast_to(power, (rows, cols))
    except ValueError:
        raise ValueError(f"tx_power of shape {power.shape} does not fit the matrix's "
                         f"({rows}, {cols}) element grid") from None
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


_SCAN_BLOCK = 128  # grid points per H(f) block of the bandwidth scan


def bandwidth_3db(transfer_fn: Ctf | Cir, freqs=None) -> float | None:
    """Smallest frequency where |H(f)|^2 falls to half of |H(0)|^2.

    Takes a :class:`Ctf`, or an impulse response and the frequency grid.
    Scans the grid in blocks of 128 points for the first crossing and
    refines it by bisection to a relative tolerance of 1e-3. None when
    the magnitude never crosses inside the grid. Given a ``Cir``, H(f) is
    evaluated one block at a time and never past the block that holds
    the crossing; each block has the bits of the same rows of
    ``ctf(cir, freqs)``, so the result equals
    ``bandwidth_3db(ctf(cir, freqs))`` exactly.
    """
    if isinstance(transfer_fn, Ctf):
        if freqs is not None:
            raise TypeError("a Ctf carries its own frequency grid")
        powers, delays = transfer_fn.tap_powers, transfer_fn.tap_delays
        freqs = transfer_fn.freqs
        mag2 = transfer_fn.magnitude ** 2

        def block(a: int, b: int) -> np.ndarray:
            return mag2[a:b]
    else:
        if freqs is None:
            raise TypeError("an impulse response needs the frequency grid")
        if transfer_fn.powers.size == 0:
            raise EmptyCirError("impulse response has no taps")
        powers, delays = transfer_fn.powers, transfer_fn.delays
        freqs = np.atleast_1d(np.asarray(freqs, dtype=float))

        def block(a: int, b: int) -> np.ndarray:
            return np.abs(_response(powers, delays, freqs[a:b])) ** 2

    def gain2(freq: float) -> float:
        return abs(_response(powers, delays, np.atleast_1d(freq))[0]) ** 2

    h0 = gain2(0.0)
    if h0 <= 0.0:
        raise ZeroGainError("bandwidth needs a positive DC response")
    target = 0.5 * h0
    for start in range(0, freqs.size, _SCAN_BLOCK):
        below = np.flatnonzero(block(start, start + _SCAN_BLOCK) <= target)
        if below.size:
            k = start + below[0]
            break
    else:
        return None
    if k == 0:
        return float(freqs[0])
    lo, hi = float(freqs[k - 1]), float(freqs[k])
    while hi - lo > 1e-3 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if gain2(mid) <= target:
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


def shadowing_stats(residuals) -> ShadowingStats:
    """Residual moments plus a KS check against the fitted Gaussian.

    The KS distance is the two-sided statistic of
    ``scipy.stats.kstest(r, "norm", args=(mean, std))``, computed from
    ``scipy.special.ndtr`` in the same bits; scipy is imported here, on
    the first call, and nowhere else in vlcsim. Uses the asymptotic 5%
    critical value 1.358/sqrt(n); needs >= 30 finite samples that are
    not all equal.
    """
    r = np.sort(np.asarray(residuals, dtype=float))
    n = r.size
    if n < 30:
        raise TooFewSamplesError("normality check needs at least 30 residuals")
    if not np.isfinite(r).all():
        raise ValueError("residuals must be finite")
    mean = float(r.mean())
    std = float(r.std(ddof=1))
    if std == 0.0 or r[0] == r[-1]:
        raise DegenerateFitError("residuals have no spread")
    from scipy.special import ndtr

    c = ndtr((r - mean) / std)
    ks = float(max((np.arange(1.0, n + 1) / n - c).max(), (c - np.arange(0.0, n) / n).max()))
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
