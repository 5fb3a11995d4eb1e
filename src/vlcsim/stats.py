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

def _response(powers: np.ndarray, delays: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    phase = np.exp(-2j * math.pi * np.outer(freqs, delays))
    return phase @ powers.astype(complex)


def _axis(values, name: str, item: str) -> np.ndarray:
    """``values`` as a 1-D float array (a scalar gives one point). Raises
    ``ValueError`` for more than one dimension, naming ``name``, and for a
    value that is not finite, naming it as ``item``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{name} must be a scalar or 1-D, got an array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{item} {arr[~np.isfinite(arr)].flat[0]} is not finite")
    return np.atleast_1d(arr)


def ctf(cir: Cir, freqs) -> np.ndarray:
    """Transfer function H(f) = sum of P * exp(-j 2 pi f tau) on a grid, as
    a complex array. A grid that is not a scalar or 1-D, or not finite,
    raises ``ValueError``; an empty CIR raises :class:`EmptyCirError`."""
    freqs = _axis(freqs, "freqs", "frequency")
    if cir.powers.size == 0:
        raise EmptyCirError("impulse response has no taps")
    return _response(cir.powers, cir.delays, freqs)


def transfer(
    scene: Scene,
    link: tuple[int, int, int],
    t: float,
    freqs,
) -> np.ndarray:
    """H(t, f) of one sub-channel directly from a scene (empty CIR -> 0).
    The grid is checked as in :func:`ctf`, before the CIR is evaluated."""
    i, j, p = _link(link)
    freqs = _axis(freqs, "freqs", "frequency")
    cir = cir_snapshot(i, j, p, scene, t)
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
        """``values / zero_lag``: E{H_a H_b*} / E{|H_a|^2}, normalised by
        the anchor's mean power alone, not by sqrt(E{|H_a|^2} E{|H_b|^2}).
        It is not bounded by 1: where the other link is stronger than the
        anchor it can exceed 1 (``ccf-space`` writes ``corr_abs`` 30.78 for
        L44 against (1, 1) at the default config)."""
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
    ``ValueError`` too, before any CIR is evaluated.
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
    dt_arr = _axis(dt_lags, "dt_lags", "dt lag")
    df_arr = _axis(df_lags, "df_lags", "df lag")
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    if not math.isfinite(f):
        raise ValueError(f"frequency f = {f} is not finite")
    dt_arr, df_arr = (x.ravel() for x in np.broadcast_arrays(dt_arr, df_arr))
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
    names the links of each instant. A stacked pass over a block of
    instants evaluates every element and detector that the block's
    instants name at each of those instants, and hands out only the
    planned (link, instant) CIRs. Only the current block and the scene's
    H values are kept while it runs.
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


def bandwidth_3db(cir: Cir, freqs) -> float | None:
    """Smallest frequency where |H(f)|^2 falls to half of |H(0)|^2.

    Takes an impulse response and its frequency grid, both required; the
    grid is checked as in :func:`ctf`. Scans the grid in blocks of
    128 points for the first crossing and refines it by bisection to a
    relative tolerance of 1e-3. None when the magnitude never crosses
    inside the grid. H(f) is evaluated one block at a time and never past
    the block that holds the crossing; each block has the bits of the same
    rows of ``ctf(cir, freqs)``.
    """
    freqs = _axis(freqs, "freqs", "frequency")
    if cir.powers.size == 0:
        raise EmptyCirError("impulse response has no taps")
    powers, delays = cir.powers, cir.delays

    def gain2(freq: float) -> float:
        return abs(_response(powers, delays, np.atleast_1d(freq))[0]) ** 2

    h0 = gain2(0.0)
    if h0 <= 0.0:
        raise ZeroGainError("bandwidth needs a positive DC response")
    target = 0.5 * h0
    for start in range(0, freqs.size, _SCAN_BLOCK):
        mag2 = np.abs(_response(powers, delays, freqs[start:start + _SCAN_BLOCK])) ** 2
        below = np.flatnonzero(mag2 <= target)
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
    ``scipy.stats.kstest(r, "norm", args=(mean, std))``, in its bits: the
    normal CDF is :func:`_ndtr`, the Cephes algorithm behind
    ``scipy.special.ndtr``, run on Python floats. Uses the asymptotic 5%
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
    c = np.array([_ndtr(v) for v in ((r - mean) / std).tolist()])
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


# === normal CDF ===
# Cephes ndtr, with the parts of erf and erfc it reaches: the C's
# coefficient tables, branches and order of operations.

_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for ``|x| < 1``, the only range ndtr asks of it."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for ``x >= 1/sqrt(2)``, the only range ndtr asks
    of it."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0   # underflow
    if x < 8.0:
        return math.exp(z) * _polevl(x, _P) / _p1evl(x, _Q)
    return math.exp(z) * _polevl(x, _R) / _p1evl(x, _S)


def _ndtr(a: float) -> float:
    """Standard normal CDF at ``a``, in the bits of ``scipy.special.ndtr``:
    the same Cephes algorithm, each step one IEEE operation on Python
    floats as in the C."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y
