"""Radiative and spectral properties of sources, surfaces and detectors.

Radiation patterns give radiant intensity per unit solid angle for a unit
of emitted optical power, as a function of local elevation/azimuth in the
emitting element's frame; every pattern integrates to one over the forward
hemisphere. Spectral curves carry wavelength tables in nanometers and are
combined into a single effective reflectance per scattering surface.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainMismatchError,
    EmptyPatternError,
    NegativeOrderError,
    NotNormalizedError,
    OutOfRangeError,
)

_DATA_DIR = Path(__file__).parent / "data"

MATERIAL_NAMES = ("floor", "pine_wood", "plaster", "plate_glass")

__all__ = [
    "MATERIAL_NAMES",
    "LambertianPattern",
    "RxOptics",
    "SpectralCurve",
    "TabulatedPattern",
    "concentrator_gain",
    "effective_reflectance",
    "hemisphere_integral",
    "lambertian_intensity",
    "led_psd_path",
    "load_led_psd",
    "load_material",
    "load_pattern",
]


# === radiation patterns ===

def lambertian_intensity(order, elevation, azimuth):
    """Generalized Lambertian radiant intensity, zero outside the forward hemisphere.

    ``(order + 1)/(2*pi) * cos(elevation)**order * cos(azimuth)**order``
    on ``|elevation| <= pi/2`` and ``|azimuth| <= pi/2`` (azimuth taken
    modulo 2*pi). Accepts scalars or arrays.
    """
    if order < 0:
        raise NegativeOrderError("Lambertian order must be >= 0")
    ce = np.cos(np.asarray(elevation, dtype=float))
    ca = np.cos(np.asarray(azimuth, dtype=float))
    forward = (ce >= 0.0) & (ca >= 0.0)
    ce = np.maximum(ce, 0.0)
    ca = np.maximum(ca, 0.0)
    out = (order + 1.0) / (2.0 * math.pi) * ce**order * ca**order
    out = np.where(forward, out, 0.0)
    return out if out.ndim else float(out)


class LambertianPattern:
    """Generalized Lambertian source of the given mode order."""

    def __init__(self, order: float = 1.0):
        if order < 0:
            raise NegativeOrderError("Lambertian order must be >= 0")
        self.order = float(order)

    def intensity(self, elevation, azimuth):
        return lambertian_intensity(self.order, elevation, azimuth)

    def __repr__(self):
        return f"LambertianPattern(order={self.order})"


class TabulatedPattern:
    """Measured radiation pattern on a rectangular (elevation, azimuth) grid.

    Each axis needs at least two points, strictly ascending or strictly
    descending; a descending axis is flipped, with the table, at
    construction. Construction also normalizes the table to unit forward
    hemispherical power, so ``values`` holds the normalized table on
    ascending axes.

    ``intensity`` interpolates bilinearly in the bits of scipy's
    ``RegularGridInterpolator(method="linear", bounds_error=False,
    fill_value=0.0)``. A point takes the cell
    ``i = searchsorted(axis, x, side="right") - 1``, clipped to the last
    cell, and the weight ``tx = (x - axis[i]) / (axis[i+1] - axis[i])``
    (``j`` and ``ty`` likewise on the other axis). The sum runs left to
    right as ``v00*(1-tx)*(1-ty) + v01*(1-tx)*ty + v10*tx*(1-ty) +
    v11*tx*ty``, with ``v01 = values[i, j+1]`` and so on. The azimuth is
    first wrapped into [-pi, pi), which turns +-inf into NaN. A point
    outside the grid, an infinite elevation included, gives zero; the
    grid's edges are inside. A NaN coordinate gives NaN.
    """

    def __init__(self, elevation: np.ndarray, azimuth: np.ndarray, values: np.ndarray):
        elevation = np.asarray(elevation, dtype=float)
        azimuth = np.asarray(azimuth, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (elevation.size, azimuth.size):
            raise ValueError("pattern grid shape mismatch")
        elevation, values = _ascending(elevation, values, 0, "elevation")
        azimuth, values = _ascending(azimuth, values, 1, "azimuth")
        if np.any(values < 0.0):
            raise ValueError("pattern intensities must be non-negative")
        if not np.any(values > 0.0):
            raise EmptyPatternError("pattern has no positive entries")
        self.elevation = elevation
        self.azimuth = azimuth
        self._steps = (np.diff(elevation), np.diff(azimuth))
        self.values = values   # the integral reads the raw table through intensity
        power = hemisphere_integral(self)
        if not (math.isfinite(power) and power > 0.0):
            raise EmptyPatternError(f"pattern has no finite forward-hemisphere power ({power})")
        self.values = values / power

    def intensity(self, elevation, azimuth):
        el = np.asarray(elevation, dtype=float)
        az = np.mod(np.asarray(azimuth, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
        el, az = np.broadcast_arrays(el, az)
        x, y = el.ravel(), az.ravel()
        gx, gy = self.elevation, self.azimuth
        inside = (x >= gx[0]) & (x <= gx[-1]) & (y >= gy[0]) & (y <= gy[-1])
        if inside.all():
            out = self._bilinear(x, y)
        else:
            out = np.zeros(x.size)
            out[np.isnan(x) | np.isnan(y)] = np.nan
            out[inside] = self._bilinear(x[inside], y[inside])
        out = out.reshape(el.shape)
        return out if out.ndim else float(out)

    def _bilinear(self, x, y):
        """Interpolated values at points inside the grid."""
        i, tx = _cell(self.elevation, self._steps[0], x)
        j, ty = _cell(self.azimuth, self._steps[1], y)
        n = self.azimuth.size
        k = i * n + j
        v = self.values.ravel()
        sx = 1.0 - tx
        sy = 1.0 - ty
        # v[a:].take(k) is values at flat index k + a
        out = v.take(k) * sx * sy
        out += v[1:].take(k) * sx * ty
        out += v[n:].take(k) * tx * sy
        out += v[n + 1:].take(k) * tx * ty
        return out

    def __repr__(self):
        return (
            f"TabulatedPattern({self.elevation.size}x{self.azimuth.size} grid)"
        )


def _ascending(axis, values, dim, name):
    """A pattern grid axis and its table, flipped along ``dim`` if the
    axis descends."""
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"pattern {name} axis needs at least 2 points")
    step = np.diff(axis)
    if np.all(step < 0.0):
        return axis[::-1].copy(), np.flip(values, dim)
    if not np.all(step > 0.0):
        raise ValueError(f"pattern {name} axis must be strictly ascending or descending")
    return axis, values


def _cell(grid, steps, x):
    """Cell index and upper-node weight of each x in [grid[0], grid[-1]];
    ``steps`` is ``np.diff(grid)``."""
    i = np.searchsorted(grid, x, side="right")
    i -= 1
    np.minimum(i, grid.size - 2, out=i)
    return i, (x - grid.take(i)) / steps.take(i)


_QUADRATURE_ROWS = 19   # elevation rows evaluated at once


def hemisphere_integral(pattern) -> float:
    """Forward-hemisphere power of a pattern by trapezoidal quadrature on
    a 361 x 361 grid.

    The grid is evaluated a block of elevation rows at a time. Every
    per-point step is elementwise and each row's azimuth trapezoid reduces
    that row alone, so the bits are those of the whole grid at once.
    """
    el = np.linspace(-math.pi / 2, math.pi / 2, 361)
    az = np.linspace(-math.pi / 2, math.pi / 2, 361)
    inner = np.empty(el.size)
    for a in range(0, el.size, _QUADRATURE_ROWS):
        ee, aa = np.meshgrid(el[a:a + _QUADRATURE_ROWS], az, indexing="ij")
        inner[a:a + _QUADRATURE_ROWS] = np.trapezoid(pattern.intensity(ee, aa) * np.cos(ee),
                                                     az, axis=1)
    return float(np.trapezoid(inner, el))


def load_pattern(path) -> TabulatedPattern:
    """Load a pattern CSV with columns elevation_deg, azimuth_deg, intensity."""
    rows = _read_csv(path, ("elevation_deg", "azimuth_deg", "intensity"))
    el = np.unique(rows[:, 0])
    az = np.unique(rows[:, 1])
    if rows.shape[0] != el.size * az.size:
        raise ValueError(f"{path}: pattern grid is not rectangular")
    values = np.full((el.size, az.size), np.nan)
    ei = np.searchsorted(el, rows[:, 0])
    ai = np.searchsorted(az, rows[:, 1])
    values[ei, ai] = rows[:, 2]
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: pattern grid is not rectangular")
    return TabulatedPattern(np.deg2rad(el), np.deg2rad(az), values)


# === receiver front end ===

@dataclass(frozen=True)
class RxOptics:
    """Detector front-end description.

    ``fov`` is the half-angle field of view in radians. Without a
    concentrator the optical gain is one inside the field of view. With
    one, the default mode applies the constant ideal-concentrator gain
    n^2/sin^2(fov) inside the field of view; mode "pointwise" instead
    evaluates n^2/sin^2(max(psi, 1 degree)) at the incidence angle.
    """

    fov: float = math.radians(85.0)
    refractive_index: float = 1.5
    concentrator: bool = False
    concentrator_mode: str = "constant"
    filter_gain: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.fov <= math.pi / 2:
            raise OutOfRangeError("field of view must lie in (0, pi/2]")
        if self.concentrator_mode not in ("constant", "pointwise"):
            raise ValueError("concentrator_mode must be 'constant' or 'pointwise'")


def concentrator_gain(optics: RxOptics, psi):
    """Optical concentrator gain at incidence angle ``psi`` (0 outside FoV)."""
    psi = np.asarray(psi, dtype=float)
    inside = (psi >= 0.0) & (psi <= optics.fov)
    if not optics.concentrator:
        gain = np.ones_like(psi)
    elif optics.concentrator_mode == "constant":
        gain = np.full_like(psi, optics.refractive_index**2 / math.sin(optics.fov) ** 2)
    else:
        clamped = np.maximum(psi, math.radians(1.0))
        gain = optics.refractive_index**2 / np.sin(clamped) ** 2
    out = np.where(inside, gain, 0.0)
    return out if out.ndim else float(out)


# === spectra ===

@dataclass(frozen=True)
class SpectralCurve:
    """Sampled spectral curve over strictly increasing wavelengths (nm).

    ``role`` is "psd" for source power spectral densities (arbitrary
    scale until normalized) or "reflectance" for surface reflectance in
    [0, 1].
    """

    wavelengths: np.ndarray
    values: np.ndarray
    role: str

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if wl.ndim != 1 or wl.size < 2 or wl.size != vals.size:
            raise ValueError("curve needs matching 1-D tables with >= 2 points")
        if np.any(np.diff(wl) <= 0.0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(vals < 0.0):
            raise ValueError("spectral values must be non-negative")
        if self.role not in ("psd", "reflectance"):
            raise ValueError("role must be 'psd' or 'reflectance'")
        if self.role == "reflectance" and np.any(vals > 1.0 + 1e-12):
            raise ValueError("reflectance must lie in [0, 1]")
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.wavelengths[0]), float(self.wavelengths[-1])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.wavelengths))

    def value_at(self, wavelength):
        return np.interp(wavelength, self.wavelengths, self.values)

    def restricted(self, lo: float, hi: float) -> "SpectralCurve":
        """Curve cut to [lo, hi], interpolating the endpoints."""
        if lo >= hi:
            raise ValueError("empty wavelength window")
        if lo < self.wavelengths[0] - 1e-9 or hi > self.wavelengths[-1] + 1e-9:
            raise DomainMismatchError("window exceeds the tabulated support")
        inner = self.wavelengths[(self.wavelengths > lo) & (self.wavelengths < hi)]
        wl = np.concatenate([[lo], inner, [hi]])
        return SpectralCurve(wl, self.value_at(wl), self.role)

    def normalized(self) -> "SpectralCurve":
        """Rescaled copy with unit trapezoidal integral."""
        area = self.integral()
        if area <= 0.0:
            raise ValueError("cannot normalize a zero curve")
        return SpectralCurve(self.wavelengths, self.values / area, self.role)


def effective_reflectance(psd: SpectralCurve, reflectance: SpectralCurve) -> float:
    """Source-weighted reflectance: integral of psd * reflectance.

    The psd must integrate to one within 1e-6 and the reflectance table
    must cover the psd support; both are interpolated linearly onto the
    union wavelength grid before the trapezoidal integral.
    """
    if psd.role != "psd" or reflectance.role != "reflectance":
        raise ValueError("arguments must be a psd curve and a reflectance curve")
    lo, hi = psd.support
    rlo, rhi = reflectance.support
    if rlo > lo + 1e-9 or rhi < hi - 1e-9:
        raise DomainMismatchError(
            f"reflectance covers [{rlo}, {rhi}] nm but the source needs [{lo}, {hi}] nm"
        )
    if abs(psd.integral() - 1.0) > 1e-6:
        raise NotNormalizedError("source psd must integrate to 1 (within 1e-6)")
    grid = np.union1d(psd.wavelengths, reflectance.wavelengths)
    grid = grid[(grid >= lo) & (grid <= hi)]
    product = psd.value_at(grid) * reflectance.value_at(grid)
    return float(np.trapezoid(product, grid))


# === bundled tables ===

def _read_csv(path, columns) -> np.ndarray:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != list(columns):
            raise ValueError(f"{path}: expected columns {','.join(columns)}")
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: values must be finite")
    return rows


def _load_curve(path, role) -> SpectralCurve:
    rows = _read_csv(path, ("wavelength_nm", "value"))
    return SpectralCurve(rows[:, 0], rows[:, 1], role)


def load_material(name: str) -> SpectralCurve:
    """Bundled surface reflectance curve by material name."""
    if name not in MATERIAL_NAMES:
        raise ValueError(f"unknown material {name!r}; choose from {MATERIAL_NAMES}")
    return _load_curve(_DATA_DIR / f"material_{name}.csv", "reflectance")


def led_psd_path(name_or_path) -> Path:
    """Bundled LED spectrum file ('white', 'red', 'green', 'blue') or a CSV path."""
    bundled = _DATA_DIR / f"led_{name_or_path}.csv"
    return bundled if isinstance(name_or_path, str) and bundled.exists() else Path(name_or_path)


def load_led_psd(name_or_path) -> SpectralCurve:
    """LED spectrum at :func:`led_psd_path`, normalized to unit integral
    over its support."""
    return _load_curve(led_psd_path(name_or_path), "psd").normalized()
