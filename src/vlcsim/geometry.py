"""Coordinate frames and angular bookkeeping for the link geometry.

Conventions: global frame (GCS) has its origin at the first LED element.
Azimuth is measured in [0, 2*pi) from +x toward +y, elevation in
[-pi/2, pi/2] from the xy plane toward +z. Each LED element carries a
local frame (LCS) whose x' axis is the element normal; the receiver
carries its own local frame whose z axis is the (top) detector normal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateNormalError,
    InvalidAdrError,
    SingularFrameError,
    ZeroVectorError,
)

TWO_PI = 2.0 * math.pi

__all__ = [
    "AnglePair",
    "ArrayOrientation",
    "cart_to_sph",
    "cluster_equivalent_normal",
    "direction",
    "gcs_to_lcs11",
    "gcs_to_lcs_pd",
    "invert_frame",
    "led_position",
    "pd_normals",
    "sph_to_cart",
    "wrap_azimuth",
]


class AnglePair(NamedTuple):
    """Azimuth/elevation pair in radians."""

    azimuth: float
    elevation: float


class ArrayOrientation(NamedTuple):
    """Direction angles of the LED array's row and column axes.

    ``row_*`` is the direction along a row (spacing ``spacing_v``, index j),
    ``col_*`` the direction along a column (spacing ``spacing_h``, index i).
    """

    row_azimuth: float
    row_elevation: float
    col_azimuth: float
    col_elevation: float


def wrap_azimuth(a):
    """Wrap an angle (scalar or array) into [0, 2*pi)."""
    return np.mod(a, TWO_PI)


def direction(azimuth, elevation):
    """Unit direction vector(s) for the given angles; accepts arrays."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    out = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1
    )
    return out


def sph_to_cart(angles: AnglePair, r: float = 1.0) -> np.ndarray:
    """Cartesian point at distance ``r`` along the ``angles`` direction."""
    return r * direction(angles.azimuth, angles.elevation)


def cart_to_sph(v) -> tuple[AnglePair, float]:
    """Angles and length of a vector.

    Raises ZeroVectorError when the norm is below 1e-15.
    """
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(v))
    if r < 1e-15:
        raise ZeroVectorError("cannot take the direction of a zero vector")
    az = float(wrap_azimuth(math.atan2(v[1], v[0])))
    el = math.asin(min(1.0, max(-1.0, v[2] / r)))
    return AnglePair(az, el), r


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths of a (3, ...) stack, one row per coordinate, in the bits
    of ``np.linalg.norm(axis=-1)`` over (..., 3) rows:
    ``sqrt((x*x + y*y) + z*z)``, at a fraction of its cost."""
    x, y, z = v
    return np.sqrt((x * x + y * y) + z * z)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of two (3, ...) stacks, one row per coordinate, in
    the bits of ``np.einsum("ij,ij->i")`` over (n, 3) rows, which sums
    ``(a0*b0 + a2*b2) + a1*b1``."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def sph_angles(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cart_to_sph for an (..., 3) stack; returns (az, el, r)."""
    vecs = np.asarray(vecs, dtype=float)
    r = _norms(vecs.T).T
    safe = np.where(r > 0.0, r, 1.0)
    az = wrap_azimuth(np.arctan2(vecs[..., 1], vecs[..., 0]))
    el = np.arcsin(np.clip(vecs[..., 2] / safe, -1.0, 1.0))
    return az, el, r


# === transition matrices ===

def gcs_to_lcs11(orientation: ArrayOrientation) -> np.ndarray:
    """Transition matrix of the first LED element's local frame.

    Columns are (array normal, row axis, column axis) expressed in the
    global frame; the normal is the cross product of the axes. Raises
    SingularFrameError when row and column directions are parallel.
    """
    va, ve, ha, he = (
        orientation.row_azimuth,
        orientation.row_elevation,
        orientation.col_azimuth,
        orientation.col_elevation,
    )
    m = np.array(
        [
            [
                math.cos(ve) * math.sin(va) * math.sin(he)
                - math.sin(ve) * math.cos(he) * math.sin(ha),
                math.cos(ve) * math.cos(va),
                math.cos(he) * math.cos(ha),
            ],
            [
                math.sin(ve) * math.cos(he) * math.cos(ha)
                - math.cos(ve) * math.cos(va) * math.sin(he),
                math.cos(ve) * math.sin(va),
                math.cos(he) * math.sin(ha),
            ],
            [
                math.cos(ve) * math.cos(he) * math.sin(ha - va),
                math.sin(ve),
                math.sin(he),
            ],
        ]
    )
    if abs(_det3(m)) < 1e-9:
        raise SingularFrameError("row and column axes of the array are parallel")
    return m


def gcs_to_lcs_pd(azimuth: float, elevation: float) -> np.ndarray:
    """Transition matrix of the receiver's local frame.

    The third column is the (top) detector normal; the first two columns
    are normalized so the matrix is a proper rotation for any tilt.
    """
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    ce, se = math.cos(elevation), math.sin(elevation)
    return np.array(
        [
            [sa, se * ca, ce * ca],
            [-ca, se * sa, ce * sa],
            [0.0, -ce, se],
        ]
    )


def _det3(m: np.ndarray) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def invert_frame(m: np.ndarray) -> np.ndarray:
    """Invert a 3x3 transition matrix through its adjugate.

    Raises SingularFrameError when |det| < 1e-9.
    """
    det = _det3(m)
    if abs(det) < 1e-9:
        raise SingularFrameError("transition matrix is singular")
    adj = np.array(
        [
            [
                m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
                m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2],
                m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
            ],
            [
                m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2],
                m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
                m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2],
            ],
            [
                m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
                m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1],
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
            ],
        ]
    )
    return adj / det


# === element placement and per-element angles ===

def led_position(
    i: int,
    j: int,
    orientation: ArrayOrientation,
    spacing_h: float,
    spacing_v: float,
) -> np.ndarray:
    """Global position of element (i, j); indices are 1-based."""
    dv = (j - 1) * spacing_v
    dh = (i - 1) * spacing_h
    row_axis = direction(orientation.row_azimuth, orientation.row_elevation)
    col_axis = direction(orientation.col_azimuth, orientation.col_elevation)
    return dv * row_axis + dh * col_axis


def points_to_lcs_ij(
    points: np.ndarray,
    i: int,
    j: int,
    frame_inv: np.ndarray,
    spacing_h: float,
    spacing_v: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Angles of global points as seen in element (i, j)'s local frame.

    ``frame_inv`` is the inverse of the element-(1, 1) frame; returns
    (az, el) arrays for an (..., 3) stack of points.
    """
    local = np.asarray(points, dtype=float) @ frame_inv.T
    local = local - np.array([0.0, (j - 1) * spacing_v, (i - 1) * spacing_h])
    az, el, _ = sph_angles(local)
    return az, el


# === receiver geometry ===

def pd_normals(
    n_pd: int,
    theta_pd: float,
    azimuth: float,
    elevation: float,
    rot_azimuth: float,
    rot_elevation: float,
    t: float,
) -> list[np.ndarray]:
    """Unit normals of every photodetector at time ``t``.

    A single detector points along its (azimuth, elevation) direction.
    An angle-diversity layout has one top detector along that direction
    plus ``n_pd - 1`` side detectors tilted by ``theta_pd`` and spread
    uniformly in local azimuth. Rotation advances the head's azimuth and
    elevation linearly in time; the side detectors keep their place in
    the head frame, so the head turns as a rigid body.
    """
    if n_pd < 1:
        raise InvalidAdrError("receiver needs at least one photodetector")
    if n_pd > 1 and not 0.0 < theta_pd < math.pi / 2:
        raise InvalidAdrError("side detector tilt must lie in (0, pi/2)")

    az = azimuth + rot_azimuth * t
    el = elevation + rot_elevation * t
    out = [direction(az, el)]
    if n_pd > 1:
        m = gcs_to_lcs_pd(az, el)
        gamma = math.pi / 2 - theta_pd
        for p in range(1, n_pd):
            omega = 2.0 * (p - 1) * math.pi / (n_pd - 1)
            local = np.array(
                [
                    math.cos(gamma) * math.cos(omega),
                    math.cos(gamma) * math.sin(omega),
                    math.sin(gamma),
                ]
            )
            pair, _ = cart_to_sph(m @ local)
            out.append(direction(pair.azimuth, pair.elevation))
    return out


# === cluster equivalent normal ===

def cluster_equivalent_normal(
    azimuth: float, elevation: float, distance: float
) -> np.ndarray:
    """Unit normal assigned to a scattering cluster.

    The normal is the perpendicular from the cluster center onto the
    initial LoS axis (the +x axis through the origin), so reflection
    angles are measured against a surface facing the link. Raises
    DegenerateNormalError for centers on the axis.
    """
    return _equivalent_normal(
        distance, math.cos(azimuth), math.sin(azimuth),
        math.cos(elevation), math.sin(elevation),
    )


def _equivalent_normal(
    distance: float, ca: float, sa: float, ce: float, se: float
) -> np.ndarray:
    """:func:`cluster_equivalent_normal` from the cosines and sines of the
    center's azimuth (``ca``, ``sa``) and elevation (``ce``, ``se``), for
    callers that reuse them."""
    cy = distance * ce * sa
    cz = distance * se
    d_tmp = distance * ca * ce
    if math.hypot(cy, cz) < 1e-12:
        raise DegenerateNormalError("cluster center lies on the LoS axis")
    # The second atan2 argument is zero in exact arithmetic but not in
    # floating point: the two products round differently and leave a
    # residue of a few ulp. Over 200k draws from the default Tx-side
    # distribution it was nonzero in ~35%, changed the atan2 result in
    # ~28% and the returned normal's bits in ~11%. Replacing it by 0.0
    # changes output bytes, so it stays until a deliberate re-baseline.
    beta_a = (TWO_PI - math.atan2(cy, d_tmp - distance * ce * ca)) % TWO_PI
    beta_e = -math.atan2(cz, abs(cy))
    # the ufuncs of direction(), so the bits match it whatever libm numpy uses
    cos_a, cos_e = np.cos((beta_a, beta_e)).tolist()
    sin_a, sin_e = np.sin((beta_a, beta_e)).tolist()
    return np.array([cos_e * cos_a, cos_e * sin_a, sin_e])
