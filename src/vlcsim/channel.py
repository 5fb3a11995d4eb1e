"""Ray-level channel assembly: taps, impulse responses, time series.

Every propagation path between LED element (i, j) and photodetector p
becomes a tap with a non-negative power gain (dimensionless, receive
power per unit element transmit power) and a positive delay. Intensity
links carry no carrier phase, so a channel snapshot is fully described
by its (power, delay) pairs.

Indices i, j, p are 1-based throughout, matching the element grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import geometry, optics
from .errors import ZeroDistanceError
from .scene import Scene, SceneSnapshot

SPEED_OF_LIGHT = 2.99792458e8

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelMatrix",
    "Cir",
    "TapKind",
    "channel_over_time",
    "cir_snapshot",
]


class TapKind(IntEnum):
    LOS = 0
    SB = 1
    DB = 2


@dataclass(frozen=True, eq=False)
class Cir:
    """Channel impulse response of one sub-channel at one instant.

    Tap arrays are sorted by delay. ``clusters``/``scatterers`` hold -1
    for the LoS tap.
    """

    powers: np.ndarray
    delays: np.ndarray
    kinds: np.ndarray
    clusters: np.ndarray
    scatterers: np.ndarray
    element: tuple[int, int]
    pd: int
    time: float

    @property
    def dc_gain(self) -> float:
        return float(self.powers.sum())

    def nlos_only(self) -> "Cir":
        keep = self.kinds != int(TapKind.LOS)
        return Cir(
            self.powers[keep],
            self.delays[keep],
            self.kinds[keep],
            self.clusters[keep],
            self.scatterers[keep],
            self.element,
            self.pd,
            self.time,
        )


def _pd_incidence(optics_cfg, n_pd: np.ndarray, toward_rx: np.ndarray):
    """(gain*filter*mask, cos) for rays arriving along ``toward_rx`` units."""
    cos_pd = -(toward_rx @ n_pd)
    psi = np.arccos(np.clip(cos_pd, -1.0, 1.0))
    mask = psi <= optics_cfg.fov
    gain = optics.concentrator_gain(optics_cfg, np.where(mask, psi, 0.0))
    return np.asarray(gain * optics_cfg.filter_gain * mask), np.asarray(cos_pd), np.asarray(mask)


def _element_intensity(scene: Scene, i: int, j: int, points: np.ndarray) -> np.ndarray:
    az, el = geometry.points_to_lcs_ij(
        points, i, j, scene.array.frame_inv, scene.array.spacing_h, scene.array.spacing_v
    )
    return np.asarray(scene.array.pattern.intensity(el, az))


def _los_arrays(snapshot: SceneSnapshot, i: int, j: int, p: int):
    scene = snapshot.scene
    led = scene.array.element_position(i, j)
    rx = snapshot.rx_position
    vec = rx - led
    d = float(np.linalg.norm(vec))
    if d < 1e-12:
        raise ZeroDistanceError("receiver coincides with an LED element")
    u = vec / d
    f = _element_intensity(scene, i, j, rx[None, :])[0]
    n_pd = snapshot.pd_normals[p - 1]
    gain, cos_pd, mask = _pd_incidence(scene.receiver.optics, n_pd, u[None, :])
    if not mask[0]:
        return None
    power = f * scene.receiver.area * cos_pd[0] / d**2 * gain[0]
    if power <= 0.0:
        return None
    return float(power), d / SPEED_OF_LIGHT


def _bounce_arrays(
    snapshot: SceneSnapshot, i: int, j: int, p: int, idx: np.ndarray, double: bool
):
    """Vectorized tap powers/delays for the clusters in ``idx``.

    Returns (power, delay, cluster_id, scatterer_id) arrays with pruned
    rays (negative cosines, out of field of view) removed.
    """
    scene = snapshot.scene
    if idx.size == 0:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=int), np.empty(0, dtype=int)
    led = scene.array.element_position(i, j)
    rx = snapshot.rx_position
    n_pd = snapshot.pd_normals[p - 1]
    rx_opt = scene.receiver.optics

    s_a, normal_a, gamma_a = scene.tx.take(idx, snapshot.time)   # (n, m, 3)
    n_cl, m = s_a.shape[:2]
    s_a = s_a.reshape(-1, 3)
    cluster_id = np.repeat(idx, m)
    scatterer_id = np.tile(np.arange(m), n_cl)
    normal_a = np.repeat(normal_a, m, axis=0)
    gamma_a = np.repeat(gamma_a, m)

    vec_t = s_a - led
    d_t = np.linalg.norm(vec_t, axis=1)
    ok = d_t > 1e-12
    u_t = vec_t / np.where(ok, d_t, 1.0)[:, None]
    f = _element_intensity(scene, i, j, s_a)
    cos_in_a = -np.einsum("ij,ij->i", u_t, normal_a)
    ok &= cos_in_a >= 0.0

    if double:
        s_z, normal_z, gamma_z = scene.rx.take(scene.partner[idx], snapshot.time)
        m_z = s_z.shape[1]
        cols = np.arange(m) % m_z               # index-aligned pairing
        s_z = s_z[:, cols, :].reshape(-1, 3)
        normal_z = np.repeat(normal_z, m, axis=0)
        gamma_z = np.repeat(gamma_z, m)
        vec_s = s_z - s_a
        d_s = np.linalg.norm(vec_s, axis=1)
        ok &= d_s > 1e-12
        u_s = vec_s / np.where(d_s > 0, d_s, 1.0)[:, None]
        cos_out_a = np.einsum("ij,ij->i", u_s, normal_a)
        cos_in_z = -np.einsum("ij,ij->i", u_s, normal_z)
        ok &= (cos_out_a >= 0.0) & (cos_in_z >= 0.0)
        exit_point, exit_normal = s_z, normal_z
    else:
        exit_point, exit_normal = s_a, normal_a

    vec_r = rx - exit_point
    d_r = np.linalg.norm(vec_r, axis=1)
    ok &= d_r > 1e-12
    u_r = vec_r / np.where(d_r > 0, d_r, 1.0)[:, None]
    cos_out = np.einsum("ij,ij->i", u_r, exit_normal)
    ok &= cos_out >= 0.0
    gain, cos_pd, in_fov = _pd_incidence(rx_opt, n_pd, u_r)
    ok &= in_fov

    cos_in_a = np.maximum(cos_in_a, 0.0)
    cos_out = np.maximum(cos_out, 0.0)
    power = (
        f
        * scene.tx.area_per_scatterer
        * cos_in_a
        / np.where(d_t > 0, d_t, 1.0) ** 2
        * gamma_a
        * (cos_out / math.pi)
        * scene.receiver.area
        * np.maximum(cos_pd, 0.0)
        / np.where(d_r > 0, d_r, 1.0) ** 2
        * gain
    )
    delay = d_t + d_r
    if double:
        # extra hop: diffuse exit off the first cluster, capture at the second
        mid = (
            np.maximum(cos_out_a, 0.0)
            / math.pi
            * scene.rx.area_per_scatterer
            * np.maximum(cos_in_z, 0.0)
            / np.where(d_s > 0, d_s, 1.0) ** 2
            * gamma_z
        )
        power = power * mid
        delay = delay + d_s
    ok &= power > 0.0
    delay = delay / SPEED_OF_LIGHT
    return power[ok], delay[ok], cluster_id[ok], scatterer_id[ok]


def cir_snapshot(
    i: int,
    j: int,
    p: int,
    scene: Scene,
    t: float,
    visibility: np.ndarray | None = None,
    snapshot: SceneSnapshot | None = None,
) -> Cir:
    """Impulse response of sub-channel (i, j, p) at time ``t``.

    ``visibility`` overrides the scene's own birth-death mask (same
    shape); pass a precomputed ``snapshot`` to share positions across
    calls at the same instant.
    """
    if snapshot is None:
        snapshot = scene.at(t)
    mask = scene.visibility if visibility is None else visibility
    vis = np.flatnonzero(mask[i - 1, j - 1])
    sb_idx = vis[~scene.is_db[vis]]
    db_idx = vis[scene.is_db[vis]]

    parts = []
    lo = _los_arrays(snapshot, i, j, p)
    if lo is not None:
        parts.append(
            (
                np.array([lo[0]]),
                np.array([lo[1]]),
                np.array([int(TapKind.LOS)], dtype=np.int8),
                np.array([-1]),
                np.array([-1]),
            )
        )
    for idx, double, kind in ((sb_idx, False, TapKind.SB), (db_idx, True, TapKind.DB)):
        pw, dl, cid, sid = _bounce_arrays(snapshot, i, j, p, idx, double=double)
        parts.append(
            (pw, dl, np.full(pw.size, int(kind), dtype=np.int8), cid, sid)
        )

    powers, delays, kinds, clusters, scats = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(delays, kind="stable")
    return Cir(
        powers[order],
        delays[order],
        kinds[order],
        clusters[order],
        scats[order],
        (i, j),
        p,
        t,
    )


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """All sub-channel impulse responses of a scene at one instant."""

    time: float
    cirs: dict

    def cir(self, i: int, j: int, p: int = 1) -> Cir:
        return self.cirs[(i, j, p)]

    def __iter__(self):
        return iter(self.cirs.values())


def channel_over_time(scene: Scene, times) -> list[ChannelMatrix]:
    """Evaluate every sub-channel at each requested time."""
    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        snapshot = scene.at(float(t))
        cirs = {}
        for i in range(1, scene.array.rows + 1):
            for j in range(1, scene.array.cols + 1):
                for p in range(1, scene.receiver.n_pd + 1):
                    cirs[(i, j, p)] = cir_snapshot(
                        i, j, p, scene, float(t), snapshot=snapshot
                    )
        out.append(ChannelMatrix(float(t), cirs))
    return out
