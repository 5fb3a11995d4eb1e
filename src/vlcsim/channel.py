"""Ray-level channel assembly: taps, impulse responses, time series.

Every propagation path between LED element (i, j) and photodetector p
becomes a tap with a non-negative power gain (dimensionless, receive
power per unit element transmit power) and a positive delay. Intensity
links carry no carrier phase, so a channel snapshot is fully described
by its (power, delay) pairs.

Indices i, j, p are 1-based throughout, matching the element grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from . import geometry, optics
from .errors import ZeroDistanceError
from .scene import Scene, SceneSnapshot

SPEED_OF_LIGHT = 2.99792458e8
_NO_ROWS = np.empty(0, dtype=int)
_PAD_ROW = np.zeros((1, 3))

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


def _pd_incidence(optics_cfg, cos_pd: np.ndarray):
    """(gain*filter*mask, mask) for rays at detector incidence cosine ``cos_pd``."""
    psi = np.arccos(np.clip(cos_pd, -1.0, 1.0))
    mask = psi <= optics_cfg.fov
    gain = optics.concentrator_gain(optics_cfg, np.where(mask, psi, 0.0))
    return np.asarray(gain * optics_cfg.filter_gain * mask), np.asarray(mask)


def _element_intensity(scene: Scene, i: int, j: int, points: np.ndarray) -> np.ndarray:
    az, el = geometry.points_to_lcs_ij(
        points, i, j, scene.array.frame_inv, scene.array.spacing_h, scene.array.spacing_v
    )
    return np.asarray(scene.array.pattern.intensity(el, az))


class _Leg(NamedTuple):
    """The rays of one tap kind that pass every static gate.

    ``u_r`` holds the exit-to-receiver unit vectors of all candidate
    rays and ``keep`` marks the ones that pass; every other field holds
    only those. ``head`` is the power up to and including the detector
    area, ``mid`` the double-bounce middle hop (None otherwise) and
    ``dr2`` the squared exit-to-receiver distance; the detector's
    incidence cosine, concentrator gain and field of view are left out.
    The direct path is a one-ray leg with cluster and scatterer -1.
    """

    u_r: np.ndarray
    keep: np.ndarray
    dr2: np.ndarray
    head: np.ndarray
    mid: np.ndarray | None
    delay: np.ndarray
    cluster: np.ndarray
    scatterer: np.ndarray


_EMPTY_LEG = _Leg(np.empty((0, 3)), np.empty(0, dtype=bool), np.empty(0), np.empty(0),
                  None, np.empty(0), _NO_ROWS, _NO_ROWS)


def _los_leg(snapshot: SceneSnapshot, i: int, j: int):
    """The direct path from element (i, j) to the receiver."""
    scene = snapshot.scene
    led = scene.array.element_position(i, j)
    rx = snapshot.rx_position
    vec = rx - led
    d = float(np.linalg.norm(vec))
    if d < 1e-12:
        raise ZeroDistanceError("receiver coincides with an LED element")
    head = _element_intensity(scene, i, j, rx[None, :])[0] * scene.receiver.area
    if not head > 0.0:
        return _EMPTY_LEG
    return _Leg((vec / d)[None, :], np.array([True]), np.array([d**2]), np.array([head]),
                None, np.array([d / SPEED_OF_LIGHT]), np.array([-1]), np.array([-1]))


class _TxHalf(NamedTuple):
    """The LED-side half of the rays through some clusters: every
    candidate ray up to its exit scatterer, which no receiver motion
    changes.

    ``ok`` marks the rays that pass the gates before the exit: a zero
    distance or a back face at the first scatterer and, for a double
    bounce, on the middle hop, and a middle hop without power.
    ``prefix`` is the power up to the first scatterer,
    ``f * A_tx * cos_in / d_t**2 * gamma``. ``d_s`` and ``mid`` (the
    middle-hop length and power) are None for a single bounce.
    """

    cluster: np.ndarray
    scatterer: np.ndarray
    exit_point: np.ndarray
    exit_normal: np.ndarray
    d_t: np.ndarray
    ok: np.ndarray
    prefix: np.ndarray
    d_s: np.ndarray | None
    mid: np.ndarray | None


def _tx_half(snapshot: SceneSnapshot, i: int, j: int, idx: np.ndarray, kind: TapKind):
    """The LED-side half of the rays from element (i, j) through ``idx``."""
    scene = snapshot.scene
    led = scene.array.element_position(i, j)

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
    cos_in_a = np.maximum(cos_in_a, 0.0)
    prefix = (f * scene.tx.area_per_scatterer * cos_in_a
              / np.where(d_t > 0, d_t, 1.0) ** 2 * gamma_a)
    if kind != TapKind.DB:
        return _TxHalf(cluster_id, scatterer_id, s_a, normal_a, d_t, ok, prefix, None, None)

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
    # extra hop: diffuse exit off the first cluster, capture at the second
    mid = (
        np.maximum(cos_out_a, 0.0)
        / math.pi
        * scene.rx.area_per_scatterer
        * np.maximum(cos_in_z, 0.0)
        / np.where(d_s > 0, d_s, 1.0) ** 2
        * gamma_z
    )
    ok &= mid > 0.0
    return _TxHalf(cluster_id, scatterer_id, s_z, normal_z, d_t, ok, prefix, d_s, mid)


def _bounce_leg(snapshot: SceneSnapshot, i: int, j: int, idx: np.ndarray, kind: TapKind,
                halves: dict | None = None):
    """Detector-independent part of the rays through the clusters ``idx``.

    Drops rays that meet a zero distance or a back face (at the first
    scatterer, on the middle hop, at exit) or that carry no power before
    the detector; what is left holds for every detector normal. The
    LED-side half comes from ``halves`` under ``(i, j, kind)`` when the
    caller passes that dict, and is built into it on a miss; the caller
    keeps ``idx`` and the cluster positions the same for every key.
    """
    if idx.size == 0:
        return _EMPTY_LEG
    if halves is None:
        tx = _tx_half(snapshot, i, j, idx, kind)
    else:
        tx = halves.get((i, j, kind))
        if tx is None:
            tx = halves[(i, j, kind)] = _tx_half(snapshot, i, j, idx, kind)

    vec_r = snapshot.rx_position - tx.exit_point
    d_r = np.linalg.norm(vec_r, axis=1)
    ok = tx.ok & (d_r > 1e-12)
    u_r = vec_r / np.where(d_r > 0, d_r, 1.0)[:, None]
    cos_out = np.einsum("ij,ij->i", u_r, tx.exit_normal)
    ok &= cos_out >= 0.0
    cos_out = np.maximum(cos_out, 0.0)
    head = tx.prefix * (cos_out / math.pi) * snapshot.scene.receiver.area
    ok &= head > 0.0   # a zero head gives zero power at every detector
    delay = tx.d_t + d_r
    mid = None
    if tx.mid is not None:
        mid = tx.mid[ok]
        delay = delay + tx.d_s
    delay = delay / SPEED_OF_LIGHT
    dr2 = np.where(d_r > 0, d_r, 1.0) ** 2
    return _Leg(u_r, ok, dr2[ok], head[ok], mid, delay[ok],
                tx.cluster[ok], tx.scatterer[ok])


class _Layout(NamedTuple):
    """The kept rays of the LoS, SB and DB legs of some elements, element-major.

    Element e owns rays ``bounds[e]:bounds[e + 1]`` and ``order`` holds
    each element's stable delay order in its own span. ``u`` ends in one
    zero row, so ``u @ n`` always runs as the gemv a leg of several
    candidate rays gets on its own. A one-candidate leg gets a dot
    product instead, which can round differently: ``single`` indexes
    those rays, and ``u_single`` stacks them as (1, 3) matrices, whose
    product numpy again takes as one dot product each. ``mid`` is 1.0
    outside double bounces, an exact factor.
    """

    u: np.ndarray
    single: np.ndarray
    u_single: np.ndarray
    head: np.ndarray
    dr2: np.ndarray
    mid: np.ndarray
    delay: np.ndarray
    kind: np.ndarray
    cluster: np.ndarray
    scatterer: np.ndarray
    order: np.ndarray
    bounds: np.ndarray


@functools.cache
def _all_elements(rows: int, cols: int) -> tuple:
    return tuple((i, j) for i in range(1, rows + 1) for j in range(1, cols + 1))


def _layout(snapshot: SceneSnapshot, elements: tuple, mask: np.ndarray,
            halves: dict | None) -> _Layout:
    """The LoS, SB and DB legs of ``elements`` under visibility ``mask``,
    concatenated element-major. A bounce leg reads its LED-side half
    from ``halves`` (see :func:`_bounce_leg`), which only the scene's
    own mask may pass. Only :func:`cir_snapshot` caches a layout: never
    one of an override, and across instants only when nothing moves.
    """
    scene = snapshot.scene
    legs = []
    for i, j in elements:
        vis = np.flatnonzero(mask[i - 1, j - 1])
        db = scene.is_db[vis]
        legs += (_los_leg(snapshot, i, j),
                 _bounce_leg(snapshot, i, j, vis[~db], TapKind.SB, halves),
                 _bounce_leg(snapshot, i, j, vis[db], TapKind.DB, halves))

    sizes = [leg.delay.size for leg in legs]
    starts = list(itertools.accumulate(sizes, initial=0))
    bounds = starts[::3]
    single = np.array([s for s, leg in zip(starts, legs) if leg.keep.size == 1 == leg.delay.size],
                      dtype=np.intp)
    u = np.concatenate([leg.u_r.compress(leg.keep, axis=0) for leg in legs] + [_PAD_ROW])
    delay = np.concatenate([leg.delay for leg in legs])
    mid = np.ones(delay.size)
    for a, leg in zip(starts, legs):
        if leg.mid is not None:
            mid[a:a + leg.mid.size] = leg.mid
    return _Layout(
        u,
        single,
        u[single, None, :],
        np.concatenate([leg.head for leg in legs]),
        np.concatenate([leg.dr2 for leg in legs]),
        mid,
        delay,
        np.repeat(np.array([*TapKind] * len(elements), dtype=np.int8), sizes),
        np.concatenate([leg.cluster for leg in legs]),
        np.concatenate([leg.scatterer for leg in legs]),
        np.concatenate([np.argsort(delay[a:b], kind="stable") + a
                        for a, b in zip(bounds, bounds[1:])]),
        np.array(bounds),
    )


def _finish(snapshot: SceneSnapshot, layout: _Layout, p: int):
    """The taps of every element of ``layout`` at detector p.

    Returns (power, delay, kind, cluster_id, scatterer_id), element-major
    and sorted by delay within each element, and the list of cuts: the
    taps of element e are ``cuts[e]:cuts[e + 1]``.
    """
    n_pd = snapshot.pd_normals[p - 1]
    dots = layout.u @ n_pd
    dots[layout.single] = (layout.u_single @ n_pd)[:, 0]
    cos_pd = -dots[:-1]
    gain, in_fov = _pd_incidence(snapshot.scene.receiver.optics, cos_pd)
    power = layout.head * np.maximum(cos_pd, 0.0) / layout.dr2 * gain * layout.mid
    ok = in_fov & (power > 0.0)
    # a stable sort restricted to the taps that pass is their stable sort
    sel = layout.order[ok[layout.order]]
    cuts = ok.nonzero()[0].searchsorted(layout.bounds).tolist()
    fields = (power[sel], layout.delay[sel], layout.kind[sel],
              layout.cluster[sel], layout.scatterer[sel])
    return fields, cuts


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

    ``visibility`` overrides the scene's own birth-death mask and must
    have its shape; its layout serves this call alone. Calls at one
    instant can share one ``snapshot = scene.at(t)`` (one of another
    scene or time raises ``ValueError``) and with it the receiver
    position, the detector normals and the layout of the
    detector-independent part of every ray, for example across the
    detectors of an angle-diversity head. A call finishes the rays
    of its own element only, unless the snapshot comes from
    :func:`channel_over_time`: then the first call at a detector
    finishes every element of the instant and the others read their
    share.
    """
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    if snapshot is None:
        snapshot = scene.at(t)
    elif snapshot.scene is not scene:
        raise ValueError(f"snapshot belongs to another scene (seed {snapshot.scene.seed}) "
                         f"than the one of this call (seed {scene.seed})")
    elif snapshot.time != t:
        raise ValueError(f"snapshot is at time {snapshot.time}, the call at t = {t}")
    mask = scene.visibility if visibility is None else visibility
    if mask.shape != scene.visibility.shape:
        raise ValueError(
            f"visibility override has shape {mask.shape}, "
            f"the scene's mask has shape {scene.visibility.shape}"
        )
    if visibility is None and snapshot._finished is not None:
        elements = _all_elements(scene.array.rows, scene.array.cols)
        e, finished = (i - 1) * scene.array.cols + j - 1, snapshot._finished
    else:
        elements, e, finished = ((i, j),), 0, {}
    if p not in finished:
        own = visibility is None
        layouts = snapshot._layouts if own else {}
        if elements not in layouts:
            layouts[elements] = _layout(snapshot, elements, mask,
                                        snapshot._tx_halves if own else None)
        finished[p] = _finish(snapshot, layouts[elements], p)
    fields, cuts = finished[p]
    a, b = cuts[e], cuts[e + 1]
    return Cir(*(x[a:b] for x in fields), (i, j), p, t)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """All sub-channel impulse responses of a scene at one instant."""

    time: float
    cirs: dict

    def cir(self, i: int, j: int, p: int = 1) -> Cir:
        return self.cirs[(i, j, p)]


def _snapshots(scene: Scene, times, finish_all: bool = False) -> Iterator[SceneSnapshot]:
    """Yields one snapshot of ``scene`` per instant of ``times``, sharing
    what stays the same across them; each is made only when asked for,
    so a caller that drops it frees what is its own.

    Where nothing moves (receiver speed and cluster velocities zero) the
    snapshots share one layout dict, so a rotating receiver recomputes
    only the detector incidence. Where only the receiver moves, each
    builds its own layouts but all share one dict of LED-side bounce
    halves. Drifting clusters share nothing. With ``finish_all`` each
    snapshot finishes every element of its instant at once (see
    :func:`cir_snapshot`). Nothing they share outlives them and the
    generator.
    """
    drifting = bool(scene.tx.velocity.any() or scene.rx.velocity.any())
    moving = drifting or scene.receiver.speed != 0
    layouts: dict = {}
    halves = {} if moving and not drifting else None
    for t in times:
        yield SceneSnapshot(scene, t, {} if moving else layouts,
                            {} if finish_all else None, halves)


def channel_over_time(scene: Scene, times) -> list[ChannelMatrix]:
    """Evaluate every sub-channel at each requested time.

    ``times`` is one time or a 1-D sequence of finite times. The
    sub-channels of one instant share one finish per detector: its
    first ``cir_snapshot`` call computes the detector incidence of every
    element's rays in one pass and each call reads its own element's
    taps, in the same bits a lone ``cir_snapshot`` gives. A scene where
    nothing moves (receiver speed and cluster velocities zero) shares
    one layout across its instants, so a receiver that only rotates
    recomputes just the detector incidence. A scene whose receiver
    moves builds a fresh layout per instant, but the LED-side half of
    each bounce leg (up to the exit scatterer) is built once per call
    unless the clusters drift. Nothing stays cached after the call.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, got an array of shape {times.shape}")
    times = np.atleast_1d(times).tolist()
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"time t = {t} is not finite")
    out = []
    for t, snapshot in zip(times, _snapshots(scene, times, finish_all=True)):
        cirs = {}
        for i in range(1, scene.array.rows + 1):
            for j in range(1, scene.array.cols + 1):
                for p in range(1, scene.receiver.n_pd + 1):
                    cirs[(i, j, p)] = cir_snapshot(i, j, p, scene, t, snapshot=snapshot)
        out.append(ChannelMatrix(t, cirs))
    return out
