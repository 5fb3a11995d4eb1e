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
from .scene import Scene, SceneSnapshot, _Block

SPEED_OF_LIGHT = 2.99792458e8
_STACK_BLOCK = 8   # element-instants per stacked pass where only the receiver moves

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


_LOS_IDS = np.array([[TapKind.LOS], [-1], [-1]])   # a direct ray's kind, cluster, scatterer


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
    """The rays of one tap kind of one element at K instants.

    ``keep``, ``head``, ``dr2`` and ``delay`` are (K, n): a row per
    instant over the n rays that pass the LED-side gates, and ``keep``
    marks the ones that also pass every gate after them. ``u`` (3, K, n)
    holds the exit-to-receiver unit vectors, ``head`` the power up to
    and including the detector area, ``dr2`` the squared
    exit-to-receiver distance. ``mid`` (the double-bounce middle hop,
    None otherwise) and ``ids`` (3, n), the tap kind, cluster and
    scatterer, hold one value per ray. The detector's incidence cosine,
    concentrator gain and field of view are left out. ``candidates``
    counts the rays before any gate. The direct path is a one-ray leg
    with cluster and scatterer -1.
    """

    candidates: int
    keep: np.ndarray
    u: np.ndarray
    head: np.ndarray
    dr2: np.ndarray
    mid: np.ndarray | None
    delay: np.ndarray
    ids: np.ndarray


def _los_leg(scene: Scene, i: int, j: int, rx: np.ndarray) -> _Leg:
    """The direct path from element (i, j) to each receiver position of
    ``rx`` (K, 3), in the bits of one position at a time: stacks of
    (1, 3) products keep the dot product of a 1-D ``np.linalg.norm`` and
    the vector-matrix product into the element frame, and the squared
    length is Python's ``d ** 2`` (libm's ``pow``), which differs from
    ``d * d`` in about one last bit in a thousand."""
    vec = rx - scene.array.element_position(i, j)
    d = np.sqrt(vec[:, None, :] @ vec[:, :, None])[:, :, 0]   # (K, 1)
    if (d < 1e-12).any():
        raise ZeroDistanceError("receiver coincides with an LED element")
    head = _element_intensity(scene, i, j, rx[:, None, :]) * scene.receiver.area
    u = (vec / d).T[:, :, None]
    dr2 = np.array([[x**2] for x in d[:, 0].tolist()])
    return _Leg(1, head > 0.0, u, head, dr2, None, d / SPEED_OF_LIGHT, _LOS_IDS)


class _TxHalf(NamedTuple):
    """The LED-side half of the rays through some clusters: each ray up
    to its exit scatterer, which no receiver motion changes.

    It holds only the rays that pass the gates before the exit: a
    nonzero distance and a front face at the first scatterer and, for a
    double bounce, on the middle hop, and a middle hop with power.
    ``candidates`` counts the rays before those gates. ``ids`` holds
    the tap kind, cluster and scatterer of each ray; ``exit_point`` and
    ``exit_normal`` are (3, n), one row per coordinate. ``prefix``
    is the power up to the first scatterer,
    ``f * A_tx * cos_in / d_t**2 * gamma``. ``d_s`` and ``mid`` (the
    middle-hop length and power) are None for a single bounce.
    """

    candidates: int
    ids: np.ndarray
    exit_point: np.ndarray
    exit_normal: np.ndarray
    d_t: np.ndarray
    prefix: np.ndarray
    d_s: np.ndarray | None
    mid: np.ndarray | None


def _tx_half(snapshot: SceneSnapshot, i: int, j: int, idx: np.ndarray, kind: TapKind):
    """The LED-side half of the rays from element (i, j) through ``idx``."""
    scene = snapshot.scene
    led = scene.array.element_position(i, j)

    s_a, normal_a, gamma_a = scene.tx.take(idx, snapshot.time)   # (n, m, 3)
    m = s_a.shape[1]
    s_a = s_a.reshape(-1, 3)
    normal_a = np.repeat(normal_a, m, axis=0)
    gamma_a = np.repeat(gamma_a, m)

    vec_t = s_a - led
    d_t = geometry._norms(vec_t.T)
    ok = d_t > 1e-12
    u_t = vec_t / np.where(ok, d_t, 1.0)[:, None]
    f = _element_intensity(scene, i, j, s_a)
    cos_in_a = -geometry._dots(u_t.T, normal_a.T)
    ok &= cos_in_a >= 0.0
    cos_in_a = np.maximum(cos_in_a, 0.0)
    prefix = (f * scene.tx.area_per_scatterer * cos_in_a
              / np.where(d_t > 0, d_t, 1.0) ** 2 * gamma_a)
    exit_point, exit_normal, d_s, mid = s_a, normal_a, None, None
    if kind == TapKind.DB:
        s_z, normal_z, gamma_z = scene.rx.take(scene.partner[idx], snapshot.time)
        m_z = s_z.shape[1]
        cols = np.arange(m) % m_z               # index-aligned pairing
        s_z = s_z[:, cols, :].reshape(-1, 3)
        normal_z = np.repeat(normal_z, m, axis=0)
        gamma_z = np.repeat(gamma_z, m)
        vec_s = s_z - s_a
        d_s = geometry._norms(vec_s.T)
        ok &= d_s > 1e-12
        u_s = vec_s / np.where(d_s > 0, d_s, 1.0)[:, None]
        cos_out_a = geometry._dots(u_s.T, normal_a.T)
        cos_in_z = -geometry._dots(u_s.T, normal_z.T)
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
        exit_point, exit_normal = s_z, normal_z
    live = np.flatnonzero(ok)
    cluster, scatterer = np.divmod(live, m)   # rays run cluster-major
    ids = np.stack([np.full(live.size, kind), idx.take(cluster), scatterer])
    return _TxHalf(ok.size, ids, exit_point.T.take(live, axis=1), exit_normal.T.take(live, axis=1),
                   d_t.take(live), prefix.take(live),
                   None if d_s is None else d_s.take(live), None if mid is None else mid.take(live))


def _bounce_leg(snapshot: SceneSnapshot, i: int, j: int, idx: np.ndarray, kind: TapKind,
                rx: np.ndarray) -> _Leg:
    """The rays through the clusters ``idx`` at each receiver position of
    ``rx`` (K, 3), up to the detector.

    Drops rays that meet a zero distance or a back face at exit or that
    carry no power before the detector; what is left holds for every
    detector normal. The LED-side half comes from the block's
    ``tx_halves`` under ``(i, j, kind)`` when the block has that dict,
    and is built into it on a miss. ``idx`` is always the scene's
    clusters of that kind visible at (i, j), and the block's clusters
    do not move, so one key names one half. Lengths and dot products
    come from :func:`geometry._norms` and :func:`geometry._dots`, so each
    value has the bits of the same ray's row in ``(N, 3)`` arrays.
    """
    halves = snapshot._block.tx_halves
    if halves is None:
        tx = _tx_half(snapshot, i, j, idx, kind)
    else:
        tx = halves.get((i, j, kind))
        if tx is None:
            tx = halves[(i, j, kind)] = _tx_half(snapshot, i, j, idx, kind)

    vec = rx.T[:, :, None] - tx.exit_point[:, None, :]    # (3, K, n)
    d_r = geometry._norms(vec)
    keep = d_r > 1e-12
    d_r1 = np.where(d_r > 0, d_r, 1.0)
    u = np.divide(vec, d_r1, out=vec)
    cos_out = geometry._dots(u, tx.exit_normal)
    keep &= cos_out >= 0.0
    head = tx.prefix * (np.maximum(cos_out, 0.0) / math.pi) * snapshot.scene.receiver.area
    keep &= head > 0.0   # a zero head gives zero power at every detector
    delay = tx.d_t + d_r
    if tx.d_s is not None:
        delay = delay + tx.d_s
    return _Leg(tx.candidates, keep, u, head, d_r1**2, tx.mid, delay / SPEED_OF_LIGHT, tx.ids)


class _Layout(NamedTuple):
    """The kept rays of the LoS, SB and DB legs of some elements at some
    instants, instant-major, then element-major.

    With E elements, element e at the r-th instant owns rays
    ``bounds[r * E + e]:bounds[r * E + e + 1]``, ``rows`` (that is,
    ``bounds[::E]``) splits the rays by instant, and ``order`` holds
    each element's stable delay order at each instant in its own span.
    ``u`` ends in one zero row, so ``u[a:b + 1] @ n`` always runs as the
    gemv a leg of several candidate rays gets on its own. A
    one-candidate leg gets a dot product instead, which can round
    differently: ``single`` indexes those rays, and ``u_single`` stacks
    them as (1, 3) matrices, whose product numpy again takes as one dot
    product each. ``mid`` is 1.0 outside double bounces, an exact factor.
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
    rows: list


def _joined(parts: list) -> np.ndarray:
    """``np.concatenate(parts, axis=-1)``, or the one part itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


@functools.cache
def _all_elements(rows: int, cols: int) -> tuple:
    return tuple((i, j) for i in range(1, rows + 1) for j in range(1, cols + 1))


def _layout(snapshot: SceneSnapshot, positions: tuple, elements: tuple) -> _Layout:
    """The LoS, SB and DB legs of ``elements`` at the instants
    ``positions`` of the snapshot's block, computed for all of those
    instants at once. A bounce leg without a visible cluster is left
    out. A bounce leg reads its LED-side half from the block (see
    :func:`_bounce_leg`).
    """
    scene = snapshot.scene
    rx = snapshot._block.rx_positions[list(positions)]
    legs, firsts = [], []   # firsts: each element's LoS leg
    for i, j in elements:
        vis = scene.visible_indices(i, j)
        db = scene.is_db[vis]
        firsts.append(len(legs))
        legs.append(_los_leg(scene, i, j, rx))
        for idx, kind in ((vis[~db], TapKind.SB), (vis[db], TapKind.DB)):
            if idx.size:
                legs.append(_bounce_leg(snapshot, i, j, idx, kind, rx))

    keep = _joined([leg.keep for leg in legs])   # (K, all rays)
    flat = np.flatnonzero(keep)
    ray = flat % keep.shape[1]

    def kept(parts):       # (..., K, n) per leg
        both = _joined(parts)
        return both.reshape(*both.shape[:-2], -1).take(flat, axis=-1)

    widths = [leg.keep.shape[1] for leg in legs]
    starts = list(itertools.accumulate(widths, initial=0))
    counts = np.add.reduceat(keep, [starts[e] for e in firsts], axis=1, dtype=np.intp)  # (K, E)
    bounds = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    u = np.empty((flat.size + 1, 3))
    u[:-1] = kept([leg.u for leg in legs]).T
    u[-1] = 0.0
    one = np.zeros(starts[-1], dtype=bool)
    mid = np.ones(starts[-1])
    for a, b, leg in zip(starts, starts[1:], legs):
        one[a:b] = leg.candidates == 1
        if leg.mid is not None:
            mid[a:b] = leg.mid
    single = np.flatnonzero(one.take(ray))
    kind, cluster, scatterer = _joined([leg.ids for leg in legs]).take(ray, axis=1)
    delay = kept([leg.delay for leg in legs])
    return _Layout(
        u,
        single,
        u[single, None, :],
        kept([leg.head for leg in legs]),
        kept([leg.dr2 for leg in legs]),
        mid.take(ray),
        delay,
        kind.astype(np.int8),
        cluster,
        scatterer,
        np.concatenate([np.argsort(delay[a:b], kind="stable") + a
                        for a, b in itertools.pairwise(bounds.tolist())]),
        bounds,
        bounds[::len(elements)].tolist(),
    )


def _finish(layout: _Layout, normals: list, optics_cfg):
    """The taps of every element and instant of ``layout``, seen by a
    detector with the normal ``normals[r]`` at the r-th instant.

    Each run of instants with one normal gets one gemv, and its
    one-candidate rays one stack of dot products. Returns (power, delay,
    kind, cluster_id, scatterer_id), ordered as the layout and sorted by
    delay within each element and instant, and the list of cuts: the
    taps of span s of ``layout.bounds`` are ``cuts[s]:cuts[s + 1]``.
    """
    u, single, rows = layout.u, layout.single, layout.rows
    dots = np.empty(u.shape[0])
    start = 0
    while start < len(normals):
        n_pd = normals[start]
        end = start + 1
        while end < len(normals) and normals[end].tobytes() == n_pd.tobytes():
            end += 1
        a, b = rows[start], rows[end]
        if a < b:
            dots[a:b + 1] = u[a:b + 1] @ n_pd
            s, e = single.searchsorted((a, b))
            dots[single[s:e]] = (layout.u_single[s:e] @ n_pd)[:, 0]
        start = end
    cos_pd = -dots[:-1]
    gain, in_fov = _pd_incidence(optics_cfg, cos_pd)
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
    snapshot: SceneSnapshot | None = None,
) -> Cir:
    """Impulse response of sub-channel (i, j, p) at time ``t``.

    ``i``, ``j`` and ``p`` run from 1 to the array's rows, its columns
    and the receiver's detector count; others raise ``ValueError``.
    The rays run through the clusters ``scene.visibility`` marks at
    element (i, j); for another mask of the same shape, pass
    ``dataclasses.replace(scene, visibility=mask)``. Calls at one
    instant can share one ``snapshot = scene.at(t)`` (one of another
    scene or time raises ``ValueError``) and with it the receiver
    position, the detector normals and the layout of the
    detector-independent part of every ray, for example across the
    detectors of an angle-diversity head. A call finishes the rays of
    its own element only, unless the snapshot comes from
    :func:`channel_over_time`: then the first call at a detector
    finishes every element of the instant and the others read their
    share. Where the snapshot's block (see :func:`_snapshots`) holds
    other instants that will ask for the same finish, the first call
    evaluates all of them in one stacked pass. Every result has the bits
    of a lone call.
    """
    rows, cols, n_pd = scene.array.rows, scene.array.cols, scene.receiver.n_pd
    if not (1 <= i <= rows and 1 <= j <= cols and 1 <= p <= n_pd):
        raise ValueError(f"sub-channel ({i}, {j}, {p}) is out of range: i runs 1..{rows}, "
                         f"j 1..{cols} and p 1..{n_pd}")
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    if snapshot is not None and snapshot.scene is not scene:
        raise ValueError(f"snapshot belongs to another scene (seed {snapshot.scene.seed}) "
                         f"than the one of this call (seed {scene.seed})")
    if snapshot is not None and snapshot.time != t:
        raise ValueError(f"snapshot is at time {snapshot.time}, the call at t = {t}")
    if snapshot is None:
        snapshot = scene.at(t)
    block, q = snapshot._block, snapshot._position
    if block.finish_all:   # the layout holds every element
        elements, e, scope = _all_elements(rows, cols), (i - 1) * cols + j - 1, None
    else:
        elements, e, scope = ((i, j),), 0, (i, j)
    done = block.finished.get((scope, p, q))
    if done is None:
        positions = block.wanted.get((scope, p), ())
        if q not in positions:
            positions = (q,)
        layout = block.layouts.get((scope, positions))
        if layout is None:
            layout = block.layouts[(scope, positions)] = _layout(snapshot, positions, elements)
        normals = [block.pd_normals[k][p - 1] for k in positions]
        fields, cuts = _finish(layout, normals, scene.receiver.optics)
        for r, k in enumerate(positions):
            block.finished[(scope, p, k)] = fields, cuts, r * len(elements)
        done = block.finished[(scope, p, q)]
    fields, cuts, base = done
    a, b = cuts[base + e], cuts[base + e + 1]
    return Cir(*(x[a:b] for x in fields), (i, j), p, t)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """All sub-channel impulse responses of a scene at one instant,
    keyed by (i, j, p) in ``cirs``."""

    time: float
    cirs: dict


def _snapshots(scene: Scene, times, links=None) -> Iterator[SceneSnapshot]:
    """Yields one snapshot of ``scene`` per instant of ``times``, sharing
    what stays the same across them.

    ``links[k]`` lists the sub-channels (i, j, p) the caller will ask for
    at ``times[k]``. Without ``links`` it asks for every sub-channel at
    every instant, and each call finishes every element of its instant
    at once (see :func:`cir_snapshot`).

    Where nothing moves (receiver speed and cluster velocities zero) the
    snapshots share one layout dict, so a rotating receiver recomputes
    only the detector incidence. Where only the receiver moves, they
    share one dict of LED-side bounce halves, which nothing else keeps
    (a layout is built once where nothing moves), and come in blocks of
    consecutive instants, up to ``_STACK_BLOCK`` element-instants a
    block: the first call for a finish evaluates it at every instant of
    the block that will ask for it, in one stacked pass, and the later
    calls read their share. Drifting clusters share nothing: each
    instant is a block of its own. A block is made when its first
    snapshot is asked for, so a caller that drops the snapshots frees
    it; nothing they share outlives them and the generator.
    """
    drifting = bool(scene.tx.velocity.any() or scene.rx.velocity.any())
    moving = drifting or scene.receiver.speed != 0
    every = [(None, p) for p in range(1, scene.receiver.n_pd + 1)]
    size = _STACK_BLOCK // (scene.array.rows * scene.array.cols if links is None else 1)
    size = max(size, 1) if moving and not drifting else 1
    layouts: dict = {}
    halves = {} if moving and not drifting else None
    for start in range(0, len(times), size):
        chunk = tuple(times[start:start + size])
        wanted: dict = {}
        for q in range(len(chunk)):
            keys = every if links is None else [((i, j), p) for i, j, p in links[start + q]]
            for key in keys:
                wanted.setdefault(key, []).append(q)
        block = _Block(scene, chunk, {key: tuple(qs) for key, qs in wanted.items()},
                       links is None, halves, {} if moving else layouts)
        for q, t in enumerate(chunk):
            yield SceneSnapshot(scene, t, block, q)


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
    moves past static clusters builds the LED-side half of each bounce
    leg (up to the exit scatterer) once per call and evaluates its
    instants in stacked blocks (see :func:`_snapshots`); drifting
    clusters get fresh legs at each instant. Nothing stays cached after
    the call.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, got an array of shape {times.shape}")
    times = np.atleast_1d(times).tolist()
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"time t = {t} is not finite")
    out = []
    for t, snapshot in zip(times, _snapshots(scene, times)):
        cirs = {}
        for i in range(1, scene.array.rows + 1):
            for j in range(1, scene.array.cols + 1):
                for p in range(1, scene.receiver.n_pd + 1):
                    cirs[(i, j, p)] = cir_snapshot(i, j, p, scene, t, snapshot=snapshot)
        out.append(ChannelMatrix(t, cirs))
    return out
