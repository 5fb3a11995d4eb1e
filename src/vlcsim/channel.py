"""Ray-level channel assembly: taps, impulse responses, time series.

Every propagation path between LED element (i, j) and photodetector p
becomes a tap with a non-negative power gain (dimensionless, receive
power per unit element transmit power) and a positive delay. Intensity
links carry no carrier phase, so a channel snapshot is fully described
by its (power, delay) pairs.

Indices i, j, p are 1-based throughout, matching the element grid.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry, optics
from .errors import ZeroDistanceError
from .scene import Scene

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


def _tx_half(block: _Block, t: float, i: int, j: int, idx: np.ndarray, kind: TapKind):
    """The LED-side half of the rays from element (i, j) through ``idx`` at time ``t``."""
    scene = block.scene
    led = scene.array.element_position(i, j)

    s_a, normal_a, gamma_a = scene.tx.take(idx, t)   # (n, m, 3)
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
        s_z, normal_z, gamma_z = scene.rx.take(scene.partner[idx], t)
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


def _bounce_leg(block: _Block, t: float, i: int, j: int, idx: np.ndarray, kind: TapKind,
                rx: np.ndarray) -> _Leg:
    """The rays through the clusters ``idx`` at each receiver position of
    ``rx`` (K, 3), up to the detector, with the clusters where they are
    at time ``t``.

    Drops rays that meet a zero distance or a back face at exit or that
    carry no power before the detector; what is left holds for every
    detector normal. The LED-side half comes from the block's
    ``tx_halves`` under ``(i, j, kind)``, and is built into it on a
    miss, or dropped after use where ``tx_halves`` is None. ``idx`` is
    always the scene's clusters of that kind visible at (i, j), and the
    dict's clusters do not move, so one key names one half. Lengths and
    dot products come from :func:`geometry._norms` and
    :func:`geometry._dots`, so each value has the bits of the same ray's
    row in ``(N, 3)`` arrays.
    """
    halves = block.tx_halves
    tx = None if halves is None else halves.get((i, j, kind))
    if tx is None:
        tx = _tx_half(block, t, i, j, idx, kind)
        if halves is not None:
            halves[(i, j, kind)] = tx

    vec = rx.T[:, :, None] - tx.exit_point[:, None, :]    # (3, K, n)
    d_r = geometry._norms(vec)
    keep = d_r > 1e-12
    d_r1 = np.where(d_r > 0, d_r, 1.0)
    u = np.divide(vec, d_r1, out=vec)
    cos_out = geometry._dots(u, tx.exit_normal)
    keep &= cos_out >= 0.0
    head = tx.prefix * (np.maximum(cos_out, 0.0) / math.pi) * block.scene.receiver.area
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


def _delay_order(delay: np.ndarray) -> np.ndarray:
    """``np.argsort(delay, kind="stable")``. Without ties the order is
    unique, so the default sort gives it; it falls back to the stable
    sort unless the sorted delays strictly increase (a tie, or a NaN)."""
    order = np.argsort(delay)
    ranked = delay.take(order)
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(delay, kind="stable")
    return order


def _layout(block: _Block, t: float) -> _Layout:
    """The LoS, SB and DB legs of the block's elements at each of its
    instants, computed for all of them at once, with the clusters where
    they are at time ``t``, one of those instants (clusters drift only in
    a block of one instant). A bounce leg without a visible cluster is
    left out. A bounce leg reads its LED-side half from the block (see
    :func:`_bounce_leg`).
    """
    scene, elements = block.scene, block.elements
    rx = block.rx_positions
    legs, firsts = [], []   # firsts: each element's LoS leg
    for i, j in elements:
        vis = scene.visible_indices(i, j)
        db = scene.is_db[vis]
        firsts.append(len(legs))
        legs.append(_los_leg(scene, i, j, rx))
        for idx, kind in ((vis[~db], TapKind.SB), (vis[db], TapKind.DB)):
            if idx.size:
                legs.append(_bounce_leg(block, t, i, j, idx, kind, rx))

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
        np.concatenate([_delay_order(delay[a:b]) + a
                        for a, b in itertools.pairwise(bounds.tolist())]),
        bounds,
        bounds[::len(elements)].tolist(),
    )


def _finish(layout: _Layout, normals: list, optics_cfg):
    """The taps of every element and instant of ``layout``, seen by a
    detector with the normal ``normals[r]`` at the r-th instant.

    Each instant gets one gemv, and its one-candidate rays one stack of
    dot products. Returns (power, delay, kind, cluster_id, scatterer_id),
    ordered as the layout and sorted by delay within each element and
    instant, and the list of cuts: the taps of span s of
    ``layout.bounds`` are ``cuts[s]:cuts[s + 1]``.
    """
    u, single, rows = layout.u, layout.single, layout.rows
    dots = np.empty(u.shape[0])
    for n_pd, a, b in zip(normals, rows, rows[1:]):
        if a < b:
            # row b is the pad or the next instant's first row, which its own gemv rewrites
            dots[a:b + 1] = u[a:b + 1] @ n_pd
            s, e = single.searchsorted((a, b))
            dots[single[s:e]] = (layout.u_single[s:e] @ n_pd)[:, 0]
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


@dataclass(eq=False)
class _Block:
    """What the calls for some instants of one scene share while
    :func:`cir_snapshot` evaluates them; :func:`_cirs` decides which
    calls share one.

    A call names its instant by its position in ``times``. ``elements``
    lists, sorted, every element whose CIR some call of the block asks
    for. The block's one layout holds each of them at each of its
    instants, so the first call at a detector ``p`` finishes them all in
    one stacked pass, and ``finished`` maps ``p`` to that finish, which
    holds the taps of every instant. ``layouts`` maps ``elements``
    to the layout. ``tx_halves`` maps ``(i, j, kind)`` to the LED-side
    half of a bounce leg, or is None where no later layout reads a half
    again. ``normals`` maps the bits of the head's rotated (azimuth,
    elevation) to its detector normals, for the last angles seen.
    :func:`_cirs` shares ``layouts``, ``tx_halves`` and ``normals``
    across blocks where that is safe.
    """

    scene: Scene
    times: tuple
    elements: tuple = ()
    tx_halves: dict | None = None
    layouts: dict = field(default_factory=dict)
    finished: dict = field(default_factory=dict)
    normals: dict = field(default_factory=dict)

    @cached_property
    def rx_positions(self) -> np.ndarray:
        return self.scene.receiver.position_at(np.array(self.times))

    @cached_property
    def pd_normals(self) -> list[list[np.ndarray]]:
        """The detector normals at each instant. An instant whose head
        angles have the bits of the last ones computed reuses their
        normals, so a head that does not rotate gets them once; bits, not
        ``==``, so that a -0.0 angle keeps its own normals."""
        rx, out = self.scene.receiver, []
        for t in self.times:
            key = struct.pack("2d", *rx._head_angles(t))
            if key not in self.normals:
                self.normals.clear()
                self.normals[key] = rx.pd_normals(t)
            out.append(self.normals[key])
        return out


def _sub_channel(i, j, p) -> tuple[int, int, int]:
    """``(i, j, p)`` as plain ints; a bool or another non-integer raises
    ``ValueError``."""
    if not (isinstance(i, bool) or isinstance(j, bool) or isinstance(p, bool)):
        try:
            return operator.index(i), operator.index(j), operator.index(p)
        except TypeError:
            pass
    raise ValueError(f"sub-channel ({i!r}, {j!r}, {p!r}) needs integer indices")


def _in_range(scene: Scene, i, j, p) -> tuple[int, int, int]:
    """``(i, j, p)`` as plain ints (see :func:`_sub_channel`), each from 1
    to the array's rows, its columns and the receiver's detector count;
    others raise ``ValueError``."""
    i, j, p = _sub_channel(i, j, p)
    rows, cols, n_pd = scene.array.rows, scene.array.cols, scene.receiver.n_pd
    if not (1 <= i <= rows and 1 <= j <= cols and 1 <= p <= n_pd):
        raise ValueError(f"sub-channel ({i}, {j}, {p}) is out of range: i runs 1..{rows}, "
                         f"j 1..{cols} and p 1..{n_pd}")
    return i, j, p


def cir_snapshot(i: int, j: int, p: int, scene: Scene, t: float, *, _shared=None) -> Cir:
    """Impulse response of sub-channel (i, j, p) at time ``t``.

    ``i``, ``j`` and ``p`` are integers from 1 to the array's rows, its
    columns and the receiver's detector count; others raise
    ``ValueError``, and so does a non-finite ``t``. The rays run through
    the clusters ``scene.visibility`` marks at element (i, j); for
    another mask of the same shape, pass
    ``dataclasses.replace(scene, visibility=mask)``. Only :func:`_cirs`
    passes ``_shared``, the ``(block, position)`` of a call whose work it
    shares with other calls; the call reads its element's span at that
    position from the block's finish at ``p``. Every result has the bits
    of a lone call.
    """
    i, j, p = _in_range(scene, i, j, p)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time t = {t} is not finite")
    block, q = (_Block(scene, (t,), ((i, j),)), 0) if _shared is None else _shared
    done = block.finished.get(p)
    if done is None:
        layout = block.layouts.get(block.elements)
        if layout is None:
            layout = block.layouts[block.elements] = _layout(block, t)
        normals = [pd[p - 1] for pd in block.pd_normals]
        done = block.finished[p] = _finish(layout, normals, scene.receiver.optics)
    fields, cuts = done
    e = q * len(block.elements) + block.elements.index((i, j))
    return Cir(*(x[cuts[e]:cuts[e + 1]] for x in fields), (i, j), p, t)


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """All sub-channel impulse responses of a scene at one instant,
    keyed by (i, j, p) in ``cirs``."""

    time: float
    cirs: dict


def _cirs(scene: Scene, times, links) -> Iterator[tuple[int, tuple, Cir]]:
    """Yields ``(k, (i, j, p), cir)`` for each sub-channel ``links[k]``
    lists at ``times[k]``, instant by instant and in the order of
    ``links[k]``, from one :func:`cir_snapshot` call each. Every CIR has
    the bits of a lone call. A link out of range raises ``ValueError``
    before the first CIR.

    The instants come in blocks of consecutive instants. A block's
    layout holds every element its instants name, at each of its
    instants, so the first call at a detector finishes all of them in
    one stacked pass and the later calls read their share; an instant
    also evaluates the elements and detectors that the other instants of
    its block name. Where nothing moves (receiver speed and cluster
    velocities zero) each instant is a block, and the blocks that name
    the same elements share one layout, so a rotating receiver
    recomputes only the detector incidence. Where only the receiver
    moves, a block holds up to ``_STACK_BLOCK`` element-instants,
    counting every element the plan names, and the blocks share one dict
    of LED-side bounce halves. Drifting clusters share nothing: each
    instant is a block of its own. The blocks share the last detector
    normals they computed (see :attr:`_Block.pd_normals`). A block is
    made when its first CIR is asked for, and nothing the calls share
    outlives the generator.
    """
    drifting = bool(scene.tx.velocity.any() or scene.rx.velocity.any())
    moving = drifting or scene.receiver.speed != 0
    stacked = moving and not drifting
    # each distinct link, checked in plan order, to its element
    named = {link: _in_range(scene, *link)[:2]
             for link in dict.fromkeys(itertools.chain.from_iterable(links))}
    n_elements = len(set(named.values())) or 1   # or an empty plan
    size = max(_STACK_BLOCK // n_elements, 1) if stacked else 1
    layouts: dict = {}
    normals: dict = {}
    halves = {} if stacked else None   # only a stacked pass reads a half twice
    for start in range(0, len(times), size):
        chunk = tuple(times[start:start + size])
        plan = links[start:start + size]
        elements = tuple(sorted({named[link] for asked in plan for link in asked}))
        block = _Block(scene, chunk, elements, halves, {} if moving else layouts,
                       normals=normals)
        for q, asked in enumerate(plan):
            for link in asked:
                yield start + q, link, cir_snapshot(*link, scene, chunk[q], _shared=(block, q))


def _matrices(scene: Scene, times: list) -> Iterator[ChannelMatrix]:
    """Yields the :class:`ChannelMatrix` of each of ``times`` in turn,
    from :func:`_cirs`, and reads no CIR of the next instant before the
    consumer asks for it. A consumer that folds each matrix and drops it
    keeps one instant's taps alive, not the whole series."""
    every = list(itertools.product(range(1, scene.array.rows + 1), range(1, scene.array.cols + 1),
                                   range(1, scene.receiver.n_pd + 1)))
    cirs = _cirs(scene, times, [every] * len(times))
    for t in times:
        yield ChannelMatrix(t, {link: cir for _, link, cir in itertools.islice(cirs, len(every))})


def channel_over_time(scene: Scene, times) -> list[ChannelMatrix]:
    """Evaluate every sub-channel at each requested time.

    ``times`` is one time or a 1-D sequence of finite times. The
    sub-channels of one block of instants (see :func:`_cirs`) share one
    finish per detector: its first ``cir_snapshot`` call computes the
    detector incidence of every element's rays at each instant of the
    block in one pass and each call reads its own element's taps, in the
    same bits a lone ``cir_snapshot`` gives. A scene where nothing moves
    (receiver speed and cluster velocities zero) shares one layout
    across its instants, so a receiver that only rotates recomputes just
    the detector incidence. A scene whose receiver moves past static
    clusters builds the LED-side half of each bounce leg (up to the exit
    scatterer) once per call and stacks ``_STACK_BLOCK`` element-instants
    a block, so an array of that many elements or more gets a block per
    instant; drifting clusters get fresh legs at each instant.

    The returned list holds every instant's taps, so its memory grows
    with instants times taps. A :class:`Cir`'s arrays are views into
    its block's shared finish arrays: keeping one CIR keeps the taps
    of every element of those instants, so ``.copy()`` the fields you
    keep. Layouts, LED-side halves and the other work the CIRs share are
    dropped when the call returns; only the taps stay. The presets that
    reduce a time series fold each instant as it is evaluated instead.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, got an array of shape {times.shape}")
    times = np.atleast_1d(times).tolist()
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"time t = {t} is not finite")
    return list(_matrices(scene, times))
