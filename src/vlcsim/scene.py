"""Stochastic scene generation: array layout, receiver state, clusters.

A scene is one realization of the random environment around a fixed LED
array and a (possibly moving, rotating) receiver. Cluster visibility is
evolved element-by-element across the array with a birth-death process;
each cluster owns a cloud of scatterers, an equivalent surface normal and
an effective reflectance sampled from the bundled material curves.

The clusters of each side live in one :class:`ClusterSet`, a struct of
arrays with one row per cluster: ``Scene.tx`` holds the clusters around
the array (indexed like the visibility mask), ``Scene.rx`` the
receiver-side partners of the double-bounce clusters. A row is drawn the
first time a tap needs it, so an element's evaluation draws only the
clusters it sees.

All randomness flows from a single integer master seed through named
sub-streams (visibility, one per cluster, bounce pairing), so rebuilding
a scene is bit-identical regardless of the order its rows are drawn in.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import geometry, optics
from .errors import DegenerateNormalError, DomainMismatchError, ZeroDistanceError
from .geometry import TWO_PI, ArrayOrientation

__all__ = [
    "ClusterDistribution",
    "ClusterSet",
    "EvolutionParams",
    "LedArray",
    "Receiver",
    "Scene",
    "assign_bounce",
    "build_scene",
    "evolve_visibility",
    "sample_cluster",
    "survival_probability",
]

DEFAULT_ORIENTATION = ArrayOrientation(
    row_azimuth=math.pi / 2,
    row_elevation=0.0,
    col_azimuth=math.pi,
    col_elevation=math.pi / 2,
)


@dataclass(frozen=True)
class LedArray:
    """Rectangular LED array; element (1, 1) sits at the global origin."""

    rows: int = 4
    cols: int = 4
    spacing_h: float = 1.0
    spacing_v: float = 1.0
    orientation: ArrayOrientation = DEFAULT_ORIENTATION
    pattern: object = field(default_factory=optics.LambertianPattern)

    @cached_property
    def frame(self) -> np.ndarray:
        return geometry.gcs_to_lcs11(self.orientation)

    @cached_property
    def frame_inv(self) -> np.ndarray:
        return geometry.invert_frame(self.frame)

    @cached_property
    def positions(self) -> np.ndarray:
        """(rows, cols, 3) global element positions."""
        out = np.empty((self.rows, self.cols, 3))
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = geometry.led_position(
                    i + 1, j + 1, self.orientation, self.spacing_h, self.spacing_v
                )
        return out

    def element_position(self, i: int, j: int) -> np.ndarray:
        return self.positions[i - 1, j - 1]


@dataclass(frozen=True)
class Receiver:
    """Photodetector head: position, motion, rotation and front-end optics."""

    distance: float = 2.0
    n_pd: int = 1
    theta_pd: float = math.radians(45.0)
    area: float = 1e-4
    azimuth: float = math.pi
    elevation: float = 0.0
    rot_azimuth: float = 0.0
    rot_elevation: float = 0.0
    speed: float = 0.0
    travel_azimuth: float = 0.0
    travel_elevation: float = 0.0
    optics: optics.RxOptics = field(default_factory=optics.RxOptics)

    @property
    def initial_position(self) -> np.ndarray:
        return np.array([self.distance, 0.0, 0.0])

    @cached_property
    def heading(self) -> np.ndarray:
        """Unit vector of the travel direction."""
        return geometry.direction(self.travel_azimuth, self.travel_elevation)

    def position_at(self, t) -> np.ndarray:
        """Position at time ``t``, or one row per time of a 1-D array ``t``."""
        return self.initial_position + np.multiply.outer(self.speed * np.asarray(t), self.heading)

    def _head_angles(self, t: float) -> tuple[float, float]:
        """The (azimuth, elevation) that :meth:`pd_normals` turns the head to at ``t``."""
        return geometry._head_angles(self.azimuth, self.elevation, self.rot_azimuth,
                                     self.rot_elevation, t)

    def pd_normals(self, t: float) -> list[np.ndarray]:
        return geometry.pd_normals(
            self.n_pd,
            self.theta_pd,
            self.azimuth,
            self.elevation,
            self.rot_azimuth,
            self.rot_elevation,
            t,
        )


@dataclass(frozen=True)
class EvolutionParams:
    """Birth-death rates of cluster visibility across the array (per meter)."""

    birth_rate: float = 80.0
    death_rate: float = 4.0
    correlation_factor: float = 10.0

    def __post_init__(self):
        if self.birth_rate <= 0 or self.death_rate <= 0 or self.correlation_factor <= 0:
            raise ValueError("evolution rates must be positive")

    @property
    def initial_count(self) -> int:
        return int(round(self.birth_rate / self.death_rate))


@dataclass(frozen=True)
class ClusterDistribution:
    """Sampling parameters for cluster placement and scatterer spreads."""

    tx_azimuth_mean: float = 0.0
    tx_azimuth_std: float = math.radians(40.0)
    tx_elevation_mean: float = 0.0
    tx_elevation_std: float = math.radians(40.0)
    rx_azimuth_mean: float = math.pi
    rx_azimuth_std: float = math.radians(40.0)
    rx_elevation_mean: float = 0.0
    rx_elevation_std: float = math.radians(40.0)
    distance_mean: float | None = None
    sigma_ds: float = 1.0
    sigma_as: float = 1.0
    sigma_es: float = 1.0
    scatterers_per_cluster: int = 100
    effective_area: float = 1.0
    sb_ratio: float = 0.9
    speed: float = 0.0
    travel_azimuth: float = 0.0
    travel_elevation: float = 0.0


class ClusterSet:
    """The realized clusters of one side, one row per cluster.

    ``scatterers0`` (n, m, 3) holds the initial global scatterer
    positions, ``normals`` (n, 3) the equivalent surface normals and
    ``reflectance`` (n,) the effective reflectances. All clusters of a
    side share the scatterer area and the drift ``velocity`` (3,).

    A set made by :meth:`on_demand` draws row k only when it is first
    read, through :meth:`take` or a full field, which draws every row.
    Each row comes from its own stream, so its bits do not depend on
    which rows were drawn before it.
    """

    def __init__(self, scatterers0, normals, reflectance, area_per_scatterer, velocity):
        self._scatterers0 = scatterers0
        self._normals = normals
        self._reflectance = reflectance
        self.area_per_scatterer = area_per_scatterer
        self.velocity = velocity
        self._draw = None
        self._drawn = np.ones(len(reflectance), dtype=bool)

    @classmethod
    def on_demand(cls, n: int, m: int, draw, area_per_scatterer, velocity) -> "ClusterSet":
        """An n-row set whose missing rows ``ks`` are drawn by ``draw(ks)``,
        which yields (scatterers, normal, reflectance) per row, the first
        time one of them is read."""
        out = cls(np.empty((n, m, 3)), np.empty((n, 3)), np.empty(n),
                  area_per_scatterer, velocity)
        out._draw = draw
        out._drawn[:] = False
        return out

    def __len__(self) -> int:
        return self._reflectance.shape[0]

    def _fill(self, idx: np.ndarray):
        if self._draw is None:
            return
        missing = np.unique(idx[~self._drawn[idx]]).tolist()   # idx may name a row twice
        for k, row in zip(missing, self._draw(missing)):
            self._scatterers0[k], self._normals[k], self._reflectance[k] = row
            self._drawn[k] = True
        if missing and self._drawn.all():
            self._draw = None

    def take(self, idx: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scatterers at time ``t``, normals, reflectance) of the rows ``idx``."""
        self._fill(idx)
        scatterers = self._scatterers0[idx]
        if self.velocity.any():  # for a static side, x + 0.0 could only flip a -0.0
            scatterers = scatterers + self.velocity * t
        return scatterers, self._normals[idx], self._reflectance[idx]

    @property
    def scatterers0(self) -> np.ndarray:
        self._fill(np.arange(len(self)))
        return self._scatterers0

    @property
    def normals(self) -> np.ndarray:
        self._fill(np.arange(len(self)))
        return self._normals

    @property
    def reflectance(self) -> np.ndarray:
        self._fill(np.arange(len(self)))
        return self._reflectance


# === birth-death evolution across the array ===

def _step_probability(evo: EvolutionParams, spacing: float, axis_elevation: float) -> float:
    p = math.exp(-evo.birth_rate * spacing * math.cos(axis_elevation) / evo.correlation_factor)
    return min(p, 1.0)


def survival_probability(
    evo: EvolutionParams,
    orientation: ArrayOrientation,
    spacing_h: float,
    spacing_v: float,
    di: int,
    dj: int,
) -> float:
    """Probability that one cluster stays visible across an element offset."""
    p_col = _step_probability(evo, spacing_h, orientation.col_elevation)
    p_row = _step_probability(evo, spacing_v, orientation.row_elevation)
    return p_col ** abs(di) * p_row ** abs(dj)


def evolve_visibility(
    rows: int,
    cols: int,
    spacing_h: float,
    spacing_v: float,
    orientation: ArrayOrientation,
    evo: EvolutionParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Cluster visibility per LED element as a (rows, cols, n_total) mask.

    Element (1, 1) observes round(birth_rate/death_rate) initial clusters.
    Visibility evolves first down the first column, then along each row:
    every visible cluster survives one element step with the recursion
    probability exp(-birth_rate * spacing * cos(axis_elevation) / Dc) and
    Poisson-many new clusters (mean initial_count * (1 - p)) are born and
    carried forward. Column indices beyond the mask are never revisited,
    so the third axis length is the total number of clusters ever born.
    """
    p_col = _step_probability(evo, spacing_h, orientation.col_elevation)
    p_row = _step_probability(evo, spacing_v, orientation.row_elevation)
    n0 = evo.initial_count
    mean_col = n0 * (1.0 - p_col)
    mean_row = n0 * (1.0 - p_row)

    sets: list[list[list[int]]] = [[[] for _ in range(cols)] for _ in range(rows)]
    sets[0][0] = list(range(n0))
    next_id = n0

    def advance(prev: list[int], p: float, mean_new: float) -> list[int]:
        nonlocal next_id
        keep = rng.random(len(prev)) < p
        survivors = [c for c, k in zip(prev, keep) if k]
        born = int(rng.poisson(mean_new))
        fresh = list(range(next_id, next_id + born))
        next_id += born
        return survivors + fresh

    for i in range(1, rows):
        sets[i][0] = advance(sets[i - 1][0], p_col, mean_col)
    for i in range(rows):
        for j in range(1, cols):
            sets[i][j] = advance(sets[i][j - 1], p_row, mean_row)

    mask = np.zeros((rows, cols, next_id), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            mask[i, j, sets[i][j]] = True
    return mask


def assign_bounce(
    n_total: int, sb_ratio: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mark which Tx-side clusters bounce twice and pair them with Rx-side ones.

    Returns (is_db, partner): ceil(n_total * (1 - sb_ratio)) clusters are
    double-bounce, chosen uniformly; the k-th of them, in index order,
    pairs with Rx-side row k. Single-bounce clusters get partner -1.
    """
    if not 0.0 <= sb_ratio <= 1.0:
        raise ValueError("single-bounce ratio must lie in [0, 1]")
    n_db = math.ceil(n_total * (1.0 - sb_ratio))
    is_db = np.zeros(n_total, dtype=bool)
    partner = np.full(n_total, -1, dtype=int)
    if n_db:
        chosen = np.sort(rng.choice(n_total, size=n_db, replace=False))
        is_db[chosen] = True
        partner[chosen] = np.arange(n_db)
    return is_db, partner


# === cluster sampling ===

def _placement_rotation(ca: float, sa: float, ce: float, se: float) -> np.ndarray:
    """Rotation from the cluster frame (x toward the center) to the global
    frame, from the cosines and sines of the center's azimuth and
    elevation: ``rz @ re`` with ``rz`` the azimuth turn about z and ``re``
    the elevation turn about y, written out. The ``+ 0.0`` and ``0.0 -``
    give the signed zeros of that matrix product."""
    return np.array([[ca * ce + 0.0, 0.0 - sa, 0.0 - ca * se],
                     [sa * ce + 0.0, ca + 0.0, 0.0 - sa * se],
                     [se + 0.0, 0.0, ce + 0.0]])


def _weighted_index(weights, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to ``weights``.

    numpy's own algorithm for ``rng.choice(len(weights), p=weights /
    weights.sum())``, so the index and the stream position are the same,
    without that call's argument checks (the weights are validated
    config values). Below 8 weights numpy's sum adds in order, so plain
    floats give its bits; from 8 on it sums pairwise, and numpy does it.
    """
    if len(weights) >= 8:
        weights = np.asarray(weights, dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    total = 0.0
    for w in weights:
        total += w
    cdf, run = [], 0.0
    for w in weights:
        run += w / total
        cdf.append(run)
    return bisect.bisect_right([c / run for c in cdf], rng.random())


def sample_cluster(
    side: str,
    dist: ClusterDistribution,
    anchor: np.ndarray,
    distance_mean: float,
    gamma_by_material: dict[str, float],
    material_weights: dict[str, float],
    rng: np.random.Generator,
) -> tuple:
    """Draw one cluster: angles (wrapped Gaussian), distance (exponential),
    material, equivalent normal and the scatterer cloud.

    Returns the row ``(scatterers, normal, reflectance, material, azimuth,
    elevation, distance)``: (m, 3) global scatterer positions, the unit
    normal, the material's effective reflectance, and the draws they come
    from, angles and distance relative to ``anchor``. Degenerate centers
    on the LoS axis are redrawn (at most 100 times). The stream is read
    in a fixed order (azimuth, elevation and distance per attempt, one
    uniform for the material, then the (m, 3) offsets), and the
    arithmetic is pinned bit for bit by an independent oracle in the
    tests.
    """
    if side == "tx":
        az_mean, az_std = dist.tx_azimuth_mean, dist.tx_azimuth_std
        el_mean, el_std = dist.tx_elevation_mean, dist.tx_elevation_std
    else:
        az_mean, az_std = dist.rx_azimuth_mean, dist.rx_azimuth_std
        el_mean, el_std = dist.rx_elevation_mean, dist.rx_elevation_std

    for _ in range(100):
        azimuth = (az_mean + az_std * rng.standard_normal()) % TWO_PI
        elevation = (el_mean + el_std * rng.standard_normal() + math.pi) % TWO_PI - math.pi
        distance = float(rng.exponential(distance_mean))
        ca, sa = math.cos(azimuth), math.sin(azimuth)
        ce, se = math.cos(elevation), math.sin(elevation)
        try:
            normal = geometry._equivalent_normal(distance, ca, sa, ce, se)
            break
        except DegenerateNormalError:
            continue
    else:
        raise DegenerateNormalError("could not draw an off-axis cluster center")

    names = list(material_weights)
    material = names[_weighted_index(list(material_weights.values()), rng)]

    scatterers = rng.standard_normal((dist.scatterers_per_cluster, 3))
    scatterers *= (dist.sigma_ds, dist.sigma_as, dist.sigma_es)
    scatterers[:, 0] += distance
    scatterers = scatterers @ _placement_rotation(ca, sa, ce, se).T
    scatterers += anchor
    reflectance = gamma_by_material[material]
    return scatterers, normal, reflectance, material, azimuth, elevation, distance


def _draw_cluster(
    ss: np.random.SeedSequence,
    side: str,
    anchor: np.ndarray,
    dist: ClusterDistribution,
    distance_mean: float,
    gamma_by_material: dict[str, float],
    material_weights: dict[str, float],
    ks: list[int],
):
    """Yields row k of one side for each k of ``ks``: the first three
    fields of sample_cluster on the stream ss.spawn(n)[k]."""
    for k in ks:
        stream = np.random.SeedSequence(
            ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size
        )
        rng = np.random.Generator(np.random.PCG64(stream))   # what default_rng makes
        yield sample_cluster(
            side, dist, anchor, distance_mean, gamma_by_material, material_weights, rng,
        )[:3]


# === the scene ===

@dataclass(frozen=True, eq=False)
class Scene:
    """One realization of the random propagation environment."""

    array: LedArray
    receiver: Receiver
    evolution: EvolutionParams
    distribution: ClusterDistribution
    tx: ClusterSet
    rx: ClusterSet
    visibility: np.ndarray
    is_db: np.ndarray
    partner: np.ndarray
    seed: int
    fingerprint: str = ""

    def visible_indices(self, i: int, j: int) -> np.ndarray:
        """Indices of clusters visible at element (i, j); 1-based element."""
        return np.flatnonzero(self.visibility[i - 1, j - 1])


def gamma_table(
    psd_name: str,
    wavelength_lo: float,
    wavelength_hi: float,
    material_weights: dict[str, float],
) -> dict[str, float]:
    """Effective reflectance per material for the configured source spectrum.

    A degenerate wavelength window (lo == hi) means a monochromatic
    source: the reflectance is evaluated pointwise instead of integrated,
    and a wavelength outside a material's table raises
    DomainMismatchError, as the integrated path does.
    """
    if wavelength_lo == wavelength_hi:
        table = {}
        for name in material_weights:
            curve = optics.load_material(name)
            if not curve.support[0] <= wavelength_lo <= curve.support[1]:
                raise DomainMismatchError(
                    f"{name} reflectance covers {list(curve.support)} nm, not {wavelength_lo} nm")
            table[name] = float(curve.value_at(wavelength_lo))
        return table
    psd = optics.load_led_psd(psd_name)
    lo = max(wavelength_lo, psd.support[0])
    hi = min(wavelength_hi, psd.support[1])
    if lo >= hi:
        raise ValueError(f"wavelength window [{wavelength_lo}, {wavelength_hi}] nm leaves "
                         f"nothing of the LED spectrum's support {list(psd.support)} nm")
    psd = psd.restricted(lo, hi).normalized()
    return {name: optics.effective_reflectance(psd, optics.load_material(name))
            for name in material_weights}


def build_scene(
    array: LedArray,
    receiver: Receiver,
    evolution: EvolutionParams,
    distribution: ClusterDistribution,
    gamma_by_material: dict[str, float],
    material_weights: dict[str, float],
    seed: int,
    fingerprint: str = "",
) -> Scene:
    """Realize one scene from a master seed.

    Sub-streams: one for the visibility evolution, one per cluster (Tx
    side first, then Rx side), one for the bounce pairing. Clusters are
    drawn on demand, when a tap first needs them (see :class:`ClusterSet`),
    so a center that stays degenerate after 100 redraws raises
    DegenerateNormalError at that first evaluation, not here.
    """
    if receiver.distance < 1e-12:
        raise ZeroDistanceError("receiver cannot sit on the first LED element")
    root = np.random.SeedSequence(seed)
    ss_vis, ss_tx, ss_rx, ss_pair = root.spawn(4)

    vis = evolve_visibility(
        array.rows,
        array.cols,
        array.spacing_h,
        array.spacing_v,
        array.orientation,
        evolution,
        np.random.default_rng(ss_vis),
    )
    n_total = vis.shape[2]
    distance_mean = (
        distribution.distance_mean
        if distribution.distance_mean is not None
        else receiver.distance / 2.0
    )

    m = distribution.scatterers_per_cluster
    area = distribution.effective_area / m
    velocity = distribution.speed * geometry.direction(
        distribution.travel_azimuth, distribution.travel_elevation
    )

    def clusters(side: str, anchor: np.ndarray, ss, n: int) -> ClusterSet:
        draw = partial(
            _draw_cluster, ss, side, anchor, distribution, distance_mean,
            gamma_by_material, material_weights,
        )
        return ClusterSet.on_demand(n, m, draw, area, velocity)

    n_rx = math.ceil(n_total * (1.0 - distribution.sb_ratio))
    tx = clusters("tx", np.zeros(3), ss_tx, n_total)
    rx = clusters("rx", receiver.initial_position, ss_rx, n_rx)

    is_db, partner = assign_bounce(
        n_total, distribution.sb_ratio, np.random.default_rng(ss_pair)
    )
    return Scene(
        array=array,
        receiver=receiver,
        evolution=evolution,
        distribution=distribution,
        tx=tx,
        rx=rx,
        visibility=vis,
        is_db=is_db,
        partner=partner,
        seed=seed,
        fingerprint=fingerprint,
    )
