import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vlcsim.scene
from vlcsim import (
    ArrayOrientation,
    ClusterDistribution,
    DegenerateNormalError,
    DomainMismatchError,
    EvolutionParams,
    LedArray,
    Receiver,
    SimulationConfig,
    ZeroDistanceError,
    build_scene,
    channel_over_time,
    cir_snapshot,
    default_config,
    gamma_table,
)
from vlcsim.geometry import direction
from vlcsim.scene import (
    _weighted_index,
    assign_bounce,
    evolve_visibility,
    sample_cluster,
    survival_probability,
)

SEED = 20220101
ORIENT = ArrayOrientation(math.pi / 2, 0.0, math.pi, math.pi / 2)


def test_initial_count_default():
    evo = EvolutionParams()
    assert evo.initial_count == 20


def test_evolution_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(birth_rate=0.0)
    with pytest.raises(ValueError):
        EvolutionParams(death_rate=-1.0)
    with pytest.raises(ValueError):
        EvolutionParams(correlation_factor=0.0)


def test_survival_probability_frozen():
    evo = EvolutionParams(birth_rate=80.0, death_rate=4.0, correlation_factor=10.0)
    # columns run vertically at the default orientation, so a column step
    # costs nothing while a row step decorrelates by exp(-80*1/10)
    p_col = survival_probability(evo, ORIENT, 1.0, 1.0, 1, 0)
    p_row = survival_probability(evo, ORIENT, 1.0, 1.0, 0, 1)
    assert p_col == pytest.approx(1.0, abs=1e-12)
    assert p_row == pytest.approx(math.exp(-8.0), rel=1e-12)
    both = survival_probability(evo, ORIENT, 1.0, 1.0, 2, 3)
    assert both == pytest.approx(p_col**2 * p_row**3, rel=1e-12)


def test_survival_probability_spacing_scales():
    evo = EvolutionParams()
    flat = ArrayOrientation(0.0, 0.0, math.pi / 2, 0.0)
    p1 = survival_probability(evo, flat, 0.0, 0.05, 0, 1)
    assert p1 == pytest.approx(math.exp(-80.0 * 0.05 / 10.0), rel=1e-12)
    p2 = survival_probability(evo, flat, 0.0, 0.05, 0, 2)
    assert p2 == pytest.approx(p1**2, rel=1e-12)


def test_evolve_visibility_shape_and_first_element():
    evo = EvolutionParams()
    mask = evolve_visibility(4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(SEED))
    assert mask.dtype == bool
    assert mask.shape[:2] == (4, 4)
    assert mask.shape[2] >= 20
    assert mask[0, 0].sum() == 20
    assert np.array_equal(np.flatnonzero(mask[0, 0]), np.arange(20))


def test_evolve_visibility_deterministic():
    evo = EvolutionParams()
    a = evolve_visibility(4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(SEED))
    b = evolve_visibility(4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(SEED))
    c = evolve_visibility(4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(SEED + 1))
    assert np.array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_evolve_visibility_column_is_fully_correlated_at_defaults():
    # vertical columns: cos(pi/2) kills the exponent, survival is ~1
    evo = EvolutionParams()
    mask = evolve_visibility(4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(3))
    for i in range(1, 4):
        assert np.array_equal(mask[i, 0], mask[0, 0])


def test_evolve_visibility_mean_count_tracks_initial_count():
    evo = EvolutionParams()
    counts = []
    for k in range(300):
        mask = evolve_visibility(
            4, 4, 1.0, 1.0, ORIENT, evo, np.random.default_rng(1000 + k)
        )
        counts.append(mask.sum(axis=2).mean())
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
    assert abs(mean - 20.0) < 3.0 * se + 1e-9


def test_evolve_visibility_survival_fraction_matches_probability():
    # small spacing keeps the step survival away from 0 and 1
    evo = EvolutionParams()
    flat = ArrayOrientation(0.0, 0.0, math.pi / 2, 0.0)
    p = math.exp(-80.0 * 0.05 / 10.0)
    kept = 0
    total = 0
    for k in range(400):
        mask = evolve_visibility(
            1, 2, 1.0, 0.05, flat, evo, np.random.default_rng(5000 + k)
        )
        first = mask[0, 0]
        kept += int(np.sum(first & mask[0, 1]))
        total += int(first.sum())
    frac = kept / total
    sigma = math.sqrt(p * (1.0 - p) / total)
    assert abs(frac - p) < 3.0 * sigma


def test_assign_bounce_counts_and_partners():
    is_db, partner = assign_bounce(100, 0.9, np.random.default_rng(SEED))
    assert is_db.sum() == 10
    assert np.array_equal(np.sort(partner[is_db]), np.arange(10))
    assert np.all(partner[~is_db] == -1)

    is_db, partner = assign_bounce(100, 1.0, np.random.default_rng(SEED))
    assert is_db.sum() == 0
    assert np.all(partner == -1)

    is_db, _ = assign_bounce(13, 0.9, np.random.default_rng(SEED))
    assert is_db.sum() == math.ceil(13 * 0.1)


def test_assign_bounce_validation_and_determinism():
    with pytest.raises(ValueError):
        assign_bounce(10, 1.5, np.random.default_rng(0))
    a = assign_bounce(50, 0.8, np.random.default_rng(42))
    b = assign_bounce(50, 0.8, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _distribution(**kw):
    return ClusterDistribution(**kw)


def test_sample_cluster_geometry():
    dist = _distribution()
    gamma = {"plaster": 0.4, "floor": 0.2}
    weights = {"plaster": 0.7, "floor": 0.3}
    anchor = np.array([1.0, -0.5, 0.25])
    scatterers, normal, reflectance, material, azimuth, elevation, distance = (
        sample_cluster("tx", dist, anchor, 1.0, gamma, weights, np.random.default_rng(SEED))
    )
    assert material in weights
    assert reflectance == gamma[material]
    assert distance > 0.0
    assert scatterers.shape == (100, 3)
    # equivalent normal is the perpendicular back onto the link axis
    assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-12)
    assert abs(normal[0]) < 1e-9
    # the scatterer cloud is centered on the cluster center
    center0 = anchor + distance * direction(azimuth, elevation)
    err = scatterers.mean(axis=0) - center0
    assert np.all(np.abs(err) < 5.0 / math.sqrt(100))


def test_sample_cluster_reproducible():
    dist = _distribution()
    gamma = {"plaster": 0.4}
    weights = {"plaster": 1.0}
    a_scat, _, _, _, a_az, _, a_dist = sample_cluster(
        "rx", dist, np.zeros(3), 1.0, gamma, weights, np.random.default_rng(9))
    b_scat, _, _, _, b_az, _, b_dist = sample_cluster(
        "rx", dist, np.zeros(3), 1.0, gamma, weights, np.random.default_rng(9))
    assert a_az == b_az and a_dist == b_dist
    assert np.array_equal(a_scat, b_scat)


ROW_SETTINGS = {
    "default": {},
    "bandwidth-fov": {
        "tx_azimuth_mean": math.radians(60.0), "tx_azimuth_std": math.radians(45.5),
        "tx_elevation_mean": math.radians(15.0), "tx_elevation_std": math.radians(45.0),
        "sigma_ds": 3.422, "sigma_as": 2.691, "sigma_es": 3.719,
        "scatterers_per_cluster": 150,
    },
}
ROW_ANCHORS = {"tx": np.zeros(3), "rx": np.array([2.0, 0.0, 0.0])}


def _oracle_row(side, dist, distance_mean, rng):
    angles = (
        (dist.tx_azimuth_mean, dist.tx_azimuth_std, dist.tx_elevation_mean, dist.tx_elevation_std)
        if side == "tx" else
        (dist.rx_azimuth_mean, dist.rx_azimuth_std, dist.rx_elevation_mean, dist.rx_elevation_std)
    )
    cfg = default_config()
    return oracles.cluster_row(
        *angles, (dist.sigma_ds, dist.sigma_as, dist.sigma_es), dist.scatterers_per_cluster,
        ROW_ANCHORS[side], distance_mean, cfg.gamma_table(), cfg.material_weights(), rng)


def _row(side, dist, distance_mean, rng):
    cfg = default_config()
    return sample_cluster(side, dist, ROW_ANCHORS[side], distance_mean,
                          cfg.gamma_table(), cfg.material_weights(), rng)


def _assert_same_bits(got, want):
    scatterers, normal, reflectance, material, *draws = got
    bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)  # noqa: E731
    assert scatterers.shape == want[0].shape
    assert np.array_equal(bits(scatterers), bits(want[0]))
    assert np.array_equal(bits(normal), bits(want[1]))
    assert material == want[3]
    assert np.array_equal(bits([reflectance, *draws]), bits([want[2], *want[4:]]))


@settings(max_examples=40, deadline=None)
@given(
    side=st.sampled_from(["tx", "rx"]),
    name=st.sampled_from(sorted(ROW_SETTINGS)),
    seed=st.integers(0, 2**64 - 1),
    distance_mean=st.sampled_from([0.5, 1.0, 1.31725]),
)
def test_cluster_rows_match_the_oracle_bit_for_bit(side, name, seed, distance_mean):
    dist = _distribution(**ROW_SETTINGS[name])
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_bits(_row(side, dist, distance_mean, ours),
                      _oracle_row(side, dist, distance_mean, theirs))
    assert ours.random() == theirs.random()


def test_cluster_rows_match_the_oracle_over_a_seed_sweep():
    # a rare-ulp difference (a trig or residue change) shows up over many rows
    for name, kw in ROW_SETTINGS.items():
        dist = _distribution(**kw)
        for side in ("tx", "rx"):
            for seed in range(300):
                _assert_same_bits(
                    _row(side, dist, 1.0, np.random.default_rng(seed)),
                    _oracle_row(side, dist, 1.0, np.random.default_rng(seed)))


class _OnAxisFirst:
    """A generator whose first two scalar normal draws read 0.0, while its
    stream still advances: the first center of a default-settings row
    lies on the LoS axis (azimuth 0 or pi, elevation 0) and is redrawn."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._zeros = 2
        self.exponentials = 0

    def standard_normal(self, size=None):
        draw = self._rng.standard_normal(size)
        if size is None and self._zeros:
            self._zeros -= 1
            return 0.0
        return draw

    def exponential(self, scale):
        self.exponentials += 1
        return self._rng.exponential(scale)

    def random(self):
        return self._rng.random()


@pytest.mark.parametrize("side", ["tx", "rx"])
@pytest.mark.parametrize("seed", [0, 1, SEED])
def test_redrawn_cluster_rows_match_the_oracle(side, seed):
    dist = _distribution()
    ours, theirs = _OnAxisFirst(seed), _OnAxisFirst(seed)
    _assert_same_bits(_row(side, dist, 1.0, ours), _oracle_row(side, dist, 1.0, theirs))
    assert ours.exponentials == theirs.exponentials == 2
    assert ours.random() == theirs.random()


def test_on_axis_centers_fail_at_the_first_evaluation():
    # zero angular spread puts every Tx center on the LoS axis: the scene
    # builds (rows are drawn on demand) and the first tap that needs a
    # row gives up after its redraws
    cfg = default_config().merged(
        {"clusters": {"tx_azimuth_std_deg": 0.0, "tx_elevation_std_deg": 0.0}})
    scene = cfg.build_scene(SEED)
    assert len(scene.tx) > 0
    with pytest.raises(DegenerateNormalError, match="could not draw an off-axis cluster center"):
        cir_snapshot(1, 1, 1, scene, 0.0)


def test_material_draw_matches_rng_choice():
    # same index and same stream position as numpy's choice, over many
    # seeds and weight vectors, the default four-material mix among them;
    # up to 13 weights, past the 8 where numpy's sum turns pairwise
    mix = np.array([0.3, 0.2, 0.4, 0.1])
    for seed in range(2000):
        weights = mix if seed % 4 == 0 else np.random.default_rng(-seed - 1 + 2**32).uniform(
            0.0, 1.0, 1 + seed % 13)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        index = _weighted_index(weights.tolist(), ours)
        assert index == numpys.choice(weights.size, p=weights / weights.sum())
        assert ours.random() == numpys.random()


def test_cluster_velocity_moves_snapshots():
    dist = _distribution(speed=0.5, travel_azimuth=0.0, travel_elevation=0.0)
    scene = build_scene(
        LedArray(), Receiver(), EvolutionParams(), dist,
        {"plaster": 0.4}, {"plaster": 1.0}, seed=11,
    )
    for side in (scene.tx, scene.rx):
        assert np.allclose(side.velocity, [0.5, 0.0, 0.0], atol=1e-15)


def test_cluster_set_rows_come_from_their_own_streams():
    # row k of each side is sample_cluster on the k-th spawned stream, so
    # any single cluster can be redrawn without drawing the others
    cfg = default_config()
    scene = cfg.build_scene(SEED)
    dist = scene.distribution
    n = len(scene.tx)
    assert len(scene.rx) == math.ceil(n * (1.0 - dist.sb_ratio))
    _, ss_tx, ss_rx, _ = np.random.SeedSequence(SEED).spawn(4)
    anchors = {"tx": np.zeros(3), "rx": scene.receiver.initial_position}
    for side, clusters, streams in (
        ("tx", scene.tx, ss_tx.spawn(n)),
        ("rx", scene.rx, ss_rx.spawn(len(scene.rx))),
    ):
        for k, stream in enumerate(streams):
            scatterers, normal, reflectance, *_ = sample_cluster(
                side, dist, anchors[side], scene.receiver.distance / 2.0,
                cfg.gamma_table(), cfg.material_weights(),
                np.random.default_rng(stream),
            )
            assert np.array_equal(clusters.scatterers0[k], scatterers)
            assert np.array_equal(clusters.normals[k], normal)
            assert clusters.reflectance[k] == reflectance

    # rows drawn one at a time, in reverse order, come out the same
    fresh = cfg.build_scene(SEED)
    for side in ("tx", "rx"):
        want, got = getattr(scene, side), getattr(fresh, side)
        for k in reversed(range(len(got))):
            scatterers, normal, reflectance = got.take(np.array([k]), 0.0)
            assert np.array_equal(scatterers[0], want.scatterers0[k])
            assert np.array_equal(normal[0], want.normals[k])
            assert reflectance[0] == want.reflectance[k]


def test_build_scene_deterministic():
    cfg = default_config()
    a = cfg.build_scene(123)
    b = cfg.build_scene(123)
    c = cfg.build_scene(124)
    assert np.array_equal(a.visibility, b.visibility)
    assert np.array_equal(a.tx.scatterers0, b.tx.scatterers0)
    assert a.fingerprint == b.fingerprint != ""
    assert a.tx.scatterers0.shape != c.tx.scatterers0.shape or not np.array_equal(
        a.tx.scatterers0, c.tx.scatterers0
    )


def test_build_scene_bookkeeping():
    cfg = default_config()
    scene = cfg.build_scene(SEED)
    n = len(scene.tx)
    assert scene.visibility.shape == (4, 4, n)
    assert len(scene.rx) == math.ceil(n * 0.1)
    assert scene.is_db.sum() == math.ceil(n * 0.1)
    assert np.all(scene.partner[scene.is_db] >= 0)
    assert np.all(scene.partner[scene.is_db] < len(scene.rx))
    assert np.all(scene.partner[~scene.is_db] == -1)
    # visible_indices mirrors the boolean mask, elements are 1-based
    got = scene.visible_indices(2, 3)
    assert np.array_equal(got, np.flatnonzero(scene.visibility[1, 2]))
    # at the documented defaults roughly initial_count clusters stay visible
    assert scene.visibility[0, 0].sum() == 20
    for side in (scene.tx, scene.rx):
        assert side.area_per_scatterer == pytest.approx(
            scene.distribution.effective_area / 100)


def test_build_scene_zero_distance_raises():
    array = LedArray()
    rx = Receiver(distance=0.0)
    with pytest.raises(ZeroDistanceError):
        build_scene(
            array,
            rx,
            EvolutionParams(),
            ClusterDistribution(),
            {"plaster": 0.4},
            {"plaster": 1.0},
            seed=1,
        )


def test_snapshot_motion_is_linear():
    cfg = default_config().merged(
        {
            "receiver": {"speed_m_s": 0.5, "travel_azimuth_deg": 0.0,
                         "travel_elevation_deg": 90.0},
            "clusters": {"speed_m_s": 0.25, "travel_azimuth_deg": 180.0},
        }
    )
    scene = cfg.build_scene(7)
    receiver = scene.receiver
    assert np.allclose(receiver.position_at(2.0), receiver.initial_position + [0.0, 0.0, 1.0])
    assert np.allclose(
        scene.tx.take(np.arange(len(scene.tx)), 2.0)[0],
        scene.tx.scatterers0 + np.array([-0.5, 0.0, 0.0]),
        atol=1e-12,
    )
    # one row per time of a 1-D array, on the same line
    track = receiver.position_at(np.array([2.0, 2.5]))
    assert np.array_equal(track, [receiver.position_at(2.0), receiver.position_at(2.5)])
    assert np.allclose(track[1] - track[0], [0.0, 0.0, 0.25])


def test_gamma_table_monochromatic_shortcut():
    weights = {"plaster": 1.0}
    mono = gamma_table("white", 550.0, 550.0, weights)
    from vlcsim.optics import load_material

    assert mono["plaster"] == pytest.approx(
        float(load_material("plaster").value_at(550.0))
    )


@pytest.mark.parametrize("lo, hi, error, match", [
    # a single wavelength past a material table: np.interp would clamp it
    # to the reflectance at the table's end
    (100.0, 100.0, DomainMismatchError, r"plaster.*\[380\.0, 780\.0\] nm, not 100\.0 nm"),
    (379.5, 379.5, DomainMismatchError, r"not 379\.5 nm"),
    (900.0, 900.0, DomainMismatchError, r"not 900\.0 nm"),
    # a window that misses the LED spectrum
    (100.0, 200.0, ValueError, r"\[100\.0, 200\.0\] nm.*\[380\.0, 780\.0\] nm"),
])
def test_gamma_table_outside_the_tables_raises(lo, hi, error, match):
    with pytest.raises(error, match=match):
        gamma_table("white", lo, hi, {"plaster": 1.0})


def test_gamma_table_integrated_values():
    weights = {"plaster": 0.4, "plate_glass": 0.1}
    table = gamma_table("white", 380.0, 780.0, weights)
    assert set(table) == set(weights)
    for g in table.values():
        assert 0.0 < g < 1.0
    # a mostly transparent surface reflects less than a painted wall
    assert table["plate_glass"] < table["plaster"]


MOVING = {
    "receiver": {"speed_m_s": 0.5, "travel_elevation_deg": 90.0},
    "clusters": {"speed_m_s": 0.25, "travel_azimuth_deg": 180.0, "sb_ratio": 0.7},
}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    i=st.integers(1, 4),
    j=st.integers(1, 4),
    t=st.sampled_from([0.0, 0.37]),
)
def test_on_demand_clusters_give_the_same_taps_as_drawing_all(seed, i, j, t):
    cfg = default_config().merged(MOVING)
    lazy = cfg.build_scene(seed)
    eager = cfg.build_scene(seed)
    # reading a full field draws every row of its side
    assert eager.tx.scatterers0.shape[0] == len(eager.tx)
    assert eager.rx.scatterers0.shape[0] == len(eager.rx)
    a = cir_snapshot(i, j, 1, lazy, t)
    b = cir_snapshot(i, j, 1, eager, t)
    for field in ("powers", "delays", "kinds", "clusters", "scatterers"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_evaluation_draws_only_the_clusters_it_sees(monkeypatch):
    calls = []

    def counted(side, *args):
        calls.append(side)
        return sample_cluster(side, *args)

    monkeypatch.setattr(vlcsim.scene, "sample_cluster", counted)
    scene = default_config().build_scene(SEED)
    # neither building nor reading the bookkeeping draws a cluster
    assert scene.visibility.shape[2] == len(scene.tx) == scene.is_db.size
    assert scene.partner.max() < len(scene.rx)
    assert scene.distribution.scatterers_per_cluster == 100
    assert calls == []

    cir_snapshot(1, 1, 1, scene, 0.0)
    visible = scene.visible_indices(1, 1)
    partners = set(scene.partner[visible[scene.is_db[visible]]])
    assert calls.count("tx") == visible.size
    assert calls.count("rx") == len(partners)
    cir_snapshot(1, 1, 1, scene, 0.5)
    assert len(calls) == visible.size + len(partners)

    channel_over_time(scene, [0.0])
    assert calls.count("tx") == len(scene.tx)
    assert calls.count("rx") == len(scene.rx)


def test_config_builds_its_tables_once(monkeypatch):
    calls = []
    for name in ("pattern", "gamma_table"):
        method = getattr(SimulationConfig, name)

        def counted(self, method=method, name=name):
            calls.append(name)
            return method(self)

        monkeypatch.setattr(SimulationConfig, name, counted)

    cfg = default_config()
    assert calls == []
    scenes = [cfg.build_scene(s) for s in (1, 2, 3)]
    assert sorted(calls) == ["gamma_table", "pattern"]
    assert scenes[0].array is scenes[2].array

    # a merged config is a new value with its own tables
    other = cfg.merged({"receiver": {"fov_deg": 60.0}})
    assert len(calls) == 2
    fov = other.build_scene(1).receiver.optics.fov
    assert fov == pytest.approx(math.radians(60.0))
    other.build_scene(2)
    assert sorted(calls) == ["gamma_table", "gamma_table", "pattern", "pattern"]
    assert scenes[0].receiver.optics.fov == pytest.approx(math.radians(85.0))


def test_part_drawn_scene_pickles_and_draws_on():
    scene = default_config().build_scene(SEED)
    cir_snapshot(1, 1, 1, scene, 0.0)
    copy = pickle.loads(pickle.dumps(scene))
    a = cir_snapshot(4, 4, 1, scene, 0.0)
    b = cir_snapshot(4, 4, 1, copy, 0.0)
    assert np.array_equal(a.powers, b.powers) and np.array_equal(a.delays, b.delays)
