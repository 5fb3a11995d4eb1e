import math

import numpy as np
import pytest

from vlcsim import (
    ArrayOrientation,
    ClusterDistribution,
    EvolutionParams,
    LedArray,
    Receiver,
    ZeroDistanceError,
    build_scene,
    default_config,
    gamma_table,
)
from vlcsim.geometry import AnglePair, sph_to_cart
from vlcsim.scene import (
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
    center0 = anchor + sph_to_cart(AnglePair(azimuth, elevation), distance)
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
    snap = scene.at(2.0)
    assert np.allclose(
        snap.rx_position, scene.receiver.initial_position + [0.0, 0.0, 1.0]
    )
    assert np.allclose(
        snap.tx_scatterers, scene.tx.scatterers0 + np.array([-0.5, 0.0, 0.0]),
        atol=1e-12,
    )
    later = scene.at(snap.time + 0.5)
    assert later.time == pytest.approx(2.5)
    assert np.allclose(later.rx_position, scene.receiver.position_at(2.5))


def test_gamma_table_monochromatic_shortcut():
    weights = {"plaster": 1.0}
    mono = gamma_table("white", 550.0, 550.0, weights)
    from vlcsim.optics import load_material

    assert mono["plaster"] == pytest.approx(
        float(load_material("plaster").value_at(550.0))
    )


def test_gamma_table_integrated_values():
    weights = {"plaster": 0.4, "plate_glass": 0.1}
    table = gamma_table("white", 380.0, 780.0, weights)
    assert set(table) == set(weights)
    for g in table.values():
        assert 0.0 < g < 1.0
    # a mostly transparent surface reflects less than a painted wall
    assert table["plate_glass"] < table["plaster"]
