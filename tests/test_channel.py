import math

import numpy as np
import pytest

import oracles
from vlcsim import (
    Cir,
    ClusterDistribution,
    EvolutionParams,
    LambertianPattern,
    LedArray,
    Receiver,
    RxOptics,
    SPEED_OF_LIGHT,
    TapKind,
    channel_over_time,
    cir_snapshot,
    default_config,
)
from vlcsim.geometry import ArrayOrientation, direction
from vlcsim.scene import ClusterSet, Scene

SEED = 20220101


def _cluster(scatterer, normal, gamma, area, speed=0.0, travel_az=0.0):
    """A one-cluster set holding a single scatterer."""
    return ClusterSet(
        scatterers0=np.asarray(scatterer, dtype=float).reshape(1, 1, 3),
        normals=np.asarray(normal, dtype=float).reshape(1, 3),
        reflectance=np.array([gamma]),
        area_per_scatterer=area,
        velocity=speed * direction(travel_az, 0.0),
    )


def _only_tap(cir, kind):
    """(power, delay) of the single ``kind`` tap of ``cir``, or None."""
    hit = np.flatnonzero(cir.kinds == int(kind))
    assert hit.size <= 1
    return None if hit.size == 0 else (cir.powers[hit[0]], cir.delays[hit[0]])


def _los_cir(scene, t):
    """Direct path of sub-channel (1, 1, 1) alone: every cluster hidden."""
    return cir_snapshot(1, 1, 1, scene, t, visibility=np.zeros_like(scene.visibility))


def _random_setup(rng, double):
    """One hand-built scene with a single scatterer per cluster, plus all
    raw parameters so the reference path can rebuild everything itself."""
    p = {
        "rows": int(rng.integers(1, 4)),
        "cols": int(rng.integers(1, 4)),
        "dh": float(rng.uniform(0.3, 1.5)),
        "dv": float(rng.uniform(0.3, 1.5)),
        "row_az": float(rng.uniform(0.0, 2 * math.pi)),
        "row_el": float(rng.uniform(-1.2, 1.2)),
        "col_az": float(rng.uniform(0.0, 2 * math.pi)),
        "col_el": float(rng.uniform(-1.2, 1.2)),
        "order": float(rng.choice([0.0, 1.0, 2.7])),
        "distance": float(rng.uniform(1.5, 4.0)),
        "rx_az": float(math.pi + rng.uniform(-1.0, 1.0)),
        "rx_el": float(rng.uniform(-0.7, 0.7)),
        "fov": float(rng.uniform(math.radians(30), math.radians(90))),
        "area_pd": 1e-4,
        "filter": float(rng.uniform(0.5, 1.0)),
        "conc": bool(rng.random() < 0.3),
        "gamma_a": float(rng.uniform(0.1, 0.9)),
        "gamma_z": float(rng.uniform(0.1, 0.9)),
        "area_a": float(rng.uniform(0.5, 2.0)),
        "area_z": float(rng.uniform(0.5, 2.0)),
        "spd_c": float(rng.uniform(0.0, 0.6)),
        "trv_c": float(rng.uniform(0.0, 2 * math.pi)),
        "spd_r": float(rng.uniform(0.0, 0.6)),
        "trv_r": float(rng.uniform(0.0, 2 * math.pi)),
        "t": float(rng.uniform(0.0, 2.0)),
        "i": 1,
        "j": 1,
    }
    p["i"] = int(rng.integers(1, p["rows"] + 1))
    p["j"] = int(rng.integers(1, p["cols"] + 1))

    # skip accidentally parallel array axes
    axes_dot = float(
        oracles.unit(p["row_az"], p["row_el"]) @ oracles.unit(p["col_az"], p["col_el"])
    )
    if abs(abs(axes_dot) - 1.0) < 1e-3:
        p["col_az"] = p["col_az"] + 0.7

    opt = RxOptics(
        fov=p["fov"],
        refractive_index=1.5,
        concentrator=p["conc"],
        concentrator_mode="constant",
        filter_gain=p["filter"],
    )
    array = LedArray(
        rows=p["rows"],
        cols=p["cols"],
        spacing_h=p["dh"],
        spacing_v=p["dv"],
        orientation=ArrayOrientation(p["row_az"], p["row_el"], p["col_az"], p["col_el"]),
        pattern=LambertianPattern(p["order"]),
    )
    receiver = Receiver(
        distance=p["distance"],
        azimuth=p["rx_az"],
        elevation=p["rx_el"],
        speed=p["spd_r"],
        travel_azimuth=p["trv_r"],
        optics=opt,
    )

    def normal_for(point):
        h = math.hypot(point[1], point[2])
        return np.array([0.0, -point[1] / h, -point[2] / h])

    def _scatterer_point():
        # somewhere around the link axis so a fair share of rays survive
        out = np.array(
            [
                rng.uniform(0.0, p["distance"]),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
            ]
        )
        while math.hypot(out[1], out[2]) < 0.3:
            out[1] = rng.uniform(-2.0, 2.0)
            out[2] = rng.uniform(-2.0, 2.0)
        return out

    s_a0 = _scatterer_point()
    tx = _cluster(
        s_a0, normal_for(s_a0), p["gamma_a"], p["area_a"],
        speed=p["spd_c"], travel_az=p["trv_c"],
    )
    rx = ClusterSet(np.zeros((0, 1, 3)), np.zeros((0, 3)), np.zeros(0), 1.0, np.zeros(3))
    if double:
        s_z0 = _scatterer_point()
        rx = _cluster(
            s_z0, normal_for(s_z0), p["gamma_z"], p["area_z"],
            speed=p["spd_c"], travel_az=p["trv_c"],
        )
        p["s_z0"] = s_z0

    scene = Scene(
        array=array,
        receiver=receiver,
        evolution=EvolutionParams(),
        distribution=ClusterDistribution(),
        tx=tx,
        rx=rx,
        visibility=np.ones((p["rows"], p["cols"], 1), dtype=bool),
        is_db=np.array([double]),
        partner=np.array([0 if double else -1]),
        seed=0,
    )
    p["s_a0"] = s_a0
    return scene, p


def _oracle_inputs(p):
    frame = oracles.frame_from_axes(p["row_az"], p["row_el"], p["col_az"], p["col_el"])
    led = (p["j"] - 1) * p["dv"] * oracles.unit(p["row_az"], p["row_el"]) + (
        p["i"] - 1
    ) * p["dh"] * oracles.unit(p["col_az"], p["col_el"])
    move_c = p["spd_c"] * oracles.unit(p["trv_c"], 0.0) * p["t"]
    rx = (
        np.array([p["distance"], 0.0, 0.0])
        + p["spd_r"] * oracles.unit(p["trv_r"], 0.0) * p["t"]
    )
    n_pd = oracles.unit(p["rx_az"], p["rx_el"])
    conc = 1.5**2 / math.sin(p["fov"]) ** 2 if p["conc"] else 1.0
    return frame, led, move_c, rx, n_pd, conc


def test_sb_tap_matches_straight_line_reference():
    rng = np.random.default_rng(SEED)
    agreements = 0
    for _ in range(100):
        scene, p = _random_setup(rng, double=False)
        frame, led, move_c, rx, n_pd, conc = _oracle_inputs(p)
        s_a = p["s_a0"] + move_c

        def normal_of(point0):
            h = math.hypot(point0[1], point0[2])
            return np.array([0.0, -point0[1] / h, -point0[2] / h])

        want = oracles.straight_line_sb(
            led, frame, p["order"], s_a, normal_of(p["s_a0"]), p["gamma_a"],
            p["area_a"], rx, n_pd, p["area_pd"], p["fov"],
            filter_gain=p["filter"], conc_gain=conc,
        )
        cir = cir_snapshot(p["i"], p["j"], 1, scene, p["t"])
        assert not np.any(cir.kinds == int(TapKind.DB))
        got = _only_tap(cir, TapKind.SB)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        agreements += 1
    # the draw must exercise plenty of unpruned rays, not just empty ones
    assert agreements >= 20


def test_db_tap_matches_straight_line_reference():
    rng = np.random.default_rng(SEED + 1)
    agreements = 0
    for _ in range(100):
        scene, p = _random_setup(rng, double=True)
        frame, led, move_c, rx, n_pd, conc = _oracle_inputs(p)
        s_a = p["s_a0"] + move_c
        s_z = p["s_z0"] + move_c

        def normal_of(point0):
            h = math.hypot(point0[1], point0[2])
            return np.array([0.0, -point0[1] / h, -point0[2] / h])

        want = oracles.straight_line_db(
            led, frame, p["order"],
            s_a, normal_of(p["s_a0"]), p["gamma_a"], p["area_a"],
            s_z, normal_of(p["s_z0"]), p["gamma_z"], p["area_z"],
            rx, n_pd, p["area_pd"], p["fov"],
            filter_gain=p["filter"], conc_gain=conc,
        )
        cir = cir_snapshot(p["i"], p["j"], 1, scene, p["t"])
        assert not np.any(cir.kinds == int(TapKind.SB))
        got = _only_tap(cir, TapKind.DB)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        agreements += 1
    assert agreements >= 20


def test_los_tap_default_link():
    scene = default_config().build_scene(SEED)
    cir = _los_cir(scene, 0.0)
    assert cir.kinds.tolist() == [int(TapKind.LOS)]
    # boresight link, 2 m: (1/pi) * 1e-4 / 4 and the straight flight time
    assert cir.powers[0] == pytest.approx(1e-4 / (4.0 * math.pi), abs=1e-10)
    assert cir.delays[0] == pytest.approx(2.0 / SPEED_OF_LIGHT, abs=1e-12)


def test_los_tap_none_outside_fov():
    cfg = default_config().merged({"receiver": {"azimuth_deg": 0.0}})
    scene = cfg.build_scene(SEED)
    assert _los_cir(scene, 0.0).powers.size == 0


SMALL = {
    "array": {"rows": 2, "cols": 2},
    "evolution": {"birth_rate_per_m": 8.0},
    "clusters": {"scatterers_per_cluster": 4, "sb_ratio": 0.5},
}


def test_cir_snapshot_matches_reference_sums():
    # the whole impulse response, one independent straight line at a time
    cfg = default_config().merged(SMALL)
    scene = cfg.build_scene(77)
    i, j, t = 2, 1, 0.3
    cir = cir_snapshot(i, j, 1, scene, t)
    snap = scene.at(t)

    orientation = scene.array.orientation
    frame = oracles.frame_from_axes(*orientation)
    led = scene.array.element_position(i, j)
    rx = snap.rx_position
    n_pd = snap.pd_normals[0]
    fov = scene.receiver.optics.fov
    area_pd = scene.receiver.area

    tx, rx_set = scene.tx, scene.rx
    tx_points = tx.scatterers0 + tx.velocity * t
    rx_points = rx_set.scatterers0 + rx_set.velocity * t
    sb_sum, db_sum = [], []
    for k in scene.visible_indices(i, j):
        if not scene.is_db[k]:
            for s in range(tx.scatterers0.shape[1]):
                out = oracles.straight_line_sb(
                    led, frame, 1.0, tx_points[k, s], tx.normals[k],
                    tx.reflectance[k], tx.area_per_scatterer, rx, n_pd, area_pd, fov,
                )
                if out is not None:
                    sb_sum.append(out[0])
        else:
            z = scene.partner[k]
            m_z = rx_set.scatterers0.shape[1]
            for s in range(tx.scatterers0.shape[1]):
                out = oracles.straight_line_db(
                    led, frame, 1.0,
                    tx_points[k, s], tx.normals[k], tx.reflectance[k],
                    tx.area_per_scatterer,
                    rx_points[z, s % m_z], rx_set.normals[z],
                    rx_set.reflectance[z], rx_set.area_per_scatterer,
                    rx, n_pd, area_pd, fov,
                )
                if out is not None:
                    db_sum.append(out[0])

    got_sb = cir.powers[cir.kinds == int(TapKind.SB)].sum()
    got_db = cir.powers[cir.kinds == int(TapKind.DB)].sum()
    assert got_sb == pytest.approx(math.fsum(sb_sum), rel=1e-12)
    assert got_db == pytest.approx(math.fsum(db_sum), rel=1e-12)
    assert len(sb_sum) == int(np.sum(cir.kinds == int(TapKind.SB)))
    assert len(db_sum) == int(np.sum(cir.kinds == int(TapKind.DB)))


def test_cir_snapshot_structure():
    scene = default_config().merged(SMALL).build_scene(11)
    cir = cir_snapshot(1, 2, 1, scene, 0.0)
    assert cir.element == (1, 2) and cir.pd == 1 and cir.time == 0.0
    assert np.all(np.diff(cir.delays) >= 0.0)
    assert np.all(cir.powers > 0.0)
    assert np.all((cir.delays > 0.0) & np.isfinite(cir.delays))
    assert cir.dc_gain == pytest.approx(cir.powers.sum())
    # LoS, when present, is the earliest arrival
    assert cir.kinds[0] == int(TapKind.LOS)
    assert cir.clusters[0] == -1 and cir.scatterers[0] == -1
    assert np.all(cir.clusters[1:] >= 0) and np.all(cir.scatterers[1:] >= 0)
    nlos = cir.nlos_only()
    assert nlos.powers.size == cir.powers.size - 1
    assert np.all(nlos.kinds != int(TapKind.LOS))


def test_cir_snapshot_respects_visibility_override():
    scene = default_config().merged(SMALL).build_scene(5)
    none_visible = np.zeros_like(scene.visibility)
    cir = cir_snapshot(1, 1, 1, scene, 0.0, visibility=none_visible)
    assert np.all(cir.kinds == int(TapKind.LOS))
    assert cir.powers.size == 1


def test_cir_taps_respect_field_of_view():
    cfg = default_config().merged({"receiver": {"fov_deg": 30.0}, **SMALL})
    scene = cfg.build_scene(21)
    t = 0.0
    cir = cir_snapshot(1, 1, 1, scene, t)
    snap = scene.at(t)
    rx = snap.rx_position
    n_pd = snap.pd_normals[0]
    tx_points = scene.tx.scatterers0 + scene.tx.velocity * t
    rx_points = scene.rx.scatterers0 + scene.rx.velocity * t
    for kind, c, s in zip(cir.kinds, cir.clusters, cir.scatterers):
        if kind == TapKind.SB:
            point = tx_points[c, s]
        elif kind == TapKind.DB:
            z = scene.partner[c]
            m_z = scene.rx.scatterers0.shape[1]
            point = rx_points[z, s % m_z]
        else:
            point = scene.array.element_position(1, 1)
        u = (rx - point) / np.linalg.norm(rx - point)
        psi = math.acos(min(1.0, max(-1.0, -float(u @ n_pd))))
        assert psi <= math.radians(30.0) + 1e-12


def test_channel_over_time_covers_all_subchannels():
    cfg = default_config().merged(
        {"receiver": {"n_pd": 3, "fov_deg": 60.0}, **SMALL}
    )
    scene = cfg.build_scene(13)
    times = [0.0, 0.5]
    mats = channel_over_time(scene, times)
    assert [m.time for m in mats] == times
    assert set(mats[0].cirs) == {
        (i, j, p) for i in (1, 2) for j in (1, 2) for p in (1, 2, 3)
    }
    one = mats[1].cir(2, 2, 3)
    assert isinstance(one, Cir)
    assert one.element == (2, 2) and one.pd == 3 and one.time == 0.5


def test_scene_without_clusters_is_line_of_sight_only():
    # birth rate 1/m against death rate 4/m: round(0.25) = 0 initial clusters
    cfg = default_config().merged(
        {"evolution": {"birth_rate_per_m": 1.0}, "clusters": {"speed_m_s": 0.5}}
    )
    scene = cfg.build_scene(SEED)
    m = scene.distribution.scatterers_per_cluster
    assert scene.evolution.initial_count == 0
    assert scene.tx.scatterers0.shape == (0, m, 3)
    assert scene.rx.scatterers0.shape == (0, m, 3)
    assert scene.tx.take(np.arange(0), 1.0)[0].shape == (0, m, 3)

    cir = cir_snapshot(1, 1, 1, scene, 1.0)
    assert np.all(cir.kinds == int(TapKind.LOS))
    assert cir.powers.size == 1
    # boresight link, 2 m: (1/pi) * 1e-4 / 4
    assert cir.dc_gain == pytest.approx(1e-4 / (4.0 * math.pi), abs=1e-10)
    for matrix in channel_over_time(scene, [0.0, 1.0]):
        for one in matrix:
            assert np.all(one.kinds == int(TapKind.LOS))
            assert one.powers.size <= 1
