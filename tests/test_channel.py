import dataclasses
import gc
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vlcsim.channel
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
    acf,
    ccf,
    channel_over_time,
    cir_snapshot,
    default_config,
    run_experiment,
    stfcf_many,
    transfer,
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
    hidden = dataclasses.replace(scene, visibility=np.zeros_like(scene.visibility))
    return cir_snapshot(1, 1, 1, hidden, t)


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


def test_los_tap_none_when_element_faces_away():
    # element (1, 1) faces -x, away from the receiver: the direct path
    # carries no power, while scattered paths still reach the detectors
    cfg = default_config().merged({
        "array": {"row_azimuth_deg": 270.0},
        "receiver": {"n_pd": 3},
    })
    scene = cfg.build_scene(1)
    assert _los_cir(scene, 0.0).powers.size == 0
    kinds = np.concatenate([cir_snapshot(1, 1, p, scene, 0.0).kinds for p in (1, 2, 3)])
    assert int(TapKind.LOS) not in kinds
    assert int(TapKind.SB) in kinds and int(TapKind.DB) in kinds


def test_los_only_call_finishes_one_leg(monkeypatch):
    # the empty single- and double-bounce legs skip the detector finish
    finish = vlcsim.channel._pd_incidence
    calls = []

    def counting(*args):
        calls.append(args)
        return finish(*args)

    monkeypatch.setattr(vlcsim.channel, "_pd_incidence", counting)
    scene = default_config().build_scene(SEED)
    assert _los_cir(scene, 0.0).kinds.tolist() == [int(TapKind.LOS)]
    assert len(calls) == 1


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

    orientation = scene.array.orientation
    frame = oracles.frame_from_axes(*orientation)
    led = scene.array.element_position(i, j)
    rx = scene.receiver.position_at(t)
    n_pd = scene.receiver.pd_normals(t)[0]
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
    # numpy integers and a 0-d time give plain ints and a float
    same = cir_snapshot(np.int64(1), 2, np.int64(1), scene, np.array(0.0))
    assert [type(x) for x in (*same.element, same.pd, same.time)] == [int, int, int, float]
    for name in CIR_FIELDS:
        assert np.array_equal(getattr(same, name), getattr(cir, name))
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
    none_visible = dataclasses.replace(scene, visibility=np.zeros_like(scene.visibility))
    cir = cir_snapshot(1, 1, 1, none_visible, 0.0)
    assert np.all(cir.kinds == int(TapKind.LOS))
    assert cir.powers.size == 1


def test_cir_taps_respect_field_of_view():
    cfg = default_config().merged({"receiver": {"fov_deg": 30.0}, **SMALL})
    scene = cfg.build_scene(21)
    t = 0.0
    cir = cir_snapshot(1, 1, 1, scene, t)
    rx = scene.receiver.position_at(t)
    n_pd = scene.receiver.pd_normals(t)[0]
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
    one = mats[1].cirs[(2, 2, 3)]
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
        for one in matrix.cirs.values():
            assert np.all(one.kinds == int(TapKind.LOS))
            assert one.powers.size <= 1


CIR_FIELDS = ("powers", "delays", "kinds", "clusters", "scatterers")


def _moving_config(rot_az=0.0, rot_el=0.0, rx_speed=0.0, cluster_speed=0.0):
    return default_config().merged({
        "array": {"rows": 2, "cols": 2},
        "evolution": {"birth_rate_per_m": 16.0},
        "receiver": {
            "n_pd": 3, "fov_deg": 60.0,
            "rot_azimuth_deg_s": rot_az, "rot_elevation_deg_s": rot_el,
            "speed_m_s": rx_speed, "travel_azimuth_deg": 90.0,
        },
        "clusters": {
            "scatterers_per_cluster": 20, "sb_ratio": 0.6,
            "speed_m_s": cluster_speed, "travel_azimuth_deg": 30.0,
        },
    })


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rot_az=st.sampled_from([0.0, 45.0, -120.0]),
    rot_el=st.sampled_from([0.0, 30.0]),
    rx_speed=st.sampled_from([0.0, 0.0, 0.7]),
    cluster_speed=st.sampled_from([0.0, 0.0, 0.4]),
    times=st.lists(st.sampled_from([0.0, 0.1, 0.35, 1.0]), min_size=1, max_size=5),
)
def test_channel_over_time_equals_fresh_snapshots(
    seed, rot_az, rot_el, rx_speed, cluster_speed, times
):
    # legs carried across instants give the same bits as legs built afresh
    scene = _moving_config(rot_az, rot_el, rx_speed, cluster_speed).build_scene(seed)
    times = times + times[:1]   # an instant evaluated twice
    for t, matrix in zip(times, channel_over_time(scene, times)):
        for (i, j, p), cir in matrix.cirs.items():
            fresh = cir_snapshot(i, j, p, scene, t)
            for name in CIR_FIELDS:
                assert np.array_equal(getattr(cir, name), getattr(fresh, name))


@pytest.fixture
def leg_builds(monkeypatch):
    """Counts the bounce legs built, one per instant of each call to the
    builder, and keeps a weak reference to the block of each."""
    builder = vlcsim.channel._bounce_leg
    calls = []

    def counting(block, t, i, j, idx, kind, rx):
        calls.extend([weakref.ref(block)] * len(rx))
        return builder(block, t, i, j, idx, kind, rx)

    monkeypatch.setattr(vlcsim.channel, "_bounce_leg", counting)
    return calls


@pytest.mark.parametrize("n_times", [1, 4, 12])
def test_static_scene_builds_each_leg_once(leg_builds, n_times):
    scene = _moving_config(rot_az=45.0, rot_el=10.0).build_scene(SEED)
    channel_over_time(scene, np.linspace(0.0, 1.0, n_times))
    # one single-bounce and one double-bounce leg per element, however
    # many instants and detectors
    assert len(leg_builds) == 2 * 2 * 2


@pytest.mark.parametrize("motion", [{"rx_speed": 0.5}, {"cluster_speed": 0.5}])
def test_moving_scene_rebuilds_legs_every_instant(leg_builds, motion):
    scene = _moving_config(rot_az=45.0, **motion).build_scene(SEED)
    times = [0.0, 0.2, 0.4, 0.2]
    channel_over_time(scene, times)
    assert len(leg_builds) == 2 * 2 * 2 * len(times)


def test_detectors_share_the_layout_of_one_snapshot(leg_builds, monkeypatch):
    # rms-adr's plan, element (1, 1) at t = 0 seen by three detectors,
    # builds one layout per scene and each bounce leg once, and every
    # detector's CIR equals a lone call
    scene = _moving_config().build_scene(SEED)
    plan = [[(1, 1, p) for p in (1, 2, 3)]]
    cirs = list(vlcsim.channel._cirs(scene, [0.0], plan))
    assert len(leg_builds) == 2
    assert [(k, link) for k, link, _ in cirs] == [(0, link) for link in plan[0]]
    for _, (i, j, p), cir in cirs:
        lone = cir_snapshot(i, j, p, scene, 0.0)
        for name in CIR_FIELDS:
            assert _tobytes_equal(getattr(cir, name), getattr(lone, name))
    builder = vlcsim.channel._layout
    layouts = []

    def counting(*args):
        layouts.append(args[0].scene)
        return builder(*args)

    monkeypatch.setattr(vlcsim.channel, "_layout", counting)
    run_experiment("rms-adr", ensemble=2)
    assert len(layouts) == len(set(map(id, layouts))) == 2


def test_channel_over_time_leaves_no_legs_behind(leg_builds):
    scene = _moving_config(rot_az=45.0).build_scene(SEED)
    before = dict(vars(scene))
    channel_over_time(scene, [0.0, 0.5])
    assert vars(scene).keys() == before.keys()
    assert all(vars(scene)[k] is v for k, v in before.items())
    gc.collect()
    assert leg_builds and all(ref() is None for ref in leg_builds)
    pickle.loads(pickle.dumps(scene))


def test_time_series_releases_each_instant_it_has_handed_out():
    # nothing moves: the instants share one layout, and each has its own finish
    scene = _moving_config(rot_az=45.0).build_scene(SEED)
    matrices = vlcsim.channel._matrices(scene, [0.0, 0.5, 1.0])
    first = next(matrices)
    finish = weakref.ref(first.cirs[(1, 1, 1)].powers.base)
    del first
    second = next(matrices)
    gc.collect()
    assert finish() is None
    assert second.cirs[(2, 2, 3)].powers.base is not None
    assert [m.time for m in matrices] == [1.0]


def test_a_head_that_does_not_rotate_gets_its_normals_once(monkeypatch):
    calls = []
    normals = Receiver.pd_normals

    def counting(receiver, t):
        calls.append(t)
        return normals(receiver, t)

    monkeypatch.setattr(Receiver, "pd_normals", counting)
    times = np.linspace(0.0, 1.0, 7)
    moving = _moving_config(rx_speed=0.5).build_scene(SEED)
    channel_over_time(moving, times)
    stfcf_many([moving, moving], [((1, 1, 1), (2, 2, 2), 0.0, 0.0, times, 0.0)])
    assert len(calls) == 3   # once per scene of each call
    # a -0.0 azimuth turns into +0.0 at t >= 0 but stays -0.0 at t < 0:
    # equal as floats, two sets of normals by their bits
    signed = dataclasses.replace(moving, receiver=dataclasses.replace(moving.receiver, azimuth=-0.0))
    calls.clear()
    channel_over_time(signed, [-1.0, 1.0])
    assert calls == [-1.0, 1.0]
    # a rotating head gets its normals once per instant
    calls.clear()
    channel_over_time(_moving_config(rot_az=45.0, rx_speed=0.5).build_scene(SEED), times)
    assert calls == times.tolist()


@pytest.fixture
def tx_half_builds(monkeypatch):
    """Records (block weakref, scene, time, i, j, kind) for every build
    of a bounce leg's LED-side half."""
    builder = vlcsim.channel._tx_half
    calls = []

    def counting(block, t, i, j, idx, kind):
        calls.append((weakref.ref(block), block.scene, t, i, j, kind))
        return builder(block, t, i, j, idx, kind)

    monkeypatch.setattr(vlcsim.channel, "_tx_half", counting)
    return calls


def _bounce_keys(scene, elements):
    """The (i, j, kind) of every bounce leg of ``elements`` with a visible cluster."""
    keys = []
    for i, j in elements:
        vis = scene.visibility[i - 1, j - 1]
        for kind, db in ((TapKind.SB, False), (TapKind.DB, True)):
            if (vis & (scene.is_db == db)).any():
                keys.append((i, j, kind))
    return keys


@pytest.mark.parametrize("motion", [{}, {"rot_az": 45.0}, {"rx_speed": 0.5},
                                    {"rx_speed": 0.5, "rot_az": 45.0}])
def test_static_clusters_build_each_tx_half_once_per_call(tx_half_builds, motion):
    # only the receiver moves: every instant of one call reuses the
    # LED-side halves, and the next call builds its own
    scenes = [_moving_config(**motion).build_scene(s) for s in (SEED, SEED + 1)]
    elements = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(_bounce_keys(scene, [(1, 2)]) for scene in scenes)
    times = [0.0, 0.2, 0.4, 0.2]
    for _ in range(2):
        channel_over_time(scenes[0], times)
        built = sorted((i, j, kind) for *_, i, j, kind in tx_half_builds)
        assert built == sorted(_bounce_keys(scenes[0], elements))
        tx_half_builds.clear()
    for estimate, links in (
        (lambda: acf(scenes, (1, 2, 1), 0.3, 1e8, [0.0, 0.1, 0.2, 0.1]), [(1, 2)]),
        (lambda: ccf(scenes, (1, 1, 1), (2, 2, 1), 0.3, 1e8), [(1, 1), (2, 2)]),
    ):
        for _ in range(2):
            estimate()
            for scene in scenes:
                built = sorted((i, j, kind) for _, s, _, i, j, kind in tx_half_builds
                               if s is scene)
                assert built == sorted(_bounce_keys(scene, links))
            tx_half_builds.clear()


def test_drifting_clusters_build_tx_halves_every_instant(tx_half_builds):
    scenes = [_moving_config(rx_speed=0.5, cluster_speed=0.5).build_scene(s)
              for s in (SEED, SEED + 1)]
    times = [0.0, 0.2, 0.4, 0.2]
    channel_over_time(scenes[0], times)
    keys = _bounce_keys(scenes[0], [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert keys and all(_bounce_keys(scene, [(1, 2)]) for scene in scenes)
    built = sorted((t, i, j, kind) for _, _, t, i, j, kind in tx_half_builds)
    assert built == sorted((t, *key) for t in times for key in keys)
    tx_half_builds.clear()
    acf(scenes, (1, 2, 1), 0.3, 1e8, [0.0, 0.1, 0.2])
    for scene in scenes:
        built = sorted((t, i, j, kind) for _, s, t, i, j, kind in tx_half_builds
                       if s is scene)
        instants = [0.3, 0.3 + 0.1, 0.3 + 0.2]
        assert built == sorted((t, *key) for t in instants
                               for key in _bounce_keys(scene, [(1, 2)]))


def test_stfcf_leaves_no_tx_halves_behind(tx_half_builds):
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    before = [dict(vars(scene)) for scene in scenes]
    acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, 0.1, 0.2])
    for scene, kept in zip(scenes, before):
        assert vars(scene).keys() == kept.keys()
        assert all(vars(scene)[k] is v for k, v in kept.items())
        pickle.loads(pickle.dumps(scene))
    gc.collect()
    assert tx_half_builds and all(ref() is None for ref, *_ in tx_half_builds)


def test_one_stfcf_many_call_builds_each_tx_half_once_per_scene(tx_half_builds):
    # acf-time's three anchors in one call: the receiver moves past static
    # clusters, so every instant of a scene reuses its LED-side halves
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    assert all(_bounce_keys(scene, [(1, 1)]) for scene in scenes)
    stfcf_many(scenes, [((1, 1, 1), (1, 1, 1), anchor, 1e8, [0.0, 0.1, 0.2], 0.0)
                        for anchor in (0.0, 1.0, 2.0)])
    for scene in scenes:
        built = sorted((i, j, kind) for _, s, _, i, j, kind in tx_half_builds if s is scene)
        assert built == sorted(_bounce_keys(scene, [(1, 1)]))


def test_stfcf_many_leaves_nothing_behind(tx_half_builds):
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    before = [dict(vars(scene)) for scene in scenes]
    stfcf_many(scenes, [((1, 1, 1), (1, 1, 1), 0.0, 1e8, [0.0, 0.1], 0.0),
                        ((1, 1, 1), (1, 1, 1), 1.0, 1e8, [0.0, 0.1], 0.0),
                        ((1, 1, 1), (2, 2, 1), 0.0, 1e8, 0.0, 0.0)])
    for scene, kept in zip(scenes, before):
        assert vars(scene).keys() == kept.keys()
        assert all(vars(scene)[k] is v for k, v in kept.items())
        pickle.loads(pickle.dumps(scene))
    gc.collect()
    assert tx_half_builds and all(ref() is None for ref, *_ in tx_half_builds)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_rejected(t):
    # a static scene used to give a tapless CIR with dc_gain 0.0
    scene = default_config().build_scene(SEED)
    named = f"time.*{t}"
    with pytest.raises(ValueError, match=named):
        cir_snapshot(1, 1, 1, scene, t)
    with pytest.raises(ValueError, match=named):
        transfer(scene, (1, 1, 1), t, [0.0, 1e6])
    with pytest.raises(ValueError, match=named):
        channel_over_time(scene, [0.0, t])


def test_channel_over_time_rejects_two_dimensional_times():
    scene = default_config().build_scene(SEED)
    with pytest.raises(ValueError, match=re.escape("(2, 2)")):
        channel_over_time(scene, [[0.0, 0.5], [1.0, 1.5]])


def test_channel_over_time_hands_out_each_cir_once(monkeypatch):
    # every CIR of channel_over_time, stfcf_many and rms-adr leaves through
    # the module-global cir_snapshot, once per planned (instant, element,
    # detector) of a scene: what a call-counting tracer relies on
    original = vlcsim.channel.cir_snapshot
    handed = []

    def counting(*args, **kwargs):
        cir = original(*args, **kwargs)
        handed.append((args[3], cir))
        return cir

    def keys(scene):
        return [(c.time, (*c.element, c.pd)) for s, c in handed if s is scene]

    monkeypatch.setattr(vlcsim.channel, "cir_snapshot", counting)
    scene = _moving_config(rot_az=45.0).build_scene(SEED)
    times = [0.0, 0.25, 0.5]
    mats = channel_over_time(scene, times)
    assert len(keys(scene)) == len(set(keys(scene))) == len(times) * 2 * 2 * 3
    assert [id(c) for m in mats for c in m.cirs.values()] == [id(c) for _, c in handed]

    handed.clear()
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    lags = [0.0, 0.1, 0.3]
    stfcf_many(scenes, [((1, 1, 1), (1, 2, 3), 0.2, 1e8, lags, 0.0),
                        ((1, 2, 3), (1, 2, 3), 0.2, 1e8, lags, 0.0),
                        ((2, 2, 2), (1, 1, 1), 0.3, 1e8, 0.0, 0.0)])
    planned = ({(0.2, (1, 1, 1)), (0.3, (2, 2, 2)), (0.3, (1, 1, 1))}
               | {(0.2 + lag, (1, 2, 3)) for lag in lags})
    assert len(handed) == len(scenes) * len(planned)
    for scene in scenes:
        assert sorted(keys(scene)) == sorted(planned)

    handed.clear()
    run_experiment("rms-adr", ensemble=2)
    scenes = list({id(s): s for s, _ in handed}.values())
    assert len(scenes) == 2
    for scene in scenes:
        assert keys(scene) == [(0.0, (1, 1, p)) for p in (1, 2, 3)]


BATCH_CASES = {
    "element-facing-away": {"array": {"row_azimuth_deg": 270.0}},
    "elements-without-clusters": {"evolution": {"birth_rate_per_m": 4.0}},
    "one-scatterer-clusters": {
        "evolution": {"birth_rate_per_m": 4.0},
        "clusters": {"scatterers_per_cluster": 1},
    },
    "three-detectors": {"receiver": {"n_pd": 3, "fov_deg": 60.0}},
    "pointwise-concentrator": {"receiver": {"concentrator_mode": "pointwise"}},
    "full-array": {},
}


def _per_leg_fields(scene, i, j, p, t):
    """The CIR fields of sub-channel (i, j, p), finished one leg at a time.

    The direct path is computed here from scratch, one scalar at a time.
    A bounce leg's incidence cosines come from one ``u @ n`` product over
    all of its candidate rays, built here from the scatterer positions.
    """
    block = vlcsim.channel._Block(scene, (t,))
    rx = scene.receiver.position_at(t)
    n_pd = scene.receiver.pd_normals(t)[p - 1]
    optics_cfg = scene.receiver.optics
    vec = rx - scene.array.element_position(i, j)
    d = float(np.linalg.norm(vec))
    head = vlcsim.channel._element_intensity(scene, i, j, rx[None, :])[0] * scene.receiver.area
    cos_pd = -((vec / d)[None, :] @ n_pd)
    gain, in_fov = vlcsim.channel._pd_incidence(optics_cfg, cos_pd)
    power = head * np.maximum(cos_pd, 0.0) / np.array([d**2]) * gain
    ok = in_fov & (power > 0.0) & (head > 0.0)
    los = np.full(int(ok.sum()), -1)
    parts = [(power[ok], np.full(los.size, d / SPEED_OF_LIGHT),
              np.full(los.size, int(TapKind.LOS), dtype=np.int8), los, los)]
    vis = np.flatnonzero(scene.visibility[i - 1, j - 1])
    db = scene.is_db[vis]
    m = scene.distribution.scatterers_per_cluster
    for kind, idx in ((TapKind.SB, vis[~db]), (TapKind.DB, vis[db])):
        leg = vlcsim.channel._bounce_leg(block, t, i, j, idx, kind, rx[None, :])
        if kind == TapKind.SB:
            exits = scene.tx.take(idx, t)[0]
        else:
            exits = scene.rx.take(scene.partner[idx], t)[0]
            exits = exits[:, np.arange(m) % exits.shape[1]]
        exits = exits.reshape(-1, 3)
        cand = np.searchsorted(idx, leg.ids[1]) * m + leg.ids[2]
        vec = rx - exits
        u = vec / np.linalg.norm(vec, axis=1)[:, None]
        keep = leg.keep[0]
        cos_pd = -(u @ n_pd)[cand[keep]]
        gain, in_fov = vlcsim.channel._pd_incidence(optics_cfg, cos_pd)
        power = leg.head[0, keep] * np.maximum(cos_pd, 0.0) / leg.dr2[0, keep] * gain
        if leg.mid is not None:
            power = power * leg.mid[keep]
        ok = in_fov & (power > 0.0)
        kinds = np.full(int(ok.sum()), int(kind), dtype=np.int8)
        parts.append((power[ok], leg.delay[0, keep][ok], kinds,
                      leg.ids[1, keep][ok], leg.ids[2, keep][ok]))
    fields = [np.concatenate(x) for x in zip(*parts)]
    order = np.argsort(fields[1], kind="stable")
    return [x[order] for x in fields]


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_channel_over_time_equals_lone_calls(case):
    # the finish shared by every element of an instant gives each CIR the
    # fields and dtypes of a lone call that finishes its element alone, and
    # both give the bits of finishing each leg on its own
    cfg = default_config().merged(BATCH_CASES[case]).merged(
        {"receiver": {"rot_azimuth_deg_s": 40.0, "rot_elevation_deg_s": 15.0}}
    )
    scene = cfg.build_scene(SEED)
    assert scene.visibility.shape[:2] == (4, 4)
    visible = scene.visibility & ~scene.is_db, scene.visibility & scene.is_db
    if case == "element-facing-away":
        assert _los_cir(scene, 0.0).powers.size == 0
    if case == "elements-without-clusters":
        assert (scene.visibility.sum(axis=-1) == 0).any()
    if case == "one-scatterer-clusters":   # one-row SB and DB legs
        assert all((side.sum(axis=-1) == 1).any() for side in visible)
    times = [0.0, 0.5]
    for t, matrix in zip(times, channel_over_time(scene, times)):
        for (i, j, p), cir in matrix.cirs.items():
            lone = cir_snapshot(i, j, p, scene, t)
            per_leg = _per_leg_fields(scene, i, j, p, t)
            for name, want in zip(CIR_FIELDS, per_leg):
                for got in (getattr(cir, name), getattr(lone, name)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
            assert (cir.element, cir.pd, cir.time) == (lone.element, lone.pd, lone.time)


PLAN_MOTIONS = {
    "static": {},
    "moving-receiver": {"rx_speed": 0.6},
    "drifting-clusters": {"rx_speed": 0.6, "cluster_speed": 0.4},
}


@pytest.mark.parametrize("per_instant", [False, True], ids=["every-link", "links-per-instant"])
@pytest.mark.parametrize("motion", sorted(PLAN_MOTIONS))
def test_cirs_follow_the_plan_and_equal_lone_calls(motion, per_instant):
    # an instant asked for twice, and links that differ per instant: each
    # (k, link) comes in plan order, and each CIR has the bytes of a lone call
    scene = _moving_config(rot_az=40.0, **PLAN_MOTIONS[motion]).build_scene(SEED)
    times = [0.0, 0.0, 0.1]
    every = [(i, j, p) for i in (1, 2) for j in (1, 2) for p in (1, 2, 3)]
    links = [[(1, 1, 1), (2, 2, 3)], [(1, 2, 2)], [(2, 2, 3), (1, 1, 1), (1, 1, 2)]]
    plan = links if per_instant else [every] * len(times)
    got = list(vlcsim.channel._cirs(scene, times, links if per_instant else None))
    assert [(k, link) for k, link, _ in got] == [(k, link) for k, asked in enumerate(plan)
                                                 for link in asked]
    for k, (i, j, p), cir in got:
        lone = cir_snapshot(i, j, p, scene, times[k])
        assert (cir.element, cir.pd, cir.time) == ((i, j), p, times[k])
        for name in CIR_FIELDS:
            assert _tobytes_equal(getattr(cir, name), getattr(lone, name)), name
    mats = channel_over_time(scene, times)
    assert [m.time for m in mats] == times
    for m in mats[:2]:
        assert list(m.cirs) == every


def test_lone_ray_of_a_many_ray_leg_keeps_its_product():
    # elements of row 1 face away, so there is no direct path: calls whose
    # only ray is the one of 100 candidates that passed the static gates,
    # seen by a turning three-detector head
    cfg = default_config().merged({
        "array": {"row_azimuth_deg": 270.0},
        "receiver": {"n_pd": 3, "fov_deg": 90.0, "rot_azimuth_deg_s": 37.0},
    })
    scene = cfg.build_scene(1)
    lone_rays = []
    for k in scene.visible_indices(1, 2):
        kind = TapKind.DB if scene.is_db[k] else TapKind.SB
        block = vlcsim.channel._Block(scene, (0.0,))   # its LED-side half holds this one cluster
        leg = vlcsim.channel._bounce_leg(block, 0.0, 1, 2, np.array([k]), kind, block.rx_positions)
        if leg.candidates > 1 and leg.keep.sum() == 1:
            lone_rays.append(k)
    assert lone_rays
    mask = np.zeros_like(scene.visibility)
    mask[0, 1, lone_rays[0]] = True
    scene = dataclasses.replace(scene, visibility=mask)
    taps = 0
    for t in np.linspace(0.0, 9.0, 10):
        for p in (1, 2, 3):
            cir = cir_snapshot(1, 2, p, scene, t)
            assert cir.powers.size <= 1 and int(TapKind.LOS) not in cir.kinds
            taps += cir.powers.size
            per_leg = _per_leg_fields(scene, 1, 2, p, t)
            for name, want in zip(CIR_FIELDS, per_leg):
                assert np.array_equal(getattr(cir, name), want)
    assert taps >= 10


@pytest.mark.parametrize("link", [(0, 1, 1), (5, 1, 1), (1, 0, 1), (1, 5, 1), (1, 1, 0),
                                  (1, 1, 2), (5, 5, 1), (1.5, 1, 1), (1, 1, 1.0),
                                  (True, 1, 1), (1, np.True_, 1)])
def test_out_of_range_indices_are_rejected(link):
    # (0, 1, 1) used to give taps under row 4's mask, p = 0 the taps of
    # detector 1, and j = 5 or ccf(..., (5, 5, 1), ...) a bare IndexError;
    # i = 1.5 an IndexError, p = 1.0 a TypeError, and True was taken as 1
    cfg = default_config()
    scene, twin = cfg.build_scene(SEED), cfg.build_scene(SEED + 1)
    if all(type(x) is int for x in link):
        named = re.escape(f"sub-channel {link} is out of range: i runs 1..4, j 1..4 and p 1..1")
    else:
        named = re.escape(f"sub-channel {link} needs integer indices")
    with pytest.raises(ValueError, match=named):
        cir_snapshot(*link, scene, 0.0)
    with pytest.raises(ValueError, match=named):
        transfer(scene, link, 0.0, [0.0, 1e6])
    with pytest.raises(ValueError, match=named):
        ccf([scene, twin], (1, 1, 1), link, 0.0, 1e8)
    with pytest.raises(ValueError, match=named):
        acf([scene, twin], link, 0.0, 1e8, [0.0, 0.1])
    with pytest.raises(ValueError, match=named):
        stfcf_many([scene, twin], [((1, 1, 1), (1, 1, 1), 0.0, 1e8, 0.0, 0.0),
                                   ((1, 1, 1), link, 0.0, 1e8, 0.1, 0.0)])


def _tobytes_equal(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


BLOCK_CASES = {
    "moving-rotating-receiver": {"receiver": {
        "n_pd": 3, "fov_deg": 60.0, "rot_azimuth_deg_s": 40.0, "rot_elevation_deg_s": 15.0}},
    "one-scatterer-clusters": {
        "evolution": {"birth_rate_per_m": 4.0},
        "clusters": {"scatterers_per_cluster": 1},
    },
    "element-facing-away": {"array": {"row_azimuth_deg": 270.0},
                            "receiver": {"travel_elevation_deg": 90.0}},
    "tabulated-pattern": {"array": {"pattern": {"type": "batwing"}}},
}


@settings(max_examples=16, deadline=None)
@given(
    case=st.sampled_from(sorted(BLOCK_CASES)),
    start=st.integers(0, 2**31),
    t=st.sampled_from([0.0, 0.35]),
    n_lags=st.integers(1, 2 * vlcsim.channel._STACK_BLOCK + 3),
)
def test_stacked_blocks_equal_lone_fresh_calls(case, start, t, n_lags):
    # a receiver moving past static clusters: every CIR of a stacked pass,
    # from stfcf_many (an acf, and a ccf whose links differ per instant)
    # or from channel_over_time, has the bytes of a lone fresh call
    cfg = _moving_config(rx_speed=0.6).merged(BLOCK_CASES[case])
    scenes = [cfg.build_scene(s) for s in (start, start + 1)]
    if case == "one-scatterer-clusters":   # one-candidate SB or DB legs
        assert any(((s.visibility & (s.is_db == db)).sum(axis=-1) == 1).any()
                   for s in scenes for db in (False, True))
    if case == "element-facing-away":
        assert all(int(TapKind.LOS) not in cir_snapshot(1, 1, 1, s, t).kinds for s in scenes)
    original = vlcsim.channel.cir_snapshot
    handed = []

    def recording(*args, **kwargs):
        cir = original(*args, **kwargs)
        handed.append((args[3], cir))
        return cir

    p = scenes[0].receiver.n_pd
    lags = [0.03 * k for k in range(n_lags)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vlcsim.channel, "cir_snapshot", recording)
        stfcf_many(scenes, [((1, 2, p), (1, 2, p), t, 1e8, lags, 0.0),
                            ((1, 1, 1), (2, 2, p), t, 1e8, lags[1:] or 0.2, 0.0)])
    # each planned (link, instant) pair of each scene, recorded once
    planned = ([((1, 2, p), t + lag) for lag in lags] + [((1, 1, 1), t)]
               + [((2, 2, p), t + lag) for lag in lags[1:] or [0.2]])
    for scene in scenes:
        got = [((*c.element, c.pd), c.time) for s, c in handed if s is scene]
        assert sorted(got) == sorted(planned)
    times = [t + lag for lag in lags]
    for scene in scenes:
        for matrix in channel_over_time(scene, times):
            handed += [(scene, cir) for cir in matrix.cirs.values()]
    assert len(handed) > len(times)
    for scene, cir in handed:
        fresh = original(*cir.element, cir.pd, scene, cir.time)
        for name in CIR_FIELDS:
            assert _tobytes_equal(getattr(cir, name), getattr(fresh, name)), name


def test_a_link_wanted_only_at_its_anchor_gets_no_rx_half_at_the_lags(monkeypatch):
    # the plan stacks only the (link, instant) pairs stfcf_many asks for:
    # the anchor link's legs are built at the anchor alone, the other
    # link's at each lag instant, in blocks of at most _STACK_BLOCK
    builder = vlcsim.channel._bounce_leg
    stacks = []

    def counting(block, t, i, j, idx, kind, rx):
        stacks.append((block.scene, (i, j), kind, len(rx)))
        return builder(block, t, i, j, idx, kind, rx)

    monkeypatch.setattr(vlcsim.channel, "_bounce_leg", counting)
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    lags = [0.05 * k for k in range(1, 12)]
    stfcf_many(scenes, [((1, 1, 1), (2, 2, 1), 0.3, 1e8, lags, 0.0)])
    block = vlcsim.channel._STACK_BLOCK
    for scene in scenes:
        built = _bounce_keys(scene, [(1, 1), (2, 2)])
        assert {(i, j) for i, j, _ in built} == {(1, 1), (2, 2)}
        for kind in (TapKind.SB, TapKind.DB):
            anchor = [k for s, e, kd, k in stacks if s is scene and e == (1, 1) and kd == kind]
            lagged = [k for s, e, kd, k in stacks if s is scene and e == (2, 2) and kd == kind]
            # a leg without a visible cluster is never built
            assert anchor == ([1] if (1, 1, kind) in built else [])
            # the anchor and the first block - 1 lags share the first block
            assert lagged == ([block - 1, len(lags) - (block - 1)] if (2, 2, kind) in built
                              else [])


def test_stacked_blocks_build_each_tx_half_once_per_scene(tx_half_builds):
    # acf-time's plan, 3 anchors of 21 lags, spans several blocks; each
    # LED-side half is still built once per scene
    scenes = [_moving_config(rx_speed=0.5).build_scene(s) for s in (SEED, SEED + 1)]
    lags = np.round(np.arange(0.0, 0.2000001, 0.01), 10)
    stfcf_many(scenes, [((1, 2, 1), (1, 2, 1), anchor, 1e8, lags, 0.0)
                        for anchor in (0.0, 1.0, 2.0)])
    for scene in scenes:
        built = sorted((i, j, kind) for _, s, _, i, j, kind in tx_half_builds if s is scene)
        assert built == sorted(_bounce_keys(scene, [(1, 2)]))


def test_lone_live_ray_of_a_many_candidate_leg_keeps_its_product():
    # two scatterers per cluster: a leg through one cluster whose LED-side
    # gates leave one ray of two. The Tx half drops the dead ray, but the
    # live one still gets the gemv of a two-candidate leg, not the dot
    # product of a one-candidate leg, in stacked blocks as in lone calls
    cfg = default_config().merged({
        "array": {"rows": 1, "cols": 1},
        "clusters": {"scatterers_per_cluster": 2},
        "receiver": {"n_pd": 3, "fov_deg": 90.0, "rot_azimuth_deg_s": 37.0,
                     "rot_elevation_deg_s": 11.0, "speed_m_s": 0.3},
    })
    scene = cfg.build_scene(3)
    lone = {}
    for k in scene.visible_indices(1, 1):
        kind = TapKind.DB if scene.is_db[k] else TapKind.SB
        half = vlcsim.channel._tx_half(vlcsim.channel._Block(scene, (0.0,)), 0.0, 1, 1,
                                       np.array([k]), kind)
        if half.candidates == 2 and half.ids.shape[1] == 1:
            lone.setdefault(kind, k)
    assert TapKind.SB in lone
    mask = np.zeros_like(scene.visibility)
    mask[0, 0, list(lone.values())] = True
    scene = dataclasses.replace(scene, visibility=mask)
    times = np.linspace(0.0, 6.0, 3 * vlcsim.channel._STACK_BLOCK).tolist()
    links = [[(1, 1, p) for p in (1, 2, 3)]] * len(times)
    taps = 0
    cirs = list(vlcsim.channel._cirs(scene, times, links))
    assert [(k, link) for k, link, _ in cirs] == [(k, link) for k in range(len(times))
                                                  for link in links[k]]
    for k, (_, _, p), cir in cirs:
        taps += int((cir.kinds != int(TapKind.LOS)).sum())
        for name, want in zip(CIR_FIELDS, _per_leg_fields(scene, 1, 1, p, times[k])):
            assert _tobytes_equal(getattr(cir, name), want), name
    assert taps >= len(times)


@pytest.mark.parametrize("pattern", ["lambertian", "batwing"])
def test_stacked_direct_path_keeps_the_bits_of_one_position_at_a_time(pattern):
    # the length is a 1-D norm's dot product, the pattern sees a (1, 3)
    # point, and the squared length is Python's d ** 2 (libm's pow), which
    # differs from d * d in about one last bit in a thousand
    scene = default_config().merged({"array": {"pattern": {"type": pattern}}}).build_scene(SEED)
    rx = np.random.default_rng(7).uniform([0.5, -2.0, -2.0], [4.0, 2.0, 2.0], (3000, 3))
    leg = vlcsim.channel._los_leg(scene, 2, 3, rx)
    led = scene.array.element_position(2, 3)
    for k, point in enumerate(rx):
        vec = point - led
        d = float(np.linalg.norm(vec))
        head = vlcsim.channel._element_intensity(scene, 2, 3, point[None, :])[0]
        want = (vec / d, np.array([d**2]), head * scene.receiver.area, d / SPEED_OF_LIGHT)
        got = (leg.u[:, k, 0], leg.dr2[k], leg.head[k, 0], leg.delay[k, 0])
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert leg.keep.any()
