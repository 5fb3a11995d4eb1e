import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import oracles
import vlcsim.stats
from vlcsim import (
    ChannelMatrix,
    Cir,
    ClusterDistribution,
    ClusterSet,
    ConfigMismatchError,
    DegenerateFitError,
    EmptyCirError,
    EvolutionParams,
    LedArray,
    NonPositivePowerError,
    Receiver,
    TapKind,
    TooFewSamplesError,
    ZeroGainError,
    acf,
    bandwidth_3db,
    ccf,
    channel_over_time,
    cir_snapshot,
    ctf,
    dc_gain,
    default_config,
    fcf,
    fit_ci,
    path_loss,
    received_power,
    rms_delay_spread,
    shadowing_stats,
    stfcf,
    stfcf_many,
    transfer,
)
from vlcsim.scene import Scene
from vlcsim.stats import _complex_sem, _normalized_influence

SEED = 20220101
SMALL = {
    "array": {"rows": 2, "cols": 2},
    "evolution": {"birth_rate_per_m": 8.0},
    "clusters": {"scatterers_per_cluster": 4, "sb_ratio": 0.5},
}


def make_cir(powers, delays, element=(1, 1), pd=1, time=0.0):
    powers = np.asarray(powers, dtype=float)
    delays = np.asarray(delays, dtype=float)
    order = np.argsort(delays)
    return Cir(
        powers[order],
        delays[order],
        np.ones(powers.size, dtype=np.int8),
        np.zeros(powers.size, dtype=int),
        np.arange(powers.size),
        element,
        pd,
        time,
    )


def test_rms_delay_spread_matches_moment_reference():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        n = 10
        powers = rng.uniform(1e-9, 1.0, size=n)
        delays = rng.uniform(1e-9, 1e-7, size=n)
        cir = make_cir(powers, delays)
        want = oracles.moment_rms(powers, delays)
        assert rms_delay_spread(cir) == pytest.approx(want, rel=1e-12)


def test_rms_delay_spread_two_taps():
    cir = make_cir([0.5, 0.5], [10e-9, 30e-9])
    assert rms_delay_spread(cir) == pytest.approx(10e-9, rel=1e-12)
    with pytest.raises(EmptyCirError):
        rms_delay_spread(make_cir([], []))


def test_ctf_single_tap_phasor():
    p, tau = 2.5e-6, 8e-9
    cir = make_cir([p], [tau])
    freqs = np.array([0.0, 1e7, 5e7])
    h = ctf(cir, freqs)
    want = p * np.exp(-2j * math.pi * freqs * tau)
    assert np.allclose(h.values, want, rtol=1e-12)
    assert np.allclose(h.magnitude, p, rtol=1e-12)
    assert ctf(cir, [3.3e7]).values[0] == pytest.approx(
        p * np.exp(-2j * math.pi * 3.3e7 * tau), rel=1e-12
    )
    with pytest.raises(EmptyCirError):
        ctf(make_cir([], []), freqs)


def test_dc_gain_matches_power_sum():
    cir = make_cir([1e-6, 2e-6, 3e-6], [1e-9, 2e-9, 3e-9])
    assert dc_gain(cir) == pytest.approx(6e-6, rel=1e-12)
    assert ctf(cir, [0.0]).values[0] == pytest.approx(6e-6, rel=1e-12)
    with pytest.raises(EmptyCirError):
        dc_gain(make_cir([], []))


def test_bandwidth_two_tap_analytic():
    # |H|^2 of two equal taps halves where the phases open to 90 degrees
    tau = 5e-9
    cir = make_cir([1e-6, 1e-6], [0.0 + 1e-12, tau])
    freqs = np.linspace(0.0, 2e8, 4096)
    bw = bandwidth_3db(ctf(cir, freqs))
    assert bw == pytest.approx(1.0 / (4.0 * tau), rel=2e-3)
    assert bandwidth_3db(cir, freqs) == bw


def test_bandwidth_flat_response_is_none():
    cir = make_cir([1e-6], [1e-9])
    assert bandwidth_3db(ctf(cir, np.linspace(0.0, 2e8, 64))) is None
    assert bandwidth_3db(cir, np.linspace(0.0, 2e8, 64)) is None


def test_bandwidth_needs_dc_power():
    cir = make_cir([0.0], [1e-9])
    with pytest.raises(ZeroGainError):
        bandwidth_3db(ctf(cir, np.linspace(0.0, 1e8, 16)))
    with pytest.raises(ZeroGainError):
        bandwidth_3db(cir, np.linspace(0.0, 1e8, 16))


def _crossing_cir(rng):
    """Two equal leading taps (they cross near 1 / (4 tau)) plus weak echoes."""
    tau = rng.uniform(2e-9, 20e-9)
    n = int(rng.integers(0, 30))
    powers = np.concatenate([[1e-6, 1e-6], rng.uniform(0.0, 5e-8, n)])
    delays = np.concatenate([[1e-12, tau], rng.uniform(0.0, 60e-9, n)])
    return make_cir(powers, delays)


def _first_below(cir, freqs):
    mag2 = ctf(cir, freqs).magnitude ** 2
    below = np.flatnonzero(mag2 <= 0.5 * abs(ctf(cir, [0.0]).values[0]) ** 2)
    return int(below[0]) if below.size else None


# where the first grid point at or below half the DC power lies
CROSSINGS = {
    "index 0": range(0, 1),
    "first block": range(1, 128),
    "last block": range(1920, 2048),
    "none": None,
}


@pytest.mark.parametrize("case", list(CROSSINGS))
def test_bandwidth_block_scan_equals_the_full_grid(monkeypatch, case):
    rows = []
    response = vlcsim.stats._response

    def counted(powers, delays, freqs):
        rows.append(freqs.size)
        return response(powers, delays, freqs)

    rng = np.random.default_rng(list(CROSSINGS).index(case))
    fine = np.linspace(0.0, 1e9, 20001)
    for _ in range(25):
        cir = _crossing_cir(rng)
        if case == "index 0":
            # start the grid on a fine-grid point already past the crossing
            start = fine[_first_below(cir, fine)]
            freqs = np.linspace(start, start + 1e8, 2048)
        else:
            f3 = bandwidth_3db(ctf(cir, fine))
            stop = {"first block": f3 * 2047 / 60.5, "last block": f3 * 2047 / 2000.5,
                    "none": 0.9 * f3}[case]
            freqs = np.linspace(0.0, stop, 2048)
        k = _first_below(cir, freqs)
        assert k is None if CROSSINGS[case] is None else k in CROSSINGS[case]

        monkeypatch.setattr(vlcsim.stats, "_response", counted)
        rows.clear()
        got = bandwidth_3db(cir, freqs)
        monkeypatch.setattr(vlcsim.stats, "_response", response)
        want = bandwidth_3db(ctf(cir, freqs))
        assert got == want
        assert (got is None) == (case == "none")
        # H(f) is evaluated in blocks of 128 rows and never past the crossing
        blocks = [r for r in rows if r > 1]
        assert max(blocks) <= 128
        assert sum(blocks) == (2048 if k is None else min(2048, (k // 128 + 1) * 128))


def test_bandwidth_from_a_cir_needs_a_grid_and_taps():
    cir = make_cir([1e-6], [1e-9])
    with pytest.raises(TypeError):
        bandwidth_3db(cir)
    with pytest.raises(TypeError):
        bandwidth_3db(ctf(cir, [0.0, 1e8]), [0.0, 1e8])
    with pytest.raises(EmptyCirError):
        bandwidth_3db(make_cir([], []), [0.0, 1e8])


def _lonely_scene():
    """A scene with no clusters whose receiver faces away: no taps at all."""
    no_clusters = ClusterSet(
        np.zeros((0, 1, 3)), np.zeros((0, 3)), np.zeros(0), 1.0, np.zeros(3)
    )
    return Scene(
        array=LedArray(),
        receiver=Receiver(azimuth=0.0),
        evolution=EvolutionParams(),
        distribution=ClusterDistribution(),
        tx=no_clusters,
        rx=no_clusters,
        visibility=np.zeros((4, 4, 0), dtype=bool),
        is_db=np.zeros(0, dtype=bool),
        partner=np.zeros(0, dtype=int),
        seed=0,
    )


def test_transfer_consistency_and_empty():
    cfg = default_config().merged(SMALL)
    scene = cfg.build_scene(SEED)
    freqs = np.array([0.0, 2e7, 9e7])
    full = transfer(scene, (1, 1, 1), 0.0, freqs)
    nlos = ctf(cir_snapshot(1, 1, 1, scene, 0.0).nlos_only(), freqs).values
    hidden = dataclasses.replace(scene, visibility=np.zeros_like(scene.visibility))
    tap = cir_snapshot(1, 1, 1, hidden, 0.0)
    assert tap.powers.size == 1
    los = tap.powers[0] * np.exp(-2j * math.pi * freqs * tap.delays[0])
    assert np.allclose(full - nlos, los, rtol=1e-12, atol=1e-20)

    # all rays pruned -> exact zeros
    assert np.array_equal(transfer(_lonely_scene(), (1, 1, 1), 0.0, freqs), np.zeros(3))


def test_stfcf_of_tapless_scenes_is_zero():
    lonely = [_lonely_scene(), _lonely_scene()]
    series = stfcf(lonely, (1, 1, 1), (1, 2, 1), 0.0, 1e6, [0.0, 0.1], [0.0, 2e6])
    assert np.array_equal(series.products, np.zeros((2, 2)))
    assert series.zero_lag == 0.0


def test_received_power_matches_manual_sum():
    cfg = default_config().merged(SMALL)
    scene = cfg.build_scene(9)
    matrix = channel_over_time(scene, [0.0])[0]
    per_element, totals = received_power(matrix, 0.25)
    assert per_element.shape == (2, 2, 1)
    manual = 0.0
    for (i, j, p), cir in matrix.cirs.items():
        assert per_element[i - 1, j - 1, p - 1] == pytest.approx(
            0.25 * cir.dc_gain, rel=1e-12
        )
        manual += 0.25 * cir.dc_gain
    assert totals[0] == pytest.approx(manual, rel=1e-12)

    weights = np.array([[1.0, 0.0], [0.0, 0.0]])
    only_first, totals_first = received_power(matrix, weights)
    assert totals_first[0] == pytest.approx(
        matrix.cirs[(1, 1, 1)].dc_gain, rel=1e-12
    )
    assert only_first[1, 1, 0] == 0.0


def test_received_power_names_what_it_cannot_read():
    with pytest.raises(ValueError, match="empty"):
        received_power(ChannelMatrix(0.0, {}), 1.0)
    scene = default_config().merged(SMALL).build_scene(9)
    lone = ChannelMatrix(0.0, {(1, 1, 1): cir_snapshot(1, 1, 1, scene, 0.0)})
    with pytest.raises(ValueError, match=r"shape \(4, 4\).*\(1, 1\) element grid"):
        received_power(lone, np.ones((4, 4)))


def test_path_loss_frozen():
    assert path_loss(2.0, 1.0) == pytest.approx(10.0 * math.log10(2.0), rel=1e-12)
    assert path_loss(1.0, 1.0) == 0.0
    with pytest.raises(NonPositivePowerError):
        path_loss(0.0, 1.0)
    with pytest.raises(NonPositivePowerError):
        path_loss(1.0, -2.0)


def test_fit_ci_recovers_exact_power_law():
    d = np.logspace(0.0, 0.8, 30)
    pl = 40.0 + 10.0 * 2.0 * np.log10(d)
    fit = fit_ci(d, pl, d0=1.0)
    assert fit.exponent == pytest.approx(2.0, abs=1e-9)
    assert fit.pl_d0 == pytest.approx(40.0, abs=1e-9)
    assert np.all(np.abs(fit.residuals) < 1e-9)
    assert np.allclose(fit.predict(d), pl, atol=1e-9)


def test_fit_ci_reference_distance_shift():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    pl = 37.0 + 10.0 * 1.7 * np.log10(d)
    fit = fit_ci(d, pl, d0=2.0)
    assert fit.exponent == pytest.approx(1.7, abs=1e-9)
    assert fit.pl_d0 == pytest.approx(37.0 + 17.0 * math.log10(2.0), abs=1e-9)


def test_fit_ci_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_ci([1.0], [40.0])
    with pytest.raises(DegenerateFitError):
        fit_ci([2.0, 2.0, 2.0], [40.0, 41.0, 39.0])
    with pytest.raises(ValueError):
        fit_ci([1.0, -2.0], [40.0, 41.0])


def test_shadowing_stats_gaussian_passes():
    rng = np.random.default_rng(SEED)
    r = rng.normal(0.0, 2.0, size=200)
    out = shadowing_stats(r)
    assert out.passes_normality
    assert out.ks_distance < out.ks_critical
    assert out.mean == pytest.approx(float(r.mean()), rel=1e-12)
    assert out.std == pytest.approx(float(r.std(ddof=1)), rel=1e-12)
    assert out.ks_critical == pytest.approx(1.358 / math.sqrt(200.0), rel=1e-12)


def test_shadowing_stats_skewed_fails():
    rng = np.random.default_rng(SEED + 1)
    r = rng.exponential(2.0, size=200)
    assert not shadowing_stats(r).passes_normality


def test_shadowing_stats_guards():
    with pytest.raises(TooFewSamplesError):
        shadowing_stats(np.zeros(29))
    # no spread: the fitted Gaussian has no CDF to test against
    for flat in (np.zeros(30), np.full(40, 0.1)):
        with pytest.raises(DegenerateFitError):
            shadowing_stats(flat)
    for bad in (np.nan, np.inf, -np.inf):
        r = np.linspace(-1.0, 1.0, 30)
        r[7] = bad
        with pytest.raises(ValueError, match="finite"):
            shadowing_stats(r)


def test_shadowing_stats_matches_kstest_bit_for_bit():
    rng = np.random.default_rng(SEED + 4)
    for k in range(200):
        n = int(rng.integers(30, 400))
        r = [rng.normal(0.0, 2.0, n), rng.exponential(2.0, n),
             np.round(rng.normal(0.0, 1.0, n), 1),     # many tied values
             40.0 + 1e-3 * rng.uniform(-1.0, 1.0, n)][k % 4]
        out = shadowing_stats(r)
        assert out.ks_distance == kstest(r, "norm", args=(out.mean, out.std)).statistic


def test_complex_sem_real_samples():
    rng = np.random.default_rng(SEED + 2)
    x = rng.normal(size=(64, 3))
    got = _complex_sem(x.astype(complex))
    want = x.std(axis=0, ddof=1) / math.sqrt(64)
    assert np.allclose(got, want, rtol=1e-12)


def test_normalized_influence_is_centered():
    rng = np.random.default_rng(SEED + 3)
    products = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    zero = rng.uniform(0.5, 2.0, size=40) + 0j
    infl = _normalized_influence(products, zero)
    assert np.allclose(infl.mean(axis=0), 0.0, atol=1e-14)


def _ensemble(n, overrides=None, start=100):
    cfg = default_config().merged(SMALL)
    if overrides:
        cfg = cfg.merged(overrides)
    return cfg, [cfg.build_scene(s) for s in range(start, start + n)]


def test_stfcf_zero_lag_is_exactly_one():
    _, scenes = _ensemble(4)
    series = acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0])
    assert series.normalized[0] == pytest.approx(1.0, rel=1e-14)
    assert series.normalized_standard_error[0] == pytest.approx(0.0, abs=1e-16)
    assert series.n_runs == 4


def test_stfcf_static_scene_never_decorrelates():
    # nothing moves, so the temporal correlation stays pinned at one
    _, scenes = _ensemble(4)
    series = acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, 0.05, 0.1])
    assert np.allclose(np.abs(series.normalized), 1.0, rtol=1e-12)


def test_ccf_is_the_mean_cross_product_of_both_links():
    _, scenes = _ensemble(3)
    series = ccf(scenes, (1, 1, 1), (2, 2, 1), 0.0, 0.0)
    assert series.link == (1, 1, 1) and series.other_link == (2, 2, 1)
    # recomputed run by run through the transfer helper
    prods = [
        transfer(s, (1, 1, 1), 0.0, [0.0])[0]
        * np.conj(transfer(s, (2, 2, 1), 0.0, [0.0])[0])
        for s in scenes
    ]
    assert series.values[0] == pytest.approx(np.mean(prods), rel=1e-12)


def test_fcf_lag_axis_broadcast():
    _, scenes = _ensemble(3)
    lags = np.array([0.0, 1e7, 2e7])
    series = fcf(scenes, (1, 1, 1), 0.0, 0.0, lags)
    assert np.array_equal(series.df, lags)
    assert np.array_equal(series.dt, np.zeros(3))
    assert series.values.shape == (3,)
    assert series.products.shape == (3, 3)

    both = stfcf(scenes, (1, 1, 1), (1, 1, 1), 0.0, 0.0, [0.0, 0.1], 0.0)
    assert np.array_equal(both.dt, [0.0, 0.1])


def test_stfcf_rejects_mixed_ensembles():
    _, scenes_a = _ensemble(2)
    _, scenes_b = _ensemble(2, overrides={"receiver": {"distance_m": 3.0}})
    with pytest.raises(ConfigMismatchError):
        acf(scenes_a + scenes_b, (1, 1, 1), 0.0, 0.0, [0.0])
    with pytest.raises(ValueError):
        acf(scenes_a[:1], (1, 1, 1), 0.0, 0.0, [0.0])


def test_stfcf_values_are_product_means():
    _, scenes = _ensemble(4)
    series = acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, 0.02])
    assert np.allclose(series.values, series.products.mean(axis=0), rtol=1e-14)
    assert series.zero_lag == pytest.approx(
        float(series.zero_lag_products.mean().real), rel=1e-14
    )


@pytest.mark.parametrize(
    "estimate, calls_per_scene",
    [
        (lambda scenes: fcf(scenes, (1, 1, 1), 0.0, 0.0, [0.0, 1e7]), 1),
        (lambda scenes: acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, 0.05]), 2),
        (lambda scenes: ccf(scenes, (1, 1, 1), (2, 2, 1), 0.0, 0.0), 2),
    ],
    ids=["fcf", "acf", "ccf"],
)
def test_stfcf_evaluates_each_distinct_cir_once(monkeypatch, estimate, calls_per_scene):
    # the anchor CIR doubles as the zero-lag CIR of the same link
    import vlcsim.stats

    _, scenes = _ensemble(3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return cir_snapshot(*args, **kwargs)

    monkeypatch.setattr(vlcsim.channel, "cir_snapshot", counted)
    estimate(scenes)
    for scene in scenes:
        assert sum(s is scene for s in calls) == calls_per_scene


SHARING_CASES = {
    "static": {},
    "moving-receiver": {"receiver": {"speed_m_s": 0.6, "travel_azimuth_deg": 90.0}},
    "drifting-clusters": {
        "receiver": {"speed_m_s": 0.3},
        "clusters": {"speed_m_s": 0.4, "travel_azimuth_deg": 30.0},
    },
    "rotating-receiver": {"receiver": {"rot_azimuth_deg_s": 45.0, "rot_elevation_deg_s": 20.0}},
    "one-scatterer-clusters": {
        "receiver": {"speed_m_s": 0.6},
        "clusters": {"scatterers_per_cluster": 1},
    },
    "element-facing-away": {
        "array": {"row_azimuth_deg": 270.0},
        "receiver": {"speed_m_s": 0.6, "travel_elevation_deg": 90.0},
    },
}


def _lone_products(scenes, link, other_link, t, f, dt_lags, df_lags):
    """stfcf's products and zero-lag products, rebuilt from one fresh
    ``cir_snapshot`` per scene, link and instant (through ``transfer``)."""
    dt, df = (np.ravel(x) for x in np.broadcast_arrays(
        np.atleast_1d(np.asarray(dt_lags, dtype=float)),
        np.atleast_1d(np.asarray(df_lags, dtype=float))))
    products = np.empty((len(scenes), dt.size), dtype=complex)
    zero = np.empty(len(scenes), dtype=complex)
    for k, scene in enumerate(scenes):
        h1 = transfer(scene, link, t, [f])[0]
        zero[k] = h1 * np.conj(h1)
        for dt_u in np.unique(dt):
            sel = dt == dt_u
            products[k, sel] = h1 * np.conj(transfer(scene, other_link, t + dt_u, f + df[sel]))
    return products, zero


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(sorted(SHARING_CASES)),
    start=st.integers(0, 2**31),
    t=st.sampled_from([0.0, 0.4, 1.5]),
    dt_lags=st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2]), min_size=1, max_size=4),
    df_lags=st.lists(st.sampled_from([0.0, 5e6, 3e7]), min_size=1, max_size=3),
)
def test_stfcf_equals_lone_fresh_calls(case, start, t, dt_lags, df_lags):
    # CIRs that share layouts or LED-side bounce halves across the
    # instants of a scene give every product the bits of lone calls
    cfg = default_config().merged({
        "array": {"rows": 2, "cols": 2},
        "evolution": {"birth_rate_per_m": 16.0},
        "clusters": {"scatterers_per_cluster": 20, "sb_ratio": 0.6},
    }).merged(SHARING_CASES[case])
    scenes = [cfg.build_scene(s) for s in (start, start + 1)]
    if case == "element-facing-away":
        assert all(int(TapKind.LOS) not in cir_snapshot(1, 2, 1, s, t).kinds for s in scenes)
    f = 1e8
    estimates = (
        (acf(scenes, (1, 2, 1), t, f, dt_lags), ((1, 2, 1), (1, 2, 1), dt_lags, 0.0)),
        (fcf(scenes, (1, 2, 1), t, f, df_lags), ((1, 2, 1), (1, 2, 1), 0.0, df_lags)),
        (ccf(scenes, (1, 2, 1), (2, 1, 1), t, f), ((1, 2, 1), (2, 1, 1), 0.0, 0.0)),
    )
    for series, (link, other, dt, df) in estimates:
        products, zero = _lone_products(scenes, link, other, t, f, dt, df)
        assert np.array_equal(series.products, products)
        assert np.array_equal(series.zero_lag_products, zero)


SERIES_FIELDS = ("dt", "df", "values", "standard_error", "products", "zero_lag",
                 "zero_lag_products", "link", "other_link", "t", "f", "n_runs")


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(["static", "moving-receiver", "drifting-clusters"]),
    start=st.integers(0, 2**31),
    t=st.sampled_from([0.0, 0.4]),
)
def test_stfcf_many_equals_separate_stfcf_calls(case, start, t):
    # the requests share links, anchors and instants (t + 0.1 is a lag of
    # the first and the anchor of the fourth), and each series keeps the
    # shape and the bits of its own call
    cfg = default_config().merged({
        "array": {"rows": 2, "cols": 2},
        "evolution": {"birth_rate_per_m": 16.0},
        "clusters": {"scatterers_per_cluster": 20, "sb_ratio": 0.6},
    }).merged(SHARING_CASES[case])
    scenes = [cfg.build_scene(s) for s in (start, start + 1, start + 2)]
    requests = [
        ((1, 2, 1), (1, 2, 1), t, 1e8, [0.0, 0.05, 0.1, 0.05], 0.0),
        ((1, 2, 1), (1, 2, 1), t, 1e8, 0.0, [0.0, 5e6, 3e7]),
        ((1, 2, 1), (2, 1, 1), t, 1e8, 0.0, 0.0),
        ((2, 1, 1), (1, 2, 1), t + 0.1, 2e7, [-0.1, 0.0, 0.2], [0.0, 1e7, 0.0]),
        ((1, 1, 1), (2, 2, 1), t, 0.0, [0.0], [0.0]),
    ]
    many = stfcf_many(scenes, requests)
    assert len(many) == len(requests)
    for got, request in zip(many, requests):
        want = stfcf(scenes, *request)
        for name in SERIES_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.products.shape == want.products.shape
        assert got.zero_lag_products.shape == want.zero_lag_products.shape
    assert stfcf_many(scenes, []) == []


def test_stfcf_many_evaluates_each_distinct_cir_once_per_scene(monkeypatch):
    # the eight requests of ccf-space name four distinct (link, instant)
    # pairs per scene
    cfg = default_config().merged({
        "array": {"rows": 4, "cols": 4},
        "evolution": {"birth_rate_per_m": 8.0},
        "clusters": {"scatterers_per_cluster": 4},
    })
    scenes = [cfg.build_scene(s) for s in (100, 101, 102)]
    calls = []

    def counted(*args, **kwargs):
        calls.append((args[:3], args[3], args[4]))
        return cir_snapshot(*args, **kwargs)

    monkeypatch.setattr(vlcsim.channel, "cir_snapshot", counted)
    requests = [((ri, rj, 1), (k, k, 1), 0.0, 0.0, 0.0, 0.0)
                for ri, rj in ((1, 1), (4, 4)) for k in range(1, 5)]
    stfcf_many(scenes, requests)
    for scene in scenes:
        mine = [(link, t) for link, s, t in calls if s is scene]
        assert sorted(mine) == [((k, k, 1), 0.0) for k in range(1, 5)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stfcf_rejects_non_finite_frequencies(bad):
    # a NaN df lag used to give a silent NaN series
    _, scenes = _ensemble(2)
    with pytest.raises(ValueError, match=f"df lag {bad} is not finite"):
        fcf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, bad])
    with pytest.raises(ValueError, match=f"frequency f = {bad} is not finite"):
        acf(scenes, (1, 1, 1), 0.0, bad, [0.0, 0.1])
    with pytest.raises(ValueError, match="df lag"):
        stfcf_many(scenes, [((1, 1, 1), (1, 1, 1), 0.0, 1e8, 0.0, 0.0),
                            ((1, 1, 1), (2, 2, 1), 0.0, 1e8, 0.0, [bad])])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stfcf_rejects_non_finite_times_before_any_cir(bad, monkeypatch):
    # a bad instant of a receiver moving past static clusters would join
    # a stacked block with finite ones and put inf or NaN into their
    # receiver positions before cir_snapshot refused it
    cfg = default_config().merged({"receiver": {"speed_m_s": 0.6}})
    scenes = [cfg.build_scene(s) for s in (3, 4)]
    calls = []
    monkeypatch.setattr(vlcsim.channel, "cir_snapshot", lambda *a, **k: calls.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"dt lag {bad} is not finite"):
            acf(scenes, (1, 1, 1), 0.0, 1e8, [0.0, bad])
        with pytest.raises(ValueError, match=f"time t = {bad} is not finite"):
            ccf(scenes, (1, 1, 1), (2, 2, 1), bad, 1e8)
        with pytest.raises(ValueError, match="dt lag"):
            stfcf_many(scenes, [((1, 1, 1), (1, 1, 1), 0.0, 1e8, [0.0, 0.1], 0.0),
                                ((1, 1, 1), (2, 2, 1), 0.0, 1e8, [bad], 0.0)])
    assert calls == []


@pytest.mark.parametrize("link", [(1, 1), (1, 1, 1, 1), 7, (1, 1.0, 1), (1, True, 1)])
def test_stfcf_rejects_links_that_are_not_three_integers_before_any_cir(link, monkeypatch):
    # a two-element link used to fail with "not enough values to unpack"
    # once the first scene was evaluated, and True was taken as 1
    _, scenes = _ensemble(2)
    calls = []
    monkeypatch.setattr(vlcsim.channel, "cir_snapshot", lambda *a, **k: calls.append(a))
    named = "is not three integers" if len(np.atleast_1d(link)) != 3 else "needs integer indices"
    with pytest.raises(ValueError, match=named):
        stfcf_many(scenes, [((1, 1, 1), (1, 1, 1), 0.0, 1e8, 0.0, 0.0),
                            ((1, 1, 1), link, 0.0, 1e8, 0.1, 0.0)])
    with pytest.raises(ValueError, match=named):
        stfcf(scenes, link, (1, 1, 1), 0.0, 1e8, 0.0, 0.0)
    with pytest.raises(ValueError, match=named):
        transfer(scenes[0], link, 0.0, [0.0, 1e6])
    assert calls == []


def test_stfcf_rejects_lags_that_are_not_one_dimensional():
    # 2-D lags used to be flattened silently, while channel_over_time
    # refuses 2-D times
    _, scenes = _ensemble(2)
    with pytest.raises(ValueError, match=r"dt_lags.*\(1, 2\)"):
        acf(scenes, (1, 1, 1), 0.0, 1e8, [[0.0, 0.1]])
    with pytest.raises(ValueError, match=r"df_lags.*\(2, 1\)"):
        fcf(scenes, (1, 1, 1), 0.0, 1e8, [[0.0], [1e6]])
    series = stfcf(scenes, (1, 1, 1), (1, 1, 1), 0.0, 1e8, 0.0, [0.0, 1e6])
    assert series.dt.shape == series.df.shape == (2,)
