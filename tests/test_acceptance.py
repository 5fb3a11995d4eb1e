"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers so a
log scrape shows the whole scorecard. Budgeted runtimes are asserted
alongside the physics.
"""

import math
import time

import numpy as np

import oracles
from test_channel import _only_tap, _oracle_inputs, _random_setup
from vlcsim import (
    ArrayOrientation,
    EvolutionParams,
    TapKind,
    cir_snapshot,
    default_config,
    fit_ci,
    rms_delay_spread,
    run_experiment,
    transfer,
)
from vlcsim.geometry import cart_to_sph, cluster_equivalent_normal, gcs_to_lcs11
from vlcsim.scene import evolve_visibility

SEED = 20220101
DEFAULT_ORIENTATION = ArrayOrientation(math.pi / 2, 0.0, math.pi, math.pi / 2)


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _abs_normalized(products: np.ndarray, zeros: np.ndarray):
    """|E{ab*}/E{|a|^2}| plus its per-run influence values (delta method)."""
    r0 = zeros.mean().real
    r = products.mean() / r0
    infl = (products - r * zeros.real) / r0
    mag = abs(r)
    return mag, (np.conj(r) * infl).real / mag


def test_criterion_1_los_hand_check():
    scene = default_config().build_scene(SEED)
    hidden = np.zeros_like(scene.visibility)  # direct path only
    cir_snapshot(1, 1, 1, scene, 0.0, visibility=hidden)  # warm caches
    t0 = time.perf_counter()
    cir = cir_snapshot(1, 1, 1, scene, 0.0, visibility=hidden)
    elapsed = time.perf_counter() - t0
    power, delay = cir.powers[0], cir.delays[0]

    want_power = 1e-4 / (4.0 * math.pi)  # (1/pi) * A / D^2 at boresight
    want_delay = 2.0 / 2.99792458e8
    ok = (
        cir.kinds.tolist() == [int(TapKind.LOS)]
        and abs(power - want_power) <= 1e-10
        and abs(delay - want_delay) <= 1e-12
        and abs(delay - 6.6713e-9) <= 1e-12
        and elapsed < 1e-3
    )
    _report(
        1,
        ok,
        f"power={power:.10e} W (target {want_power:.10e} +/- 1e-10), "
        f"delay={delay * 1e9:.6f} ns (target 6.6713 +/- 0.001), "
        f"runtime={elapsed * 1e6:.0f} us < 1000 us",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    checked = 0
    worst = 0.0
    for _ in range(100):
        scene, p = _random_setup(rng, double=False)
        frame, led, move_c, rx, n_pd, conc = _oracle_inputs(p)
        s_a = p["s_a0"] + move_c
        h = math.hypot(p["s_a0"][1], p["s_a0"][2])
        normal = np.array([0.0, -p["s_a0"][1] / h, -p["s_a0"][2] / h])
        want = oracles.straight_line_sb(
            led, frame, p["order"], s_a, normal, p["gamma_a"], p["area_a"],
            rx, n_pd, p["area_pd"], p["fov"],
            filter_gain=p["filter"], conc_gain=conc,
        )
        got = _only_tap(cir_snapshot(p["i"], p["j"], 1, scene, p["t"]), TapKind.SB)
        assert (want is None) == (got is None)
        if want is not None:
            worst = max(
                worst,
                abs(got[0] - want[0]) / want[0],
                abs(got[1] - want[1]) / want[1],
            )
            checked += 1

    rms_worst = 0.0
    for _ in range(100):
        powers = rng.uniform(1e-9, 1.0, size=10)
        delays = rng.uniform(1e-9, 1e-7, size=10)
        order = np.argsort(delays)
        from test_stats import make_cir

        got = rms_delay_spread(make_cir(powers[order], delays[order]))
        want = oracles.moment_rms(powers, delays)
        rms_worst = max(rms_worst, abs(got - want) / want)

    ok = worst <= 1e-12 and rms_worst <= 1e-12 and checked >= 20
    _report(
        2,
        ok,
        f"single-bounce tap vs straight-line: {checked} live rays of 100 scenes, "
        f"worst rel err {worst:.2e} <= 1e-12; "
        f"rms vs moment oracle worst rel err {rms_worst:.2e} <= 1e-12",
    )


def test_criterion_3_frame_algebra():
    m = gcs_to_lcs11(DEFAULT_ORIENTATION)
    identity_err = float(np.max(np.abs(m - np.eye(3))))

    rng = np.random.default_rng(SEED)
    det_err = 0.0
    for _ in range(10_000):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        row, _ = cart_to_sph(q[:, 0])
        col, _ = cart_to_sph(q[:, 1])
        frame = gcs_to_lcs11(ArrayOrientation(*row, *col))
        det_err = max(det_err, abs(abs(float(np.linalg.det(frame))) - 1.0))

    ortho_err = 0.0
    drawn = 0
    while drawn < 10_000:
        az = rng.uniform(0.0, 2.0 * math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        d = rng.uniform(0.1, 10.0)
        if math.hypot(
            d * math.cos(el) * math.sin(az), d * math.sin(el)
        ) < 1e-6:
            continue
        n = cluster_equivalent_normal(az, el, d)
        ortho_err = max(ortho_err, abs(float(n[0])))
        drawn += 1

    ok = identity_err <= 1e-12 and det_err <= 1e-9 and ortho_err <= 1e-9
    _report(
        3,
        ok,
        f"identity err {identity_err:.2e} <= 1e-12; "
        f"|det|-1 max {det_err:.2e} <= 1e-9 over 10^4 orientations; "
        f"normal-axis dot max {ortho_err:.2e} <= 1e-9 over 10^4 clusters",
    )


def test_criterion_4_cluster_evolution_statistics():
    t0 = time.perf_counter()
    evo = EvolutionParams(birth_rate=80.0, death_rate=4.0, correlation_factor=10.0)
    n_real = 1000

    counts = np.empty(n_real)
    # flat row axis, 5 cm element spacing keeps the step survival mid-range
    flat = ArrayOrientation(0.0, 0.0, math.pi / 2, 0.0)
    p_step = math.exp(-80.0 * 0.05 / 10.0)
    kept = np.zeros(3)
    for k in range(n_real):
        mask = evolve_visibility(
            1, 4, 1.0, 0.05, flat, evo, np.random.default_rng(SEED + k)
        )
        counts[k] = mask[0, 0].sum()
        first = mask[0, 0]
        for step in (1, 2, 3):
            kept[step - 1] += np.sum(first & mask[0, step])

    mean_count = float(counts.mean())
    se_count = float(counts.std(ddof=1) / math.sqrt(n_real))
    count_ok = abs(mean_count - 20.0) <= 3.0 * se_count + 1e-12

    trials = 20.0 * n_real
    surv_ok = True
    surv_txt = []
    for step in (1, 2, 3):
        want = p_step**step
        got = kept[step - 1] / trials
        sigma = math.sqrt(want * (1.0 - want) / trials)
        surv_ok &= abs(got - want) <= 3.0 * sigma
        surv_txt.append(f"k={step}: {got:.4f} vs {want:.4f} (3sig {3 * sigma:.4f})")
    elapsed = time.perf_counter() - t0

    ok = count_ok and surv_ok and elapsed < 30.0
    _report(
        4,
        ok,
        f"mean initial count {mean_count:.3f} (se {se_count:.3g}, target 20); "
        f"survival {'; '.join(surv_txt)}; runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_5_non_stationarity_signatures():
    t0 = time.perf_counter()
    n = 500
    f = 1.0e8

    moving = default_config().merged(
        {
            "receiver": {
                "speed_m_s": 0.5,
                "travel_azimuth_deg": 0.0,
                "travel_elevation_deg": 90.0,
            }
        }
    )
    seeds = moving.run_seeds(n)
    acf_a = np.empty(n, complex)
    acf_a0 = np.empty(n, complex)
    acf_b = np.empty(n, complex)
    acf_b0 = np.empty(n, complex)
    ccf_a = np.empty(n, complex)
    ccf_a0 = np.empty(n, complex)
    ccf_b = np.empty(n, complex)
    ccf_b0 = np.empty(n, complex)
    for k, s in enumerate(seeds):
        scene = moving.build_scene(s)
        h0 = transfer(scene, (1, 1, 1), 0.0, [f])[0]
        h0lag = transfer(scene, (1, 1, 1), 0.1, [f])[0]
        h2 = transfer(scene, (1, 1, 1), 2.0, [f])[0]
        h2lag = transfer(scene, (1, 1, 1), 2.1, [f])[0]
        acf_a[k] = h0 * np.conj(h0lag)
        acf_a0[k] = h0 * np.conj(h0)
        acf_b[k] = h2 * np.conj(h2lag)
        acf_b0[k] = h2 * np.conj(h2)
        h22 = transfer(scene, (2, 2, 1), 0.0, [f])[0]
        h44 = transfer(scene, (4, 4, 1), 0.0, [f])[0]
        h33 = transfer(scene, (3, 3, 1), 0.0, [f])[0]
        ccf_a[k] = h0 * np.conj(h22)
        ccf_a0[k] = h0 * np.conj(h0)
        ccf_b[k] = h44 * np.conj(h33)
        ccf_b0[k] = h44 * np.conj(h44)

    r_a, i_a = _abs_normalized(acf_a, acf_a0)
    r_b, i_b = _abs_normalized(acf_b, acf_b0)
    d = i_a - i_b
    acf_z = abs(r_a - r_b) / float(d.std(ddof=1) / math.sqrt(n))

    c_a, j_a = _abs_normalized(ccf_a, ccf_a0)
    c_b, j_b = _abs_normalized(ccf_b, ccf_b0)
    d2 = j_a - j_b
    ccf_z = abs(c_a - c_b) / float(d2.std(ddof=1) / math.sqrt(n))

    # frequency correlation under two different wall spectra, paired seeds
    zero = {"floor": 0.0, "pine_wood": 0.0, "plaster": 0.0, "plate_glass": 0.0}
    cfg_a = default_config().merged(
        {"spectrum": {"material_weights": dict(zero, plaster=1.0)}}
    )
    cfg_b = default_config().merged(
        {"spectrum": {"material_weights": dict(zero, plate_glass=1.0)}}
    )
    df = 4.0e7
    fcf_a = np.empty(n, complex)
    fcf_a0 = np.empty(n, complex)
    fcf_b = np.empty(n, complex)
    fcf_b0 = np.empty(n, complex)
    for k, s in enumerate(default_config().run_seeds(n)):
        ga = transfer(cfg_a.build_scene(s), (1, 1, 1), 0.0, [0.0, df])
        gb = transfer(cfg_b.build_scene(s), (1, 1, 1), 0.0, [0.0, df])
        fcf_a[k] = ga[0] * np.conj(ga[1])
        fcf_a0[k] = ga[0] * np.conj(ga[0])
        fcf_b[k] = gb[0] * np.conj(gb[1])
        fcf_b0[k] = gb[0] * np.conj(gb[0])
    q_a, m_a = _abs_normalized(fcf_a, fcf_a0)
    q_b, m_b = _abs_normalized(fcf_b, fcf_b0)
    d3 = m_a - m_b
    fcf_z = abs(q_a - q_b) / float(d3.std(ddof=1) / math.sqrt(n))

    elapsed = time.perf_counter() - t0
    ok = acf_z > 3.0 and ccf_z > 3.0 and fcf_z > 3.0 and elapsed < 300.0
    _report(
        5,
        ok,
        f"ACF anchors 0s vs 2s: {r_a:.4f} vs {r_b:.4f} (z={acf_z:.0f}); "
        f"CCF L11 vs L44: {c_a:.3f} vs {c_b:.3f} (z={ccf_z:.0f}); "
        f"FCF plaster vs plate_glass: {q_a:.4f} vs {q_b:.4f} (z={fcf_z:.0f}); "
        f"all z > 3 over {n} runs; runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_6_trend_reproduction():
    # received power vs distance and element spacing
    t0 = time.perf_counter()
    power_tab = run_experiment("power-vs-distance", default_config())
    t_power = time.perf_counter() - t0
    by_spacing: dict = {}
    for spacing, distance, power, _se in power_tab.rows:
        by_spacing.setdefault(spacing, []).append((distance, power))
    spacings = sorted(by_spacing)
    monotone_d = all(
        all(a[1] > b[1] for a, b in zip(series, series[1:]))
        for series in (sorted(v) for v in by_spacing.values())
    )
    monotone_s = all(
        all(
            p_narrow > p_wide
            for (_, p_narrow), (_, p_wide) in zip(
                sorted(by_spacing[sa]), sorted(by_spacing[sb])
            )
        )
        for sa, sb in zip(spacings, spacings[1:])
    )

    # rotation sweep: wide field of view is smooth, narrow one jumps
    t1 = time.perf_counter()
    rot_tab = run_experiment("power-rotation-fov", default_config())
    t_rot = time.perf_counter() - t1
    steps: dict = {}
    series: dict = {}
    for fov, _t, power in rot_tab.rows:
        series.setdefault(fov, []).append(power)
    for fov, powers in series.items():
        arr = np.asarray(powers)
        assert np.all(arr > 0.0)
        steps[fov] = float(np.max(np.abs(np.diff(arr)) / arr[:-1]))
    rotation_ok = steps[90.0] <= 0.10 and steps[45.0] > 0.10

    # delay spread ordering across beams
    t2 = time.perf_counter()
    rms_tab = run_experiment("rms-patterns", default_config())
    t_rms = time.perf_counter() - t2
    medians = {row[0]: row[2] for row in rms_tab.rows}
    rms_ok = medians["lambertian"] >= medians["narrow"]

    # 3 dB bandwidth across the field-of-view sweep (nan median = no
    # crossing anywhere = infinite bandwidth)
    t3 = time.perf_counter()
    bw_tab = run_experiment("bandwidth-fov", default_config())
    t_bw = time.perf_counter() - t3
    bw = {row[0]: row[3] for row in bw_tab.rows}
    med = [
        math.inf if (isinstance(bw[f], float) and math.isnan(bw[f])) else bw[f]
        for f in (30.0, 45.0, 60.0, 85.0)
    ]
    bw_ok = all(a >= b for a, b in zip(med, med[1:]))

    sweeps_ok = max(t_power, t_rot, t_rms, t_bw) < 120.0
    ok = monotone_d and monotone_s and rotation_ok and rms_ok and bw_ok and sweeps_ok
    med_txt = ",".join("inf" if math.isinf(v) else f"{v / 1e6:.1f}M" for v in med)
    _report(
        6,
        ok,
        f"power falls with distance ({monotone_d}) and spacing ({monotone_s}); "
        f"rotation max step fov90 {steps[90.0]:.3f} <= 0.10 < fov45 "
        f"{steps[45.0]:.3f}; rms median wide {medians['lambertian']:.2e} >= "
        f"narrow {medians['narrow']:.2e}; f3dB medians [{med_txt}] "
        f"non-increasing; sweep times {t_power:.0f}/{t_rot:.0f}/{t_rms:.0f}/"
        f"{t_bw:.0f}s each < 120s",
    )


def test_criterion_7_path_loss_pipeline():
    t0 = time.perf_counter()
    d = np.logspace(0.0, 0.9, 40)
    fit = fit_ci(d, 35.0 + 20.0 * np.log10(d), d0=1.0)
    exponent_ok = abs(fit.exponent - 2.0) <= 1e-9

    passes = 0
    for k in range(20):
        cfg = default_config().merged({"ensemble": {"master_seed": 9000 + k}})
        table = run_experiment("pl-ci", cfg)
        passes += bool(table.provenance["ks_pass"])
    elapsed = time.perf_counter() - t0

    ok = exponent_ok and passes > 10 and elapsed < 120.0
    _report(
        7,
        ok,
        f"synthetic exponent {fit.exponent:.12f} within 1e-9 of 2.0; "
        f"KS normality passed {passes}/20 seeded runs (majority); "
        f"runtime {elapsed:.0f}s < 120s",
    )


def test_criterion_8_byte_determinism():
    cfg = default_config()
    runs = [
        run_experiment("bandwidth-fov", cfg, threads=1).to_csv() for _ in range(3)
    ]
    threaded = [
        run_experiment("bandwidth-fov", cfg, threads=t).to_csv() for t in (4, 8)
    ]
    ok = all(r == runs[0] for r in runs[1:] + threaded)
    _report(
        8,
        ok,
        f"bandwidth-fov CSV identical over 3 repeats and threads 1/4/8 "
        f"({len(runs[0])} bytes)",
    )
