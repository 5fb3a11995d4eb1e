import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from vlcsim import (
    DomainMismatchError,
    EmptyPatternError,
    LambertianPattern,
    NegativeOrderError,
    NotNormalizedError,
    OutOfRangeError,
    RxOptics,
    SpectralCurve,
    TabulatedPattern,
    load_pattern,
)
from vlcsim.optics import (
    MATERIAL_NAMES,
    _DATA_DIR,
    concentrator_gain,
    effective_reflectance,
    hemisphere_integral,
    lambertian_intensity,
    load_led_psd,
    load_material,
)


def test_lambertian_frozen_values():
    assert lambertian_intensity(1.0, 0.0, 0.0) == pytest.approx(1.0 / math.pi)
    assert lambertian_intensity(1.0, math.pi / 3, 0.0) == pytest.approx(
        0.5 / math.pi
    )
    assert lambertian_intensity(0.0, 0.2, -0.4) == pytest.approx(1.0 / (2 * math.pi))
    # order 1 half-power semi-angle is 60 degrees
    ratio = lambertian_intensity(1.0, math.pi / 3, 0.0) / lambertian_intensity(
        1.0, 0.0, 0.0
    )
    assert ratio == pytest.approx(0.5, rel=1e-12)


def test_lambertian_zero_outside_forward_hemisphere():
    assert lambertian_intensity(1.0, 0.0, math.pi) == 0.0
    assert lambertian_intensity(1.0, 2.0, 0.0) == 0.0
    assert lambertian_intensity(1.0, -2.0, 0.3) == 0.0
    # azimuth is periodic, a full turn lands back on the peak
    assert lambertian_intensity(1.0, 0.0, 2.0 * math.pi) == pytest.approx(
        1.0 / math.pi
    )


def test_lambertian_negative_order_raises():
    with pytest.raises(NegativeOrderError):
        lambertian_intensity(-0.5, 0.0, 0.0)
    with pytest.raises(NegativeOrderError):
        LambertianPattern(-1.0)


@pytest.mark.parametrize("order", [0.0, 1.0, 2.5, 20.0])
def test_lambertian_unit_hemisphere_power(order):
    total = hemisphere_integral(LambertianPattern(order))
    assert total == pytest.approx(1.0, rel=2e-4)


def test_tabulated_pattern_matches_sampled_lambertian():
    el = np.linspace(-math.pi / 2, math.pi / 2, 181)
    az = np.linspace(-math.pi / 2, math.pi / 2, 181)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    table = TabulatedPattern(el, az, lambertian_intensity(1.0, ee, aa))
    assert hemisphere_integral(table) == pytest.approx(1.0, rel=1e-6)
    rng = np.random.default_rng(7)
    pts_el = rng.uniform(-1.3, 1.3, size=40)
    pts_az = rng.uniform(-1.3, 1.3, size=40)
    got = table.intensity(pts_el, pts_az)
    want = lambertian_intensity(1.0, pts_el, pts_az)
    assert np.allclose(got, want, atol=2e-4)
    # outside the tabulated grid the pattern is dark
    assert table.intensity(0.0, math.pi) == 0.0


def test_tabulated_pattern_validation():
    el = np.linspace(-1.0, 1.0, 5)
    az = np.linspace(-1.0, 1.0, 7)
    with pytest.raises(ValueError):
        TabulatedPattern(el, az, np.ones((5, 5)))
    with pytest.raises(ValueError):
        TabulatedPattern(el, az, -np.ones((5, 7)))
    with pytest.raises(EmptyPatternError):
        TabulatedPattern(el, az, np.zeros((5, 7)))
    # lit only behind the emitter, so no forward-hemisphere power to scale by
    with pytest.raises(EmptyPatternError, match="forward-hemisphere"):
        TabulatedPattern(el, np.linspace(2.1, 3.1, 7), np.ones((5, 7)))
    # each axis: at least two points, strictly monotonic, no NaN
    values = np.ones((5, 7))
    bumpy = az.copy()
    bumpy[3] = bumpy[2]
    holed = el.copy()
    holed[1] = np.nan
    for e, a, v, what in [
        (el, bumpy, values, "azimuth axis must be strictly"),
        (el[[0, 2, 1, 3, 4]], az, values, "elevation axis must be strictly"),
        (holed, az, values, "elevation axis must be strictly"),
        (el[:1], az, values[:1], "elevation axis needs at least 2 points"),
        (el, az[:1], values[:, :1], "azimuth axis needs at least 2 points"),
        (el.reshape(1, 5), az, values, "elevation axis needs at least 2 points"),
    ]:
        with pytest.raises(ValueError, match=what):
            TabulatedPattern(e, a, v)


def test_tabulated_pattern_scale_invariant():
    # construction renormalises, so a table in any unit (a luminous
    # intensity over an efficacy, say) gives the same pattern
    el = np.linspace(-1.2, 1.2, 41)
    az = np.linspace(-1.2, 1.2, 41)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    lum = 137.0 * lambertian_intensity(2.0, ee, aa)
    a = TabulatedPattern(el, az, lum / 250.0)
    b = TabulatedPattern(el, az, lum)
    assert np.allclose(a.values, b.values, rtol=1e-12)


def _scipy_intensity(elevation, azimuth, values):
    """The pattern lookup as it was on scipy: the oracle for the numpy one."""
    rgi = RegularGridInterpolator((elevation, azimuth), values, bounds_error=False,
                                  fill_value=0.0)

    def intensity(el, az):
        az = np.mod(np.asarray(az, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
        el, az = np.broadcast_arrays(np.asarray(el, dtype=float), az)
        return rgi(np.stack([el.ravel(), az.ravel()], axis=-1)).reshape(el.shape)

    return intensity


def _one_shot_integral(pattern):
    """The forward-hemisphere quadrature on its whole 361 x 361 grid at
    once: the oracle for the row-blocked one."""
    el = np.linspace(-math.pi / 2, math.pi / 2, 361)
    az = np.linspace(-math.pi / 2, math.pi / 2, 361)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    inner = np.trapezoid(pattern.intensity(ee, aa) * np.cos(ee), az, axis=1)
    return float(np.trapezoid(inner, el))


def _raw_table(name):
    rows = np.loadtxt(_DATA_DIR / name, delimiter=",", skiprows=1)
    el = np.unique(rows[:, 0])
    az = np.unique(rows[:, 1])
    return np.deg2rad(el), np.deg2rad(az), rows[:, 2].reshape(el.size, az.size)


def _probe_points(table, rng):
    el, az = table.elevation, table.azimuth
    ee, aa = np.meshgrid(el, az, indexing="ij")
    edges = [el[0], el[-1], az[0], az[-1]]
    near = [np.nextafter(e, s * np.inf) for e in edges for s in (-1, 1)]
    odd = np.array(edges + near + [0.0, 2.0, -2.0, np.nan, np.inf, -np.inf])
    oe, oa = np.meshgrid(odd, odd, indexing="ij")
    pts_el = np.concatenate([rng.uniform(-2.0, 2.0, 20000), ee.ravel(), oe.ravel()])
    pts_az = np.concatenate([rng.uniform(-4.0, 4.0, 20000), aa.ravel(), oa.ravel()])
    return pts_el, pts_az


# an infinite azimuth wraps to NaN, with numpy's warning
@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
@pytest.mark.parametrize("name", ["pattern_narrow.csv", "pattern_batwing.csv"])
def test_tabulated_pattern_matches_scipy_bit_for_bit(name):
    el, az, raw = _raw_table(name)
    table = load_pattern(_DATA_DIR / name)
    oracle = SimpleNamespace(intensity=_scipy_intensity(el, az, raw))
    want_values = raw / _one_shot_integral(oracle)
    assert np.array_equal(table.values.view(np.uint64), want_values.view(np.uint64))
    pts_el, pts_az = _probe_points(table, np.random.default_rng(11))
    got = table.intensity(pts_el, pts_az)
    want = _scipy_intensity(el, az, table.values)(pts_el, pts_az)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(got).any() and (got == 0.0).any()
    # a scalar point gives a float with the bits of the array lookup
    for k in range(0, pts_el.size, 997):
        one = table.intensity(pts_el[k], pts_az[k])
        assert isinstance(one, float)
        assert np.array_equal(np.float64(one).view(np.uint64), want[k].view(np.uint64))


# an infinite azimuth wraps to NaN, with numpy's warning
@pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
def test_tabulated_pattern_flips_a_descending_axis():
    el, az, raw = _raw_table("pattern_batwing.csv")
    raw = raw * np.linspace(1.0, 2.0, az.size)   # not symmetric in azimuth
    up = TabulatedPattern(el, az, raw)
    down = TabulatedPattern(el[::-1], az[::-1], raw[::-1, ::-1])
    assert np.array_equal(down.elevation, el) and np.array_equal(down.azimuth, az)
    assert np.array_equal(down.values.view(np.uint64), up.values.view(np.uint64))
    pts_el, pts_az = _probe_points(up, np.random.default_rng(12))
    got = down.intensity(pts_el, pts_az)
    # scipy flips a descending axis too, and normalises the same raw table
    oracle = SimpleNamespace(intensity=_scipy_intensity(el[::-1], az[::-1], raw[::-1, ::-1]))
    scale = _one_shot_integral(oracle)
    want = _scipy_intensity(el[::-1], az[::-1], raw[::-1, ::-1] / scale)(pts_el, pts_az)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_hemisphere_integral_equals_the_one_shot_quadrature():
    rng = np.random.default_rng(13)
    for k in range(40):
        # grids inside, across and beyond the forward hemisphere
        el = np.cumsum(rng.uniform(0.01, 0.4, int(rng.integers(2, 30)))) - rng.uniform(0.0, 2.0)
        az = np.cumsum(rng.uniform(0.01, 0.4, int(rng.integers(2, 30)))) - rng.uniform(0.0, 2.0)
        raw = rng.exponential(1.0, (el.size, az.size)) * (rng.uniform(size=(el.size, az.size)) < 0.8)
        table = TabulatedPattern(el, az, raw)
        want = raw / _one_shot_integral(SimpleNamespace(intensity=_scipy_intensity(el, az, raw)))
        assert np.array_equal(table.values.view(np.uint64), want.view(np.uint64)), k
    for order in (0.0, 1.0, 2.7, 40.0):
        lamb = LambertianPattern(order)
        assert hemisphere_integral(lamb) == _one_shot_integral(lamb)


@pytest.mark.parametrize("path", sorted(_DATA_DIR.glob("pattern_*.csv")), ids=lambda p: p.name)
def test_loading_a_bundled_pattern_holds_no_full_quadrature_grid(path):
    # a 361 x 361 grid of float64 is 1 MB a copy, and the quadrature
    # evaluates it in row blocks; a first load also imports modules lazily
    load_pattern(path)
    tracemalloc.start()
    try:
        load_pattern(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("name", ["pattern_narrow.csv", "pattern_batwing.csv"])
def test_bundled_patterns_normalized(name):
    table = load_pattern(_DATA_DIR / name)
    assert hemisphere_integral(table) == pytest.approx(1.0, rel=1e-9)
    assert np.all(table.values >= 0.0)


def test_rx_optics_validation():
    opt = RxOptics()
    assert opt.fov == pytest.approx(math.radians(85.0))
    with pytest.raises(OutOfRangeError):
        RxOptics(fov=0.0)
    with pytest.raises(OutOfRangeError):
        RxOptics(fov=math.pi / 2 + 0.01)
    with pytest.raises(ValueError):
        RxOptics(concentrator_mode="parabolic")


def test_concentrator_gains():
    fov = math.radians(30.0)
    bare = RxOptics(fov=fov)
    assert concentrator_gain(bare, 0.1) == 1.0
    assert concentrator_gain(bare, fov + 0.01) == 0.0

    ideal = RxOptics(fov=fov, refractive_index=1.5, concentrator=True)
    expect = 1.5**2 / math.sin(fov) ** 2
    assert concentrator_gain(ideal, 0.0) == pytest.approx(expect)
    assert concentrator_gain(ideal, fov) == pytest.approx(expect)
    assert concentrator_gain(ideal, fov + 1e-6) == 0.0

    point = RxOptics(
        fov=fov, refractive_index=1.5, concentrator=True, concentrator_mode="pointwise"
    )
    assert concentrator_gain(point, math.radians(30.0)) == pytest.approx(9.0)
    # clamp keeps the near-normal gain finite
    assert concentrator_gain(point, 0.0) == pytest.approx(
        1.5**2 / math.sin(math.radians(1.0)) ** 2
    )


def test_spectral_curve_validation():
    wl = np.array([400.0, 500.0, 600.0])
    with pytest.raises(ValueError):
        SpectralCurve(wl[::-1], np.ones(3), "psd")
    with pytest.raises(ValueError):
        SpectralCurve(wl, np.array([0.1, -0.2, 0.3]), "psd")
    with pytest.raises(ValueError):
        SpectralCurve(wl, np.array([0.5, 1.5, 0.5]), "reflectance")
    with pytest.raises(ValueError):
        SpectralCurve(wl, np.ones(3), "transmittance")


def test_spectral_curve_integral_and_window():
    curve = SpectralCurve(
        np.array([400.0, 600.0]), np.array([0.0, 1.0]), "reflectance"
    )
    assert curve.integral() == pytest.approx(100.0)
    cut = curve.restricted(450.0, 550.0)
    assert cut.support == (450.0, 550.0)
    assert cut.value_at(450.0) == pytest.approx(0.25)
    assert cut.value_at(550.0) == pytest.approx(0.75)
    with pytest.raises(DomainMismatchError):
        curve.restricted(350.0, 500.0)
    norm = curve.normalized()
    assert norm.integral() == pytest.approx(1.0, rel=1e-12)


def test_effective_reflectance_flat_source():
    wl = np.linspace(400.0, 700.0, 301)
    psd = SpectralCurve(wl, np.full(wl.size, 1.0 / 300.0), "psd")
    refl = SpectralCurve(
        np.array([400.0, 700.0]), np.array([0.2, 0.8]), "reflectance"
    )
    # flat source sees the mean reflectance of a linear ramp
    assert effective_reflectance(psd, refl) == pytest.approx(0.5, rel=1e-9)


def test_effective_reflectance_guards():
    wl = np.linspace(400.0, 700.0, 31)
    psd = SpectralCurve(wl, np.full(wl.size, 1.0 / 300.0), "psd")
    refl = SpectralCurve(np.array([380.0, 780.0]), np.array([0.5, 0.5]), "reflectance")
    with pytest.raises(ValueError):
        effective_reflectance(refl, psd)
    narrow = SpectralCurve(np.array([450.0, 650.0]), np.array([0.5, 0.5]), "reflectance")
    with pytest.raises(DomainMismatchError):
        effective_reflectance(psd, narrow)
    loud = SpectralCurve(wl, np.full(wl.size, 2.0 / 300.0), "psd")
    with pytest.raises(NotNormalizedError):
        effective_reflectance(loud, refl)


@pytest.mark.parametrize("name", MATERIAL_NAMES)
def test_bundled_materials(name):
    curve = load_material(name)
    assert curve.role == "reflectance"
    lo, hi = curve.support
    assert lo <= 380.0 and hi >= 780.0
    assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)


def test_unknown_material_raises():
    with pytest.raises(ValueError):
        load_material("velvet")


@pytest.mark.parametrize("name", ["white", "red", "green", "blue"])
def test_bundled_led_psds(name):
    curve = load_led_psd(name)
    assert curve.role == "psd"
    assert curve.integral() == pytest.approx(1.0, rel=1e-9)


def test_led_psd_from_path_matches_bundled():
    a = load_led_psd("blue")
    b = load_led_psd(_DATA_DIR / "led_blue.csv")
    assert np.allclose(a.values, b.values, rtol=1e-12)
