import math

import numpy as np
import pytest

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
    pattern_from_luminous,
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


def test_pattern_from_luminous_scale_invariant():
    el = np.linspace(-1.2, 1.2, 41)
    az = np.linspace(-1.2, 1.2, 41)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    lum = 137.0 * lambertian_intensity(2.0, ee, aa)
    a = pattern_from_luminous(el, az, lum, ler=250.0)
    b = TabulatedPattern(el, az, lum)
    assert np.allclose(a.values, b.values, rtol=1e-12)
    with pytest.raises(ValueError):
        pattern_from_luminous(el, az, lum, ler=0.0)


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
