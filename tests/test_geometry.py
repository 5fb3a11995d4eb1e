import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vlcsim import (
    ArrayOrientation,
    DegenerateNormalError,
    InvalidAdrError,
    SingularFrameError,
    ZeroVectorError,
)
from vlcsim.geometry import (
    _dots,
    _norms,
    cart_to_sph,
    cluster_equivalent_normal,
    direction,
    gcs_to_lcs11,
    gcs_to_lcs_pd,
    invert_frame,
    led_position,
    pd_normals,
    points_to_lcs_ij,
    sph_angles,
    wrap_azimuth,
)

SEED = 20220101
# ceiling-mounted array facing down: rows along +y, columns along +z
DEFAULT_ORIENTATION = ArrayOrientation(math.pi / 2, 0.0, math.pi, math.pi / 2)


def test_wrap_azimuth_range():
    a = np.array([-0.1, 0.0, 2.0 * math.pi, 7.0, -9.0])
    w = wrap_azimuth(a)
    assert np.all((w >= 0.0) & (w < 2.0 * math.pi))
    assert np.allclose(np.cos(w), np.cos(a))
    assert np.allclose(np.sin(w), np.sin(a))


def test_direction_frozen_values():
    assert np.allclose(direction(0.0, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(direction(math.pi / 2, 0.0), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(direction(0.0, math.pi / 2), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(
        direction(math.pi / 4, math.pi / 4),
        [0.5, 0.5, math.sqrt(0.5)],
    )


def test_cart_to_sph_round_trip():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0.1, 50.0)
        pair, r = cart_to_sph(v)
        assert 0.0 <= pair.azimuth < 2.0 * math.pi
        assert -math.pi / 2 <= pair.elevation <= math.pi / 2
        assert np.allclose(r * direction(*pair), v, rtol=1e-12, atol=1e-12)


def test_cart_to_sph_zero_vector():
    with pytest.raises(ZeroVectorError):
        cart_to_sph([0.0, 0.0, 0.0])


def test_sph_angles_matches_scalar():
    rng = np.random.default_rng(SEED + 1)
    vecs = rng.normal(size=(64, 3))
    az, el, r = sph_angles(vecs)
    for k in range(64):
        pair, rk = cart_to_sph(vecs[k])
        assert az[k] == pytest.approx(pair.azimuth, abs=1e-14)
        assert el[k] == pytest.approx(pair.elevation, abs=1e-14)
        assert r[k] == pytest.approx(rk, rel=1e-14)


def test_gcs_to_lcs11_default_orientation_is_identity():
    m = gcs_to_lcs11(DEFAULT_ORIENTATION)
    assert np.allclose(m, np.eye(3), atol=1e-12)


def test_gcs_to_lcs11_columns_are_normal_row_col():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(300):
        # random orthonormal row/col axes from a QR factorization
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        row, _ = cart_to_sph(q[:, 0])
        col, _ = cart_to_sph(q[:, 1])
        m = gcs_to_lcs11(ArrayOrientation(*row, *col))
        assert np.allclose(m[:, 1], q[:, 0], atol=1e-12)
        assert np.allclose(m[:, 2], q[:, 1], atol=1e-12)
        assert np.allclose(m[:, 0], np.cross(m[:, 1], m[:, 2]), atol=1e-12)
        det = float(np.linalg.det(m))
        assert abs(abs(det) - 1.0) < 1e-9


def test_gcs_to_lcs11_parallel_axes_raise():
    bad = ArrayOrientation(0.3, 0.1, 0.3, 0.1)
    with pytest.raises(SingularFrameError):
        gcs_to_lcs11(bad)


def test_gcs_to_lcs_pd_proper_rotation():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(300):
        az = rng.uniform(0.0, 2.0 * math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        m = gcs_to_lcs_pd(az, el)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)
        # third column is the top detector normal
        assert np.allclose(m[:, 2], direction(az, el), atol=1e-12)


def test_gcs_to_lcs_pd_frozen_matrix():
    m = gcs_to_lcs_pd(math.pi, 0.0)
    expect = np.array(
        [
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
        ]
    )
    assert np.allclose(m, expect, atol=1e-12)


def test_invert_frame_matches_numpy():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        inv = invert_frame(m)
        assert np.allclose(inv, np.linalg.inv(m), rtol=1e-10, atol=1e-12)
        assert np.allclose(inv @ m, np.eye(3), atol=1e-10)


def test_invert_frame_singular_raises():
    with pytest.raises(SingularFrameError):
        invert_frame(np.ones((3, 3)))


@pytest.mark.parametrize(
    "i,j,expect",
    [
        (1, 1, (0.0, 0.0, 0.0)),
        (1, 2, (0.0, 1.0, 0.0)),
        (2, 1, (0.0, 0.0, 1.0)),
        (4, 4, (0.0, 3.0, 3.0)),
    ],
)
def test_led_position_default_orientation(i, j, expect):
    p = led_position(i, j, DEFAULT_ORIENTATION, 1.0, 1.0)
    assert np.allclose(p, expect, atol=1e-12)


def test_led_position_spacing_scales():
    p = led_position(3, 2, DEFAULT_ORIENTATION, 0.5, 0.25)
    assert np.allclose(p, [0.0, 0.25, 1.0], atol=1e-12)


def test_point_to_lcs_ij_vectorized_agrees():
    rng = np.random.default_rng(SEED + 6)
    points = rng.uniform(-4.0, 4.0, size=(50, 3))
    tilted = ArrayOrientation(0.4, 0.3, 2.0, 0.9)
    for orientation, (i, j) in [
        (DEFAULT_ORIENTATION, (1, 1)),
        (DEFAULT_ORIENTATION, (2, 3)),
        (tilted, (2, 3)),
        (tilted, (4, 4)),
    ]:
        inv = invert_frame(gcs_to_lcs11(orientation))
        frame = oracles.frame_from_axes(*orientation)
        az, el = points_to_lcs_ij(points, i, j, inv, 0.5, 0.75)
        for k in range(points.shape[0]):
            want_az, want_el = oracles.local_angles(
                points[k], 0.0, frame, (j - 1) * 0.75, (i - 1) * 0.5
            )
            assert az[k] == pytest.approx(want_az, abs=1e-12)
            assert el[k] == pytest.approx(want_el, abs=1e-12)


def test_point_to_lcs_ij_recovers_offset_point():
    # a point straight ahead of element (2, 3) sits on its local +x axis
    frame = gcs_to_lcs11(DEFAULT_ORIENTATION)
    base = led_position(2, 3, DEFAULT_ORIENTATION, 1.0, 1.0)
    ahead = base + np.array([2.0, 0.0, 0.0])
    az, el = points_to_lcs_ij(ahead, 2, 3, invert_frame(frame), 1.0, 1.0)
    assert az == pytest.approx(0.0, abs=1e-12)
    assert el == pytest.approx(0.0, abs=1e-12)


def test_pd_normals_single_detector():
    normals = pd_normals(1, 0.0, math.pi, 0.1, 0.0, 0.0, 0.0)
    assert len(normals) == 1
    assert np.allclose(normals[0], direction(math.pi, 0.1), atol=1e-15)


def test_pd_normals_adr_geometry():
    theta = math.radians(40.0)
    normals = pd_normals(4, theta, math.pi, 0.0, 0.0, 0.0, 0.0)
    assert len(normals) == 4
    top = normals[0]
    assert np.allclose(top, direction(math.pi, 0.0), atol=1e-12)
    for side in normals[1:]:
        assert np.linalg.norm(side) == pytest.approx(1.0, abs=1e-12)
        assert float(top @ side) == pytest.approx(math.cos(theta), abs=1e-12)
    # three side detectors are spread 120 degrees apart around the top axis
    gamma = math.pi / 2 - theta
    expect_dot = math.cos(gamma) ** 2 * math.cos(2 * math.pi / 3) + math.sin(gamma) ** 2
    for a in range(1, 4):
        for b in range(a + 1, 4):
            assert float(normals[a] @ normals[b]) == pytest.approx(
                expect_dot, abs=1e-12
            )


def test_pd_normals_rotation_advances_angles():
    # the head's angles advance; the side detectors ride along in its frame
    rot_a, rot_e, t = 0.7, -0.3, 0.5
    moved = pd_normals(3, 0.5, 2.0, 0.2, rot_a, rot_e, t)
    top = direction(2.0 + rot_a * t, 0.2 + rot_e * t)
    assert np.allclose(moved[0], top, atol=1e-12)
    turned = pd_normals(3, 0.5, 2.0 + rot_a * t, 0.2 + rot_e * t, 0.0, 0.0, 0.0)
    for n1, expect in zip(moved, turned):
        assert np.array_equal(n1, expect)


@settings(max_examples=60, deadline=None)
@given(
    n_pd=st.integers(2, 6),
    theta=st.floats(0.05, 1.5),
    azimuth=st.floats(-math.pi, math.pi),
    elevation=st.floats(-1.5, 1.5),
    rot_a=st.floats(-2.0, 2.0),
    rot_e=st.floats(-2.0, 2.0),
    t=st.floats(0.0, 10.0),
)
def test_pd_normals_head_rotates_as_a_rigid_body(
    n_pd, theta, azimuth, elevation, rot_a, rot_e, t
):
    start = np.array(pd_normals(n_pd, theta, azimuth, elevation, rot_a, rot_e, 0.0))
    later = np.array(pd_normals(n_pd, theta, azimuth, elevation, rot_a, rot_e, t))
    assert np.allclose(np.linalg.norm(later, axis=1), 1.0, atol=1e-12)
    assert np.allclose(later @ later.T, start @ start.T, atol=1e-12)


def test_pd_normals_invalid_layouts():
    with pytest.raises(InvalidAdrError):
        pd_normals(0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidAdrError):
        pd_normals(3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidAdrError):
        pd_normals(3, math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_cluster_equivalent_normal_points_back_at_axis():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(500):
        az = rng.uniform(0.0, 2.0 * math.pi)
        el = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        d = rng.uniform(0.2, 10.0)
        center = d * direction(az, el)
        if math.hypot(center[1], center[2]) < 1e-6:
            continue
        n = cluster_equivalent_normal(az, el, d)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        # perpendicular foot construction: normal has no component along
        # the link axis and points from the cluster back toward it
        assert abs(n[0]) < 1e-9
        h = math.hypot(center[1], center[2])
        assert np.allclose(n, [0.0, -center[1] / h, -center[2] / h], atol=1e-9)


def test_cluster_equivalent_normal_on_axis_raises():
    with pytest.raises(DegenerateNormalError):
        cluster_equivalent_normal(0.0, 0.0, 3.0)


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (7, 3), (4096, 3), (5, 1, 3)])
def test_row_norms_and_dots_keep_the_bits_of_numpy(shape):
    # the channel kernel relies on these summation orders to keep its
    # output bytes: norm(axis=-1) as (x*x + y*y) + z*z, and
    # einsum("ij,ij->i") as (x*a + z*c) + y*b
    rng = np.random.default_rng(SEED + 7)
    scale = 10.0 ** rng.uniform(-6, 6, shape[:-1] + (1,))
    a = rng.standard_normal(shape) * scale
    b = rng.standard_normal(shape)
    assert _norms(np.moveaxis(a, -1, 0)).tobytes() == np.linalg.norm(a, axis=-1).tobytes()
    flat_a, flat_b = a.reshape(-1, 3), b.reshape(-1, 3)
    assert _dots(flat_a.T, flat_b.T).tobytes() == np.einsum("ij,ij->i", flat_a, flat_b).tobytes()
