"""Independent reference implementations used by the oracle tests.

Everything here is written against plain numpy/math from the geometry
definitions, deliberately not importing the package, so agreement is a
two-route check rather than a tautology.
"""

import math

import numpy as np

C_LIGHT = 2.99792458e8


def unit(az, el):
    return np.array(
        [
            math.cos(el) * math.cos(az),
            math.cos(el) * math.sin(az),
            math.sin(el),
        ]
    )


def frame_from_axes(row_az, row_el, col_az, col_el):
    """Element frame built the long way: columns (row x col, row, col)."""
    v = unit(row_az, row_el)
    h = unit(col_az, col_el)
    return np.column_stack([np.cross(v, h), v, h])


def lambertian(order, el, az):
    ce, ca = math.cos(el), math.cos(az)
    if ce < 0.0 or ca < 0.0:
        return 0.0
    return (order + 1.0) / (2.0 * math.pi) * ce**order * ca**order


def local_angles(point, origin, frame, offset_y=0.0, offset_z=0.0):
    """Azimuth/elevation of ``point`` in a local frame at ``origin``."""
    local = np.linalg.solve(frame, np.asarray(point, dtype=float) - origin)
    local = local - np.array([0.0, offset_y, offset_z])
    r = np.linalg.norm(local)
    az = math.atan2(local[1], local[0]) % (2.0 * math.pi)
    el = math.asin(max(-1.0, min(1.0, local[2] / r)))
    return az, el


def straight_line_sb(
    led, frame, order, scatterer, normal, gamma, area_scat,
    rx, n_pd, area_pd, fov, filter_gain=1.0, conc_gain=1.0,
):
    """Single-bounce tap (power, delay) by direct evaluation, or None.

    Mirrors the documented ray bookkeeping: source pattern at the exit
    angles, capture area and entry cosine at the scatterer, diffuse
    re-emission, detector aperture inside the field of view.
    """
    led = np.asarray(led, dtype=float)
    scatterer = np.asarray(scatterer, dtype=float)
    rx = np.asarray(rx, dtype=float)
    normal = np.asarray(normal, dtype=float)
    n_pd = np.asarray(n_pd, dtype=float)

    d_t = np.linalg.norm(scatterer - led)
    d_r = np.linalg.norm(rx - scatterer)
    u_t = (scatterer - led) / d_t
    u_r = (rx - scatterer) / d_r

    az, el = local_angles(scatterer, led, frame)
    f = lambertian(order, el, az)
    cos_in = -float(u_t @ normal)
    cos_out = float(u_r @ normal)
    cos_pd = -float(u_r @ n_pd)
    psi = math.acos(max(-1.0, min(1.0, cos_pd)))
    if cos_in < 0.0 or cos_out < 0.0 or psi > fov:
        return None
    power = (
        f
        * area_scat * cos_in / d_t**2
        * gamma
        * cos_out / math.pi
        * area_pd * cos_pd / d_r**2
        * conc_gain * filter_gain
    )
    if power <= 0.0:
        return None
    return power, (d_t + d_r) / C_LIGHT


def straight_line_db(
    led, frame, order,
    s_a, normal_a, gamma_a, area_a,
    s_z, normal_z, gamma_z, area_z,
    rx, n_pd, area_pd, fov, filter_gain=1.0, conc_gain=1.0,
):
    """Double-bounce tap (power, delay) by direct evaluation, or None."""
    led = np.asarray(led, dtype=float)
    s_a = np.asarray(s_a, dtype=float)
    s_z = np.asarray(s_z, dtype=float)
    rx = np.asarray(rx, dtype=float)

    d_t = np.linalg.norm(s_a - led)
    d_s = np.linalg.norm(s_z - s_a)
    d_r = np.linalg.norm(rx - s_z)
    u_t = (s_a - led) / d_t
    u_s = (s_z - s_a) / d_s
    u_r = (rx - s_z) / d_r

    az, el = local_angles(s_a, led, frame)
    f = lambertian(order, el, az)
    cos_in_a = -float(u_t @ np.asarray(normal_a, dtype=float))
    cos_out_a = float(u_s @ np.asarray(normal_a, dtype=float))
    cos_in_z = -float(u_s @ np.asarray(normal_z, dtype=float))
    cos_out_z = float(u_r @ np.asarray(normal_z, dtype=float))
    cos_pd = -float(u_r @ np.asarray(n_pd, dtype=float))
    psi = math.acos(max(-1.0, min(1.0, cos_pd)))
    if min(cos_in_a, cos_out_a, cos_in_z, cos_out_z) < 0.0 or psi > fov:
        return None
    power = (
        f
        * area_a * cos_in_a / d_t**2
        * gamma_a
        * cos_out_a / math.pi
        * area_z * cos_in_z / d_s**2
        * gamma_z
        * cos_out_z / math.pi
        * area_pd * cos_pd / d_r**2
        * conc_gain * filter_gain
    )
    if power <= 0.0:
        return None
    return power, (d_t + d_s + d_r) / C_LIGHT


def moment_rms(powers, delays):
    """Power-weighted delay standard deviation via stable fsum moments."""
    total = math.fsum(powers)
    mean = math.fsum(p * d for p, d in zip(powers, delays)) / total
    second = math.fsum(p * (d - mean) ** 2 for p, d in zip(powers, delays))
    return math.sqrt(second / total)


def cluster_row(az_mean, az_std, el_mean, el_std, sigmas, m, anchor,
                distance_mean, gamma_by_material, material_weights, rng):
    """One cluster row drawn the long way, in the draw order of the
    reference algorithm: (azimuth, elevation, distance) redrawn while the
    center sits on the LoS axis, then the material, then the (m, 3)
    scatterer offsets.

    Returns (scatterers, normal, reflectance, material, azimuth,
    elevation, distance). The arithmetic is spelled out operation by
    operation (numpy ufuncs where the reference uses them), so the bits
    are comparable, not just the values.
    """
    two_pi = 2.0 * math.pi
    for _ in range(100):
        azimuth = float(np.mod(az_mean + az_std * rng.standard_normal(), two_pi))
        elevation = float(
            np.mod(el_mean + el_std * rng.standard_normal() + math.pi, two_pi) - math.pi)
        distance = float(rng.exponential(distance_mean))
        cy = distance * math.cos(elevation) * math.sin(azimuth)
        cz = distance * math.sin(elevation)
        d_tmp = distance * math.cos(azimuth) * math.cos(elevation)
        if math.hypot(cy, cz) >= 1e-12:
            break
    else:
        raise RuntimeError("center stayed on the LoS axis")
    residue = d_tmp - distance * math.cos(elevation) * math.cos(azimuth)
    beta_a = np.asarray(np.mod(two_pi - math.atan2(cy, residue), two_pi), dtype=float)
    beta_e = np.asarray(-math.atan2(cz, abs(cy)), dtype=float)
    normal = np.stack([np.cos(beta_e) * np.cos(beta_a),
                       np.cos(beta_e) * np.sin(beta_a),
                       np.sin(beta_e)], axis=-1)

    names = list(material_weights)
    weights = np.array([material_weights[k] for k in names], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    material = names[int(cdf.searchsorted(rng.random(), side="right"))]

    offsets = rng.standard_normal((m, 3)) * np.array(sigmas)
    local = offsets + np.array([distance, 0.0, 0.0])
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    ce, se = math.cos(elevation), math.sin(elevation)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    re = np.array([[ce, 0.0, -se], [0.0, 1.0, 0.0], [se, 0.0, ce]])
    scatterers = np.asarray(anchor) + local @ (rz @ re).T
    return (scatterers, normal, gamma_by_material[material], material,
            azimuth, elevation, distance)
