"""Projection geometry: angle schedules, forward/adjoint pair, FBP."""

import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from tcrtomo import geometry
from tcrtomo.geometry import (MatrixOperator, RadonOperator, ScanGeometry,
                              angle_schedule, fbp, operator_for_angles,
                              operator_norm, radon_adjoint, radon_forward)
from tcrtomo.metrics import psnr
from tcrtomo.phantoms import disc_image


def default_geom(**kw):
    args = dict(image_size=64, n_steps=10, n_angles_init=20, n_angles_rest=3,
                n_offsets=100)
    args.update(kw)
    return ScanGeometry(**args)


# ---------------------------------------------------------------- schedules

def test_angle_schedule_t0_equispaced():
    geom = default_geom()
    ang = angle_schedule(geom, 0)
    expected = np.arange(20) * math.pi / 20
    assert np.allclose(ang, expected)


def test_angle_schedule_rotates_and_wraps():
    geom = default_geom()
    delta = geom.rotation_delta
    for t in [1, 2, 5, 9]:
        n = 20 if t < 2 else 3
        base = np.sort(np.mod(np.arange(n) * math.pi / n + t * delta, math.pi))
        assert np.allclose(angle_schedule(geom, t), base)
        assert np.all(angle_schedule(geom, t) < math.pi)
        assert np.all(angle_schedule(geom, t) >= 0)


def test_angle_schedule_default_delta():
    geom = default_geom()
    assert geom.rotation_delta == pytest.approx(math.pi / (3 * 10))


def test_angle_schedule_sorted_unique():
    geom = default_geom(n_angles_rest=10)
    for t in range(geom.n_steps):
        ang = angle_schedule(geom, t)
        assert np.all(np.diff(ang) > 0)


def test_angle_counts_per_step():
    geom = default_geom()
    assert [geom.n_angles(t) for t in range(4)] == [20, 20, 3, 3]
    with pytest.raises(ValueError):
        geom.n_angles(10)
    with pytest.raises(ValueError):
        geom.n_angles(-1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        default_geom(n_offsets=1)
    with pytest.raises(ValueError):
        default_geom(n_angles_rest=0)
    with pytest.raises(ValueError):
        default_geom(n_steps=1)


# ------------------------------------------------------- forward projection

def test_chord_length_on_disc():
    # projection of the unit-disc indicator is the chord length 2 sqrt(1-s^2)
    size = 64
    img = disc_image(size, radius=1.0)
    offsets = np.linspace(-1, 1, 100)
    keep = np.abs(offsets) <= 0.8
    tol = 2.0 * (2.0 / size)
    for phi in [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2, 2.5]:
        sino = radon_forward(img, [phi], offsets)[0]
        expected = 2.0 * np.sqrt(1.0 - offsets[keep] ** 2)
        assert np.max(np.abs(sino[keep] - expected)) < tol, f"angle {phi}"


def test_center_pixel_angle_invariance():
    # odd size puts a pixel center exactly at the origin
    size = 65
    img = np.zeros((size, size))
    img[size // 2, size // 2] = 1.0
    offsets = np.array([0.0])
    vals = [radon_forward(img, [phi], offsets)[0, 0]
            for phi in np.linspace(0, math.pi, 13, endpoint=False)]
    vals = np.array(vals)
    # bilinear footprint is square-ish, so only near-invariance holds
    assert vals.max() - vals.min() < 0.1 * vals.max()
    assert vals.min() > 0


def test_forward_matches_dense_ray_oracle():
    # independent route: sample the bilinear interpolant along the ray with
    # map_coordinates and integrate with the same step length
    rng = np.random.default_rng(7)
    size = 32
    img = rng.uniform(size=(size, size))
    # zero out pixels outside the unit disc like the operator does
    h = 2.0 / size
    c = -1.0 + (np.arange(size) + 0.5) * h
    xx, yy = np.meshgrid(c, c, indexing="xy")
    img[(xx ** 2 + yy ** 2) > 1.0] = 0.0

    phi, sigma = 0.7, 0.25
    step = h / 2
    w = np.arange(-1.0, 1.0 + step / 2, step)
    x = sigma * math.cos(phi) - w * math.sin(phi)
    y = sigma * math.sin(phi) + w * math.cos(phi)
    cx = (x + 1.0) / h - 0.5
    cy = (y + 1.0) / h - 0.5
    samples = map_coordinates(img, [cy, cx], order=1, mode="constant")
    oracle = samples.sum() * step

    got = radon_forward(img, [phi], [sigma])[0, 0]
    assert got == pytest.approx(oracle, rel=1e-10)


def test_outside_disc_pixels_ignored():
    size = 32
    img = np.ones((size, size))
    corner = img.copy()
    corner[0, 0] += 100.0  # corner pixel center lies outside the unit disc
    offsets = np.linspace(-1, 1, 50)
    a = radon_forward(img, [0.3, 1.1], offsets)
    b = radon_forward(corner, [0.3, 1.1], offsets)
    assert np.array_equal(a, b)


# ------------------------------------------------------------------ adjoint

def test_adjoint_dot_product_all_shipped_geometries():
    rng = np.random.default_rng(0)
    for size, n_ang in [(64, 20), (64, 3), (64, 10), (32, 20), (32, 3)]:
        geom = default_geom(image_size=size, n_angles_init=n_ang,
                            n_angles_rest=n_ang)
        op = operator_for_angles(angle_schedule(geom, 0), geom.offsets, size)
        x = rng.standard_normal(op.in_shape)
        y = rng.standard_normal(op.out_shape)
        lhs = float(np.vdot(op.forward(x), y))
        rhs = float(np.vdot(x, op.adjoint(y)))
        denom = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / denom < 1e-6, (size, n_ang)


def test_adjoint_footprint():
    # one sinogram bin backprojects onto a narrow band around its ray
    size = 48
    h = 2.0 / size
    offsets = np.linspace(-1, 1, 30)
    phi, k = 0.9, 20
    op = operator_for_angles([phi], offsets, size)
    y = np.zeros(op.out_shape)
    y[0, k] = 1.0
    img = op.adjoint(y)
    rr, cc = np.nonzero(img)
    c = -1.0 + (np.arange(size) + 0.5) * h
    # perpendicular distance of each touched pixel center to the ray
    d = np.abs(c[cc] * math.cos(phi) + c[rr] * math.sin(phi) - offsets[k])
    assert d.max() <= math.sqrt(2.0) * h


def test_forward_shape_validation():
    with pytest.raises(ValueError):
        radon_forward(np.zeros((8, 9)), [0.0], [0.0])
    op = RadonOperator([0.0, 1.0], np.linspace(-1, 1, 10), 16)
    with pytest.raises(ValueError):
        op.forward(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros((3, 10)))


# ------------------------------------------------------------ operator norm

def test_operator_norm_diagonal():
    op = MatrixOperator(np.diag([1.0, 2.0, 3.0]))
    assert operator_norm(op) == pytest.approx(9.0, rel=1e-3)


def test_operator_norm_identity():
    op = MatrixOperator(np.eye(5))
    assert operator_norm(op) == pytest.approx(1.0, rel=1e-6)


def test_operator_norm_deterministic_and_cached():
    geom = default_geom(image_size=32)
    op = operator_for_angles(angle_schedule(geom, 2), geom.offsets, 32)
    a = operator_norm(op)
    b = operator_norm(op)
    assert a == b
    assert op.norm_ata() == op.norm_ata()


def test_operator_norm_against_dense_svd():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 8))
    op = MatrixOperator(m)
    expected = np.linalg.svd(m, compute_uv=False)[0] ** 2
    assert operator_norm(op) == pytest.approx(expected, rel=1e-3)


# -------------------------------------------------------------------- FBP

def test_fbp_disc_psnr():
    size = 64
    img = disc_image(size, radius=0.6)
    angles = np.arange(180) * math.pi / 180
    offsets = np.linspace(-1, 1, 100)
    sino = radon_forward(img, angles, offsets)
    rec = fbp(sino, angles, offsets, size)
    assert psnr(img, rec, data_range=1.0) >= 25.0


def test_fbp_amplitude_calibration():
    # smooth blob: reconstruction should match amplitude within a few percent
    size = 64
    h = 2.0 / size
    c = -1.0 + (np.arange(size) + 0.5) * h
    xx, yy = np.meshgrid(c, c, indexing="xy")
    img = np.exp(-((xx ** 2 + yy ** 2) / 0.08))
    angles = np.arange(120) * math.pi / 120
    offsets = np.linspace(-1, 1, 100)
    rec = fbp(radon_forward(img, angles, offsets), angles, offsets, size)
    assert abs(rec.max() / img.max() - 1.0) < 0.05


def test_one_off_transforms_use_the_operator_cache(monkeypatch):
    size = 24
    angles = np.array([0.21, 1.3, 2.6])  # a sampling no other test uses
    offsets = np.linspace(-1, 1, 31)
    img = disc_image(size, radius=0.5)
    sino = radon_forward(img, angles, offsets)  # first call fills the cache
    n_cached = len(geometry._OP_CACHE)
    op = operator_for_angles(angles, offsets, size)
    assert np.array_equal(radon_forward(img, angles, offsets), op.forward(img))
    assert np.array_equal(radon_adjoint(sino, angles, offsets, size),
                          op.adjoint(sino))

    backprojections = []
    adjoint = op.adjoint

    def spy(y):
        backprojections.append(adjoint(y))
        return backprojections[-1]

    monkeypatch.setattr(op, "adjoint", spy)
    rec = fbp(sino, angles, offsets, size)
    assert len(backprojections) == 1 and rec is backprojections[0]
    assert len(geometry._OP_CACHE) == n_cached


def test_cached_operator_keeps_its_own_sampling():
    angles = np.array([0.37, 2.2])
    offsets = np.linspace(-1, 1, 13)
    radon_forward(np.ones((8, 8)), angles, offsets)
    angles[0] = 2.9
    offsets[0] = -2.0
    op = operator_for_angles([0.37, 2.2], np.linspace(-1, 1, 13), 8)
    assert np.array_equal(op.angles, [0.37, 2.2])
    assert np.array_equal(op.offsets, np.linspace(-1, 1, 13))


def test_fbp_shape_validation():
    with pytest.raises(ValueError):
        fbp(np.zeros((3, 10)), [0.0], np.linspace(-1, 1, 11), 16)
