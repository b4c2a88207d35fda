"""Phantom sampling, rendering, measurement simulation, dataset IO."""

import os

import numpy as np
import pytest

from tcrtomo.datasets import (load_external_sinogram, read_dataset,
                              write_dataset, write_sinogram_set)
from tcrtomo.errors import DatasetFormatError, GenerationError
from tcrtomo.geometry import (ScanGeometry, angle_schedule,
                              operator_for_angles)
from tcrtomo.phantoms import (AffineMotion, PhantomSpec, generate_dataset,
                              mass_center, render_sequence, sample_phantom,
                              simulate_measurements)


def small_geom(**kw):
    args = dict(image_size=32, n_steps=6, n_angles_init=8, n_angles_rest=3,
                n_offsets=30)
    args.update(kw)
    return ScanGeometry(**args)


def test_sample_phantom_invariants():
    for seed in range(8):
        spec = sample_phantom(seed, image_size=32, n_steps=6)
        assert 3 <= len(spec.shapes) <= 5
        for sh in spec.shapes:
            assert sh["kind"] in ("ellipse", "rectangle")
            assert 0.0 < sh["intensity"] <= 1.0


def test_sample_phantom_deterministic():
    a = sample_phantom(42, image_size=32, n_steps=6)
    b = sample_phantom(42, image_size=32, n_steps=6)
    assert a.to_dict() == b.to_dict()


def test_sample_phantom_infeasible_motion_raises():
    # huge forced translation can never stay inside the unit disc
    with pytest.raises(GenerationError):
        sample_phantom(0, image_size=32, n_steps=6, max_translation=5.0,
                       max_attempts=3)


def test_render_values_in_range_and_inside_disc():
    spec = sample_phantom(1, image_size=32, n_steps=6)
    frames = render_sequence(spec)
    assert frames.shape == (6, 32, 32)
    assert frames.dtype == np.float32
    assert frames.min() >= 0.0 and frames.max() <= 1.0
    size = 32
    h = 2.0 / size
    c = -1.0 + (np.arange(size) + 0.5) * h
    xx, yy = np.meshgrid(c, c, indexing="xy")
    outside = (xx ** 2 + yy ** 2) > 1.0
    for t in range(6):
        assert np.all(frames[t][outside] == 0.0)


def test_pixel_aligned_translation_is_exact_shift():
    # 2 pixels per step to the right: frame t equals frame 0 rolled by 2t
    size = 32
    h = 2.0 / size
    spec = PhantomSpec(
        seed=0, image_size=size, n_steps=4,
        shapes=[{"kind": "ellipse", "center": [-0.3, 0.05],
                 "half_axes": [0.18, 0.12], "orientation": 0.0,
                 "intensity": 0.7}],
        motion=AffineMotion(translation=(2 * h, 0.0)))
    frames = render_sequence(spec)
    for t in range(4):
        shifted = np.roll(frames[0], 2 * t, axis=1)
        assert np.array_equal(frames[t], shifted)


def test_mass_center_moves_linearly_under_translation():
    size = 48
    h = 2.0 / size
    spec = PhantomSpec(
        seed=0, image_size=size, n_steps=6,
        shapes=[{"kind": "rectangle", "center": [-0.25, -0.1],
                 "half_axes": [0.2, 0.15], "orientation": 0.3,
                 "intensity": 1.0}],
        motion=AffineMotion(translation=(h, 2 * h)))
    frames = render_sequence(spec)
    centers = np.array([mass_center(f) for f in frames])
    t = np.arange(6)
    for dim in (0, 1):
        fit = np.polyfit(t, centers[:, dim], 1)
        resid = centers[:, dim] - np.polyval(fit, t)
        ss_res = np.sum(resid ** 2)
        ss_tot = np.sum((centers[:, dim] - centers[:, dim].mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.999


def test_trajectory_matches_the_composition_from_identity():
    # oracle: the t-fold composition rebuilt from the identity for every t
    motion = AffineMotion(translation=(0.01, -0.02), rotation=0.03,
                          log_scale=-0.01, shear=0.012)
    step = motion.step_matrix()
    v = np.asarray(motion.translation, dtype=np.float64)
    maps = list(motion.trajectory(200))
    assert len(maps) == 200
    for t, (lin, vec) in enumerate(maps):
        want_lin, want_vec = np.eye(2), np.zeros(2)
        for _ in range(t):
            want_lin = step @ want_lin
            want_vec = step @ want_vec + v
        assert np.array_equal(lin, want_lin) and np.array_equal(vec, want_vec)


def test_rotation_preserves_mass():
    # pure rotation about the origin conserves total intensity well
    spec = PhantomSpec(
        seed=0, image_size=64, n_steps=5,
        shapes=[{"kind": "ellipse", "center": [0.25, 0.0],
                 "half_axes": [0.3, 0.22], "orientation": 0.0,
                 "intensity": 0.9}],
        motion=AffineMotion(rotation=0.3))
    frames = render_sequence(spec)
    masses = frames.reshape(5, -1).sum(axis=1)
    assert np.max(np.abs(masses / masses[0] - 1.0)) < 0.05


def test_simulate_measurements_shapes_and_noise():
    geom = small_geom()
    spec = sample_phantom(3, image_size=32, n_steps=6)
    frames = render_sequence(spec)
    clean = simulate_measurements(frames, geom, noise_level=0.0)
    assert clean.n_steps == 6
    assert clean.frames[0].shape == (8, 30)
    assert clean.frames[2].shape == (3, 30)

    level = 0.05
    noisy = simulate_measurements(frames, geom, noise_level=level, seed=9)
    scale = level * max(float(np.max(np.abs(c))) for c in clean.frames)
    delta = np.concatenate([(n - c).ravel()
                            for n, c in zip(noisy.frames, clean.frames)])
    # empirical std of the injected noise matches the requested sigma
    assert abs(delta.std() / scale - 1.0) < 0.2
    assert abs(delta.mean()) < 3 * scale / np.sqrt(delta.size) * 3


def test_simulate_measurements_deterministic():
    geom = small_geom()
    frames = render_sequence(sample_phantom(4, image_size=32, n_steps=6))
    a = simulate_measurements(frames, geom, noise_level=0.02, seed=5)
    b = simulate_measurements(frames, geom, noise_level=0.02, seed=5)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)


def test_generate_dataset_and_roundtrip(tmp_path):
    geom = small_geom()
    ds = generate_dataset(geom, n_items=3, seed=11, noise_level=0.01)
    assert len(ds) == 3
    path = os.path.join(tmp_path, "ds")
    write_dataset(ds, path)
    back = read_dataset(path)
    assert len(back) == 3
    assert back.geometry.to_dict() == geom.to_dict()
    for a, b in zip(ds.gt, back.gt):
        assert np.array_equal(a, b)
    for sa, sb in zip(ds.sinograms, back.sinograms):
        for fa, fb in zip(sa.frames, sb.frames):
            assert np.array_equal(fa.astype(np.float32), fb.astype(np.float32))
        for aa, ab in zip(sa.angles, sb.angles):
            assert np.allclose(aa, ab)


def test_dataset_directory_size_arithmetic(tmp_path):
    geom = small_geom()
    ds = generate_dataset(geom, n_items=2, seed=1)
    path = os.path.join(tmp_path, "ds")
    write_dataset(ds, path)
    t, s = geom.n_steps, geom.image_size
    per_item = t * s * s * 4 + sum(geom.n_angles(k) * geom.n_offsets * 4
                                   for k in range(t))
    payload = sum(os.path.getsize(os.path.join(path, f))
                  for f in os.listdir(path) if f.endswith(".f32"))
    assert payload == 2 * per_item


def test_generate_dataset_byte_identical(tmp_path):
    geom = small_geom()
    p1 = os.path.join(tmp_path, "a")
    p2 = os.path.join(tmp_path, "b")
    write_dataset(generate_dataset(geom, 2, seed=7, noise_level=0.02), p1)
    write_dataset(generate_dataset(geom, 2, seed=7, noise_level=0.02), p2)
    files1 = sorted(os.listdir(p1))
    assert files1 == sorted(os.listdir(p2))
    for f in files1:
        with open(os.path.join(p1, f), "rb") as fh1, \
                open(os.path.join(p2, f), "rb") as fh2:
            assert fh1.read() == fh2.read(), f


def test_read_dataset_truncated_payload_names_tensor(tmp_path):
    geom = small_geom()
    ds = generate_dataset(geom, n_items=1, seed=2)
    path = os.path.join(tmp_path, "ds")
    write_dataset(ds, path)
    target = os.path.join(path, "sino_0_t3.f32")
    with open(target, "r+b") as fh:
        fh.truncate(os.path.getsize(target) - 4)
    with pytest.raises(DatasetFormatError, match="sino_0_t3"):
        read_dataset(path)


def test_sinogram_set_roundtrip(tmp_path):
    # arbitrary per-step angle counts, e.g. 5 steps with 10-then-3 angles
    geom = small_geom(n_steps=5, n_angles_init=10, n_angles_rest=3)
    frames = render_sequence(sample_phantom(6, image_size=32, n_steps=5))
    sino = simulate_measurements(frames, geom)
    path = os.path.join(tmp_path, "sset")
    write_sinogram_set([sino], 32, path)
    loaded, size = load_external_sinogram(path)
    assert size == 32
    assert loaded[0].n_steps == 5
    assert [a.size for a in loaded[0].angles] == [10, 10, 3, 3, 3]
    for fa, fb in zip(sino.frames, loaded[0].frames):
        assert np.allclose(fa, fb, atol=1e-6)


def test_measurement_consistency_with_operator():
    # sinogram from simulate equals direct operator application per step
    geom = small_geom()
    frames = render_sequence(sample_phantom(8, image_size=32, n_steps=6))
    sino = simulate_measurements(frames, geom)
    for t in range(geom.n_steps):
        op = operator_for_angles(angle_schedule(geom, t), geom.offsets,
                                 geom.image_size)
        assert np.allclose(sino.frames[t], op.forward(frames[t]))
