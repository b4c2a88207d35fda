"""Randomized moving-shape phantoms.

A phantom is 3 to 5 ellipses/rectangles inside the unit disc, all moving
together under one affine motion applied cumulatively per frame: frame t
shows the shapes mapped by the t-fold composition of a fixed per-step map
(rotation * isotropic scaling * shear, plus translation).  Pixel values are
the clipped sum of the intensities of the shapes covering the pixel center,
evaluated by pulling the pixel center back through the inverse map, which
keeps rendering exact under any invertible affine motion.

Feasibility (every shape staying inside the unit disc for the whole
sequence) is enforced by rejection sampling.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Sinogram
from .errors import GenerationError
from .geometry import angle_schedule, operator_for_angles, pixel_centers


@dataclass
class AffineMotion:
    """Per-step affine map x -> L x + v with L = R(rot) * exp(log_scale) * shear."""

    translation: tuple = (0.0, 0.0)
    rotation: float = 0.0
    log_scale: float = 0.0
    shear: float = 0.0

    def step_matrix(self):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        scale = math.exp(self.log_scale)
        sh = np.array([[1.0, self.shear], [0.0, 1.0]])
        return rot @ (scale * sh)

    def trajectory(self, n_steps):
        """Yield (L_t, v_t) of the t-fold composition for t = 0..n_steps-1.

        t = 0 is the identity; each later pair is the step map applied once
        to the previous one, so the whole sequence costs n_steps products.
        """
        lin = np.eye(2)
        vec = np.zeros(2)
        step = self.step_matrix()
        v = np.asarray(self.translation, dtype=np.float64)
        for _ in range(n_steps):
            yield lin, vec
            lin = step @ lin
            vec = step @ vec + v

    def to_dict(self):
        return {"translation": [float(x) for x in self.translation],
                "rotation": self.rotation, "log_scale": self.log_scale,
                "shear": self.shear}


@dataclass
class PhantomSpec:
    """Frozen description of one phantom sequence."""

    seed: int
    image_size: int = 64
    n_steps: int = 10
    shapes: list = field(default_factory=list)
    motion: AffineMotion = field(default_factory=AffineMotion)

    def to_dict(self):
        return {"seed": self.seed, "image_size": self.image_size,
                "n_steps": self.n_steps, "shapes": self.shapes,
                "motion": self.motion.to_dict()}


def _shape_boundary(shape, n=64):
    """Points on the shape outline, in world coordinates."""
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    a, b = shape["half_axes"]
    if shape["kind"] == "ellipse":
        local = np.stack([a * np.cos(u), b * np.sin(u)])
    else:
        # rectangle perimeter traced with the same parameter count
        sq = np.stack([np.cos(u), np.sin(u)])
        sq /= np.maximum(np.abs(sq[0]), np.abs(sq[1]))
        local = np.stack([a * sq[0], b * sq[1]])
    th = shape["orientation"]
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    return rot @ local + np.asarray(shape["center"])[:, None]


def _feasible(shapes, motion, n_steps):
    pts = np.concatenate([_shape_boundary(s) for s in shapes], axis=1)
    for lin, vec in motion.trajectory(n_steps):
        moved = lin @ pts + vec[:, None]
        if np.any(np.sum(moved * moved, axis=0) > 1.0):
            return False
    return True


def sample_phantom(seed, image_size=64, n_steps=10, max_translation=0.03,
                   max_rotation=0.04, max_log_scale=0.015, max_shear=0.015,
                   max_attempts=1000):
    """Draw a feasible PhantomSpec; raises GenerationError after max_attempts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(max_attempts):
        n_shapes = int(rng.integers(3, 6))
        shapes = []
        for _ in range(n_shapes):
            r = 0.65 * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            shapes.append({
                "kind": "ellipse" if rng.uniform() < 0.5 else "rectangle",
                "center": [r * math.cos(ang), r * math.sin(ang)],
                "half_axes": [float(rng.uniform(0.06, 0.25)),
                              float(rng.uniform(0.06, 0.25))],
                "orientation": float(rng.uniform(0.0, math.pi)),
                "intensity": float(rng.uniform(0.2, 1.0)),
            })
        motion = AffineMotion(
            translation=(float(rng.uniform(-max_translation, max_translation)),
                         float(rng.uniform(-max_translation, max_translation))),
            rotation=float(rng.uniform(-max_rotation, max_rotation)),
            log_scale=float(rng.uniform(-max_log_scale, max_log_scale)),
            shear=float(rng.uniform(-max_shear, max_shear)),
        )
        if _feasible(shapes, motion, n_steps):
            return PhantomSpec(seed=seed, image_size=image_size,
                               n_steps=n_steps, shapes=shapes, motion=motion)
    raise GenerationError(
        f"no feasible phantom found for seed {seed} in {max_attempts} attempts")


def _render_frame(spec, lin, vec, grid):
    """Evaluate the shape sum at grid points pulled back through the map."""
    inv = np.linalg.inv(lin)
    q = inv @ (grid - vec[:, None])
    total = np.zeros(q.shape[1])
    for shape in spec.shapes:
        th = shape["orientation"]
        c, s = math.cos(th), math.sin(th)
        local = np.array([[c, s], [-s, c]]) @ (
            q - np.asarray(shape["center"])[:, None])
        a, b = shape["half_axes"]
        if shape["kind"] == "ellipse":
            inside = (local[0] / a) ** 2 + (local[1] / b) ** 2 <= 1.0
        else:
            inside = (np.abs(local[0]) <= a) & (np.abs(local[1]) <= b)
        total += shape["intensity"] * inside
    return np.clip(total, 0.0, 1.0)


def render_sequence(spec):
    """Render a PhantomSpec to a (n_steps, size, size) float32 stack."""
    size = spec.image_size
    coord = pixel_centers(size)
    xx, yy = np.meshgrid(coord, coord, indexing="xy")
    grid = np.stack([xx.ravel(), yy.ravel()])
    frames = np.empty((spec.n_steps, size, size), dtype=np.float32)
    for t, (lin, vec) in enumerate(spec.motion.trajectory(spec.n_steps)):
        frames[t] = _render_frame(spec, lin, vec, grid).reshape(size, size)
    return frames


def mass_center(frame):
    """Intensity-weighted centroid in world coordinates (x, y)."""
    frame = np.asarray(frame, dtype=np.float64)
    coord = pixel_centers(frame.shape[0])
    total = frame.sum()
    if total == 0:
        return np.zeros(2)
    x = float((frame.sum(axis=0) * coord).sum() / total)
    y = float((frame.sum(axis=1) * coord).sum() / total)
    return np.array([x, y])


def simulate_measurements(frames, geom, noise_level=0.0, seed=0):
    """Project every frame with its per-step angles and add Gaussian noise.

    Noise std = noise_level * max|clean| over the whole clean stack, i.i.d.
    per bin.  noise_level = 0 adds nothing and draws nothing from the RNG.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[0] != geom.n_steps:
        raise ValueError(
            f"{frames.shape[0]} frames vs geometry n_steps {geom.n_steps}")
    if noise_level < 0:
        raise ValueError(f"noise_level must be >= 0, got {noise_level}")
    clean = []
    angles = []
    for t in range(geom.n_steps):
        angles.append(angle_schedule(geom, t))
        clean.append(operator_for_angles(angles[t], geom.offsets,
                                         geom.image_size).forward(frames[t]))
    if noise_level > 0:
        scale = noise_level * max(float(np.max(np.abs(c))) for c in clean)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        clean = [c + scale * rng.standard_normal(c.shape) for c in clean]
    return Sinogram(clean, angles, geom.offsets)


def generate_dataset(geom, n_items, seed, noise_level=0.0, split="train",
                     **motion_kwargs):
    """Sample, render, and measure n_items phantoms deterministically.

    Per-item randomness comes from SeedSequence([seed, index]) so the result
    depends only on (seed, config), not on generation order.
    """
    from .datasets import Dataset

    gt, sinos, specs = [], [], []
    for i in range(n_items):
        item_seed = [int(seed), i]
        spec = sample_phantom(item_seed, image_size=geom.image_size,
                              n_steps=geom.n_steps, **motion_kwargs)
        frames = render_sequence(spec)
        sino = simulate_measurements(frames, geom, noise_level=noise_level,
                                     seed=[int(seed), i, 1])
        gt.append(frames)
        sinos.append(sino)
        spec_d = spec.to_dict()
        spec_d["seed"] = list(item_seed)
        specs.append(spec_d)
    return Dataset(geom, gt, sinos, seed=seed, split=split,
                   noise_level=noise_level, specs=specs)


def disc_image(size, radius=0.6, center=(0.0, 0.0), value=1.0):
    """Pixel-center indicator of a disc; handy test and demo object."""
    coord = pixel_centers(size)
    xx, yy = np.meshgrid(coord, coord, indexing="xy")
    return (value * (((xx - center[0]) ** 2 + (yy - center[1]) ** 2)
                     <= radius * radius)).astype(np.float64)
