"""Parallel-beam scan geometry and a matched discrete Radon transform pair.

The image lives on the square [-1, 1]^2 with the object supported inside the
unit disc; pixels whose center falls outside radius 1 never contribute.  A ray
with angle phi and signed offset sigma is the line

    p(w) = sigma * theta(phi) + w * theta_perp(phi),   theta = (cos, sin),

and the forward projection is the line integral of the bilinearly
interpolated image along p(w), discretized with a fixed step of half a pixel
width.  Each projection value is therefore a fixed linear combination of
pixel values, so the whole transform for one time step is a sparse matrix;
the adjoint is its exact transpose, which makes <Ax, y> == <x, A^T y> hold to
rounding error by construction.  Each operator keeps the transpose as a
second CSR matrix, built once, so an adjoint is a row-wise product like a
forward projection rather than a scatter through a CSC view.  Both products
call scipy's CSR matvec kernel directly, the kernel `matrix @ x` runs, so
they are bitwise what the scipy product gives without its dispatch cost.

Angle schedules are time dependent: a base fan of n_a(t) angles equispaced in
[0, pi) rotates by t * delta between frames (modulo pi), which models a
scanner that keeps acquiring while the object moves.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# the kernel behind csr_matrix @ vector; private to scipy, so only this
# module imports it
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .spec import check_fields, fields_from_dict, fields_to_dict, spec


@dataclass(eq=False)
class ScanGeometry:
    """Time-dependent parallel-beam sampling pattern.

    n_angles_init applies to time steps 0 and 1 (the densely sampled start of
    the scan), n_angles_rest to every later step.  Offsets are n_offsets
    equispaced points in [-1, 1] shared by all steps.  rotation_delta is the
    inter-frame rotation of the angle fan; None picks pi / (n_angles_rest *
    n_steps) so the union of all fans spreads evenly over [0, pi).
    """

    image_size: int = spec(64, minimum=2)
    n_steps: int = spec(10, minimum=2)
    n_angles_init: int = spec(20, minimum=1)
    n_angles_rest: int = spec(3, minimum=1)
    n_offsets: int = spec(100, minimum=2)
    rotation_delta: float | None = spec(None)

    def __post_init__(self):
        check_fields(self)
        for name in ("image_size", "n_steps", "n_angles_init",
                     "n_angles_rest", "n_offsets"):
            setattr(self, name, int(getattr(self, name)))
        if self.rotation_delta is None:
            self.rotation_delta = math.pi / (self.n_angles_rest * self.n_steps)
        self.rotation_delta = float(self.rotation_delta)
        self.offsets = np.linspace(-1.0, 1.0, self.n_offsets)

    def n_angles(self, t):
        self._check_step(t)
        return self.n_angles_init if t < 2 else self.n_angles_rest

    def _check_step(self, t):
        if not 0 <= t < self.n_steps:
            raise ValueError(f"time step {t} outside [0, {self.n_steps})")

    to_dict = fields_to_dict
    from_dict = classmethod(fields_from_dict)


def angle_schedule(geom, t):
    """Angles for time step t: equispaced fan rotated by t * delta, mod pi.

    Returns a sorted float array in [0, pi).
    """
    n = geom.n_angles(t)
    base = np.arange(n) * (math.pi / n)
    ang = np.mod(base + t * geom.rotation_delta, math.pi)
    return np.sort(ang)


def pixel_centers(size):
    """World coordinates of the centers of size pixels spanning [-1, 1]."""
    return -1.0 + (np.arange(size) + 0.5) * (2.0 / size)


def _disc_mask(size):
    # True for pixels whose center lies inside the unit disc.
    c = pixel_centers(size)
    xx, yy = np.meshgrid(c, c, indexing="xy")
    return (xx * xx + yy * yy) <= 1.0


def _system_matrix(angles, offsets, size):
    """Sparse matrix of the sampled-ray Radon transform.

    Row (j * n_offsets + k) integrates along angle j / offset k.  Samples sit
    at w = -1 + s * (h/2) for s = 0..(2*size); each sample spreads onto its 4
    bilinear neighbor pixels, weighted by the step length h/2.  Pixels with
    center outside the unit disc are masked out.
    """
    angles = np.asarray(angles, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    h = 2.0 / size
    step = 0.5 * h
    w = -1.0 + step * np.arange(2 * size + 1)
    mask = _disc_mask(size).ravel()

    blocks = []
    n_off = offsets.size
    for phi in angles:
        ct, st = math.cos(phi), math.sin(phi)
        # sample coords, shape (n_off, n_samples)
        x = offsets[:, None] * ct + w[None, :] * (-st)
        y = offsets[:, None] * st + w[None, :] * ct
        # continuous pixel-index coords: pixel c center at -1 + (c + .5) h
        cx = (x + 1.0) / h - 0.5
        cy = (y + 1.0) / h - 0.5
        c0 = np.floor(cx).astype(np.int64)
        r0 = np.floor(cy).astype(np.int64)
        fx = cx - c0
        fy = cy - r0
        rows = np.repeat(np.arange(n_off), w.size)
        data_parts, row_parts, col_parts = [], [], []
        for dr, dc, wt in (
            (0, 0, (1 - fy) * (1 - fx)),
            (0, 1, (1 - fy) * fx),
            (1, 0, fy * (1 - fx)),
            (1, 1, fy * fx),
        ):
            rr = r0 + dr
            cc = c0 + dc
            ok = (rr >= 0) & (rr < size) & (cc >= 0) & (cc < size)
            cols = (rr * size + cc)[ok]
            vals = (wt[ok] * step).ravel()
            keep = mask[cols]
            row_parts.append(rows[ok.ravel()][keep])
            col_parts.append(cols[keep])
            data_parts.append(vals[keep])
        a = sp.coo_matrix(
            (np.concatenate(data_parts),
             (np.concatenate(row_parts), np.concatenate(col_parts))),
            shape=(n_off, size * size),
        )
        blocks.append(a.tocsr())
    m = sp.vstack(blocks, format="csr")
    m.sum_duplicates()
    return m


class LinearOperator:
    """Minimal forward/adjoint pair interface used by the solvers.

    forward maps an in_shape array to an out_shape one and adjoint back.
    Neither promises a fresh array: an operator may return a view or a
    cached buffer, so callers never write into what it returns.
    """

    in_shape = None
    out_shape = None

    def forward(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def norm_ata(self):
        """Cached power-iteration estimate of ||A^T A||."""
        if getattr(self, "_norm_ata", None) is None:
            self._norm_ata = operator_norm(self)
        return self._norm_ata


class MatrixOperator(LinearOperator):
    """Dense-matrix operator, mostly a test hook and external-data shim."""

    def __init__(self, mat, in_shape=None):
        self.mat = np.asarray(mat, dtype=np.float64)
        if self.mat.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {self.mat.shape}")
        if in_shape is None:
            in_shape = (self.mat.shape[1],)
        if int(np.prod(in_shape)) != self.mat.shape[1]:
            raise ValueError(f"in_shape {in_shape} does not hold "
                             f"{self.mat.shape[1]} unknowns")
        self.in_shape = tuple(in_shape)
        self.out_shape = (self.mat.shape[0],)

    def forward(self, x):
        return self.mat @ np.asarray(x, dtype=np.float64).ravel()

    def adjoint(self, y):
        return (self.mat.T @ np.asarray(y, dtype=np.float64).ravel()).reshape(
            self.in_shape)


class RadonOperator(LinearOperator):
    """Radon transform for one fixed set of angles as a sparse matrix.

    forward and adjoint convert their input to float64, check its shape and
    run scipy's CSR matvec kernel on matrix / matrix_t into a fresh zeroed
    output: bitwise matrix @ x.ravel() and matrix_t @ y.ravel().  Neither
    writes into its input or the operator's arrays.
    """

    def __init__(self, angles, offsets, image_size):
        # own copies: a cached operator must not follow later edits of the
        # caller's arrays
        self.angles = np.array(angles, dtype=np.float64)
        self.offsets = np.array(offsets, dtype=np.float64)
        self.image_size = int(image_size)
        self.in_shape = (self.image_size, self.image_size)
        self.out_shape = (self.angles.size, self.offsets.size)
        self.matrix = _system_matrix(self.angles, self.offsets, self.image_size)
        # same entries, same summation order as matrix.T @ y: bitwise equal
        self.matrix_t = self.matrix.T.tocsr()

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.in_shape:
            raise ValueError(
                f"image shape {x.shape} does not match operator {self.in_shape}")
        return _matvec(self.matrix, x, self.out_shape)

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.out_shape:
            raise ValueError(
                f"sinogram shape {y.shape} does not match operator {self.out_shape}")
        return _matvec(self.matrix_t, y, self.in_shape)


def _matvec(m, v, out_shape):
    """m @ v.ravel() for a float64 CSR matrix, shaped out_shape."""
    out = np.zeros(out_shape)
    _csr_matvec(m.shape[0], m.shape[1], m.indptr, m.indices, m.data,
                np.ascontiguousarray(v), out)
    return out


# Least recently used operators beyond this many are dropped.  A whole test
# session in one process holds about 150 and a reconstruction one per angle
# set, so nothing the package runs is evicted.
_OP_CACHE_SIZE = 256
_OP_CACHE = OrderedDict()


def operator_for_angles(angles, offsets, image_size):
    """RadonOperator for an explicit angle list, cached per sampling.

    The one way the package reaches a projector: fbp, the measurement
    simulator, the solvers and the UAR pools all call it.  It holds at most
    _OP_CACHE_SIZE operators and drops the least recently used one beyond
    that.
    """
    angles = np.asarray(angles, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    key = (int(image_size), tuple(np.round(offsets, 12)),
           tuple(np.round(angles, 12)))
    op = _OP_CACHE.get(key)
    if op is None:
        op = RadonOperator(angles, offsets, image_size)
        _OP_CACHE[key] = op
        if len(_OP_CACHE) > _OP_CACHE_SIZE:
            _OP_CACHE.popitem(last=False)
    else:
        _OP_CACHE.move_to_end(key)
    return op


# power iteration: stop at this relative eigenvalue change, or after this
# many iterations
NORM_TOL = 1e-4
NORM_MAX_ITER = 200


def operator_norm(op):
    """Power-iteration estimate of ||A^T A|| (largest eigenvalue).

    Deterministic start (vector of ones); stops when the relative eigenvalue
    change drops below NORM_TOL or after NORM_MAX_ITER iterations.  Restarts
    from a basis vector if the iteration hits an exact null vector.
    """
    n = int(np.prod(op.in_shape))
    x = np.ones(n, dtype=np.float64).reshape(op.in_shape)
    x /= np.linalg.norm(x)
    lam = 0.0
    restarts = 0
    for _ in range(NORM_MAX_ITER):
        y = op.adjoint(op.forward(x))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            # ones vector happened to be in the null space; try basis vectors
            if restarts >= n:
                return 0.0
            x = np.zeros(n, dtype=np.float64)
            x[restarts] = 1.0
            x = x.reshape(op.in_shape)
            restarts += 1
            continue
        lam_new = float(np.vdot(x, y).real)
        x = y / ny
        if lam > 0 and abs(lam_new - lam) <= NORM_TOL * abs(lam_new):
            return lam_new
        lam = lam_new
    return lam


def fbp(sino, angles, offsets, image_size):
    """Filtered backprojection with the discrete Ram-Lak kernel.

    Projections are convolved with the sampled ramp-filter kernel
    (1/(4 d^2) at 0, -1/(pi n d)^2 for odd n, 0 otherwise, d = offset
    spacing), then backprojected with the matched adjoint.  The adjoint of
    the sampled-ray matrix absorbs a factor h^2 / d relative to sinogram
    interpolation, hence the d^2 / h^2 rescaling; pi / n_angles is the
    quadrature weight of the angle integral.
    """
    sino = np.asarray(sino, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if sino.shape != (angles.size, offsets.size):
        raise ValueError(
            f"sinogram shape {sino.shape} does not match "
            f"({angles.size}, {offsets.size})")
    d = offsets[1] - offsets[0]
    n_off = offsets.size
    nfft = 1 << int(math.ceil(math.log2(2 * n_off)))
    ker = np.zeros(nfft)
    idx = np.arange(nfft)
    # signed kernel index with wraparound so the kernel is centered at 0
    m = np.where(idx > nfft // 2, idx - nfft, idx)
    ker[0] = 1.0 / (4.0 * d * d)
    odd = (m % 2) != 0
    ker[odd] = -1.0 / (np.pi * m[odd] * d) ** 2
    ker_f = np.fft.fft(ker)
    pad = np.zeros((angles.size, nfft))
    pad[:, :n_off] = sino
    filt = np.real(np.fft.ifft(np.fft.fft(pad, axis=1) * ker_f, axis=1))
    filt = filt[:, :n_off] * d  # discrete convolution -> continuous units

    h = 2.0 / image_size
    scale = (math.pi / angles.size) * (d / (h * h))
    return operator_for_angles(angles, offsets, image_size).adjoint(
        filt * scale)
