"""PSNR/SSIM closed-form oracles."""

import math

import numpy as np
import pytest

from tcrtomo.metrics import psnr, ssim


def test_psnr_identical_is_inf():
    x = np.random.default_rng(0).uniform(size=(16, 16))
    assert psnr(x, x) == math.inf


def test_psnr_constant_offset():
    # MSE = 0.25 at range 1 -> 10 log10(1/0.25) = 20 log10 2
    x = np.zeros((8, 8))
    y = np.full((8, 8), 0.5)
    assert psnr(x, y) == pytest.approx(20 * math.log10(2.0), abs=1e-9)


def test_psnr_data_range_shift():
    # doubling the range adds 20 log10 2 dB
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(12, 12))
    y = x + rng.normal(scale=0.05, size=x.shape)
    assert psnr(x, y, data_range=2.0) == pytest.approx(
        psnr(x, y, data_range=1.0) + 20 * math.log10(2.0), abs=1e-9)


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 4)), data_range=0.0)


def test_ssim_identical_is_one():
    x = np.random.default_rng(2).uniform(size=(32, 32))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_closed_form():
    # mu_x = 0, mu_y = 1, zero variances:
    # ssim = C1 / (1 + C1) with C1 = (0.01 * range)^2
    x = np.zeros((32, 32))
    y = np.ones((32, 32))
    c1 = 1e-4
    assert ssim(x, y) == pytest.approx(c1 / (1.0 + c1), rel=1e-9)


def test_ssim_symmetry_and_range():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(24, 24))
    y = np.clip(x + rng.normal(scale=0.1, size=x.shape), 0, 1)
    a = ssim(x, y)
    b = ssim(y, x)
    assert a == pytest.approx(b, abs=1e-12)
    assert -1.0 <= a <= 1.0
    assert a < 1.0


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(32, 32))
    small = np.clip(x + rng.normal(scale=0.02, size=x.shape), 0, 1)
    large = np.clip(x + rng.normal(scale=0.3, size=x.shape), 0, 1)
    assert ssim(x, small) > ssim(x, large)


def test_ssim_window_validation():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))  # smaller than the window
