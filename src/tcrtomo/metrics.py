"""Image quality metrics: PSNR and SSIM.

Both take (reference, test) image pairs of equal shape.  data_range defaults
to 1.0 because phantom frames live in [0, 1]; pass the actual dynamic range
for other data.
"""

import math

import numpy as np


def psnr(reference, test, data_range=1.0):
    """10 * log10(data_range^2 / MSE); +inf when the images are identical."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs test {test.shape}")
    if data_range <= 0:
        raise ValueError(f"data_range must be > 0, got {data_range}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range * data_range / mse)


def _gaussian_window(size=11, sigma=1.5):
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def ssim(reference, test, data_range=1.0, window_size=11, sigma=1.5,
         k1=0.01, k2=0.03):
    """Mean structural similarity with a Gaussian sliding window.

    Local means/variances/covariance are Gaussian-weighted (11x11, sigma
    1.5); the map is averaged over the valid (fully overlapping) region.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs test {test.shape}")
    if reference.ndim != 2:
        raise ValueError(f"ssim expects 2-D images, got shape {reference.shape}")
    if min(reference.shape) < window_size:
        raise ValueError(
            f"image {reference.shape} smaller than window {window_size}")
    if data_range <= 0:
        raise ValueError(f"data_range must be > 0, got {data_range}")

    win = _gaussian_window(window_size, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    # imported here: scipy.signal pulls in about 50 MB of scipy that no
    # caller of psnr, nor a trainer importing the pipeline, needs
    from scipy.signal import convolve2d

    def filt(img):
        return convolve2d(img, win, mode="valid")

    mu_x = filt(reference)
    mu_y = filt(test)
    xx = filt(reference * reference) - mu_x * mu_x
    yy = filt(test * test) - mu_y * mu_y
    xy = filt(reference * test) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))
