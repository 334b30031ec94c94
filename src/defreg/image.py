"""Image and label-map containers plus the discrete operators built on them.

Conventions used throughout the package:

* pixel data is stored row-major in a ``(height, width)`` float64 array,
  indexed ``data[y, x]``;
* continuous coordinates are ``(x, y)`` pairs with ``x`` running along the
  width, sample positions live in ``[0, W-1] x [0, H-1]`` and are clamped to
  that box;
* ``spacing`` is the physical edge length of one pixel and scales both the
  finite-difference operators and the discrete integrals
  ``sum-over-pixels * spacing**2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Image2D",
    "LabelMap",
    "OneHotStack",
    "bilinear_sample",
    "bilinear_sample_many",
    "bilinear_sample_with_grad",
    "nearest_sample",
    "central_gradient",
    "gradient_adjoint",
    "laplacian",
    "laplacian_adjoint",
    "downsample",
    "normalize_intensity",
    "to_one_hot",
]


@dataclass
class Image2D:
    """Scalar intensity field on a pixel grid."""

    data: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DomainError(f"image data must be 2D, got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DomainError(f"image must be non-empty, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DomainError("image intensities must be finite")
        if not (self.spacing > 0):
            raise DomainError(f"spacing must be positive, got {self.spacing}")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass
class LabelMap:
    """Integer segmentation with ``num_classes`` labels including background 0."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.labels.ndim != 2:
            raise DomainError(f"label data must be 2D, got shape {self.labels.shape}")
        if self.labels.min(initial=0) < 0:
            raise DomainError("labels must be non-negative")
        if self.labels.size and self.labels.max() >= self.num_classes:
            raise DomainError(
                f"label {self.labels.max()} out of range for num_classes={self.num_classes}"
            )

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass
class OneHotStack:
    """K scalar channels over one pixel grid; channels from a LabelMap are binary."""

    channels: np.ndarray  # (K, H, W)
    spacing: float = 1.0

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 3:
            raise DomainError(f"one-hot stack must be (K, H, W), got {self.channels.shape}")

    @property
    def num_classes(self) -> int:
        return self.channels.shape[0]

    @property
    def width(self) -> int:
        return self.channels.shape[2]

    @property
    def height(self) -> int:
        return self.channels.shape[1]


# ---------------------------------------------------------------------------
# sampling


def bilinear_sample_with_grad(data: np.ndarray, px, py):
    """Bilinear interpolation of ``data`` at (px, py), clamped to the domain,
    plus the derivatives of the values w.r.t. the sample coordinates.

    Coordinates clamped outside the domain get zero positional derivative so
    that no force is exerted through the clamp.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py))):
        raise DomainError("sample coordinates must be finite")
    h, w = data.shape
    if h < 2 or w < 2:
        raise DomainError("bilinear sampling needs at least 2 pixels per axis")
    cx = np.clip(px, 0.0, w - 1.0)
    cy = np.clip(py, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.intp), w - 2)
    y0 = np.minimum(np.floor(cy).astype(np.intp), h - 2)
    fx = cx - x0
    fy = cy - y0
    v00 = data[y0, x0]
    v01 = data[y0, x0 + 1]
    v10 = data[y0 + 1, x0]
    v11 = data[y0 + 1, x0 + 1]
    val = (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)
    ddx = (1 - fy) * (v01 - v00) + fy * (v11 - v10)
    ddy = (1 - fx) * (v10 - v00) + fx * (v11 - v01)
    # a clamped coordinate no longer moves the sample, so its derivative is zero;
    # the other axis keeps its usual interpolant derivative
    ddx = ddx * ((px >= 0.0) & (px <= w - 1.0))
    ddy = ddy * ((py >= 0.0) & (py <= h - 1.0))
    return val, ddx, ddy


def bilinear_sample_many(data: np.ndarray, px, py):
    """Bilinear interpolation of ``data`` at coordinates (px, py), clamped to the domain."""
    return bilinear_sample_with_grad(data, px, py)[0]


def bilinear_sample(img: Image2D, p) -> float:
    """Sample one continuous coordinate ``p = (x, y)`` from an image."""
    return float(bilinear_sample_many(img.data, p[0], p[1]))


def nearest_sample(lab: LabelMap, p) -> int:
    """Nearest-pixel label lookup; ties round half-up on both axes."""
    x, y = float(p[0]), float(p[1])
    if not (np.isfinite(x) and np.isfinite(y)):
        raise DomainError("sample coordinates must be finite")
    ix = int(np.clip(np.floor(x + 0.5), 0, lab.width - 1))
    iy = int(np.clip(np.floor(y + 0.5), 0, lab.height - 1))
    return int(lab.labels[iy, ix])


def nearest_sample_many(labels: np.ndarray, px, py):
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py))):
        raise DomainError("sample coordinates must be finite")
    h, w = labels.shape
    ix = np.clip(np.floor(px + 0.5), 0, w - 1).astype(np.intp)
    iy = np.clip(np.floor(py + 0.5), 0, h - 1).astype(np.intp)
    return labels[iy, ix]


# ---------------------------------------------------------------------------
# finite differences


def _diff_x(f: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(f)
    g[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * h)
    g[:, 0] = (f[:, 1] - f[:, 0]) / h
    g[:, -1] = (f[:, -1] - f[:, -2]) / h
    return g


def _diff_y(f: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(f)
    g[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2.0 * h)
    g[0, :] = (f[1, :] - f[0, :]) / h
    g[-1, :] = (f[-1, :] - f[-2, :]) / h
    return g


def central_gradient_raw(data: np.ndarray, spacing: float):
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise DomainError("gradient needs at least 3 pixels per axis")
    return _diff_x(data, spacing), _diff_y(data, spacing)


def central_gradient(img: Image2D):
    """Central differences in the interior, one-sided on the boundary; returns (gx, gy)."""
    return central_gradient_raw(img.data, img.spacing)


def gradient_adjoint(qx: np.ndarray, qy: np.ndarray, spacing: float) -> np.ndarray:
    """Transpose of :func:`central_gradient_raw` applied to a cotangent pair."""
    h = spacing
    g = np.zeros_like(qx)
    # x-derivative transpose
    g[:, 2:] += qx[:, 1:-1] / (2.0 * h)
    g[:, :-2] -= qx[:, 1:-1] / (2.0 * h)
    g[:, 0] -= qx[:, 0] / h
    g[:, 1] += qx[:, 0] / h
    g[:, -1] += qx[:, -1] / h
    g[:, -2] -= qx[:, -1] / h
    # y-derivative transpose
    g[2:, :] += qy[1:-1, :] / (2.0 * h)
    g[:-2, :] -= qy[1:-1, :] / (2.0 * h)
    g[0, :] -= qy[0, :] / h
    g[1, :] += qy[0, :] / h
    g[-1, :] += qy[-1, :] / h
    g[-2, :] -= qy[-1, :] / h
    return g


def laplacian_raw(data: np.ndarray, spacing: float) -> np.ndarray:
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise DomainError("laplacian needs at least 3 pixels per axis")
    p = np.pad(data, 1, mode="edge")
    return (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * data
    ) / (spacing * spacing)


def laplacian(img: Image2D) -> Image2D:
    """5-point Laplacian with replicated-edge padding on the boundary."""
    return Image2D(laplacian_raw(img.data, img.spacing), spacing=img.spacing)


def laplacian_adjoint(q: np.ndarray, spacing: float) -> np.ndarray:
    """Transpose of :func:`laplacian_raw` (edge replication accumulates to edge pixels)."""
    out = -4.0 * q
    # up neighbor data[clip(y-1)]
    out[:-1, :] += q[1:, :]
    out[0, :] += q[0, :]
    # down neighbor data[clip(y+1)]
    out[1:, :] += q[:-1, :]
    out[-1, :] += q[-1, :]
    # left neighbor
    out[:, :-1] += q[:, 1:]
    out[:, 0] += q[:, 0]
    # right neighbor
    out[:, 1:] += q[:, :-1]
    out[:, -1] += q[:, -1]
    return out / (spacing * spacing)


# ---------------------------------------------------------------------------
# pyramids and normalization


def downsample(img: Image2D) -> Image2D:
    """Factor-2 reduction by 2x2 block averaging; odd sizes are edge-padded first."""
    data = img.data
    h, w = data.shape
    if h % 2 or w % 2:
        data = np.pad(data, ((0, h % 2), (0, w % 2)), mode="edge")
        h, w = data.shape
    small = data.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return Image2D(small, spacing=img.spacing * 2.0)


def normalize_intensity(img: Image2D) -> Image2D:
    """Affinely map intensities to [0, 1]; a constant image maps to all zeros."""
    lo = img.data.min()
    hi = img.data.max()
    if hi == lo:
        return Image2D(np.zeros_like(img.data), spacing=img.spacing)
    return Image2D((img.data - lo) / (hi - lo), spacing=img.spacing)


def to_one_hot(lab: LabelMap, spacing: float = 1.0) -> OneHotStack:
    """Binary K-channel encoding; channel k is 1 exactly where the label is k."""
    k = lab.num_classes
    channels = np.zeros((k, lab.height, lab.width), dtype=np.float64)
    for c in range(k):
        channels[c] = lab.labels == c
    return OneHotStack(channels, spacing=spacing)
