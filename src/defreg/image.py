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

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "Image2D",
    "LabelMap",
    "OneHotStack",
    "check_spacing",
    "SampleGeometry",
    "bilinear_sample_with_grad",
    "bilinear_slopes",
    "nearest_sample",
    "central_gradient_raw",
    "gradient_adjoint",
    "block_mean",
    "downsample",
    "normalize_intensity",
    "to_one_hot",
]


def check_spacing(value, name: str = "spacing"):
    """``value`` if it is a real number, not a bool, with 0 < value < inf;
    otherwise a ``DomainError`` naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


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
        check_spacing(self.spacing)

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


@dataclass(frozen=True, eq=False)
class OneHotStack:
    """K scalar channels over one pixel grid; channels from a LabelMap are binary.

    Immutable: the channels are a read-only copy, so the two read-only arrays
    derived from them on first use, :attr:`cell_labels` and
    :attr:`label_sq_distances`, never go stale. They live and die with the stack.
    """

    channels: np.ndarray  # (K, H, W)

    def __post_init__(self):
        channels = np.array(self.channels, dtype=np.float64)
        if channels.ndim != 3:
            raise DomainError(f"one-hot stack must be (K, H, W), got {channels.shape}")
        channels.flags.writeable = False
        object.__setattr__(self, "channels", channels)

    @cached_property
    def cell_labels(self) -> np.ndarray:
        """Flat ``(H*W,)`` map: ``l`` where the 2x2 cell whose top-left corner is
        that pixel has the one-hot vector ``e_l`` at all four corners, so a
        bilinear sample in it is ``e_l`` and its slopes are zero; -1 otherwise
        (the band, and the last row and column, which start no cell)."""
        return _cell_labels(self.channels)

    @cached_property
    def label_sq_distances(self) -> np.ndarray:
        """``(K+1, H*W)`` table: row ``l < K`` holds ``sum_k (e_l,k - c_k,p)^2``
        for each pixel ``p``; row ``K`` is zero, so the band's label -1 reads 0."""
        return _label_sq_distances(self.channels)


def _cell_labels(channels: np.ndarray) -> np.ndarray:
    _, h, w = channels.shape
    binary = np.all((channels == 0.0) | (channels == 1.0), axis=0)
    label = np.where(binary & (channels.sum(axis=0) == 1.0), channels.argmax(axis=0), -1)
    corner = label[:-1, :-1]
    same = (corner == label[:-1, 1:]) & (corner == label[1:, :-1]) & (corner == label[1:, 1:])
    cells = np.full((h, w), -1, dtype=np.intp)
    cells[:-1, :-1] = np.where(same, corner, -1)
    cells = cells.reshape(-1)
    cells.flags.writeable = False
    return cells


def _label_sq_distances(channels: np.ndarray) -> np.ndarray:
    k = channels.shape[0]
    flat = channels.reshape(k, -1)
    table = np.zeros((k + 1, flat.shape[1]))
    for label in range(k):
        diff = flat.copy()
        diff[label] -= 1.0
        table[label] = np.sum(diff * diff, axis=0)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# sampling


class SampleGeometry:
    """Where bilinear samples at (px, py) fall on an ``(h, w)`` pixel grid.

    Built once per set of coordinates and shared by every channel sampled
    there: the flat index ``i00`` of the top-left of the four surrounding
    pixels (the others are ``i00 + 1``, ``i00 + w`` and ``i00 + w + 1``), the
    interpolation weights, and which coordinates lie inside the domain.
    Coordinates are clamped to the domain; a clamped coordinate gets zero
    positional derivative, so that no force is exerted through the clamp.
    """

    _ARRAYS = ("i00", "fx", "fy", "gx", "gy", "in_x", "in_y")  # one entry per sample
    __slots__ = ("shape", *_ARRAYS)

    def __init__(self, px, py, shape):
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise DomainError("sample coordinates must be finite")
        h, w = shape
        if h < 2 or w < 2:
            raise DomainError("sampling needs at least 2 pixels per axis")
        cx = np.minimum(np.maximum(px, 0.0), w - 1.0)
        cy = np.minimum(np.maximum(py, 0.0), h - 1.0)
        # clamping x0 to w-2 and y0 to h-2 keeps every corner on the grid
        x0 = np.minimum(np.floor(cx).astype(np.intp), w - 2)
        y0 = np.minimum(np.floor(cy).astype(np.intp), h - 2)
        self.shape = (h, w)
        self.fx = cx - x0
        self.fy = cy - y0
        self.gx = 1 - self.fx
        self.gy = 1 - self.fy
        self.i00 = y0 * w + x0
        # a finite coordinate lies in the domain exactly when clamping kept it
        self.in_x = cx == px
        self.in_y = cy == py

    def subset(self, idx) -> SampleGeometry:
        """The geometry of the samples at flat positions ``idx``, taken from this one."""
        sub = SampleGeometry.__new__(SampleGeometry)
        sub.shape = self.shape
        for name in SampleGeometry._ARRAYS:
            setattr(sub, name, getattr(self, name).take(idx))
        return sub


def _corners(data: np.ndarray, g: SampleGeometry):
    """Values at the four corners of every sample, for one ``(h, w)`` channel or
    a ``(K, h, w)`` stack; the three other corners are read from offset views."""
    if data.shape[-2:] != g.shape:
        raise DomainError(f"sampled data {data.shape} does not match the geometry {g.shape}")
    h, w = g.shape
    flat = data.reshape(*data.shape[:-2], h * w)
    i = g.i00
    return (flat.take(i, axis=-1), flat[..., 1:].take(i, axis=-1),
            flat[..., w:].take(i, axis=-1), flat[..., w + 1:].take(i, axis=-1))


def bilinear_sample_with_grad(data: np.ndarray, g: SampleGeometry) -> np.ndarray:
    """Bilinear interpolation of ``data`` at the geometry's points.

    Values only: the coordinate derivatives come from :func:`bilinear_slopes`.
    The name is kept because ``perfbench/run.py`` wraps it by that name."""
    v00, v01, v10, v11 = _corners(data, g)
    return g.gy * (g.gx * v00 + g.fx * v01) + g.fy * (g.gx * v10 + g.fx * v11)


def bilinear_slopes(data: np.ndarray, g: SampleGeometry):
    """Derivatives of the bilinear interpolant w.r.t. the sample coordinates, as (ddx, ddy),
    for one channel or, with a leading axis, for each channel of a stack.

    A clamped coordinate no longer moves the sample, so its derivative is
    zero; the other axis keeps its usual interpolant derivative."""
    v00, v01, v10, v11 = _corners(data, g)
    ddx = g.gy * (v01 - v00) + g.fy * (v11 - v10)
    ddy = g.gx * (v10 - v00) + g.fx * (v11 - v01)
    return ddx * g.in_x, ddy * g.in_y


def nearest_sample(labels: np.ndarray, g: SampleGeometry) -> np.ndarray:
    """Nearest-pixel lookup at the geometry's clamped points; ties round half-up on both axes."""
    return labels.take(g.i00 + (g.fx >= 0.5) + g.shape[1] * (g.fy >= 0.5))


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
    """Central differences in the interior, one-sided on the boundary; returns (gx, gy)."""
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise DomainError("gradient needs at least 3 pixels per axis")
    return _diff_x(data, spacing), _diff_y(data, spacing)


def gradient_adjoint(qx: np.ndarray, qy: np.ndarray, spacing: float) -> np.ndarray:
    """Transpose of :func:`central_gradient_raw` applied to a cotangent pair."""
    h = spacing
    g = np.zeros_like(qx)
    # x-derivative transpose
    mid, first, last = qx[:, 1:-1] / (2.0 * h), qx[:, 0] / h, qx[:, -1] / h
    g[:, 2:] += mid
    g[:, :-2] -= mid
    g[:, 0] -= first
    g[:, 1] += first
    g[:, -1] += last
    g[:, -2] -= last
    # y-derivative transpose
    mid, first, last = qy[1:-1, :] / (2.0 * h), qy[0, :] / h, qy[-1, :] / h
    g[2:, :] += mid
    g[:-2, :] -= mid
    g[0, :] -= first
    g[1, :] += first
    g[-1, :] += last
    g[-2, :] -= last
    return g


# ---------------------------------------------------------------------------
# pyramids and normalization


def block_mean(data: np.ndarray) -> np.ndarray:
    """2x2 block means over the last two axes; odd sizes are edge-padded first."""
    *lead, h, w = data.shape
    if h % 2 or w % 2:
        data = np.pad(data, [(0, 0)] * len(lead) + [(0, h % 2), (0, w % 2)], mode="edge")
        h, w = h + h % 2, w + w % 2
    return data.reshape(*lead, h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def downsample(img: Image2D) -> Image2D:
    """Factor-2 reduction by 2x2 block averaging; odd sizes are edge-padded first."""
    return Image2D(block_mean(img.data), spacing=img.spacing * 2.0)


def normalize_intensity(img: Image2D) -> Image2D:
    """Affinely map intensities to [0, 1]; a constant image maps to all zeros."""
    lo = img.data.min()
    hi = img.data.max()
    if hi == lo:
        return Image2D(np.zeros_like(img.data), spacing=img.spacing)
    return Image2D((img.data - lo) / (hi - lo), spacing=img.spacing)


def to_one_hot(lab: LabelMap) -> OneHotStack:
    """Binary K-channel encoding; channel k is 1 exactly where the label is k."""
    k = lab.num_classes
    channels = np.zeros((k, lab.height, lab.width), dtype=np.float64)
    for c in range(k):
        channels[c] = lab.labels == c
    return OneHotStack(channels)
