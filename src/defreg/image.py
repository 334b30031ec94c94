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

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HUGE, TINY, DomainError, check_count, check_real

__all__ = [
    "Image2D",
    "LabelMap",
    "OneHotStack",
    "SampleGeometry",
    "bilinear_sample_with_grad",
    "bilinear_slopes",
    "cell_differences",
    "nearest_sample",
    "central_gradient_raw",
    "gradient_adjoint",
    "block_mean",
    "downsample",
    "normalize_intensity",
    "to_one_hot",
]


@dataclass(frozen=True, eq=False)
class Image2D:
    """Scalar intensity field on a pixel grid. Immutable, like :class:`OneHotStack`:
    the data is a read-only copy, so the read-only arrays derived from it on first
    use (the properties below) never go stale. They live and die with the image."""

    data: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DomainError(f"image data must be 2D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise DomainError(f"image must be non-empty, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DomainError("image intensities must be finite")
        check_real(self.spacing, "spacing", TINY, HUGE, DomainError)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @cached_property
    def gradient(self):
        """The :func:`central_gradient_raw` planes gx, gy and their squared norm
        ``gx * gx + gy * gy``, which NGF reads from the fixed image."""
        gx, gy = central_gradient_raw(self.data, self.spacing)
        norm = gx * gx + gy * gy
        gx.flags.writeable = gy.flags.writeable = norm.flags.writeable = False
        return gx, gy, norm

    @cached_property
    def cell_differences(self):
        """The data's :func:`cell_differences`, which :func:`bilinear_slopes` reads."""
        return cell_differences(self.data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Integer segmentation with ``num_classes`` labels including background 0.
    Immutable, like :class:`Image2D`: the labels are a read-only int32 copy."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        k = check_count(self.num_classes, "num_classes", 1, DomainError)
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise DomainError(f"label data must be 2D, got shape {labels.shape}")
        # checked before the cast to int32, which would truncate 1.7 to 1
        if labels.dtype.kind == "f" and not np.array_equal(labels, np.trunc(labels)):
            raise DomainError("labels must be integers")
        if labels.min(initial=0) < 0:
            raise DomainError("labels must be non-negative")
        if labels.size and labels.max() >= k:
            raise DomainError(f"label {labels.max()} out of range for num_classes={k}")
        labels = np.array(labels, dtype=np.int32)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class OneHotStack:
    """K scalar channels over one pixel grid; channels from a LabelMap are binary.
    Immutable, and its derived arrays read-only and built on first use, as an :class:`Image2D`'s."""

    channels: np.ndarray  # (K, H, W)

    def __post_init__(self):
        channels = np.array(self.channels, dtype=np.float64)
        if channels.ndim != 3:
            raise DomainError(f"one-hot stack must be (K, H, W), got {channels.shape}")
        if channels.shape[0] < 1:
            raise DomainError("one-hot stack must have at least one channel")
        if not np.all(np.isfinite(channels)):
            raise DomainError("one-hot channels must be finite")
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
    def cell_differences(self):
        """The channels' :func:`cell_differences`, which :func:`bilinear_slopes` reads."""
        return cell_differences(self.channels)

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

    Filled once per set of coordinates and shared by every channel sampled
    there: the flat index ``i00`` of the top-left of the four surrounding
    pixels (the others are ``i00 + 1``, ``i00 + w`` and ``i00 + w + 1``), the
    interpolation weights, and which coordinates lie inside the domain.
    Coordinates are clamped to the domain; a clamped coordinate gets zero
    positional derivative, so that no force is exerted through the clamp.

    A geometry is made for one number of samples and rewritten in place by
    :meth:`fill` for each new set of coordinates.
    """

    _ARRAYS = ("i00", "fx", "fy", "gx", "gy", "in_x", "in_y")  # one entry per sample
    __slots__ = ("shape", "_x0", *_ARRAYS)

    def __init__(self, shape, sample_shape):
        """A geometry on a ``shape`` grid whose arrays, of ``sample_shape``, are
        written by :meth:`fill` (``_x0`` is its scratch) or as :meth:`subset`'s ``out``."""
        self.shape = tuple(shape)
        self.i00, self._x0 = (np.empty(sample_shape, dtype=np.intp) for _ in range(2))
        self.fx, self.fy, self.gx, self.gy = (np.empty(sample_shape) for _ in range(4))
        self.in_x, self.in_y = (np.empty(sample_shape, dtype=bool) for _ in range(2))

    def fill(self, px, py) -> SampleGeometry:
        """Rewrite the arrays in place for samples at (px, py), float64 arrays of
        the arrays' shape, and return the geometry."""
        in_x, in_y, i00, x0 = self.in_x, self.in_y, self.i00, self._x0
        # the masks hold the finiteness test until they are built
        if not (np.isfinite(px, out=in_x).all() and np.isfinite(py, out=in_y).all()):
            raise DomainError("sample coordinates must be finite")
        h, w = self.shape
        if h < 2 or w < 2:
            raise DomainError("sampling needs at least 2 pixels per axis")
        # gx and gy hold the clamped coordinates until the masks are built
        cx = np.minimum(np.maximum(px, 0.0, out=self.gx), w - 1.0, out=self.gx)
        cy = np.minimum(np.maximum(py, 0.0, out=self.gy), h - 1.0, out=self.gy)
        # clamping x0 to w-2 and y0 to h-2 keeps every corner on the grid, so i00
        # lies in [0, h*w - w - 2] and take(mode="clip") clips nothing. fx and
        # fy hold x0 and y0 as floats, which they are exactly; the integer copies
        # are made by copyto, since a ufunc mixing int and float operands casts
        # through a 64 KiB buffer
        x0f = np.minimum(np.floor(cx, out=self.fx), w - 2.0, out=self.fx)
        y0f = np.minimum(np.floor(cy, out=self.fy), h - 2.0, out=self.fy)
        np.copyto(x0, x0f, casting="unsafe")
        np.copyto(i00, y0f, casting="unsafe")
        np.multiply(i00, w, out=i00)
        i00 += x0
        np.subtract(cx, x0f, out=self.fx)
        np.subtract(cy, y0f, out=self.fy)
        # a finite coordinate lies in the domain exactly when clamping kept it
        np.equal(cx, px, out=in_x)
        np.equal(cy, py, out=in_y)
        np.subtract(1, self.fx, out=self.gx)
        np.subtract(1, self.fy, out=self.gy)
        return self

    def subset(self, idx, out: SampleGeometry | None = None) -> SampleGeometry:
        """The geometry of the samples at flat positions ``idx``, taken from this one;
        with ``out``, a geometry of at least ``len(idx)`` samples, its arrays are
        views of the first ``len(idx)`` entries of ``out``'s. A subset is not refilled."""
        sub = SampleGeometry.__new__(SampleGeometry)
        sub.shape = self.shape
        for name in SampleGeometry._ARRAYS:
            dst = None if out is None else getattr(out, name)[:len(idx)]
            setattr(sub, name, getattr(self, name).take(idx, out=dst, mode="clip"))
        return sub


def _corners(data: np.ndarray, g: SampleGeometry, out=None):
    """Values of one ``(h, w)`` channel at the four corners of every sample,
    written into ``out``, ``(4, *g.i00.shape)`` (allocated when None), and
    returned as its four planes.

    The three other corners are read from offset views of the flat data at
    ``i00``. ``take`` writes into a contiguous ``out`` in place with
    ``mode="clip"``; the geometry's clamp keeps ``i00`` in range, so nothing is clipped."""
    if data.shape != g.shape:
        raise DomainError(f"sampled data {data.shape} does not match the geometry {g.shape}")
    if out is None:
        out = np.empty((4, *g.i00.shape))
    flat = data.reshape(-1)
    for j, offset in enumerate((0, 1, g.shape[1], g.shape[1] + 1)):
        flat[offset:].take(g.i00, out=out[j, ...], mode="clip")
    # out[j, ...] is an array even for one sample, where out[j] would be a scalar
    return out[0, ...], out[1, ...], out[2, ...], out[3, ...]


def bilinear_sample_with_grad(data: np.ndarray, g: SampleGeometry, out=None,
                              corners=None) -> np.ndarray:
    """Bilinear interpolation of ``data`` at the geometry's points, written into
    ``out`` when given. ``corners`` is the ``(4, ...)`` scratch of :func:`_corners`.

    Values only: the coordinate derivatives come from :func:`bilinear_slopes`.
    The name is kept because ``perfbench/run.py`` wraps it by that name."""
    v00, v01, v10, v11 = _corners(data, g, corners)
    # gy * (gx * v00 + fx * v01) + fy * (gx * v10 + fx * v11), in the corners' arrays
    np.multiply(g.gx, v00, out=v00)
    v00 += np.multiply(g.fx, v01, out=v01)
    np.multiply(g.gx, v10, out=v10)
    v10 += np.multiply(g.fx, v11, out=v11)
    np.multiply(g.gy, v00, out=v00)
    np.multiply(g.fy, v10, out=v10)
    return np.add(v00, v10, out=out)


def cell_differences(data: np.ndarray):
    """Read-only ``Dx[i] = f[i+1] - f[i]`` and ``Dy[i] = f[i+w] - f[i]`` over the
    flat data ``f`` of a ``(h, w)`` channel or of each channel of a ``(K, h, w)`` stack."""
    w = data.shape[-1]
    flat = data.reshape(*data.shape[:-2], -1)
    dx, dy = flat[..., 1:] - flat[..., :-1], flat[..., w:] - flat[..., :-w]
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


def bilinear_slopes(diffs, g: SampleGeometry, out=None, scratch=None):
    """Derivatives of the bilinear interpolant w.r.t. the sample coordinates, as
    (ddx, ddy), of the channel or, with a leading axis, of each channel of the
    stack whose :func:`cell_differences` are ``diffs``; written into ``out[0]``
    and ``out[1]`` when given, with ``scratch``, an array of one output's shape.

    With the corners v00, v01, v10, v11 of :func:`_corners`, ddx = gy * (v01 -
    v00) + fy * (v11 - v10) and ddy = gx * (v10 - v00) + fx * (v11 - v01): the
    differences are Dx[i00], Dx[i00 + w], Dy[i00] and Dy[i00 + 1]. A clamped
    coordinate gets zero derivative; the other axis keeps its own."""
    dx, dy = diffs
    h, w = g.shape
    if dx.shape[-1] != h * w - 1 or dy.shape[-1] != h * w - w:
        raise DomainError(f"cell differences do not match the geometry {g.shape}")
    if out is None:
        out = np.empty((2, *dx.shape[:-1], *g.i00.shape))
    ddx, ddy = out[0, ...], out[1, ...]
    t = np.empty(ddx.shape) if scratch is None else scratch

    def take(d, offset, dst):  # d[..., offset + i00] into dst, as _corners reads
        for k in itertools.product(*map(range, d.shape[:-1])):  # np.ndindex costs ~1.5 us
            d[k][offset:].take(g.i00, out=dst[(*k, ...)], mode="clip")
        return dst
    np.multiply(take(dx, 0, ddx), g.gy, out=ddx)
    ddx += np.multiply(take(dx, w, t), g.fy, out=t)
    np.multiply(take(dy, 0, ddy), g.gx, out=ddy)
    ddy += np.multiply(take(dy, 1, t), g.fx, out=t)
    # times the masks as 1.0/0.0, as float * bool casts them; copyto casts
    # without the ufunc's buffer
    np.copyto(t, g.in_x)
    ddx *= t
    np.copyto(t, g.in_y)
    ddy *= t
    return ddx, ddy


def nearest_sample(labels: np.ndarray, px, py) -> np.ndarray:
    """Nearest-pixel lookup at (px, py) clamped to the ``labels`` grid; ties round
    half-up on both axes. Needs only rounded positions, not a :class:`SampleGeometry`."""
    index = []
    for p, n in ((py, labels.shape[0]), (px, labels.shape[1])):
        p = np.asarray(p, dtype=np.float64)
        if not np.isfinite(p).all():
            raise DomainError("sample coordinates must be finite")
        c = np.minimum(np.maximum(p, 0.0), n - 1.0)
        i = np.floor(c)
        index.append((i + (c - i >= 0.5)).astype(np.intp))
    return labels[tuple(index)]


# ---------------------------------------------------------------------------
# finite differences


# Both stencils run their interior as one pass over the flat C-contiguous arrays,
# stepping by the axis's stride: numpy iterates contiguous memory with no buffer,
# where an operation on column slices allocates up to three 64 KiB iterator
# buffers. Every entry gets the same IEEE operations, in the same order, as the
# stencil written per axis on slices. The ends of each line are rows 0 and -1 of
# the array along y and of its transpose along x.


def _diff(f: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """Central differences along ``axis`` of a C-contiguous ``(h, w)`` array, one-sided
    at both ends of each line, written into ``out``. Along x the flat pass also
    writes the row ends, differencing across rows; the one-sided ends overwrite them."""
    step = f.shape[1] if axis == 0 else 1
    interior = out.reshape(-1)[step:-step]
    flat = f.reshape(-1)
    np.subtract(flat[2 * step:], flat[:-2 * step], out=interior)
    interior /= 2.0 * h
    fe, ge = (f, out) if axis == 0 else (f.T, out.T)
    np.subtract(fe[1], fe[0], out=ge[0])
    ge[0] /= h
    np.subtract(fe[-1], fe[-2], out=ge[-1])
    ge[-1] /= h
    return out


def _add_diff_adjoint(g: np.ndarray, q: np.ndarray, h: float, axis: int):
    """``g += D' q`` in place, where D is :func:`_diff` along ``axis`` and ' the
    transpose; ``q`` is overwritten. Each line's end entries of ``q`` are kept aside
    and zeroed first, so along x the flat pass adds exact zeros across the row ends:
    ``g`` starts at +0.0 and is only summed into, so it is never -0.0, and
    ``g + 0.0`` is ``g``."""
    step = g.shape[1] if axis == 0 else 1
    qe, ge = (q, g) if axis == 0 else (q.T, g.T)
    first, last = qe[0] / h, qe[-1] / h
    qe[0] = 0.0
    qe[-1] = 0.0
    mid = q.reshape(-1)[step:-step]
    mid /= 2.0 * h
    flat = g.reshape(-1)
    flat[2 * step:] += mid
    flat[:-2 * step] -= mid
    ge[0] -= first
    ge[1] += first
    ge[-1] += last
    ge[-2] -= last


def central_gradient_raw(data: np.ndarray, spacing: float, out=None):
    """Central differences in the interior, one-sided on the boundary; returns (gx, gy),
    written into the pair ``out`` of C-contiguous arrays when given."""
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise DomainError("gradient needs at least 3 pixels per axis")
    data = np.ascontiguousarray(data, dtype=np.float64)
    gx, gy = np.empty((2, *data.shape)) if out is None else out
    return _diff(data, spacing, 1, gx), _diff(data, spacing, 0, gy)


def gradient_adjoint(qx: np.ndarray, qy: np.ndarray, spacing: float, out=None) -> np.ndarray:
    """Transpose of :func:`central_gradient_raw` applied to a cotangent pair. With
    ``out``, the result is written there and ``qx``, ``qy`` (C-contiguous, like
    ``out``) are overwritten; without, they are left as they are."""
    if out is None:
        qx, qy = (np.array(q, dtype=np.float64, order="C") for q in (qx, qy))
        out = np.empty(qx.shape)
    out.fill(0.0)
    _add_diff_adjoint(out, qx, spacing, 1)
    _add_diff_adjoint(out, qy, spacing, 0)
    return out


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
