"""Cubic B-spline control grids, dense displacement fields, and warping.

A control grid with spacing ``s`` places lattice node ``l`` at pixel ``l * s``
and keeps one ring of exterior nodes on every side, so the array column for
lattice index ``l`` is ``l + 1``. The dense displacement at pixel ``x`` is the
tensor-product expansion of the centered cubic B-spline over the 4x4
surrounding coefficients. Coefficients and fields are in pixel units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HUGE, TINY, ConfigurationError, DomainError, check_real
from .image import (
    Image2D,
    LabelMap,
    SampleGeometry,
    bilinear_sample_with_grad,
    central_gradient_raw,
    nearest_sample,
)

__all__ = [
    "ControlGrid",
    "DisplacementField",
    "DeformationQuality",
    "cubic_bspline",
    "make_grid",
    "densify",
    "pixel_positions",
    "grid_sample_coords",
    "splat_to_grid",
    "prolongate",
    "random_smooth_deformation",
    "warp_image",
    "warp_labels",
    "deformation_quality",
]


@dataclass
class ControlGrid:
    """B-spline coefficient lattice; coeffs has shape (rows, cols, 2)."""

    spacing_px: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 3 or self.coeffs.shape[2] != 2:
            raise DomainError(f"grid coeffs must be (rows, cols, 2), got {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("grid coefficients must be finite")
        check_real(self.spacing_px, "control spacing", TINY, HUGE, DomainError)

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]


@dataclass
class DisplacementField:
    """Dense per-pixel displacement u; the deformation is y(x) = x + u(x)."""

    u: np.ndarray  # (H, W, 2), u[..., 0] along width
    spacing: float = 1.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 3 or self.u.shape[2] != 2:
            raise DomainError(f"field must be (H, W, 2), got {self.u.shape}")
        if not np.all(np.isfinite(self.u)):
            raise DomainError("field values must be finite")
        check_real(self.spacing, "spacing", TINY, HUGE, DomainError)

    @property
    def width(self) -> int:
        return self.u.shape[1]

    @property
    def height(self) -> int:
        return self.u.shape[0]


@dataclass
class DeformationQuality:
    jacobian_det: np.ndarray
    folding_fraction: float


def cubic_bspline(t):
    """Centered uniform cubic B-spline basis; support [-2, 2], value 2/3 at 0."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    near = t < 1.0
    mid = (t >= 1.0) & (t < 2.0)
    out[near] = (4.0 - 6.0 * t[near] ** 2 + 3.0 * t[near] ** 3) / 6.0
    out[mid] = (2.0 - t[mid]) ** 3 / 6.0
    return out


def grid_shape_for(width: int, height: int, spacing_px: float):
    cols = math.ceil((width - 1) / spacing_px) + 3
    rows = math.ceil((height - 1) / spacing_px) + 3
    return rows, cols


def make_grid(width: int, height: int, spacing_px: float) -> ControlGrid:
    """Zero-coefficient grid covering a width x height pixel domain."""
    rows, cols = grid_shape_for(width, height, spacing_px)
    return ControlGrid(spacing_px, np.zeros((rows, cols, 2)))


def _check_coverage(grid: ControlGrid, width: int, height: int):
    rows, cols = grid_shape_for(width, height, grid.spacing_px)
    if grid.cols < cols or grid.rows < rows:
        raise ConfigurationError(
            f"grid {grid.rows}x{grid.cols} (spacing {grid.spacing_px}) does not cover "
            f"a {width}x{height} image (needs {rows}x{cols})"
        )


def _basis_matrix(t, n: int) -> np.ndarray:
    """Dense (len(t), n) matrix of cubic B-spline weights at lattice coordinates t.

    Node l sits at t = l. Row i holds the 4 taps of t[i] at their array columns
    (lattice index + 1). Taps beyond the lattice fold onto the nearest edge
    column, which preserves partition of unity outside the covered box.
    """
    t = np.asarray(t, dtype=np.float64)
    i0 = np.floor(t).astype(np.intp)
    f = t - i0
    rows = np.arange(t.size)
    out = np.zeros((t.size, n))
    for a in range(4):
        # one tap per row, so no index repeats within this assignment
        out[rows, np.clip(i0 + a, 0, n - 1)] += cubic_bspline(f - (a - 1.0))
    return out


def _second_difference(b: np.ndarray) -> np.ndarray:
    """Edge-replicated second difference along axis 0: p[:-2] + p[2:] - 2b."""
    p = np.pad(b, ((1, 1), (0, 0)), mode="edge")
    return p[:-2] + p[2:] - 2.0 * b


@lru_cache(maxsize=32)
def _level_operators(height: int, width: int, spacing: float, rows: int, cols: int):
    """Read-only fixed operators of a level: its pixel basis matrices By (height, rows)
    and Bx (width, cols), and the curvature Gram matrices stacked as
    G = [Ly'Ly; Ly'By; By'Ly; By'By] and H = [Bx'Bx; Lx'Bx; Bx'Lx; Lx'Lx] (' is the
    transpose, Ly, Lx the second differences of By, Bx). The Laplacian stencil of
    u = By C Bx' is Ly C Bx' + By C Lx', of squared norm <C, K(C)>, K(C) = sum_i G_i C H_i."""
    by = _basis_matrix(np.arange(height, dtype=np.float64) / spacing, rows)
    bx = _basis_matrix(np.arange(width, dtype=np.float64) / spacing, cols)
    ly, lx = _second_difference(by), _second_difference(bx)
    g = np.concatenate([ly.T @ ly, ly.T @ by, by.T @ ly, by.T @ by])
    h = np.concatenate([bx.T @ bx, lx.T @ bx, bx.T @ lx, lx.T @ lx])
    for m in (by, bx, g, h):
        m.flags.writeable = False
    return by, bx, g, h


def level_operators(grid: ControlGrid, width: int, height: int):
    """``(By, Bx, G, H)`` of :func:`_level_operators` for a grid that covers a
    width x height level; the one place a level's operators are checked and looked up."""
    _check_coverage(grid, width, height)
    return _level_operators(height, width, grid.spacing_px, grid.rows, grid.cols)


def _expand(coeffs: np.ndarray, by: np.ndarray, bx: np.ndarray, out=None) -> np.ndarray:
    """Tensor-product expansion by @ coeffs[..., j] @ bx.T of both components,
    stacked on the last axis, or written into the two planes of ``out``."""
    if out is None:
        return np.stack([by @ coeffs[..., j] @ bx.T for j in range(2)], axis=-1)
    for j in range(2):
        np.matmul(by @ coeffs[..., j], bx.T, out=out[j])
    return out


def densify(grid: ControlGrid, width: int, height: int,
            spacing: float = 1.0) -> DisplacementField:
    """Expand the control grid into a dense per-pixel displacement field on a
    level whose pixels have edge length ``spacing``."""
    by, bx, _, _ = level_operators(grid, width, height)
    return DisplacementField(_expand(grid.coeffs, by, bx), spacing)


def pixel_positions(height: int, width: int) -> np.ndarray:
    """``(2, height, width)`` planes holding each pixel's x and y."""
    pos = np.empty((2, height, width))
    pos[0] = np.arange(width, dtype=np.float64)
    pos[1] = np.arange(height, dtype=np.float64)[:, None]
    return pos


def grid_sample_coords(grid: ControlGrid, positions: np.ndarray, out: np.ndarray):
    """Sample positions x + u(x) of the grid's dense field at the pixels of
    ``positions`` (from :func:`pixel_positions`), as :func:`sample_coords` gives
    them, written into the two planes of ``out`` without building a
    :class:`DisplacementField`. Adding whole planes iterates contiguous memory,
    where broadcasting a row of positions makes numpy allocate an iterator
    buffer on every call."""
    _, height, width = positions.shape
    by, bx, _, _ = level_operators(grid, width, height)
    px, py = _expand(grid.coeffs, by, bx, out)
    px += positions[0]
    py += positions[1]
    return px, py


def splat_to_grid(grad_u: np.ndarray, grid: ControlGrid) -> np.ndarray:
    """Transpose of :func:`densify`: scatter a per-pixel cotangent to coefficients."""
    by, bx, _, _ = level_operators(grid, grad_u.shape[1], grad_u.shape[0])
    return _expand(grad_u, by.T, bx.T)


def prolongate(grid: ControlGrid, fine_width: int, fine_height: int) -> ControlGrid:
    """Transfer a coarse-level grid to a level with half the pixel spacing.

    The fine coefficients are the coarse field sampled at the fine control
    point locations and doubled (pixel units halve), which reproduces the
    coarse field up to interpolation error.
    """
    rows_f, cols_f = grid_shape_for(fine_width, fine_height, grid.spacing_px)
    # fine lattice node l sits at fine pixel l*s, i.e. coarse lattice position
    # l/2; exterior fine nodes fall outside the coarse lattice, so evaluate through
    # a linearly extrapolated pad of `pad` nodes (exact for constant/linear fields)
    pad = 3
    ext = _extrapolate_pad(grid.coeffs, pad)
    tx = (np.arange(cols_f, dtype=np.float64) - 1.0) / 2.0 + pad
    ty = (np.arange(rows_f, dtype=np.float64) - 1.0) / 2.0 + pad
    fine = _expand(ext, _basis_matrix(ty, ext.shape[0]), _basis_matrix(tx, ext.shape[1]))
    return ControlGrid(grid.spacing_px, 2.0 * fine)


def _extrapolate_pad(coeffs: np.ndarray, pad: int) -> np.ndarray:
    """Pad a coefficient lattice by linear extrapolation along both axes."""
    out = coeffs
    for axis in (0, 1):
        out = np.moveaxis(out, axis, 0)
        first = out[0] + np.arange(pad, 0, -1)[:, None, None] * (out[0] - out[1])
        last = out[-1] + np.arange(1, pad + 1)[:, None, None] * (out[-1] - out[-2])
        out = np.concatenate([first, out, last], axis=0)
        out = np.moveaxis(out, 0, axis)
    return out


def random_smooth_deformation(width: int, height: int, magnitude_px: float,
                              seed: int, spacing_px: float = 16.0) -> ControlGrid:
    """Seeded grid with iid uniform coefficients in [-magnitude, +magnitude] per axis.

    Convexity of the B-spline weights bounds the dense displacement by the
    same magnitude.
    """
    rows, cols = grid_shape_for(width, height, spacing_px)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-magnitude_px, magnitude_px, size=(rows, cols, 2))
    return ControlGrid(spacing_px, coeffs)


# ---------------------------------------------------------------------------
# warping


def sample_coords(field: DisplacementField):
    """Per-pixel sample positions x + u(x) as (px, py)."""
    h, w = field.height, field.width
    return (field.u[..., 0] + np.arange(w, dtype=np.float64),
            field.u[..., 1] + np.arange(h, dtype=np.float64)[:, None])


def warp_image(m: Image2D, field: DisplacementField) -> Image2D:
    """Resample the moving image at x + u(x) with bilinear interpolation."""
    px, py = sample_coords(field)
    geom = SampleGeometry(m.data.shape, px.shape).fill(px, py)
    return Image2D(bilinear_sample_with_grad(m.data, geom), spacing=m.spacing)


def warp_labels(lab: LabelMap, field: DisplacementField) -> LabelMap:
    """Nearest-neighbor label warp; evaluation only, never inside the loss."""
    return LabelMap(nearest_sample(lab.labels, *sample_coords(field)),
                    num_classes=lab.num_classes)


def deformation_quality(field: DisplacementField) -> DeformationQuality:
    """Per-pixel det of the deformation Jacobian and the fraction with det <= 0."""
    y1, y2 = sample_coords(field)
    # derivatives w.r.t. pixel index: y and u are both in pixel units
    j11, j12 = central_gradient_raw(y1, 1.0)
    j21, j22 = central_gradient_raw(y2, 1.0)
    det = j11 * j22 - j12 * j21
    folding = float(np.count_nonzero(det <= 0.0)) / det.size
    return DeformationQuality(jacobian_det=det, folding_fraction=folding)
