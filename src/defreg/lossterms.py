"""The combined registration loss: delta*D + alpha*R + beta*B.

D is the normalized-gradient-fields edge distance, R the curvature
(Laplacian) regularizer, and B the sum of squared differences between the
fixed and warped one-hot segmentation stacks. Every gradient here is the
exact derivative of the fully discrete expression (bilinear sampling,
one-sided/central difference stencils, replicated-edge Laplacian), so finite
differences over control coefficients reproduce it to tight tolerance.

All integrals are un-normalized discrete sums, (sum over pixels) * spacing**2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import ControlGrid, DisplacementField, densify, sample_coords, splat_to_grid
from .errors import ConfigurationError, DomainError
from .image import (
    Image2D,
    OneHotStack,
    bilinear_sample_with_grad,
    central_gradient_raw,
    gradient_adjoint,
    laplacian_raw,
    laplacian_adjoint,
)

__all__ = ["LossWeights", "LossReport", "ngf_distance", "curvature", "boundary_ssd", "total_loss"]


@dataclass
class LossWeights:
    delta: float = 1.0
    alpha: float = 1.0e3
    beta: float = 5.0e4
    epsilon: float = 0.1

    def __post_init__(self):
        if self.delta < 0 or self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if not (self.epsilon > 0):
            raise ConfigurationError("edge parameter epsilon must be positive")


@dataclass
class LossReport:
    d_value: float
    r_value: float
    b_value: float
    total: float
    weights: LossWeights
    grad_d: np.ndarray | None = None  # per-term gradients w.r.t. control coefficients
    grad_r: np.ndarray | None = None
    grad_b: np.ndarray | None = None
    grad_total: np.ndarray | None = None


def ngf_integrand(gfx, gfy, gmx, gmy, epsilon: float):
    """Pointwise NGF integrand 1 - <gM,gF>_eps^2 / (|gM|_eps^2 |gF|_eps^2), in [0,1]."""
    e2 = epsilon * epsilon
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    return 1.0 - (a * a) / (b * c)


def _ngf_core(fixed_data, warped_data, spacing: float, epsilon: float):
    """NGF value and its gradient w.r.t. the warped intensity values."""
    e2 = epsilon * epsilon
    gfx, gfy = central_gradient_raw(fixed_data, spacing)
    gmx, gmy = central_gradient_raw(warped_data, spacing)
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    sp2 = spacing * spacing
    value = 0.5 * sp2 * np.sum(1.0 - (a * a) / (b * c))
    # d(value)/d gM_j = sp2 * (a^2 gM_j / b^2 - a gF_j / b) / c
    qx = sp2 * (a * a * gmx / (b * b) - a * gfx / b) / c
    qy = sp2 * (a * a * gmy / (b * b) - a * gfy / b) / c
    grad_warped = gradient_adjoint(qx, qy, spacing)
    return float(value), grad_warped


def ngf_distance(fixed: Image2D, warped: Image2D, epsilon: float = 0.1):
    """Normalized-gradient-fields distance between two same-size images.

    Returns (value, gradient w.r.t. the warped intensities); chaining that
    gradient through the warp's positional derivatives yields the gradient
    w.r.t. the sample positions.
    """
    if fixed.data.shape != warped.data.shape:
        raise DomainError("ngf_distance: image dimensions differ")
    return _ngf_core(fixed.data, warped.data, fixed.spacing, epsilon)


def curvature(fld: DisplacementField):
    """Curvature penalty 0.5 * integral of |Lap u_j|^2 and its gradient w.r.t. u.

    Computed from the displacement u rather than y so the identity deformation
    scores exactly zero; at interior pixels the two agree since the stencil
    annihilates the identity part.
    """
    sp = fld.spacing
    sp2 = sp * sp
    lx = laplacian_raw(fld.u[..., 0], sp)
    ly = laplacian_raw(fld.u[..., 1], sp)
    value = 0.5 * sp2 * (np.sum(lx * lx) + np.sum(ly * ly))
    grad = np.empty_like(fld.u)
    grad[..., 0] = sp2 * laplacian_adjoint(lx, sp)
    grad[..., 1] = sp2 * laplacian_adjoint(ly, sp)
    return float(value), grad


def boundary_ssd(fixed_oh: OneHotStack, warped_oh: OneHotStack):
    """0.5 * integral of the squared one-hot difference and its gradient w.r.t. warped channels."""
    if fixed_oh.channels.shape != warped_oh.channels.shape:
        raise DomainError("boundary_ssd: one-hot stacks differ in shape")
    sp2 = fixed_oh.spacing * fixed_oh.spacing
    diff = warped_oh.channels - fixed_oh.channels
    value = 0.5 * sp2 * np.sum(diff * diff)
    return float(value), sp2 * diff


def total_loss(fixed: Image2D, moving: Image2D,
               fixed_oh: OneHotStack | None, moving_oh: OneHotStack | None,
               grid: ControlGrid, w: LossWeights, with_grad: bool = True) -> LossReport:
    """Evaluate the combined loss for a control grid and back-propagate to coefficients.

    With beta = 0 (or stacks absent) the boundary term is skipped entirely;
    with delta = 0 the image distance is skipped, leaving the purely
    label-driven loss.
    """
    if fixed.data.shape != moving.data.shape:
        raise DomainError("total_loss: fixed/moving dimensions differ")
    use_boundary = w.beta != 0.0 and fixed_oh is not None
    if use_boundary and moving_oh is None:
        raise DomainError("total_loss: fixed one-hot supplied without moving one-hot")
    if use_boundary and fixed_oh.channels.shape != moving_oh.channels.shape:
        raise DomainError("total_loss: one-hot channel mismatch")

    fld = densify(grid, fixed.width, fixed.height)
    fld.spacing = fixed.spacing
    px, py = sample_coords(fld)
    du_d = du_b = np.zeros_like(fld.u)

    d_value = 0.0
    if w.delta != 0.0:
        warped, dmx, dmy = bilinear_sample_with_grad(moving.data, px, py)
        d_value, d_grad_warped = _ngf_core(fixed.data, warped, fixed.spacing, w.epsilon)
        if with_grad:
            du_d = np.stack([d_grad_warped * dmx, d_grad_warped * dmy], axis=-1)

    r_value, du_r = curvature(fld)

    b_value = 0.0
    if use_boundary:
        chans, dkx, dky = zip(*(bilinear_sample_with_grad(ch, px, py)
                                for ch in moving_oh.channels))
        b_value, b_grad_warped = boundary_ssd(
            fixed_oh, OneHotStack(np.stack(chans), spacing=moving_oh.spacing))
        if with_grad:
            du_b = np.stack([np.sum(b_grad_warped * np.stack(dkx), axis=0),
                             np.sum(b_grad_warped * np.stack(dky), axis=0)], axis=-1)

    total = w.delta * d_value + w.alpha * r_value + w.beta * b_value
    report = LossReport(d_value=d_value, r_value=r_value, b_value=b_value,
                        total=float(total), weights=w)
    if with_grad:
        report.grad_d = splat_to_grid(du_d, grid)
        report.grad_r = splat_to_grid(du_r, grid)
        report.grad_b = splat_to_grid(du_b, grid)
        report.grad_total = w.delta * report.grad_d + w.alpha * report.grad_r + w.beta * report.grad_b
    return report
