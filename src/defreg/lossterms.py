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

from dataclasses import dataclass, field

import numpy as np

from .bspline import ControlGrid, DisplacementField, densify, sample_coords, splat_to_grid
from .errors import ConfigurationError, DomainError
from .image import (
    Image2D,
    OneHotStack,
    SampleGeometry,
    bilinear_sample_with_grad,
    bilinear_slopes,
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
        if not all(0 <= v < np.inf for v in (self.delta, self.alpha, self.beta)):
            raise ConfigurationError("loss weights must be non-negative and finite")
        if not 0 < self.epsilon < np.inf:
            raise ConfigurationError("edge parameter epsilon must be positive and finite")


@dataclass(frozen=True, slots=True)
class _ForwardState:
    """What the backward pass of one :func:`total_loss` evaluation needs.

    It holds arrays only, never the report it belongs to, so a report and its
    state are freed by reference counting as soon as the caller drops them.
    """

    grid: ControlGrid
    weights: LossWeights
    fld: DisplacementField
    geom: SampleGeometry
    moving: np.ndarray
    ngf: tuple | None  # the NGF adjoint's intermediates, None without the distance term
    channels: np.ndarray | None  # moving one-hot channels, None without the boundary term
    b_grad: np.ndarray | None  # boundary gradient w.r.t. the warped channels


@dataclass
class LossReport:
    d_value: float
    r_value: float
    b_value: float
    total: float
    grad_d: np.ndarray | None = None  # per-term gradients w.r.t. control coefficients
    grad_r: np.ndarray | None = None
    grad_b: np.ndarray | None = None
    grad_total: np.ndarray | None = None
    forward: _ForwardState | None = field(default=None, repr=False, compare=False)

    def backward(self) -> np.ndarray:
        """Fill the four gradients from the stored forward state, release that
        state, and return ``grad_total``; a second call only returns it."""
        s, self.forward = self.forward, None
        if s is None:
            return self.grad_total
        w = s.weights
        du_d = du_b = np.zeros_like(s.fld.u)
        if s.ngf is not None:
            d_grad_warped = _ngf_adjoint(s.ngf, s.fld.spacing)
            dmx, dmy = bilinear_slopes(s.moving, s.geom)
            du_d = np.stack([d_grad_warped * dmx, d_grad_warped * dmy], axis=-1)
        _, du_r = curvature(s.fld)
        if s.b_grad is not None:
            dkx, dky = zip(*(bilinear_slopes(ch, s.geom) for ch in s.channels))
            du_b = np.stack([np.sum(s.b_grad * np.stack(dkx), axis=0),
                             np.sum(s.b_grad * np.stack(dky), axis=0)], axis=-1)
        self.grad_d = splat_to_grid(du_d, s.grid)
        self.grad_r = splat_to_grid(du_r, s.grid)
        self.grad_b = splat_to_grid(du_b, s.grid)
        self.grad_total = w.delta * self.grad_d + w.alpha * self.grad_r + w.beta * self.grad_b
        return self.grad_total


def ngf_integrand(gfx, gfy, gmx, gmy, epsilon: float):
    """Pointwise NGF integrand 1 - <gM,gF>_eps^2 / (|gM|_eps^2 |gF|_eps^2), in [0,1]."""
    e2 = epsilon * epsilon
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    return 1.0 - (a * a) / (b * c)


def _ngf_core(fixed_data, warped_data, spacing: float, epsilon: float):
    """NGF value and the intermediates :func:`_ngf_adjoint` needs."""
    e2 = epsilon * epsilon
    gfx, gfy = central_gradient_raw(fixed_data, spacing)
    gmx, gmy = central_gradient_raw(warped_data, spacing)
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    sp2 = spacing * spacing
    value = 0.5 * sp2 * np.sum(1.0 - (a * a) / (b * c))
    return float(value), (gfx, gfy, gmx, gmy, a, b, c)


def _ngf_adjoint(inter, spacing: float) -> np.ndarray:
    """Gradient of the NGF value w.r.t. the warped intensity values."""
    gfx, gfy, gmx, gmy, a, b, c = inter
    sp2 = spacing * spacing
    # d(value)/d gM_j = sp2 * (a^2 gM_j / b^2 - a gF_j / b) / c
    qx = sp2 * (a * a * gmx / (b * b) - a * gfx / b) / c
    qy = sp2 * (a * a * gmy / (b * b) - a * gfy / b) / c
    return gradient_adjoint(qx, qy, spacing)


def ngf_distance(fixed: Image2D, warped: Image2D, epsilon: float = 0.1):
    """Normalized-gradient-fields distance between two same-size images.

    Returns (value, gradient w.r.t. the warped intensities); chaining that
    gradient through the warp's positional derivatives yields the gradient
    w.r.t. the sample positions.
    """
    if fixed.data.shape != warped.data.shape:
        raise DomainError("ngf_distance: image dimensions differ")
    value, inter = _ngf_core(fixed.data, warped.data, fixed.spacing, epsilon)
    return value, _ngf_adjoint(inter, fixed.spacing)


def curvature(fld: DisplacementField, with_grad: bool = True):
    """Curvature penalty 0.5 * integral of |Lap u_j|^2 and its gradient w.r.t. u
    (``None`` without ``with_grad``).

    Computed from the displacement u rather than y so the identity deformation
    scores exactly zero; at interior pixels the two agree since the stencil
    annihilates the identity part.
    """
    sp = fld.spacing
    sp2 = sp * sp
    lx = laplacian_raw(fld.u[..., 0], sp)
    ly = laplacian_raw(fld.u[..., 1], sp)
    value = 0.5 * sp2 * (np.sum(lx * lx) + np.sum(ly * ly))
    if not with_grad:
        return float(value), None
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

    This is the forward pass; the report keeps what the backward pass needs,
    and ``report.backward()`` fills the gradients later. ``with_grad`` runs
    the backward pass at once.

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
    geom = SampleGeometry(*sample_coords(fld), moving.data.shape)

    d_value = 0.0
    ngf = None
    if w.delta != 0.0:
        warped = bilinear_sample_with_grad(moving.data, geom)
        d_value, ngf = _ngf_core(fixed.data, warped, fixed.spacing, w.epsilon)

    r_value, _ = curvature(fld, with_grad=False)

    b_value = 0.0
    b_grad_warped = None
    if use_boundary:
        chans = [bilinear_sample_with_grad(ch, geom) for ch in moving_oh.channels]
        b_value, b_grad_warped = boundary_ssd(
            fixed_oh, OneHotStack(np.stack(chans), spacing=moving_oh.spacing))

    total = w.delta * d_value + w.alpha * r_value + w.beta * b_value
    report = LossReport(
        d_value=d_value, r_value=r_value, b_value=b_value, total=float(total),
        forward=_ForwardState(grid, w, fld, geom, moving.data, ngf,
                              moving_oh.channels if use_boundary else None, b_grad_warped))
    if with_grad:
        report.backward()
    return report
