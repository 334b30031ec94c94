"""The combined registration loss: delta*D + alpha*R + beta*B.

D is the normalized-gradient-fields edge distance, R the curvature
(Laplacian) regularizer, and B the sum of squared differences between the
fixed and warped one-hot segmentation stacks. Every gradient here is the
exact derivative of the fully discrete expression (bilinear sampling,
one-sided/central difference stencils, replicated-edge Laplacian), so finite
differences over control coefficients reproduce it to tight tolerance.

All integrals are un-normalized discrete sums, (sum over pixels) * spacing**2.

B is evaluated on a narrow band. Where a sample falls in a cell of the moving
stack whose four corners all carry the same one-hot vector e_l, the bilinear
sample is e_l and its slopes are zero, so the pixel adds the fixed stack's
precomputed |e_l - f_p|^2 and nothing to the gradient. Only the remaining band
pixels sample the K channels; on the 112/56/28 px phantom levels they are
about 3/10/24% of the pixels. A stack that is not one-hot is all band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bspline import ControlGrid, curvature_factors, densify, sample_coords, splat_to_grid
from .errors import ConfigurationError, DomainError
from .image import (
    Image2D,
    OneHotStack,
    SampleGeometry,
    bilinear_sample_with_grad,
    bilinear_slopes,
    central_gradient_raw,
    gradient_adjoint,
)

__all__ = ["LossWeights", "LossReport", "curvature", "boundary_ssd", "total_loss"]


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
    """What the backward pass of one :func:`total_loss` evaluation needs: bare
    arrays, from which :meth:`LossReport.backward` builds the cotangents only
    for the trials a caller accepts. It holds no reference to its report, so
    both are freed by reference counting as soon as the caller drops them.
    """

    grid: ControlGrid
    weights: LossWeights
    spacing: float  # pixel spacing of the level
    geom: SampleGeometry
    moving: np.ndarray
    ngf: tuple | None  # the NGF adjoint's intermediates, None without the distance term
    channels: np.ndarray | None  # moving one-hot channels, None without the boundary term
    band: np.ndarray | None  # flat indices of the band pixels
    band_geom: SampleGeometry | None  # where the band pixels sample the channels
    b_diff: np.ndarray | None  # warped minus fixed one-hot channels on the band, (K, band)


@dataclass
class LossReport:
    d_value: float
    r_value: float
    b_value: float
    total: float
    grad_d: np.ndarray | None = None  # per-term gradients w.r.t. control coefficients
    grad_r: np.ndarray | None = None  # set by the forward pass, the others by backward()
    grad_b: np.ndarray | None = None
    grad_total: np.ndarray | None = None
    forward: _ForwardState | None = field(default=None, repr=False, compare=False)

    def backward(self) -> np.ndarray:
        """Build the NGF and boundary cotangents from the stored forward state,
        fill ``grad_d``, ``grad_b`` and ``grad_total`` (the forward pass set
        ``grad_r``), release that state and return ``grad_total``; a second
        call only returns it."""
        s, self.forward = self.forward, None
        if s is None:
            return self.grad_total
        w = s.weights
        # an absent term's gradient is zero; only present terms are splatted
        self.grad_d = np.zeros_like(s.grid.coeffs)
        self.grad_b = np.zeros_like(s.grid.coeffs)
        if s.ngf is not None:
            d_grad_warped = _ngf_adjoint(s.ngf, s.spacing)
            dmx, dmy = bilinear_slopes(s.moving, s.geom)
            du_d = np.stack([d_grad_warped * dmx, d_grad_warped * dmy], axis=-1)
            self.grad_d = splat_to_grid(du_d, s.grid)
        if s.b_diff is not None:
            b_grad = s.b_diff  # the state is released: scale its difference in place
            b_grad *= s.spacing * s.spacing
            # the slopes are exactly zero off the band, so only band pixels get a force
            dkx, dky = zip(*(bilinear_slopes(ch, s.band_geom) for ch in s.channels))
            du_b = np.zeros((s.geom.i00.size, 2))
            du_b[s.band, 0] = np.sum(b_grad * np.stack(dkx), axis=0)
            du_b[s.band, 1] = np.sum(b_grad * np.stack(dky), axis=0)
            self.grad_b = splat_to_grid(du_b.reshape(*s.geom.shape, 2), s.grid)
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


def curvature(grid: ControlGrid, width: int, height: int, spacing: float):
    """Curvature penalty 0.5 * integral of |Lap u_j|^2 of the grid's dense field on
    a width x height level with pixel spacing ``spacing``, and its gradient w.r.t.
    the coefficients: 0.5/sp^2 * sum_j <C_j, K(C_j)> and K(C_j)/sp^2 for the map K
    of ``curvature_factors``, with no per-pixel work. Computed from u rather than
    y, so the identity scores exactly zero."""
    g, h = curvature_factors(grid, width, height)
    rows, cols = grid.rows, grid.cols
    # G @ C gives the four blocks G_i C_j of both components; laid side by side
    # as (2 * rows, 4 * cols) they meet H's four stacked blocks in one product
    gc = (g @ grid.coeffs.reshape(rows, 2 * cols)).reshape(4, rows, cols, 2)
    k = (gc.transpose(1, 3, 0, 2).reshape(2 * rows, 4 * cols) @ h).reshape(rows, 2, cols)
    grad = k.transpose(0, 2, 1) / (spacing * spacing)
    return 0.5 * float(np.sum(grid.coeffs * grad)), grad


def _ssd_core(fixed_channels, warped_channels, spacing: float):
    """Boundary SSD value and the difference ``warped - fixed`` its gradient is built from."""
    sp2 = spacing * spacing
    diff = warped_channels - fixed_channels
    value = 0.5 * sp2 * np.sum(diff * diff)
    return float(value), diff


def boundary_ssd(fixed_oh: OneHotStack, warped_oh: OneHotStack):
    """0.5 * sum over pixels of the squared one-hot difference (unit pixel spacing)
    and its gradient w.r.t. the warped channels, ``warped - fixed``."""
    if fixed_oh.channels.shape != warped_oh.channels.shape:
        raise DomainError("boundary_ssd: one-hot stacks differ in shape")
    return _ssd_core(fixed_oh.channels, warped_oh.channels, 1.0)


def total_loss(fixed: Image2D, moving: Image2D,
               fixed_oh: OneHotStack | None, moving_oh: OneHotStack | None,
               grid: ControlGrid, w: LossWeights, with_grad: bool = True) -> LossReport:
    """Evaluate the combined loss for a control grid and back-propagate to coefficients.

    This is the forward pass: the three values (B's from the kernel that
    :func:`boundary_ssd` uses) and the curvature gradient, which costs nothing
    more. The report keeps bare arrays, from which ``report.backward()`` builds
    the other gradients later; ``with_grad`` runs it at once.

    B is exact but narrow-band: one integer gather of ``moving_oh.cell_labels``
    at the samples' cells finds the pixels whose sample is a one-hot vector
    ``e_l``; they add ``fixed_oh.label_sq_distances[l, p]``. The K channels are
    sampled, and later differentiated, only on the other (band) pixels.

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
    if use_boundary and moving_oh.channels.shape[1:] != moving.data.shape:
        raise DomainError("total_loss: one-hot stacks and images differ in shape")

    px, py = sample_coords(densify(grid, fixed.width, fixed.height))
    geom = SampleGeometry(px, py, moving.data.shape)

    b_value = 0.0
    band = band_geom = b_diff = None
    if use_boundary:
        cells = moving_oh.cell_labels.take(geom.i00).reshape(-1)
        n = cells.size
        # row -1 of the table is zero, so band pixels add nothing here
        uniform = float(np.sum(fixed_oh.label_sq_distances.take(cells * n + np.arange(n))))
        band = np.flatnonzero(cells < 0)
        band_geom = SampleGeometry(px.take(band), py.take(band), moving.data.shape)
        warped_band = np.stack([bilinear_sample_with_grad(ch, band_geom)
                                for ch in moving_oh.channels])
        fixed_band = fixed_oh.channels.reshape(-1, n).take(band, axis=1)
        b_value, b_diff = _ssd_core(fixed_band, warped_band, fixed.spacing)
        b_value += 0.5 * fixed.spacing * fixed.spacing * uniform
    del px, py  # only the geometries need them: free them before the NGF arrays exist

    d_value = 0.0
    ngf = None
    if w.delta != 0.0:
        warped = bilinear_sample_with_grad(moving.data, geom)
        d_value, ngf = _ngf_core(fixed.data, warped, fixed.spacing, w.epsilon)

    r_value, grad_r = curvature(grid, fixed.width, fixed.height, fixed.spacing)

    total = w.delta * d_value + w.alpha * r_value + w.beta * b_value
    report = LossReport(
        d_value=d_value, r_value=r_value, b_value=b_value, total=float(total), grad_r=grad_r,
        forward=_ForwardState(grid, w, fixed.spacing, geom, moving.data, ngf,
                              moving_oh.channels if use_boundary else None,
                              band, band_geom, b_diff))
    if with_grad:
        report.backward()
    return report
