"""Property tests of the operators the loss is built from, at random sizes and spacings.

Each adjoint pair must satisfy <A f, q> = <f, A^T q>, and the analytic
gradient of the combined loss must match finite differences even where
samples are clamped outside the domain.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defreg import Image2D, LabelMap, LossWeights, make_grid, to_one_hot, total_loss
from defreg.bspline import ControlGrid, densify, splat_to_grid
from defreg.image import central_gradient_raw, gradient_adjoint, laplacian_adjoint, laplacian_raw
from defreg.phantom import _gaussian_blur

SIZES = st.integers(3, 23)
SPACINGS = st.floats(0.25, 4.0)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None)


@PROPERTY
@given(w=SIZES, h=SIZES, spacing=st.floats(1.0, 9.0), seed=SEEDS)
def test_splat_is_adjoint_of_densify(w, h, spacing, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(w, h, spacing)
    coeffs = rng.standard_normal(grid.coeffs.shape)
    cot = rng.standard_normal((h, w, 2))
    u = densify(ControlGrid(spacing, coeffs), w, h).u
    assert np.sum(u * cot) == pytest.approx(
        np.sum(coeffs * splat_to_grid(cot, grid)), rel=1e-10, abs=1e-10)


@PROPERTY
@given(w=SIZES, h=SIZES, spacing=SPACINGS, seed=SEEDS)
def test_gradient_adjoint_identity(w, h, spacing, seed):
    rng = np.random.default_rng(seed)
    f, qx, qy = rng.standard_normal((3, h, w))
    gx, gy = central_gradient_raw(f, spacing)
    assert np.sum(gx * qx) + np.sum(gy * qy) == pytest.approx(
        np.sum(f * gradient_adjoint(qx, qy, spacing)), rel=1e-10, abs=1e-10)


@PROPERTY
@given(w=SIZES, h=SIZES, spacing=SPACINGS, seed=SEEDS)
def test_laplacian_adjoint_identity(w, h, spacing, seed):
    rng = np.random.default_rng(seed)
    f, q = rng.standard_normal((2, h, w))
    assert np.sum(laplacian_raw(f, spacing) * q) == pytest.approx(
        np.sum(f * laplacian_adjoint(q, spacing)), rel=1e-10, abs=1e-10)


@PROPERTY
@given(w=SIZES, h=SIZES, spacing=SPACINGS, seed=SEEDS)
def test_laplacian_matches_clipped_neighbour_oracle(w, h, spacing, seed):
    """Edge replication is the stencil with neighbour indices clipped to the grid."""
    f = np.random.default_rng(seed).standard_normal((h, w))
    y, x = np.arange(h)[:, None], np.arange(w)[None, :]
    up, down = f[np.clip(y - 1, 0, h - 1), x], f[np.clip(y + 1, 0, h - 1), x]
    left, right = f[y, np.clip(x - 1, 0, w - 1)], f[y, np.clip(x + 1, 0, w - 1)]
    oracle = (up + down + left + right - 4.0 * f) / (spacing * spacing)
    assert np.array_equal(laplacian_raw(f, spacing), oracle)


@settings(max_examples=15, deadline=None)
@given(w=st.integers(8, 14), h=st.integers(8, 14), spacing_px=st.floats(3.0, 6.0),
       seed=SEEDS)
def test_total_loss_gradient_with_clamped_samples(w, h, spacing_px, seed):
    """Central differences of the loss match its gradient; the coefficients push
    some samples past the image border, where they are clamped."""
    rng = np.random.default_rng(seed)
    fixed = Image2D(rng.random((h, w)))
    moving = Image2D(rng.random((h, w)))
    foh = to_one_hot(LabelMap(rng.integers(0, 3, (h, w)), num_classes=3))
    moh = to_one_hot(LabelMap(rng.integers(0, 3, (h, w)), num_classes=3))
    shape = make_grid(w, h, spacing_px).coeffs.shape
    coeffs = rng.normal(size=shape) * 0.4
    coeffs[:2] -= 4.0  # the top rows of the field move by about -4 px in x and y
    grid = ControlGrid(spacing_px, coeffs)
    fld = densify(grid, w, h)
    px = np.arange(w) + fld.u[..., 0]
    py = np.arange(h)[:, None] + fld.u[..., 1]
    assert np.any(px < 0) and np.any(py < 0)
    eps = 1e-6
    # bilinear sampling and the clamp have kinks at integer coordinates; a sample
    # that a step of eps carries across one would make the difference quotient
    # average two slopes, so such draws are discarded (they are rare)
    coords = np.concatenate([px.ravel(), py.ravel()])
    assume(np.min(np.abs(coords - np.round(coords))) > 10 * eps)
    weights = LossWeights(delta=1.0, alpha=3.0, beta=2.0)
    grad = total_loss(fixed, moving, foh, moh, grid, weights).grad_total
    for idx in map(tuple, rng.integers(0, shape, size=(6, 3))):
        bumped = coeffs.copy()
        bumped[idx] += eps
        up = total_loss(fixed, moving, foh, moh, ControlGrid(spacing_px, bumped), weights,
                        with_grad=False).total
        bumped[idx] -= 2 * eps
        down = total_loss(fixed, moving, foh, moh, ControlGrid(spacing_px, bumped), weights,
                          with_grad=False).total
        assert grad[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(w=st.integers(3, 20), h=st.integers(5, 20),
       sigma=st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0, 3.3, 6.0]) | st.floats(0.05, 7.0),
       seed=SEEDS)
def test_gaussian_blur_matches_scipy(w, h, sigma, seed):
    ndimage = pytest.importorskip("scipy.ndimage")
    x = np.random.default_rng(seed).random((h, w))
    assert np.array_equal(_gaussian_blur(x, sigma), ndimage.gaussian_filter(x, sigma, mode="nearest"))
