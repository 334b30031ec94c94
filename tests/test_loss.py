"""Loss terms: analytic values, brute-force oracles, finite-difference gradients."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg import (
    ConfigurationError,
    DomainError,
    Image2D,
    LabelMap,
    LossWeights,
    boundary_ssd,
    curvature,
    make_grid,
    to_one_hot,
    total_loss,
)
from defreg.bspline import (
    ControlGrid,
    _level_operators,
    densify,
    level_operators,
    random_smooth_deformation,
    sample_coords,
    splat_to_grid,
)
from defreg.errors import HUGE
from defreg.image import (
    OneHotStack,
    SampleGeometry,
    bilinear_sample_with_grad,
    bilinear_slopes,
    cell_differences,
    central_gradient_raw,
)
from defreg.lossterms import LevelBuffers, _ngf_core, _ssd_core, ngf_integrand
from defreg.phantom import PhantomSpec, make_pair
from defreg.solver import _build_onehot_pyramid, _build_pyramid


def ngf_value_oracle(fixed, warped, epsilon):
    """NGF distance recomputed with numpy's own gradient stencils.

    np.gradient uses the same centered-interior / one-sided-boundary scheme,
    so this is an independent implementation of the full functional.
    """
    sp = fixed.spacing
    gfy, gfx = np.gradient(fixed.data, sp)
    gmy, gmx = np.gradient(warped.data, sp)
    e2 = epsilon * epsilon
    a = gmx * gfx + gmy * gfy + e2
    b = gmx * gmx + gmy * gmy + e2
    c = gfx * gfx + gfy * gfy + e2
    return 0.5 * sp * sp * np.sum(1.0 - a * a / (b * c))


def ngf_core(fixed, warped, spacing, epsilon):
    """``_ngf_core`` with the fixed image's planes built as ``total_loss`` builds them."""
    gfx, gfy, norm = Image2D(fixed, spacing).gradient
    return _ngf_core((gfx, gfy, norm + epsilon * epsilon), warped, spacing, epsilon)


class TestNgf:
    def test_integrand_range_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = rng.normal(size=4) * 10.0
            v = ngf_integrand(g[0], g[1], g[2], g[3], 0.1)
            assert 0.0 <= v <= 1.0

    def test_identical_images_zero(self):
        rng = np.random.default_rng(0)
        img = rng.random((12, 17))
        value, _ = ngf_core(img, img, 1.0, 0.1)
        assert value == 0.0

    def test_constant_images_zero(self):
        value, _ = ngf_core(np.full((9, 9), 0.3), np.full((9, 9), 0.8), 1.0, 0.1)
        assert value == 0.0

    def test_orthogonal_ramps_analytic(self):
        # F = x has gradient (1, 0) everywhere (the one-sided boundary stencil
        # is exact for affine data); M = y has (0, 1).  With eps = 0.1 the
        # integrand is 1 - eps^4 / (1 + eps^2)^2 at every pixel.
        h, w, eps = 11, 13, 0.1
        xx, yy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        value, _ = ngf_core(xx, yy, 1.0, eps)
        per_px = 1.0 - eps**4 / (1.0 + eps**2) ** 2
        assert value == pytest.approx(0.5 * h * w * per_px, rel=1e-12)

    def test_parallel_ramps_scale_insensitive(self):
        # F = x vs M = 2x: edge directions agree, so the distance is tiny and
        # exactly the analytic eps-blurred residual.
        h, w, eps = 8, 8, 0.1
        xx = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))[0]
        value, _ = ngf_core(xx, 2.0 * xx, 1.0, eps)
        e2 = eps * eps
        per_px = 1.0 - (2.0 + e2) ** 2 / ((4.0 + e2) * (1.0 + e2))
        assert value == pytest.approx(0.5 * h * w * per_px, rel=1e-12)
        assert value < 0.05 * h * w  # far below the orthogonal case

    def test_matches_numpy_gradient_oracle(self):
        rng = np.random.default_rng(11)
        for spacing in (1.0, 2.5):
            f = Image2D(rng.random((14, 10)), spacing=spacing)
            m = Image2D(rng.random((14, 10)), spacing=spacing)
            value, _ = ngf_core(f.data, m.data, spacing, 0.1)
            assert value == pytest.approx(ngf_value_oracle(f, m, 0.1), rel=1e-12)

    def test_value_is_integrand_sum_bit_for_bit(self):
        # criterion 2 bounds ngf_integrand; the solver's value is its sum
        rng = np.random.default_rng(12)
        f, m, spacing = rng.random((14, 10)), rng.random((14, 10)), 2.5
        value, _ = ngf_core(f, m, spacing, 0.1)
        integrand = ngf_integrand(*central_gradient_raw(f, spacing),
                                  *central_gradient_raw(m, spacing), 0.1)
        assert value == float(0.5 * spacing * spacing * np.sum(integrand))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        f = rng.random((9, 9))
        m = rng.random((9, 9))
        _, pullback = ngf_core(f, m, 1.0, 0.1)
        grad = pullback()
        h = 1e-6
        for (i, j) in [(0, 0), (4, 4), (8, 3), (2, 7)]:
            bumped = m.copy()
            bumped[i, j] += h
            vp, _ = ngf_core(f, bumped, 1.0, 0.1)
            bumped[i, j] -= 2 * h
            vm, _ = ngf_core(f, bumped, 1.0, 0.1)
            fd = (vp - vm) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def random_grid(width, height, control, seed):
    rng = np.random.default_rng(seed)
    return ControlGrid(control, rng.normal(size=make_grid(width, height, control).coeffs.shape))


class TestCurvature:
    def test_zero_displacement_zero(self):
        value, grad = curvature(make_grid(10, 10, 4.0), 10, 10, 1.0)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_translation_zero(self):
        # a constant grid is a translation, whose Laplacian vanishes; rounding
        # enters through the Gram products, so the value is tiny but not exactly 0
        grid = make_grid(12, 10, 4.0)
        grid.coeffs[..., 0] = 3.0
        grid.coeffs[..., 1] = -1.5
        value, grad = curvature(grid, 12, 10, 1.0)
        assert abs(value) <= 1e-12
        assert np.abs(grad).max() <= 1e-12

    def test_quadratic_interior_integrand(self):
        # coefficients ((k-1)s)^2 - s^2/3 reproduce u1 = x^2, whose Laplacian is 2
        # at interior pixels, so each interior pixel contributes 0.5 * 2^2 = 2
        h, w, s = 12, 12, 4.0
        grid = make_grid(w, h, s)
        k = np.arange(grid.cols, dtype=float)
        grid.coeffs[..., 0] = ((k - 1.0) * s) ** 2 - s * s / 3.0
        xx = np.arange(w, dtype=float)
        np.testing.assert_allclose(densify(grid, w, h).u[..., 0], np.broadcast_to(xx**2, (h, w)),
                                   atol=1e-9)
        value, _ = curvature(grid, w, h, 1.0)
        # value includes the replicated-edge boundary rows; check the interior
        # contribution is present
        assert value >= 0.5 * 4.0 * (h - 2) * (w - 2)

    def test_gradient_matches_finite_differences(self):
        grid = random_grid(8, 8, 3.0, seed=9)
        value, grad = curvature(grid, 8, 8, 1.0)
        h = 1e-6
        for idx in [(0, 0, 0), (2, 3, 1), (5, 5, 0), (1, 4, 1)]:
            bumped = grid.coeffs.copy()
            bumped[idx] += h
            vp, _ = curvature(ControlGrid(3.0, bumped), 8, 8, 1.0)
            bumped[idx] -= 2 * h
            vm, _ = curvature(ControlGrid(3.0, bumped), 8, 8, 1.0)
            fd = (vp - vm) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_spacing_scaling(self):
        grid = random_grid(9, 9, 3.0, seed=2)
        v1, _ = curvature(grid, 9, 9, 1.0)
        v2, _ = curvature(grid, 9, 9, 2.0)
        # Laplacian scales by 1/sp^2, integrand squares it, area adds sp^2.
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)

    def test_factor_memo_is_read_only_and_keyed_by_height(self):
        # 16 and 17 px rows both need a 5-row grid at spacing 8, so a memo keyed
        # without the height would score the 17 px level with the 16 px factors
        for height in (16, 17):
            grid = random_grid(20, height, 8.0, seed=height)
            assert grid.rows == 5
            u = densify(grid, 20, height).u
            p = np.pad(u, ((1, 1), (1, 1), (0, 0)), mode="edge")
            lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * u
            value, _ = curvature(grid, 20, height, 1.0)
            assert value == pytest.approx(0.5 * np.sum(lap * lap), rel=1e-12)
        for m in level_operators(grid, 20, 17):  # By, Bx and the stacked G and H
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_factors_at_2048_px_are_small(self):
        _level_operators.cache_clear()
        grid = make_grid(2048, 2040, 8.0)
        tracemalloc.start()
        try:
            by, bx, g, h = level_operators(grid, 2048, 2040)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _level_operators.cache_clear()
        # the dense pixel bases, four stacked (rows, rows) blocks and four stacked
        # (cols, cols) blocks
        assert (grid.rows, grid.cols) == (258, 259)
        assert by.shape == (2040, grid.rows) and bx.shape == (2048, grid.cols)
        assert g.shape == (4 * grid.rows, grid.rows)
        assert h.shape == (4 * grid.cols, grid.cols)
        assert peak < 32 * 2**20

    def test_uncovered_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            curvature(make_grid(8, 8, 4.0), 16, 8, 1.0)


class TestBoundarySsd:
    def test_equal_stacks_zero(self):
        lab = LabelMap(np.array([[0, 1], [2, 1]], dtype=np.int32), num_classes=3)
        oh = to_one_hot(lab)
        value, grad = boundary_ssd(oh, oh)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_disjoint_regions_analytic(self):
        # Two disjoint one-pixel foreground regions: each mismatched pixel
        # disagrees on two channels (its own and background), so the value is
        # |A| + |B| = 2 exactly.
        a = np.zeros((6, 6), dtype=np.int32)
        b = np.zeros((6, 6), dtype=np.int32)
        a[1, 1] = 1
        b[4, 4] = 1
        va = to_one_hot(LabelMap(a, num_classes=2))
        vb = to_one_hot(LabelMap(b, num_classes=2))
        value, _ = boundary_ssd(va, vb)
        assert value == 2.0

    def test_brute_force_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = LabelMap(rng.integers(0, 4, (7, 9)).astype(np.int32), num_classes=4)
            b = LabelMap(rng.integers(0, 4, (7, 9)).astype(np.int32), num_classes=4)
            oa, ob = to_one_hot(a), to_one_hot(b)
            value, _ = boundary_ssd(oa, ob)
            brute = 0.5 * sum(
                (ob.channels[k][i, j] - oa.channels[k][i, j]) ** 2
                for k in range(4)
                for i in range(7)
                for j in range(9)
            )
            assert value == brute

    def test_shape_mismatch_rejected(self):
        a = to_one_hot(LabelMap(np.zeros((4, 4), dtype=np.int32), num_classes=2))
        b = to_one_hot(LabelMap(np.zeros((4, 5), dtype=np.int32), num_classes=2))
        with pytest.raises(DomainError):
            boundary_ssd(a, b)


class TestWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.delta, w.alpha, w.beta, w.epsilon) == (1.0, 1.0e3, 5.0e4, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"delta": -1.0}, {"alpha": -0.5}, {"beta": -2.0},
        {"epsilon": 0.0}, {"epsilon": -0.1}, {"epsilon": 1e-100}, {"epsilon": 1.2e77},
        {"epsilon": 1e200},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LossWeights(**kwargs)

    @pytest.mark.parametrize("epsilon", [1.5e-81, 1.15e77])
    def test_epsilon_at_its_bounds_gives_a_finite_loss(self, epsilon):
        """At either end of epsilon's range epsilon^4 is a positive finite float, so a
        flat image's NGF, a^2 / (b * c) with every sum equal to epsilon^2, neither
        divides by zero nor overflows; 1e-100 gave 0/0 there and 1e78 inf/inf."""
        flat = Image2D(np.full((8, 8), 0.5))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rep = total_loss(flat, flat, None, None, make_grid(8, 8, 4.0),
                             LossWeights(epsilon=epsilon))
            assert rep.total == 0.0 and np.all(rep.backward() == 0.0)

    @pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
    @pytest.mark.parametrize("epsilon", [1.5e-81, 0.1, 1.15e77])
    @pytest.mark.parametrize("scale", [1.0, 255.0, 65535.0, 1e30,
                                       float(np.finfo(np.float32).max)])
    @settings(max_examples=15, deadline=None)
    @given(delta=st.floats(0.0, HUGE), alpha=st.floats(0.0, HUGE), beta=st.floats(0.0, HUGE))
    def test_finite_at_any_intensity_scale(self, scale, epsilon, labelled, delta, alpha, beta):
        """A forward and backward pass on 12 px images of intensities up to float32's
        largest, at either end of epsilon's range and in between, and at any accepted
        weights, raise no RuntimeWarning and give finite terms and term gradients (c =
        |gF|^2 + eps^2 is formed from the fixed image's cached squared gradient norm).
        The weighted total and gradient are finite unless a weight times its term
        overflows; the solver reports that as a non-finite loss or gradient norm."""
        fixed, moving, foh, moh, grid = _random_problem(19, h=12, w=12)
        stacks = (foh, moh) if labelled else (None, None)
        w = LossWeights(delta=delta, alpha=alpha, beta=beta, epsilon=epsilon)
        rep = total_loss(Image2D(scale * fixed.data), Image2D(scale * moving.data), *stacks,
                         grid, w)
        terms = [(w.delta, rep.d_value, rep.grad_d), (w.alpha, rep.r_value, rep.grad_r),
                 (w.beta, rep.b_value, rep.grad_b)]
        for _, value, grad in terms:
            assert np.isfinite(value) and np.all(np.isfinite(grad))
        # Python floats: a product that overflows is inf, without a warning
        if all(weight * value <= HUGE / 3 and weight * float(np.abs(grad).max()) <= HUGE / 3
               for weight, value, grad in terms):
            assert np.isfinite(rep.total) and np.all(np.isfinite(rep.grad_total))


def _random_problem(seed, h=14, w=16, spacing_px=5.0, amp=0.5):
    rng = np.random.default_rng(seed)
    fixed = Image2D(rng.random((h, w)))
    moving = Image2D(rng.random((h, w)))
    flab = LabelMap(rng.integers(0, 3, (h, w)).astype(np.int32), num_classes=3)
    mlab = LabelMap(rng.integers(0, 3, (h, w)).astype(np.int32), num_classes=3)
    grid = make_grid(w, h, spacing_px)
    grid = ControlGrid(spacing_px, rng.normal(size=grid.coeffs.shape) * amp)
    return fixed, moving, to_one_hot(flab), to_one_hot(mlab), grid


class TestTotalLoss:
    def test_perfect_alignment_is_zero(self):
        rng = np.random.default_rng(1)
        img = Image2D(rng.random((10, 10)))
        lab = LabelMap(rng.integers(0, 3, (10, 10)).astype(np.int32), num_classes=3)
        oh = to_one_hot(lab)
        grid = make_grid(10, 10, 4.0)
        rep = total_loss(img, img, oh, oh, grid, LossWeights())
        assert rep.d_value == 0.0
        assert rep.r_value == 0.0
        assert rep.b_value == 0.0
        assert rep.total == 0.0

    def test_terms_combine_linearly(self):
        fixed, moving, foh, moh, grid = _random_problem(4)
        w = LossWeights(delta=2.0, alpha=7.0, beta=11.0)
        rep = total_loss(fixed, moving, foh, moh, grid, w, with_grad=False)
        assert rep.total == pytest.approx(
            2.0 * rep.d_value + 7.0 * rep.r_value + 11.0 * rep.b_value, rel=1e-12)

    def test_delta_zero_skips_distance(self):
        fixed, moving, foh, moh, grid = _random_problem(6)
        rep = total_loss(fixed, moving, foh, moh, grid, LossWeights(delta=0.0))
        assert rep.d_value == 0.0
        assert np.all(rep.grad_d == 0.0)

    def test_beta_zero_skips_boundary(self):
        fixed, moving, foh, moh, grid = _random_problem(7)
        rep = total_loss(fixed, moving, foh, moh, grid, LossWeights(beta=0.0))
        assert rep.b_value == 0.0
        assert np.all(rep.grad_b == 0.0)

    def test_no_labels_means_no_boundary(self):
        fixed, moving, _, _, grid = _random_problem(8)
        rep = total_loss(fixed, moving, None, None, grid, LossWeights())
        assert rep.b_value == 0.0

    def test_missing_moving_stack_rejected(self):
        fixed, moving, foh, _, grid = _random_problem(9)
        with pytest.raises(DomainError):
            total_loss(fixed, moving, foh, None, grid, LossWeights())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        fixed, moving, foh, moh, grid = _random_problem(seed)
        w = LossWeights(delta=1.0, alpha=10.0, beta=100.0)
        rep = total_loss(fixed, moving, foh, moh, grid, w)
        rng = np.random.default_rng(seed + 100)
        h = 1e-5
        flat = grid.coeffs.reshape(-1)
        for idx in rng.choice(flat.size, size=8, replace=False):
            bumped = flat.copy()
            bumped[idx] += h
            gp = ControlGrid(grid.spacing_px, bumped.reshape(grid.coeffs.shape).copy())
            bumped[idx] -= 2 * h
            gm = ControlGrid(grid.spacing_px, bumped.reshape(grid.coeffs.shape).copy())
            vp = total_loss(fixed, moving, foh, moh, gp, w, with_grad=False).total
            vm = total_loss(fixed, moving, foh, moh, gm, w, with_grad=False).total
            fd = (vp - vm) / (2 * h)
            an = rep.grad_total.reshape(-1)[idx]
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_per_term_gradients_sum_to_total(self):
        fixed, moving, foh, moh, grid = _random_problem(12)
        w = LossWeights(delta=3.0, alpha=5.0, beta=7.0)
        rep = total_loss(fixed, moving, foh, moh, grid, w)
        combined = 3.0 * rep.grad_d + 5.0 * rep.grad_r + 7.0 * rep.grad_b
        assert np.allclose(rep.grad_total, combined, rtol=1e-12, atol=0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            total_loss(Image2D(rng.random((8, 8))), Image2D(rng.random((8, 9))),
                       None, None, make_grid(8, 8, 4.0), LossWeights())

    def test_boundary_value_is_boundary_ssd_bit_for_bit(self):
        # the gate's B (boundary_ssd) and the solver's B share one kernel
        fixed, moving, foh, moh, grid = _random_problem(11)
        rep = total_loss(fixed, moving, foh, moh, grid, LossWeights(), with_grad=False)
        geom = SampleGeometry(moving.data.shape, moving.data.shape).fill(
            *sample_coords(densify(grid, fixed.width, fixed.height)))
        warped = OneHotStack(np.stack([bilinear_sample_with_grad(ch, geom) for ch in moh.channels]))
        assert rep.b_value == boundary_ssd(foh, warped)[0]


def _dense_boundary(fixed_oh, moving_oh, grid, spacing):
    """B and its coefficient gradient with every channel sampled and
    differentiated at every pixel: the reference for the narrow band."""
    h, w = moving_oh.channels.shape[1:]
    geom = SampleGeometry((h, w), (h, w)).fill(*sample_coords(densify(grid, w, h)))
    warped = np.stack([bilinear_sample_with_grad(ch, geom) for ch in moving_oh.channels])
    value, diff = _ssd_core(fixed_oh.channels, warped, spacing)
    cot = diff * spacing * spacing
    slopes = [bilinear_slopes(cell_differences(ch), geom) for ch in moving_oh.channels]
    du = np.stack([sum(c * s[0] for c, s in zip(cot, slopes)),
                   sum(c * s[1] for c, s in zip(cot, slopes))], axis=-1)
    return value, splat_to_grid(du, grid), geom


class TestNarrowBand:
    """B on the band equals B sampled and differentiated at every pixel."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_band_equals_dense(self, level):
        # the myocardium reaches the right edge, so band samples also clamp there
        pair = make_pair(PhantomSpec(center=(89.5, 56.0)), deform_magnitude_px=4.0, seed=3)
        fixed = _build_pyramid(pair.fixed_image, 3)[level]
        moving = _build_pyramid(pair.moving_image, 3)[level]
        foh = _build_onehot_pyramid(pair.fixed_labels, 3)[level]
        moh = _build_onehot_pyramid(pair.moving_labels, 3)[level]
        # 6 px of smooth displacement: samples cross label edges and leave the image
        grid = random_smooth_deformation(fixed.width, fixed.height, 6.0, seed=2,
                                         spacing_px=8.0)
        rep = total_loss(fixed, moving, foh, moh, grid, LossWeights())
        value, grad, geom = _dense_boundary(foh, moh, grid, fixed.spacing)
        band = moh.cell_labels.take(geom.i00) < 0
        clamped = ~(geom.in_x & geom.in_y)
        assert 0 < band.sum() < band.size
        assert np.any(band & clamped) and np.any(~band & clamped)
        assert rep.b_value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(rep.grad_b, grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max())


FORWARD_CASES = ["supervised", "unsupervised", "delta0"]


def _forward_case(case, seed):
    """A random problem and weights for one of the three shapes of pullback:
    with both terms, without the boundary term, and without the distance term."""
    fixed, moving, foh, moh, grid = _random_problem(seed)
    w = LossWeights(delta=0.0) if case == "delta0" else LossWeights()
    if case == "unsupervised":
        foh = moh = None
    return fixed, moving, foh, moh, grid, w


class TestForwardBackward:
    """``total_loss(with_grad=False)`` is the forward pass; ``backward()`` on its
    report gives exactly the gradients of a ``with_grad=True`` evaluation."""

    @pytest.mark.parametrize("case", FORWARD_CASES)
    def test_backward_equals_with_grad(self, case):
        fixed, moving, foh, moh, grid, w = _forward_case(case, 13)
        full = total_loss(fixed, moving, foh, moh, grid, w)
        rep = total_loss(fixed, moving, foh, moh, grid, w, with_grad=False)
        assert rep.grad_total is None and rep.pullback is not None
        grad = rep.backward()
        assert rep.pullback is None  # the pullback is released
        assert grad is rep.grad_total
        assert rep.total == full.total
        for name in ("grad_d", "grad_r", "grad_b", "grad_total"):
            assert np.array_equal(getattr(rep, name), getattr(full, name)), name
        assert rep.backward() is grad  # a second call changes nothing

    @pytest.mark.parametrize("case", FORWARD_CASES)
    def test_forward_report_freed_without_cycle_collector(self, case):
        """A report and its pullback form no reference cycle, so dropping the
        last reference frees them even with the cycle collector off."""
        fixed, moving, foh, moh, grid, w = _forward_case(case, 14)
        gc.disable()
        try:
            rep = total_loss(fixed, moving, foh, moh, grid, w, with_grad=False)
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
        finally:
            gc.enable()


class TestLevelBuffers:
    """Evaluations through one level's buffers: the same numbers as fresh ones,
    a pullback that refuses to run on overwritten buffers, and no image-sized
    allocation."""

    @staticmethod
    def _buffers(fixed, moh):
        return LevelBuffers(fixed.data.shape, 0 if moh is None else len(moh.channels))

    @pytest.mark.parametrize("case", FORWARD_CASES)
    def test_shared_buffers_equal_fresh_ones(self, case):
        """Every evaluation through one set of buffers equals a fresh one, also when
        the one before it left other numbers behind: another grid, fixed image,
        moving image, spacing or epsilon, so what they keep never goes stale."""
        fixed, moving, foh, moh, grid, w = _forward_case(case, 15)
        work = self._buffers(fixed, moh)
        base = (fixed, moving, grid, w)
        others = [(fixed, moving, ControlGrid(grid.spacing_px, grid.coeffs[::-1].copy()), w),
                  (moving, moving, grid, w), (fixed, fixed, grid, w),
                  (Image2D(fixed.data, 2.0), moving, grid, w),
                  (fixed, moving, grid, replace(w, epsilon=0.5))]
        for f, m, g, weights in [base] + [x for other in others for x in (other, base)]:
            fresh = total_loss(f, m, foh, moh, g, weights)
            full = total_loss(f, m, foh, moh, g, weights, work=work)
            rep = total_loss(f, m, foh, moh, g, weights, with_grad=False, work=work)
            rep.backward()
            for r in (full, rep):
                assert (r.d_value, r.r_value, r.b_value, r.total) == \
                    (fresh.d_value, fresh.r_value, fresh.b_value, fresh.total)
                for name in ("grad_d", "grad_r", "grad_b", "grad_total"):
                    assert getattr(r, name).tobytes() == getattr(fresh, name).tobytes(), name

    @pytest.mark.parametrize("case", FORWARD_CASES)
    def test_stale_pullback_raises(self, case):
        fixed, moving, foh, moh, grid, w = _forward_case(case, 16)
        work = self._buffers(fixed, moh)
        first = total_loss(fixed, moving, foh, moh, grid, w, with_grad=False, work=work)
        total_loss(fixed, moving, foh, moh, grid, w, with_grad=False, work=work)
        with pytest.raises(RuntimeError, match="stale pullback"):
            first.backward()

    @pytest.mark.parametrize("case", FORWARD_CASES)
    def test_public_reports_never_interfere(self, case):
        """Without ``work`` each call has its own buffers, so pending reports run
        their backward passes in any order."""
        fixed, moving, foh, moh, grid, w = _forward_case(case, 17)
        grids = [grid, ControlGrid(grid.spacing_px, 0.5 * grid.coeffs)]
        pending = [total_loss(fixed, moving, foh, moh, g, w, with_grad=False) for g in grids]
        for rep, g in reversed(list(zip(pending, grids))):
            want = total_loss(fixed, moving, foh, moh, g, w).grad_total
            assert rep.backward().tobytes() == want.tobytes()

    def test_buffers_of_another_level_rejected(self):
        fixed, moving, foh, moh, grid, w = _forward_case("supervised", 18)
        h, wd = fixed.data.shape
        for work in (LevelBuffers((h, wd + 1), 3), LevelBuffers((h, wd), 2),
                     LevelBuffers((h, wd), 0)):
            with pytest.raises(DomainError, match="buffers"):
                total_loss(fixed, moving, foh, moh, grid, w, work=work)

    IMAGE_ARRAYS = ("c", "ngf", "force", "corners")
    BAND_ARRAYS = ("cells", "index", "table", "in_band", "band_samples", "band_slopes",
                   "band_corners", "band_force",
                   *(f"band_geom.{name}" for name in SampleGeometry._ARRAYS))

    def test_each_term_writes_only_its_arrays(self):
        """A forward and backward pass without one term leaves that term's arrays
        as they were and writes the other's: each array has one owner. The pixel
        positions and indices are constants that the evaluation only reads."""
        fixed, moving, foh, moh, grid, w = _forward_case("supervised", 20)
        work = self._buffers(fixed, moh)

        def arrays():
            found = {name: a for name, a in vars(work).items() if isinstance(a, np.ndarray)}
            for geom in ("geom", "band_geom"):
                found.update({f"{geom}.{name}": getattr(getattr(work, geom), name)
                              for name in SampleGeometry._ARRAYS})
            return found

        for weights, kept, written in ((replace(w, beta=0.0), self.BAND_ARRAYS,
                                        self.IMAGE_ARRAYS),
                                       (replace(w, delta=0.0), self.IMAGE_ARRAYS,
                                        self.BAND_ARRAYS)):
            sentinel = {}
            for name, a in arrays().items():
                if name not in ("positions", "pixels"):
                    a.fill(7)
                    sentinel[name] = a.copy()
            total_loss(fixed, moving, foh, moh, grid, weights, with_grad=False,
                       work=work).backward()
            after = arrays()
            for name in kept:
                assert np.array_equal(after[name], sentinel[name]), name
            for name in written:
                assert not np.array_equal(after[name], sentinel[name]), name

    @pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
    def test_evaluation_allocates_less_than_one_plane(self, labelled):
        """After a level's first evaluation, a forward and backward pass at 112 px
        through its buffers peaks below one 112 px float64 plane (100,352 bytes)
        of traced allocations; a fresh-array evaluation peaked at 2.3-2.5 MB."""
        pair = make_pair(PhantomSpec(), deform_magnitude_px=4.0, seed=1)
        foh, moh = _build_onehot_pyramid(pair.fixed_labels, 1)[0], \
            _build_onehot_pyramid(pair.moving_labels, 1)[0]
        stacks = (foh, moh) if labelled else (None, None)
        grid = random_smooth_deformation(112, 112, 3.0, seed=2, spacing_px=8.0)
        work = LevelBuffers((112, 112), len(moh.channels) if labelled else 0)
        args = (pair.fixed_image, pair.moving_image, *stacks, grid, LossWeights())
        total_loss(*args, work=work)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = total_loss(*args, work=work)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rep.b_value > 0.0 if labelled else rep.b_value == 0.0
        assert peak < 112 * 112 * 8

    def test_band_growth_allocates_less_than_one_plane(self):
        """The band arrays are sized for every pixel when the level starts, so an
        evaluation whose band outgrows all earlier ones also peaks below one 112 px
        plane; band planes that grew with the band peaked at 265,600 bytes here."""
        pair = make_pair(PhantomSpec(), deform_magnitude_px=4.0, seed=1)
        foh, moh = _build_onehot_pyramid(pair.fixed_labels, 1)[0], \
            _build_onehot_pyramid(pair.moving_labels, 1)[0]
        identity = make_grid(112, 112, 8.0)
        # every sample clamps into the background corner: an empty band
        clamped = ControlGrid(identity.spacing_px, np.full_like(identity.coeffs, -300.0))
        work = LevelBuffers((112, 112), len(moh.channels))
        args = (pair.fixed_image, pair.moving_image, foh, moh)
        total_loss(*args, clamped, LossWeights(), work=work)
        assert not work.in_band.any()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = total_loss(*args, identity, LossWeights(), work=work)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert work.in_band.any() and rep.grad_b.any()
        assert peak < 112 * 112 * 8
