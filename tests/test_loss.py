"""Loss terms: analytic values, brute-force oracles, finite-difference gradients."""

import gc
import weakref

import numpy as np
import pytest

from defreg import (
    ConfigurationError,
    DomainError,
    Image2D,
    LabelMap,
    LossWeights,
    boundary_ssd,
    curvature,
    make_grid,
    ngf_distance,
    to_one_hot,
    total_loss,
)
from defreg.bspline import ControlGrid, DisplacementField, densify
from defreg.lossterms import ngf_integrand


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


class TestNgf:
    def test_integrand_range_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = rng.normal(size=4) * 10.0
            v = ngf_integrand(g[0], g[1], g[2], g[3], 0.1)
            assert 0.0 <= v <= 1.0

    def test_identical_images_zero(self):
        rng = np.random.default_rng(0)
        img = Image2D(rng.random((12, 17)))
        value, _ = ngf_distance(img, img)
        assert value == 0.0

    def test_constant_images_zero(self):
        a = Image2D(np.full((9, 9), 0.3))
        b = Image2D(np.full((9, 9), 0.8))
        value, _ = ngf_distance(a, b)
        assert value == 0.0

    def test_orthogonal_ramps_analytic(self):
        # F = x has gradient (1, 0) everywhere (the one-sided boundary stencil
        # is exact for affine data); M = y has (0, 1).  With eps = 0.1 the
        # integrand is 1 - eps^4 / (1 + eps^2)^2 at every pixel.
        h, w, eps = 11, 13, 0.1
        xx, yy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        value, _ = ngf_distance(Image2D(xx), Image2D(yy), epsilon=eps)
        per_px = 1.0 - eps**4 / (1.0 + eps**2) ** 2
        assert value == pytest.approx(0.5 * h * w * per_px, rel=1e-12)

    def test_parallel_ramps_scale_insensitive(self):
        # F = x vs M = 2x: edge directions agree, so the distance is tiny and
        # exactly the analytic eps-blurred residual.
        h, w, eps = 8, 8, 0.1
        xx = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))[0]
        value, _ = ngf_distance(Image2D(xx), Image2D(2.0 * xx), epsilon=eps)
        e2 = eps * eps
        per_px = 1.0 - (2.0 + e2) ** 2 / ((4.0 + e2) * (1.0 + e2))
        assert value == pytest.approx(0.5 * h * w * per_px, rel=1e-12)
        assert value < 0.05 * h * w  # far below the orthogonal case

    def test_matches_numpy_gradient_oracle(self):
        rng = np.random.default_rng(11)
        for spacing in (1.0, 2.5):
            f = Image2D(rng.random((14, 10)), spacing=spacing)
            m = Image2D(rng.random((14, 10)), spacing=spacing)
            value, _ = ngf_distance(f, m, epsilon=0.1)
            assert value == pytest.approx(ngf_value_oracle(f, m, 0.1), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        f = Image2D(rng.random((9, 9)))
        m = Image2D(rng.random((9, 9)))
        value, grad = ngf_distance(f, m)
        h = 1e-6
        for (i, j) in [(0, 0), (4, 4), (8, 3), (2, 7)]:
            bumped = m.data.copy()
            bumped[i, j] += h
            vp, _ = ngf_distance(f, Image2D(bumped))
            bumped[i, j] -= 2 * h
            vm, _ = ngf_distance(f, Image2D(bumped))
            fd = (vp - vm) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ngf_distance(Image2D(np.zeros((4, 4))), Image2D(np.zeros((4, 5))))


class TestCurvature:
    def test_zero_displacement_zero(self):
        fld = DisplacementField(np.zeros((10, 10, 2)))
        value, grad = curvature(fld)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_translation_zero(self):
        u = np.zeros((10, 12, 2))
        u[..., 0] = 3.0
        u[..., 1] = -1.5
        value, _ = curvature(DisplacementField(u))
        assert value == 0.0

    def test_quadratic_interior_integrand(self):
        # u1 = x^2 has Laplacian 2 at interior pixels, so each interior pixel
        # contributes 0.5 * 2^2 = 2 to the sum.
        h, w = 12, 12
        xx = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))[0]
        u = np.zeros((h, w, 2))
        u[..., 0] = xx * xx
        from defreg.image import laplacian_raw

        lap = laplacian_raw(u[..., 0], 1.0)
        assert np.allclose(lap[1:-1, 1:-1], 2.0)
        value, _ = curvature(DisplacementField(u))
        # value includes the replicated-edge boundary rows; check the interior
        # contribution is present exactly.
        assert value >= 0.5 * 4.0 * (h - 2) * (w - 2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(8, 8, 2))
        value, grad = curvature(DisplacementField(u))
        h = 1e-6
        for (i, j, k) in [(0, 0, 0), (3, 4, 1), (7, 7, 0), (2, 6, 1)]:
            bumped = u.copy()
            bumped[i, j, k] += h
            vp, _ = curvature(DisplacementField(bumped))
            bumped[i, j, k] -= 2 * h
            vm, _ = curvature(DisplacementField(bumped))
            fd = (vp - vm) / (2 * h)
            assert grad[i, j, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_spacing_scaling(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(9, 9, 2))
        v1, _ = curvature(DisplacementField(u, spacing=1.0))
        v2, _ = curvature(DisplacementField(u, spacing=2.0))
        # Laplacian scales by 1/sp^2, integrand squares it, area adds sp^2.
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)


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
        {"epsilon": 0.0}, {"epsilon": -0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LossWeights(**kwargs)


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


class TestForwardBackward:
    """``total_loss(with_grad=False)`` is the forward pass; ``backward()`` on its
    report gives exactly the gradients of a ``with_grad=True`` evaluation."""

    @pytest.mark.parametrize("case", ["supervised", "unsupervised", "delta0"])
    def test_backward_equals_with_grad(self, case):
        fixed, moving, foh, moh, grid = _random_problem(13)
        w = LossWeights(delta=0.0) if case == "delta0" else LossWeights()
        if case == "unsupervised":
            foh = moh = None
        full = total_loss(fixed, moving, foh, moh, grid, w)
        rep = total_loss(fixed, moving, foh, moh, grid, w, with_grad=False)
        assert rep.grad_total is None and rep.forward is not None
        grad = rep.backward()
        assert rep.forward is None  # the forward state is released
        assert grad is rep.grad_total
        assert rep.total == full.total
        for name in ("grad_d", "grad_r", "grad_b", "grad_total"):
            assert np.array_equal(getattr(rep, name), getattr(full, name)), name
        assert rep.backward() is grad  # a second call changes nothing

    def test_forward_report_freed_without_cycle_collector(self):
        """A report and its forward state form no reference cycle, so dropping
        the last reference frees them even with the cycle collector off."""
        fixed, moving, foh, moh, grid = _random_problem(14)
        gc.disable()
        try:
            rep = total_loss(fixed, moving, foh, moh, grid, LossWeights(), with_grad=False)
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
        finally:
            gc.enable()
