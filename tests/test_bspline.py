import numpy as np
import pytest

from defreg import (
    ControlGrid,
    Image2D,
    LabelMap,
    deformation_quality,
    densify,
    make_grid,
    prolongate,
    random_smooth_deformation,
    to_one_hot,
    warp_image,
    warp_labels,
)
from defreg.bspline import DisplacementField, cubic_bspline, densify_at, splat_to_grid
from defreg.errors import ConfigurationError


def warp_channels(oh, field):
    """Each one-hot channel warped with :func:`warp_image`, stacked as (K, H, W)."""
    return np.stack([warp_image(Image2D(ch), field).data for ch in oh.channels])


def brute_force_densify(grid, width, height):
    """Direct tensor-product basis sum, one control point at a time."""
    s = grid.spacing_px
    u = np.zeros((height, width, 2))
    for r in range(grid.rows):
        for c in range(grid.cols):
            ly, lx = r - 1, c - 1  # lattice indices
            for y in range(height):
                wy = cubic_bspline(np.array([y / s - ly]))[0]
                if wy == 0:
                    continue
                for x in range(width):
                    wx = cubic_bspline(np.array([x / s - lx]))[0]
                    u[y, x] += wy * wx * grid.coeffs[r, c]
    return u


# (width, height, spacing): odd sizes down to 3 px and a non-integer spacing;
# run in one process, so the per-level basis memo must key on all three
LATTICES = [(13, 11, 4.0), (17, 15, 4.0), (11, 13, 4.0), (3, 5, 2.0), (9, 3, 2.5),
            (16, 16, 8.0)]


class TestDensify:
    def test_partition_of_unity(self):
        grid = make_grid(20, 14, 4.0)
        grid.coeffs[:] = [1.25, -0.5]
        u = densify(grid, 20, 14).u
        assert np.max(np.abs(u[..., 0] - 1.25)) <= 1e-9
        assert np.max(np.abs(u[..., 1] + 0.5)) <= 1e-9

    def test_zero_grid_is_identity(self):
        u = densify(make_grid(16, 16, 8.0), 16, 16).u
        assert np.all(u == 0)

    def test_single_coefficient_center_weight(self):
        # B3(0) = 2/3, tensor product gives (2/3)^2 at the control point's pixel
        grid = make_grid(33, 33, 8.0)
        grid.coeffs[3, 3, 0] = 1.0  # lattice (2, 2) -> pixel (16, 16)
        u = densify(grid, 33, 33).u
        assert u[16, 16, 0] == pytest.approx((2.0 / 3.0) ** 2)

    @pytest.mark.parametrize("width,height,spacing", LATTICES)
    def test_matches_brute_force_oracle(self, width, height, spacing):
        rng = np.random.default_rng(8)
        grid = make_grid(width, height, spacing)
        grid.coeffs[:] = rng.standard_normal(grid.coeffs.shape)
        u = densify(grid, width, height).u
        np.testing.assert_allclose(u, brute_force_densify(grid, width, height), atol=1e-12)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(9)
        g1 = make_grid(16, 12, 8.0)
        g2 = make_grid(16, 12, 8.0)
        g1.coeffs[:] = rng.standard_normal(g1.coeffs.shape)
        g2.coeffs[:] = rng.standard_normal(g2.coeffs.shape)
        combo = ControlGrid(8.0, 2.0 * g1.coeffs - 3.0 * g2.coeffs)
        lhs = densify(combo, 16, 12).u
        rhs = 2.0 * densify(g1, 16, 12).u - 3.0 * densify(g2, 16, 12).u
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_grid_too_small_rejected(self):
        grid = make_grid(16, 16, 8.0)
        with pytest.raises(ConfigurationError):
            densify(grid, 64, 64)

    @pytest.mark.parametrize("width,height,spacing", LATTICES)
    def test_splat_is_adjoint_of_densify(self, width, height, spacing):
        rng = np.random.default_rng(10)
        grid = make_grid(width, height, spacing)
        coeffs = rng.standard_normal(grid.coeffs.shape)
        cot = rng.standard_normal((height, width, 2))
        u = densify(ControlGrid(spacing, coeffs), width, height).u
        lhs = np.sum(u * cot)
        rhs = np.sum(coeffs * splat_to_grid(cot, grid))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestProlongate:
    def test_zero_grid(self):
        fine = prolongate(make_grid(8, 8, 8.0), 16, 16)
        assert np.all(fine.coeffs == 0)

    def test_constant_doubles(self):
        grid = make_grid(8, 8, 8.0)
        grid.coeffs[:] = [0.5, -1.0]
        fine = prolongate(grid, 16, 16)
        np.testing.assert_allclose(fine.coeffs[..., 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(fine.coeffs[..., 1], -2.0, atol=1e-9)

    def test_linear_field_matches_doubled_coarse(self):
        grid = make_grid(16, 16, 8.0)
        for r in range(grid.rows):
            for c in range(grid.cols):
                grid.coeffs[r, c] = [0.1 * (c - 1) * 8.0, -0.05 * (r - 1) * 8.0]
        coarse_u = densify(grid, 16, 16).u
        fine = prolongate(grid, 32, 32)
        fine_u = densify(fine, 32, 32).u
        # shared points: fine pixel (2x, 2y) corresponds to coarse pixel (x, y)
        np.testing.assert_allclose(fine_u[::2, ::2], 2.0 * coarse_u, atol=1e-6)


class TestRandomDeformation:
    def test_zero_magnitude_identity(self):
        grid = random_smooth_deformation(32, 32, 0.0, seed=1)
        assert np.all(grid.coeffs == 0)

    def test_determinism(self):
        a = random_smooth_deformation(32, 32, 2.0, seed=42)
        b = random_smooth_deformation(32, 32, 2.0, seed=42)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_dense_field_bounded_by_magnitude(self):
        grid = random_smooth_deformation(64, 48, 2.0, seed=3, spacing_px=16.0)
        u = densify(grid, 64, 48).u
        assert np.max(np.abs(u)) <= 2.0


class TestWarping:
    def test_zero_field_identity_bit_exact(self):
        rng = np.random.default_rng(11)
        img = Image2D(rng.random((10, 12)))
        fld = DisplacementField(np.zeros((10, 12, 2)))
        assert np.array_equal(warp_image(img, fld).data, img.data)

    def test_translation_on_ramp(self):
        xx, _ = np.meshgrid(np.arange(10, dtype=float), np.arange(8, dtype=float))
        img = Image2D(xx)
        u = np.zeros((8, 10, 2))
        u[..., 0] = 1.0
        out = warp_image(img, DisplacementField(u))
        np.testing.assert_allclose(out.data[:, :-1], xx[:, :-1] + 1.0)

    def test_constant_image_unchanged(self):
        img = Image2D(np.full((8, 8), 0.3))
        grid = random_smooth_deformation(8, 8, 3.0, seed=5, spacing_px=4.0)
        out = warp_image(img, densify(grid, 8, 8))
        np.testing.assert_allclose(out.data, 0.3)

    def test_onehot_zero_field_unchanged(self):
        lab = LabelMap(np.eye(6, dtype=int) * 2, num_classes=3)
        oh = to_one_hot(lab)
        out = warp_channels(oh, DisplacementField(np.zeros((6, 6, 2))))
        np.testing.assert_array_equal(out, oh.channels)

    def test_onehot_half_pixel_shift_step_edge(self):
        labels = np.zeros((4, 6), dtype=int)
        labels[:, 3:] = 1
        oh = to_one_hot(LabelMap(labels, num_classes=2))
        u = np.zeros((4, 6, 2))
        u[..., 0] = 0.5
        out = warp_channels(oh, DisplacementField(u))
        assert set(np.round(out[1, 0], 6)) <= {0.0, 0.5, 1.0}
        assert 0.5 in out[1]

    def test_onehot_channel_sum_stays_one(self):
        rng = np.random.default_rng(12)
        lab = LabelMap(rng.integers(0, 3, (16, 16)), num_classes=3)
        oh = to_one_hot(lab)
        grid = random_smooth_deformation(16, 16, 1.5, seed=6, spacing_px=8.0)
        out = warp_channels(oh, densify(grid, 16, 16))
        sums = out.sum(axis=0)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)

    def test_labels_zero_field_unchanged(self):
        rng = np.random.default_rng(13)
        lab = LabelMap(rng.integers(0, 4, (7, 9)), num_classes=4)
        out = warp_labels(lab, DisplacementField(np.zeros((7, 9, 2))))
        np.testing.assert_array_equal(out.labels, lab.labels)

    def test_labels_integer_translation(self):
        rng = np.random.default_rng(14)
        lab = LabelMap(rng.integers(0, 4, (8, 8)), num_classes=4)
        u = np.zeros((8, 8, 2))
        u[..., 0] = 2.0
        out = warp_labels(lab, DisplacementField(u))
        np.testing.assert_array_equal(out.labels[:, :-2], lab.labels[:, 2:])

    def test_labels_never_invented(self):
        rng = np.random.default_rng(15)
        lab = LabelMap(rng.choice([0, 2, 3], size=(12, 12)), num_classes=4)
        grid = random_smooth_deformation(12, 12, 2.0, seed=7, spacing_px=6.0)
        out = warp_labels(lab, densify(grid, 12, 12))
        assert set(np.unique(out.labels)) <= set(np.unique(lab.labels))


class TestDeformationQuality:
    def test_identity(self):
        q = deformation_quality(DisplacementField(np.zeros((8, 8, 2))))
        np.testing.assert_allclose(q.jacobian_det, 1.0)
        assert q.folding_fraction == 0.0

    def test_translation_no_folding(self):
        u = np.full((8, 8, 2), 3.7)
        q = deformation_quality(DisplacementField(u))
        assert q.folding_fraction == 0.0

    def test_reflection_folds_everywhere(self):
        xx, _ = np.meshgrid(np.arange(8, dtype=float), np.arange(8, dtype=float))
        u = np.zeros((8, 8, 2))
        u[..., 0] = -2.0 * xx  # y1 = -x
        q = deformation_quality(DisplacementField(u))
        np.testing.assert_allclose(q.jacobian_det, -1.0)
        assert q.folding_fraction == 1.0
