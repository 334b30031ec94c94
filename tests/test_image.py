import numpy as np
import pytest

from defreg import (
    DomainError,
    Image2D,
    LabelMap,
    downsample,
    normalize_intensity,
    to_one_hot,
)
from defreg.bspline import ControlGrid, DisplacementField, sample_coords
from defreg.image import (
    OneHotStack,
    SampleGeometry,
    _corners,
    bilinear_sample_with_grad,
    bilinear_slopes,
    block_mean,
    central_gradient_raw,
    gradient_adjoint,
    nearest_sample,
)


def ramp_x(w=8, h=6, spacing=1.0):
    xx, _ = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return Image2D(xx, spacing=spacing)


def bilinear(data, px, py):
    """Values and coordinate derivatives of ``data`` sampled at (px, py)."""
    geom = SampleGeometry(px, py, data.shape)
    return (bilinear_sample_with_grad(data, geom), *bilinear_slopes(data, geom))


def bilinear_at(img, p):
    """The sampled value at one point ``p = (x, y)``."""
    return bilinear(img.data, p[0], p[1])[0]


def nearest_at(lab, p):
    """The nearest label at one point ``p = (x, y)``."""
    return nearest_sample(lab.labels, SampleGeometry(p[0], p[1], lab.labels.shape))


class TestBilinearSample:
    def test_grid_points_exact(self):
        rng = np.random.default_rng(3)
        img = Image2D(rng.random((5, 7)))
        assert bilinear_at(img, (2, 3)) == img.data[3, 2]

    def test_2x2_center(self):
        img = Image2D(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert bilinear_at(img, (0.5, 0.5)) == pytest.approx(1.5)

    def test_constant(self):
        img = Image2D(np.full((4, 4), 2.5))
        for p in [(0.3, 2.7), (-5, -5), (100, 0.5)]:
            assert bilinear_at(img, p) == pytest.approx(2.5)

    def test_linear_along_grid_lines(self):
        img = ramp_x()
        for x in np.linspace(0, 7, 15):
            assert bilinear_at(img, (x, 2)) == pytest.approx(x)

    def test_clamps_out_of_domain(self):
        img = ramp_x()
        assert bilinear_at(img, (-3.0, 2.0)) == pytest.approx(0.0)
        assert bilinear_at(img, (50.0, 2.0)) == pytest.approx(7.0)

    def test_nonfinite_coordinate_rejected(self):
        img = ramp_x()
        with pytest.raises(DomainError):
            bilinear_at(img, (np.nan, 1.0))

    def test_one_pixel_axis_rejected(self):
        data = np.arange(5.0).reshape(1, 5)
        with pytest.raises(DomainError):
            bilinear(data, np.array([1.5]), np.array([0.0]))

    def test_data_must_match_geometry(self):
        geom = SampleGeometry(np.array([1.5]), np.array([0.5]), (4, 4))
        with pytest.raises(DomainError):
            bilinear_sample_with_grad(np.zeros((4, 5)), geom)

    def test_grad_zero_only_on_clamped_axis(self):
        rng = np.random.default_rng(5)
        data = rng.random((6, 6))
        _, ddx, ddy = bilinear(data, np.array([2.3, -1.0]), np.array([7.0, 2.5]))
        assert ddx[0] != 0.0 and ddy[0] == 0.0  # y clamped, x free
        assert ddx[1] == 0.0 and ddy[1] != 0.0  # x clamped, y free

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        data = rng.random((9, 9))
        px = rng.uniform(0.6, 7.4, 20)
        py = rng.uniform(0.6, 7.4, 20)
        _, ddx, ddy = bilinear(data, px, py)
        h = 1e-6

        def val(x, y):
            return bilinear(data, x, y)[0]

        fdx = (val(px + h, py) - val(px - h, py)) / (2 * h)
        fdy = (val(px, py + h) - val(px, py - h)) / (2 * h)
        np.testing.assert_allclose(ddx, fdx, atol=1e-8)
        np.testing.assert_allclose(ddy, fdy, atol=1e-8)


class TestGeometry:
    """The geometry keeps only the top-left corner index; the others are offsets."""

    H, W = 5, 7

    def setup_method(self):
        # exact 0 and n-1, inside, on a cell edge and beyond both ends, per axis
        xs = np.array([0.0, 2.0, 3.25, self.W - 1.5, self.W - 1.0, -0.5, self.W + 0.7])
        ys = np.array([0.0, 1.75, self.H - 1.0, -2.0, self.H + 3.5])
        self.px, self.py = np.meshgrid(xs, ys)
        self.geom = SampleGeometry(self.px, self.py, (self.H, self.W))
        self.stack = np.random.default_rng(11).random((3, self.H, self.W))

    def test_corners_equal_brute_force_gather(self):
        cx = np.clip(self.px, 0.0, self.W - 1.0)
        cy = np.clip(self.py, 0.0, self.H - 1.0)
        x0 = np.minimum(np.floor(cx).astype(int), self.W - 2)
        y0 = np.minimum(np.floor(cy).astype(int), self.H - 2)
        assert (x0 == self.W - 2).any() and (cx == self.W - 1.0).any()  # last column
        assert (y0 == self.H - 2).any() and (cy == self.H - 1.0).any()  # last row
        for data in (self.stack[0], self.stack):
            want = [data[..., y0 + dy, x0 + dx] for dy in (0, 1) for dx in (0, 1)]
            for got, ref in zip(_corners(data, self.geom), want, strict=True):
                np.testing.assert_array_equal(got, ref)

    def test_domain_masks_equal_range_test(self):
        np.testing.assert_array_equal(self.geom.in_x, (self.px >= 0) & (self.px <= self.W - 1))
        np.testing.assert_array_equal(self.geom.in_y, (self.py >= 0) & (self.py <= self.H - 1))

    def test_subset_equals_geometry_of_taken_coordinates(self):
        idx = np.array([0, 4, 5, 13, 20, 34])
        sub = self.geom.subset(idx)
        ref = SampleGeometry(self.px.take(idx), self.py.take(idx), (self.H, self.W))
        assert sub.shape == ref.shape
        for name in SampleGeometry._ARRAYS:
            got, want = getattr(sub, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_stacked_slopes_equal_per_channel_calls(self):
        for geom in (self.geom, self.geom.subset(np.arange(0, 35, 3))):
            ddx, ddy = bilinear_slopes(self.stack, geom)
            for k, channel in enumerate(self.stack):
                cx, cy = bilinear_slopes(channel, geom)
                np.testing.assert_array_equal(ddx[k], cx)
                np.testing.assert_array_equal(ddy[k], cy)

    def test_sample_coords_equal_meshgrid_form(self):
        u = np.random.default_rng(12).normal(scale=3.0, size=(self.H, self.W, 2))
        xx, yy = np.meshgrid(np.arange(self.W, dtype=float), np.arange(self.H, dtype=float))
        px, py = sample_coords(DisplacementField(u))
        assert px.tobytes() == (xx + u[..., 0]).tobytes()
        assert py.tobytes() == (yy + u[..., 1]).tobytes()


class TestNearestSample:
    def setup_method(self):
        self.lab = LabelMap(np.arange(16).reshape(4, 4), num_classes=16)

    def test_rounding(self):
        assert nearest_at(self.lab, (1.4, 2.6)) == self.lab.labels[3, 1]

    def test_half_up_tie(self):
        assert nearest_at(self.lab, (1.5, 1.5)) == self.lab.labels[2, 2]

    def test_clamping(self):
        assert nearest_at(self.lab, (-3, -3)) == self.lab.labels[0, 0]

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            nearest_at(self.lab, (np.inf, 0))


class TestCentralGradient:
    def test_constant_zero(self):
        gx, gy = central_gradient_raw(np.full((5, 5), 3.0), 1.0)
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_linear_exact(self):
        gx, gy = central_gradient_raw(ramp_x().data, 1.0)
        np.testing.assert_allclose(gx, 1.0)
        np.testing.assert_allclose(gy, 0.0)

    def test_quadratic_interior(self):
        xx, _ = np.meshgrid(np.arange(8, dtype=float), np.arange(6, dtype=float))
        gx, _ = central_gradient_raw(xx**2, 1.0)
        # central difference is exact for quadratics: d/dx x^2 = 2x
        assert gx[2, 3] == pytest.approx(6.0)

    def test_spacing_scales(self):
        img = ramp_x(spacing=0.5)
        gx, _ = central_gradient_raw(img.data, img.spacing)
        np.testing.assert_allclose(gx, 2.0)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((7, 9))
        qx = rng.standard_normal((7, 9))
        qy = rng.standard_normal((7, 9))
        gx, gy = central_gradient_raw(f, 0.7)
        lhs = np.sum(gx * qx) + np.sum(gy * qy)
        rhs = np.sum(f * gradient_adjoint(qx, qy, 0.7))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDownsample:
    def test_constant(self):
        out = downsample(Image2D(np.full((4, 4), 0.7)))
        assert out.data.shape == (2, 2)
        np.testing.assert_allclose(out.data, 0.7)
        assert out.spacing == 2.0

    def test_block_mean(self):
        out = downsample(Image2D(np.array([[0.0, 1.0], [2.0, 3.0]])))
        assert out.data[0, 0] == pytest.approx(1.5)

    def test_pyramid_depth_for_112(self):
        img = Image2D(np.zeros((112, 112)))
        twice = downsample(downsample(img))
        assert twice.data.shape == (28, 28)
        assert twice.spacing == 4.0

    def test_mean_preserved(self):
        rng = np.random.default_rng(2)
        img = Image2D(rng.random((16, 24)))
        assert downsample(img).data.mean() == pytest.approx(img.data.mean(), rel=1e-12)

    def test_odd_size_padded(self):
        out = downsample(Image2D(np.ones((5, 7))))
        assert out.data.shape == (3, 4)
        np.testing.assert_allclose(out.data, 1.0)

    @pytest.mark.parametrize("shape", [(3, 8, 8), (4, 37, 50)])
    def test_stack_matches_each_channel_bit_for_bit(self, shape):
        # the one-hot pyramid averages a whole (K, H, W) stack in one call
        stack = np.random.default_rng(3).random(shape)
        whole = block_mean(stack)
        for k, ch in enumerate(stack):
            assert whole[k].tobytes() == downsample(Image2D(ch)).data.tobytes()


class TestNormalize:
    def test_basic(self):
        img = Image2D(np.array([[0.0, 50.0], [100.0, 50.0]]))
        np.testing.assert_allclose(normalize_intensity(img).data,
                                   [[0.0, 0.5], [1.0, 0.5]])

    def test_idempotent_when_full_range(self):
        img = Image2D(np.array([[0.0, 0.25], [0.75, 1.0]]))
        np.testing.assert_allclose(normalize_intensity(img).data, img.data)

    def test_constant_maps_to_zero(self):
        img = Image2D(np.full((4, 4), 9.0))
        assert np.all(normalize_intensity(img).data == 0.0)


class TestOneHot:
    def test_all_background(self):
        lab = LabelMap(np.zeros((3, 3), dtype=int), num_classes=4)
        oh = to_one_hot(lab)
        assert np.all(oh.channels[0] == 1.0)
        assert np.all(oh.channels[1:] == 0.0)

    def test_single_pixel(self):
        labels = np.zeros((3, 3), dtype=int)
        labels[1, 2] = 2
        oh = to_one_hot(LabelMap(labels, num_classes=3))
        np.testing.assert_array_equal(oh.channels[:, 1, 2], [0.0, 0.0, 1.0])

    def test_partition_and_argmax_roundtrip(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, (6, 7))
        oh = to_one_hot(LabelMap(labels, num_classes=5))
        np.testing.assert_allclose(oh.channels.sum(axis=0), 1.0)
        np.testing.assert_array_equal(np.argmax(oh.channels, axis=0), labels)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            LabelMap(np.array([[0, 7]]), num_classes=4)


class TestOneHotCells:
    """The band tables a stack derives from its channels: exact, read-only, built once."""

    def test_straight_edge_band_is_one_column(self):
        labels = np.zeros((6, 9), dtype=int)
        labels[:, 5:] = 1  # the edge runs between columns 4 and 5
        cells = to_one_hot(LabelMap(labels, num_classes=2)).cell_labels.reshape(6, 9)
        expected = np.full((6, 9), -1)
        expected[:-1, :4] = 0
        expected[:-1, 5:-1] = 1
        np.testing.assert_array_equal(cells, expected)
        starts_cell = np.zeros((6, 9), dtype=bool)
        starts_cell[:-1, :-1] = True
        band_columns = np.unique(np.nonzero((cells == -1) & starts_cell)[1])
        np.testing.assert_array_equal(band_columns, [4])

    def test_non_one_hot_stack_is_all_band(self):
        stack = OneHotStack(np.random.default_rng(0).random((3, 5, 6)))
        assert np.all(stack.cell_labels == -1)

    def test_averaged_stack_keeps_uniform_blocks(self):
        labels = np.zeros((8, 8), dtype=int)
        labels[:, 3:] = 1  # the edge splits the 2x2 blocks of columns 2 and 3
        coarse = OneHotStack(block_mean(to_one_hot(LabelMap(labels, num_classes=2)).channels))
        cells = coarse.cell_labels.reshape(4, 4)
        np.testing.assert_array_equal(cells[:-1, :-1], [[-1, -1, 1]] * 3)

    def test_label_sq_distances_brute_force(self):
        rng = np.random.default_rng(1)
        channels = rng.random((3, 4, 5))
        table = OneHotStack(channels).label_sq_distances
        assert table.shape == (4, 20)
        for label in range(3):
            for p, (y, x) in enumerate(np.ndindex(4, 5)):
                expected = sum((float(label == k) - channels[k, y, x]) ** 2 for k in range(3))
                assert table[label, p] == pytest.approx(expected, rel=1e-15)
        assert np.all(table[3] == 0.0)

    def test_arrays_read_only_and_built_once(self):
        stack = to_one_hot(LabelMap(np.eye(4, dtype=int), num_classes=2))
        for name in ("channels", "cell_labels", "label_sq_distances"):
            arr = getattr(stack, name)
            assert not arr.flags.writeable, name
            assert getattr(stack, name) is arr, name
        with pytest.raises(AttributeError):
            stack.channels = np.zeros((2, 4, 4))

    def test_channels_are_a_copy(self):
        channels = np.zeros((2, 3, 3))
        stack = OneHotStack(channels)
        channels[0] = 1.0
        assert np.all(stack.channels == 0.0)
        assert channels.flags.writeable


CONTAINERS = {
    "Image2D": lambda s: Image2D(np.zeros((3, 3)), spacing=s),
    "DisplacementField": lambda s: DisplacementField(np.zeros((3, 3, 2)), spacing=s),
    "ControlGrid": lambda s: ControlGrid(s, np.zeros((4, 4, 2))),
}


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("spacing", [0, -1.0, np.inf, np.nan, True, "x", None])
def test_bad_spacing_rejected(container, spacing):
    with pytest.raises(DomainError):
        CONTAINERS[container](spacing)


@pytest.mark.parametrize("container", sorted(CONTAINERS))
@pytest.mark.parametrize("spacing", [1, 2.5, np.float64(0.5)])
def test_good_spacing_kept(container, spacing):
    obj = CONTAINERS[container](spacing)
    assert getattr(obj, "spacing", getattr(obj, "spacing_px", None)) == spacing
