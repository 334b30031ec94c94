import time

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
    geom = SampleGeometry(data.shape, np.shape(px)).fill(px, py)
    return bilinear_sample_with_grad(data, geom), *bilinear_slopes(data, geom)


def bilinear_at(img, p):
    """The sampled value at one point ``p = (x, y)``."""
    return bilinear(img.data, p[0], p[1])[0]


def nearest_at(lab, p):
    """The nearest label at one point ``p = (x, y)``."""
    return nearest_sample(lab.labels, p[0], p[1])


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
        geom = SampleGeometry((4, 4), 1).fill(np.array([1.5]), np.array([0.5]))
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
        # exact 0 and n-1, inside, on a cell edge, beyond both ends and at +-1e300,
        # per axis: the clamp alone keeps every cell on the grid
        xs = np.array([0.0, 2.0, 3.25, self.W - 1.5, self.W - 1.0, -0.5, self.W + 0.7,
                       -1e300, 1e300])
        ys = np.array([0.0, 1.75, self.H - 1.0, -2.0, self.H + 3.5, -1e300, 1e300])
        self.px, self.py = np.meshgrid(xs, ys)
        self.geom = SampleGeometry((self.H, self.W), self.px.shape).fill(self.px, self.py)
        self.stack = np.random.default_rng(11).random((3, self.H, self.W))

    def brute_force_corners(self, data):
        """v00, v01, v10, v11 of every sample, by 2D indexing of each channel."""
        cx = np.clip(self.px, 0.0, self.W - 1.0)
        cy = np.clip(self.py, 0.0, self.H - 1.0)
        x0 = np.minimum(np.floor(cx).astype(int), self.W - 2)
        y0 = np.minimum(np.floor(cy).astype(int), self.H - 2)
        assert (x0 == self.W - 2).any() and (cx == self.W - 1.0).any()  # last column
        assert (y0 == self.H - 2).any() and (cy == self.H - 1.0).any()  # last row
        return [data[..., y0 + dy, x0 + dx] for dy in (0, 1) for dx in (0, 1)]

    def test_corners_equal_brute_force_gather(self):
        data = self.stack[0]
        assert 0 <= self.geom.i00.min() and self.geom.i00.max() == self.H * self.W - self.W - 2
        for got, ref in zip(_corners(data, self.geom), self.brute_force_corners(data),
                            strict=True):
            np.testing.assert_array_equal(got, ref)

    def test_slopes_equal_corner_formula_bit_for_bit(self):
        """The slopes equal the interpolant's derivative built from the four
        corners, bit for bit, for one channel and a stack, with samples clamped
        on both axes."""
        g = self.geom
        assert not g.in_x.all() and not g.in_y.all()
        for data in (self.stack[0], self.stack):
            v00, v01, v10, v11 = self.brute_force_corners(data)
            want_x = (g.gy * (v01 - v00) + g.fy * (v11 - v10)) * g.in_x
            want_y = (g.gx * (v10 - v00) + g.fx * (v11 - v01)) * g.in_y
            ddx, ddy = bilinear_slopes(data, g)
            assert ddx.shape == ddy.shape == data.shape[:-2] + self.px.shape
            assert ddx.tobytes() == want_x.tobytes()
            assert ddy.tobytes() == want_y.tobytes()

    def test_domain_masks_equal_range_test(self):
        np.testing.assert_array_equal(self.geom.in_x, (self.px >= 0) & (self.px <= self.W - 1))
        np.testing.assert_array_equal(self.geom.in_y, (self.py >= 0) & (self.py <= self.H - 1))

    def test_subset_equals_geometry_of_taken_coordinates(self):
        idx = np.array([0, 4, 5, 13, 20, 34])
        sub = self.geom.subset(idx)
        ref = SampleGeometry((self.H, self.W), idx.shape).fill(self.px.take(idx),
                                                             self.py.take(idx))
        assert sub.shape == ref.shape
        for name in SampleGeometry._ARRAYS:
            got, want = getattr(sub, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_fill_rewrites_the_arrays_in_place(self):
        geom = SampleGeometry((self.H, self.W), self.px.shape)
        arrays = [getattr(geom, name) for name in SampleGeometry._ARRAYS]
        rng = np.random.default_rng(13)
        for px, py in ((rng.normal(scale=9.0, size=self.px.shape),) * 2, (self.px, self.py)):
            assert geom.fill(px, py) is geom
        for name, array in zip(SampleGeometry._ARRAYS, arrays):
            assert getattr(geom, name) is array, name
            assert array.tobytes() == getattr(self.geom, name).tobytes(), name
        with pytest.raises(DomainError, match="finite"):
            geom.fill(np.full(self.px.shape, np.inf), self.py)

    def test_subset_into_buffers_equals_subset(self):
        out = SampleGeometry((self.H, self.W), self.px.size)
        for idx in (np.array([0, 4, 5, 13, 20, 34]), np.arange(self.px.size), np.array([], int)):
            sub, ref = self.geom.subset(idx, out=out), self.geom.subset(idx)
            for name in SampleGeometry._ARRAYS:
                got = getattr(sub, name)
                assert np.shares_memory(got, getattr(out, name)) or not idx.size, name
                assert got.dtype == getattr(ref, name).dtype, name
                np.testing.assert_array_equal(got, getattr(ref, name), err_msg=name)

    def test_stacked_slopes_equal_per_channel_calls(self):
        for geom in (self.geom, self.geom.subset(np.arange(0, 35, 3))):
            ddx, ddy = bilinear_slopes(self.stack, geom)
            for k, channel in enumerate(self.stack):
                cx, cy = bilinear_slopes(channel, geom)
                np.testing.assert_array_equal(ddx[k], cx)
                np.testing.assert_array_equal(ddy[k], cy)

    def test_stack_gathered_as_its_channels(self):
        """One gather of a (K, h, w) stack equals K gathers of its channels, and its
        slopes, written into prefixes of buffers sized for every sample as the band
        pullback writes them, equal K per-channel calls and the corner formula, bit
        for bit, at interior and clamped samples."""
        k, size = len(self.stack), self.px.size
        assert not self.geom.in_x.all() and not self.geom.in_y.all()
        for idx in (np.arange(size), np.arange(0, size, 3)):
            geom, n = self.geom.subset(idx), idx.size
            corners = _corners(self.stack, geom)
            for ch, channel in enumerate(self.stack):
                for got, want in zip(corners, _corners(channel, geom), strict=True):
                    assert got[ch].tobytes() == want.tobytes()
            slopes, gathered = (np.full((m, k * size), np.nan)[:, :k * n].reshape(m, k, n)
                                for m in (2, 4))
            ddx, ddy = bilinear_slopes(self.stack, geom, out=slopes, corners=gathered)
            v00, v01, v10, v11 = corners
            want_x = (geom.gy * (v01 - v00) + geom.fy * (v11 - v10)) * geom.in_x
            want_y = (geom.gx * (v10 - v00) + geom.fx * (v11 - v01)) * geom.in_y
            assert ddx.tobytes() == want_x.tobytes() and ddy.tobytes() == want_y.tobytes()
            for ch, channel in enumerate(self.stack):
                cx, cy = bilinear_slopes(channel, geom)
                assert ddx[ch].tobytes() == cx.tobytes() and ddy[ch].tobytes() == cy.tobytes()

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

    def test_matches_bilinear_cell_rounding(self):
        # reference: the bilinear geometry's cell origin plus one on each axis where
        # the weight is at least 0.5, on a 5x7 grid
        h, w = 5, 7
        labels = np.arange(h * w).reshape(h, w)
        rng = np.random.default_rng(3)
        edges = [-2.5, -0.5, -1e-12, 0.0, 0.5, 1.5, 2.5, 3.5, 5.5, 6.0, 6.5, 1e3]
        px = np.concatenate([edges, [w - 1.0, w - 1.5, 4.0 - 1e-12], rng.uniform(-3, w + 2, 500),
                             np.round(rng.uniform(-6, 2 * w + 4, 500)) / 2])
        py = np.concatenate([edges[::-1], [h - 1.0, h - 1.5, 0.5], rng.uniform(-3, h + 2, 500),
                             np.round(rng.uniform(-6, 2 * h + 4, 500)) / 2])
        g = SampleGeometry((h, w), px.shape).fill(px, py)
        expected = labels.take(g.i00 + (g.fx >= 0.5) + w * (g.fy >= 0.5))
        np.testing.assert_array_equal(nearest_sample(labels, px, py), expected)
        np.testing.assert_array_equal(nearest_sample(labels, px.reshape(-1, 1), py.reshape(-1, 1)),
                                      expected.reshape(-1, 1))


def stencil_per_axis(f, h):
    """Central differences along axis 0, one-sided at its ends, written per slice."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (f[1] - f[0]) / h
    g[-1] = (f[-1] - f[-2]) / h
    return g


def stencil_adjoint_per_axis(g, q, h):
    """``g += D' q`` for :func:`stencil_per_axis` along axis 0, written per slice."""
    mid, first, last = q[1:-1] / (2.0 * h), q[0] / h, q[-1] / h
    g[2:] += mid
    g[:-2] -= mid
    g[0] -= first
    g[1] += first
    g[-1] += last
    g[-2] -= last


class TestCentralGradient:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 7), (9, 4)])
    def test_flat_pass_equals_stencil_per_axis_bit_for_bit(self, shape):
        """The operators run as flat passes; every entry equals the per-axis
        stencil and its transpose, written slice by slice, in its last bit."""
        rng = np.random.default_rng(sum(shape))
        # entries that differ by orders of magnitude make any reordering show
        f, qx, qy = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
                     for _ in range(3))
        gx, gy = central_gradient_raw(f, 0.7)
        assert gx.tobytes() == stencil_per_axis(f.T, 0.7).T.copy().tobytes()
        assert gy.tobytes() == stencil_per_axis(f, 0.7).tobytes()
        want = np.zeros(shape)
        stencil_adjoint_per_axis(want.T, qx.T, 0.7)
        stencil_adjoint_per_axis(want, qy, 0.7)
        kept = qx.copy(), qy.copy()
        assert gradient_adjoint(qx, qy, 0.7).tobytes() == want.tobytes()
        assert qx.tobytes() == kept[0].tobytes() and qy.tobytes() == kept[1].tobytes()
        out = np.full(shape, np.nan)
        assert gradient_adjoint(qx, qy, 0.7, out=out) is out
        assert out.tobytes() == want.tobytes()

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

    def test_labels_cannot_change_after_the_checks(self):
        """A label map keeps a read-only int32 copy, so no code escapes the range
        check later: label 9 written into a 4-class map gave an all-zero one-hot vector."""
        source = np.zeros((3, 3), dtype=np.int64)
        lab = LabelMap(source, num_classes=4)
        assert lab.labels.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            lab.labels[0, 0] = 9
        source[0, 0] = 9
        assert np.all(to_one_hot(lab).channels.sum(axis=0) == 1.0)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            LabelMap(np.array([[0, 7]]), num_classes=4)

    @pytest.mark.parametrize("num_classes", [4.0, True, 0])
    def test_num_classes_must_be_a_positive_integer(self, num_classes):
        with pytest.raises(DomainError, match="num_classes"):
            LabelMap(np.array([[0, 1]]), num_classes=num_classes)

    @pytest.mark.parametrize("value", [1.7, np.nan])
    def test_non_integral_labels_rejected(self, value):
        """A fractional label is refused, not truncated to the label below it."""
        with pytest.raises(DomainError, match="labels must be integers"):
            LabelMap(np.array([[0.0, value]]), num_classes=4)

    def test_numpy_count_and_integral_floats_accepted(self):
        lab = LabelMap(np.array([[0.0, 3.0]]), num_classes=np.int64(4))
        assert lab.labels.dtype == np.int32
        np.testing.assert_array_equal(lab.labels, [[0, 3]])


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

    def test_label_sq_distances_linear_in_classes(self):
        """One pixel coded 4000 in a 16 px map makes 4,001 channels; a table built
        with one copy of the stack per label took 7 s, the table takes O(K) passes."""
        labels = np.zeros((16, 16), dtype=int)
        labels[3, 4] = 4000
        stack = to_one_hot(LabelMap(labels, num_classes=4001))
        start = time.perf_counter()
        table = stack.label_sq_distances
        assert time.perf_counter() - start < 1.0
        want = np.full((4002, 256), 2.0)
        want[0, labels.reshape(-1) == 0] = want[4000, 3 * 16 + 4] = want[4001] = 0.0
        assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_channels_rejected(self, value):
        """A non-finite channel would make the loss and its gradient non-finite."""
        channels = np.zeros((3, 12, 12))
        channels[1, 4, 7] = value
        with pytest.raises(DomainError, match="finite"):
            OneHotStack(channels)

    def test_no_channels_rejected(self):
        """A stack without channels has no label per pixel, as a label map with
        num_classes 0 has none; ``cell_labels`` died in numpy's argmax."""
        with pytest.raises(DomainError, match="at least one channel"):
            OneHotStack(np.zeros((0, 4, 4)))


# each immutable container: a factory from its array, the array's field and the
# arrays it derives from it on first use
IMMUTABLE = {
    "OneHotStack": (OneHotStack, "channels", ("cell_labels", "label_sq_distances")),
    "Image2D": (Image2D, "data", ("gradient",)),
    "LabelMap": (lambda labels: LabelMap(labels, num_classes=2), "labels", ()),
}


@pytest.mark.parametrize("kind", sorted(IMMUTABLE))
def test_arrays_read_only_and_built_once(kind):
    make, field, derived = IMMUTABLE[kind]
    labels = to_one_hot(LabelMap(np.eye(4, dtype=int), num_classes=2)).channels
    obj = make(labels if kind == "OneHotStack" else labels[1])
    for name in (field, *derived):
        arr = getattr(obj, name)
        for a in arr if isinstance(arr, tuple) else (arr,):  # the gradient's planes
            assert not a.flags.writeable, name
        assert getattr(obj, name) is arr, name
    with pytest.raises(AttributeError):
        setattr(obj, field, np.zeros_like(getattr(obj, field)))


@pytest.mark.parametrize("kind", sorted(IMMUTABLE))
def test_channels_are_a_copy(kind):
    make, field, _ = IMMUTABLE[kind]
    array = np.zeros((2, 3, 3)) if kind == "OneHotStack" else np.zeros((3, 3))
    obj = make(array)
    array[0] = 1.0
    assert np.all(getattr(obj, field) == 0.0)
    assert array.flags.writeable


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
