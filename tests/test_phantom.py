"""Synthetic phantom generator: geometry, determinism, pair construction."""

import numpy as np
import pytest

from defreg import (
    ConfigurationError,
    PhantomSpec,
    make_pair,
    make_phantom,
)
from defreg.bspline import deformation_quality


SMALL = dict(width=64, height=64, center=(36.0, 32.0), lv_radius=8.0,
             myo_outer_radius=13.0, rv_thickness=5.0)


class TestGeometry:
    def test_center_is_lv_cavity(self):
        spec = PhantomSpec()
        _, lab = make_phantom(spec)
        cx, cy = spec.center
        assert lab.labels[int(cy), int(cx)] == 1

    def test_ring_is_myocardium(self):
        spec = PhantomSpec()
        cx, cy = spec.center
        r = 0.5 * (spec.lv_radius + spec.myo_outer_radius)
        _, lab = make_phantom(spec)
        assert lab.labels[int(cy), int(cx + r)] == 2
        assert lab.labels[int(cy + r), int(cx)] == 2

    def test_crescent_left_half_only(self):
        spec = PhantomSpec()
        cx, cy = spec.center
        r = spec.myo_outer_radius + 0.5 * spec.rv_thickness
        _, lab = make_phantom(spec)
        assert lab.labels[int(cy), int(cx - r)] == 3  # left of center
        assert lab.labels[int(cy), int(cx + r)] == 0  # right side is background

    def test_far_corner_is_background(self):
        _, lab = make_phantom(PhantomSpec())
        assert lab.labels[0, 0] == 0
        assert lab.num_classes == 4

    def test_noiseless_intensities_exact(self):
        spec = PhantomSpec(noise_amplitude=0.0, smooth_sigma=0.0)
        img, lab = make_phantom(spec)
        for lbl, inten in spec.intensities.items():
            region = lab.labels == lbl
            assert np.all(img.data[region] == inten)

    def test_label_areas_match_analytic_within_perimeter(self):
        # Rasterized pixel counts can deviate from the analytic areas by at
        # most O(perimeter) pixels.
        spec = PhantomSpec()
        _, lab = make_phantom(spec)
        areas = spec.analytic_areas()
        perims = {
            1: 2 * np.pi * spec.lv_radius,
            2: 2 * np.pi * (spec.lv_radius + spec.myo_outer_radius),
            3: np.pi * (2 * spec.myo_outer_radius + spec.rv_thickness)
               + 2 * spec.rv_thickness,
        }
        for lbl, area in areas.items():
            count = int(np.count_nonzero(lab.labels == lbl))
            assert abs(count - area) <= perims[lbl]

    def test_intensity_range(self):
        img, _ = make_phantom(PhantomSpec())
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(width=4), dict(lv_radius=0.0), dict(lv_radius=30.0),
        dict(rv_thickness=-1.0), dict(center=(108.0, 56.0)),
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PhantomSpec(**kwargs)


class TestDeterminism:
    def test_phantom_reproducible(self):
        a_img, a_lab = make_phantom(PhantomSpec())
        b_img, b_lab = make_phantom(PhantomSpec())
        assert np.array_equal(a_img.data, b_img.data)
        assert np.array_equal(a_lab.labels, b_lab.labels)

    def test_pair_reproducible(self):
        spec = PhantomSpec(**SMALL)
        a = make_pair(spec, deform_magnitude_px=3.0, seed=5, observation_noise=0.01)
        b = make_pair(spec, deform_magnitude_px=3.0, seed=5, observation_noise=0.01)
        assert np.array_equal(a.fixed_image.data, b.fixed_image.data)
        assert np.array_equal(a.moving_image.data, b.moving_image.data)
        assert np.array_equal(a.true_grid.coeffs, b.true_grid.coeffs)

    def test_seed_changes_pair(self):
        spec = PhantomSpec(**SMALL)
        a = make_pair(spec, deform_magnitude_px=3.0, seed=1)
        b = make_pair(spec, deform_magnitude_px=3.0, seed=2)
        assert not np.array_equal(a.fixed_image.data, b.fixed_image.data)


class TestMakePair:
    def test_displacement_bounded_by_magnitude(self):
        spec = PhantomSpec(**SMALL)
        mag = 3.0
        pair = make_pair(spec, deform_magnitude_px=mag, seed=0)
        fld = pair.true_field
        # dense field is a convex combination of coefficients in [-mag, mag]
        assert np.abs(fld.u).max() <= mag + 1e-12
        assert np.abs(pair.true_grid.coeffs).max() <= mag

    def test_zero_magnitude_is_identity(self):
        spec = PhantomSpec(**SMALL)
        pair = make_pair(spec, deform_magnitude_px=0.0, seed=0)
        assert np.all(pair.true_field.u == 0.0)
        assert np.array_equal(pair.fixed_image.data, pair.moving_image.data)
        assert np.array_equal(pair.fixed_labels.labels, pair.moving_labels.labels)

    def test_moderate_field_does_not_fold(self):
        spec = PhantomSpec(**SMALL)
        pair = make_pair(spec, deform_magnitude_px=2.0, seed=3)
        assert deformation_quality(pair.true_field).folding_fraction == 0.0

    def test_observation_noise_decorrelates_images(self):
        spec = PhantomSpec(**SMALL)
        clean = make_pair(spec, deform_magnitude_px=0.0, seed=0)
        noisy = make_pair(spec, deform_magnitude_px=0.0, seed=0,
                          observation_noise=0.05)
        assert np.array_equal(clean.fixed_image.data, clean.moving_image.data)
        assert not np.array_equal(noisy.fixed_image.data, noisy.moving_image.data)

    def test_labels_follow_field(self):
        # The fixed labels are the moving labels pushed through the true field,
        # so re-warping the moving labels must reproduce them exactly.
        from defreg.bspline import warp_labels

        spec = PhantomSpec(**SMALL)
        pair = make_pair(spec, deform_magnitude_px=3.0, seed=4)
        rewarped = warp_labels(pair.moving_labels, pair.true_field)
        assert np.array_equal(rewarped.labels, pair.fixed_labels.labels)

