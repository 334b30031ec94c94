"""Synthetic short-axis cardiac phantoms and labeled registration pairs.

The phantom mimics a short-axis slice: a bright disc (label 1, "LV cavity"),
the muscular ring around it (label 2, "myocardium"), and a crescent hugging
the left half of the ring (label 3, "RV cavity") on a dark background.
Pairs are built by warping one phantom with a seeded smooth deformation, so
dense ground-truth correspondence is known by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bspline import ControlGrid, densify, random_smooth_deformation, warp_image, warp_labels
from .errors import HUGE, TINY, ConfigurationError, check_count, check_real
from .image import Image2D, LabelMap

__all__ = ["PhantomSpec", "PhantomPair", "make_phantom", "make_pair"]

LV_CAVITY = 1
MYOCARDIUM = 2
RV_CAVITY = 3


_MAX_AMPLITUDE = HUGE / 2  # the largest a whose rng.uniform(-a, a) span 2a is finite


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 112
    height: int = 112
    center: tuple = (62.0, 56.0)  # (x, y); off-center so the RV crescent fits
    lv_radius: float = 13.0
    myo_outer_radius: float = 22.0
    rv_thickness: float = 8.0
    intensities: dict = field(default_factory=lambda: {
        0: 0.15, LV_CAVITY: 0.95, MYOCARDIUM: 0.45, RV_CAVITY: 0.8})
    noise_amplitude: float = 0.02
    smooth_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "height"):
            check_count(getattr(self, name), name, 8, ConfigurationError)
        check_count(self.seed, "seed", 0, ConfigurationError)
        check_real(self.noise_amplitude, "noise_amplitude", 0, _MAX_AMPLITUDE, ConfigurationError)
        # the blur pads 4 sigma on each side, so sigma is bounded by the image size
        check_real(self.smooth_sigma, "smooth_sigma", 0, max(self.width, self.height),
                   ConfigurationError)
        if not (0 < self.lv_radius < self.myo_outer_radius):
            raise ConfigurationError("radii must be positive and nested")
        check_real(self.rv_thickness, "rv_thickness", TINY, HUGE, ConfigurationError)
        cx, cy = (check_real(c, "center", -HUGE, HUGE, ConfigurationError) for c in self.center)
        if cx + self.myo_outer_radius >= self.width or cy + self.myo_outer_radius + self.rv_thickness >= self.height:
            raise ConfigurationError("phantom geometry does not fit the image")
        if cx - self.myo_outer_radius - self.rv_thickness < 0:
            raise ConfigurationError("phantom geometry does not fit the image")

    def analytic_areas(self) -> dict:
        """Exact region areas in pixels^2 for rasterization checks."""
        r_lv = self.lv_radius
        r_myo = self.myo_outer_radius
        r_rv = r_myo + self.rv_thickness
        return {
            LV_CAVITY: math.pi * r_lv**2,
            MYOCARDIUM: math.pi * (r_myo**2 - r_lv**2),
            RV_CAVITY: math.pi * (r_rv**2 - r_myo**2) / 2.0,
        }


@dataclass
class PhantomPair:
    fixed_image: Image2D
    fixed_labels: LabelMap
    moving_image: Image2D
    moving_labels: LabelMap
    true_grid: ControlGrid

    @property
    def true_field(self):
        return densify(self.true_grid, self.fixed_image.width, self.fixed_image.height,
                       self.fixed_image.spacing)


def _gaussian_blur(data: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with replicated edges, truncated at 4 sigma.

    Weights and summation order are those of
    ``scipy.ndimage.gaussian_filter(data, sigma, mode="nearest")``, so the
    result is bit-identical to it: axis 0 first, each output starting from
    the centre tap and adding the symmetric pairs from the outermost in.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    taps = taps / taps.sum()
    for axis in (0, 1):
        x = np.moveaxis(data, axis, 0)
        n = x.shape[0]
        p = np.pad(x, [(r, r), (0, 0)], mode="edge")
        out = p[r:r + n] * taps[r]
        for j in range(r, 0, -1):
            out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * taps[r + j]
        data = np.moveaxis(out, 0, axis)
    return np.ascontiguousarray(data)  # C order, as scipy returns it


def make_phantom(spec: PhantomSpec):
    """Deterministic phantom image + label map for one spec."""
    cx, cy = spec.center
    xx, yy = np.meshgrid(np.arange(spec.width, dtype=np.float64),
                         np.arange(spec.height, dtype=np.float64))
    r = np.hypot(xx - cx, yy - cy)
    labels = np.zeros((spec.height, spec.width), dtype=np.int32)
    labels[r <= spec.lv_radius] = LV_CAVITY
    labels[(r > spec.lv_radius) & (r <= spec.myo_outer_radius)] = MYOCARDIUM
    crescent = (r > spec.myo_outer_radius) & (r <= spec.myo_outer_radius + spec.rv_thickness) & (xx < cx)
    labels[crescent] = RV_CAVITY

    data = np.empty((spec.height, spec.width), dtype=np.float64)
    for lbl, inten in spec.intensities.items():
        data[labels == lbl] = inten
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        data = data + rng.uniform(-spec.noise_amplitude, spec.noise_amplitude, data.shape)
    if spec.smooth_sigma > 0:
        data = _gaussian_blur(data, spec.smooth_sigma)
    np.clip(data, 0.0, 1.0, out=data)
    return Image2D(data), LabelMap(labels, num_classes=4)


def make_pair(spec: PhantomSpec, deform_magnitude_px: float = 2.0, seed: int = 0,
              control_spacing_px: float = 16.0,
              observation_noise: float = 0.0) -> PhantomPair:
    """Labeled pair with known ground truth: fixed is the phantom warped by a seeded field.

    ``observation_noise`` adds independent seeded noise to the two images after
    warping, mimicking per-acquisition scanner noise that no deformation can
    reconcile.
    """
    check_real(deform_magnitude_px, "deform_magnitude_px", 0, _MAX_AMPLITUDE, ConfigurationError)
    check_real(observation_noise, "observation_noise", 0, _MAX_AMPLITUDE, ConfigurationError)
    check_count(seed, "seed", 0, ConfigurationError)
    # the same rule as the registration's control spacing: a lattice finer than the
    # pixels has more nodes than pixels
    check_real(control_spacing_px, "control_spacing_px", 1, HUGE, ConfigurationError)
    moving_img, moving_lab = make_phantom(spec)
    grid = random_smooth_deformation(spec.width, spec.height, deform_magnitude_px,
                                     seed=seed, spacing_px=control_spacing_px)
    fld = densify(grid, spec.width, spec.height)
    fixed_img = warp_image(moving_img, fld)
    fixed_lab = warp_labels(moving_lab, fld)
    if observation_noise > 0:
        rng = np.random.default_rng((seed, 1))
        shape = fixed_img.data.shape
        fixed_img = Image2D(np.clip(
            fixed_img.data + rng.uniform(-observation_noise, observation_noise, shape), 0, 1))
        moving_img = Image2D(np.clip(
            moving_img.data + rng.uniform(-observation_noise, observation_noise, shape), 0, 1))
    return PhantomPair(fixed_image=fixed_img, fixed_labels=fixed_lab,
                       moving_image=moving_img, moving_labels=moving_lab,
                       true_grid=grid)
