"""2D deformable image registration with an NGF distance, curvature
regularization, and a weakly-supervised one-hot segmentation boundary term,
minimized coarse-to-fine over a cubic B-spline control grid."""

from .bspline import (
    ControlGrid,
    DeformationQuality,
    DisplacementField,
    deformation_quality,
    densify,
    make_grid,
    prolongate,
    random_smooth_deformation,
    warp_image,
    warp_labels,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .image import (
    Image2D,
    LabelMap,
    OneHotStack,
    downsample,
    normalize_intensity,
    to_one_hot,
)
from .lossterms import LossReport, LossWeights, boundary_ssd, curvature, total_loss
from .metrics import EvalReport, dice, difference_image, evaluate_pair
from .phantom import PhantomPair, PhantomSpec, make_pair, make_phantom
from .solver import RegistrationConfig, RegistrationResult, ablate, register

__version__ = "0.1.0"
