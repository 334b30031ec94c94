"""Evaluation: per-label Dice overlap, folding percentage, difference images."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import DisplacementField, deformation_quality, warp_labels
from .errors import DomainError
from .image import Image2D, LabelMap

__all__ = ["EvalReport", "dice", "evaluate_pair", "difference_image"]


@dataclass
class EvalReport:
    per_label_dice: dict  # label id -> Dice in [0, 1], foreground labels only
    mean_dice: float  # equal-weight mean over foreground labels
    folding_percent: float

    def as_dict(self):
        return {
            "per_label_dice": {str(k): v for k, v in self.per_label_dice.items()},
            "mean_dice": self.mean_dice,
            "folding_percent": self.folding_percent,
        }


def dice(a: LabelMap, b: LabelMap, label: int) -> float:
    """Overlap 2|A&B|/(|A|+|B|); both-empty counts as perfect agreement (1.0)."""
    if a.labels.shape != b.labels.shape:
        raise DomainError("dice: label map dimensions differ")
    ma = a.labels == label
    mb = b.labels == label
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(ma & mb)) / denom


def evaluate_pair(fixed_lab: LabelMap, moving_lab: LabelMap,
                  fld: DisplacementField) -> EvalReport:
    """Warp the moving labels through the field and score them against the fixed labels."""
    if fixed_lab.labels.shape != (fld.height, fld.width):
        raise DomainError("evaluate_pair: labels and field dimensions differ")
    if moving_lab.labels.shape != (fld.height, fld.width):
        raise DomainError("evaluate_pair: moving label map and field dimensions differ")
    if fixed_lab.num_classes != moving_lab.num_classes:
        raise DomainError("evaluate_pair: label maps disagree on num_classes")
    warped = warp_labels(moving_lab, fld)
    per_label = {k: dice(fixed_lab, warped, k) for k in range(1, fixed_lab.num_classes)}
    mean = float(np.mean(list(per_label.values()))) if per_label else 1.0
    folding = deformation_quality(fld).folding_fraction * 100.0
    return EvalReport(per_label_dice=per_label, mean_dice=mean, folding_percent=folding)


def difference_image(a: Image2D, b: Image2D) -> Image2D:
    """(a - b) mapped from [-1, 1] to [0, 1]; 0.5 (grey) means equal pixels."""
    if a.data.shape != b.data.shape:
        raise DomainError("difference_image: dimensions differ")
    if a.spacing != b.spacing:
        raise DomainError(f"difference_image: spacings {a.spacing} and {b.spacing} differ")
    return Image2D(np.clip((a.data - b.data + 1.0) / 2.0, 0.0, 1.0), spacing=a.spacing)
