"""Multi-level minimization of the combined loss over B-spline coefficients.

Coarse-to-fine: the coarsest level starts from the zero grid, each solved grid
is prolongated to the next finer level and re-solved. The per-level solver is
gradient descent with Armijo backtracking, so the recorded loss history is
monotone non-increasing within a level.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bspline import (
    ControlGrid,
    DeformationQuality,
    DisplacementField,
    deformation_quality,
    densify,
    make_grid,
    prolongate,
)
from .errors import ConfigurationError, DomainError, NumericalError
from .image import Image2D, LabelMap, OneHotStack, block_mean, downsample, to_one_hot
from .lossterms import LossWeights, total_loss

__all__ = ["RegistrationConfig", "LevelTrace", "RegistrationResult", "register", "ablate"]

GRADIENT_TOLERANCE = 1e-6  # relative to the level's initial gradient norm
ARMIJO_CONSTANT = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass
class RegistrationConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    num_levels: int = 3
    finest_control_spacing_px: float = 8.0
    max_iters_per_level: int = 100

    def __post_init__(self):
        if self.num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        # a lattice finer than the pixels has more nodes than pixels, and its
        # grid and Gram matrices grow as 1/spacing^2
        if not 1 <= self.finest_control_spacing_px < np.inf:
            raise ConfigurationError("control spacing must be finite and at least 1 pixel, "
                                     f"got {self.finest_control_spacing_px!r}")
        if self.max_iters_per_level < 1:
            raise ConfigurationError("max_iters_per_level must be >= 1")


@dataclass
class LevelTrace:
    level: int  # 0 is finest
    width: int
    height: int
    losses: list
    termination: str


@dataclass
class RegistrationResult:
    grid: ControlGrid
    field: DisplacementField
    level_traces: list
    duration_s: float
    config: RegistrationConfig

    @property
    def quality(self) -> DeformationQuality:
        """Computed on access, so a kept result does not hold the determinant map."""
        return deformation_quality(self.field)

    def report_dict(self):
        """Deterministic report payload; wall-clock time deliberately excluded."""
        final = self.level_traces[-1].losses[-1] if self.level_traces else None
        return {
            "config": asdict(self.config),
            "levels": [
                {
                    "level": t.level,
                    "width": t.width,
                    "height": t.height,
                    "iterations": len(t.losses) - 1,
                    "termination": t.termination,
                    "losses": t.losses,
                }
                for t in self.level_traces
            ],
            "final_loss": final,
            "folding_fraction": self.quality.folding_fraction,
        }


def _build_pyramid(img: Image2D, levels: int):
    pyr = [img]
    for _ in range(levels - 1):
        pyr.append(downsample(pyr[-1]))
    return pyr


def _build_onehot_pyramid(lab: LabelMap, levels: int):
    """One-hot at full resolution, then the whole stack block-averaged per level."""
    pyr = [to_one_hot(lab)]
    for _ in range(levels - 1):
        pyr.append(OneHotStack(block_mean(pyr[-1].channels)))
    return pyr


def _solve_level(fixed, moving, fixed_oh, moving_oh, grid, cfg, level):
    """Armijo-backtracking gradient descent on the coefficients of one level."""
    w = cfg.weights
    coeffs = grid.coeffs.copy()

    def forward(c):
        return total_loss(fixed, moving, fixed_oh, moving_oh,
                          ControlGrid(grid.spacing_px, c), w, with_grad=False)

    rep = forward(coeffs)
    f0 = rep.total
    if not np.isfinite(f0):
        raise NumericalError("non-finite loss at level start", level=level,
                             iteration=0, weights=asdict(w))
    g = rep.backward()
    losses = [f0]
    gnorm0 = float(np.linalg.norm(g))
    step = 1.0 / (float(np.abs(g).max()) + 1e-12)
    termination = "max_iters"
    for it in range(cfg.max_iters_per_level):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRADIENT_TOLERANCE * gnorm0:
            termination = "gradient_tolerance"
            break
        gg = gnorm * gnorm
        t = step
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            trial = coeffs - t * g
            rep = None  # free the rejected trial's forward state before the next one
            rep = forward(trial)
            ft = rep.total
            if not np.isfinite(ft):
                raise NumericalError("non-finite loss during line search", level=level,
                                     iteration=it, weights=asdict(w))
            if ft <= f0 - ARMIJO_CONSTANT * t * gg:
                accepted = True
                break
            t *= BACKTRACK_FACTOR
        if not accepted:
            termination = "line_search_failure"
            break
        # the accepted trial's forward pass is the new point's: only its backward pass runs
        coeffs = trial
        f0, g = ft, rep.backward()
        losses.append(f0)
        step = 2.0 * t  # warm-start next trial from the last accepted step
    return ControlGrid(grid.spacing_px, coeffs), losses, termination


def register(fixed: Image2D, moving: Image2D,
             fixed_lab: LabelMap | None = None, moving_lab: LabelMap | None = None,
             cfg: RegistrationConfig | None = None) -> RegistrationResult:
    """Coarse-to-fine registration of a moving image onto a fixed image.

    Label maps are optional; when absent the boundary weight is treated as
    zero and the run is fully unsupervised.
    """
    if cfg is None:
        cfg = RegistrationConfig()
    if fixed.data.shape != moving.data.shape:
        raise DomainError("register: fixed/moving dimensions differ")
    if fixed.spacing != moving.spacing:
        raise DomainError(f"register: fixed spacing {fixed.spacing} and moving spacing "
                          f"{moving.spacing} differ")
    if (fixed_lab is None) != (moving_lab is None):
        raise DomainError("register: either both label maps or neither")
    w = cfg.weights
    if fixed_lab is not None:
        if fixed_lab.num_classes != moving_lab.num_classes:
            raise DomainError("register: label maps disagree on num_classes")
        if fixed_lab.labels.shape != fixed.data.shape:
            raise DomainError("register: label map and image dimensions differ")
        if moving_lab.labels.shape != moving.data.shape:
            raise DomainError("register: moving label map and moving image dimensions differ")
    else:
        w = replace(w, beta=0.0)

    start = time.perf_counter()
    fixed_pyr = _build_pyramid(fixed, cfg.num_levels)
    moving_pyr = _build_pyramid(moving, cfg.num_levels)
    coarse = fixed_pyr[-1]
    if coarse.width < 8 or coarse.height < 8:
        raise ConfigurationError(
            f"num_levels={cfg.num_levels} leaves a {coarse.width}x{coarse.height} "
            "coarsest image; need at least 8x8"
        )
    if w.beta != 0.0:
        fixed_oh_pyr = _build_onehot_pyramid(fixed_lab, cfg.num_levels)
        moving_oh_pyr = _build_onehot_pyramid(moving_lab, cfg.num_levels)
    else:
        fixed_oh_pyr = [None] * cfg.num_levels
        moving_oh_pyr = [None] * cfg.num_levels

    spacing_px = cfg.finest_control_spacing_px
    traces = []
    grid = None
    for level in range(cfg.num_levels - 1, -1, -1):
        f_l = fixed_pyr[level]
        m_l = moving_pyr[level]
        if grid is None:
            grid = make_grid(f_l.width, f_l.height, spacing_px)
        else:
            grid = prolongate(grid, f_l.width, f_l.height)
        grid, losses, termination = _solve_level(
            f_l, m_l, fixed_oh_pyr[level], moving_oh_pyr[level], grid, cfg, level)
        traces.append(LevelTrace(level=level, width=f_l.width, height=f_l.height,
                                 losses=losses, termination=termination))

    fld = densify(grid, fixed.width, fixed.height)
    fld.spacing = fixed.spacing
    duration = time.perf_counter() - start
    return RegistrationResult(grid=grid, field=fld, level_traces=traces,
                              duration_s=duration, config=cfg)


def ablate(dataset, cfg: RegistrationConfig, parameter: str, factors):
    """Re-run registration with one scaled weight per factor; returns table rows.

    ``dataset`` is a list of (fixed, moving, fixed_lab, moving_lab) tuples.
    Rows are (factor, mean Dice over foreground labels, mean folding percent),
    emitted in the given factor order.
    """
    from .metrics import evaluate_pair

    if not dataset:
        raise DomainError("ablate: dataset is empty")
    if parameter not in ("delta", "alpha", "beta"):
        raise DomainError(f"ablate: unknown parameter '{parameter}'")

    def run_pair(pair, run_cfg):
        fixed, moving, fixed_lab, moving_lab = pair
        res = register(fixed, moving, fixed_lab, moving_lab, run_cfg)
        rep = evaluate_pair(fixed_lab, moving_lab, res.field)
        return rep.mean_dice, res.quality.folding_fraction

    rows = []
    for factor in factors:
        w = replace(cfg.weights, **{parameter: getattr(cfg.weights, parameter) * factor})
        run_cfg = replace(cfg, weights=w)
        dices, folds = zip(*(run_pair(p, run_cfg) for p in dataset))
        rows.append((factor, float(np.mean(dices)), float(np.mean(folds)) * 100.0))
    return rows
