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
from .errors import HUGE, ConfigurationError, DomainError, NumericalError, check_count, check_real
from .image import Image2D, LabelMap, OneHotStack, block_mean, downsample, to_one_hot
from .lossterms import LevelBuffers, LossWeights, total_loss

__all__ = ["RegistrationConfig", "LevelTrace", "RegistrationResult", "register", "ablate"]

# a level has stalled when its last STALL_WINDOW accepted steps together lowered
# the loss by at most STALL_TOLERANCE of its current value
STALL_WINDOW = 10
STALL_TOLERANCE = 1e-3
ARMIJO_CONSTANT = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class RegistrationConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    num_levels: int = 3
    finest_control_spacing_px: float = 8.0
    max_iters_per_level: int = 100

    def __post_init__(self):
        for name in ("num_levels", "max_iters_per_level"):
            check_count(getattr(self, name), name, 1, ConfigurationError)
        # a lattice finer than the pixels has more nodes than pixels, and its
        # grid and Gram matrices grow as 1/spacing^2
        check_real(self.finest_control_spacing_px, "control spacing", 1, HUGE, ConfigurationError)


@dataclass
class LevelTrace:
    level: int  # 0 is finest
    width: int
    height: int
    losses: list
    termination: str
    # unweighted {"d", "r", "b"} of the level's first evaluation and of its last
    # accepted point: a term that reads 0 at both did nothing at this level
    start: dict
    end: dict
    evaluations: int  # forward passes: the level's start plus every line-search trial


@dataclass
class RegistrationResult:
    grid: ControlGrid
    level_traces: list
    duration_s: float
    config: RegistrationConfig
    width: int  # of the finest level, where ``field`` is densified
    height: int
    spacing: float = 1.0

    @property
    def field(self) -> DisplacementField:
        """Densified from ``grid`` on each access, so a kept result holds no dense field."""
        return densify(self.grid, self.width, self.height, self.spacing)

    @property
    def quality(self) -> DeformationQuality:
        """Computed on access, so a kept result does not hold the determinant map."""
        return deformation_quality(self.field)

    def report_dict(self):
        """Deterministic report payload; wall-clock time deliberately excluded."""
        return {
            "config": asdict(self.config),
            "levels": [{**asdict(t), "iterations": len(t.losses) - 1} for t in self.level_traces],
            "final_loss": self.level_traces[-1].losses[-1],
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


def _terms(rep) -> dict:
    return {"d": rep.d_value, "r": rep.r_value, "b": rep.b_value}


def _solve_level(fixed, moving, fixed_oh, moving_oh, grid, cfg, level):
    """Armijo-backtracking gradient descent on the coefficients of one level: the
    solved grid and the level's trace."""
    w = cfg.weights
    coeffs = grid.coeffs.copy()
    # every evaluation of this level writes into these; a report's backward pass
    # runs before the next evaluation
    work = LevelBuffers(fixed.data.shape, 0 if moving_oh is None else len(moving_oh.channels))
    evaluations = 0

    def forward(c):
        nonlocal evaluations
        evaluations += 1
        return total_loss(fixed, moving, fixed_oh, moving_oh,
                          ControlGrid(grid.spacing_px, c), w, with_grad=False, work=work)

    def check(value, what, iteration):
        """``value`` if it is finite, else a ``NumericalError`` naming this level and iteration."""
        if not np.isfinite(value):
            raise NumericalError(what, level=level, iteration=iteration, weights=asdict(w))
        return value

    def gradient_norm(g, iteration):
        # finite entries whose squares overflow give inf: an error, not a warning
        with np.errstate(over="ignore"):
            return check(float(np.linalg.norm(g)), "non-finite gradient norm", iteration)

    # an overflow, a division by zero or an invalid operation in an evaluation is a
    # NumericalError at the iteration it happens in, not a warning
    it = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rep = accepted = forward(coeffs)
            f0 = check(rep.total, "non-finite loss at level start", 0)
            g = rep.backward()
            losses, start = [f0], _terms(rep)
            gnorm = gradient_norm(g, 0)
            step = 1.0 / (float(np.abs(g).max()) + 1e-12)
            termination = "max_iters"
            for it in range(cfg.max_iters_per_level):
                gg = gnorm * gnorm
                t = step
                for _ in range(MAX_BACKTRACKS + 1):
                    trial = coeffs - t * g
                    rep = forward(trial)
                    ft = check(rep.total, "non-finite loss during line search", it)
                    if ft <= f0 - ARMIJO_CONSTANT * t * gg:
                        break
                    t *= BACKTRACK_FACTOR
                else:
                    termination = "line_search_failure"
                    break
                # the accepted trial's forward pass is the new point's: only its backward pass runs
                coeffs, accepted = trial, rep
                f0, g = ft, rep.backward()
                gnorm = gradient_norm(g, it + 1)
                losses.append(f0)
                if (len(losses) > STALL_WINDOW
                        and losses[-1 - STALL_WINDOW] - f0 <= STALL_TOLERANCE * abs(f0)):
                    termination = "stalled"
                    break
                step = 2.0 * t  # warm-start next trial from the last accepted step
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point error: {exc}", level=level, iteration=it,
                             weights=asdict(w)) from None
    trace = LevelTrace(level=level, width=fixed.width, height=fixed.height, losses=losses,
                       termination=termination, start=start, end=_terms(accepted),
                       evaluations=evaluations)
    return ControlGrid(grid.spacing_px, coeffs), trace


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

    # each level below the finest halves both axes, rounding up (downsample pads
    # odd sizes), so the coarsest size is known before any level is built
    coarse_w, coarse_h = (-(-n >> (cfg.num_levels - 1)) for n in (fixed.width, fixed.height))
    if coarse_w < 8 or coarse_h < 8:
        raise ConfigurationError(f"num_levels={cfg.num_levels} leaves a {coarse_w}x{coarse_h} "
                                 "coarsest image; need at least 8x8")

    start = time.perf_counter()
    fixed_pyr = _build_pyramid(fixed, cfg.num_levels)
    moving_pyr = _build_pyramid(moving, cfg.num_levels)
    if w.beta != 0.0:
        fixed_oh_pyr = _build_onehot_pyramid(fixed_lab, cfg.num_levels)
        moving_oh_pyr = _build_onehot_pyramid(moving_lab, cfg.num_levels)
    else:
        fixed_oh_pyr = [None] * cfg.num_levels
        moving_oh_pyr = [None] * cfg.num_levels

    # each level, and any NumericalError it raises, sees the weights the loss uses
    level_cfg = replace(cfg, weights=w)
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
        grid, trace = _solve_level(f_l, m_l, fixed_oh_pyr[level], moving_oh_pyr[level], grid,
                                   level_cfg, level)
        traces.append(trace)

    duration = time.perf_counter() - start
    return RegistrationResult(grid=grid, level_traces=traces, duration_s=duration, config=cfg,
                              width=fixed.width, height=fixed.height, spacing=fixed.spacing)


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
