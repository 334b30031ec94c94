"""Multi-level registration solver: convergence, determinism, ablation."""

import gc
import weakref

import numpy as np
import pytest
from dataclasses import replace

from defreg import (
    ConfigurationError,
    LossWeights,
    PhantomSpec,
    RegistrationConfig,
    ablate,
    evaluate_pair,
    make_pair,
    register,
)
from defreg import image, solver
from defreg.image import Image2D, LabelMap


SMALL_SPEC = PhantomSpec(width=64, height=64, center=(36.0, 32.0), lv_radius=8.0,
                         myo_outer_radius=13.0, rv_thickness=5.0)
FAST = RegistrationConfig(max_iters_per_level=40)


def small_pair(seed=0, magnitude=2.0, noise=0.0):
    return make_pair(SMALL_SPEC, deform_magnitude_px=magnitude, seed=seed,
                     observation_noise=noise)


class TestIdentity:
    def test_equal_pair_does_not_drift(self):
        pair = small_pair(magnitude=0.0)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        mean_u = float(np.abs(res.field.u).mean())
        assert mean_u <= 0.1
        assert res.quality.folding_fraction == 0.0

    def test_equal_pair_without_labels(self):
        pair = small_pair(magnitude=0.0)
        res = register(pair.fixed_image, pair.moving_image, cfg=FAST)
        assert float(np.abs(res.field.u).mean()) <= 0.1


class TestRecovery:
    def test_small_deformation_recovered(self):
        pair = small_pair(seed=2, magnitude=2.0)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels,
                       RegistrationConfig(max_iters_per_level=100))
        true_u = pair.true_field.u
        fg = pair.fixed_labels.labels > 0
        epe = np.hypot(*(res.field.u - true_u).transpose(2, 0, 1))
        assert float(epe[fg].mean()) <= 0.5
        assert res.quality.folding_fraction == 0.0

    def test_dice_improves_over_initial(self):
        pair = small_pair(seed=3, magnitude=3.0)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        before = evaluate_pair(pair.fixed_labels, pair.moving_labels,
                               type(res.field)(np.zeros_like(res.field.u)))
        after = evaluate_pair(pair.fixed_labels, pair.moving_labels, res.field)
        assert after.mean_dice > before.mean_dice


class TestOptimizerBehaviour:
    def test_loss_history_monotone_per_level(self):
        pair = small_pair(seed=1, magnitude=2.0, noise=0.02)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        for trace in res.level_traces:
            losses = np.asarray(trace.losses)
            assert np.all(np.diff(losses) <= 0.0)

    def test_three_levels_recorded_finest_last(self):
        pair = small_pair(seed=1)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        assert len(res.level_traces) == 3
        assert res.level_traces[-1].level == 0
        assert res.level_traces[-1].width == 64
        assert res.level_traces[0].width == 16

    def test_termination_reasons_valid(self):
        pair = small_pair(seed=4)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        for trace in res.level_traces:
            assert trace.termination in (
                "max_iters", "gradient_tolerance", "line_search_failure")
            assert len(trace.losses) - 1 <= FAST.max_iters_per_level

    def test_deterministic_across_runs(self):
        pair = small_pair(seed=5, magnitude=2.0, noise=0.02)
        a = register(pair.fixed_image, pair.moving_image,
                     pair.fixed_labels, pair.moving_labels, FAST)
        b = register(pair.fixed_image, pair.moving_image,
                     pair.fixed_labels, pair.moving_labels, FAST)
        assert np.array_equal(a.field.u, b.field.u)
        assert np.array_equal(a.grid.coeffs, b.grid.coeffs)
        assert a.report_dict() == b.report_dict()

    def test_no_coefficients_evaluated_twice_in_a_row(self, monkeypatch):
        """An accepted line-search trial is the next point: its forward pass is
        reused, so no evaluation repeats the coefficients of the one before."""
        seen = []
        original = solver.total_loss

        def counting_total_loss(*args, **kwargs):
            seen.append(args[4].coeffs.copy())
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "total_loss", counting_total_loss)
        pair = small_pair(seed=2, magnitude=2.0)
        res = register(pair.fixed_image, pair.moving_image,
                       pair.fixed_labels, pair.moving_labels, FAST)
        accepted = sum(len(t.losses) - 1 for t in res.level_traces)
        assert accepted > 0
        assert not any(a.shape == b.shape and np.array_equal(a, b)
                       for a, b in zip(seen, seen[1:]))

    def test_band_tables_built_once_per_stack_and_freed(self, monkeypatch):
        """Each level's moving stack builds its cell-label map once and each fixed
        stack its distance table once per ``register``; none outlives the call."""
        built = {"_cell_labels": [], "_label_sq_distances": []}
        for name, calls in built.items():
            original = getattr(image, name)

            def counting(channels, original=original, calls=calls):
                calls.append((channels.shape, weakref.ref(channels)))
                return original(channels)

            monkeypatch.setattr(image, name, counting)
        pair = small_pair(seed=2, magnitude=2.0)
        register(pair.fixed_image, pair.moving_image,
                 pair.fixed_labels, pair.moving_labels, FAST)
        for name, calls in built.items():
            # one build per level, each on a stack of another size
            assert len({shape for shape, _ in calls}) == len(calls) == FAST.num_levels, name
        gc.collect()
        assert all(ref() is None for calls in built.values() for _, ref in calls)

    def test_report_dict_has_no_wall_clock(self):
        pair = small_pair(seed=0, magnitude=1.0)
        res = register(pair.fixed_image, pair.moving_image, cfg=FAST)
        report = res.report_dict()
        assert "duration" not in str(sorted(report.keys()))
        assert res.duration_s > 0.0  # still measured, just not in the report

    def test_beta_ignored_without_labels(self):
        pair = small_pair(seed=6, magnitude=2.0)
        a = register(pair.fixed_image, pair.moving_image, cfg=FAST)
        b = register(pair.fixed_image, pair.moving_image,
                     cfg=replace(FAST, weights=LossWeights(beta=0.0)))
        assert np.array_equal(a.field.u, b.field.u)


class TestValidation:
    def test_size_mismatch_rejected(self):
        from defreg.errors import DomainError

        with pytest.raises(DomainError):
            register(Image2D(np.zeros((32, 32))), Image2D(np.zeros((32, 40))),
                     cfg=FAST)

    def test_spacing_mismatch_rejected(self):
        from defreg.errors import DomainError

        with pytest.raises(DomainError, match="spacing 1.0 and moving spacing 3.0"):
            register(Image2D(np.zeros((32, 32))), Image2D(np.zeros((32, 32)), spacing=3.0),
                     cfg=FAST)

    def test_too_many_levels_rejected(self):
        pair = small_pair()
        with pytest.raises(ConfigurationError):
            register(pair.fixed_image, pair.moving_image,
                     cfg=replace(FAST, num_levels=5))

    @pytest.mark.parametrize("kwargs", [
        dict(num_levels=0), dict(finest_control_spacing_px=0.0),
        dict(max_iters_per_level=0), dict(finest_control_spacing_px=0.5),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RegistrationConfig(**kwargs)

    def test_single_label_map_rejected(self):
        from defreg.errors import DomainError

        pair = small_pair()
        with pytest.raises(DomainError):
            register(pair.fixed_image, pair.moving_image,
                     pair.fixed_labels, None, FAST)

    def test_moving_label_map_of_wrong_size_rejected(self):
        from defreg.errors import DomainError

        pair = small_pair()
        small = LabelMap(pair.moving_labels.labels[:-2, :-2],
                         num_classes=pair.moving_labels.num_classes)
        with pytest.raises(DomainError, match="moving label map"):
            register(pair.fixed_image, pair.moving_image, pair.fixed_labels, small, FAST)

    def test_non_finite_loss_raises_with_level_and_iteration(self):
        from defreg.errors import NumericalError

        pair = small_pair()
        cfg = RegistrationConfig(weights=LossWeights(delta=1e308), num_levels=2)
        with pytest.raises(NumericalError, match="non-finite loss at level start") as info:
            register(pair.fixed_image, pair.moving_image, cfg=cfg)
        assert info.value.level == cfg.num_levels - 1  # the coarsest level runs first
        assert info.value.iteration == 0


@pytest.fixture(scope="module")
def dataset():
    pairs = [small_pair(seed=s, magnitude=2.0) for s in (0, 1)]
    return [(p.fixed_image, p.moving_image, p.fixed_labels, p.moving_labels)
            for p in pairs]


class TestAblate:
    def test_factor_one_matches_direct_run(self, dataset):
        cfg = RegistrationConfig(max_iters_per_level=30)
        rows = ablate(dataset, cfg, "beta", [1.0])
        dices, folds = [], []
        for fixed, moving, flab, mlab in dataset:
            res = register(fixed, moving, flab, mlab, cfg)
            rep = evaluate_pair(flab, mlab, res.field)
            dices.append(rep.mean_dice)
            folds.append(rep.folding_percent)
        assert rows[0][0] == 1.0
        assert rows[0][1] == pytest.approx(float(np.mean(dices)), abs=1e-12)
        assert rows[0][2] == pytest.approx(float(np.mean(folds)), abs=1e-12)

    def test_row_order_follows_factors(self, dataset):
        cfg = RegistrationConfig(max_iters_per_level=10)
        factors = [10.0, 1.0, 0.0]
        rows = ablate(dataset, cfg, "alpha", factors)
        assert [r[0] for r in rows] == factors

    def test_beta_zero_lowers_dice(self, dataset):
        cfg = RegistrationConfig(max_iters_per_level=30)
        rows = ablate(dataset, cfg, "beta", [1.0, 0.0])
        assert rows[1][1] < rows[0][1]

    def test_unknown_parameter_rejected(self, dataset):
        from defreg.errors import DomainError

        with pytest.raises(DomainError):
            ablate(dataset, RegistrationConfig(), "gamma", [1.0])
