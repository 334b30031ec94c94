"""Multi-level registration solver: convergence, determinism, ablation."""

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, replace

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
from defreg import image, lossterms, solver
from defreg.bspline import deformation_quality, densify
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

    @pytest.mark.parametrize("labelled", [True, False])
    def test_equal_pair_stalls_with_zero_coefficients(self, labelled):
        """On an identical pair the gradient is exactly zero, so each accepted step
        repeats the start point: every level ends ``"stalled"`` after exactly
        ``STALL_WINDOW`` iterations, with a constant loss and all coefficients 0."""
        pair = small_pair(magnitude=0.0)
        labels = (pair.fixed_labels, pair.moving_labels) if labelled else (None, None)
        res = register(pair.fixed_image, pair.moving_image, *labels, FAST)
        assert [(len(t.losses) - 1, t.termination) for t in res.level_traces] == \
            [(solver.STALL_WINDOW, "stalled")] * FAST.num_levels
        assert all(len(set(t.losses)) == 1 for t in res.level_traces)
        assert not res.grid.coeffs.any()


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
            assert trace.termination in ("max_iters", "stalled", "line_search_failure")
            assert len(trace.losses) - 1 <= FAST.max_iters_per_level

    # (seed, labelled, (width, iterations, termination) per level, coarsest first)
    STALL_CASES = [
        (1, False, [(16, 100, "max_iters"), (32, 57, "stalled"), (64, 51, "stalled")]),
        (3, True, [(16, 100, "max_iters"), (32, 100, "max_iters"), (64, 100, "max_iters")]),
    ]

    @pytest.mark.parametrize("seed, labelled, levels", STALL_CASES)
    def test_level_ends_at_its_first_stalled_step(self, seed, labelled, levels):
        """A level ends with ``"stalled"`` at the first accepted step whose last
        ``STALL_WINDOW`` steps together lowered the loss by at most
        ``STALL_TOLERANCE`` of its value, and at no other step. Unlabelled, the
        two finer levels stall; this labelled pair keeps falling to the cap."""
        pair = small_pair(seed=seed, magnitude=2.0)
        labels = (pair.fixed_labels, pair.moving_labels) if labelled else (None, None)
        res = register(pair.fixed_image, pair.moving_image, *labels,
                       RegistrationConfig(max_iters_per_level=100))
        assert [(t.width, len(t.losses) - 1, t.termination) for t in res.level_traces] == levels
        window, tol = solver.STALL_WINDOW, solver.STALL_TOLERANCE

        def stalled(losses):
            return losses[-1 - window] - losses[-1] <= tol * abs(losses[-1])

        for trace in res.level_traces:
            assert stalled(trace.losses) == (trace.termination == "stalled")
            assert not any(stalled(trace.losses[:n])
                           for n in range(window + 1, len(trace.losses)))

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

    # iterations per level, then (level, iterations, termination, final loss) per
    # level, coarsest first, and the field's largest |u| in px; recorded with
    # OpenBLAS at 1 and 2 threads
    FINGERPRINT = {
        "labels": (20, [(2, 20, "max_iters", 415957.1236093721),
                        (1, 20, "max_iters", 562844.3295163845),
                        (0, 20, "max_iters", 335944.6519081617)], 1.232808747101605),
        "unlabelled": (20, [(2, 20, "max_iters", 2.169060023379996),
                            (1, 20, "max_iters", 3.0217175948051223),
                            (0, 20, "max_iters", 4.674796375254185)], 1.0099321801562393),
        # long enough for two levels to stall
        "unlabelled100": (100, [(2, 100, "max_iters", 2.061744939228481),
                                (1, 57, "stalled", 2.9069015478986167),
                                (0, 51, "stalled", 4.48406308192163)], 1.0916318569012546),
    }

    @pytest.mark.parametrize("case", sorted(FINGERPRINT))
    def test_policy_fingerprint(self, case):
        """The solver's behaviour on one fixed pair. The Armijo constant, the
        backtracking factor, the warm start, the prolongation and the stall
        window and tolerance each move a final loss or a level's end here by far
        more than the tolerance (``tools/solver_mutants.py``). A change that
        moves them by design records the new values and why."""
        pair = small_pair(seed=1, magnitude=2.0)
        labels = (pair.fixed_labels, pair.moving_labels) if case == "labels" else (None, None)
        iterations, levels, max_u = self.FINGERPRINT[case]
        res = register(pair.fixed_image, pair.moving_image, *labels,
                       RegistrationConfig(max_iters_per_level=iterations))
        assert [(t.level, len(t.losses) - 1, t.termination) for t in res.level_traces] == \
            [level[:3] for level in levels]
        for trace, level in zip(res.level_traces, levels):
            assert trace.losses[-1] == pytest.approx(level[3], rel=1e-9, abs=0.0)
        assert float(np.abs(res.field.u).max()) == pytest.approx(max_u, rel=0.0, abs=1e-9)

    def test_every_policy_mutant_is_killed(self):
        """``tools/solver_mutants.py`` on this checkout exits 0: each mutant string
        occurs once in the source, and the policy test above fails under each mutant.
        (This test's name must not match ``-k fingerprint``, which the script runs.)"""
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, str(root / "tools" / "solver_mutants.py"),
                               str(root)], capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("killed: ") == 6, proc.stdout

    @pytest.mark.parametrize("epsilon", [0.1, 1e10])
    def test_report_shows_an_inert_distance(self, epsilon):
        """Each level reports the unweighted D, R and B of its first evaluation and of
        its last accepted point, whose weighted sums are its first and last losses
        (after a failed line search, not the rejected trial's). At epsilon 1e10 on
        a 0-255 pair NGF rounds to 0, every level stops at once and the run exits 0;
        the report reads D = 0 at every level. At epsilon 0.1 it reads D > 0."""
        pair = small_pair(seed=0, magnitude=2.0)
        fixed, moving = (Image2D(255.0 * img.data) for img in (pair.fixed_image,
                                                                pair.moving_image))
        cfg = replace(FAST, weights=replace(FAST.weights, epsilon=epsilon))
        res = register(fixed, moving, cfg=cfg)
        w = replace(cfg.weights, beta=0.0)
        for level in res.report_dict()["levels"]:
            for key, loss in (("start", level["losses"][0]), ("end", level["losses"][-1])):
                terms = level[key]
                assert w.delta * terms["d"] + w.alpha * terms["r"] + w.beta * terms["b"] == loss
                assert terms["b"] == 0.0
                assert terms["d"] == 0.0 if epsilon == 1e10 else terms["d"] > 0.0
            if epsilon == 1e10:
                assert level["termination"] == "line_search_failure"
                assert level["end"] == level["start"]

    def test_report_dict_has_no_wall_clock(self):
        pair = small_pair(seed=0, magnitude=1.0)
        res = register(pair.fixed_image, pair.moving_image, cfg=FAST)
        report = res.report_dict()
        assert "duration" not in str(sorted(report.keys()))
        assert res.duration_s > 0.0  # still measured, just not in the report

    def test_field_is_densified_on_access(self):
        """The result keeps the grid, not the dense field: ``field`` is densified
        from it on each access, at the image's size and spacing."""
        pair = small_pair(seed=0, magnitude=1.0)
        fixed = Image2D(pair.fixed_image.data, spacing=2.0)
        moving = Image2D(pair.moving_image.data, spacing=2.0)
        res = register(fixed, moving, cfg=replace(FAST, max_iters_per_level=5))
        expected = densify(res.grid, fixed.width, fixed.height)
        first, second = res.field, res.field
        assert np.array_equal(first.u, expected.u)
        assert np.array_equal(first.u, second.u) and first.u is not second.u
        assert first.spacing == second.spacing == 2.0
        assert res.quality.folding_fraction == deformation_quality(first).folding_fraction
        for name, value in vars(res).items():
            assert not (isinstance(value, np.ndarray) and value.size > res.grid.coeffs.size), name

    def test_one_buffer_set_per_level(self, monkeypatch):
        """Every evaluation of a level writes into that level's one LevelBuffers."""
        seen = []
        original = solver.total_loss

        def recording_total_loss(*args, **kwargs):
            seen.append((args[0].width, kwargs["work"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "total_loss", recording_total_loss)
        pair = small_pair(seed=2, magnitude=2.0)
        register(pair.fixed_image, pair.moving_image, pair.fixed_labels, pair.moving_labels,
                 replace(FAST, max_iters_per_level=5))
        by_width = {}
        for width, work in seen:
            by_width.setdefault(width, set()).add(id(work))
            assert work.shape == (width, width) and work.channels == 4
        assert sorted(by_width) == [16, 32, 64]
        assert all(len(ids) == 1 for ids in by_width.values())

    def test_fixed_gradient_taken_once_per_level(self, monkeypatch):
        """The warped image's gradient is taken once per loss evaluation and each
        level's fixed image's once, as its cached property, so a 3-level labelled
        run takes ``loss_evals + 3`` gradients (``2 * loss_evals`` when each
        evaluation took both). The caller's finest fixed image keeps its gradient,
        so a second run on the same pair takes ``loss_evals + 2``."""
        calls = {"total_loss": 0, "central_gradient_raw": 0}
        for module, name in ((solver, "total_loss"), (lossterms, "central_gradient_raw"),
                             (image, "central_gradient_raw")):
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        pair = small_pair(seed=2, magnitude=2.0)
        for taken_before in (3, 2):
            calls.update(dict.fromkeys(calls, 0))
            register(pair.fixed_image, pair.moving_image, pair.fixed_labels,
                     pair.moving_labels, replace(FAST, max_iters_per_level=5))
            assert FAST.num_levels == 3 and calls["total_loss"] > 3 * 5
            assert calls["central_gradient_raw"] == calls["total_loss"] + taken_before

    def test_image_arrays_built_once_per_image_and_freed(self, monkeypatch):
        """Each level's fixed image takes its gradient once per ``register``; the
        coarse levels' arrays die with the call, and the caller's images keep
        theirs until they go."""
        built = {"central_gradient_raw": []}
        for name, calls in built.items():
            original = getattr(image, name)

            def recording(data, *args, original=original, calls=calls):
                out = original(data, *args)
                calls.append((data.shape, [weakref.ref(a) for a in out]))
                return out

            monkeypatch.setattr(image, name, recording)
        pair = small_pair(seed=2, magnitude=2.0)
        register(pair.fixed_image, pair.moving_image, cfg=FAST)
        gc.collect()
        for name, calls in built.items():
            # one build per level, each on an image of another size
            assert len({shape for shape, _ in calls}) == len(calls) == FAST.num_levels, name
            for shape, refs in calls:
                alive = shape == pair.fixed_image.data.shape
                assert all((ref() is not None) == alive for ref in refs), (name, shape)
        del pair
        gc.collect()
        assert all(ref() is None for calls in built.values() for _, refs in calls
                   for ref in refs)

    def test_beta_ignored_without_labels(self):
        pair = small_pair(seed=6, magnitude=2.0)
        a = register(pair.fixed_image, pair.moving_image, cfg=FAST)
        b = register(pair.fixed_image, pair.moving_image,
                     cfg=replace(FAST, weights=LossWeights(beta=0.0)))
        assert np.array_equal(a.field.u, b.field.u)


class TestValidation:
    @pytest.mark.parametrize("make, name, value", [
        (RegistrationConfig, "num_levels", 0), (LossWeights, "delta", -1.0),
        (PhantomSpec, "width", 4)], ids=["RegistrationConfig", "LossWeights", "PhantomSpec"])
    def test_settings_are_values(self, make, name, value):
        """Settings are frozen, so none escapes its check by being set later:
        ``num_levels = 0`` set on a config made ``register`` die with numpy's
        "negative shift count". ``replace`` makes a checked copy."""
        settings = make()
        with pytest.raises(FrozenInstanceError):
            setattr(settings, name, value)
        with pytest.raises(ConfigurationError):
            replace(settings, **{name: value})

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

    def test_too_many_levels_rejected(self, monkeypatch):
        # checked before any level is built: 2000 levels halved a 64 px image to
        # 1x1 until the doubled spacing overflowed, and named the spacing
        monkeypatch.setattr(solver, "_build_pyramid", lambda *_: pytest.fail("a level was built"))
        pair = small_pair()
        for levels in (5, 2000, 10**9):
            with pytest.raises(ConfigurationError, match="num_levels"):
                register(pair.fixed_image, pair.moving_image,
                         cfg=replace(FAST, num_levels=levels))

    @pytest.mark.parametrize("kwargs", [
        dict(num_levels=0), dict(finest_control_spacing_px=0.0),
        dict(max_iters_per_level=0), dict(finest_control_spacing_px=0.5),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RegistrationConfig(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda v: RegistrationConfig(finest_control_spacing_px=v),
        lambda v: LossWeights(delta=v), lambda v: LossWeights(alpha=v),
        lambda v: LossWeights(beta=v), lambda v: LossWeights(epsilon=v),
    ], ids=["control_spacing", "delta", "alpha", "beta", "epsilon"])
    @pytest.mark.parametrize("value", ["8", True, None, 1j])
    def test_non_real_setting_rejected(self, make, value):
        # "8" raised a bare TypeError from the range test, and True constructed
        with pytest.raises(ConfigurationError, match="real number"):
            make(value)
        make(np.float64(8.0))  # a numpy real is a real number

    @pytest.mark.parametrize("name", ["num_levels", "max_iters_per_level"])
    @pytest.mark.parametrize("count", [2.5, 2.0, True, "3", None])
    def test_non_integral_count_rejected(self, name, count):
        # 2.5 made register die with a TypeError from range(); True ran as 1
        with pytest.raises(ConfigurationError, match=name):
            RegistrationConfig(**{name: count})
        assert getattr(RegistrationConfig(**{name: np.int64(2)}), name) == 2

    def test_single_label_map_rejected(self):
        from defreg.errors import DomainError

        # label maps that do not form a pair: one is missing, or their classes differ
        pair = small_pair()
        more_classes = LabelMap(pair.moving_labels.labels,
                                num_classes=pair.moving_labels.num_classes + 1)
        for moving_lab, match in ((None, "both label maps"), (more_classes, "num_classes")):
            with pytest.raises(DomainError, match=match):
                register(pair.fixed_image, pair.moving_image,
                         pair.fixed_labels, moving_lab, FAST)

    def test_moving_label_map_of_wrong_size_rejected(self):
        from defreg.errors import DomainError

        pair = small_pair()
        labs = (pair.fixed_labels, pair.moving_labels)
        for i, match in ((1, "moving label map"), (0, "label map and image dimensions")):
            small = list(labs)
            small[i] = LabelMap(labs[i].labels[:-2, :-2], num_classes=labs[i].num_classes)
            with pytest.raises(DomainError, match=match):
                register(pair.fixed_image, pair.moving_image, *small, FAST)

    def test_non_finite_loss_raises_with_level_and_iteration(self):
        from defreg.errors import NumericalError

        pair = small_pair()
        # delta=1e308: the loss overflows; delta=1e300: the loss is finite (D is at
        # most 0.5 sp^2 per pixel), but the norm of the finite gradient overflows
        for delta, match in ((1e308, "non-finite loss at level start"),
                             (1e300, "non-finite gradient norm")):
            cfg = RegistrationConfig(weights=LossWeights(delta=delta), num_levels=2)
            with pytest.raises(NumericalError, match=match) as info:
                register(pair.fixed_image, pair.moving_image, cfg=cfg)
            assert info.value.level == cfg.num_levels - 1  # the coarsest level runs first
            assert info.value.iteration == 0
            # an unlabelled run's loss has no B term, and the error names the weights used
            assert info.value.weights["beta"] == 0.0

    def test_largest_epsilon_keeps_gradient_finite(self):
        """At an epsilon near the largest accepted (1.15e77), on 32 px images of
        0-255 intensities, the run ends with finite losses and no numpy warning:
        the NGF pullback forms a / b, not a^2 (about epsilon^4) times the image
        gradient, which overflowed. (NGF is inert at such an epsilon, so each
        level stops at its first line search, as it does at 1e70.)"""
        s = 32 / 112.0
        spec = PhantomSpec(width=32, height=32, center=(62.0 * s, 56.0 * s), lv_radius=13.0 * s,
                           myo_outer_radius=22.0 * s, rv_thickness=8.0 * s)
        pair = make_pair(spec, deform_magnitude_px=1.0, seed=0)
        fixed, moving = (Image2D(255.0 * im.data) for im in (pair.fixed_image, pair.moving_image))
        cfg = RegistrationConfig(weights=LossWeights(epsilon=1e77), num_levels=2,
                                 max_iters_per_level=5)
        res = register(fixed, moving, cfg=cfg)
        assert len(res.level_traces) == 2
        assert all(np.isfinite(t.losses).all() for t in res.level_traces)


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
