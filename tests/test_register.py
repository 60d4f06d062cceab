"""Registration driver tests: pyramid, convergence, budgets, both modes."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import defreg.register
from defreg.evaluate import landmark_errors, transform_landmarks
from defreg.loss import LossConfig, ncc, overall_loss, smoothness_loss
from defreg.model import ConvNetConfig, convnet_backward, convnet_forward, init_convnet_parameters
from defreg.register import (
    RegistrationConfig,
    RegistrationReport,
    downsample_volume,
    register,
    report_to_json,
)
from defreg.synth import SynthConfig, generate_case
from defreg.volume import Volume, zscore_normalize
from defreg.warp import warp_volume

from conftest import random_volume


def quick_cfg(**overrides):
    kw = dict(
        mode="freeform",
        pyramid_levels=2,
        iterations_per_level=10,
        loss=LossConfig(ncc_window=5, reg_weight=0.1),
        learning_rate=0.3,
    )
    kw.update(overrides)
    return RegistrationConfig(**kw)


class TestDownsample:
    def test_constant_cube(self):
        v = Volume(data=np.full((2, 2, 2), 5.0), spacing=(1.0, 1.0, 1.0))
        out = downsample_volume(v)
        assert out.dims == (1, 1, 1)
        assert out.data[0, 0, 0] == 5.0
        assert out.spacing == (2.0, 2.0, 2.0)

    def test_two_voxel_line(self):
        v = Volume(data=np.array([0.0, 2.0]).reshape(2, 1, 1))
        out = downsample_volume(v)
        assert out.dims == (1, 1, 1)
        assert out.data[0, 0, 0] == 1.0

    def test_linear_ramp_stays_linear(self):
        x = np.arange(4, dtype=np.float64)
        v = Volume(data=np.broadcast_to(x[:, None, None], (4, 4, 4)).copy())
        out = downsample_volume(v)
        assert out.dims == (2, 2, 2)
        # block means of [0,1] and [2,3] are 0.5 and 2.5: still linear in x
        np.testing.assert_allclose(out.data[:, 0, 0], [0.5, 2.5], atol=1e-12)
        assert out.spacing == (2.0, 2.0, 2.0)

    def test_odd_axis_truncated_block(self):
        v = Volume(data=np.array([1.0, 3.0, 7.0]).reshape(3, 1, 1))
        out = downsample_volume(v)
        assert out.dims == (2, 1, 1)
        np.testing.assert_allclose(out.data[:, 0, 0], [2.0, 7.0], atol=1e-12)

    def test_matches_block_mean_oracle(self, rng):
        v = random_volume(rng, (6, 5, 7))
        out = downsample_volume(v)
        assert out.dims == (3, 3, 4)
        for i in range(3):
            for j in range(3):
                for k in range(4):
                    block = v.data[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
                    assert out.data[i, j, k] == pytest.approx(block.mean(), abs=1e-12)

    def test_single_voxel_rejected(self):
        with pytest.raises(ValueError):
            downsample_volume(Volume(data=np.ones((1, 1, 1))))


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RegistrationConfig(mode="affine")

    def test_freeform_defaults(self):
        cfg = RegistrationConfig(mode="freeform")
        assert cfg.resolved_levels == 3
        assert cfg.resolved_learning_rate == 1.0
        assert cfg.iterations_for(0) == 200

    def test_convnet_defaults(self):
        cfg = RegistrationConfig(mode="convnet")
        assert cfg.resolved_levels == 1
        assert cfg.resolved_learning_rate == 1e-4
        assert cfg.iterations_for(0) == 100

    def test_schedule_overrides_per_level(self):
        cfg = RegistrationConfig(pyramid_levels=3, iterations_schedule=(50, 20, 5))
        assert [cfg.iterations_for(l) for l in range(3)] == [50, 20, 5]

    def test_schedule_length_must_match_levels(self):
        with pytest.raises(ValueError):
            RegistrationConfig(pyramid_levels=2, iterations_schedule=(10, 10, 10))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RegistrationConfig(pyramid_levels=0)
        with pytest.raises(ValueError):
            RegistrationConfig(iterations_per_level=-1)
        with pytest.raises(ValueError):
            RegistrationConfig(iterations_schedule=(5, -2, 1), pyramid_levels=3)
        with pytest.raises(ValueError):
            RegistrationConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RegistrationConfig(convergence_tol=-1e-9)
        with pytest.raises(ValueError):
            RegistrationConfig(max_seconds=0.0)

    def test_to_dict_round_trips_through_json(self):
        cfg = RegistrationConfig(mode="convnet", convnet=ConvNetConfig(levels=2, base_filters=4))
        d = json.loads(json.dumps(cfg.to_dict()))
        assert d["mode"] == "convnet"
        assert d["convnet"]["levels"] == 2
        assert d["loss"]["ncc_window"] == 9


class TestRegisterFreeform:
    def test_dims_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            register(random_volume(rng, (8, 8, 8)), random_volume(rng, (8, 8, 9)), quick_cfg())

    def test_too_many_levels_rejected(self, rng):
        v = random_volume(rng, (2, 2, 2))
        with pytest.raises(ValueError):
            register(v, v, quick_cfg(pyramid_levels=4, iterations_per_level=1))

    @pytest.mark.parametrize(
        "dims,levels,level_dims",
        [((2, 8, 8), 2, (1, 4, 4)), ((8, 8, 1), 1, (8, 8, 1)), ((12, 5, 12), 4, (2, 1, 2))],
    )
    def test_pyramid_too_deep_for_dims_refused_up_front(self, rng, dims, levels, level_dims):
        # every level needs 2 voxels per axis for the smoothness term; the
        # error names the setting and the offending level's dims
        v = random_volume(rng, dims)
        with pytest.raises(ValueError) as err:
            register(v, v, quick_cfg(pyramid_levels=levels, iterations_per_level=1))
        assert f"pyramid_levels={levels}" in str(err.value)
        assert str(level_dims) in str(err.value)

    @pytest.mark.parametrize("dims,levels", [((2, 8, 8), 1), ((12, 5, 12), 3)])
    def test_deepest_pyramid_the_dims_allow_runs(self, rng, dims, levels):
        v = random_volume(rng, dims)
        report = register(v, v, quick_cfg(pyramid_levels=levels, iterations_per_level=1))
        assert min(report.levels[0].dims) == 2
        assert report.field.dims == dims

    def test_identical_pair_stays_at_identity(self, rng):
        v = random_volume(rng, (16, 16, 16))
        report = register(v, v, quick_cfg(iterations_per_level=15))
        assert np.abs(report.field.data).max() < 0.05
        warped = warp_volume(zscore_normalize(v), report.field)
        assert ncc(zscore_normalize(v), warped, LossConfig()) > 0.999

    def test_zero_iterations_returns_zero_field_and_entry_loss(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        report = register(fixed, moving, quick_cfg(iterations_per_level=0))
        assert not report.field.data.any()
        assert report.iterations_executed == 0
        assert report.stop_reason == "max_iters"
        for trace in report.levels:
            assert len(trace.losses) == 1
            assert trace.iterations == 0
            assert trace.best_iteration == 0

    def test_trace_structure(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        report = register(fixed, moving, quick_cfg(iterations_per_level=6))
        assert isinstance(report, RegistrationReport)
        assert len(report.levels) == 2
        assert report.levels[0].dims == (6, 6, 6)  # coarsest first
        assert report.levels[1].dims == (12, 12, 12)
        for trace in report.levels:
            assert len(trace.losses) == trace.iterations + 1
            totals = [lv.total for lv in trace.losses]
            assert trace.best_iteration == int(np.argmin(totals))
        assert report.iterations_executed == sum(t.iterations for t in report.levels)
        assert report.dims == (12, 12, 12)
        assert report.padded_dims == (12, 12, 12)

    def test_final_field_is_best_iterate_of_finest_level(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        cfg = quick_cfg(iterations_per_level=8)
        report = register(fixed, moving, cfg)
        lv, _ = overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )
        best_total = min(x.total for x in report.levels[-1].losses)
        assert lv.total == pytest.approx(best_total, abs=1e-12)

    def test_budget_stop_at_coarse_level_returns_full_size_field(self, rng):
        fixed = random_volume(rng, (16, 16, 16), spacing=(1.0, 1.5, 2.0))
        moving = random_volume(rng, (16, 16, 16), spacing=(1.0, 1.5, 2.0))
        cfg = quick_cfg(pyramid_levels=3, iterations_per_level=1000, max_seconds=1e-9)
        report = register(fixed, moving, cfg)
        assert report.stop_reason == "budget"
        assert len(report.levels) == 1
        assert report.levels[0].dims == (4, 4, 4)
        assert report.field.dims == (16, 16, 16)
        assert report.field.spacing == (1.0, 1.5, 2.0)

    def test_budget_stop(self, rng):
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = quick_cfg(pyramid_levels=1, iterations_per_level=100000, max_seconds=0.05)
        report = register(fixed, moving, cfg)
        assert report.stop_reason == "budget"
        assert report.wall_seconds >= 0.05
        assert report.iterations_executed < 100000

    def test_convergence_stop_on_flat_landscape(self, rng):
        # identical pair sits at the optimum: totals stop changing, so the
        # 10-iteration relative-change window must fire before max_iters
        v = random_volume(rng, (12, 12, 12))
        cfg = quick_cfg(pyramid_levels=1, iterations_per_level=10000, convergence_tol=1e-4)
        report = register(v, v, cfg)
        assert report.stop_reason == "converged"
        assert report.iterations_executed < 10000

    def test_determinism(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        cfg = quick_cfg(iterations_per_level=8)
        a = register(fixed, moving, cfg)
        b = register(fixed, moving, cfg)
        assert np.array_equal(a.field.data, b.field.data)
        assert [lv.total for t in a.levels for lv in t.losses] == [
            lv.total for t in b.levels for lv in t.losses
        ]

    def test_reg_weight_sweep_smoothness_non_increasing(self):
        case = generate_case(
            SynthConfig(dims=(20, 20, 20), seed=3, num_blobs=40, field_bumps=3,
                        max_displacement=2.0, noise_sigma=0.0, num_landmarks=5)
        )
        values = []
        for lam in (0.1, 1.0, 10.0):
            cfg = RegistrationConfig(
                mode="freeform",
                pyramid_levels=2,
                iterations_per_level=40,
                loss=LossConfig(ncc_window=5, reg_weight=lam),
                learning_rate=0.3,
            )
            report = register(case.fixed, case.moving, cfg)
            smooth, _ = smoothness_loss(report.field)
            values.append(smooth)
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12


class TestRegisterConvNet:
    def test_padding_and_crop(self, rng):
        fixed = random_volume(rng, (18, 18, 18))
        moving = random_volume(rng, (18, 18, 18))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=2,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=2, base_filters=2),
        )
        report = register(fixed, moving, cfg)
        assert report.dims == (18, 18, 18)
        assert report.padded_dims == (20, 20, 20)
        assert report.field.dims == (18, 18, 18)
        assert report.parameters is not None
        assert report.parameters.config == cfg.convnet

    def test_determinism_with_seed(self, rng):
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=3,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=1, base_filters=2),
            seed=7,
        )
        a = register(fixed, moving, cfg)
        b = register(fixed, moving, cfg)
        assert np.array_equal(a.field.data, b.field.data)

    def test_first_loss_matches_freeform_zero_field(self, rng):
        # zero-initialized head predicts the zero field, so the convnet's
        # entry loss must equal freeform's bitwise
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        loss_cfg = LossConfig(ncc_window=5, reg_weight=0.5)
        ff = register(
            fixed, moving,
            RegistrationConfig(mode="freeform", pyramid_levels=1,
                               iterations_per_level=0, loss=loss_cfg),
        )
        cn = register(
            fixed, moving,
            RegistrationConfig(mode="convnet", iterations_per_level=0, loss=loss_cfg,
                               convnet=ConvNetConfig(levels=2, base_filters=2)),
        )
        a = ff.levels[0].losses[0]
        b = cn.levels[0].losses[0]
        assert (a.total, a.similarity, a.smoothness) == (b.total, b.similarity, b.smoothness)

    @pytest.mark.parametrize("use_batchnorm", [False, True])
    def test_best_parameters_reproduce_best_field(self, rng, use_batchnorm):
        # the returned tensors must regenerate the reported field
        from defreg.model import convnet_forward

        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=4,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=1, base_filters=2, use_batchnorm=use_batchnorm),
            seed=3,
        )
        report = register(fixed, moving, cfg)
        fn = zscore_normalize(fixed)
        mn = zscore_normalize(moving)
        pred, _ = convnet_forward(report.parameters, fn, mn)
        np.testing.assert_allclose(pred.data, report.field.data, atol=1e-12)

    def test_rounds_continue_from_last_iterate_and_return_best_of_all(self, rng):
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = RegistrationConfig(
            mode="convnet",
            pyramid_levels=3,
            iterations_per_level=4,
            learning_rate=1.0,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=1, base_filters=2),
            seed=5,
        )
        report = register(fixed, moving, cfg)
        rounds = report.levels
        assert len(rounds) == 3
        for prev, nxt in zip(rounds, rounds[1:]):
            assert nxt.losses[0].total == pytest.approx(prev.losses[-1].total, abs=1e-12)
        best = min(x.total for r in rounds for x in r.losses)
        # this setting ends a round above its best, and the best iterate is
        # not in the last round, so neither the last iterate nor the last
        # round's best would pass
        assert any(r.best_iteration < r.iterations for r in rounds)
        assert min(x.total for x in rounds[-1].losses) > best
        lv, _ = overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )
        assert lv.total == pytest.approx(best, abs=1e-12)

    def test_convnet_pads_axes_a_pyramid_refuses(self, rng):
        v = random_volume(rng, (8, 8, 1))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=1,
            loss=LossConfig(ncc_window=5),
            convnet=ConvNetConfig(levels=1, base_filters=2),
        )
        report = register(v, v, cfg)
        assert report.padded_dims == (8, 8, 2)
        assert report.field.dims == (8, 8, 1)

    def test_loop_drops_cache_and_gradient_before_next_forward(self, rng):
        # a run holds one pass's arrays plus its best iterate and Adam's
        # state, far less than a second activation cache; keeping the last
        # iterate's cache and gradient alive through the next forward pass
        # raised the run's peak over one pass from 0.20 to 1.06 MB here,
        # against a 1.55 MB cache
        dims = (16, 16, 16)
        fixed = zscore_normalize(random_volume(rng, dims))
        moving = zscore_normalize(random_volume(rng, dims))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=2,
            loss=LossConfig(ncc_window=5),
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        params = init_convnet_parameters(cfg.convnet, seed=cfg.seed)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            field, cache = convnet_forward(params, fixed, moving)
            cache_bytes = tracemalloc.get_traced_memory()[0] - before
            _, grad = overall_loss(fixed, moving, field, cfg.loss)
            convnet_backward(cache, grad)
            one_pass = tracemalloc.get_traced_memory()[1] - before
            del field, cache, grad
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            register(fixed, moving, cfg)
            run = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert run - one_pass < cache_bytes / 2


    def test_recovers_a_synthetic_field(self):
        # the model layer's quality gate, as criterion 3 is freeform's: the
        # default network, optimised on one synth pair, must move the
        # landmarks most of the way.  Dims, iterations and rate were chosen
        # by measurement (reduction 0.655 on this case, 0.761 and 0.663 on
        # seeds 2 and 3, about 10 s each) before the floor was set.
        case = generate_case(
            SynthConfig(
                dims=(24, 24, 24),
                seed=1,
                num_blobs=18,
                field_bumps=6,
                max_displacement=2.5,
                num_landmarks=20,
                noise_sigma=0.0,
            )
        )
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=60,
            learning_rate=1e-2,
            loss=LossConfig(reg_weight=0.05),
        )
        report = register(case.fixed, case.moving, cfg)
        before = landmark_errors(case.fixed_lms, case.moving_lms)
        after = landmark_errors(
            transform_landmarks(case.fixed_lms, report.field), case.moving_lms
        )
        reduction = 1.0 - float(np.mean(after)) / float(np.mean(before))
        print(f"convnet recovery: reduction={reduction:.3f}")
        assert reduction >= 0.5


def _fail_loss_at(monkeypatch, call):
    """Make the level loop's ``call``-th loss evaluation (1-based)
    non-finite; returns a list that records, per Adam step, whether every
    gradient it was given is finite."""
    seen, stepped = [], []
    real_loss, real_adam = defreg.register.overall_loss, defreg.register.adam_step

    def loss(*args):
        lv, grad = real_loss(*args)
        seen.append(lv)
        if len(seen) == call:
            return replace(lv, total=float("nan")), np.full_like(grad, np.nan)
        return lv, grad

    def adam(params, grads, state):
        stepped.append(all(np.isfinite(g).all() for g in grads.values()))
        return real_adam(params, grads, state)

    monkeypatch.setattr(defreg.register, "overall_loss", loss)
    monkeypatch.setattr(defreg.register, "adam_step", adam)
    return stepped


def _strict_json(report) -> dict:
    return json.loads(json.dumps(report_to_json(report), allow_nan=False))


class TestDivergence:
    def test_non_finite_loss_stops_the_run_before_adam_steps_on_it(self, rng, monkeypatch):
        spacing = (1.0, 1.5, 2.0)
        fixed = random_volume(rng, (16, 16, 16), spacing=spacing)
        moving = random_volume(rng, (16, 16, 16), spacing=spacing)
        # level 0: entry + 8 steps = calls 1-9; level 1 entry is call 10, so
        # call 13 is level 1's third step
        stepped = _fail_loss_at(monkeypatch, 13)
        report = register(fixed, moving, quick_cfg(pyramid_levels=3, iterations_per_level=8))
        assert report.stop_reason == "diverged"
        assert [t.stop_reason for t in report.levels] == ["max_iters", "diverged"]
        last = report.levels[-1]
        assert last.iterations == 3
        assert len(last.losses) == 3  # the non-finite loss is not recorded
        assert report.iterations_executed == 11 == sum(t.iterations for t in report.levels)
        assert stepped == [True] * 11
        assert report.final == min(last.losses, key=lambda lv: lv.total)
        assert last.losses[last.best_iteration] == report.final
        # returned like a budget stop: resampled onto the input grid
        assert report.field.dims == (16, 16, 16)
        assert report.field.spacing == spacing
        assert _strict_json(report)["stop_reason"] == "diverged"

    def test_non_finite_entry_loss_returns_the_coarser_best(self, rng, monkeypatch):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        stepped = _fail_loss_at(monkeypatch, 6)  # level 1's entry
        report = register(fixed, moving, quick_cfg(iterations_per_level=4))
        coarse, fine = report.levels
        assert (fine.stop_reason, fine.iterations, fine.losses) == ("diverged", 0, [])
        assert report.final == coarse.losses[coarse.best_iteration]
        assert report.field.dims == (12, 12, 12)
        assert stepped == [True] * 4
        _strict_json(report)

    def test_convnet_returns_the_best_of_all_rounds_cropped(self, rng, monkeypatch):
        fixed = random_volume(rng, (9, 9, 9))
        moving = random_volume(rng, (9, 9, 9))
        cfg = RegistrationConfig(
            mode="convnet",
            pyramid_levels=3,
            iterations_per_level=3,
            learning_rate=1.0,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=1, base_filters=2),
            seed=5,
        )
        stepped = _fail_loss_at(monkeypatch, 6)  # round 1, first step
        report = register(fixed, moving, cfg)
        assert [t.stop_reason for t in report.levels] == ["max_iters", "diverged"]
        assert report.final.total == min(lv.total for t in report.levels for lv in t.losses)
        assert stepped == [True] * 4
        assert report.padded_dims == (10, 10, 10)
        assert report.field.dims == (9, 9, 9)
        # the returned weights regenerate the returned field
        f, m = (
            Volume(data=np.pad(zscore_normalize(v).data, [(0, 1)] * 3, mode="edge"))
            for v in (fixed, moving)
        )
        pred, _ = convnet_forward(report.parameters, f, m)
        assert np.array_equal(pred.data[:9, :9, :9], report.field.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_convnet_forward_overflow_ends_as_diverged(self):
        # the first Adam step sets weights near +-1e308, so the next forward
        # pass overflows before any loss can be computed
        case = generate_case(SynthConfig(dims=(16, 16, 16), max_displacement=2.0))
        cfg = RegistrationConfig(mode="convnet", iterations_per_level=5, learning_rate=1e308)
        report = register(case.fixed, case.moving, cfg)
        assert report.stop_reason == report.levels[-1].stop_reason == "diverged"
        assert (report.levels[-1].iterations, len(report.levels[-1].losses)) == (1, 1)
        # the untrained network's zero-head field is the best finite iterate
        assert report.field.dims == (16, 16, 16)
        assert not report.field.data.any()
        assert np.isfinite(report.parameters.tensors["head_w"]).all()
        _strict_json(report)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize(
        "settings",
        [
            dict(pyramid_levels=1, learning_rate=1e308),
            dict(pyramid_levels=2, learning_rate=1e200),
            dict(pyramid_levels=1, learning_rate=1e200, loss=LossConfig(reg_weight=1e300)),
            dict(mode="convnet", learning_rate=1e300),
        ],
        ids=["lr1e308", "two-levels", "lambda1e300", "convnet"],
    )
    def test_finite_settings_that_overflow_end_as_diverged(self, settings):
        case = generate_case(SynthConfig(dims=(16, 16, 16), max_displacement=2.0))
        report = register(
            case.fixed, case.moving, RegistrationConfig(iterations_per_level=5, **settings)
        )
        assert report.stop_reason == "diverged"
        assert report.levels[-1].stop_reason == "diverged"
        assert report.field.dims == (16, 16, 16)
        assert all(np.isfinite(lv.total) for t in report.levels for lv in t.losses)
        _strict_json(report)


class TestReportJson:
    def test_serializable_and_complete(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        report = register(fixed, moving, quick_cfg(iterations_per_level=3))
        doc = report_to_json(report, field_path="out.dfield")
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["mode"] == "freeform"
        assert back["dims"] == [12, 12, 12]
        assert back["stop_reason"] in {"max_iters", "converged", "budget"}
        assert back["iterations_executed"] == report.iterations_executed
        assert len(back["levels"]) == 2
        level0 = back["levels"][0]
        assert set(level0) == {
            "level", "dims", "spacing", "iterations", "best_iteration",
            "stop_reason", "losses",
        }
        assert back["field_path"] == "out.dfield"
