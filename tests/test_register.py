"""Registration driver tests: pyramid, convergence, budgets, both modes."""

import json

import numpy as np
import pytest

from defreg.loss import LossConfig, ncc, overall_loss, smoothness_loss
from defreg.model import ConvNetConfig
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
