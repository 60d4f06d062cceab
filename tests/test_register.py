"""Registration driver tests: pyramid, convergence, budgets, both modes."""

import json
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defreg.loss
import defreg.model
import defreg.register
import defreg.warp
from defreg.evaluate import landmark_errors, transform_landmarks
from defreg.loss import LossConfig, Workspace, ncc, overall_loss, smoothness_loss
from defreg.model import (
    AdamState,
    ConvNetConfig,
    adam_step,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
)
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

    @pytest.mark.parametrize(
        "dims", [(6, 5, 7), (2, 2, 2), (1, 4, 3), (5, 1, 1), (3, 3, 1), (9, 8, 2), (1, 1, 2)]
    )
    def test_equals_reduceat_reference_bitwise(self, rng, dims):
        # the earlier implementation: np.add.reduceat over pair starts,
        # then a division by each block's voxel count
        data = rng.standard_normal(dims) * 10.0 ** rng.uniform(-3, 3, size=dims)
        want = data
        for ax in range(3):
            n = want.shape[ax]
            starts = np.arange(0, n, 2)
            counts = np.diff(np.append(starts, n)).astype(np.float64)
            shape = [1, 1, 1]
            shape[ax] = len(starts)
            want = np.add.reduceat(want, starts, axis=ax) / counts.reshape(shape)
        v = Volume(data=data, spacing=(0.7, 1.0, 2.5), origin=(1.0, -2.0, 0.5))
        out = downsample_volume(v)
        assert out.data.tobytes() == want.tobytes()
        assert out.spacing == (1.4, 2.0, 5.0) and out.origin == v.origin


class TestNormalizeOnEntry:
    """Inputs are z-scored on entry from statistics computed once, and the
    normalized array is handed to the volume uncopied."""

    def raw_pair(self, rng, dims=(12, 10, 11)):
        return (
            Volume(data=rng.normal(3.0, 2.5, dims), spacing=(1.0, 1.5, 0.8)),
            Volume(data=rng.normal(-1.0, 0.5, dims), spacing=(1.0, 1.5, 0.8)),
        )

    @staticmethod
    def reference(v):
        data = (v.data - float(np.mean(v.data))) / float(np.std(v.data))
        return Volume(data=data, spacing=v.spacing, origin=v.origin)

    def test_normalized_bytes_equal_the_closed_form(self, rng):
        for v in self.raw_pair(rng):
            out = defreg.register._ensure_normalized(v)
            assert out.data.tobytes() == self.reference(v).data.tobytes()
            assert out.data.tobytes() == zscore_normalize(v).data.tobytes()
            assert not out.data.flags.writeable
            assert defreg.register._ensure_normalized(out) is out

    def test_registered_field_bytes_equal_a_pre_normalized_run(self, rng):
        fixed, moving = self.raw_pair(rng)
        cfg = quick_cfg(iterations_per_level=3)
        got = register(fixed, moving, cfg).field.data
        want = register(self.reference(fixed), self.reference(moving), cfg).field.data
        assert got.tobytes() == want.tobytes()


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
        [((2, 8, 8), 2, (1, 4, 4)), ((8, 8, 1), 4, (1, 1, 1)), ((12, 5, 12), 4, (2, 1, 2))],
    )
    def test_pyramid_too_deep_for_dims_refused_up_front(self, rng, dims, levels, level_dims):
        # every level needs 2 voxels along each axis that has more than one
        # in the input; the error names the setting and the offending
        # level's dims
        v = random_volume(rng, dims)
        with pytest.raises(ValueError) as err:
            register(v, v, quick_cfg(pyramid_levels=levels, iterations_per_level=1))
        assert f"pyramid_levels={levels}" in str(err.value)
        assert str(level_dims) in str(err.value)

    def test_single_voxel_pyramid_refused_by_name(self, rng):
        # no axis to downsample: the pyramid-depth error, not the
        # downsampler's
        v = random_volume(rng, (1, 1, 1))
        with pytest.raises(ValueError, match=r"pyramid_levels=2 .*\(1, 1, 1\)"):
            register(v, v, quick_cfg(pyramid_levels=2, iterations_per_level=1))

    @pytest.mark.parametrize("dims,levels", [((2, 8, 8), 1), ((12, 5, 12), 3)])
    def test_deepest_pyramid_the_dims_allow_runs(self, rng, dims, levels):
        v = random_volume(rng, dims)
        report = register(v, v, quick_cfg(pyramid_levels=levels, iterations_per_level=1))
        assert min(report.levels[0].dims) == 2
        assert report.field.dims == dims

    @pytest.mark.parametrize(
        "dims,levels,level_dims",
        [((8, 8, 1), 1, [(8, 8, 1)]), ((8, 8, 1), 2, [(4, 4, 1), (8, 8, 1)]),
         ((16, 1, 12), 3, [(4, 1, 3), (8, 1, 6), (16, 1, 12)])],
    )
    def test_one_voxel_axis_stays_one_voxel_on_every_level(self, rng, dims, levels, level_dims):
        fixed, moving = random_volume(rng, dims), random_volume(rng, dims)
        report = register(fixed, moving, quick_cfg(pyramid_levels=levels, iterations_per_level=2))
        assert [lv.dims for lv in report.levels] == level_dims
        assert all(np.isfinite(lv.total) for level in report.levels for lv in level.losses)
        assert np.isfinite(report.final.total)
        assert report.field.dims == dims and np.isfinite(report.field.data).all()

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

    def test_final_after_coarse_stop_scores_the_returned_field(self, rng):
        # after a stop before the finest level the returned field is the
        # coarse best iterate resampled; ``final`` is that field's loss on
        # the input grid, not the iterate's loss on its own level
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = quick_cfg(pyramid_levels=3, iterations_per_level=1000, max_seconds=1e-9)
        report = register(fixed, moving, cfg)
        assert report.stop_reason == "budget" and len(report.levels) == 1
        lv, _ = overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )
        assert report.final == lv
        coarse = report.levels[0]
        assert abs(lv.total - coarse.losses[coarse.best_iteration].total) > 0.1

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

    def test_an_earlier_best_field_is_rebuilt_from_its_weights(self, rng, monkeypatch):
        # the loop keeps only the weights of a best iterate it has moved
        # past; its field is predicted once more at the end, bit for bit the
        # field its pass gave.  A best at the last iterate costs no pass.
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        real_forward = defreg.register.convnet_forward
        fields = []

        def forward(*args):
            field, cache = real_forward(*args)
            fields.append(field.data.copy())
            return field, cache

        monkeypatch.setattr(defreg.register, "convnet_forward", forward)
        for rate, rebuilt in ((1.0, True), (1e-3, False)):
            cfg = RegistrationConfig(
                mode="convnet",
                pyramid_levels=3,
                iterations_per_level=4,
                learning_rate=rate,
                loss=LossConfig(ncc_window=5, reg_weight=0.1),
                convnet=ConvNetConfig(levels=1, base_filters=2),
                seed=5,
            )
            fields.clear()
            report = register(fixed, moving, cfg)
            totals = [lv.total for t in report.levels for lv in t.losses]
            best = int(np.argmin(totals))
            assert (best < len(totals) - 1) == rebuilt
            assert len(fields) == len(totals) + rebuilt
            assert np.array_equal(report.field.data, fields[best])
            assert np.array_equal(report.field.data, fields[-1])

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
        # the cropped field is scored again on the input grid, whose
        # one-voxel axis adds no smoothness differences
        want, _ = overall_loss(zscore_normalize(v), zscore_normalize(v), report.field, cfg.loss)
        assert report.final == want

    def test_final_is_the_cropped_fields_loss_on_the_input_grid(self, rng):
        # a 13^3 pair runs padded to 16^3; the padded grid's best loss and
        # the loss of its crop on the input grid differ, and ``final``, the
        # value the report and the CLI's total= line carry, is the latter
        fixed = random_volume(rng, (13, 13, 13))
        moving = random_volume(rng, (13, 13, 13))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=5,
            learning_rate=1e-2,
            loss=LossConfig(ncc_window=5, reg_weight=0.1),
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        report = register(fixed, moving, cfg)
        assert report.padded_dims == (16, 16, 16)
        assert report.field.dims == (13, 13, 13)
        want, _ = overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )
        assert report.final == want
        assert report.final.total != min(lv.total for t in report.levels for lv in t.losses)
        assert _strict_json(report)["final"]["total"] == want.total

    def test_loop_drops_cache_and_gradient_before_next_forward(self, rng, monkeypatch):
        # a run holds one step's arrays, a pass and Adam's update as the loop
        # takes them, plus its initial weights, far less than a second
        # activation cache; keeping the last iterate's gradient alive
        # through the next forward pass raised the run's peak over one pass
        # without Adam from 0.20 to 0.30 MB here, against a 0.52 MB cache
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
            state = AdamState.init(params.tensors, alpha=cfg.resolved_learning_rate)
            start = tracemalloc.get_traced_memory()[0]
            field, cache = convnet_forward(params, fixed, moving)
            cache_bytes = tracemalloc.get_traced_memory()[0] - start
            # the gradient handed over as the loop hands it, freed after the head
            _, cache["grad"] = overall_loss(fixed, moving, field, cfg.loss)
            stepped = adam_step(params.tensors, convnet_backward(cache), state)
            one_pass = tracemalloc.get_traced_memory()[1] - before
            del field, cache, state, stepped
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            register(fixed, moving, cfg)
            run = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert run - one_pass < cache_bytes / 2
        # and directly: each iterate's cache (probed by enc0's pool argmax,
        # a cache-only array) and gradient are dead when the next forward
        # begins
        real_forward, real_loss = defreg.register.convnet_forward, defreg.register.overall_loss
        probes, alive = [], []

        def forward(*args):
            alive.extend(p() is not None for p in probes)
            field, cache = real_forward(*args)
            probes.append(weakref.ref(cache["enc"][0][2]))
            return field, cache

        def loss(*args, **kwargs):
            lv, g = real_loss(*args, **kwargs)
            if g is not None:
                probes.append(weakref.ref(g))
            return lv, g

        monkeypatch.setattr(defreg.register, "convnet_forward", forward)
        monkeypatch.setattr(defreg.register, "overall_loss", loss)
        register(fixed, moving, cfg)
        assert len(probes) == 5 and alive == [False] * (2 + 4)

    def test_loss_gradient_is_freed_after_the_head(self, rng, monkeypatch):
        # the loop hands the loss gradient's only reference to the backward
        # pass, which frees it once the head's gradients are taken: it is
        # alive when dec0's output is computed again for the head, and dead
        # when each decoder block's normalized activations are and at each
        # batch-norm backward, dec0's first
        dims = (16, 16, 16)
        fixed = zscore_normalize(random_volume(rng, dims))
        moving = zscore_normalize(random_volume(rng, dims))
        cfg = RegistrationConfig(
            mode="convnet",
            iterations_per_level=1,
            loss=LossConfig(ncc_window=5),
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        real_loss = defreg.register.overall_loss
        real_normalize, real_bn_backward = defreg.model._bn_normalize, defreg.model._bn_backward
        probes, normalize, bn_backward = [], [], []

        def alive():
            return probes[-1]() is not None if probes else None

        def loss(*args, **kwargs):
            lv, g = real_loss(*args, **kwargs)
            if g is not None:
                probes.append(weakref.ref(g))
            return lv, g

        def spy_normalize(*args):
            normalize.append(alive())
            return real_normalize(*args)

        def spy_bn_backward(*args):
            bn_backward.append(alive())
            return real_bn_backward(*args)

        monkeypatch.setattr(defreg.register, "overall_loss", loss)
        monkeypatch.setattr(defreg.model, "_bn_normalize", spy_normalize)
        monkeypatch.setattr(defreg.model, "_bn_backward", spy_bn_backward)
        register(fixed, moving, cfg)
        assert len(probes) == 1
        assert bn_backward == [False, False]  # dec0, dec1
        # first forward (dec1, dec0), backward (dec0's output, then dec0's
        # and dec1's normalized activations), second forward
        assert normalize == [None, None, True, False, False, False, False]

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


class TestGradientOnlyWhereAdamSteps:
    @pytest.mark.parametrize("mode", ["freeform", "convnet"])
    def test_last_iterates_are_scored_by_value_alone(self, rng, monkeypatch, mode):
        # schedule (3, 2, 0): 4 + 3 + 1 evaluations, of which Adam steps on
        # 3 + 2; the run is the same to the bit as one that always takes
        # the gradient
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = quick_cfg(
            mode=mode,
            pyramid_levels=3,
            iterations_per_level=None,
            iterations_schedule=(3, 2, 0),
            learning_rate=0.3 if mode == "freeform" else 1e-2,
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        real_terms, real_loss = defreg.loss._ncc_terms, defreg.register.overall_loss
        grads, evals = [], []

        def counting_terms(F, G, w, eps, with_grad, *buf):
            grads.append(with_grad)
            return real_terms(F, G, w, eps, with_grad, *buf)

        def counting_loss(*args, **kwargs):
            evals.append(kwargs)
            return real_loss(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(defreg.loss, "_ncc_terms", counting_terms)
            m.setattr(defreg.register, "overall_loss", counting_loss)
            report = register(fixed, moving, cfg)
        # per level: a gradient for each step, none for the last iterate
        steps = [True] * 3 + [False] + [True] * 2 + [False] + [False]
        assert [kw["with_grad"] for kw in evals] == steps
        assert grads.count(True) == 5 and len(grads) == 8

        def always_grad(*args, **kwargs):
            return real_loss(*args, **{**kwargs, "with_grad": True})

        monkeypatch.setattr(defreg.register, "overall_loss", always_grad)
        full = register(fixed, moving, cfg)
        assert report.field.data.tobytes() == full.field.data.tobytes()
        doc, full_doc = _strict_json(report), _strict_json(full)
        for d in (doc, full_doc):
            del d["wall_seconds"]
            for level in d["levels"]:
                del level["wall_seconds"]
        assert doc == full_doc
        assert [t.iterations for t in report.levels] == [3, 2, 0]


    def test_value_only_iterate_holds_no_cache(self, rng, monkeypatch):
        # schedule (1, 0): the cache of an iterate that takes a step is
        # alive through its loss, and that of a level's last iterate, which
        # no backward pass reads, is freed before it
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = quick_cfg(
            mode="convnet",
            pyramid_levels=2,
            iterations_per_level=None,
            iterations_schedule=(1, 0),
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        real_forward, real_loss = defreg.register.convnet_forward, defreg.register.overall_loss
        probes, alive = [], []

        def forward(*args):
            field, cache = real_forward(*args)
            probes.append(weakref.ref(cache["enc"][0][2]))  # enc0's pool argmax, cache-only
            return field, cache

        def loss(*args, **kwargs):
            alive.append((kwargs["with_grad"], probes[-1]() is not None))
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(defreg.register, "convnet_forward", forward)
        monkeypatch.setattr(defreg.register, "overall_loss", loss)
        register(fixed, moving, cfg)
        assert alive == [(True, True), (False, False), (False, False)]

    @pytest.mark.parametrize("mode", ["freeform", "convnet"])
    def test_level_without_steps_builds_no_adam_state(self, rng, monkeypatch, mode):
        # schedule (2, 0, 1): Adam's moments for the first and last levels only
        fixed = random_volume(rng, (16, 16, 16))
        moving = random_volume(rng, (16, 16, 16))
        cfg = quick_cfg(
            mode=mode,
            pyramid_levels=3,
            iterations_per_level=None,
            iterations_schedule=(2, 0, 1),
            learning_rate=0.3 if mode == "freeform" else 1e-2,
            convnet=ConvNetConfig(levels=2, base_filters=4),
        )
        built = []

        class CountingAdamState(defreg.register.AdamState):
            @classmethod
            def init(cls, params, alpha):
                built.append({k: p.shape for k, p in params.items()})
                return super().init(params, alpha)

        monkeypatch.setattr(defreg.register, "AdamState", CountingAdamState)
        report = register(fixed, moving, cfg)
        assert [t.iterations for t in report.levels] == [2, 0, 1]
        if mode == "freeform":
            assert built == [{"field": (4, 4, 4, 3)}, {"field": (16, 16, 16, 3)}]
        else:
            assert len(built) == 2 and built[0] == built[1]


class TestLevelWorkspace:
    """A freeform level with steps evaluates into one workspace, which it
    frees before the next level allocates its own."""

    # Traced from the second evaluation of a 48^3 level through its Adam
    # step, in volumes of the image: 3.00 measured, the step's new
    # parameters.  The warp's slab arrays (2.6) are freed before Adam; the
    # whole-volume scratch is the workspace's, allocated at the first
    # evaluation.  Allocating that scratch per evaluation peaked at 18.4.
    def test_gradient_step_allocates_only_the_new_parameters(self, rng, monkeypatch):
        fixed = random_volume(rng, (48, 48, 48))
        moving = random_volume(rng, (48, 48, 48))
        real_loss, real_adam = defreg.register.overall_loss, defreg.register.adam_step
        evals, peaks = [], []

        def loss(*args, **kwargs):
            evals.append(kwargs["ws"])
            if len(evals) == 2:  # after a warm-up step
                tracemalloc.start()
            return real_loss(*args, **kwargs)

        def adam(*args, **kwargs):
            out = real_adam(*args, **kwargs)
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return out

        monkeypatch.setattr(defreg.register, "overall_loss", loss)
        monkeypatch.setattr(defreg.register, "adam_step", adam)
        cfg = RegistrationConfig(pyramid_levels=1, iterations_per_level=3, learning_rate=0.2)
        register(fixed, moving, cfg)
        assert len(evals) == 4 and all(ws is evals[0] for ws in evals)
        assert peaks[0] < 3.5 * fixed.data.nbytes

    def test_each_level_frees_its_workspace_before_the_next_allocates(self, rng, monkeypatch):
        fixed = random_volume(rng, (32, 32, 32))
        moving = random_volume(rng, (32, 32, 32))
        built, alive = [], []

        class Recording(Workspace):
            def __init__(self, fixed, ncc_window):
                alive.append([ref() is not None for ref in built])
                super().__init__(fixed, ncc_window)
                built.append(weakref.ref(self))

        def traced_peak(cfg):
            tracemalloc.start()
            try:
                register(fixed, moving, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(defreg.register, "Workspace", Recording)
        two = traced_peak(quick_cfg(pyramid_levels=2, iterations_per_level=2))
        assert alive == [[], [False]]
        one = traced_peak(quick_cfg(pyramid_levels=1, iterations_per_level=2))
        # the coarse level's workspace (13 of its volumes, 1.6 of the fine
        # level's) would raise the peak by that much if it were alive; the
        # bound is half of 12 of them
        coarse = 12 * 16**3 * 8
        assert two - one < coarse / 2
        # a level without steps builds none
        built.clear()
        register(fixed, moving, quick_cfg(pyramid_levels=2, iterations_schedule=(2, 0)))
        assert len(built) == 1


def _fail_loss_at(monkeypatch, call):
    """Make the level loop's ``call``-th loss evaluation (1-based)
    non-finite; returns a list that records, per Adam step, whether every
    gradient it was given is finite."""
    seen, stepped = [], []
    real_loss, real_adam = defreg.register.overall_loss, defreg.register.adam_step

    def loss(*args, **kwargs):
        lv, grad = real_loss(*args, **kwargs)
        seen.append(lv)
        if len(seen) == call:
            nan_grad = None if grad is None else np.full_like(grad, np.nan)
            return replace(lv, total=float("nan")), nan_grad
        return lv, grad

    def adam(params, grads, state, *work):
        stepped.append(all(np.isfinite(g).all() for g in grads.values()))
        return real_adam(params, grads, state, *work)

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
        cfg = quick_cfg(pyramid_levels=3, iterations_per_level=8)
        report = register(fixed, moving, cfg)
        assert report.stop_reason == "diverged"
        assert [t.stop_reason for t in report.levels] == ["max_iters", "diverged"]
        last = report.levels[-1]
        assert last.iterations == 3
        assert len(last.losses) == 3  # the non-finite loss is not recorded
        assert report.iterations_executed == 11 == sum(t.iterations for t in report.levels)
        assert stepped == [True] * 11
        assert last.losses[last.best_iteration] == min(last.losses, key=lambda lv: lv.total)
        # returned like a budget stop: resampled onto the input grid, and
        # scored there
        assert report.field.dims == (16, 16, 16)
        assert report.field.spacing == spacing
        assert report.final == overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )[0]
        assert _strict_json(report)["stop_reason"] == "diverged"

    def test_non_finite_entry_loss_returns_the_coarser_best(self, rng, monkeypatch):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        stepped = _fail_loss_at(monkeypatch, 6)  # level 1's entry
        cfg = quick_cfg(iterations_per_level=4)
        report = register(fixed, moving, cfg)
        coarse, fine = report.levels
        assert (fine.stop_reason, fine.iterations, fine.losses) == ("diverged", 0, [])
        assert report.field.dims == (12, 12, 12)
        # the coarse best, resampled onto the input grid, is scored there
        assert report.final == overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )[0]
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
        assert stepped == [True] * 4
        assert report.padded_dims == (10, 10, 10)
        assert report.field.dims == (9, 9, 9)
        # the returned weights regenerate the best field of all rounds on
        # the padded grid, and the returned field is its crop
        f, m = (
            Volume(data=np.pad(zscore_normalize(v).data, [(0, 1)] * 3, mode="edge"))
            for v in (fixed, moving)
        )
        pred, _ = convnet_forward(report.parameters, f, m)
        best = min(lv.total for t in report.levels for lv in t.losses)
        assert overall_loss(f, m, pred, cfg.loss)[0].total == best
        assert np.array_equal(pred.data[:9, :9, :9], report.field.data)
        # ``final`` is the cropped field's loss on the input grid
        assert report.final == overall_loss(
            zscore_normalize(fixed), zscore_normalize(moving), report.field, cfg.loss
        )[0]

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


class TestConstantImage:
    @pytest.mark.parametrize("which", ["fixed", "moving"])
    @pytest.mark.parametrize("mode", ["freeform", "convnet"])
    def test_gives_the_zero_field_and_converges(self, rng, mode, which):
        # a constant image has zero covariance with any image, so NCC and
        # its gradient are 0 (the variance floor keeps 0/0 away), and the
        # field never leaves zero
        image = random_volume(rng, (16, 16, 16))
        constant = Volume(data=np.full((16, 16, 16), 3.0))
        fixed, moving = (constant, image) if which == "fixed" else (image, constant)
        cfg = RegistrationConfig(
            mode=mode, iterations_per_level=50, convnet=ConvNetConfig(levels=2, base_filters=2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = register(fixed, moving, cfg)
        assert report.stop_reason == "converged"
        assert not report.field.data.any()
        assert report.final.total == 0.0


def sweep_image(kind, dims, seed):
    if kind == "noise":
        return np.random.default_rng(seed).standard_normal(dims)
    if kind == "constant":
        return np.full(dims, 2.5)
    if kind == "zero":
        return np.zeros(dims)
    i, j, k = np.indices(dims, dtype=np.float64)
    return i - 2.0 * j + 0.5 * k  # ramp


class TestFrontDoorSweep:
    """Any small input ends as a finite field at the input dims with a named
    stop reason, or as the named pyramid-depth error; no stray exception
    and no RuntimeWarning."""

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(["freeform", "convnet"]),
        dims=st.tuples(*[st.integers(1, 8)] * 3),
        kinds=st.tuples(*[st.sampled_from(["noise", "constant", "zero", "ramp"])] * 2),
        spacing=st.tuples(*[st.sampled_from([0.5, 1.0, 1.7, 3.0])] * 3),
        origin=st.tuples(*[st.floats(-40.0, 40.0)] * 3),
        window=st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
        levels=st.integers(1, 3),
        iterations=st.integers(0, 3),
        tiny_slab=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_draw_ends_by_name(
        self, mode, dims, kinds, spacing, origin, window, levels, iterations, tiny_slab, seed
    ):
        fixed, moving = (
            Volume(data=sweep_image(kind, dims, seed + n), spacing=spacing, origin=origin)
            for n, kind in enumerate(kinds)
        )
        cfg = RegistrationConfig(
            mode=mode,
            pyramid_levels=levels if mode == "freeform" else 1,
            iterations_per_level=iterations,
            loss=LossConfig(ncc_window=window),
            convnet=ConvNetConfig(levels=2, base_filters=2),
            seed=seed,
        )
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if tiny_slab:
                # every x-slab loop takes 1-plane slabs: the warp, the NCC,
                # field resampling and each convolution, recompute and
                # weight gradient
                mp.setattr(defreg.warp, "_SLAB_VOXELS", 1)
                mp.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", 1)
                mp.setattr(defreg.model, "_SLAB_VOXELS", 1)
                mp.setattr(defreg.model, "_SLAB_BYTES", 1)
            try:
                report = register(fixed, moving, cfg)
            except ValueError as err:
                assert mode == "freeform" and f"pyramid_levels={levels}" in str(err)
                return
        assert report.field.dims == dims
        assert np.isfinite(report.field.data).all()
        assert report.stop_reason in ("max_iters", "converged", "budget", "diverged")
        assert np.isfinite(report.final.total)


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
            "stop_reason", "wall_seconds", "losses",
        }
        assert back["field_path"] == "out.dfield"

    def test_level_times_lie_within_the_run(self, rng):
        fixed = random_volume(rng, (12, 12, 12))
        moving = random_volume(rng, (12, 12, 12))
        report = register(fixed, moving, quick_cfg(iterations_per_level=3))
        times = [t.wall_seconds for t in report.levels]
        assert len(times) == 2 and all(t >= 0.0 for t in times)
        assert sum(times) <= report.wall_seconds
        back = json.loads(json.dumps(report_to_json(report)))
        assert [level["wall_seconds"] for level in back["levels"]] == times
