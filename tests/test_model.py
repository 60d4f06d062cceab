"""Model tests: convnet layers, end-to-end gradients, Adam, checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from defreg.model import (
    AdamState,
    ConvNetConfig,
    ConvNetParameters,
    _bn_backward,
    _bn_forward,
    _conv_forward,
    _layer_plan,
    _maxpool_backward,
    _maxpool_forward,
    _upsample_backward,
    _upsample_forward,
    adam_step,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
    load_checkpoint,
    save_checkpoint,
)
from defreg.warp import DisplacementField

from conftest import random_volume


def tiny_config(**overrides):
    kw = dict(levels=1, base_filters=2, use_batchnorm=True)
    kw.update(overrides)
    return ConvNetConfig(**kw)


def brute_conv(x, w, b):
    """Direct same-padded k x k x k convolution, one output voxel at a time."""
    cout, cin, ks = w.shape[:3]
    nx, ny, nz = x.shape[1:]
    p = ks // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    out = np.empty((cout, nx, ny, nz))
    for o in range(cout):
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    patch = xp[:, i : i + ks, j : j + ks, k : k + ks]
                    out[o, i, j, k] = (patch * w[o]).sum() + b[o]
    return out


# -- the tape implementation the structured forward/backward replaced, kept
# -- as the bit-exact reference: separate 3x3x3 and 1x1x1 convolutions, and
# -- a list of tagged records that the backward pass interprets in reverse

def tape_conv3_forward(x, w, b):
    cout = w.shape[0]
    nx, ny, nz = x.shape[1:]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.broadcast_to(b[:, None, None, None], (cout, nx, ny, nz)).copy()
    for dx in range(3):
        for dy in range(3):
            for dz in range(3):
                out += np.einsum(
                    "oi,ixyz->oxyz",
                    w[:, :, dx, dy, dz],
                    xp[:, dx : dx + nx, dy : dy + ny, dz : dz + nz],
                )
    return out, xp


def tape_conv3_backward(xp, w, dout):
    nx, ny, nz = dout.shape[1:]
    dw = np.zeros_like(w)
    db = dout.sum(axis=(1, 2, 3))
    dxp = np.zeros_like(xp)
    for dx in range(3):
        for dy in range(3):
            for dz in range(3):
                sl = xp[:, dx : dx + nx, dy : dy + ny, dz : dz + nz]
                dw[:, :, dx, dy, dz] = np.einsum("oxyz,ixyz->oi", dout, sl)
                dxp[:, dx : dx + nx, dy : dy + ny, dz : dz + nz] += np.einsum(
                    "oi,oxyz->ixyz", w[:, :, dx, dy, dz], dout
                )
    return dxp[:, 1:-1, 1:-1, 1:-1], dw, db


def tape_conv1_forward(x, w, b):
    return np.einsum("oi,ixyz->oxyz", w[:, :, 0, 0, 0], x) + b[:, None, None, None]


def tape_conv1_backward(x, w, dout):
    dw = np.einsum("oxyz,ixyz->oi", dout, x)[:, :, None, None, None]
    db = dout.sum(axis=(1, 2, 3))
    dx = np.einsum("oi,oxyz->ixyz", w[:, :, 0, 0, 0], dout)
    return dx, dw, db


def tape_forward(params, fixed, moving):
    cfg, t = params.config, params.tensors
    x = np.stack([fixed.data, moving.data])
    records, skips = [], []
    for l in range(cfg.levels):
        for conv in (1, 2):
            w, b = t[f"enc{l}_conv{conv}_w"], t[f"enc{l}_conv{conv}_b"]
            x, xp = tape_conv3_forward(x, w, b)
            records.append(("conv", f"enc{l}_conv{conv}", xp, w))
            mask = x > 0
            x = x * mask
            records.append(("relu", mask))
        skips.append(x)
        x, pool_cache = _maxpool_forward(x)
        records.append(("pool", pool_cache, l))
    for l in reversed(range(cfg.levels)):
        x = _upsample_forward(x)
        records.append(("upsample",))
        split = x.shape[0]
        x = np.concatenate([x, skips[l]], axis=0)
        records.append(("concat", split, l))
        w, b = t[f"dec{l}_conv_w"], t[f"dec{l}_conv_b"]
        x, xp = tape_conv3_forward(x, w, b)
        records.append(("conv", f"dec{l}_conv", xp, w))
        if cfg.use_batchnorm:
            x, bn_cache = _bn_forward(x, t[f"dec{l}_bn_gamma"], t[f"dec{l}_bn_beta"])
            records.append(("bn", f"dec{l}_bn", bn_cache))
        mask = x > 0
        x = x * mask
        records.append(("relu", mask))
    out = tape_conv1_forward(x, t["head_w"], t["head_b"])
    records.append(("head", x, t["head_w"]))
    return np.moveaxis(out, 0, -1), {"records": records, "skip_grads": [None] * cfg.levels}


def tape_backward(cache, grad):
    grads = {}
    skip_grads = cache["skip_grads"]
    dx = np.moveaxis(grad, -1, 0)
    for rec in reversed(cache["records"]):
        kind = rec[0]
        if kind == "head":
            dx, grads["head_w"], grads["head_b"] = tape_conv1_backward(rec[1], rec[2], dx)
        elif kind == "relu":
            dx = dx * rec[1]
        elif kind == "bn":
            dx, grads[rec[1] + "_gamma"], grads[rec[1] + "_beta"] = _bn_backward(rec[2], dx)
        elif kind == "conv":
            dx, grads[rec[1] + "_w"], grads[rec[1] + "_b"] = tape_conv3_backward(rec[2], rec[3], dx)
        elif kind == "concat":
            _, split, level = rec
            skip_grads[level] = dx[split:]
            dx = dx[:split]
        elif kind == "upsample":
            dx = _upsample_backward(dx)
        else:  # pool
            _, pool_cache, level = rec
            dx = _maxpool_backward(pool_cache, dx)
            if skip_grads[level] is not None:
                dx = dx + skip_grads[level]
    return grads


class TestConvNetConfig:
    def test_defaults(self):
        cfg = ConvNetConfig()
        assert (cfg.levels, cfg.base_filters, cfg.use_batchnorm) == (3, 8, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvNetConfig(levels=0)
        with pytest.raises(ValueError):
            ConvNetConfig(base_filters=0)


class TestInit:
    def test_shapes_follow_plan(self):
        cfg = ConvNetConfig(levels=2, base_filters=4)
        params = init_convnet_parameters(cfg, seed=7)
        plan = dict(_layer_plan(cfg))
        assert set(params.tensors) == set(plan)
        for name, shape in plan.items():
            assert params.tensors[name].shape == shape

    def test_head_starts_at_zero(self):
        params = init_convnet_parameters(ConvNetConfig(levels=2, base_filters=4), seed=3)
        assert not params.tensors["head_w"].any()
        assert not params.tensors["head_b"].any()
        assert params.tensors["head_w"].shape == (3, 4, 1, 1, 1)

    def test_bn_initials(self):
        params = init_convnet_parameters(tiny_config(), seed=0)
        assert np.array_equal(params.tensors["dec0_bn_gamma"], np.ones(2))
        assert not params.tensors["dec0_bn_beta"].any()

    def test_seed_determinism(self):
        cfg = tiny_config()
        a = init_convnet_parameters(cfg, seed=11)
        b = init_convnet_parameters(cfg, seed=11)
        c = init_convnet_parameters(cfg, seed=12)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])
        assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)


class TestLayerPrimitives:
    def test_conv3_matches_brute_force(self, rng):
        x = rng.standard_normal((3, 4, 5, 4))
        w = rng.standard_normal((2, 3, 3, 3, 3))
        b = rng.standard_normal(2)
        out, xp = _conv_forward(x, w, b)
        np.testing.assert_allclose(out, brute_conv(x, w, b), atol=1e-10)
        assert xp.shape == (3, 6, 7, 6)

    def test_conv1_matches_brute_force_without_padding(self, rng):
        x = rng.standard_normal((3, 4, 5, 4))
        w = rng.standard_normal((2, 3, 1, 1, 1))
        b = rng.standard_normal(2)
        out, xp = _conv_forward(x, w, b)
        np.testing.assert_allclose(out, brute_conv(x, w, b), atol=1e-10)
        assert xp is x  # nothing to pad, so the head's input is not copied

    def test_maxpool_blockwise_max(self, rng):
        x = rng.standard_normal((2, 4, 6, 4))
        out, _ = _maxpool_forward(x)
        want = x.reshape(2, 2, 2, 3, 2, 2, 2).max(axis=(2, 4, 6))
        np.testing.assert_array_equal(out, want)

    def test_maxpool_tie_routes_to_lowest_linear_index(self):
        # all-equal window: gradient must land on the (0,0,0) corner
        x = np.ones((1, 2, 2, 2))
        _, cache = _maxpool_forward(x)
        back = _maxpool_backward(cache, np.full((1, 1, 1, 1), 5.0))
        want = np.zeros((1, 2, 2, 2))
        want[0, 0, 0, 0] = 5.0
        np.testing.assert_array_equal(back, want)

    def test_maxpool_two_way_tie_prefers_smaller_index(self):
        # max duplicated at (1,0,0) [linear 1] and (0,1,0) [linear 2]
        x = np.zeros((1, 2, 2, 2))
        x[0, 1, 0, 0] = 9.0
        x[0, 0, 1, 0] = 9.0
        _, cache = _maxpool_forward(x)
        back = _maxpool_backward(cache, np.ones((1, 1, 1, 1)))
        assert back[0, 1, 0, 0] == 1.0
        assert back[0, 0, 1, 0] == 0.0

    def test_maxpool_backward_one_position_per_window(self, rng):
        x = rng.standard_normal((3, 4, 4, 6))
        _, cache = _maxpool_forward(x)
        dout = rng.standard_normal((3, 2, 2, 3))
        back = _maxpool_backward(cache, dout)
        windows = back.reshape(3, 2, 2, 2, 2, 3, 2)
        per_window = windows.transpose(0, 1, 3, 5, 2, 4, 6).reshape(3, 2, 2, 3, 8)
        np.testing.assert_allclose(per_window.sum(axis=-1), dout, atol=1e-12)
        assert np.all(np.count_nonzero(per_window, axis=-1) <= 1)

    def test_upsample_repeats_nearest(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        up = _upsample_forward(x)
        assert up.shape == (1, 4, 4, 4)
        np.testing.assert_array_equal(up[0, :2, :2, :2], np.full((2, 2, 2), x[0, 0, 0, 0]))
        np.testing.assert_array_equal(up[0, 2:, 2:, 2:], np.full((2, 2, 2), x[0, 1, 1, 1]))

    def test_upsample_backward_is_adjoint(self, rng):
        x = rng.standard_normal((2, 3, 2, 4))
        y = rng.standard_normal((2, 6, 4, 8))
        lhs = float((_upsample_forward(x) * y).sum())
        rhs = float((x * _upsample_backward(y)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_bn_normalizes_with_batch_statistics(self, rng):
        x = rng.standard_normal((3, 4, 4, 4)) * 2.0 + 1.5
        gamma = np.array([1.0, 2.0, 0.5])
        beta = np.array([0.0, 1.0, -1.0])
        out, _ = _bn_forward(x, gamma, beta)
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), beta, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(1, 2, 3)), gamma, rtol=1e-3)
        # batch statistics absorb an affine change of the input (up to eps)
        shifted, _ = _bn_forward(3.0 * x - 7.0, gamma, beta)
        np.testing.assert_allclose(shifted, out, atol=1e-4)


class TestConvNetForward:
    def test_zero_head_gives_zero_field(self, rng):
        cfg = tiny_config()
        params = init_convnet_parameters(cfg, seed=0)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        field, _ = convnet_forward(params, fixed, moving)
        assert field.dims == (8, 8, 8)
        assert not field.data.any()

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 32])
    def test_output_dims_match_input(self, rng, levels, n):
        cfg = ConvNetConfig(levels=levels, base_filters=2)
        params = init_convnet_parameters(cfg, seed=1)
        fixed = random_volume(rng, (n, n, n))
        moving = random_volume(rng, (n, n, n))
        field, _ = convnet_forward(params, fixed, moving)
        assert field.dims == (n, n, n)
        assert field.spacing == fixed.spacing

    def test_head_linearity(self, rng):
        cfg = tiny_config()
        params = init_convnet_parameters(cfg, seed=2)
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1)) * 0.1
        params.tensors["head_b"] = rng.standard_normal(3) * 0.1
        doubled = ConvNetParameters(
            config=cfg, tensors={k: v.copy() for k, v in params.tensors.items()}
        )
        doubled.tensors["head_w"] = 2.0 * doubled.tensors["head_w"]
        doubled.tensors["head_b"] = 2.0 * doubled.tensors["head_b"]
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        f1, _ = convnet_forward(params, fixed, moving)
        f2, _ = convnet_forward(doubled, fixed, moving)
        np.testing.assert_array_equal(f2.data, 2.0 * f1.data)

    def test_positive_homogeneity_without_batchnorm(self, rng):
        # zero biases + no batchnorm: conv/ReLU stacks are positively
        # homogeneous, so doubling the input doubles the field bitwise
        cfg = tiny_config(use_batchnorm=False)
        params = init_convnet_parameters(cfg, seed=3)
        for name in list(params.tensors):
            if name.endswith("_b"):
                params.tensors[name] = np.zeros_like(params.tensors[name])
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1)) * 0.1
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        fixed2 = type(fixed)(data=2.0 * fixed.data, spacing=fixed.spacing)
        moving2 = type(moving)(data=2.0 * moving.data, spacing=moving.spacing)
        f1, _ = convnet_forward(params, fixed, moving)
        f2, _ = convnet_forward(params, fixed2, moving2)
        np.testing.assert_array_equal(f2.data, 2.0 * f1.data)

    def test_forward_determinism(self, rng):
        cfg = tiny_config()
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        a, _ = convnet_forward(init_convnet_parameters(cfg, seed=5), fixed, moving)
        b, _ = convnet_forward(init_convnet_parameters(cfg, seed=5), fixed, moving)
        assert np.array_equal(a.data, b.data)

    def test_indivisible_dims_rejected(self, rng):
        cfg = ConvNetConfig(levels=3, base_filters=2)
        params = init_convnet_parameters(cfg, seed=0)
        fixed = random_volume(rng, (12, 16, 16))
        moving = random_volume(rng, (12, 16, 16))
        with pytest.raises(ValueError):
            convnet_forward(params, fixed, moving)

    def test_dims_mismatch_rejected(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            convnet_forward(params, random_volume(rng, (8, 8, 8)), random_volume(rng, (8, 8, 10)))

    def test_forward_and_backward_leave_parameters_untouched(self, rng):
        params = init_convnet_parameters(tiny_config(levels=2), seed=8)
        before = {k: v.copy() for k, v in params.tensors.items()}
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        _, cache = convnet_forward(params, fixed, moving)
        convnet_backward(cache, DisplacementField(rng.standard_normal((8, 8, 8, 3))))
        assert set(params.tensors) == set(before)
        for k, v in before.items():
            assert np.array_equal(params.tensors[k], v)


class TestConvNetBackward:
    @pytest.mark.parametrize("use_batchnorm", [True, False])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_equals_tape_reference_bitwise(self, rng, levels, use_batchnorm):
        cfg = ConvNetConfig(levels=levels, base_filters=2, use_batchnorm=use_batchnorm)
        params = init_convnet_parameters(cfg, seed=levels)
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1)) * 0.1
        params.tensors["head_b"] = rng.standard_normal(3) * 0.1
        dims = (8, 16, 24)  # non-cubic, divisible by 2^3
        fixed = random_volume(rng, dims)
        moving = random_volume(rng, dims)
        field, cache = convnet_forward(params, fixed, moving)
        want_field, tape = tape_forward(params, fixed, moving)
        assert np.array_equal(field.data, want_field)
        for _ in range(2):  # the cache serves any number of backward passes
            probe = rng.standard_normal(dims + (3,))
            grads = convnet_backward(cache, DisplacementField(probe))
            want = tape_backward(tape, probe)
            assert list(grads) == list(want)
            for k in want:
                assert np.array_equal(grads[k], want[k]), k

    def test_backward_leaves_nothing_alive(self, rng):
        # the backward pass only reads the cache: once its gradients are
        # dropped, memory is back where it was before the call
        params = init_convnet_parameters(ConvNetConfig(levels=2, base_filters=4), seed=3)
        dims = (16, 16, 16)
        _, cache = convnet_forward(params, random_volume(rng, dims), random_volume(rng, dims))
        grad = DisplacementField(rng.standard_normal(dims + (3,)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = convnet_backward(cache, grad)
            del grads
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 8 * 16**3  # less than one volume of float64
    def test_zero_grad_gives_zero_grads(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=4)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        _, cache = convnet_forward(params, fixed, moving)
        grads = convnet_backward(cache, DisplacementField.zeros((8, 8, 8)))
        assert set(grads) == set(params.tensors)
        for g in grads.values():
            assert not g.any()

    def test_grad_dims_mismatch_rejected(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=4)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        _, cache = convnet_forward(params, fixed, moving)
        with pytest.raises(ValueError):
            convnet_backward(cache, DisplacementField.zeros((8, 8, 10)))

    def test_all_parameter_gradients_match_finite_differences(self, rng):
        # linear probe loss L = <field, R>: exact analytic gradient via
        # backward, FD at a step sized to each tensor's scale with local
        # refinement where the bracket crosses a ReLU kink
        cfg = tiny_config()
        params = init_convnet_parameters(cfg, seed=6)
        params.tensors["head_w"] = rng.uniform(-0.02, 0.02, size=(3, 2, 1, 1, 1))
        params.tensors["head_b"] = np.array([0.25, -0.25, 0.25])
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        probe = rng.standard_normal((8, 8, 8, 3))

        def loss_for(tensors):
            p = ConvNetParameters(config=cfg, tensors={k: v.copy() for k, v in tensors.items()})
            field, _ = convnet_forward(p, fixed, moving)
            return float((field.data * probe).sum())

        field, cache = convnet_forward(
            ConvNetParameters(config=cfg, tensors={k: v.copy() for k, v in params.tensors.items()}),
            fixed,
            moving,
        )
        grads = convnet_backward(cache, DisplacementField(probe))

        worst = 0.0
        for name, g in grads.items():
            theta = params.tensors[name]
            scale = max(float(np.abs(theta).max()), 1.0)
            flat_idx = rng.choice(theta.size, size=min(theta.size, 12), replace=False)
            for fi in flat_idx:
                pos = np.unravel_index(int(fi), theta.shape)
                ana = g[pos]
                err = None
                for step in (1e-3 * scale, 1e-4 * scale, 3e-6 * scale):
                    up = {k: v.copy() for k, v in params.tensors.items()}
                    up[name][pos] += step
                    dn = {k: v.copy() for k, v in params.tensors.items()}
                    dn[name][pos] -= step
                    num = (loss_for(up) - loss_for(dn)) / (2 * step)
                    denom = max(abs(num), abs(float(ana)), 1e-8)
                    err = abs(num - float(ana)) / denom
                    if err < 1e-4:
                        break
                worst = max(worst, err)
        assert worst < 1e-4


def closed_form_adam(params, grads, state):
    """Adam with a fresh array per step; the bit-exact reference."""
    t = state.t + 1
    out, m, v = dict(params), dict(state.m), dict(state.v)
    for k, g in grads.items():
        m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * (g * g)
        mhat = m[k] / (1.0 - state.beta1**t)
        vhat = v[k] / (1.0 - state.beta2**t)
        out[k] = params[k] - state.alpha * mhat / (np.sqrt(vhat) + state.eps)
    return out, m, v


class TestAdam:
    def test_three_steps_equal_reference_bitwise(self, rng):
        params = {"w": rng.standard_normal((4, 5)), "b": rng.standard_normal((3, 2, 1, 1, 1))}
        state = AdamState.init(params, alpha=0.3)
        for _ in range(3):
            grads = {
                "w": rng.standard_normal((4, 5)),
                # broadcast strides, as a bias-like gradient can have
                "b": np.broadcast_to(rng.standard_normal((2, 3)).T[:, :, None, None, None],
                                     (3, 2, 1, 1, 1)),
            }
            kept = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy()) for k in params}
            want, want_m, want_v = closed_form_adam(params, grads, state)
            new_params, new_state = adam_step(params, grads, state)
            for k in params:
                assert np.array_equal(new_params[k], want[k])
                assert np.array_equal(new_state.m[k], want_m[k])
                assert np.array_equal(new_state.v[k], want_v[k])
                assert new_params[k].flags.c_contiguous
                # inputs untouched: the caller may still hold them
                p0, m0, v0 = kept[k]
                assert np.array_equal(params[k], p0)
                assert np.array_equal(state.m[k], m0) and np.array_equal(state.v[k], v0)
            params, state = new_params, new_state

    def test_first_step_unit_gradient(self):
        params = {"w": np.full((3, 3), 10.0)}
        grads = {"w": np.ones((3, 3))}
        state = AdamState.init(params, alpha=1e-4)
        new_params, new_state = adam_step(params, grads, state)
        delta = params["w"] - new_params["w"]
        # atol beats the subtraction's cancellation noise (~2e-15 at theta=10)
        # yet still resolves the 1e-12 gap to an uncorrected 1e-4 step
        np.testing.assert_allclose(delta, 1e-4 / (1.0 + 1e-8), rtol=0, atol=1e-13)
        assert new_state.t == 1
        assert params["w"][0, 0] == 10.0  # input untouched

    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.init(params, alpha=1e-2)
        new_params, new_state = adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(new_params["w"], params["w"])
        assert new_state.t == 1

    def test_two_steps_match_hand_recurrence(self):
        g = 0.3
        alpha, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        theta = 1.0
        m = v = 0.0
        expect = theta
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            expect -= alpha * mhat / (np.sqrt(vhat) + eps)
        params = {"w": np.array([1.0])}
        state = AdamState.init(params, alpha=alpha)
        for _ in range(2):
            params, state = adam_step(params, {"w": np.array([g])}, state)
        assert params["w"][0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("gmag", [1e-3, 1.0, 100.0])
    def test_step_magnitude_approaches_alpha(self, gmag):
        alpha = 1e-4
        params = {"w": np.array([0.0])}
        state = AdamState.init(params, alpha=alpha)
        prev = params["w"][0]
        for _ in range(50):
            params, state = adam_step(params, {"w": np.array([gmag])}, state)
            step = abs(params["w"][0] - prev)
            prev = params["w"][0]
        assert step == pytest.approx(alpha, rel=0.01)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros((2, 2))}
        state = AdamState.init(params, alpha=1e-4)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, state)

    def test_unknown_key_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.init(params, alpha=1e-4)
        with pytest.raises(KeyError):
            adam_step(params, {"q": np.zeros(2)}, state)


class TestCheckpoint:
    def test_round_trip_values_bit_exact(self, rng, tmp_path):
        cfg = ConvNetConfig(levels=2, base_filters=3, use_batchnorm=True)
        params = init_convnet_parameters(cfg, seed=9)
        # snap to f32 so the on-disk narrowing is lossless
        for k in params.tensors:
            params.tensors[k] = params.tensors[k].astype("<f4").astype(np.float64)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        loaded = load_checkpoint(p)
        assert loaded.config == cfg
        assert set(loaded.tensors) == set(params.tensors)
        for k in params.tensors:
            assert np.array_equal(loaded.tensors[k], params.tensors[k])

    def test_save_load_save_bytes_identical(self, rng, tmp_path):
        params = init_convnet_parameters(tiny_config(use_batchnorm=False), seed=10)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        cfg = ConvNetConfig(levels=2, base_filters=5, use_batchnorm=False)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, init_convnet_parameters(cfg, seed=0))
        raw = p.read_bytes()
        assert raw[:4] == b"IRNW"
        version, levels, base, bn, k = struct.unpack_from("<5I", raw, 4)
        assert (version, levels, base, bn, k) == (2, 2, 5, 0, 3)

    def test_bad_magic_rejected(self, tmp_path):
        params = init_convnet_parameters(tiny_config(), seed=0)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_bad_version_rejected(self, tmp_path):
        params = init_convnet_parameters(tiny_config(), seed=0)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_version_1_rejected_by_name(self, tmp_path):
        # version 1 also stored batch-norm running statistics
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, init_convnet_parameters(tiny_config(), seed=0))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 4, 1)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checkpoint version 1"):
            load_checkpoint(p)

    def test_other_kernel_size_rejected(self, tmp_path):
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, init_convnet_parameters(tiny_config(), seed=0))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 20, 5)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="kernel size 5"):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_convnet_parameters(tiny_config(), seed=0)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_wrong_tensor_shape_rejected_on_save(self, tmp_path):
        params = init_convnet_parameters(tiny_config(), seed=0)
        params.tensors["head_b"] = np.zeros(4)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "net.ckpt", params)

    def test_loaded_parameters_predict_identically(self, rng, tmp_path):
        cfg = tiny_config()
        params = init_convnet_parameters(cfg, seed=13)
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1)).astype("<f4").astype(np.float64) * 0.1
        for k in params.tensors:
            params.tensors[k] = params.tensors[k].astype("<f4").astype(np.float64)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        loaded = load_checkpoint(p)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        f1, _ = convnet_forward(params, fixed, moving)
        f2, _ = convnet_forward(loaded, fixed, moving)
        assert np.array_equal(f1.data, f2.data)
