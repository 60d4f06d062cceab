"""Model tests: convnet layers, end-to-end gradients, Adam, checkpoints."""

import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import defreg.model
from defreg.loss import LossConfig
from defreg.model import (
    AdamState,
    ConvNetConfig,
    ConvNetParameters,
    _block_forward,
    _bn_backward,
    _bn_normalize,
    _conv_backward,
    _conv_forward,
    _layer_plan,
    _maxpool_backward,
    _maxpool_forward,
    _nearest_pieces,
    _relu,
    _with_xhat,
    adam_step,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
    load_checkpoint,
    save_checkpoint,
)
from defreg.register import RegistrationConfig, register
from defreg.volume import Volume, save_volume
from defreg.warp import DisplacementField

from conftest import cli_peak_rss_kb, random_volume


def tiny_config(**overrides):
    kw = dict(levels=1, base_filters=2, use_batchnorm=True)
    kw.update(overrides)
    return ConvNetConfig(**kw)


def bn_affine(x, gamma, beta):
    """Batch norm's affine of the normalized activations ``x``, out of
    place: the closed form of the one ``_block_forward`` applies in place."""
    return gamma[:, None, None, None] * x + beta[:, None, None, None]


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


def brute_conv_adjoint(x, w, dout):
    """(dx, dw, db) of ``brute_conv`` for the output gradient ``dout``,
    scattered one output voxel at a time."""
    cout, cin, ks = w.shape[:3]
    nx, ny, nz = x.shape[1:]
    p = ks // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for o in range(cout):
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    g = dout[o, i, j, k]
                    dxp[:, i : i + ks, j : j + ks, k : k + ks] += g * w[o]
                    dw[o] += g * xp[:, i : i + ks, j : j + ks, k : k + ks]
    return dxp[:, p : p + nx, p : p + ny, p : p + nz], dw, dout.sum(axis=(1, 2, 3))


def upsample_reference(x):
    """Nearest-neighbour 2x up-sampling of a (C, X, Y, Z) array."""
    return np.repeat(np.repeat(np.repeat(x, 2, axis=1), 2, axis=2), 2, axis=3)


def _upsample_backward(dout):
    """The adjoint of ``upsample_reference``: each 2x2x2 block summed, the
    whole array at once."""
    c, nx, ny, nz = dout.shape
    return dout.reshape(c, nx // 2, 2, ny // 2, 2, nz // 2, 2).sum(axis=(2, 4, 6))


def group_grads(stacked, groups):
    """The per-group input gradients that the gradient of the stacked,
    explicitly up-sampled input of ``groups`` reduces to."""
    out, c0 = [], 0
    for a, up in groups:
        part = stacked[c0 : c0 + a.shape[0]]
        out.append(_upsample_backward(part) if up == 2 else part)
        c0 += a.shape[0]
    return out


def scatter_maxpool_backward(arg, dout):
    """The pool's gradient scattered into a zero window per output voxel,
    then transposed back to the input's layout."""
    c, nx, ny, nz = dout.shape[0], *(2 * n for n in dout.shape[1:])
    dwin = np.zeros((c, nx // 2, ny // 2, nz // 2, 8))
    np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
    dwin = dwin.reshape(c, nx // 2, ny // 2, nz // 2, 2, 2, 2)
    return dwin.transpose(0, 1, 6, 2, 5, 3, 4).reshape(c, nx, ny, nz)


# -- the tape implementation the structured forward/backward replaced, kept
# -- as the bit-exact reference for the block structure: a list of tagged
# -- records that the backward pass interprets in reverse.  It up-samples and
# -- concatenates explicitly, and calls the same convolution primitive on
# -- one whole input, which is tested on its own against brute_conv and
# -- brute_conv_adjoint.

def tape_forward(params, fixed, moving):
    cfg, t = params.config, params.tensors
    x = np.stack([fixed.data, moving.data])
    records, skips = [], []
    for l in range(cfg.levels):
        for conv in (1, 2):
            w, b = t[f"enc{l}_conv{conv}_w"], t[f"enc{l}_conv{conv}_b"]
            records.append(("conv", f"enc{l}_conv{conv}", [(x, 1)], w, True))
            x = _conv_forward([(x, 1)], w, b)
            mask = x > 0
            x = x * mask
            records.append(("relu", mask))
        skips.append(x)
        x, pool_cache = _maxpool_forward(x)
        records.append(("pool", pool_cache, l))
    for l in reversed(range(cfg.levels)):
        x = upsample_reference(x)
        records.append(("upsample",))
        split = x.shape[0]
        x = np.concatenate([x, skips[l]], axis=0)
        records.append(("concat", split, l))
        w, b = t[f"dec{l}_conv_w"], t.get(f"dec{l}_conv_b")
        records.append(("conv", f"dec{l}_conv", [(x, 1)], w, b is not None))
        x = _conv_forward([(x, 1)], w, b)
        if cfg.use_batchnorm:
            gamma, beta = t[f"dec{l}_bn_gamma"], t[f"dec{l}_bn_beta"]
            xhat, mu, inv = _bn_normalize(x)
            x = bn_affine(xhat, gamma, beta)
            records.append(("bn", f"dec{l}_bn", xhat, (mu, inv, gamma, beta)))
        mask = x > 0
        x = x * mask
        records.append(("relu", mask))
    out = _conv_forward([(x, 1)], t["head_w"], t["head_b"])
    records.append(("head", [(x, 1)], t["head_w"]))
    return np.moveaxis(out, 0, -1), {"records": records, "skip_grads": [None] * cfg.levels}


def tape_backward(cache, grad):
    """The tape's gradients.  The primitive writes each input gradient,
    masked by the input's > 0, over the input, so each pass hands it copies
    of the recorded inputs; the tape's own ReLU records mask again, which
    changes no bit."""

    def copies(groups):
        return [(a.copy(), up) for a, up in groups]

    grads = {}
    skip_grads = cache["skip_grads"]
    dx = np.moveaxis(grad, -1, 0)
    for rec in reversed(cache["records"]):
        kind = rec[0]
        if kind == "head":
            (dx,), grads["head_w"], grads["head_b"] = _conv_backward(copies(rec[1]), rec[2], dx)
        elif kind == "relu":
            dx = dx * rec[1]
        elif kind == "bn":
            dx, grads[rec[1] + "_gamma"], grads[rec[1] + "_beta"] = _bn_backward(*rec[2:], dx)
        elif kind == "conv":
            (dx,), grads[rec[1] + "_w"], db = _conv_backward(copies(rec[2]), rec[3], dx)
            if rec[4]:  # the conv has a bias
                grads[rec[1] + "_b"] = db
        elif kind == "concat":
            _, split, level = rec
            skip_grads[level] = dx[split:]
            dx = dx[:split]
        elif kind == "upsample":
            dx = _upsample_backward(dx)
        else:  # pool
            _, pool_cache, level = rec
            dx = scatter_maxpool_backward(pool_cache, dx)
            if skip_grads[level] is not None:
                dx = dx + skip_grads[level]
    return grads


def backward(cache, grad):
    """``convnet_backward`` of ``grad``, handed over in the cache as the
    registration loop hands it."""
    cache["grad"] = grad
    return convnet_backward(cache)


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


# -- the copy-based convolution that reading each tap in place replaced,
# -- kept as the reference: per slab and kernel tap, the window's shifted
# -- slice is copied into a contiguous (C_in, voxels) buffer, the per-tap
# -- half of im2col, and multiplied into the slab's columns of the output.
# -- Its slabs keep the primitive's earlier rule, the largest divisor of nx
# -- whose slab holds at most ``slab_voxels``, not ``warp._slab_planes``'
# -- even cut; the forward's and the input gradient's bits do not depend on
# -- the slab, and the weight gradient's sums move only in their last bits.

def copy_taps(groups, k, dims, slab_voxels):
    c = sum(a.shape[0] for a, _ in groups)
    h = k // 2
    nx, ny, nz = dims
    plane = ny * nz
    step = max(
        (d for d in range(1, nx + 1) if nx % d == 0 and d * plane <= slab_voxels), default=1
    )
    win = np.zeros((c, step + 2 * h, ny + 2 * h, nz + 2 * h))
    buf = np.empty((c, step, ny, nz))
    cols = buf.reshape(c, -1)
    for x0 in range(0, nx, step):
        lo, hi = max(x0 - h, 0), min(x0 + step + h, nx)
        win[:, : lo - x0 + h] = 0.0
        win[:, hi - x0 + h :] = 0.0
        inner = win[:, lo - x0 + h : hi - x0 + h, h : h + ny, h : h + nz]
        c0 = 0
        for a, up in groups:
            c1 = c0 + a.shape[0]
            for tx, fx in _nearest_pieces(lo, hi, up):
                for ty, fy in _nearest_pieces(0, ny, up):
                    for tz, fz in _nearest_pieces(0, nz, up):
                        np.copyto(inner[c0:c1, tx, ty, tz], a[:, fx, fy, fz])
            c0 = c1
        for dx, dy, dz in np.ndindex(k, k, k):
            np.copyto(buf, win[:, dx : dx + step, dy : dy + ny, dz : dz + nz])
            yield (dx, dy, dz), slice(x0 * plane, (x0 + step) * plane), cols


def copy_conv_forward(groups, w, b, slab_voxels):
    k = w.shape[-1]
    a, up = groups[0]
    dims = tuple(up * n for n in a.shape[1:])
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1))
    out = np.empty((w.shape[0], int(np.prod(dims))))
    out[...] = 0.0 if b is None else b[:, None]
    tmp = None
    for tap, part, cols in copy_taps(groups, k, dims, slab_voxels):
        tmp = np.matmul(w_taps[tap], cols, out=tmp)
        out[:, part] += tmp
    return out.reshape((-1,) + dims)


def copy_conv_backward(groups, w, dout, slab_voxels):
    k = w.shape[-1]
    dims = dout.shape[1:]
    dout2d = dout.reshape(dout.shape[0], -1)
    dw = np.zeros_like(w)
    for (dx, dy, dz), part, cols in copy_taps(groups, k, dims, slab_voxels):
        dw[:, :, dx, dy, dz] += dout2d[:, part] @ cols.T
    flipped = w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
    dx = copy_conv_forward([(dout, 1)], flipped, None, slab_voxels)
    return dx, dw, dout.sum(axis=(1, 2, 3))


# The conv primitive and the brute-force loops add the same float64
# products in different orders.  On these standard-normal inputs the values
# are O(10) and the rounding differences O(1e-14), so 1e-10 is a wide margin
# that still catches a wrong tap, channel or flip, each an O(1) error.
CONV_ATOL = 1e-10


def check_conv_in_slabs(monkeypatch, x, w, b, dout):
    """``_conv_forward`` against ``brute_conv`` and ``_conv_backward``
    against ``brute_conv_adjoint``, its input gradient masked by x > 0, with
    the x-planes taken one per slab, two per slab and all in one.  The
    backward writes over its input, so it is given a copy."""
    plane = x.shape[2] * x.shape[3]
    want_out = brute_conv(x, w, b)
    want_dx, want_dw, want_db = brute_conv_adjoint(x, w, dout)
    want = (want_dx * (x > 0), want_dw, want_db)
    for slab in (plane, 2 * plane, 1 << 13):
        monkeypatch.setattr(defreg.model, "_SLAB_VOXELS", slab)
        out = _conv_forward([(x, 1)], w, b)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=CONV_ATOL)
        (dx,), dw, db = _conv_backward([(x.copy(), 1)], w, dout)
        got = (dx, dw, db)
        assert [g.shape for g in got] == [x.shape, w.shape, b.shape]
        for g, ref in zip(got, want):  # dx, dw, db
            np.testing.assert_allclose(g, ref, rtol=0, atol=CONV_ATOL)


def check_bn_against_reference(rng, shape):
    """The forward normalizes and applies its affine in its input's buffer
    and the backward writes over dout, by the same operations in the same
    order as this out-of-place, whole-array reference: equal to the bit.
    The affine and ReLU are checked as a block applies them, after an
    identity 1x1x1 convolution, which reproduces its input to the bit."""
    x = rng.standard_normal(shape) * 2.0 + 1.5
    x_in = x.copy()
    c = shape[0]
    gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
    dout = rng.standard_normal(x.shape)
    mu, var = x.mean(axis=(1, 2, 3)), x.var(axis=(1, 2, 3))
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu[:, None, None, None]) * inv[:, None, None, None]
    want_out = gamma[:, None, None, None] * xhat + beta[:, None, None, None]
    m = xhat[0].size
    mean_dy = dout.mean(axis=(1, 2, 3))[:, None, None, None]
    mean_dy_xhat = (dout * xhat).sum(axis=(1, 2, 3))[:, None, None, None] / m
    s = (gamma * inv)[:, None, None, None]
    want_dx = s * (dout - mean_dy - xhat * mean_dy_xhat)
    want_dgamma = (dout * xhat).sum(axis=(1, 2, 3))
    want_dbeta = dout.sum(axis=(1, 2, 3))
    got, mu_got, inv_got = _bn_normalize(x)
    assert got is x and np.array_equal(x, xhat)
    assert np.array_equal(mu_got, mu) and np.array_equal(inv_got, inv)
    dx, dgamma, dbeta = _bn_backward(x, (mu_got, inv_got, gamma, beta), dout)
    assert dx is dout and np.array_equal(dx, want_dx)
    assert np.array_equal(dgamma, want_dgamma)
    assert np.array_equal(dbeta, want_dbeta)
    eye = np.eye(c).reshape(c, c, 1, 1, 1)
    out, (_, _, _, bn_cache) = _block_forward([(x_in, 1)], eye, None, (None, None, gamma, beta))
    assert out.tobytes() == (want_out * (want_out > 0)).tobytes()
    for got, want in zip(bn_cache, (mu, inv, gamma, beta), strict=True):
        assert np.array_equal(got, want)


class TestLayerPrimitives:
    def test_conv3_matches_brute_force(self, rng, monkeypatch):
        x = rng.standard_normal((3, 4, 5, 4))
        w = rng.standard_normal((2, 3, 3, 3, 3))
        b = rng.standard_normal(2)
        dout = rng.standard_normal((2, 4, 5, 4))
        check_conv_in_slabs(monkeypatch, x, w, b, dout)
        # nx = 5 in 2-plane slabs leaves a 1-plane last slab
        x = rng.standard_normal((3, 5, 4, 3))
        dout = rng.standard_normal((2, 5, 4, 3))
        check_conv_in_slabs(monkeypatch, x, w, b, dout)

    def test_conv1_matches_brute_force_without_padding(self, rng, monkeypatch):
        x = rng.standard_normal((3, 4, 5, 4))
        w = rng.standard_normal((2, 3, 1, 1, 1))
        b = rng.standard_normal(2)
        # a channels-last view, like the head's gradient from the loss
        dout = np.moveaxis(rng.standard_normal((4, 5, 4, 2)), -1, 0)
        check_conv_in_slabs(monkeypatch, x, w, b, dout)

    @pytest.mark.parametrize("k", [1, 3])
    def test_groups_equal_one_stacked_input_bitwise(self, rng, monkeypatch, k):
        # an up-sampled group stacked over a full-resolution one reads the
        # same values as their explicit up-sampling and concatenation, so
        # the products are the same to the bit; 1- and 3-plane slabs start
        # at odd x, where a tap's up-sampling residue flips.  The input
        # gradients are masked by each input's > 0, which is constant over
        # an up-sampled cell, and written over copies of the inputs
        coarse = rng.standard_normal((2, 3, 2, 4))
        skip = rng.standard_normal((3, 6, 4, 8))
        stacked = np.concatenate([upsample_reference(coarse), skip])
        w = rng.standard_normal((4, 5, k, k, k))
        b = rng.standard_normal(4)
        dout = rng.standard_normal((4, 6, 4, 8))
        plane = 4 * 8
        for slab in (plane, 2 * plane, 3 * plane, 1 << 13):
            monkeypatch.setattr(defreg.model, "_SLAB_VOXELS", slab)
            want = _conv_forward([(stacked, 1)], w, b)
            assert np.array_equal(_conv_forward([(coarse, 2), (skip, 1)], w, b), want)
            groups = [(coarse, 2), (skip, 1)]
            dxs, dw, db = _conv_backward([(a.copy(), up) for a, up in groups], w, dout)
            (want_dx,), want_dw, want_db = _conv_backward([(stacked.copy(), 1)], w, dout)
            want = (*group_grads(want_dx, groups), want_dw, want_db)
            for g, ref in zip((*dxs, dw, db), want, strict=True):
                assert np.array_equal(g, ref)

    @pytest.mark.parametrize("planes", [1, 2, 3, None])  # None: the default slab
    @pytest.mark.parametrize("n", [6, 12, 24, 48])
    def test_group_input_gradients_equal_stacked_reference(self, rng, monkeypatch, n, planes):
        # dec0's shape at n^3: 16 up-sampled channels over an 8-channel
        # skip.  Each group's gradient is the stacked input's gradient, the
        # up-sampled group's summed over its 2x2x2 cells by the whole-array
        # reference, to the bit; 1- and 3-plane slabs start at odd x, where
        # a pair of fine planes spans two slabs
        coarse = rng.standard_normal((16,) + (n // 2,) * 3)
        skip = rng.standard_normal((8,) + (n,) * 3)
        groups = [(coarse, 2), (skip, 1)]
        stacked = np.concatenate([upsample_reference(coarse), skip])
        w = rng.standard_normal((8, 24, 3, 3, 3))
        dout = rng.standard_normal((8,) + (n,) * 3)
        if planes is not None:
            monkeypatch.setattr(defreg.model, "_SLAB_VOXELS", planes * n * n)
        (want,), _, _ = _conv_backward([(stacked, 1)], w, dout)
        dxs, _, _ = _conv_backward(groups, w, dout)
        assert [dx.shape for dx in dxs] == [coarse.shape, skip.shape]
        for dx, ref in zip(dxs, group_grads(want, groups)):
            assert np.array_equal(dx, ref)

    @pytest.mark.parametrize("planes", [1, 2, 3, None])  # None: the default slab
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "dims, up",
        [
            ((5, 4, 6), False),
            ((6, 4, 8), True),  # 1- and 3-plane slabs start at odd x
            ((6, 2, 2), True),
            ((4, 1, 5), False),
            ((3, 6, 1), False),
            ((4, 2, 6), False),
            ((5, 3, 2), False),
            ((2, 1, 2), False),
        ],
    )
    def test_equals_copy_reference(self, rng, monkeypatch, dims, up, k, planes):
        # the same taps in the same order, each the same BLAS dot over
        # C_in, so the forward and the input gradient, masked by each
        # input's > 0 (the backward is given copies, which it writes
        # over), are equal to the bit;
        # the weight gradient sums over the padded grid's voxels, whose
        # extra columns are zero, so only its last bits may move.  With ny
        # or nz of 1 or 2 the dropped columns read the window's tail.  (A
        # slab of one output voxel, which no network level has, would make
        # the reference's matmul a BLAS matrix-vector product instead.)
        groups = [(rng.standard_normal((3,) + dims), 1)]
        if up:
            coarse = rng.standard_normal((2,) + tuple(n // 2 for n in dims))
            groups.insert(0, (coarse, 2))
        cin = sum(a.shape[0] for a, _ in groups)
        w = rng.standard_normal((4, cin, k, k, k))
        b = rng.standard_normal(4)
        dout = rng.standard_normal((4,) + dims)
        slab = defreg.model._SLAB_VOXELS if planes is None else planes * dims[1] * dims[2]
        monkeypatch.setattr(defreg.model, "_SLAB_VOXELS", slab)
        assert np.array_equal(_conv_forward(groups, w, b), copy_conv_forward(groups, w, b, slab))
        dxs, dw, db = _conv_backward([(a.copy(), up) for a, up in groups], w, dout)
        want_dx, want_dw, want_db = copy_conv_backward(groups, w, dout, slab)
        for dx, want, (a, _) in zip(dxs, group_grads(want_dx, groups), groups, strict=True):
            assert np.array_equal(dx, want * (a > 0))
        assert np.array_equal(db, want_db)
        assert np.abs(dw - want_dw).max() <= 1e-13 * np.abs(want_dw).max()

    def test_input_gradients_overwrite_the_inputs_masked_by_their_relu(self, rng):
        # each group's input gradient is written over the group's own
        # array, up-sampled or not, and multiplied by the ReLU mask of the
        # activation it overwrites: 0 where the input was <= 0 or NaN, and
        # the unmasked gradient, to the bit, elsewhere
        coarse = rng.standard_normal((2, 3, 2, 4))
        skip = rng.standard_normal((3, 6, 4, 8))
        coarse[0, 1, 0, :3] = [np.nan, -0.0, np.inf]
        skip[1, 2, 1, :4] = [np.nan, -0.0, 0.0, -np.inf]
        groups = [(coarse, 2), (skip, 1)]
        inputs = [a.copy() for a, _ in groups]
        w = rng.standard_normal((4, 5, 3, 3, 3))
        dout = rng.standard_normal((4, 6, 4, 8))
        with np.errstate(invalid="ignore"):  # the weight gradients read inf and NaN
            want_dx, _, _ = copy_conv_backward(groups, w, dout, defreg.model._SLAB_VOXELS)
            dxs, _, _ = _conv_backward(groups, w, dout)
        for dx, (a, _), x, want in zip(dxs, groups, inputs, group_grads(want_dx, groups),
                                       strict=True):
            assert dx is a
            live = x > 0
            assert (~live).any() and live.any()
            assert np.array_equal(dx[live], want[live])
            assert not dx[~live].any()

    def test_wide_forward_slab_is_cut_to_the_byte_bound_bitwise(self, rng, monkeypatch):
        # dec1's shape at 24^3: 32 up-sampled channels over a 16-channel
        # skip, 16 out.  Its window and grids at _SLAB_VOXELS's 3 planes
        # exceed _SLAB_BYTES, so the forward takes 1-plane slabs, and so does
        # the input gradient (48 channels out); the weight gradient keeps 3.
        # The forward and the input gradient are equal to the bit either way
        # (the backward writes over copies of the inputs)
        coarse, skip = rng.standard_normal((32, 12, 12, 12)), rng.standard_normal((16, 24, 24, 24))
        groups = [(coarse, 2), (skip, 1)]
        w = rng.standard_normal((16, 48, 3, 3, 3))
        dout = rng.standard_normal((16, 24, 24, 24))
        real_taps, steps = defreg.model._taps, []

        def taps(groups, k, dims, step):
            steps.append(step)
            return real_taps(groups, k, dims, step)

        monkeypatch.setattr(defreg.model, "_taps", taps)
        got = []
        for budget in (defreg.model._SLAB_BYTES, 1 << 30):
            monkeypatch.setattr(defreg.model, "_SLAB_BYTES", budget)
            out = _conv_forward(groups, w)
            dxs, dw, _ = _conv_backward([(a.copy(), up) for a, up in groups], w, dout)
            got.append((out, *dxs, dw))
        assert steps == [1, 3, 1, 3, 3, 3]  # forward, weight gradient, input gradient
        for a, b in zip(*got, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "dims, planes",
        [
            # the default network's levels at 48^3 and at 240x240x160
            ((48, 48, 48), 1),
            ((24, 24, 24), 3),
            ((12, 12, 12), 12),
            ((6, 6, 6), 6),
            ((240, 240, 160), 1),
            ((120, 120, 80), 1),
            ((60, 60, 40), 1),
            ((30, 30, 20), 3),
            # an even cut, 5, 5 and 4, where a divisor of 14 would take 2
            ((14, 18, 18), 5),
        ],
    )
    def test_weight_gradient_cut(self, monkeypatch, dims, planes):
        # the weight gradient's sums run over the slabs, so its bits depend
        # on their cut, _SLAB_VOXELS's alone, which these pin
        steps = []

        def taps(groups, k, dims, step):
            steps.append(step)
            return iter(())

        monkeypatch.setattr(defreg.model, "_taps", taps)
        dout = np.broadcast_to(0.0, (1,) + dims)  # read only for its shape
        defreg.model._conv_weight_grad([(dout, 1)], np.zeros((1, 1, 3, 3, 3)), dout)
        assert steps == [planes]

    def test_short_last_slab_computes_only_its_own_planes(self, rng, monkeypatch):
        # at 14x18x18 the forward and the weight gradient cut 5, 5 and 4
        # planes: each tap's view spans the slab's own planes of the padded
        # (Q, R) = (20, 20) grid, so the last slab's is 4 planes wide, not 5
        real_taps, widths = defreg.model._taps, []

        def taps(groups, k, dims, step):
            for x0, views in real_taps(groups, k, dims, step):
                widths.append({view.shape[1] for _, view in views})
                yield x0, views

        monkeypatch.setattr(defreg.model, "_taps", taps)
        x = rng.standard_normal((2, 14, 18, 18))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        _conv_forward([(x, 1)], w)
        defreg.model._conv_weight_grad([(x, 1)], w, rng.standard_normal((3, 14, 18, 18)))
        qr = 20 * 20
        assert widths == [{5 * qr}, {5 * qr}, {4 * qr}] * 2  # forward, weight gradient

    @pytest.mark.parametrize("n", [32, 64])
    def test_scratch_is_slab_sized(self, rng, n):
        # a 24 -> 8 channel 3x3x3 convolution, as dec0's; what the call
        # allocates beyond its outputs is its slab buffers, within 10%: the
        # input window (C, step+2, Q, R) plus its tail, and two (C, step, Q, R)
        # grids, the output and a tap's product (the weight gradient: one,
        # the output gradient's slab).  The input gradient, written over x,
        # adds its masked write: one bool y-z plane of x's channels for the
        # ReLU mask, and the buffers of numpy's buffered iteration, one of
        # np.getbufsize() float64 elements for each of the product's three
        # strided or cast operands.  They grow with a y-z plane, not with
        # the volume.
        x = rng.standard_normal((24, n, n, n))
        w = rng.standard_normal((8, 24, 3, 3, 3))
        dout = rng.standard_normal((8, n, n, n))
        step = defreg.model._slab_planes(n, n * n, defreg.model._SLAB_VOXELS)
        q = n + 2
        grid = 8 * step * q * q

        def window(c):
            return 8 * c * ((step + 2) * q * q + 2 * q + 2)

        want = {
            "forward": window(24) + 2 * 8 * grid,
            # the weight gradient is taken first, then the input gradient
            "backward": max(
                window(8) + 2 * 24 * grid + 24 * n * n + 3 * 8 * np.getbufsize(),
                window(24) + 8 * grid,
            ),
        }

        def backward():
            (dx,), dw, db = _conv_backward([(x, 1)], w, dout)
            assert dx is x
            return dw, db

        for name, call in (
            ("forward", lambda: _conv_forward([(x, 1)], w)),
            ("backward", backward),
        ):
            tracemalloc.start()
            try:
                outs = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outs = outs if isinstance(outs, tuple) else (outs,)
            scratch = peak - sum(a.nbytes for a in outs)
            print(f"{name} at {n}^3: scratch {scratch / 2**20:.2f} MiB, "
                  f"slab buffers {want[name] / 2**20:.2f} MiB")
            assert scratch <= 1.1 * want[name]

    def test_maxpool_blockwise_max(self, rng):
        x = rng.standard_normal((2, 4, 6, 4))
        out, _ = _maxpool_forward(x)
        want = x.reshape(2, 2, 2, 3, 2, 2, 2).max(axis=(2, 4, 6))
        np.testing.assert_array_equal(out, want)

    def test_maxpool_tie_routes_to_lowest_linear_index(self):
        # all-equal window: gradient must land on the (0,0,0) corner
        x = np.ones((1, 2, 2, 2))
        _, cache = _maxpool_forward(x)
        back = _maxpool_backward(cache, np.full((1, 1, 1, 1), 5.0), np.zeros(x.shape))
        want = np.zeros((1, 2, 2, 2))
        want[0, 0, 0, 0] = 5.0
        np.testing.assert_array_equal(back, want)

    def test_maxpool_two_way_tie_prefers_smaller_index(self):
        # max duplicated at (1,0,0) [linear 1] and (0,1,0) [linear 2]
        x = np.zeros((1, 2, 2, 2))
        x[0, 1, 0, 0] = 9.0
        x[0, 0, 1, 0] = 9.0
        _, cache = _maxpool_forward(x)
        back = _maxpool_backward(cache, np.ones((1, 1, 1, 1)), np.zeros(x.shape))
        assert back[0, 1, 0, 0] == 1.0
        assert back[0, 0, 1, 0] == 0.0

    def test_maxpool_backward_adds_in_place_bitwise(self, rng):
        # integer inputs tie within most windows, where argmax takes the
        # lowest linear index; the pool's gradient is added into the skip
        # gradient itself, as a zero-window scatter plus that gradient
        x = rng.integers(0, 3, size=(3, 4, 6, 8)).astype(np.float64)
        out, cache = _maxpool_forward(x)
        win = x.reshape(3, 2, 2, 3, 2, 4, 2)
        assert ((win == out[:, :, None, :, None, :, None]).sum(axis=(2, 4, 6)) > 1).mean() > 0.5
        dout = rng.standard_normal(out.shape)
        skip = rng.standard_normal(x.shape)
        want = scatter_maxpool_backward(cache, dout) + skip
        back = _maxpool_backward(cache, dout, skip)
        assert back is skip
        assert np.array_equal(back, want)

    def test_maxpool_backward_refuses_a_gradient_it_cannot_view(self, rng):
        # a reshape of a strided array may copy, and the add would be lost
        x = rng.standard_normal((2, 4, 4, 4))
        out, cache = _maxpool_forward(x)
        strided = np.zeros((2, 4, 4, 8))[..., ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            _maxpool_backward(cache, np.ones(out.shape), strided)

    def test_maxpool_backward_one_position_per_window(self, rng):
        x = rng.standard_normal((3, 4, 4, 6))
        _, cache = _maxpool_forward(x)
        assert cache.dtype == np.int8  # a window's 8 cells
        dout = rng.standard_normal((3, 2, 2, 3))
        back = _maxpool_backward(cache, dout, np.zeros(x.shape))
        windows = back.reshape(3, 2, 2, 2, 2, 3, 2)
        per_window = windows.transpose(0, 1, 3, 5, 2, 4, 6).reshape(3, 2, 2, 3, 8)
        np.testing.assert_allclose(per_window.sum(axis=-1), dout, atol=1e-12)
        assert np.all(np.count_nonzero(per_window, axis=-1) <= 1)

    def test_upsample_repeats_nearest(self):
        # a 1x1x1 identity kernel passes the up-sampled group through
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        up = _conv_forward([(x, 2)], np.ones((1, 1, 1, 1, 1)))
        assert up.shape == (1, 4, 4, 4)
        np.testing.assert_array_equal(up, upsample_reference(x))
        np.testing.assert_array_equal(up[0, :2, :2, :2], np.full((2, 2, 2), x[0, 0, 0, 0]))
        np.testing.assert_array_equal(up[0, 2:, 2:, 2:], np.full((2, 2, 2), x[0, 1, 1, 1]))

    def test_upsample_backward_is_adjoint(self, rng):
        x = rng.standard_normal((2, 3, 2, 4))
        y = rng.standard_normal((2, 6, 4, 8))
        lhs = float((upsample_reference(x) * y).sum())
        rhs = float((x * _upsample_backward(y)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_bn_in_place_equals_reference_bitwise(self, rng):
        check_bn_against_reference(rng, (3, 4, 6, 4))

    def test_bn_equals_reference_bitwise_at_48_cubed(self, rng):
        # a 48^3 channel is reduced in many pairwise-summation blocks: the
        # per-channel variance and dout * xhat sums still equal the
        # whole-array reductions
        check_bn_against_reference(rng, (2, 48, 48, 48))

    def test_normalized_activations_again_per_channel_bitwise(self, rng):
        # every decoder block keeps only its batch-norm statistics and has
        # its normalized activations computed again into one array per
        # channel: each equals a fresh convolution and normalization of the
        # block's inputs to the bit, and the batch-norm backward reads the
        # list as it reads the array
        params = init_convnet_parameters(ConvNetConfig(levels=3, base_filters=2), seed=5)
        dims = (8, 16, 24)
        _, cache = convnet_forward(params, random_volume(rng, dims), random_volume(rng, dims))
        assert len(cache["dec"]) == 3
        for groups, w, b, bn_cache in cache["dec"]:
            want, mu, inv = _bn_normalize(_conv_forward(groups, w))
            assert mu.tobytes() == bn_cache[0].tobytes()
            assert inv.tobytes() == bn_cache[1].tobytes()
            again, got_cache = _with_xhat((groups, w, b, bn_cache))[3]
            assert isinstance(again, list) and got_cache is bn_cache
            for a, c in zip(again, want, strict=True):
                assert a.tobytes() == c.tobytes()
            dout = rng.standard_normal(want.shape)
            ref = _bn_backward(want, bn_cache, dout.copy())
            for g, r in zip(_bn_backward(again, bn_cache, dout.copy()), ref, strict=True):
                assert np.array_equal(g, r)

    def test_derived_relu_mask_equals_forward_mask_bitwise(self, rng):
        # the backward pass takes a block's ReLU mask as output > 0; the
        # forward masked with input > 0.  They agree on signed zeros, NaN,
        # infinities and subnormals, after a batch-norm affine too
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                            3 * tiny, -3 * tiny, np.finfo(np.float64).tiny, 1.0, -1.0])
        x = rng.choice(special, size=(3, 4, 6, 4))
        gamma, beta = np.array([1.0, -0.5, 2.0]), np.array([0.0, -0.0, tiny])
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, as in the forward
            for pre in (x, bn_affine(x, gamma, beta)):
                mask = pre > 0
                out = _relu(pre.copy())
                assert out.tobytes() == (pre * mask).tobytes()
                assert np.array_equal(out > 0, mask)

    def test_bn_normalizes_with_batch_statistics(self, rng):
        x = rng.standard_normal((3, 4, 4, 4)) * 2.0 + 1.5
        gamma = np.array([1.0, 2.0, 0.5])
        beta = np.array([0.0, 1.0, -1.0])
        out = bn_affine(_bn_normalize(x.copy())[0], gamma, beta)
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), beta, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=(1, 2, 3)), gamma, rtol=1e-3)
        # batch statistics absorb an affine change of the input (up to eps)
        shifted = bn_affine(_bn_normalize(3.0 * x - 7.0)[0], gamma, beta)
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

    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_every_tensor_of_the_plan_moves_the_field(self, rng, use_batchnorm):
        # a tensor the field cannot depend on, such as a conv bias that
        # batch norm's mean subtraction cancels, would only be stepped on
        # rounding noise and checkpointed
        cfg = ConvNetConfig(levels=2, base_filters=2, use_batchnorm=use_batchnorm)
        params = init_convnet_parameters(cfg, seed=4)
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1)) * 0.1
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        base, _ = convnet_forward(params, fixed, moving)
        for name, shape in _layer_plan(cfg):
            nudged = dict(params.tensors)
            nudged[name] = nudged[name] + 0.1 * rng.standard_normal(shape)
            moved, _ = convnet_forward(ConvNetParameters(cfg, nudged), fixed, moving)
            assert np.abs(moved.data - base.data).max() > 1e-8, name

    def test_field_is_the_heads_output_uncopied(self, rng, monkeypatch):
        # the head writes its channels into the field's (nx, ny, nz, 3)
        # layout, read-only, so the field shares it and copies nothing
        outs = []
        real = defreg.model._conv_forward

        def spy(*args, **kwargs):
            outs.append(real(*args, **kwargs))
            return outs[-1]

        monkeypatch.setattr(defreg.model, "_conv_forward", spy)
        params = init_convnet_parameters(tiny_config(levels=2), seed=2)
        params.tensors["head_w"] = rng.standard_normal((3, 2, 1, 1, 1))
        field, _ = convnet_forward(
            params, random_volume(rng, (8, 8, 16)), random_volume(rng, (8, 8, 16))
        )
        head = outs[-1]  # the head is the pass's last convolution
        assert head.shape == (3, 8, 8, 16)
        assert np.shares_memory(field.data, head)
        assert np.array_equal(field.data, np.moveaxis(head, 0, -1))
        assert field.data.flags.c_contiguous and not field.data.flags.writeable

    def test_overflowing_pass_returns_a_non_finite_field(self, rng):
        # the field is not scanned: weights that overflow the pass give a
        # non-finite field, never None, and its loss tells the caller
        params = init_convnet_parameters(tiny_config(), seed=0)
        params.tensors["head_w"] = np.full(params.tensors["head_w"].shape, 1e308)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        with pytest.warns(RuntimeWarning, match="overflow"):
            field, _ = convnet_forward(params, fixed, moving)
        assert isinstance(field, DisplacementField) and field.dims == (8, 8, 8)
        assert np.isinf(field.data).any()
        assert not field.data.flags.writeable

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
        backward(cache, rng.standard_normal((8, 8, 8, 3)))
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
        want_field, tape = tape_forward(params, fixed, moving)
        for _ in range(2):  # a cache serves one backward pass: a forward for each
            field, cache = convnet_forward(params, fixed, moving)
            assert np.array_equal(field.data, want_field)
            probe = rng.standard_normal(dims + (3,))
            grads = backward(cache, probe)
            want = tape_backward(tape, probe)
            assert list(grads) == list(want)
            for k in want:
                assert np.array_equal(grads[k], want[k]), k

    def test_backward_leaves_nothing_alive(self, rng):
        # the backward pass allocates nothing that outlives it: once its
        # gradients are dropped, the memory traced since the call began is
        # back where it was (the cache it consumes was allocated before)
        params = init_convnet_parameters(ConvNetConfig(levels=2, base_filters=4), seed=3)
        dims = (16, 16, 16)
        _, cache = convnet_forward(params, random_volume(rng, dims), random_volume(rng, dims))
        grad = rng.standard_normal(dims + (3,))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = backward(cache, grad)
            del grads
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 8 * 16**3  # less than one volume of float64

    def test_backward_releases_the_cache(self, rng):
        # the cache is the only holder of the parameters and the image pair
        # it refers to, so consuming it gives back about its whole size
        dims = (16, 16, 16)
        grad = rng.standard_normal(dims + (3,))
        tracemalloc.start()
        try:
            params = init_convnet_parameters(ConvNetConfig(levels=2, base_filters=4), seed=3)
            _, cache = convnet_forward(params, random_volume(rng, dims), random_volume(rng, dims))
            del params
            held = cache_bytes(cache)
            before = tracemalloc.get_traced_memory()[0]
            grads = backward(cache, grad)
            del grads
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed >= 0.9 * held

    def test_consumed_cache_is_refused(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=4)
        _, cache = convnet_forward(
            params, random_volume(rng, (8, 8, 8)), random_volume(rng, (8, 8, 8))
        )
        with pytest.raises(ValueError, match="does not match"):
            backward(cache, np.zeros((8, 8, 10, 3)))  # refused before consuming
        backward(cache, np.zeros((8, 8, 8, 3)))
        with pytest.raises(ValueError, match="consumed"):
            backward(cache, np.zeros((8, 8, 8, 3)))

    def test_zero_grad_gives_zero_grads(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=4)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        _, cache = convnet_forward(params, fixed, moving)
        grads = backward(cache, np.zeros((8, 8, 8, 3)))
        assert set(grads) == set(params.tensors)
        for g in grads.values():
            assert not g.any()

    def test_grad_dims_mismatch_rejected(self, rng):
        params = init_convnet_parameters(tiny_config(), seed=4)
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        _, cache = convnet_forward(params, fixed, moving)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((8, 8, 10, 3)))

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
        grads = backward(cache, probe)

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


def cache_bytes(obj, seen=None):
    """Bytes of the distinct base buffers that ``obj``'s arrays view,
    walking dicts, lists and tuples; each buffer counts once."""
    seen = {} if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        seen[id(obj)] = obj.nbytes
    elif isinstance(obj, dict):
        for v in obj.values():
            cache_bytes(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            cache_bytes(v, seen)
    return sum(seen.values())


def noise_pair(n, seed=31):
    rng = np.random.default_rng(seed)
    return [
        Volume(data=rng.standard_normal((n, n, n), dtype=np.float32).astype(np.float64))
        for _ in range(2)
    ]


class TestConvNetMemory:
    """The default network at 48^3 and 96^3.  Each activation is cached
    once: a block keeps its unpadded input, and a decoder block refers to
    the coarser output and the encoder skip it reads.  dec0 keeps no
    activation, no encoder level keeps its conv1 output, and no decoder
    block keeps its normalized activations, only each channel's batch-norm
    statistics: the backward pass computes them again from inputs the
    cache holds anyway.  No ReLU mask is kept or carried: each is its
    output's > 0, read as the input gradient is written over the output.
    The backward pass makes no whole-activation temporaries, writes each
    input gradient over the activation it consumes, releases each cache
    entry once it has taken its gradients, and frees the loss gradient
    after the head, before any normalized activations are computed again,
    one array per channel; the last iterate's loss runs with no cache
    alive, and the loop holds no earlier iterate's field beside a pass.
    Each bound is a few percent above the reading: with dec1's and dec2's
    normalized activations cached the cache was 161.6 B/voxel, the traced
    peak 34.4 MiB and the 96^3 peak RSS 304 MB."""

    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_cache_keeps_no_dec0_or_conv1_activation(self, monkeypatch, use_batchnorm):
        # each convolution's output buffer, probed by weakref: with the
        # cache alive, only the encoder skips (conv2's outputs) and the
        # coarser decoder levels' activations are
        fixed, moving = noise_pair(16)
        params = init_convnet_parameters(ConvNetConfig(use_batchnorm=use_batchnorm), seed=0)
        names = {id(w): k[: -len("_w")] for k, w in params.tensors.items() if k.endswith("_w")}
        real = defreg.model._conv_forward
        outputs = {}

        def spy(groups, w, b=None, out=None):
            x = real(groups, w, b, out)
            outputs[names[id(w)]] = weakref.ref(x)
            return x

        monkeypatch.setattr(defreg.model, "_conv_forward", spy)
        _, cache = convnet_forward(params, fixed, moving)
        kept = sorted(k for k, ref in outputs.items() if ref() is not None)
        assert kept == ["dec1_conv", "dec2_conv", "enc0_conv2", "enc1_conv2", "enc2_conv2"]

    @pytest.mark.parametrize("use_batchnorm", [True, False])
    def test_decoder_cache_keeps_no_normalized_activations(self, use_batchnorm):
        # beside the input groups it refers to and its weights, a decoder
        # block keeps only per-channel vectors: batch norm's mean, scale,
        # gamma and beta, or the convolution's bias
        fixed, moving = noise_pair(16)
        params = init_convnet_parameters(ConvNetConfig(use_batchnorm=use_batchnorm), seed=0)
        _, cache = convnet_forward(params, fixed, moving)
        assert len(cache["dec"]) == 3
        for groups, w, b, bn_cache in cache["dec"]:
            assert (bn_cache is None) != use_batchnorm and (b is None) == use_batchnorm
            for v in [b] if bn_cache is None else bn_cache:
                assert v.shape == w.shape[:1]

    def test_cache_holds_each_activation_once(self):
        fixed, moving = noise_pair(48)
        params = init_convnet_parameters(ConvNetConfig(), seed=0)
        _, cache = convnet_forward(params, fixed, moving)
        per_voxel = cache_bytes(cache) / 48**3
        print(f"convnet cache: {per_voxel:.0f} B/voxel at 48^3")
        assert per_voxel <= 147  # 141.6 measured

    def test_registration_traced_peak(self):
        fixed, moving = noise_pair(48)
        cfg = RegistrationConfig(
            mode="convnet", iterations_per_level=1, loss=LossConfig(reg_weight=0.05)
        )
        tracemalloc.start()
        try:
            register(fixed, moving, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"convnet registration: traced peak {peak / 2**20:.1f} MiB at 48^3")
        assert peak <= 34 * 2**20  # 32.3 MiB measured

    def test_decoder_backward_allocates_no_activation(self, monkeypatch):
        # each decoder block's backward takes batch norm's sums one channel
        # at a time and writes its input gradients over its inputs, so what
        # it allocates above its entry stays below one of dec0's 8-channel
        # activations.  (The spy holds the block's arguments, so nothing
        # the block frees is counted against what it allocates.)
        fixed, moving = noise_pair(48)
        params = init_convnet_parameters(ConvNetConfig(), seed=0)
        params.tensors["head_w"] = np.full((3, 8, 1, 1, 1), 0.01)
        _, cache = convnet_forward(params, fixed, moving)
        grad = np.random.default_rng(5).standard_normal((48, 48, 48, 3))
        real = defreg.model._block_backward
        above = {}

        def spy(block, dout, grads, conv, *args, **kwargs):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            out = real(block, dout, grads, conv, *args, **kwargs)
            above[conv] = tracemalloc.get_traced_memory()[1] - entry
            return out

        monkeypatch.setattr(defreg.model, "_block_backward", spy)
        tracemalloc.start()
        try:
            backward(cache, grad)
        finally:
            tracemalloc.stop()
        activation = 8 * 48**3 * 8
        dec = {k: v for k, v in above.items() if k.startswith("dec")}
        print("above entry, MiB:", {k: round(v / 2**20, 2) for k, v in dec.items()})
        assert sorted(dec) == ["dec0_conv", "dec1_conv", "dec2_conv"]
        assert max(dec.values()) < activation

    def test_96_cubed_cli_peak_rss(self, tmp_path):
        # in a fresh process, as criterion 10 measures the full-size run
        for name, vol in zip(("fixed", "moving"), noise_pair(96)):
            save_volume(vol, tmp_path / f"{name}.vol")
        peak_kb = cli_peak_rss_kb(
            ["--threads", "1", "register",
             "--fixed", str(tmp_path / "fixed.vol"),
             "--moving", str(tmp_path / "moving.vol"),
             "--out-field", str(tmp_path / "out.dfield"),
             "--mode", "convnet", "--iters", "1"],
            timeout=300,
        )
        print(f"convnet registration: peak RSS {peak_kb / 1024:.0f} MB at 96^3")
        assert peak_kb <= 282 * 1024  # 273 MB measured


def closed_form_adam(params, grads, state):
    """Adam with a fresh array per step; the bit-exact reference."""
    t = state.t + 1
    out, m, v = dict(params), dict(state.m), dict(state.v)
    for k, g in grads.items():
        m[k] = 0.9 * state.m[k] + (1.0 - 0.9) * g
        v[k] = 0.999 * state.v[k] + (1.0 - 0.999) * (g * g)
        mhat = m[k] / (1.0 - 0.9**t)
        vhat = v[k] / (1.0 - 0.999**t)
        out[k] = params[k] - state.alpha * mhat / (np.sqrt(vhat) + 1e-8)
    return out, m, v


def whole_array_adam(params, grads, state):
    """The earlier ``adam_step``, each operation over a whole array, kept as
    the bit-exact reference: (new parameters, m, v), on copies of the
    moments."""
    t = state.t + 1
    out, ms, vs = {}, {}, {}
    for k, g in grads.items():
        m, v = state.m[k].copy(), state.v[k].copy()
        tmp = np.empty_like(m)
        m *= 0.9
        m += np.multiply(g, 1.0 - 0.9, out=tmp)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - 0.999
        v *= 0.999
        v += tmp
        den = np.divide(v, 1.0 - 0.999**t, out=tmp)
        np.sqrt(den, out=den)
        den += 1e-8
        mhat = m / (1.0 - 0.9**t)
        mhat *= state.alpha
        mhat /= den
        out[k] = np.subtract(params[k], mhat, out=mhat)
        ms[k], vs[k] = m, v
    return out, ms, vs


class TestAdam:
    @pytest.mark.parametrize(
        "shapes",
        [
            {"field": (48, 48, 48, 3)},  # 2 planes per chunk
            {"field": (80, 96, 80, 3)},  # one plane per chunk
            {k: p.shape for k, p in init_convnet_parameters(ConvNetConfig()).tensors.items()},
        ],
        ids=["field-48", "field-80x96x80", "convnet-default"],
    )
    def test_chunked_steps_equal_whole_array_reference_bitwise(self, rng, shapes):
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        state = AdamState.init(params, alpha=0.2)
        for _ in range(3):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            want, want_m, want_v = whole_array_adam(params, grads, state)
            params, state = adam_step(params, grads, state)
            for k in shapes:
                assert np.array_equal(params[k], want[k]), k
                assert np.array_equal(state.m[k], want_m[k]), k
                assert np.array_equal(state.v[k], want_v[k]), k

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
            kept = {k: params[k].copy() for k in params}
            want, want_m, want_v = closed_form_adam(params, grads, state)
            new_params, new_state = adam_step(params, grads, state)
            for k in params:
                assert np.array_equal(new_params[k], want[k])
                assert np.array_equal(new_state.m[k], want_m[k])
                assert np.array_equal(new_state.v[k], want_v[k])
                assert new_params[k].flags.c_contiguous
                # moments updated in place, parameters fresh, and the
                # caller's parameters untouched: an earlier iterate may
                # still hold them
                assert new_state.m[k] is state.m[k] and new_state.v[k] is state.v[k]
                assert not np.shares_memory(new_params[k], params[k])
                assert np.array_equal(params[k], kept[k])
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
        assert params["w"][0, 0] == 10.0  # the caller's parameters untouched
        assert new_state.m["w"] is state.m["w"]  # the moments updated in place

    def test_rejected_gradient_changes_no_moment(self):
        params = {"a": np.ones(3), "b": np.ones(2)}
        state = AdamState.init(params, alpha=1e-2)
        with pytest.raises(ValueError):
            adam_step(params, {"a": np.ones(3), "b": np.ones(3)}, state)
        assert not state.m["a"].any() and not state.v["a"].any()

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
        header = struct.unpack_from("<4I", raw, 4)
        assert header == (3, 2, 5, 0)  # version, levels, base filters, batch norm
        (count,) = struct.unpack_from("<I", raw, 20)
        assert count == len(_layer_plan(cfg))

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

    def test_version_2_rejected_by_name(self, tmp_path):
        # version 2 also stored the kernel size and the decoder conv biases
        # that batch norm cancels
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, init_convnet_parameters(tiny_config(), seed=0))
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 4, 2)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="checkpoint version 2"):
            load_checkpoint(p)

    def test_other_kernel_dims_rejected(self, tmp_path, monkeypatch):
        # the header holds no kernel size: a 5x5x5 kernel fails the
        # per-tensor dims check
        plan = _layer_plan

        def plan_5x5x5(cfg):
            return [(n, s[:2] + (5, 5, 5) if s[2:] == (3, 3, 3) else s) for n, s in plan(cfg)]

        p = tmp_path / "net.ckpt"
        with monkeypatch.context() as m:
            m.setattr(defreg.model, "_layer_plan", plan_5x5x5)
            save_checkpoint(p, init_convnet_parameters(tiny_config(), seed=0))
        with pytest.raises(
            ValueError, match=r"'enc0_conv1_w' has dims \(2, 2, 5, 5, 5\), expected \(2, 2, 3, 3, 3\)"
        ):
            load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_convnet_parameters(tiny_config(), seed=0)
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, params)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("cut", [0, 2, 6, 22, 24, 30, 60, -4, -1])
    def test_truncated_file_rejected_by_part(self, tmp_path, cut):
        cfg = tiny_config()
        p = tmp_path / "net.ckpt"
        save_checkpoint(p, init_convnet_parameters(cfg, seed=0))
        raw = p.read_bytes()
        keep = cut % len(raw)
        p.write_bytes(raw[:keep])
        # the part that the cut falls in: the 24-byte header, then each
        # tensor's ndim, dims and f32 values
        part, end = "the header", 24
        for name, shape in _layer_plan(cfg):
            if keep < end:
                break
            part, end = f"tensor {name!r}", end + 4 + 4 * len(shape) + 4 * int(np.prod(shape))
        with pytest.raises(ValueError, match=f"truncated in {part}"):
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
