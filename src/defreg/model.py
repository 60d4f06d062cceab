"""The convnet parameterization, Adam and network checkpoints.

A small 3D convolutional encoder/decoder predicts the displacement field
from the stacked image pair.  Forward and backward passes are written out by
hand on channels-first float64 arrays, so every parameter gradient can be
checked against finite differences.  (The freeform parameterization needs no
model: its parameter is the field itself.)

Also provides the bias-corrected Adam update that registration uses for
both parameterizations, and a binary checkpoint format for the network
weights.

Network layout (levels L, base filters F): the encoder applies, per level,
two 3x3x3 same-padded convolutions each followed by ReLU, then 2x max
pooling; filter counts double per level starting at F.  The decoder applies,
per level, nearest-neighbor 2x up-sampling, concatenation with the matching
encoder features, one 3x3x3 convolution, optional batch normalization and
ReLU.  A final 1x1x1 convolution maps to 3 channels interpreted as mm
displacements.  The head starts at exactly zero, so an untrained network
predicts the identity transform.

Convolution, optional batch norm and ReLU form one block.  The forward
pass keeps, per encoder level, its two blocks' caches and the pool's
argmax; per decoder level, the channel split of the concatenation and the
block's cache; and the head's input.  The backward pass walks the same
structure in reverse and only reads it.

One primitive computes every convolution, 3x3x3 and 1x1x1 alike, on BLAS:
per kernel tap, the shifted slice of the zero-padded input is copied into a
reused contiguous (C_in, voxels) buffer and multiplied by that tap's
(C_out, C_in) weights, the per-tap half of im2col.  The copies and products
run over slabs of a few output x-planes, so the buffer and the product stay
a few MB however large the volume.  The weight gradient multiplies the same
tap buffers by the output gradient, and the input gradient is the
transposed convolution: the forward primitive applied to the output
gradient with the kernel flipped on all three axes and C_in, C_out swapped,
so no padded input-gradient array is scattered into.

Batch normalization always normalizes with the statistics of the current
pass.  With one image pair per pass that is instance normalization, so there
are no running statistics: every tensor is trainable, and a saved checkpoint
reproduces the field it was saved with.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .volume import Volume
from .warp import DisplacementField

__all__ = [
    "ConvNetConfig",
    "ConvNetParameters",
    "AdamState",
    "adam_step",
    "init_convnet_parameters",
    "convnet_forward",
    "convnet_backward",
    "save_checkpoint",
    "load_checkpoint",
]

_BN_EPS = 1e-5
_CHECKPOINT_MAGIC = b"IRNW"
_CHECKPOINT_VERSION = 2  # 1 also stored batch-norm running statistics
KERNEL_SIZE = 3  # interior convolutions; checkpoint headers record it
_SLAB_VOXELS = 1 << 13  # output voxels per tap matmul; bounds its buffers


@dataclass(frozen=True)
class ConvNetConfig:
    levels: int = 3
    base_filters: int = 8
    use_batchnorm: bool = True

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.base_filters < 1:
            raise ValueError(f"base_filters must be >= 1, got {self.base_filters}")


@dataclass
class ConvNetParameters:
    """Named trainable tensors in canonical declaration order."""

    config: ConvNetConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _layer_plan(cfg: ConvNetConfig):
    """(name, shape) pairs in declaration order, plus per-level channel counts."""
    plan = []
    in_ch = 2
    enc_ch = []
    for l in range(cfg.levels):
        f = cfg.base_filters * (2**l)
        plan.append((f"enc{l}_conv1_w", (f, in_ch, 3, 3, 3)))
        plan.append((f"enc{l}_conv1_b", (f,)))
        plan.append((f"enc{l}_conv2_w", (f, f, 3, 3, 3)))
        plan.append((f"enc{l}_conv2_b", (f,)))
        enc_ch.append(f)
        in_ch = f
    up_ch = enc_ch[-1]
    for l in reversed(range(cfg.levels)):
        f = cfg.base_filters * (2**l)
        plan.append((f"dec{l}_conv_w", (f, up_ch + enc_ch[l], 3, 3, 3)))
        plan.append((f"dec{l}_conv_b", (f,)))
        if cfg.use_batchnorm:
            plan.append((f"dec{l}_bn_gamma", (f,)))
            plan.append((f"dec{l}_bn_beta", (f,)))
        up_ch = f
    plan.append(("head_w", (3, cfg.base_filters, 1, 1, 1)))
    plan.append(("head_b", (3,)))
    return plan


def init_convnet_parameters(cfg: ConvNetConfig, seed: int = 0) -> ConvNetParameters:
    """He-uniform fan-in init for hidden layers; the output head starts at zero."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _layer_plan(cfg):
        if name.startswith("head"):
            tensors[name] = np.zeros(shape)
        elif name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith("_gamma"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return ConvNetParameters(config=cfg, tensors=tensors)


# ---------------------------------------------------------------------------
# layer primitives (channels-first (C, X, Y, Z) float64 arrays)

def _taps(xp, k, dims):
    """Yields (tap, part, cols) for each slab of output x-planes and each
    kernel tap.  ``cols`` holds the tap's shifted input slice over the slab
    as a contiguous (C, slab voxels) matrix, copied into one reused buffer;
    ``part`` selects the slab's columns of the flattened (C, N) output.
    Slabs split nx evenly into at most _SLAB_VOXELS voxels each."""
    c = xp.shape[0]
    nx, ny, nz = dims
    plane = ny * nz
    step = max(
        (d for d in range(1, nx + 1) if nx % d == 0 and d * plane <= _SLAB_VOXELS), default=1
    )
    buf = np.empty((c, step, ny, nz))
    cols = buf.reshape(c, -1)
    for x0 in range(0, nx, step):
        x1 = x0 + step
        for dx, dy, dz in np.ndindex(k, k, k):
            np.copyto(buf, xp[:, x0 + dx : x1 + dx, dy : dy + ny, dz : dz + nz])
            yield (dx, dy, dz), slice(x0 * plane, x1 * plane), cols


def _conv_forward(x, w, b):
    """Same-padded convolution with the k x k x k kernel ``w``; returns
    (out, padded input).  A 1x1x1 kernel needs no padding, so its input is
    kept uncopied."""
    k = w.shape[-1]
    dims = x.shape[1:]
    xp = np.pad(x, ((0, 0),) + ((k // 2, k // 2),) * 3) if k > 1 else x
    # each tap's (C_out, C_in) weights contiguous, so matmul hands them to BLAS
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1))
    out = np.empty((w.shape[0], int(np.prod(dims))))
    out[...] = b[:, None]
    tmp = None
    for tap, part, cols in _taps(xp, k, dims):
        tmp = np.matmul(w_taps[tap], cols, out=tmp)
        out[:, part] += tmp
    return out.reshape((-1,) + dims), xp


def _conv_backward(xp, w, dout):
    """(input, weight, bias) gradients of ``_conv_forward``.  The input
    gradient is the forward convolution of ``dout`` with the kernel flipped
    on all three axes and its channel axes swapped."""
    k = w.shape[-1]
    dims = dout.shape[1:]
    dout2d = dout.reshape(dout.shape[0], -1)
    dw = np.zeros_like(w)
    for (dx, dy, dz), part, cols in _taps(xp, k, dims):
        dw[:, :, dx, dy, dz] += dout2d[:, part] @ cols.T
    db = dout.sum(axis=(1, 2, 3))
    flipped = w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
    din, _ = _conv_forward(dout, flipped, np.zeros(w.shape[1]))
    return din, dw, db


def _maxpool_forward(x):
    c, nx, ny, nz = x.shape
    win = x.reshape(c, nx // 2, 2, ny // 2, 2, nz // 2, 2)
    # flatten window cells in increasing linear-index order (x fastest) so
    # argmax ties route to the lowest linear index
    win = win.transpose(0, 1, 3, 5, 6, 4, 2).reshape(c, nx // 2, ny // 2, nz // 2, 8)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, (arg, x.shape)


def _maxpool_backward(cache, dout):
    arg, in_shape = cache
    c, nx, ny, nz = in_shape
    dwin = np.zeros((c, nx // 2, ny // 2, nz // 2, 8))
    np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
    dwin = dwin.reshape(c, nx // 2, ny // 2, nz // 2, 2, 2, 2)
    return dwin.transpose(0, 1, 6, 2, 5, 3, 4).reshape(c, nx, ny, nz)


def _upsample_forward(x):
    return np.repeat(np.repeat(np.repeat(x, 2, axis=1), 2, axis=2), 2, axis=3)


def _upsample_backward(dout):
    c, nx, ny, nz = dout.shape
    return dout.reshape(c, nx // 2, 2, ny // 2, 2, nz // 2, 2).sum(axis=(2, 4, 6))


def _bn_forward(x, gamma, beta):
    mu = x.mean(axis=(1, 2, 3))
    var = x.var(axis=(1, 2, 3))
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x - mu[:, None, None, None]) * inv[:, None, None, None]
    out = gamma[:, None, None, None] * xhat + beta[:, None, None, None]
    return out, (xhat, inv, gamma)


def _bn_backward(cache, dout):
    xhat, inv, gamma = cache
    dgamma = (dout * xhat).sum(axis=(1, 2, 3))
    dbeta = dout.sum(axis=(1, 2, 3))
    m = xhat[0].size
    s = (gamma * inv)[:, None, None, None]
    mean_dy = dout.mean(axis=(1, 2, 3))[:, None, None, None]
    mean_dy_xhat = (dout * xhat).sum(axis=(1, 2, 3))[:, None, None, None] / m
    dx = s * (dout - mean_dy - xhat * mean_dy_xhat)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------


def _block_forward(x, t, conv, bn=None):
    """Convolution ``conv``, batch norm ``bn`` if named, then ReLU."""
    w = t[conv + "_w"]
    x, xp = _conv_forward(x, w, t[conv + "_b"])
    bn_cache = None
    if bn is not None:
        x, bn_cache = _bn_forward(x, t[bn + "_gamma"], t[bn + "_beta"])
    mask = x > 0
    return x * mask, (xp, w, bn_cache, mask)


def _block_backward(cache, dout, grads, conv, bn=None):
    """The block's input gradient; its parameter gradients go into ``grads``."""
    xp, w, bn_cache, mask = cache
    dx = dout * mask
    if bn_cache is not None:
        dx, grads[bn + "_gamma"], grads[bn + "_beta"] = _bn_backward(bn_cache, dx)
    dx, grads[conv + "_w"], grads[conv + "_b"] = _conv_backward(xp, w, dx)
    return dx


def convnet_forward(params: ConvNetParameters, fixed: Volume, moving: Volume):
    """Predict a displacement field from the stacked pair.

    Returns (field, cache); the cache feeds convnet_backward, which only
    reads it.  Reads the parameters and never modifies them.  Weights that
    overflow the pass give no field: it is None, and the caller decides what
    a diverged iterate means.
    """
    cfg = params.config
    if fixed.dims != moving.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs moving {moving.dims}")
    div = 2**cfg.levels
    if any(d % div for d in fixed.dims):
        raise ValueError(f"dims {fixed.dims} not divisible by 2^levels = {div}")
    t = params.tensors
    x = np.stack([fixed.data, moving.data])
    enc, skips = [], []
    for l in range(cfg.levels):
        x, block1 = _block_forward(x, t, f"enc{l}_conv1")
        x, block2 = _block_forward(x, t, f"enc{l}_conv2")
        skips.append(x)
        x, pool = _maxpool_forward(x)
        enc.append((block1, block2, pool))
    dec = []  # finest level first, the order the backward pass meets them
    for l in reversed(range(cfg.levels)):
        x = _upsample_forward(x)
        split = x.shape[0]
        x = np.concatenate([x, skips.pop()], axis=0)
        bn = f"dec{l}_bn" if cfg.use_batchnorm else None
        x, block = _block_forward(x, t, f"dec{l}_conv", bn)
        dec.insert(0, (split, block))
    out, head_x = _conv_forward(x, t["head_w"], t["head_b"])
    field_data = np.moveaxis(out, 0, -1)
    pred = None
    if np.isfinite(field_data).all():
        pred = DisplacementField(data=field_data, spacing=fixed.spacing, origin=fixed.origin)
    cache = {"dims": fixed.dims, "enc": enc, "dec": dec, "head": (head_x, t["head_w"])}
    return pred, cache


def convnet_backward(cache, grad: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate a loss gradient on the field, an ``(nx, ny, nz, 3)``
    array, to every parameter tensor."""
    if grad.shape != cache["dims"] + (3,):
        raise ValueError(
            f"gradient shape {grad.shape} does not match forward dims {cache['dims']} + (3,)"
        )
    grads: dict[str, np.ndarray] = {}
    head_x, head_w = cache["head"]
    dout = np.moveaxis(grad, -1, 0)
    dx, grads["head_w"], grads["head_b"] = _conv_backward(head_x, head_w, dout)
    skip_grads = []
    for l, (split, block) in enumerate(cache["dec"]):
        dx = _block_backward(block, dx, grads, f"dec{l}_conv", f"dec{l}_bn")
        skip_grads.append(dx[split:])
        dx = _upsample_backward(dx[:split])
    for l in reversed(range(len(cache["enc"]))):
        block1, block2, pool = cache["enc"][l]
        # the pool's input also fed the skip connection: add both branches
        dx = _maxpool_backward(pool, dx) + skip_grads.pop()
        dx = _block_backward(block2, dx, grads, f"enc{l}_conv2")
        dx = _block_backward(block1, dx, grads, f"enc{l}_conv1")
    return grads


# ---------------------------------------------------------------------------
# Adam

@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    alpha: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, np.ndarray], alpha: float) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            alpha=alpha,
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; inputs untouched, new dicts returned."""
    t = state.t + 1
    new_params = dict(params)
    m = dict(state.m)
    v = dict(state.v)
    for k, g in grads.items():
        if k not in params:
            raise KeyError(f"gradient for unknown parameter {k!r}")
        if g.shape != params[k].shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {params[k].shape} for {k!r}"
            )
        # mk = beta1*m + (1-beta1)*g; vk = beta2*v + (1-beta2)*g*g;
        # new = p - alpha*mhat / (sqrt(vhat) + eps), in place on fresh arrays.
        # The products with g are short-lived temporaries: freed within the
        # step, their memory is reused while still mapped, which measured
        # faster than fewer, longer-lived buffers.
        mk = state.beta1 * m[k]
        mk += (1.0 - state.beta1) * g
        vk = g * g
        vk *= 1.0 - state.beta2
        vk += state.beta2 * v[k]
        den = vk / (1.0 - state.beta2**t)
        np.sqrt(den, out=den)
        den += state.eps
        mhat = mk / (1.0 - state.beta1**t)  # laid out like m, not like g
        mhat *= state.alpha
        mhat /= den
        del den
        new_params[k] = np.subtract(params[k], mhat, out=mhat)
        m[k] = mk
        v[k] = vk
    return new_params, replace(state, m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: ConvNetParameters) -> None:
    """Write config and all tensors (declaration order, f32 little-endian)."""
    cfg = params.config
    plan = _layer_plan(cfg)
    chunks = [
        _CHECKPOINT_MAGIC,
        struct.pack(
            "<5I",
            _CHECKPOINT_VERSION,
            cfg.levels,
            cfg.base_filters,
            int(cfg.use_batchnorm),
            KERNEL_SIZE,
        ),
        struct.pack("<I", len(plan)),
    ]
    for name, shape in plan:
        arr = params.tensors[name]
        if arr.shape != shape:
            raise ValueError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> ConvNetParameters:
    raw = Path(path).read_bytes()
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r}")
    version, levels, base_filters, use_bn, ksize = struct.unpack_from("<5I", raw, 4)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version}; this build reads version "
            f"{_CHECKPOINT_VERSION} only"
        )
    if ksize != KERNEL_SIZE:
        raise ValueError(f"checkpoint kernel size {ksize}; convolutions are fixed at {KERNEL_SIZE}")
    cfg = ConvNetConfig(levels=levels, base_filters=base_filters, use_batchnorm=bool(use_bn))
    plan = _layer_plan(cfg)
    (count,) = struct.unpack_from("<I", raw, 24)
    if count != len(plan):
        raise ValueError(f"checkpoint lists {count} tensors, config implies {len(plan)}")
    off = 28
    tensors: dict[str, np.ndarray] = {}
    for name, shape in plan:
        (ndim,) = struct.unpack_from("<I", raw, off)
        off += 4
        dims = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        if dims != shape:
            raise ValueError(f"tensor {name!r} has dims {dims}, expected {shape}")
        n = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(raw, dtype="<f4", count=n, offset=off)
        off += 4 * n
        tensors[name] = data.astype(np.float64).reshape(dims)
    if off != len(raw):
        raise ValueError(f"{len(raw) - off} trailing bytes after last tensor")
    return ConvNetParameters(config=cfg, tensors=tensors)
