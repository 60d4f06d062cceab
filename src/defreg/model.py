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
ReLU; a convolution followed by batch norm has no bias, which the norm's
mean subtraction would cancel.  A final 1x1x1 convolution maps to 3 channels
interpreted as mm displacements.  The head starts at exactly zero, so an
untrained network predicts the identity transform.

Convolution, optional batch norm and ReLU form one block, computed by one
routine, ``_block_forward``, from the block's input groups, weights, bias
and batch-norm cache.  The forward cache holds each activation once, as the
array the pass computed, and keeps no activation that the backward pass can
compute again, to the bit, by the forward's own routine from inputs the
cache holds anyway (recomputation in place of caching: Chen et al., arXiv
1604.06174).  A block refers to its input channel groups and keeps its
weights, its bias and, with batch norm, each channel's mean and scale: that
routine's arguments.  Batch norm and ReLU go in place over the
convolution's buffer, which becomes the block's output, so a block keeps no
normalized activations and no ReLU mask: a block's output is x * (x > 0),
so the output's > 0 is its mask to the bit.  enc0_conv1 reads the image pair
as two single-channel groups, views of the inputs, with no stacked copy.  A
decoder block's groups are the coarser output and the encoder skip
themselves, joined by no copy.  A pool keeps its argmax as int8.  Computed
again in the backward pass: each encoder level's conv1 output, just before
its conv2's backward, and dec0's output, the head's input, which nothing
else holds, each by the forward's own routine from its block; and each
decoder block's normalized activations, by its convolution and its kept
statistics, just before its batch norm's backward, one array per channel,
since a channel fits the heap's holes that freed activations leave, where a
whole activation would extend the heap.  For the default network that is
116 bytes of activations per voxel, 142 with the image pair, which the
caller holds anyway, and the weights.  The backward pass walks the same
structure in reverse and consumes it: each input gradient is written over
the activation it is taken for, once the weight gradient has read it, and
is multiplied, element by element as it is written, by that
activation's > 0, its ReLU mask, which is read just before the write
destroys it (the backward of an activation from its stored output, in
place: Rota Bulo et al., In-Place ABN, arXiv 1712.02616).  So no mask is
held from one block to the next.  That is exact for every input that takes
a gradient: each is a ReLU output or a max pool of ReLU outputs, a pool
output is > 0 exactly where its argmax cell is, and a skip's two gradients,
each masked, sum to the masked sum.  Each other entry is released once its
gradients are taken (a decoder block's normalized activations before its
convolution's backward), so a cache serves one backward pass and a second
one is refused.  The head is one more block.  The loss gradient is released
once the head's gradients are taken, before any normalized activations are
computed again.  The pass stops at enc0_conv1's weights: no gradient of the
image pair is taken.

One primitive computes every convolution, 3x3x3 and 1x1x1 alike, on BLAS.
Its input is a list of unpadded channel groups, each at the output's
resolution or at half of it, which nearest-neighbour 2x up-sampling
doubles.  Per slab of a few output x-planes (at most _SLAB_VOXELS output
voxels, and, for a forward or an input gradient, whose bits do not depend
on the slab, at most _SLAB_BYTES of window and grids, which only wide
layers reach: dec1's at 24^3 takes 1 plane, not 3; the fewest such slabs,
cut by ``warp._slab_planes`` as evenly as whole planes allow, so the last
may be shorter, and computes only its own planes), the zero-padded,
up-sampled, stacked input planes that the slab reads are copied into a
reused window, flat per channel and followed by a short zero tail.  The
slab's output is taken on the padded grid, so each kernel tap reads the
window at one flat offset: that (C_in, voxels) view goes to BLAS in place,
with no per-tap copy, and is multiplied by the tap's (C_out, C_in) weights.
The columns of the padded grid outside the volume, 2h of each y-row and
z-plane (8.5% at 48^3), are computed and dropped.  The window, the slab's
output and one tap product are the primitive's scratch: a few y-z planes,
not a volume, and no padded, concatenated or up-sampled copy of a whole
input is made.  The weight gradient multiplies the output gradient, put on
the same padded grid, by the same views; the input gradient is the
transposed convolution: the forward primitive applied to the unpadded
output gradient with the kernel flipped on all three axes and C_in, C_out
swapped, so no padded input-gradient array is scattered into.  Its slabs go
into each input group's own array, at the group's own resolution, which
the pass no longer needs: an up-sampled group's rows are summed onto the
coarse grid two fine x-planes at a time, so a decoder block makes neither
its stacked fine-grid input gradient nor a copy of the skip's part of it.

The other passes work in place where their arithmetic allows: batch norm's
backward writes the input gradient over the output gradient; the variance
and each channel's dout * xhat are reduced one channel at a time in a
one-channel scratch, equal to the bit to the whole-array reductions.  Max
pooling adds its gradient straight into the skip gradient at each window's
argmax cell, and the head writes its channels into the field's (nx, ny,
nz, 3) array, which the field shares uncopied.
The forward allocates an array the cache keeps before a transient one that
is freed beside it (each encoder level's conv2 output before its conv1
output, the field before the decoder, whose dec0 output the pass frees),
so the transient's hole is at the heap's top, not below a kept array.
``scripts/convnet_phase_peaks.py`` prints a registration's traced peak by
phase.

Batch normalization always normalizes with the statistics of the current
pass.  With one image pair per pass that is instance normalization, so there
are no running statistics: every tensor is trainable, and a saved checkpoint
reproduces the field it was saved with.  Checkpoints are version 3;
version 2 is refused.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .volume import Volume
from .warp import _SAMPLE_SLAB_VOXELS, DisplacementField, _slab_planes

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
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
_CHECKPOINT_MAGIC = b"IRNW"
# 2 also stored the kernel size and the decoder conv biases that batch norm
# cancels; 1 also stored batch-norm running statistics
_CHECKPOINT_VERSION = 3
# Output voxels per slab of the convolution, its weight gradient's whole
# budget (see ``warp._slab_planes`` for the cut).  Each of a slab's tap
# products reads its (C_in, voxels) window view and writes a (C_out, voxels)
# product; smaller slabs keep both in cache but pay numpy's per-call cost
# more often.  Registrations of the default network, 1 iteration, medians
# of 4 interleaved runs at 1 << 10 / 11 / 12 / 13: 48^3 308 / 316 / 323 /
# 372 ms, 24^3 52 / 46 / 45 / 54 ms, 12^3 19 ms at each; traced peaks 73.6
# MiB at 48^3 up to 1 << 12 (75.4 at 1 << 13), and 12.5 / 12.7 / 13.6 /
# 15.3 MiB at 24^3.  1 << 11 is within 3% of the fastest at each size.
_SLAB_VOXELS = 1 << 11
# Bytes of a forward or input-gradient slab's input window and its two
# (C_out, voxels) arrays, the tap product and the sum, at most where a plane
# fits: a slab of wide layers is cut to fewer x-planes than _SLAB_VOXELS
# allows, so that they stay near a 1 MiB L2 cache.
# Per call on one core of a 2-CPU x86-64 host, default network at 48^3:
# dec1's 48 -> 16 forward at 24^3 takes 7.4 ms at 1 plane against 10.5 at
# _SLAB_VOXELS's 3, and its input gradient 9.0 against 13.3 ms; at 12^3,
# where the bound cuts dec2's forward from 12 planes to 4 and enc2_conv2's
# to 6, they read 3.1 against 2.6 and 1.4 against 1.2 ms.  A registration's
# two forward passes take 146 ms against 159.
_SLAB_BYTES = 5 << 18


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
        if cfg.use_batchnorm:  # its mean subtraction cancels a conv bias
            plan.append((f"dec{l}_bn_gamma", (f,)))
            plan.append((f"dec{l}_bn_beta", (f,)))
        else:
            plan.append((f"dec{l}_conv_b", (f,)))
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

def _nearest_pieces(lo, hi, up):
    """Nearest-neighbour up-sampling by ``up`` along one axis: (destination,
    source) slice pairs, one per residue of ``up``, that fill positions
    0 .. hi-lo-1 with source elements p // up for p = lo .. hi-1."""
    pieces = []
    for r in range(min(up, hi - lo)):
        src = (lo + r) // up
        pieces.append((slice(r, hi - lo, up), slice(src, src + len(range(lo + r, hi, up)))))
    return pieces


def _taps(groups, k, dims, step):
    """Yields (x0, taps) for each slab of ``step`` output x-planes, from
    x0, of a same-padded k x k x k convolution over ``dims``, the last one
    taking the rest (``warp._slab_planes``).

    ``groups`` is the input as (array, up) channel groups, stacked in
    order: ``array`` is unpadded, and up = 2 up-samples it 2x by nearest
    neighbour.  Per slab, the zero-padded, up-sampled, stacked input planes
    that the slab reads are copied into one reused window, flat per channel
    and followed by a zero tail of 2h R + 2h elements.  The slab's output
    is taken on the padded (step, Q, R) grid, Q = ny + 2h, R = nz + 2h, so
    that kernel tap (dx, dy, dz) reads the window at the flat offset
    (dx Q + dy) R + dz.  ``taps`` holds (tap, view) per tap: ``view`` is
    that (C, d Q R) slice of the window, which BLAS reads in place, for the
    slab's d planes: a short last slab's views are cut to its own planes.
    Output columns at y >= ny or z >= nz read across a row's end or into
    the tail; the caller drops them."""
    c = sum(a.shape[0] for a, _ in groups)
    h = k // 2
    nx, ny, nz = dims
    q, r = ny + 2 * h, nz + 2 * h
    size = (step + 2 * h) * q * r
    flat = np.zeros((c, size + 2 * h * r + 2 * h))  # the y and z padding and the tail stay zero
    win = flat[:, :size].reshape(c, step + 2 * h, q, r)

    def views(d):  # (tap, view) per tap for a slab of d planes
        offsets = ((tap, (tap[0] * q + tap[1]) * r + tap[2]) for tap in np.ndindex(k, k, k))
        return [(tap, flat[:, off : off + d * q * r]) for tap, off in offsets]

    taps = views(step)
    for x0 in range(0, nx, step):
        if nx - x0 < step:  # a short last slab
            taps = views(nx - x0)
        # window plane i holds input plane x0 - h + i, zero outside the volume
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
        yield x0, taps


def _out_dims(groups):
    """The output dims of a convolution of ``groups``: the first group's,
    up-sampled."""
    a, up = groups[0]
    return tuple(up * n for n in a.shape[1:])


def _conv_slabs(groups, w, b=None):
    """Yields (x0, slab) for each slab of the same-padded convolution of
    the channel groups ``groups`` (see ``_taps``) with the k x k x k kernel
    ``w``, plus the bias ``b`` if given: ``slab`` is the (C_out, d, ny, nz)
    output of planes x0 .. x0 + d - 1, a view of one reused buffer, where d
    is the step, or less in a shorter last slab (``warp._slab_planes``),
    whose padded grid and tap product hold only its own d planes' columns.
    The slab holds at most _SLAB_VOXELS output voxels, and its input window
    and its two grids take at most _SLAB_BYTES where a plane fits: the
    output's bits do not depend on the slab, since each column is its own
    dot products over C_in (the weight gradient's cut, whose sums run over
    the slabs, is the voxel budget alone)."""
    cout, cin, k = w.shape[0], w.shape[1], w.shape[-1]
    dims = _out_dims(groups)
    nx, ny, nz = dims
    plane = (ny + k - 1) * (nz + k - 1)
    # 8 plane (cin (d + k - 1) + 2 cout d) bytes for d planes, solved for d
    step = min(
        _slab_planes(nx, ny * nz, _SLAB_VOXELS),
        _slab_planes(nx, 8 * plane * (cin + 2 * cout), _SLAB_BYTES - 8 * plane * cin * (k - 1)),
    )
    # each tap's (C_out, C_in) weights contiguous, so matmul hands them to BLAS
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1))
    # the slab's padded output grid and one tap's product, each the start
    # of a flat buffer as a contiguous (C_out, columns) array
    grid, tmp = np.empty(cout * step * plane), np.empty(cout * step * plane)
    for x0, taps in _taps(groups, k, dims, step):
        n = taps[0][1].shape[1]  # the slab's own columns
        acc, prod = grid[: cout * n].reshape(cout, n), tmp[: cout * n].reshape(cout, n)
        acc[...] = 0.0 if b is None else b[:, None]
        for tap, view in taps:
            np.matmul(w_taps[tap], view, out=prod)
            acc += prod
        yield x0, acc.reshape(cout, -1, ny + k - 1, nz + k - 1)[:, :, :ny, :nz]


def _conv_forward(groups, w, b=None, out=None):
    """Same-padded convolution of the channel groups ``groups`` (see
    ``_taps``) with the k x k x k kernel ``w``, plus the bias ``b`` if
    given, written into ``out``, a (C_out, nx, ny, nz) array or view, or
    into a fresh array."""
    if out is None:
        out = np.empty((w.shape[0],) + _out_dims(groups))
    for x0, slab in _conv_slabs(groups, w, b):
        out[:, x0 : x0 + slab.shape[1]] = slab
    return out


def _conv_input_grads(groups, w, dout):
    """The input gradient of ``_conv_forward`` through the ReLU that made
    each input, written over the channel groups' own arrays, at each
    group's own resolution, and returned as their list.

    It is the forward convolution of ``dout`` with the kernel flipped on
    all three axes and its channel axes swapped, taken slab by slab.  A
    full-resolution group's rows are written one x-plane at a time.  An
    up-sampled group's rows are staged two fine x-planes at a time, and
    each pair is summed over its 2 x 2 x 2 cells into one coarse plane (the
    adjoint of nearest-neighbour up-sampling), so no fine-grid gradient of
    the group is made.  Each plane is multiplied by the ReLU mask of the
    activation it overwrites, that activation's ``> 0`` (see ``_relu``),
    taken just before into one reused bool plane per group."""
    _, _, ny, nz = dout.shape
    stages = [np.empty((a.shape[0], 2, ny, nz)) if up == 2 else None for a, up in groups]
    masks = [np.empty(a.shape[:1] + a.shape[2:], bool) for a, _ in groups]
    for x0, slab in _conv_slabs([(dout, 1)], w[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)):
        c0 = 0
        for (a, up), stage, mask in zip(groups, stages, masks):
            c = a.shape[0]
            rows = slab[c0 : c0 + c]
            c0 += c
            for x in range(x0, x0 + rows.shape[1]):
                grad = rows[:, x - x0]
                if up == 2:
                    stage[:, x % 2] = grad
                    if not x % 2:
                        continue
                    pair = stage.reshape(c, 1, 2, ny // 2, 2, nz // 2, 2)
                    grad = pair.sum(axis=(2, 4, 6))[:, 0]
                plane = a[:, x // up]
                np.greater(plane, 0, out=mask)
                np.multiply(grad, mask, out=plane)
    return [a for a, _ in groups]


def _conv_weight_grad(groups, w, dout):
    """The weight gradient of ``_conv_forward``: each slab of ``dout``, on
    the forward's padded grid, zero in the dropped columns, times each
    tap's view of the input window, over the slab's own columns."""
    k = w.shape[-1]
    cout, nx, ny, nz = dout.shape
    step = _slab_planes(nx, ny * nz, _SLAB_VOXELS)
    dgrid = np.zeros((cout, step, ny + k - 1, nz + k - 1))
    dw = np.zeros_like(w)
    for x0, taps in _taps(groups, k, dout.shape[1:], step):
        dgrid[:, : nx - x0, :ny, :nz] = dout[:, x0 : x0 + step]
        dflat = dgrid.reshape(cout, -1)[:, : taps[0][1].shape[1]]
        for (tx, ty, tz), view in taps:
            dw[:, :, tx, ty, tz] += dflat @ view.T
    return dw


def _conv_backward(groups, w, dout, input_grad=True):
    """(input, weight, bias) gradients of ``_conv_forward``; the input
    gradient is ``_conv_input_grads``'s list, the groups' own arrays, or
    None without ``input_grad``.  The weight gradient, which reads the
    groups, is taken first, before the input gradient overwrites them, and
    the two scratches are never alive together."""
    dw = _conv_weight_grad(groups, w, dout)
    dxs = _conv_input_grads(groups, w, dout) if input_grad else None
    return dxs, dw, dout.sum(axis=(1, 2, 3))


def _maxpool_forward(x):
    c, nx, ny, nz = x.shape
    win = x.reshape(c, nx // 2, 2, ny // 2, 2, nz // 2, 2)
    # flatten window cells in increasing linear-index order (x fastest) so
    # argmax ties route to the lowest linear index
    win = win.transpose(0, 1, 3, 5, 6, 4, 2).reshape(c, nx // 2, ny // 2, nz // 2, 8)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    return out, arg.astype(np.int8)  # a cell of 8 fits in int8


def _maxpool_backward(arg, dout, dx):
    """Adds ``dout`` at each window's argmax cell ``arg`` into ``dx``, the
    C-contiguous gradient of the pool's input from its other branch, and
    returns it."""
    if not dx.flags.c_contiguous:
        raise ValueError("the pool's input gradient must be C-contiguous")
    c, nx, ny, nz = dx.shape
    cells = dx.reshape(c, nx // 2, 2, ny // 2, 2, nz // 2, 2)  # a view, being contiguous
    ci, wx, wy, wz = np.ogrid[:c, : nx // 2, : ny // 2, : nz // 2]
    # one cell per window, so no cell is added to twice; the forward's
    # cell order has x fastest
    cells[ci, wx, arg & 1, wy, (arg >> 1) & 1, wz, arg >> 2] += dout
    return dx


def _relu(x):
    """ReLU in place, ``x * (x > 0)``: its mask is ``x > 0`` of the output
    to the bit, since a product with False is never > 0 (NaN, -0.0 and
    -inf give NaN or -0.0).  The backward pass reads it so, from the output
    it is about to overwrite (see ``_conv_input_grads``)."""
    x *= x > 0
    return x


def _bn_normalize(x, mu=None, inv=None):
    """Normalizes ``x``, an array or a list of one array per channel, in
    place by each channel's mean ``mu`` and inv = 1 / sqrt(var + eps), its
    own if not given, and returns (x, mu, inv).  The variance is reduced one
    channel at a time, as ``np.var`` does it, in a one-channel scratch."""
    if mu is None:
        mu = x.mean(axis=(1, 2, 3))
        var = np.empty_like(mu)
        tmp = np.empty(x.shape[1:])
        for c in range(len(x)):
            np.subtract(x[c], mu[c], out=tmp)
            tmp *= tmp
            var[c] = tmp.sum() / tmp.size
        del tmp
        inv = 1.0 / np.sqrt(var + _BN_EPS)
    for c in range(len(x)):
        x[c] -= mu[c]
        x[c] *= inv[c]
    return x, mu, inv


def _bn_backward(xhat, cache, dout):
    """(input, gamma, beta) gradients of batch norm with the cache (mu,
    inv, gamma, beta) and the normalized activations ``xhat``, an array or
    a list of one array per channel, read a channel at a time; the input
    gradient is written over ``dout``.  Each channel's dout * xhat is taken
    in one one-channel scratch."""
    _, inv, gamma, _ = cache
    tmp = np.empty(xhat[0].shape)
    dgamma = np.empty_like(inv)
    for c in range(len(xhat)):
        dgamma[c] = np.multiply(dout[c], xhat[c], out=tmp).sum()
    dbeta = dout.sum(axis=(1, 2, 3))
    m = xhat[0].size
    s = gamma * inv
    mean_dy = dout.mean(axis=(1, 2, 3))
    mean_dy_xhat = dgamma / m
    # s * (dout - mean_dy - xhat * mean_dy_xhat)
    for c in range(len(xhat)):
        dout[c] -= mean_dy[c]
        dout[c] -= np.multiply(xhat[c], mean_dy_xhat[c], out=tmp)
        dout[c] *= s[c]
    return dout, dgamma, dbeta


# ---------------------------------------------------------------------------


def _block_forward(groups, w, b, bn_cache=None, out=None):
    """Convolution of the channel groups ``groups`` with the weights ``w``
    and the bias ``b`` (None with batch norm), batch norm by ``bn_cache``
    if given, then ReLU, in place in the convolution's buffer, which is
    written into ``out`` if given.  The batch-norm cache is (mu, inv,
    gamma, beta); mu and inv, each channel's mean and 1 / sqrt(var + eps),
    are None when the pass takes its own.  Returns the output and the block
    (groups, w, b, batch-norm cache) with the statistics filled in, which
    refers to the groups' arrays, uncopied, and keeps no normalized
    activations and no ReLU mask (the output's ``> 0``).  The backward pass
    computes a block's output again by this routine from the block, so the
    two are equal to the bit."""
    x = _conv_forward(groups, w, b, out)
    if bn_cache is not None:
        mu, inv, gamma, beta = bn_cache
        _, mu, inv = _bn_normalize(x, mu, inv)
        np.multiply(gamma[:, None, None, None], x, out=x)  # the affine
        x += beta[:, None, None, None]
        bn_cache = (mu, inv, gamma, beta)
    return _relu(x), (groups, w, b, bn_cache)


def _with_xhat(block):
    """``block`` with its batch-norm cache paired with its normalized
    activations, (xhat, cache), computed again into one array per channel
    by the primitives ``_block_forward`` runs up to its affine: the
    convolution's slabs, then ``_bn_normalize`` with the kept statistics,
    so equal to the forward's to the bit.  A channel fits the holes that
    freed activations leave in the heap, where a whole activation would
    extend it.  A block without batch norm is returned as it is."""
    groups, w, b, bn_cache = block
    if bn_cache is None:
        return block
    xhat = [np.empty(_out_dims(groups)) for _ in range(len(w))]
    for x0, slab in _conv_slabs(groups, w):
        for a, rows in zip(xhat, slab):
            a[x0 : x0 + slab.shape[1]] = rows
    _bn_normalize(xhat, *bn_cache[:2])
    return groups, w, b, (xhat, bn_cache)


def _block_backward(block, dout, grads, conv, bn=None, input_grad=True):
    """The block's input gradients, one per group at its own resolution,
    or None without ``input_grad``; its parameter gradients go into
    ``grads``.  ``dout`` is the gradient of the block's output, already
    masked by its ReLU, and is overwritten by batch norm's backward, so
    that the caller's copy is not alive beside it.  The input gradients
    are masked by the ReLU of each group (see ``_conv_input_grads``) and
    written over the groups' arrays, which the cache holds for this pass
    alone.  Given the only reference to ``block``, it frees the normalized
    activations before the convolution's backward.  A block with batch
    norm comes from ``_with_xhat``."""
    groups, w, b, bn_cache = block
    del block
    if bn_cache is not None:
        dout, grads[bn + "_gamma"], grads[bn + "_beta"] = _bn_backward(*bn_cache, dout)
        del bn_cache
    dxs, grads[conv + "_w"], db = _conv_backward(groups, w, dout, input_grad)
    if b is not None:
        grads[conv + "_b"] = db
    return dxs


def convnet_forward(params: ConvNetParameters, fixed: Volume, moving: Volume):
    """Predict a displacement field from the image pair.

    Returns (field, cache); the cache serves one convnet_backward, which
    consumes it.  Reads the parameters and never modifies them.  Weights
    that overflow the pass give no field: it is None, and the caller
    decides what a diverged iterate means.
    """
    cfg = params.config
    if fixed.dims != moving.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs moving {moving.dims}")
    div = 2**cfg.levels
    if any(d % div for d in fixed.dims):
        raise ValueError(f"dims {fixed.dims} not divisible by 2^levels = {div}")
    t = params.tensors
    groups = [(fixed.data[None], 1), (moving.data[None], 1)]  # the pair, stacked by no copy
    enc, skips = [], []
    for l in range(cfg.levels):
        # conv2's output, a skip the cache keeps, is allocated before
        # conv1's, which is freed once conv2 has read it: so the heap's hole
        # is above the kept array, where the next allocations reuse it
        skip = np.empty(t[f"enc{l}_conv2_w"].shape[:1] + _out_dims(groups))
        x, block1 = _block_forward(groups, t[f"enc{l}_conv1_w"], t[f"enc{l}_conv1_b"])
        x, block2 = _block_forward(
            [(x, 1)], t[f"enc{l}_conv2_w"], t[f"enc{l}_conv2_b"], out=skip
        )
        skips.append(x)
        x, pool = _maxpool_forward(x)
        # conv1's output, conv2's input, is computed again in the backward pass
        enc.append((block1, (None,) + block2[1:], pool))
        groups = [(x, 1)]
    # the field is allocated before the decoder, for the same reason:
    # dec0's output, the head's input, is freed when the pass returns
    field_data = np.empty(fixed.dims + (3,))
    dec = []  # finest level first, the order the backward pass meets them
    for l in reversed(range(cfg.levels)):
        # the coarser features, up-sampled, stacked over the skip features
        # with batch norm, no bias, and statistics that the pass takes
        if cfg.use_batchnorm:
            b, bn = None, (None, None, t[f"dec{l}_bn_gamma"], t[f"dec{l}_bn_beta"])
        else:
            b, bn = t[f"dec{l}_conv_b"], None
        x, block = _block_forward([(x, 2), (skips.pop(), 1)], t[f"dec{l}_conv_w"], b, bn)
        dec.insert(0, block)
    # the head writes its channels straight into the field's layout
    _conv_forward([(x, 1)], t["head_w"], t["head_b"], out=np.moveaxis(field_data, -1, 0))
    pred = None
    if np.isfinite(field_data).all():
        field_data.flags.writeable = False  # lets the field share it uncopied
        pred = DisplacementField(data=field_data, spacing=fixed.spacing, origin=fixed.origin)
    # the head's block: its input, dec0's output, is computed again
    head = (None, t["head_w"], t["head_b"], None)
    cache = {"dims": fixed.dims, "enc": enc, "dec": dec, "head": head}
    return pred, cache


def convnet_backward(cache) -> dict[str, np.ndarray]:
    """Backpropagate the loss gradient on the field, the cache's "grad"
    entry, an ``(nx, ny, nz, 3)`` array, to every parameter tensor.

    Consumes the cache: each entry is released once its gradients are
    taken, and each activation's gradient is written over it, so a cache
    serves one backward pass, and a second one is refused.  The gradient
    is taken out of the cache too: a caller that keeps no other reference
    so hands over the only one, and it is freed once the head's gradients
    are taken.

    The head is one more block, a 1x1x1 convolution of dec0's output.
    Each block's input gradients come back masked by the ReLU of each
    input, so no mask is carried from one block to the next.  The
    activations that the forward did not keep are computed again: dec0's
    output for the head's backward, then, once the loss gradient is
    released, each decoder block's normalized activations for its batch
    norm's backward, and each encoder level's conv1 output for its conv2's
    backward.
    """
    if "head" not in cache:
        raise ValueError("the convnet cache was consumed by an earlier backward pass; "
                         "a cache serves one backward pass")
    if cache["grad"].shape != cache["dims"] + (3,):
        raise ValueError(
            f"gradient shape {cache['grad'].shape} does not match forward dims "
            f"{cache['dims']} + (3,)"
        )
    grads: dict[str, np.ndarray] = {}
    enc, dec = cache["enc"], cache["dec"]
    # the head's backward holds the loss gradient's only reference, so it
    # is freed before _with_xhat computes dec0's normalized activations
    dxs = _block_backward(
        ([(_block_forward(*dec[0])[0], 1)],) + cache.pop("head")[1:],
        np.moveaxis(cache.pop("grad"), -1, 0), grads, "head",
    )
    skip_grads = []
    for l in range(len(dec)):
        # one gradient per input group, each on its own grid: the coarser
        # output's, and the skip's, which the encoder adds below
        dxs = _block_backward(
            _with_xhat(dec.pop(0)), dxs.pop(), grads, f"dec{l}_conv", f"dec{l}_bn"
        )
        skip_grads.append(dxs.pop())
    for l in reversed(range(len(enc))):
        block1, block2, pool = enc.pop()
        # the pool's input also fed the skip connection: add both branches,
        # each masked by the skip's ReLU (a pool output is > 0 where its
        # argmax cell is)
        dx = _maxpool_backward(pool, dxs.pop(), skip_grads.pop())
        block2 = ([(_block_forward(*block1)[0], 1)],) + block2[1:]  # conv1's output, again
        dxs = _block_backward(block2, dx, grads, f"enc{l}_conv2")
        del block2, dx, pool  # not alive through conv1's backward
        dxs = _block_backward(block1, dxs.pop(), grads, f"enc{l}_conv1", input_grad=l > 0)
    return grads


# ---------------------------------------------------------------------------
# Adam

@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators, the learning rate and the step
    counter.  The decay rates and epsilon are the module's constants;
    ``adam_step`` updates the moments in place."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    alpha: float
    t: int = 0

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
    work: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update.

    The moments are updated in place, in ``state``'s arrays, and the
    returned state, one step on, holds the same arrays.  The parameters
    come back as fresh arrays in a new dict; the caller's parameter arrays
    are untouched, since an earlier iterate may still hold them.  ``work``,
    if given, maps each parameter name to an array of its shape that holds
    the step's temporaries; otherwise they are allocated.  Every gradient
    is checked before any moment changes.

    Each parameter is stepped a chunk of its leading-axis planes at a
    time, cut by ``warp._slab_planes`` within ``warp._SAMPLE_SLAB_VOXELS``
    elements, so the closed form's passes over a chunk stay in cache.
    Each element sees the same operations, so the bits are those of
    whole-array passes; an 80x96x80 field steps in 19 ms against 29.
    """
    for k, g in grads.items():
        if k not in params:
            raise KeyError(f"gradient for unknown parameter {k!r}")
        if g.shape != params[k].shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {params[k].shape} for {k!r}"
            )
    t = state.t + 1
    new_params = dict(params)
    for k, g in grads.items():
        m, v, p = state.m[k], state.v[k], params[k]
        tmp = np.empty_like(m) if work is None else work[k]
        new = new_params[k] = np.empty_like(m)  # laid out like m, not like g
        # chunks of leading-axis planes: each pass over a chunk stays in cache
        step = _slab_planes(len(m), m[:1].size, _SAMPLE_SLAB_VOXELS)
        for i in range(0, len(m), step):
            c = slice(i, i + step)
            m_, v_, g_, tmp_, mhat = m[c], v[c], g[c], tmp[c], new[c]
            # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
            # new = p - alpha*mhat / (sqrt(vhat) + eps): the closed form's
            # products and sums, in its order, each into m, v, tmp or new
            m_ *= _ADAM_BETA1
            m_ += np.multiply(g_, 1.0 - _ADAM_BETA1, out=tmp_)
            np.multiply(g_, g_, out=tmp_)
            tmp_ *= 1.0 - _ADAM_BETA2
            v_ *= _ADAM_BETA2
            v_ += tmp_
            den = np.divide(v_, 1.0 - _ADAM_BETA2**t, out=tmp_)
            np.sqrt(den, out=den)
            den += _ADAM_EPS
            np.divide(m_, 1.0 - _ADAM_BETA1**t, out=mhat)
            mhat *= state.alpha
            mhat /= den
            np.subtract(p[c], mhat, out=mhat)
    return new_params, replace(state, t=t)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: ConvNetParameters) -> None:
    """Write config and all tensors (declaration order, f32 little-endian)."""
    cfg = params.config
    plan = _layer_plan(cfg)
    chunks = [
        _CHECKPOINT_MAGIC,
        struct.pack(
            "<4I", _CHECKPOINT_VERSION, cfg.levels, cfg.base_filters, int(cfg.use_batchnorm)
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
    off = 0

    def take(size: int, what: str) -> int:
        """Offset of the next ``size`` bytes, which hold ``what``."""
        nonlocal off
        if off + size > len(raw):
            raise ValueError(
                f"{path}: checkpoint is truncated in {what}: it needs bytes {off} to "
                f"{off + size}, the file has {len(raw)}"
            )
        off += size
        return off - size

    take(4, "the header")
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r}")
    version, levels, base_filters, use_bn = struct.unpack_from("<4I", raw, take(16, "the header"))
    if version != _CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version}; this build reads version "
            f"{_CHECKPOINT_VERSION} only"
        )
    cfg = ConvNetConfig(levels=levels, base_filters=base_filters, use_batchnorm=bool(use_bn))
    plan = _layer_plan(cfg)
    (count,) = struct.unpack_from("<I", raw, take(4, "the header"))
    if count != len(plan):
        raise ValueError(f"checkpoint lists {count} tensors, config implies {len(plan)}")
    tensors: dict[str, np.ndarray] = {}
    for name, shape in plan:
        what = f"tensor {name!r}"
        (ndim,) = struct.unpack_from("<I", raw, take(4, what))
        dims = struct.unpack_from(f"<{ndim}I", raw, take(4 * ndim, what))
        if dims != shape:
            raise ValueError(f"tensor {name!r} has dims {dims}, expected {shape}")
        n = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(raw, dtype="<f4", count=n, offset=take(4 * n, what))
        tensors[name] = data.astype(np.float64).reshape(dims)
    if off != len(raw):
        raise ValueError(f"{len(raw) - off} trailing bytes after last tensor")
    return ConvNetParameters(config=cfg, tensors=tensors)
