"""Self-supervised registration objective and its analytic gradients.

The objective has two parts: a windowed normalized-cross-correlation
similarity between the fixed image and the warped moving image (negated so
minimization improves alignment), and a displacement-gradient smoothness
penalty.  Both expose exact analytic gradients with respect to the
displacement field, as plain ``(nx, ny, nz, 3)`` arrays on the field's
grid, verified against finite differences in the tests.  With
``with_grad`` off they return the same value bits from the same code and
None for the gradient, skipping the NCC gradient's box sums, the chain
through the sampling derivative and the smoothness gradient.

Window statistics use separable box sums, O(N) per axis instead of
O(N * window^3); windows are clipped at the borders rather than padded.
Along each axis a cumulative sum is taken once and each window is the
difference of two of its entries, formed with slices into one output (no
running add/subtract window, whose rounding would drift along the axis).
Summation order is fixed, so results are bit-reproducible.  One pass over
x-slabs computes the window statistics on every grid, with or
without the gradient (see ``_ncc_terms``).  Measured peaks with fresh
arrays, in image volumes above the inputs: the NCC pass 8.4 with the
gradient and 7.2 without at 48^3 (one slab), 5.4 and 1.5 at 160x192x160.
One ``overall_loss`` evaluation: 12.4 with the gradient and 8.2 without at
48^3, 12.0 and 4.1 at 160x192x160; with the gradient the smoothness
gradient and its two buffers beside the similarity gradient set it.  A
``Workspace`` holds those 12 volumes once per grid, and an evaluation into
it allocates only the warp's slab arrays: 2.6 volumes at 48^3, 0.14 at
160x192x160.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import warp
from .volume import Volume
from .warp import DisplacementField, _slab_planes, warp_volume_with_gradient

__all__ = [
    "LossConfig",
    "LossValue",
    "Workspace",
    "ncc",
    "similarity_loss",
    "smoothness_loss",
    "overall_loss",
]


@dataclass(frozen=True)
class LossConfig:
    """Knobs of the objective.

    ncc_window: cubic window side in voxels (odd, >= 3: a one-voxel
        window's correlation and its gradient are 0)
    reg_weight: weight of the smoothness term in the total loss
    variance_floor: lower bound on each window's std-dev product
    """

    ncc_window: int = 9
    reg_weight: float = 1.0
    variance_floor: float = 1e-5

    def __post_init__(self):
        if self.ncc_window < 3 or self.ncc_window % 2 == 0:
            raise ValueError(f"ncc_window must be odd and >= 3, got {self.ncc_window}")
        # written so that NaN fails too: every comparison with NaN is False
        if not 0 <= self.reg_weight < np.inf:
            raise ValueError(f"reg_weight must be finite and >= 0, got {self.reg_weight}")
        if not 0 < self.variance_floor < np.inf:
            raise ValueError(f"variance_floor must be finite and > 0, got {self.variance_floor}")


@dataclass(frozen=True)
class LossValue:
    total: float
    similarity: float
    smoothness: float


def _cumsum_axis0(a: np.ndarray, out: np.ndarray, start: int = 0) -> None:
    """``np.cumsum(a, axis=0, out=out)``, added slab by slab, from plane
    ``start`` on: earlier planes of ``out`` already hold their sums (``a``
    may be ``out``).

    The same additions in the same order, but streaming through memory:
    numpy accumulates along the outer axis with a stride of one slab, which
    is several times slower on volumes.
    """
    if not start:
        out[0] = a[0]
    for i in range(max(start, 1), len(a)):
        np.add(out[i - 1], a[i], out=out[i])


def _window_diff(csum, out, axis: int, r: int, n: int, first: int = 0, base: int = 0) -> None:
    """Windowed sums from cumulative sums C along ``axis`` of length ``n``.

    ``out`` receives positions first, first+1, ... as far as it reaches,
    and ``csum`` holds C from position ``base`` on:
    out[i-first] = C[min(i+r, n-1)] - C[i-r-1], the second term only where
    i-r-1 >= 0, written with slices into one output.
    """
    o = out.swapaxes(0, axis)  # views with the axis first
    c = csum.swapaxes(0, axis)
    stop = first + len(o)
    m = min(max(n - r, first), stop)  # windows before it end inside the axis
    o[: m - first] = c[first + r - base : m + r - base]
    o[m - first :] = c[n - 1 - base : n - base]
    lo = max(r + 1, first)
    if lo < stop:
        o[lo - first :] -= c[lo - r - 1 - base : stop - r - 1 - base]


def _box_pass(src: np.ndarray, out: np.ndarray, csum: np.ndarray, axis: int, r: int) -> None:
    """Windowed sums of ``src`` along ``axis``, window radius ``r``, into
    ``out`` (which may be ``src``), with ``csum`` as the cumulative sums."""
    if axis:
        src.cumsum(axis=axis, out=csum)
    else:
        _cumsum_axis0(src, csum)
    _window_diff(csum, out, axis, r, out.shape[axis])


def _box_sum(a: np.ndarray, w: int, out=None, csum=None) -> np.ndarray:
    """Separable sliding-window sum with window side ``w``, clipped at borders.

    ``csum`` holds the cumulative sums and ``out``, which may be ``a``, the
    windowed sums; each is a fresh array if it is not given.
    """
    out = np.empty_like(a) if out is None else out
    csum = np.empty_like(a) if csum is None else csum
    r = w // 2
    for axis in range(3):
        _box_pass(out if axis else a, out, csum, axis, r)
    return out


def _box_counts(dims, w: int, planes=slice(None), out=None) -> np.ndarray:
    """Number of in-grid voxels in each clipped window, at the given x-planes
    (into ``out`` if it is given)."""
    r = w // 2
    per_axis = []
    for n in dims:
        i = np.arange(n)
        per_axis.append(np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1.0)
    cx = per_axis[0][planes]
    return np.multiply(
        cx[:, None, None] * per_axis[1][None, :, None], per_axis[2][None, None, :], out=out
    )


def _window_stats(window_sums, counts, eps: float, cc, tmp, bufs, with_grad: bool) -> None:
    """Per-window correlation and, with the gradient, its pointwise terms.

    ``window_sums(q, out)`` returns the window sums of the q-th of F, G,
    F*G, F*F and G*G in ``out``, and ``counts(out)`` writes the windows'
    voxel counts.  The correlation goes into ``cc``.  ``bufs`` holds six arrays of its shape:
    the sums of F and of G, then the arrays that get a = 1/d, muF*a,
    e = where(floored, 0, cc/varG) and muG*e, the gradient's terms.
    ``tmp``, of the same shape, holds the counts and then each product that
    is subtracted (``window_sums`` may overwrite it).  The arithmetic is
    that of the closed forms in the comments, in the same order, each
    intermediate updated in place in its destination.
    """
    sF, sG, a, muF, e, muG = bufs
    sF = window_sums(0, sF)
    sG = window_sums(1, sG)
    n = counts(tmp)
    np.divide(sF, n, out=muF)
    np.divide(sG, n, out=muG)
    del n
    window_sums(2, cc)  # cross = box(F*G) - muF*sG
    cc -= np.multiply(muF, sG, out=tmp)
    d = window_sums(3, a)  # varF = max(box(F*F) - muF*sF, 0)
    d -= np.multiply(muF, sF, out=tmp)
    np.maximum(d, 0.0, out=d)
    varG = window_sums(4, e)  # varG = max(box(G*G) - muG*sG, 0)
    varG -= np.multiply(muG, sG, out=tmp)
    np.maximum(varG, 0.0, out=varG)
    d *= varG  # d = max(sqrt(varF*varG), eps)
    np.sqrt(d, out=d)
    floored = d < eps if with_grad else None
    np.maximum(d, eps, out=d)
    cc /= d  # cc = cross / d
    if not with_grad:
        return
    # d cc(x)/d G_j = (F_j - muF)/d - cc * (G_j - muG)/varG for j in window x
    # (second term absent where the floor is active: d is locally constant)
    np.copyto(varG, 1.0, where=~(varG > 0))  # safe divisor
    np.divide(cc, varG, out=e)
    np.copyto(e, 0.0, where=floored)
    np.divide(1.0, d, out=a)
    muF *= a
    muG *= e


def _ncc_layout(dims, w: int, with_grad: bool):
    """Slab planes, carried planes and the shapes of ``_ncc_terms``' scratch
    arrays on a grid of ``dims``, in the order they are carved from one flat
    buffer: the correlation, the work buffer, the carried cumulative sums,
    the slab statistics (five, or the two sums beside the gradient's terms)
    and the gradient's four whole-volume terms.  An unused array has no
    voxels.  The slabs are cut by ``warp._slab_planes`` within
    ``warp._SLAB_VOXELS``, read at each call; a grid of one slab takes nx
    planes, no more."""
    nx, ny, nz = dims
    step = _slab_planes(nx, ny * nz, warp._SLAB_VOXELS)
    reach = min(2 * (w // 2) + 1, nx)  # planes of x cumulative sums carried to the next slab
    carried = step < nx
    return step, reach, [
        tuple(dims),
        (min(step + reach, nx), ny, nz),
        (5 if carried else 0, reach, ny, nz),
        (2 if with_grad else 5, step, ny, nz),
        (4 if with_grad else 0,) + tuple(dims),
    ]


def _carve(buf, shapes) -> list[np.ndarray]:
    """C-contiguous arrays of the given shapes, one after another from the
    start of the flat ``buf``, or from a fresh buffer if it is None."""
    sizes = [math.prod(s) for s in shapes]
    if buf is None:
        buf = np.empty(sum(sizes))
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(buf[start : start + size].reshape(shape))
        start += size
    return arrays


def _ncc_terms(F: np.ndarray, G: np.ndarray, w: int, eps: float, with_grad: bool, buf=None):
    """Mean windowed correlation of F and G, optionally with d(value)/dG.

    The window sums along y and z and the statistics are pointwise in x,
    so each x-slab runs them on its own planes.  Along x, each quantity's
    cumulative sums are taken in one reused buffer, and their last 2r+1
    planes, which the next slab's windows reach back to, are carried to it,
    so every sum is added in the whole-volume order.  Each slab writes its
    correlation, and with the gradient its four pointwise terms, into
    whole-volume arrays, whose window sums the gradient then takes in
    place, over the whole volume.  Every scratch array is carved from the
    flat ``buf`` (see ``_ncc_layout``; a fresh one if it is None), and the
    gradient is returned in it.
    """
    nx, ny, nz = F.shape
    r = w // 2
    step, reach, shapes = _ncc_layout(F.shape, w, with_grad)
    factors = ((F, None), (G, None), (F, G), (F, F), (G, G))
    # work: x cumulative sums of one quantity at a time, then its y and z
    # ones, then the statistics' products
    cc, work, carry, stats, terms = _carve(buf, shapes)
    top = 0  # x-planes whose cumulative sums have been taken

    def window_sums(q, out):
        """The window sums of the q-th quantity at the slab's planes x0 to x1."""
        f, g = factors[q]
        h = min(reach, top)  # carried planes top-h to top-1
        end = min(x1 + r, nx)  # the slab's windows reach plane end-1
        csum = work[: h + end - top]
        if h:
            csum[:h] = carry[q, :h]
        if g is None:  # summed straight from the input, plane for plane with csum
            src = f[top - h : end]
        else:  # the products, summed in place
            np.multiply(f[top:end], g[top:end], out=csum[h:])
            src = csum
        _cumsum_axis0(src, csum, h)
        if x1 < nx:
            carry[q, : min(reach, end)] = csum[-min(reach, end) :]
        _window_diff(csum, out, 0, r, nx, x0, top - h)
        for axis in (1, 2):
            _box_pass(out, out, work[: x1 - x0], axis, r)
        return out

    for x0 in range(0, nx, step):
        x1 = min(x0 + step, nx)
        s = slice(x0, x1)
        bufs = list(stats[:, : x1 - x0])
        if with_grad:
            bufs += [t[s] for t in terms]
        else:  # e, varG here, takes the buffer of F's sums, dead by then
            bufs.insert(4, bufs[0])
        _window_stats(
            window_sums, partial(_box_counts, F.shape, w, s), eps, cc[s], work[: x1 - x0],
            bufs, with_grad,
        )
        top = min(x1 + r, nx)
    value = float(np.mean(cc))
    if not with_grad:
        return value, None
    # grad = (F*box(a) - box(muF*a) - G*box(e) + box(muG*e)) / F.size, each
    # box sum taken in place, with cc's buffer for its cumulative sums
    for t in terms:
        _box_sum(t, w, t, cc)
    grad, t1, t2, t3 = terms
    grad *= F
    grad -= t1
    t2 *= G
    grad -= t2
    grad += t3
    grad /= F.size
    return value, grad


def ncc(fixed: Volume, warped: Volume, cfg: LossConfig) -> float:
    """Mean local normalized cross-correlation over all voxel-centered windows."""
    if fixed.dims != warped.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs warped {warped.dims}")
    value, _ = _ncc_terms(fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, False)
    return value


class Workspace:
    """The whole-volume arrays that the loss evaluations and Adam steps on
    one grid write, allocated once and reused by every evaluation there.

    ``overall_loss(..., ws=ws)`` writes every whole-volume array into it
    and returns its gradient there, valid until the next evaluation;
    ``adam`` is scratch of the field's shape for ``model.adam_step`` on
    that gradient.  Arrays of phases that never overlap share one pool:
    the warped value and the NCC's scratch (see ``_ncc_layout``) during
    the similarity, then the smoothness' gradient, differences and shifted
    copy, and after the evaluation Adam's scratch in place of the
    differences.  The sampling derivative, which becomes the similarity
    gradient, has its own array.  With the moments Adam keeps in place, a
    48^3 level holds 18 image volumes.
    """

    def __init__(self, dims, ncc_window: int):
        dims = tuple(int(d) for d in dims)
        self.dims, self.ncc_window = dims, ncc_window
        n = math.prod(dims)
        ncc = sum(math.prod(s) for s in _ncc_layout(dims, ncc_window, True)[2])
        pool = np.empty(max(n + ncc, 9 * n))
        self.sample_grad = np.empty(dims + (3,))
        self.value = pool[:n].reshape(dims)
        self.ncc = pool[n : n + ncc]
        self.smooth = pool[: 9 * n].reshape((3,) + dims + (3,))
        self.adam = self.smooth[1]


def similarity_loss(
    fixed: Volume,
    moving: Volume,
    field: DisplacementField,
    cfg: LossConfig,
    *,
    with_grad=True,
    ws: Workspace | None = None,
):
    """Negated local NCC between fixed and the warped moving image.

    Returns (value, gradient w.r.t. the field), the gradient an
    ``(nx, ny, nz, 3)`` array chained through the trilinear sampling
    derivative at each voxel, or None when ``with_grad`` is off.  The warp
    takes its sampling derivative either way; the value-only path does not
    read it.  With a workspace every whole-volume array is one of its own.
    """
    if fixed.dims != field.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs field {field.dims}")
    if ws is not None and (ws.dims, ws.ncc_window) != (field.dims, cfg.ncc_window):
        raise ValueError(
            f"workspace for dims {ws.dims} and ncc_window {ws.ncc_window}, "
            f"given dims {field.dims} and ncc_window {cfg.ncc_window}"
        )
    warped, sample_grad = warp_volume_with_gradient(
        moving, field, out=ws and (ws.value, ws.sample_grad)
    )
    if not with_grad:
        sample_grad = None  # a fresh one is freed before the value pass
    value, dG = _ncc_terms(
        fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, with_grad, ws and ws.ncc
    )
    del warped
    if not with_grad:
        return -value, None
    np.negative(dG, out=dG)
    sample_grad *= dG[..., None]
    return -value, sample_grad


def smoothness_loss(field: DisplacementField, *, with_grad=True, out=None):
    """Mean squared Frobenius norm of the displacement gradient.

    Forward differences in mm with replicate boundary: the last difference
    along each axis is zero, so an axis of one voxel adds none.  Returns
    (value, analytic gradient as an ``(nx, ny, nz, 3)`` array, or None when
    ``with_grad`` is off).  The differences and the shifted copy live in two
    scratch buffers reused for every axis; without the gradient the
    differences are squared in place, in the one buffer.  ``out``, if
    given, is three arrays of the field's shape for the gradient, the
    differences and the shifted copy; otherwise they are fresh, and only
    the differences without the gradient.
    """
    u = field.data
    n_vox = u.size // 3
    value = 0.0
    if out is None:
        out = [np.empty_like(u) for _ in range(3 if with_grad else 1)]
    if with_grad:
        grad, d, scratch = out
        grad.fill(0.0)
    else:
        grad, d = None, out[0]
        scratch = d

    def ax(axis, start, stop):
        idx = [slice(None)] * 4
        idx[axis] = slice(start, stop)
        return tuple(idx)

    for axis in range(3):
        s = field.spacing[axis]
        n = u.shape[axis]
        # d = forward difference / s, zero on the last slice
        np.subtract(u[ax(axis, 1, n)], u[ax(axis, 0, n - 1)], out=d[ax(axis, 0, n - 1)])
        d[ax(axis, 0, n - 1)] /= s
        d[ax(axis, n - 1, n)] = 0.0
        np.multiply(d, d, out=scratch)
        value += float(np.sum(scratch))
        if not with_grad:
            continue
        # grad += 2 * (shifted - d) / (s * n_vox), shifted[i] = d[i-1], 0 at i = 0
        scratch[ax(axis, 1, n)] = d[ax(axis, 0, n - 1)]
        scratch[ax(axis, 0, 1)] = 0.0
        scratch -= d
        scratch *= 2.0
        scratch /= s * n_vox
        grad += scratch
    value /= n_vox
    return value, grad


def overall_loss(
    fixed: Volume,
    moving: Volume,
    field: DisplacementField,
    cfg: LossConfig,
    *,
    with_grad=True,
    ws: Workspace | None = None,
):
    """Similarity plus weighted smoothness; returns (LossValue, gradient).

    The gradient is an ``(nx, ny, nz, 3)`` array on the field's grid, or None
    when ``with_grad`` is off; the value is the same to the bit either way.
    It is not checked for finiteness: a caller that steps on it checks the
    loss value first.  With a workspace for the field's grid, every
    whole-volume array of the evaluation is one of the workspace's, the
    gradient too; without one they are fresh.
    """
    sim, sim_grad = similarity_loss(fixed, moving, field, cfg, with_grad=with_grad, ws=ws)
    smooth, grad = smoothness_loss(field, with_grad=with_grad, out=ws and ws.smooth)
    total = sim + cfg.reg_weight * smooth
    if with_grad:
        grad *= cfg.reg_weight
        grad += sim_grad
    return LossValue(total=total, similarity=sim, smoothness=smooth), grad
