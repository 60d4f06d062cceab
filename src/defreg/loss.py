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
Summation order is fixed, so results are bit-reproducible.  The window
statistics and gradients are computed in place, each temporary dropped
after its last use.  Without the gradient, a volume of more than one warp
slab streams the NCC over the warp's x-slabs, carrying the cumulative sums
along x from slab to slab, so the value has the one-block bits; its window
statistics are a few slabs, and only the correlation map is a whole
volume.  Measured peaks of one ``overall_loss`` evaluation, in image
volumes above its inputs: 18.4 on both paths while the field is one warp
slab (48^3), where the whole-volume warp sets the peak; at 160x192x160,
12.0 with the gradient, in the NCC's gradient pass while the 3-volume
sampling derivative is alive, and 4.5 without it, in the warp, while the
value and its derivative are alive (the NCC's value pass peaks at 1.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume
from .warp import DisplacementField, _slab_planes, warp_volume_with_gradient

__all__ = [
    "LossConfig",
    "LossValue",
    "ncc",
    "similarity_loss",
    "smoothness_loss",
    "overall_loss",
]


@dataclass(frozen=True)
class LossConfig:
    """Knobs of the objective.

    ncc_window: cubic window side in voxels (odd)
    reg_weight: weight of the smoothness term in the total loss
    variance_floor: lower bound on each window's std-dev product
    """

    ncc_window: int = 9
    reg_weight: float = 1.0
    variance_floor: float = 1e-5

    def __post_init__(self):
        if self.ncc_window < 1 or self.ncc_window % 2 == 0:
            raise ValueError(f"ncc_window must be odd and >= 1, got {self.ncc_window}")
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


def _cumsum_axis0(a: np.ndarray, out: np.ndarray) -> None:
    """``np.cumsum(a, axis=0, out=out)``, added slab by slab.

    The same additions in the same order, but streaming through memory:
    numpy accumulates along the outer axis with a stride of one slab, which
    is several times slower on volumes.
    """
    out[0] = a[0]
    for i in range(1, len(a)):
        np.add(out[i - 1], a[i], out=out[i])


def _box_pass(src: np.ndarray, out: np.ndarray, csum: np.ndarray, axis: int, r: int) -> None:
    """Windowed sums of ``src`` along ``axis``, window radius ``r``, into
    ``out`` (which may be ``src``), with ``csum`` as the cumulative sums.

    C = cumsum, then out[i] = C[min(i+r, n-1)] - C[i-r-1], the second term
    only where i-r-1 >= 0, written with slices into one output.
    """
    if axis:
        np.cumsum(src, axis=axis, out=csum)
    else:
        _cumsum_axis0(src, csum)
    n = out.shape[axis]

    def ax(start, stop):
        idx = [slice(None)] * 3
        idx[axis] = slice(start, stop)
        return tuple(idx)

    m = max(n - r, 0)  # windows whose upper edge is inside the axis
    out[ax(0, m)] = csum[ax(r, n)]
    out[ax(m, n)] = csum[ax(n - 1, n)]
    if n > r + 1:
        out[ax(r + 1, n)] -= csum[ax(0, n - r - 1)]


def _box_sum(a: np.ndarray, w: int) -> np.ndarray:
    """Separable sliding-window sum with window side ``w``, clipped at borders.

    One buffer holds the cumulative sums, the other the windowed sums.
    """
    if w == 1:
        return a.copy()
    r = w // 2
    csum = np.empty_like(a)
    out = np.empty_like(a)
    for axis in range(3):
        _box_pass(out if axis else a, out, csum, axis, r)
    return out


def _box_counts(dims, w: int, planes=slice(None)) -> np.ndarray:
    """Number of in-grid voxels in each clipped window, at the given x-planes."""
    r = w // 2
    per_axis = []
    for n in dims:
        i = np.arange(n)
        per_axis.append(np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1.0)
    cx = per_axis[0][planes]
    return cx[:, None, None] * per_axis[1][None, :, None] * per_axis[2][None, None, :]


def _box_sums(F: np.ndarray, G: np.ndarray, w: int):
    """The window sums of F, G, F*G, F*F and G*G, in that order, one at a time."""
    yield _box_sum(F, w)
    yield _box_sum(G, w)
    yield _box_sum(F * G, w)
    yield _box_sum(F * F, w)
    yield _box_sum(G * G, w)


def _window_stats(sums, n: np.ndarray, eps: float, with_grad: bool):
    """Per-window correlation and the statistics its gradient reuses.

    ``sums`` yields the window sums of F, G, F*G, F*F and G*G in that order,
    each a fresh array, and ``n`` holds the windows' voxel counts; neither
    is used by the caller afterwards.  Returns (cc, d, varG, muF, muG,
    floored), floored None without ``with_grad``.  The arithmetic is that of
    the closed forms in the comments, in the same order, with each
    intermediate updated in place and dropped after its last use (a buffer
    keeps one name at a time, so ``del`` frees it).
    """
    sF = next(sums)
    sG = next(sums)
    muF = sF / n
    muG = sG / n
    del n
    cc = next(sums)  # cross = box(F*G) - muF*sG
    cc -= muF * sG
    d = next(sums)  # varF = max(box(F*F) - muF*sF, 0)
    d -= muF * sF
    np.maximum(d, 0.0, out=d)
    del sF
    varG = next(sums)  # varG = max(box(G*G) - muG*sG, 0)
    varG -= muG * sG
    np.maximum(varG, 0.0, out=varG)
    del sG
    d *= varG  # d = max(sqrt(varF*varG), eps)
    np.sqrt(d, out=d)
    floored = d < eps if with_grad else None
    np.maximum(d, eps, out=d)
    cc /= d  # cc = cross / d
    return cc, d, varG, muF, muG, floored


def _ncc_value_in_slabs(F: np.ndarray, G: np.ndarray, w: int, eps: float, step: int) -> float:
    """``_ncc_terms``' value, computed over x-slabs of ``step`` planes.

    The window sums along y and z and the window statistics are pointwise
    in x, so each slab runs ``_box_pass`` and ``_window_stats`` on its own
    planes.  Along x, each quantity's cumulative sum is carried from plane
    to plane across slabs in a ring of the planes that a slab's windows
    reach, so every sum is added in the whole-volume order.  Each slab's
    correlation goes into one whole-volume array, whose mean is the value:
    the same bits as the one-block pass, in 1 volume and a few slabs.
    """
    nx, ny, nz = F.shape
    r = w // 2
    ring = min(step + 2 * r + 1, nx)  # planes x0-r-1 .. x1+r-1 of a slab
    prefix = np.empty((5, ring, ny, nz)) if w > 1 else None
    csum = np.empty((step, ny, nz)) if w > 1 else None
    cc = np.empty(F.shape)
    top = 0  # x-planes whose cumulative sums have been taken

    def slab_sums(x0, x1):
        """The window sums of F, G, F*G, F*F and G*G at planes x0 to x1."""
        for q in range(5):
            s = np.empty((x1 - x0, ny, nz))
            for i in range(x0, x1):
                hi = prefix[q, min(i + r, nx - 1) % ring]
                if i > r:
                    np.subtract(hi, prefix[q, (i - r - 1) % ring], out=s[i - x0])
                else:
                    s[i - x0] = hi
            _box_pass(s, s, csum[: x1 - x0], 1, r)
            _box_pass(s, s, csum[: x1 - x0], 2, r)
            yield s

    for x0 in range(0, nx, step):
        x1 = min(x0 + step, nx)
        if w == 1:  # a window of one voxel: its sums are the values
            sums = _box_sums(F[x0:x1], G[x0:x1], w)
        else:
            end = min(x1 + r, nx)  # the slab's windows reach plane end-1
            for k in range(top, end):
                f, g = F[k], G[k]
                for q, a in enumerate((f, g, f * g, f * f, g * g)):
                    if k:
                        np.add(prefix[q, (k - 1) % ring], a, out=prefix[q, k % ring])
                    else:
                        prefix[q, 0] = a
            top = end
            sums = slab_sums(x0, x1)
        n = _box_counts(F.shape, w, slice(x0, x1))
        cc[x0:x1] = _window_stats(sums, n, eps, False)[0]
    return float(np.mean(cc))


def _ncc_terms(F: np.ndarray, G: np.ndarray, w: int, eps: float, with_grad: bool):
    """Mean windowed correlation of F and G, optionally with d(value)/dG.

    Without the gradient, a volume of more than one warp slab is
    streamed over x-slabs (``_ncc_value_in_slabs``); otherwise the window
    statistics are whole-volume arrays.
    """
    step = _slab_planes(F.shape)
    if not with_grad and step < F.shape[0]:
        return _ncc_value_in_slabs(F, G, w, eps, step), None
    cc, d, varG, muF, muG, floored = _window_stats(
        _box_sums(F, G, w), _box_counts(F.shape, w), eps, with_grad
    )
    value = float(np.mean(cc))
    if not with_grad:
        return value, None
    # d cc(x)/d G_j = (F_j - muF)/d - cc * (G_j - muG)/varG for j in window x
    # (second term absent where the floor is active: d is locally constant)
    np.copyto(varG, 1.0, where=~(varG > 0))  # safe divisor
    e = cc  # e = where(floored, 0, cc/varG), in cc's buffer
    del cc
    e /= varG
    np.copyto(e, 0.0, where=floored)
    del varG, floored
    a = np.divide(1.0, d, out=d)  # a = 1/d, in d's buffer
    del d
    # grad = (F*box(a) - box(muF*a) - G*box(e) + box(muG*e)) / F.size
    grad = _box_sum(a, w)
    grad *= F
    muF *= a
    del a
    grad -= _box_sum(muF, w)
    del muF
    muG *= e
    t = _box_sum(e, w)
    del e
    t *= G
    grad -= t
    del t
    grad += _box_sum(muG, w)
    grad /= F.size
    return value, grad


def ncc(fixed: Volume, warped: Volume, cfg: LossConfig) -> float:
    """Mean local normalized cross-correlation over all voxel-centered windows."""
    if fixed.dims != warped.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs warped {warped.dims}")
    value, _ = _ncc_terms(fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, False)
    return value


def similarity_loss(
    fixed: Volume, moving: Volume, field: DisplacementField, cfg: LossConfig, *, with_grad=True
):
    """Negated local NCC between fixed and the warped moving image.

    Returns (value, gradient w.r.t. the field), the gradient an
    ``(nx, ny, nz, 3)`` array chained through the trilinear sampling
    derivative at each voxel, or None when ``with_grad`` is off.  The warp
    takes its sampling derivative either way; the value-only path frees it
    before the NCC runs.
    """
    if fixed.dims != field.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs field {field.dims}")
    warped, sample_grad = warp_volume_with_gradient(moving, field)
    if not with_grad:
        sample_grad = None  # freed before the value pass, which never reads it
    value, dG = _ncc_terms(
        fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, with_grad
    )
    del warped
    if not with_grad:
        return -value, None
    np.negative(dG, out=dG)
    sample_grad *= dG[..., None]
    return -value, sample_grad


def smoothness_loss(field: DisplacementField, *, with_grad=True):
    """Mean squared Frobenius norm of the displacement gradient.

    Forward differences in mm with replicate boundary (the last difference
    along each axis is zero).  Returns (value, analytic gradient as an
    ``(nx, ny, nz, 3)`` array, or None when ``with_grad`` is off).  The
    differences and the shifted copy live in two scratch buffers reused for
    every axis; without the gradient the differences are squared in place,
    in the one buffer.
    """
    if min(field.dims) < 2:
        raise ValueError(f"smoothness needs dims >= 2 per axis, got {field.dims}")
    u = field.data
    n_vox = u.size // 3
    value = 0.0
    grad = np.zeros_like(u) if with_grad else None
    d = np.empty_like(u)
    scratch = np.empty_like(u) if with_grad else d

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
    fixed: Volume, moving: Volume, field: DisplacementField, cfg: LossConfig, *, with_grad=True
):
    """Similarity plus weighted smoothness; returns (LossValue, gradient).

    The gradient is an ``(nx, ny, nz, 3)`` array on the field's grid, or None
    when ``with_grad`` is off; the value is the same to the bit either way.
    It is not checked for finiteness: a caller that steps on it checks the
    loss value first.
    """
    sim, sim_grad = similarity_loss(fixed, moving, field, cfg, with_grad=with_grad)
    smooth, grad = smoothness_loss(field, with_grad=with_grad)
    total = sim + cfg.reg_weight * smooth
    if with_grad:
        grad *= cfg.reg_weight
        grad += sim_grad
    return LossValue(total=total, similarity=sim, smoothness=smooth), grad

