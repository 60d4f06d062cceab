"""Self-supervised registration objective and its analytic gradients.

The objective has two parts: a windowed normalized-cross-correlation
similarity between the fixed image and the warped moving image (negated so
minimization improves alignment), and a displacement-gradient smoothness
penalty.  Both expose exact analytic gradients with respect to the
displacement field, as plain ``(nx, ny, nz, 3)`` arrays on the field's
grid, verified against finite differences in the tests.

Window statistics use separable box sums, O(N) per axis instead of
O(N * window^3); windows are clipped at the borders rather than padded.
Along each axis a cumulative sum is taken once and each window is the
difference of two of its entries, formed with slices into one output (no
running add/subtract window, whose rounding would drift along the axis).
Summation order is fixed, so results are bit-reproducible.  The window
statistics and gradients are computed in place, each temporary dropped
after its last use; one evaluation of ``overall_loss`` peaks near 18
image volumes of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume
from .warp import DisplacementField, warp_volume_with_gradient

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


def _box_sum(a: np.ndarray, w: int) -> np.ndarray:
    """Separable sliding-window sum with window side ``w``, clipped at borders.

    Per axis: C = cumsum, then out[i] = C[min(i+r, n-1)] - C[i-r-1], the
    second term only where i-r-1 >= 0, written with slices into one output.
    One buffer holds the cumulative sums, the other the windowed sums.
    """
    if w == 1:
        return a.copy()
    r = w // 2
    csum = np.empty_like(a)
    out = np.empty_like(a)
    for axis in range(3):
        if axis:
            np.cumsum(out, axis=axis, out=csum)
        else:
            _cumsum_axis0(a, csum)
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
    return out


def _box_counts(dims, w: int) -> np.ndarray:
    """Number of in-grid voxels in each clipped window."""
    r = w // 2
    per_axis = []
    for n in dims:
        i = np.arange(n)
        per_axis.append(np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1.0)
    return per_axis[0][:, None, None] * per_axis[1][None, :, None] * per_axis[2][None, None, :]


def _ncc_terms(F: np.ndarray, G: np.ndarray, w: int, eps: float, with_grad: bool):
    """Mean windowed correlation of F and G, optionally with d(value)/dG.

    The arithmetic is that of the closed forms in the comments, in the same
    order, with each intermediate updated in place and dropped after its
    last use (a buffer keeps one name at a time, so ``del`` frees it).
    """
    n = _box_counts(F.shape, w)
    sF = _box_sum(F, w)
    sG = _box_sum(G, w)
    muF = sF / n
    muG = sG / n
    del n
    cc = _box_sum(F * G, w)  # cross = box(F*G) - muF*sG
    cc -= muF * sG
    d = _box_sum(F * F, w)  # varF = max(box(F*F) - muF*sF, 0)
    d -= muF * sF
    np.maximum(d, 0.0, out=d)
    del sF
    varG = _box_sum(G * G, w)  # varG = max(box(G*G) - muG*sG, 0)
    varG -= muG * sG
    np.maximum(varG, 0.0, out=varG)
    del sG
    d *= varG  # d = max(sqrt(varF*varG), eps)
    np.sqrt(d, out=d)
    floored = d < eps if with_grad else None
    np.maximum(d, eps, out=d)
    cc /= d  # cc = cross / d
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


def similarity_loss(fixed: Volume, moving: Volume, field: DisplacementField, cfg: LossConfig):
    """Negated local NCC between fixed and the warped moving image.

    Returns (value, gradient w.r.t. the field), the gradient an
    ``(nx, ny, nz, 3)`` array chained through the trilinear sampling
    derivative at each voxel.
    """
    if fixed.dims != field.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs field {field.dims}")
    warped, sample_grad = warp_volume_with_gradient(moving, field)
    value, dG = _ncc_terms(fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, True)
    del warped
    np.negative(dG, out=dG)
    sample_grad *= dG[..., None]
    return -value, sample_grad


def smoothness_loss(field: DisplacementField):
    """Mean squared Frobenius norm of the displacement gradient.

    Forward differences in mm with replicate boundary (the last difference
    along each axis is zero).  Returns (value, analytic gradient as an
    ``(nx, ny, nz, 3)`` array).  The differences and the shifted copy live in
    two scratch buffers reused for every axis.
    """
    if min(field.dims) < 2:
        raise ValueError(f"smoothness needs dims >= 2 per axis, got {field.dims}")
    u = field.data
    n_vox = u.size // 3
    value = 0.0
    grad = np.zeros_like(u)
    d = np.empty_like(u)
    scratch = np.empty_like(u)

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
        # grad += 2 * (shifted - d) / (s * n_vox), shifted[i] = d[i-1], 0 at i = 0
        scratch[ax(axis, 1, n)] = d[ax(axis, 0, n - 1)]
        scratch[ax(axis, 0, 1)] = 0.0
        scratch -= d
        scratch *= 2.0
        scratch /= s * n_vox
        grad += scratch
    value /= n_vox
    return value, grad


def overall_loss(fixed: Volume, moving: Volume, field: DisplacementField, cfg: LossConfig):
    """Similarity plus weighted smoothness; returns (LossValue, gradient).

    The gradient is an ``(nx, ny, nz, 3)`` array on the field's grid.  It is
    not checked for finiteness: a caller that steps on it checks the loss
    value first.
    """
    sim, sim_grad = similarity_loss(fixed, moving, field, cfg)
    smooth, grad = smoothness_loss(field)
    total = sim + cfg.reg_weight * smooth
    grad *= cfg.reg_weight
    grad += sim_grad
    return LossValue(total=total, similarity=sim, smoothness=smooth), grad

