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
Summation order is fixed, so results are bit-reproducible.  Every pass has
a contiguous inner loop: along x the cumulative sums are plane adds
(``_cumsum_axis0``); along y and z a block of a slab's planes is copied
into the first half of the slab pass's work buffer with y outermost,
summed there by the same plane adds, and its window differences are
written into the second half, from which they are copied back into the
first half with z outermost, summed and differenced the same way, and
copied back into the slab.  The adds are those of ``cumsum`` in its order,
so the bits are too.  On a 2-CPU x86-64 host a window sum's y and z passes
take 0.64 ms at 48^3 against 1.05 with ``cumsum``, though 0.07 against
0.03 at 12^3, where the calls cost more than the data.  Every window
sum goes through one x-slab pass (``_slab_sums``): it takes the window
statistics on every grid, and with the gradient a second run of it takes
the gradient's four box sums (see ``_ncc_terms``).  One routine,
``_mean_var``, takes the window means and variances of both images.  The
fixed image's do not depend on the field: a ``Workspace`` takes them once,
and an evaluation into it takes 3 window sums in place of 5 (7 in place of
9 with the gradient).  Measured peaks with fresh arrays, in image volumes
above the inputs: the NCC pass 7.4 with the gradient and 7.2
without at 48^3 (one slab), 5.4 and 1.5 at 160x192x160.  One
``overall_loss`` evaluation: 11.4 with the gradient and 8.2 without at
48^3, 9.4 and 4.1 at 160x192x160; with the gradient the NCC pass beside
the warped image and its sampling derivative sets it (the smoothness
gradient, its differences and its x-slab beside the similarity gradient
take 10 and 9).  A ``Workspace`` holds 13 volumes at 48^3 and 11.3 at
160x192x160, the fixed image's two statistics among them, and an
evaluation into it allocates only the warp's slab arrays: 2.6 volumes at
48^3, 0.14 at 160x192x160.
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


def _cumsum_axis0(a: np.ndarray, out: np.ndarray, start: int) -> None:
    """``np.cumsum(a, axis=0, out=out)``, added slab by slab, from plane
    ``start`` on: earlier planes of ``out`` already hold their sums (``a``
    may be ``out``).

    The same additions in the same order, but streaming through memory:
    numpy accumulates along the outer axis with a stride of one slab, which
    is several times slower on volumes.  Iterating over the arrays draws
    the planes in about half the time of indexing each one.
    """
    if not start:
        out[0] = a[0]
    i = max(start, 1)
    for prev, plane, dst in zip(out[i - 1 :], a[i:], out[i:]):
        np.add(prev, plane, out=dst)


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


def _mean_var(box_X, box_XX, counts, mu, var, sX, tmp) -> None:
    """An image's window means and variances at one slab's planes:
    mu = box(X)/n and var = max(box(X*X) - mu*box(X), 0), into ``mu`` and
    ``var``; the NCC takes them for the fixed image F and the warped image
    G alike.

    ``box_X(out)`` and ``box_XX(out)`` return the window sums of X and X*X
    in ``out``, and ``counts`` holds the windows' voxel counts (it may be
    ``mu``, which the means overwrite).  ``sX`` receives the sums of X,
    which stay there for the caller, and ``tmp`` the product that is
    subtracted (the window sums may overwrite it).
    """
    sX = box_X(sX)
    np.divide(sX, counts, out=mu)
    var = box_XX(var)
    var -= np.multiply(mu, sX, out=tmp)
    np.maximum(var, 0.0, out=var)


def _window_stats(sums, counts, muF, varF, eps: float, cc, tmp, bufs, with_grad: bool) -> None:
    """Per-window correlation and, with the gradient, its pointwise terms.

    ``sums`` are three functions, each ``box(out)`` returning the window
    sums of G, F*G and G*G in ``out``; ``counts`` holds the windows' voxel
    counts (it may be the buffer of muG, which the means overwrite), and
    ``muF`` and ``varF`` are the fixed image's window means and variances.
    G's come from the same routine as F's, ``_mean_var``, and then the
    cross term is taken.  The correlation goes into ``cc``.  ``bufs`` holds
    arrays of its shape: the sums of G, then with the gradient the four
    that get its terms a = 1/d, muF*a, e = where(floored, 0, cc/varG) and
    muG*e, and without it two that get varG, then d, and muG.  ``tmp``, of
    the same shape, holds each product that is subtracted (the window sums
    may overwrite it).  The arithmetic is that of the closed forms in the
    comments, in the same order, each intermediate written in its
    destination by one operation and then updated in place.  ``muF`` and
    ``varF`` are only read: with the gradient they may be the arrays of
    muF*a and a, which are written after their last read.
    """
    box_G, box_FG, box_GG = sums
    if with_grad:
        sG, a, muFa, e, muG = bufs
    else:
        sG, e, muG = bufs
        a = e  # d takes the buffer of varG, dead once d is formed
    varG = e
    _mean_var(box_G, box_GG, counts, muG, varG, sG, tmp)  # sG stays for the cross term
    box_FG(cc)  # cross = box(F*G) - muF*sG
    cc -= np.multiply(muF, sG, out=tmp)
    d = np.multiply(varF, varG, out=a)  # d = max(sqrt(varF*varG), eps)
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
    np.multiply(muF, a, out=muFa)
    muG *= e


def _ncc_layout(dims, w: int, quantities: int, slab_arrays: int, volumes: int):
    """Slab planes, carried planes and the shapes of a slab pass's scratch
    arrays on a grid of ``dims``, in the order they are carved from one flat
    buffer: the work buffer, the carried cumulative sums of ``quantities``,
    ``slab_arrays`` arrays of one slab and ``volumes`` whole volumes.  An
    unused array has no voxels.  The slabs are cut by ``warp._slab_planes``
    within ``warp._SLAB_VOXELS``, read at each call; a grid of one slab
    takes nx planes, no more.  The work buffer holds a slab's planes and
    the r planes after it, at least two planes, so that each half holds a
    transposed block of at least one x-plane: only a grid of one x-plane
    takes a plane more than it has."""
    nx, ny, nz = dims
    step = _slab_planes(nx, ny * nz, warp._SLAB_VOXELS)
    reach = min(2 * (w // 2) + 1, nx)  # planes of x cumulative sums carried to the next slab
    carried = step < nx
    return step, reach, [
        (max(min(step + reach, nx), 2), ny, nz),
        (quantities if carried else 0, reach, ny, nz),
        (slab_arrays, step, ny, nz),
        (volumes,) + tuple(dims),
    ]


def _ncc_scratch(dims, w: int, with_grad: bool, cached: bool):
    """``_ncc_layout`` of ``_ncc_terms``: the carried sums of G, F*G and
    G*G, and of F and F*F unless F's statistics are ``cached``, or of the
    gradient's four terms if they are more; the sums of G beside the
    gradient's terms, or G's three statistics and, uncached, F's two; the
    correlation and the gradient's four whole-volume terms."""
    quantities = 3 if cached else 5
    if not with_grad:
        return _ncc_layout(dims, w, quantities, quantities, 1)
    return _ncc_layout(dims, w, max(quantities, 4), 1, 5)


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


def _slab_sums(factors, w: int, step: int, reach: int, work, carry):
    """Each x-slab's planes, with one window-sum function per quantity.

    The q-th quantity is the product of the two arrays of ``factors[q]``,
    or the first alone if the second is None; its function ``box(out)``
    returns its window sums at the slab's planes in ``out``.  The window
    sums along y and z are pointwise in x, so each slab takes them on its
    own planes, a block of planes at a time: the block goes into the first
    half of ``work`` with y outermost, its cumulative sums are taken there
    by plane adds and its window differences are written into the second
    half; those go back into the first half with z outermost, and the same
    steps give the block's window sums, which are copied into ``out``.
    Along x, each quantity's cumulative sums are taken in the reused
    ``work`` buffer, and their last 2r+1 planes, which the next
    slab's windows reach back to, are carried to it in ``carry``, so every
    sum is added in the whole-volume order.  A slab reads its factors only
    from plane ``top`` on, the previous slab's end plus r, so ``out`` may
    be a factor's own planes at the slab.  The functions of a slab are
    valid until the next one is drawn.
    """
    nx, ny, nz = factors[0][0].shape
    r = w // 2
    top = 0  # x-planes whose cumulative sums have been taken

    def window_sums(q, out):
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
        # pointwise in x: per block of the slab's planes, the y and then the
        # z sums, each taken with its axis outermost in the first half of
        # ``work`` and differenced into the second half, which the next
        # axis reads
        flat = work.reshape(-1)
        half = len(work) // 2
        b = _slab_planes(len(out), 1, half)
        for i in range(0, len(out), b):
            block = out[i : i + b]
            src = block.transpose(1, 0, 2)  # (y, x, z)
            for back in ((2, 1, 0), (1, 2, 0)):  # to (z, x, y), then to (x, y, z)
                csum = flat[: src.size].reshape(src.shape)
                np.copyto(csum, src)
                _cumsum_axis0(csum, csum, 0)
                diff = flat[half * ny * nz :][: src.size].reshape(src.shape)
                _window_diff(csum, diff, 0, r, len(src))
                src = diff.transpose(back)
            np.copyto(block, src)
        return out

    for x0 in range(0, nx, step):
        x1 = min(x0 + step, nx)
        yield slice(x0, x1), [partial(window_sums, q) for q in range(len(factors))]
        top = min(x1 + r, nx)


def _fill_fixed_mean_var(F: np.ndarray, w: int, out, buf) -> None:
    """The fixed image's window means and variances over the whole grid,
    into ``out[0]`` and ``out[1]``, by the slab pass of ``_ncc_terms``, with
    every scratch array carved from the flat ``buf``."""
    step, reach, shapes = _ncc_layout(F.shape, w, 2, 1, 0)
    work, carry, stats, _ = _carve(buf, shapes)
    muF, varF = out
    for s, (box_F, box_FF) in _slab_sums(((F, None), (F, F)), w, step, reach, work, carry):
        n = s.stop - s.start
        counts = _box_counts(F.shape, w, s, out=muF[s])  # divided in place
        _mean_var(box_F, box_FF, counts, muF[s], varF[s], stats[0, :n], work[:n])


def _ncc_terms(
    F: np.ndarray, G: np.ndarray, w: int, eps: float, with_grad: bool, buf=None, fixed=None
):
    """Mean windowed correlation of F and G, optionally with d(value)/dG.

    One slab pass (``_slab_sums``) takes the window statistics; each slab
    writes its correlation, and with the gradient its four pointwise terms,
    into whole-volume arrays.  With the gradient a second slab pass then
    writes each term's window sums over the term, slab by slab, and forms
    the gradient in the first term's array.  ``fixed``, if given, holds F's
    window means and variances on the whole grid (``_fill_fixed_mean_var``);
    otherwise each slab computes its own first, by the same formula.  Every
    scratch array is carved from the flat ``buf`` (see ``_ncc_scratch``; a
    fresh one if it is None), and the gradient is returned in it.
    """
    cached = fixed is not None
    step, reach, shapes = _ncc_scratch(F.shape, w, with_grad, cached)
    factors = ((G, None), (F, G), (G, G)) + (() if cached else ((F, None), (F, F)))
    # work: x cumulative sums of one quantity at a time, then its y and z
    # ones, then the statistics' products
    work, carry, stats, (cc, *terms) = _carve(buf, shapes)
    for s, sums in _slab_sums(factors, w, step, reach, work, carry):
        tmp = work[: s.stop - s.start]
        bufs = list(stats[:, : len(tmp)])
        if with_grad:
            bufs += [t[s] for t in terms]
        if cached:
            muF, varF = fixed[0][s], fixed[1][s]
        else:  # into the arrays of muF*a and a, or two slab arrays of their own
            muF, varF = (bufs[2], bufs[1]) if with_grad else (bufs.pop(), bufs.pop())
        # once per slab, in the buffer of muG, which then divides them in place
        counts = _box_counts(F.shape, w, s, out=bufs[-1])
        if not cached:  # F's sums take the buffer of G's, which are taken after them
            _mean_var(*sums[3:], counts, muF, varF, bufs[0], tmp)
        _window_stats(sums[:3], counts, muF, varF, eps, cc[s], tmp, bufs, with_grad)
    value = float(np.mean(cc))
    if not with_grad:
        return value, None
    # grad = (F*box(a) - box(muF*a) - G*box(e) + box(muG*e)) / F.size, a
    # second slab pass: each term's window sums written over its own planes,
    # which the later slabs' sums, reading from plane x1 + r on, never read
    for s, sums in _slab_sums([(t, None) for t in terms], w, step, reach, work, carry):
        grad, t1, t2, t3 = (box(t[s]) for box, t in zip(sums, terms))
        grad *= F[s]
        grad -= t1
        t2 *= G[s]
        grad -= t2
        grad += t3
        grad /= F.size
    return value, terms[0]


def ncc(fixed: Volume, warped: Volume, cfg: LossConfig) -> float:
    """Mean local normalized cross-correlation over all voxel-centered windows."""
    if fixed.dims != warped.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs warped {warped.dims}")
    value, _ = _ncc_terms(fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, False)
    return value


def _along(axis: int, start, stop) -> tuple:
    """Index of a field's planes start to stop-1 along ``axis``."""
    idx = [slice(None)] * 4
    idx[axis] = slice(start, stop)
    return tuple(idx)


def _smooth_layout(shape):
    """Shapes of ``smoothness_loss``' scratch on a field of ``shape``: the
    gradient, the differences and the gradient's x-slab, cut by
    ``warp._slab_planes`` within ``warp._SLAB_VOXELS`` elements."""
    step = _slab_planes(shape[0], math.prod(shape[1:]), warp._SLAB_VOXELS)
    return [shape, shape, (step,) + shape[1:]]


class Workspace:
    """The whole-volume arrays that the loss evaluations on one fixed image
    write, allocated once and reused by every evaluation there, and that
    image's window statistics.

    The statistics, F's window means and variances (``fixed_stats``), are
    taken once, when the workspace is built; ``similarity_loss`` reads them
    in place of two of the NCC's five window sums, and refuses a workspace
    built for another fixed image.  ``overall_loss(..., ws=ws)`` writes
    every whole-volume array into it and returns its gradient there, valid
    until the next evaluation.  Arrays of phases that never overlap share
    one pool: the warped value and the NCC's scratch (see
    ``_ncc_scratch``; the statistics' own pass takes its scratch there
    too), then the smoothness' gradient, differences and gradient slab.  The
    sampling derivative, which becomes the similarity gradient, has its own
    array.  With the moments Adam keeps in place, a 48^3 level holds 19
    image volumes: the pool's 8, the derivative's 3, the statistics' 2 and
    the moments' 6.
    """

    def __init__(self, fixed: Volume, ncc_window: int):
        dims = fixed.dims
        self.fixed, self.ncc_window = fixed.data, ncc_window
        n = math.prod(dims)
        ncc = sum(math.prod(s) for s in _ncc_scratch(dims, ncc_window, True, True)[2])
        smooth = _smooth_layout(dims + (3,))
        pool = np.empty(max(n + ncc, sum(math.prod(s) for s in smooth)))
        self.sample_grad = np.empty(dims + (3,))
        self.fixed_stats = np.empty((2,) + dims)
        self.value = pool[:n].reshape(dims)
        self.ncc = pool[n : n + ncc]
        self.smooth = _carve(pool, smooth)
        _fill_fixed_mean_var(fixed.data, ncc_window, self.fixed_stats, self.ncc)


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
    read it.  With a workspace every whole-volume array is one of its own,
    and the fixed image's window statistics are its cached ones.  The
    chain rule multiplies the sampling derivative by -dG a component at a
    time, each a long loop, not a broadcast over the length-3 axis.
    """
    if fixed.dims != field.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs field {field.dims}")
    if ws is not None and ws.fixed is not fixed.data:
        raise ValueError(
            "workspace built for another fixed image: its window statistics are that image's"
        )
    if ws is not None and ws.ncc_window != cfg.ncc_window:
        raise ValueError(
            f"workspace for ncc_window {ws.ncc_window}, given ncc_window {cfg.ncc_window}"
        )
    warped, sample_grad = warp_volume_with_gradient(
        moving, field, out=ws and (ws.value, ws.sample_grad)
    )
    if not with_grad:
        sample_grad = None  # a fresh one is freed before the value pass
    value, dG = _ncc_terms(
        fixed.data, warped.data, cfg.ncc_window, cfg.variance_floor, with_grad,
        ws and ws.ncc, ws and ws.fixed_stats,
    )
    del warped
    if not with_grad:
        return -value, None
    np.negative(dG, out=dG)
    for c in range(3):
        sample_grad[..., c] *= dG
    return -value, sample_grad


def smoothness_loss(field: DisplacementField, *, with_grad=True, out=None):
    """Mean squared Frobenius norm of the displacement gradient.

    Forward differences in mm with replicate boundary: the last difference
    along each axis is zero, so an axis of one voxel adds none.  Returns
    (value, analytic gradient as an ``(nx, ny, nz, 3)`` array, or None when
    ``with_grad`` is off).  Per axis the differences are taken in one
    reused buffer, divided by the spacing unless it is 1; the gradient
    reads them an x-slab at a time, one subtraction, one division and one
    sum into the gradient per slab, and then they are squared in place and
    summed over the whole array.  ``out``, if given, holds the arrays of
    ``_smooth_layout``: the gradient, the differences and the gradient's
    slab; otherwise they are fresh, and only the differences without the
    gradient.  Without the gradient the differences take ``out[0]``.
    """
    u = field.data
    n_vox = u.size // 3
    value = 0.0
    if out is None:
        out = [np.empty(s) for s in _smooth_layout(u.shape)[: 3 if with_grad else 1]]
    grad, d, slab = out if with_grad else (None, out[0], None)

    for axis in range(3):
        s = field.spacing[axis]
        n = u.shape[axis]
        # d = forward difference / s, zero on the last slice
        inner = _along(axis, 0, n - 1)
        np.subtract(u[_along(axis, 1, n)], u[inner], out=d[inner])
        if s != 1.0:
            d[inner] /= s
        d[_along(axis, n - 1, n)] = 0.0
        if with_grad:
            # grad += (shifted - d) / (s * n_vox / 2), shifted[i] = d[i-1] and
            # 0 at i = 0: an exact halving, so each term rounds as the closed
            # form 2 * (shifted - d) / (s * n_vox) does; the first axis adds
            # to 0.0, as to the closed form's zero gradient
            c = s * n_vox / 2
            for x0 in range(0, len(d), len(slab)):
                x1 = min(x0 + len(slab), len(d))
                # along x a slab after the first reads the plane before it
                dv = d[x0 - 1 if x0 and not axis else x0 : x1]
                t = slab[: x1 - x0]
                m = dv.shape[axis]
                first = t.shape[axis] - (m - 1)  # 1 if t holds the axis's first plane
                np.subtract(
                    dv[_along(axis, 0, m - 1)], dv[_along(axis, 1, m)],
                    out=t[_along(axis, first, None)],
                )
                if first:
                    np.subtract(0.0, dv[_along(axis, 0, 1)], out=t[_along(axis, 0, 1)])
                t /= c
                g = grad[x0:x1]
                np.add(g if axis else 0.0, t, out=g)
        np.multiply(d, d, out=d)
        value += float(np.sum(d))
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
    loss value first.  With a workspace for the fixed image, every
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
