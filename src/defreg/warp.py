"""Displacement fields, trilinear resampling and Jacobian-determinant analysis.

A displacement field u lives on the fixed-image grid and maps fixed-space
points into moving space: the warped image at grid point x is the moving
image sampled at world(x) + u(x).  A field is a ``volume._Grid`` with 3
channels, so it shares the volume's validation, freezing and raw file
format.  Displacements are stored in millimeters, so values carry unchanged
across grid resolutions.  World coordinates are index * spacing + origin on
every grid; ``_world_to_index`` is the one map back to voxel coordinates,
used by warping (for the offset between the field's and the moving image's
origins) and landmark transfer.

Sampling clamps out-of-grid coordinates to the border.  The derivative of a
sample with respect to its coordinate is the slope of one interpolation
cell; at exact-integer coordinates the cell with the lower base index is
used (deterministic sub-gradient), and the derivative is zero where the
pre-clamp coordinate falls outside the grid.

Trilinear sampling gathers with one flat index per sample: the base cells
of the three axes are combined into an offset into the flattened data, and
the 8 corners are read with ``np.take`` at fixed offsets from it.  Corner
pairs are folded into x-lerps as they are read, and every intermediate is
updated in place; the operations and their order are those of the plain
8-corner blend, so the results are the same to the bit.  A trailing channel
axis (a displacement field's 3 components) shares one set of indices and
weights.  Resampling a field onto another grid is separable: a lerp along
x, then y, then z, each at its axis's 1-D source coordinates, which is the
8-corner blend's arithmetic in the same order.  The z lerp runs per
x-slab of the target grid into a preallocated output, so a field
resampled onto 160x192x160 peaks at 1.5 output fields, against 2.5 with a
whole-grid z lerp.  It folds the 3 components into z, so its inner loops
are contiguous: on a 2-CPU x86-64 host (numpy 2.4.6) 80x96x80 resamples
onto 160x192x160 in 265 ms, against 360 with a gather over the length-3
axis, to the same bits.

Every x-slab loop of the package, here, in the NCC and in the convnet,
takes its planes per slab from ``_slab_planes``: the fewest slabs within a
budget (one plane if a plane is larger), each of the fewest planes that
keep that count, the last one taking the rest.  Warping samples the
field grid in slabs of at most ``_SAMPLE_SLAB_VOXELS`` output voxels;
field resampling and the NCC use larger slabs, of ``_SLAB_VOXELS``.
Sampling is pointwise, so each slab builds only its own coordinates, cells
and weights, and its last fold writes straight into the value and
derivative, fresh or given by the caller; the bits are those of one
whole-volume call.  A warp with the derivative peaks at 6.6 volumes of
the output at 48^3 and 4.1 at 160x192x160, the output and about 2.3 MB of
slab arrays, and 3.1 and 1.1 without it.  On one CPU with a 1 MB L2 cache,
slabs of 7 planes warp 48^3 in 3.0 ms, against 5.7 ms for one whole-volume
slab.
"""

from __future__ import annotations

import numpy as np

from .volume import Volume, _Grid, _load_grid, _save_grid

__all__ = [
    "DisplacementField",
    "warp_volume",
    "warp_volume_with_gradient",
    "jacobian_determinant",
    "folding_fraction",
    "resample_field",
    "load_field",
    "save_field",
]


class DisplacementField(_Grid):
    """Dense per-voxel displacement vectors in mm.

    data: float64 array of shape (nx, ny, nz, 3); last axis is (ux, uy, uz)
    """

    channel_shape = (3,)

    @classmethod
    def zeros(cls, dims, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> "DisplacementField":
        nx, ny, nz = (int(d) for d in dims)
        return cls(data=np.zeros((nx, ny, nz, 3)), spacing=spacing, origin=origin)


# Output voxels per slab of the NCC's window statistics and of field
# resampling.  The NCC carries 2r+1 planes of cumulative sums into each
# slab, so its slabs stay larger than the warp's.
_SLAB_VOXELS = 1 << 17
# Output voxels per slab of the warp's sampler.  A slab's coordinates, cell
# indices and weights are a few times its size, so they stay in cache and
# are never whole volumes at 48^3.
_SAMPLE_SLAB_VOXELS = 1 << 14


def _slab_planes(n, per_plane, budget) -> int:
    """Planes per slab of ``n`` planes of ``per_plane`` each: the fewest
    slabs whose planes fit ``budget`` (one plane if none fits), each of the
    fewest planes that keep that count, the last one taking the rest."""
    slabs = -(-n // max(budget // per_plane, 1))
    return -(-n // slabs)


def _world_to_index(points, spacing, origin) -> np.ndarray:
    """Voxel coordinates of mm points (last axis x, y, z) on a grid with
    the given spacing and origin: (p - origin) / spacing."""
    return (np.asarray(points, dtype=np.float64) - np.asarray(origin)) / np.asarray(spacing)


def _cell(c, n: int):
    """Base cell index and fraction along one axis of length ``n``.

    The coordinate is clamped to [0, n-1]; the base index is ceil(t) - 1,
    clipped to [0, n-2], so an exact-integer coordinate belongs to the cell
    below it.  Returns (int64 base, fraction t - base).
    """
    t = np.clip(c, 0.0, n - 1.0)
    i0 = np.ceil(t).astype(np.int64)
    i0 -= 1
    np.clip(i0, 0, max(n - 2, 0), out=i0)
    t -= i0
    return i0, t


def _trilinear(data: np.ndarray, cx, cy, cz, want_grad: bool, out=None):
    """Trilinear interpolation of ``data`` at voxel coordinates (cx, cy, cz).

    ``data`` has shape (nx, ny, nz) or (nx, ny, nz, C); a trailing channel
    axis is interpolated with one set of cell indices and weights, and comes
    back as the last axis of the value.  Coordinates are float64 arrays that
    broadcast together; they may lie outside the grid, where they are
    clamped.  When ``want_grad`` is set, also returns
    d(value)/d(coordinate) as a trailing axis of length 3, zero wherever the
    unclamped coordinate is out of grid.  ``out``, if given, is a (value,
    derivative) pair of arrays of the result's shapes that the last fold
    writes into, the derivative None without ``want_grad``; they are
    returned.

    Per axis the base cell and fraction are computed once and the three
    base cells are combined into one flat index; the 8 corners are gathered
    from the flattened data at fixed offsets (0 along an axis of length 1)
    and folded into x-lerps (and x-differences for the gradient) as they
    arrive, so few full-size temporaries are alive at once.
    """
    nx, ny, nz = data.shape[:3]
    chan = data.shape[3:]
    shape = np.broadcast_shapes(cx.shape, cy.shape, cz.shape)
    flat = data.reshape((nx * ny * nz,) + chan)
    # broadcasts a per-voxel weight against the channel axis
    ch = (Ellipsis,) + (None,) * len(chan)

    base = np.zeros(shape, dtype=np.int64)
    weights = []
    for c, n, stride in ((cx, nx, ny * nz), (cy, ny, nz), (cz, nz, 1)):
        i0, f = _cell(c, n)
        i0 *= stride
        base += i0
        weights.append(f[ch])
    del i0
    fx, fy, fz = weights
    ox, oy, oz = (s if n > 1 else 0 for n, s in ((nx, ny * nz), (ny, nz), (nz, 1)))

    # symmetric lerp weights keep node coordinates (f in {0, 1}) bit-exact
    wx = 1.0 - fx
    wy = 1.0 - fy
    wz = 1.0 - fz

    def x_lerp(off):
        """Corner pair at flat offset ``off`` lerped along x; and hi - lo."""
        lo = np.take(flat[off:], base, axis=0)
        hi = np.take(flat[off + ox :], base, axis=0)
        diff = hi - lo if want_grad else None
        lo *= wx
        hi *= fx
        lo += hi
        return lo, diff

    def y_lerp(off, w):
        """The four corners at z offset ``off`` lerped along x, then y.

        Also returns, for the gradient, the y-difference and the
        x-differences lerped along y and scaled by the z weight ``w``.
        """
        a0, dx0 = x_lerp(off)
        a1, dx1 = x_lerp(off + oy)
        dy = dx = None
        if want_grad:
            dy = a1 - a0
            dx0 *= wy
            dx1 *= fy
            dx0 += dx1
            dx0 *= w
            dx = dx0
        a0 *= wy
        a1 *= fy
        a0 += a1
        return a0, dy, dx

    b0, gy, gx = y_lerp(0, wz)
    b1, gy1, gx1 = y_lerp(oz, fz)
    del base
    grad = None
    if want_grad:
        in_x = ((cx >= 0.0) & (cx <= nx - 1.0))[ch]
        in_y = ((cy >= 0.0) & (cy <= ny - 1.0))[ch]
        in_z = ((cz >= 0.0) & (cz <= nz - 1.0))[ch]
        grad = np.empty(b0.shape + (3,)) if out is None else out[1]
        gx += gx1
        del gx1
        np.multiply(gx, in_x, out=grad[..., 0])
        del gx
        gy *= wz
        gy1 *= fz
        gy += gy1
        del gy1
        np.multiply(gy, in_y, out=grad[..., 1])
        del gy
        np.subtract(b1, b0, out=grad[..., 2])
        np.multiply(grad[..., 2], in_z, out=grad[..., 2])
    b0 *= wz
    b1 *= fz
    value = b0 if out is None else out[0]
    np.add(b0, b1, out=value)
    return value, grad


def _warp(moving: Volume, field: DisplacementField, want_grad: bool, out=None):
    """The warped value and, with ``want_grad``, its derivative with
    respect to the displacement in mm, per x-slab of the field grid, into
    ``out`` (a value and derivative pair) or fresh arrays.

    The displacement and the derivative are divided by the moving image's
    spacing a component at a time, and not at all for a unit spacing
    (x / 1.0 is x): the bits of a division by the (..., 3) broadcast,
    without its inner loop over the length-3 axis.
    """
    # Work in the moving grid's index space: node i of the field grid lies
    # at index i * ratio + shift of the moving grid, where shift is the
    # field origin's moving-grid index.  Ratio 1.0, equal origins and zero
    # displacement then leave coordinates exactly on nodes, so the zero
    # field is an exact identity warp.
    nx, ny, nz = field.dims
    rx, ry, rz = (fs / ms for fs, ms in zip(field.spacing, moving.spacing))
    ox, oy, oz = _world_to_index(field.origin, moving.spacing, moving.origin)
    spacing = moving.spacing
    if out is None:
        out = (np.empty(field.dims), np.empty(field.dims + (3,)) if want_grad else None)
    value, grad = out
    step = _slab_planes(nx, ny * nz, _SAMPLE_SLAB_VOXELS)
    for x0 in range(0, nx, step):
        x1 = min(x0 + step, nx)
        u = field.data[x0:x1]
        nodes = (
            (np.arange(x0, x1) * rx + ox)[:, None, None],
            (np.arange(ny) * ry + oy)[None, :, None],
            (np.arange(nz) * rz + oz)[None, None, :],
        )
        # each component over the spacing; x / 1.0 is x, so a unit spacing
        # divides nothing
        cx, cy, cz = (
            n + (u[..., c] if s == 1.0 else u[..., c] / s)
            for c, (n, s) in enumerate(zip(nodes, spacing))
        )
        g = None if grad is None else grad[x0:x1]
        _trilinear(moving.data, cx, cy, cz, want_grad, (value[x0:x1], g))
        if g is not None:  # d(sample)/d(displacement in mm), a component at a time
            for c, s in enumerate(spacing):
                if s != 1.0:
                    g[..., c] /= s
    data = value.view()
    data.flags.writeable = False  # a read-only view: the volume need not copy it
    return Volume(data=data, spacing=field.spacing, origin=field.origin), grad


def warp_volume(moving: Volume, field: DisplacementField) -> Volume:
    """Resample ``moving`` at world(x) + u(x) for every node x of the field grid."""
    warped, _ = _warp(moving, field, want_grad=False)
    return warped


def warp_volume_with_gradient(moving: Volume, field: DisplacementField, out=None):
    """Warp and also return d(warped voxel)/d(u component), shape (nx, ny, nz, 3).

    ``out``, if given, is a (value, derivative) pair of arrays of those
    shapes that receive the results: the volume is a read-only view of the
    value, and the derivative is returned.
    """
    return _warp(moving, field, want_grad=True, out=out)


def jacobian_determinant(field: DisplacementField) -> Volume:
    """Per-voxel det(I + grad u), derivatives in mm.

    Central differences on interior voxels, one-sided on faces; needs at
    least 2 voxels along each axis.
    """
    if min(field.dims) < 2:
        raise ValueError(f"jacobian needs dims >= 2 per axis, got {field.dims}")
    # J[a][c] = d u_c / d x_a
    J = [
        np.gradient(field.data[..., c], *field.spacing, edge_order=1)
        for c in range(3)
    ]
    m = [[J[c][a] + (1.0 if a == c else 0.0) for a in range(3)] for c in range(3)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return Volume(data=det, spacing=field.spacing, origin=field.origin)


def folding_fraction(jmap: Volume) -> float:
    """Fraction of voxels with non-positive Jacobian determinant."""
    return float(np.mean(jmap.data <= 0.0))


def _lerp_axis(data: np.ndarray, c: np.ndarray, axis: int, out=None, fold: int = 1) -> np.ndarray:
    """Linear interpolation of ``data`` along ``axis`` at the 1-D voxel
    coordinates ``c``, with ``_trilinear``'s clamping, cells and weights.

    Lerping along x, then y, then z does the arithmetic of ``_trilinear``'s
    corner fold in the same order, so on a grid of points given per axis the
    result is the same to the bit, with one gather per axis instead of eight
    per point.  ``out``, if given, is a C-contiguous array of the result's
    shape that receives it, and is returned.  With ``fold`` > 1, ``axis``
    is the last of ``data`` and holds ``fold`` interleaved channels per
    node: node i's channel k is entry i * fold + k, and each channel is
    gathered and weighted as its node is.
    """
    n = data.shape[axis] // fold
    i0, f = _cell(c, n)
    i0 = (i0[:, None] * fold + np.arange(fold)).ravel()
    f = np.repeat(f, fold)
    shape = [1] * data.ndim
    shape[axis] = len(f)
    f = f.reshape(shape)
    # the indices are in range; "raise", the default mode, would gather
    # into a buffer and copy that into ``out``
    lo = np.take(data, i0, axis=axis, out=out, mode="clip")
    i0 += fold * (n > 1)  # the upper corner; the same node on an axis of length 1
    hi = np.take(data, i0, axis=axis, mode="clip")
    lo *= 1.0 - f
    hi *= f
    lo += hi
    return lo


def resample_field(field: DisplacementField, new_dims, spacing) -> DisplacementField:
    """Trilinearly resample the field onto a grid of ``new_dims`` nodes with
    the given spacing, all components at once.

    Displacement values (mm) carry unchanged, and grid corners map onto grid
    corners; a length-1 target axis samples the source's first node.  The
    target nodes form a grid, so the resampling is separable: each axis is
    interpolated at its own 1-D source coordinates.  The last lerp is
    pointwise in x, so it runs per x-slab into the preallocated output,
    and its two corner arrays are slab sized.  It folds the 3 components
    into z, so its gathers and its blend each run one contiguous inner
    loop, not one over the length-3 axis per node.
    """
    new_dims = tuple(int(d) for d in new_dims)
    if len(new_dims) != 3 or min(new_dims) < 1:
        raise ValueError(f"new_dims must be 3 positive ints, got {new_dims}")
    cx, cy, cz = (
        np.zeros(1) if n_new == 1 else np.arange(n_new) * (n_old - 1) / (n_new - 1)
        for n_new, n_old in zip(new_dims, field.dims)
    )
    data = _lerp_axis(_lerp_axis(field.data, cx, 0), cy, 1)
    data = data.reshape(data.shape[:2] + (-1,))  # (x, y, z * 3)
    step = _slab_planes(new_dims[0], new_dims[1] * new_dims[2], _SLAB_VOXELS)
    out = np.empty(new_dims + (3,))
    folded = out.reshape(new_dims[:2] + (-1,))
    for x0 in range(0, new_dims[0], step):
        _lerp_axis(data[x0 : x0 + step], cz, 2, folded[x0 : x0 + step], fold=3)
    del data
    out.flags.writeable = False  # fresh array: the field need not copy it
    return DisplacementField(data=out, spacing=spacing, origin=field.origin)


def load_field(path) -> DisplacementField:
    """Load a ``.dfield`` raw file (3 interleaved f32 components per voxel)."""
    return _load_grid(path, DisplacementField)


def save_field(field: DisplacementField, path) -> None:
    """Write a ``.dfield`` raw file and its sidecar, which says channels=3."""
    _save_grid(field, path)
