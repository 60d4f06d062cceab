"""Trilinear sampling, warping, Jacobian analysis, and field resampling tests."""

import tracemalloc

import numpy as np
import pytest

import defreg.warp
from defreg.volume import Volume
from defreg.warp import (
    DisplacementField,
    _trilinear,
    _world_to_index,
    folding_fraction,
    jacobian_determinant,
    load_field,
    resample_field,
    save_field,
    warp_volume,
    warp_volume_with_gradient,
)

from conftest import offgrid_field, random_volume


def ramp_volume_x(values, spacing=(1.0, 1.0, 1.0)):
    """1D ramp along x embedded as an (n,1,1) volume."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)
    return Volume(data=arr, spacing=spacing)


def constant_field(dims, vec, spacing=(1.0, 1.0, 1.0)):
    data = np.broadcast_to(np.asarray(vec, dtype=np.float64), tuple(dims) + (3,)).copy()
    return DisplacementField(data=data, spacing=spacing)


def trilinear_reference(data, x, y, z):
    """Straight-line reference: clamp, floor, 8-corner blend."""
    nx, ny, nz = data.shape
    x = min(max(x, 0.0), nx - 1.0)
    y = min(max(y, 0.0), ny - 1.0)
    z = min(max(z, 0.0), nz - 1.0)
    i0 = min(int(np.floor(x)), nx - 2) if nx > 1 else 0
    j0 = min(int(np.floor(y)), ny - 2) if ny > 1 else 0
    k0 = min(int(np.floor(z)), nz - 2) if nz > 1 else 0
    fx, fy, fz = x - i0, y - j0, z - k0
    i1, j1, k1 = min(i0 + 1, nx - 1), min(j0 + 1, ny - 1), min(k0 + 1, nz - 1)
    out = 0.0
    for di, wi in ((0, 1 - fx), (1, fx)):
        for dj, wj in ((0, 1 - fy), (1, fy)):
            for dk, wk in ((0, 1 - fz), (1, fz)):
                ii = i1 if di else i0
                jj = j1 if dj else j0
                kk = k1 if dk else k0
                out += wi * wj * wk * data[ii, jj, kk]
    return out


def eight_corner_trilinear(data, cx, cy, cz, want_grad):
    """The earlier 8-gather implementation, kept as the bit-exact reference.

    Same clamping, cell choice and arithmetic order as ``_trilinear``, with
    one fancy-index gather per corner and the gradient stacked at the end.
    """

    def cell(t, n):
        i0 = np.clip(np.ceil(t).astype(np.int64) - 1, 0, max(n - 2, 0))
        i1 = np.minimum(i0 + 1, n - 1)
        return i0, i1, t - i0

    nx, ny, nz = data.shape
    ix0, ix1, fx = cell(np.clip(cx, 0.0, nx - 1.0), nx)
    iy0, iy1, fy = cell(np.clip(cy, 0.0, ny - 1.0), ny)
    iz0, iz1, fz = cell(np.clip(cz, 0.0, nz - 1.0), nz)
    c000 = data[ix0, iy0, iz0]
    c100 = data[ix1, iy0, iz0]
    c010 = data[ix0, iy1, iz0]
    c110 = data[ix1, iy1, iz0]
    c001 = data[ix0, iy0, iz1]
    c101 = data[ix1, iy0, iz1]
    c011 = data[ix0, iy1, iz1]
    c111 = data[ix1, iy1, iz1]
    wx = 1.0 - fx
    a00 = wx * c000 + fx * c100
    a10 = wx * c010 + fx * c110
    a01 = wx * c001 + fx * c101
    a11 = wx * c011 + fx * c111
    wy = 1.0 - fy
    b0 = wy * a00 + fy * a10
    b1 = wy * a01 + fy * a11
    value = (1.0 - fz) * b0 + fz * b1
    if not want_grad:
        return value, None
    in_x = (cx >= 0.0) & (cx <= nx - 1.0)
    in_y = (cy >= 0.0) & (cy <= ny - 1.0)
    in_z = (cz >= 0.0) & (cz <= nz - 1.0)
    gx = (wy * (c100 - c000) + fy * (c110 - c010)) * (1.0 - fz) + (
        wy * (c101 - c001) + fy * (c111 - c011)
    ) * fz
    gy = (a10 - a00) * (1.0 - fz) + (a11 - a01) * fz
    gz = b1 - b0
    return value, np.stack([gx * in_x, gy * in_y, gz * in_z], axis=-1)


def hard_coordinates(rng, dims, shape):
    """Coordinates mixing in-grid, out-of-grid and exact-integer values."""
    out = []
    for n in dims:
        c = rng.uniform(-2.0, n + 1.0, size=shape)
        flat = c.reshape(-1)
        flat[::3] = np.round(flat[::3])  # exact integers, some on the border
        flat[1] = -0.0
        flat[2] = n - 1.0
        out.append(c)
    return out


class TestTrilinearExactness:
    """The one-gather trilinear reproduces the 8-corner reference bit for bit."""

    @pytest.mark.parametrize(
        "dims", [(5, 6, 7), (1, 4, 3), (2, 1, 5), (4, 2, 1), (1, 1, 1), (2, 2, 2), (7, 1, 1)]
    )
    def test_values_and_gradients_equal_reference(self, rng, dims):
        data = rng.standard_normal(dims)
        cx, cy, cz = hard_coordinates(rng, dims, (6, 5, 4))
        for want_grad in (False, True):
            got, got_grad = _trilinear(data, cx, cy, cz, want_grad)
            want, want_grad_arr = eight_corner_trilinear(data, cx, cy, cz, want_grad)
            assert np.array_equal(got, want)
            if want_grad:
                assert np.array_equal(got_grad, want_grad_arr)
            else:
                assert got_grad is None

    @pytest.mark.parametrize("dims", [(5, 6, 7), (1, 4, 2)])
    def test_channels_and_broadcast_coordinates(self, rng, dims):
        # one call on vector data with broadcastable 1-D coordinates equals
        # one call per component on full coordinate arrays
        data = rng.standard_normal(dims + (3,))
        cx = rng.uniform(-1.0, dims[0], size=(4, 1, 1))
        cy = rng.uniform(-1.0, dims[1], size=(1, 3, 1))
        cz = np.array([0.0, 1.0, dims[2] - 0.5]).reshape(1, 1, 3)
        full = [c + np.zeros((4, 3, 3)) for c in (cx, cy, cz)]
        got, got_grad = _trilinear(data, cx, cy, cz, True)
        assert got.shape == (4, 3, 3, 3) and got_grad.shape == (4, 3, 3, 3, 3)
        for c in range(3):
            want, want_grad = eight_corner_trilinear(data[..., c], *full, True)
            assert np.array_equal(got[..., c], want)
            assert np.array_equal(got_grad[..., c, :], want_grad)


class TestDisplacementField:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DisplacementField(data=np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            DisplacementField(data=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            DisplacementField(data=np.zeros((2, 0, 2, 3)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 2, 2, 3))
        bad[0, 0, 0, 1] = np.nan
        with pytest.raises(ValueError):
            DisplacementField(data=bad)

    def test_immutable(self):
        f = DisplacementField.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            f.data[0, 0, 0, 0] = 1.0

    def test_zeros_constructor(self):
        f = DisplacementField.zeros((3, 4, 5), spacing=(2.0, 1.0, 0.5))
        assert f.dims == (3, 4, 5)
        assert f.spacing == (2.0, 1.0, 0.5)
        assert not f.data.any()


def sample_at_point(v, p):
    """The volume sampled at one mm point, through the warp's own index map
    and sampler; out-of-grid points clamp to the border."""
    c = _world_to_index(np.reshape(p, (1, 3)), v.spacing, v.origin)
    value, _ = _trilinear(v.data, c[:, 0], c[:, 1], c[:, 2], want_grad=False)
    return float(value[0])


class TestSampleTrilinear:
    def test_grid_node_exact(self, rng):
        v = random_volume(rng, (4, 3, 5), spacing=(2.0, 1.0, 0.5))
        for _ in range(20):
            i, j, k = (int(rng.integers(0, n)) for n in v.dims)
            p = (i * v.spacing[0], j * v.spacing[1], k * v.spacing[2])
            assert sample_at_point(v, p) == v.data[i, j, k]

    def test_midpoint_two_voxel_line(self):
        v = ramp_volume_x([0.0, 10.0])
        assert sample_at_point(v, (0.5, 0.0, 0.0)) == pytest.approx(5.0, abs=1e-12)

    def test_far_outside_clamps_to_nearest_node(self, rng):
        v = random_volume(rng, (3, 3, 3))
        assert sample_at_point(v, (-50.0, -50.0, -50.0)) == v.data[0, 0, 0]
        assert sample_at_point(v, (100.0, 100.0, 100.0)) == v.data[2, 2, 2]
        # mixed: clamp per coordinate
        assert sample_at_point(v, (-9.0, 1.0, 99.0)) == v.data[0, 1, 2]

    def test_matches_brute_force_reference(self, rng):
        v = random_volume(rng, (5, 4, 6), spacing=(1.5, 0.75, 2.0))
        for _ in range(100):
            x, y, z = rng.uniform(-2.0, 8.0, size=3)
            p = (x * v.spacing[0], y * v.spacing[1], z * v.spacing[2])
            got = sample_at_point(v, p)
            want = trilinear_reference(v.data, x, y, z)
            assert got == pytest.approx(want, abs=1e-12)

    def test_respects_anisotropic_spacing(self):
        v = ramp_volume_x([0.0, 10.0], spacing=(4.0, 1.0, 1.0))
        # world x = 2 mm is the voxel midpoint on a 4 mm grid
        assert sample_at_point(v, (2.0, 0.0, 0.0)) == pytest.approx(5.0, abs=1e-12)

    def test_respects_origin(self, rng):
        data = rng.standard_normal((5, 4, 6))
        v = Volume(data=data, spacing=(1.5, 0.75, 2.0), origin=(-3.0, 10.0, 0.5))
        for _ in range(50):
            x, y, z = rng.uniform(-2.0, 7.0, size=3)
            p = np.array([x, y, z]) * v.spacing + v.origin
            want = trilinear_reference(data, x, y, z)
            assert sample_at_point(v, p) == pytest.approx(want, abs=1e-12)


def affine_volume(dims, spacing, origin, a, b):
    """Volume whose intensity is a . world + b; trilinear sampling is exact."""
    idx = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    data = b + sum(a[k] * (idx[k] * spacing[k] + origin[k]) for k in range(3))
    return Volume(data=data, spacing=spacing, origin=origin)


class TestWarpWorldCoordinates:
    """Pull-back warping in world coordinates: world = index * spacing + origin."""

    def test_origin_offset_against_brute_force_oracle(self, rng):
        # fixed and moving grids differ in origin and spacing; each warped
        # voxel is checked against a per-point world-coordinate computation
        moving = Volume(
            data=rng.standard_normal((9, 7, 8)), spacing=(1.0, 1.5, 0.8), origin=(2.0, -1.0, 3.0)
        )
        field = offgrid_field(rng, (6, 5, 7), spacing=(1.2, 1.0, 0.7))
        field = DisplacementField(field.data, spacing=field.spacing, origin=(3.5, 0.25, 4.0))
        out, grad = warp_volume_with_gradient(moving, field)
        sp_m, o_m = np.array(moving.spacing), np.array(moving.origin)
        for i, j, k in np.ndindex(field.dims):
            world = np.array([i, j, k]) * field.spacing + field.origin + field.data[i, j, k]
            x, y, z = (world - o_m) / sp_m
            assert out.data[i, j, k] == pytest.approx(
                trilinear_reference(moving.data, x, y, z), abs=1e-12
            )
        assert grad.shape == field.dims + (3,)

    def test_affine_image_warps_exactly_across_origins(self, rng):
        a, b = np.array([0.5, -1.25, 2.0]), 0.75
        moving = affine_volume((12, 10, 11), (1.0, 1.25, 0.75), (-4.0, 2.0, 1.0), a, b)
        dims, sp, org = (5, 6, 4), (1.5, 1.0, 1.25), (-1.0, 4.0, 2.5)
        field = DisplacementField(rng.uniform(-0.8, 0.8, size=dims + (3,)), sp, org)
        out, grad = warp_volume_with_gradient(moving, field)
        idx = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
        world = np.stack([idx[k] * sp[k] + org[k] for k in range(3)], axis=-1) + field.data
        np.testing.assert_allclose(out.data, world @ a + b, atol=1e-12)
        # interior samples: d(sample)/d(u) is the image gradient a
        np.testing.assert_allclose(grad, np.broadcast_to(a, grad.shape), atol=1e-12)

    def test_equal_origins_match_zero_origins_bitwise(self, rng):
        moving = random_volume(rng, (7, 6, 5), spacing=(1.0, 2.0, 0.5))
        field = offgrid_field(rng, (7, 6, 5), spacing=(1.0, 2.0, 0.5))
        shift = (12.5, -3.0, 7.25)
        moved = Volume(data=moving.data, spacing=moving.spacing, origin=shift)
        shifted = DisplacementField(field.data, spacing=field.spacing, origin=shift)
        a, ga = warp_volume_with_gradient(moving, field)
        b, gb = warp_volume_with_gradient(moved, shifted)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(ga, gb)


class TestWarpVolume:
    def test_zero_field_identity_bitwise(self, rng):
        v = random_volume(rng, (6, 5, 4), spacing=(1.0, 2.0, 3.0))
        out = warp_volume(v, DisplacementField.zeros(v.dims, spacing=v.spacing))
        assert out.dims == v.dims
        assert out.spacing == v.spacing
        assert np.array_equal(out.data, v.data)

    def test_unit_translation_with_clamp(self):
        v = ramp_volume_x([0.0, 1.0, 2.0, 3.0])
        out = warp_volume(v, constant_field((4, 1, 1), (-1.0, 0.0, 0.0)))
        np.testing.assert_allclose(out.data[:, 0, 0], [0.0, 0.0, 1.0, 2.0], atol=1e-12)

    def test_half_voxel_translation_with_clamp(self):
        v = ramp_volume_x([0.0, 1.0, 2.0, 3.0])
        out = warp_volume(v, constant_field((4, 1, 1), (0.5, 0.0, 0.0)))
        np.testing.assert_allclose(out.data[:, 0, 0], [0.5, 1.5, 2.5, 3.0], atol=1e-12)

    def test_output_grid_comes_from_field(self, rng):
        v = random_volume(rng, (8, 8, 8), spacing=(1.0, 1.0, 1.0))
        field = DisplacementField.zeros((4, 4, 4), spacing=(2.0, 2.0, 2.0))
        out = warp_volume(v, field)
        assert out.dims == (4, 4, 4)
        assert out.spacing == (2.0, 2.0, 2.0)
        # field nodes sit on even moving-grid nodes
        assert np.array_equal(out.data, v.data[::2, ::2, ::2])

    def test_commutes_with_intensity_shift(self, rng):
        v = random_volume(rng, (5, 5, 5))
        field = offgrid_field(rng, (5, 5, 5))
        shifted = Volume(data=v.data + 3.25, spacing=v.spacing, origin=v.origin)
        a = warp_volume(shifted, field)
        b = warp_volume(v, field)
        np.testing.assert_allclose(a.data, b.data + 3.25, atol=1e-12)

    def test_translation_composition_integer_then_fractional(self, rng):
        # integer-voxel first shift resamples without interpolation error, so
        # cascading it with any second shift equals the summed translation
        v = random_volume(rng, (10, 10, 10))
        t1 = constant_field(v.dims, (1.0, -2.0, 1.0))
        t2 = constant_field(v.dims, (-0.3, 0.6, 0.45))
        t12 = constant_field(v.dims, (0.7, -1.4, 1.45))
        once = warp_volume(v, t12)
        twice = warp_volume(warp_volume(v, t1), t2)
        # interior voxels whose sample points stay in-grid for both routes
        inner = (slice(3, -3),) * 3
        np.testing.assert_allclose(twice.data[inner], once.data[inner], atol=1e-9)

    def test_translation_composition_multilinear_volume(self, rng):
        # trilinear interpolation reproduces multilinear functions exactly, so
        # fractional shifts also compose on such a volume
        n = 10
        g = np.meshgrid(*(np.arange(n, dtype=np.float64),) * 3, indexing="ij")
        c = rng.uniform(-1.0, 1.0, size=8)
        data = (
            c[0]
            + c[1] * g[0] + c[2] * g[1] + c[3] * g[2]
            + c[4] * g[0] * g[1] + c[5] * g[0] * g[2] + c[6] * g[1] * g[2]
            + c[7] * g[0] * g[1] * g[2]
        )
        v = Volume(data=data)
        t1 = constant_field(v.dims, (0.7, -0.3, 0.4))
        t2 = constant_field(v.dims, (-0.2, 0.5, 0.9))
        t12 = constant_field(v.dims, (0.5, 0.2, 1.3))
        once = warp_volume(v, t12)
        twice = warp_volume(warp_volume(v, t1), t2)
        inner = (slice(2, -2),) * 3
        np.testing.assert_allclose(twice.data[inner], once.data[inner], atol=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        v = random_volume(rng, (5, 4, 6), spacing=(1.0, 1.5, 0.5))
        field = offgrid_field(rng, v.dims, spacing=v.spacing)
        _, grad = warp_volume_with_gradient(v, field)
        assert grad.shape == v.dims + (3,)
        h = 1e-6
        for _ in range(40):
            i, j, k = (int(rng.integers(0, n)) for n in v.dims)
            c = int(rng.integers(0, 3))
            bumped = field.data.copy()
            bumped[i, j, k, c] += h
            up = warp_volume(v, DisplacementField(bumped, spacing=field.spacing))
            bumped[i, j, k, c] -= 2 * h
            dn = warp_volume(v, DisplacementField(bumped, spacing=field.spacing))
            fd = (up.data[i, j, k] - dn.data[i, j, k]) / (2 * h)
            assert grad[i, j, k, c] == pytest.approx(fd, abs=1e-6)

    def test_gradient_zero_outside_grid(self):
        v = ramp_volume_x([0.0, 1.0, 2.0, 3.0])
        far = constant_field((4, 1, 1), (100.0, 0.0, 0.0))
        _, grad = warp_volume_with_gradient(v, far)
        assert not grad.any()


def warp_reference(moving, field, want_grad):
    """The warp's coordinates over the whole field, sampled by the 8-corner
    reference: the arithmetic of ``_warp`` without slabs."""
    coords = []
    for a in range(3):
        ratio = field.spacing[a] / moving.spacing[a]
        shift = (field.origin[a] - moving.origin[a]) / moving.spacing[a]
        shape = [1, 1, 1]
        shape[a] = field.dims[a]
        node = (np.arange(field.dims[a]) * ratio + shift).reshape(shape)
        coords.append(node + field.data[..., a] / moving.spacing[a])
    value, grad = eight_corner_trilinear(moving.data, *coords, want_grad)
    if grad is not None:
        grad = grad / np.array(moving.spacing)
    return value, grad, coords


class TestSlabPlanes:
    """``_slab_planes``, the x-slab cut of the warp, the NCC, field
    resampling and the convolutions."""

    @pytest.mark.parametrize(
        "n, per_plane, budget, planes",
        [
            (14, 1, 12, 7),  # 2 slabs of 7, not 12 and 2
            (80, 96 * 80, 1 << 17, 16),  # 5 slabs of 16, not 17 x 4 and 12
            (10, 3, 12, 4),  # 4, 4 and a shorter last slab of 2
            (48, 48 * 48, 1 << 17, 48),  # one slab: n planes, no more
            (5, 10, 9, 1),  # a budget under one plane
            (5, 10, 0, 1),
            (5, 10, -100, 1),  # a negative budget
        ],
    )
    def test_cut(self, n, per_plane, budget, planes):
        assert defreg.warp._slab_planes(n, per_plane, budget) == planes

    def test_fewest_slabs_cut_evenly(self):
        for n in range(1, 30):
            for per_plane in (1, 2, 3, 7):
                for budget in range(-3, 70):
                    p = defreg.warp._slab_planes(n, per_plane, budget)
                    fit = max(budget // per_plane, 1)  # planes that fit, at least one
                    slabs = -(-n // p)
                    assert 1 <= p <= min(n, fit)
                    assert slabs == -(-n // fit)  # the fewest slabs that fit
                    # no smaller slab gives as few slabs
                    assert p == 1 or -(-n // (p - 1)) > slabs


class TestWarpSlabs:
    """The warp samples whole x-plane slabs; pointwise sampling makes any
    slab size give the whole-volume bits."""

    DIMS = (7, 5, 6)
    PLANE = 5 * 6

    def pair(self, rng):
        # spacing ratios != 1, the field's origin off the moving image's,
        # and displacements that leave the grid
        moving = Volume(
            data=rng.standard_normal((9, 7, 8)), spacing=(1.0, 1.5, 0.8), origin=(2.0, -1.0, 3.0)
        )
        field = DisplacementField(
            rng.uniform(-3.0, 3.0, size=self.DIMS + (3,)),
            spacing=(1.2, 1.0, 0.7),
            origin=(3.5, 0.25, 4.0),
        )
        return moving, field

    # slab voxels: under one plane, one plane, 3 planes (not dividing nx = 7),
    # exactly nx planes, more than the volume
    @pytest.mark.parametrize("slab", [1, PLANE, 3 * PLANE, 7 * PLANE, 100 * PLANE])
    def test_equals_eight_corner_reference_bitwise(self, rng, monkeypatch, slab):
        monkeypatch.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", slab)
        moving, field = self.pair(rng)
        for want_grad in (False, True):
            want, want_grad_arr, _ = warp_reference(moving, field, want_grad)
            out, grad = defreg.warp._warp(moving, field, want_grad)
            assert np.array_equal(out.data, want)
            if want_grad:
                assert np.array_equal(grad, want_grad_arr)
            else:
                assert grad is None
        assert np.array_equal(warp_volume(moving, field).data, want)

    @pytest.mark.parametrize("spacing", [(0.8, 1.0, 2.5), (1.0, 1.0, 1.0)])
    def test_equals_broadcast_division_reference_bitwise(self, rng, spacing):
        # the warp divides by the spacing a component at a time and skips a
        # unit spacing; the reference divides by the (..., 3) broadcast.
        # 20 x-planes of 30x28 cut into 2 slabs at the default budget
        moving = Volume(
            data=rng.standard_normal((22, 30, 26)), spacing=spacing, origin=(1.0, -2.0, 0.5)
        )
        field = DisplacementField(
            rng.uniform(-3.0, 3.0, size=(20, 30, 28, 3)), spacing=spacing, origin=(1.5, -1.0, 0.0)
        )
        want, want_grad, _ = warp_reference(moving, field, True)
        out = (np.empty(field.dims), np.empty(field.dims + (3,)))
        warped, grad = warp_volume_with_gradient(moving, field, out=out)
        assert grad is out[1]
        assert np.array_equal(warped.data, want)
        assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize(
        "slab, calls", [(PLANE, 7), (3 * PLANE, 3), (7 * PLANE, 1), (100 * PLANE, 1)]
    )
    def test_one_slab_volume_is_sampled_in_one_whole_volume_call(
        self, rng, monkeypatch, slab, calls
    ):
        monkeypatch.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", slab)
        seen = []
        real = defreg.warp._trilinear

        def spy(data, cx, cy, cz, want_grad, out=None):
            seen.append((cx, cy, cz, out))
            return real(data, cx, cy, cz, want_grad, out)

        monkeypatch.setattr(defreg.warp, "_trilinear", spy)
        moving, field = self.pair(rng)
        warp_volume_with_gradient(moving, field)
        assert len(seen) == calls
        assert all(out is not None for *_, out in seen)  # the preallocated outputs
        if calls == 1:
            (*coords, _), = seen
            for got, want in zip(coords, warp_reference(moving, field, False)[2]):
                assert np.array_equal(got, want)


class TestWarpMemory:
    # Peak traced bytes of one warp over 1-plane slabs, in volumes of the
    # output: the value and the 3-component derivative, plus one slab's
    # coordinates, cells and weights (4.5 and 1.4 volumes at 40^3).
    @pytest.mark.parametrize("want_grad, peak_volumes", [(True, 5), (False, 2)])
    def test_multi_slab_warp_stays_under_bound(self, monkeypatch, want_grad, peak_volumes):
        rng = np.random.default_rng(0)
        dims = (40, 40, 40)
        monkeypatch.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", 40 * 40)
        moving = Volume(data=rng.standard_normal(dims))
        field = DisplacementField(data=rng.uniform(-2.0, 2.0, dims + (3,)))
        defreg.warp._warp(moving, field, want_grad)  # warm-up
        tracemalloc.start()
        try:
            defreg.warp._warp(moving, field, want_grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < peak_volumes * moving.data.nbytes

    # Resampling a field over x-slabs of the target grid: the x and y lerps,
    # the output and one slab's corners (1.55 output fields at 20^3 -> 40^3
    # over 1-plane slabs, 2.55 over one slab), the same bits as one slab.
    def test_multi_slab_resample_equals_one_call_under_bound(self, monkeypatch):
        rng = np.random.default_rng(0)
        src = DisplacementField(data=rng.standard_normal((20, 21, 19, 3)), spacing=(2.0, 2.0, 2.0))
        dims = (40, 41, 37)
        whole = resample_field(src, dims, spacing=(1.0, 1.0, 1.0))
        for planes in (7, 3, 1):  # the last slab is partial for 7 and 3
            monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", planes * 41 * 37)
            out = resample_field(src, dims, spacing=(1.0, 1.0, 1.0))
            assert out.data.tobytes() == whole.data.tobytes(), planes
        tracemalloc.start()
        try:
            resample_field(src, dims, spacing=(1.0, 1.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * whole.data.nbytes


class TestJacobianDeterminant:
    def test_zero_field_exactly_one(self):
        jm = jacobian_determinant(DisplacementField.zeros((4, 5, 6), spacing=(1.0, 2.0, 0.5)))
        assert np.array_equal(jm.data, np.ones((4, 5, 6)))

    def test_constant_translation_exactly_one(self):
        f = constant_field((4, 4, 4), (3.0, -2.0, 1.0), spacing=(2.0, 1.0, 1.0))
        assert np.array_equal(jacobian_determinant(f).data, np.ones((4, 4, 4)))

    def test_linear_expansion_analytic_value(self):
        n = 5
        x, y, z = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        data = 0.1 * np.stack([x, y, z], axis=-1).astype(np.float64)
        jm = jacobian_determinant(DisplacementField(data))
        np.testing.assert_allclose(jm.data, 1.1**3, atol=1e-12)

    def test_affine_fields_give_det_i_plus_a(self, rng):
        dims = (4, 5, 3)
        spacing = (1.0, 2.0, 0.5)
        grids = np.meshgrid(
            *(np.arange(n) * s for n, s in zip(dims, spacing)), indexing="ij"
        )
        pos = np.stack(grids, axis=-1)
        for _ in range(20):
            A = rng.uniform(-0.2, 0.2, size=(3, 3))
            b = rng.uniform(-1.0, 1.0, size=3)
            data = pos @ A.T + b
            jm = jacobian_determinant(DisplacementField(data, spacing=spacing))
            want = np.linalg.det(np.eye(3) + A)
            np.testing.assert_allclose(jm.data, want, atol=1e-9)

    def test_matches_independent_stencil(self, rng):
        dims = (6, 5, 7)
        spacing = (1.0, 1.5, 0.8)
        field = offgrid_field(rng, dims, spacing=spacing)
        jm = jacobian_determinant(field)
        u = field.data

        def deriv(comp, axis, idx):
            n = dims[axis]
            s = spacing[axis]
            lo = list(idx)
            hi = list(idx)
            if idx[axis] == 0:
                hi[axis] += 1
                return (comp[tuple(hi)] - comp[tuple(lo)]) / s
            if idx[axis] == n - 1:
                lo[axis] -= 1
                return (comp[tuple(hi)] - comp[tuple(lo)]) / s
            lo[axis] -= 1
            hi[axis] += 1
            return (comp[tuple(hi)] - comp[tuple(lo)]) / (2 * s)

        for _ in range(30):
            idx = tuple(int(rng.integers(0, n)) for n in dims)
            J = np.eye(3)
            for c in range(3):
                for a in range(3):
                    J[c, a] += deriv(u[..., c], a, idx)
            assert jm.data[idx] == pytest.approx(np.linalg.det(J), abs=1e-12)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            jacobian_determinant(DisplacementField.zeros((1, 4, 4)))


class TestFoldingFraction:
    def test_zero_field_no_folding(self):
        jm = jacobian_determinant(DisplacementField.zeros((4, 4, 4)))
        assert folding_fraction(jm) == 0.0

    def test_half_negative_counts_half(self):
        data = np.ones((2, 2, 2))
        data[:, :, 0] = -1.0
        assert folding_fraction(Volume(data=data)) == 0.5

    def test_zero_det_counts_as_folded(self):
        data = np.ones((2, 2, 2))
        data[0, 0, 0] = 0.0
        assert folding_fraction(Volume(data=data)) == pytest.approx(1.0 / 8.0)

    def test_smooth_small_field_does_not_fold(self, rng):
        n = 16
        t = np.arange(n) / (n - 1)
        bump = np.sin(np.pi * t)
        prof = bump[:, None, None] * bump[None, :, None] * bump[None, None, :]
        data = np.zeros((n, n, n, 3))
        data[..., 0] = prof
        data[..., 1] = -0.5 * prof
        data = data / np.abs(data).max() * 1.0  # peak magnitude ~1 mm
        jm = jacobian_determinant(DisplacementField(data))
        assert jm.data.min() > 0.0
        assert folding_fraction(jm) == 0.0

    def test_compression_folding_monotone_in_scale(self):
        n = 8
        x = np.arange(n, dtype=np.float64)
        counts = []
        for s in (0.5, 1.0, 1.5, 2.0):
            data = np.zeros((n, n, n, 3))
            data[..., 0] = -s * x[:, None, None]
            jm = jacobian_determinant(DisplacementField(data))
            counts.append(np.count_nonzero(jm.data <= 0.0))
            # det(I + diag(-s,0,0)) = 1 - s everywhere
            np.testing.assert_allclose(jm.data, 1.0 - s, atol=1e-12)
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[1] == n**3


def gather_resample_reference(field, new_dims, spacing):
    """The earlier resample, kept as the bit-exact reference: each axis,
    z included, lerped by a take along that axis, so the z lerp gathers
    and weights over the length-3 component axis."""

    def lerp_axis(data, c, axis, out=None):
        n = data.shape[axis]
        i0, f = defreg.warp._cell(c, n)
        shape = [1] * data.ndim
        shape[axis] = len(c)
        f = f.reshape(shape)
        lo = np.take(data, i0, axis=axis, out=out, mode="clip")
        i0 += n > 1
        hi = np.take(data, i0, axis=axis, mode="clip")
        lo *= 1.0 - f
        hi *= f
        lo += hi
        return lo

    cx, cy, cz = (
        np.zeros(1) if n_new == 1 else np.arange(n_new) * (n_old - 1) / (n_new - 1)
        for n_new, n_old in zip(new_dims, field.dims)
    )
    data = lerp_axis(lerp_axis(field.data, cx, 0), cy, 1)
    step = defreg.warp._slab_planes(
        new_dims[0], new_dims[1] * new_dims[2], defreg.warp._SLAB_VOXELS
    )
    out = np.empty(tuple(new_dims) + (3,))
    for x0 in range(0, new_dims[0], step):
        lerp_axis(data[x0 : x0 + step], cz, 2, out[x0 : x0 + step])
    return DisplacementField(data=out, spacing=spacing, origin=field.origin)


class TestResampleField:
    def test_identity_dims_identical(self, rng):
        f = offgrid_field(rng, (4, 4, 4))
        out = resample_field(f, (4, 4, 4), spacing=f.spacing)
        assert out.data.tobytes() == f.data.tobytes()
        assert out.spacing == f.spacing

    def test_constant_field_any_dims(self):
        f = constant_field((3, 3, 3), (2.0, 0.0, 0.0))
        for dims in [(2, 2, 2), (5, 7, 4), (1, 3, 8)]:
            out = resample_field(f, dims, spacing=(1.0, 1.0, 1.0))
            np.testing.assert_allclose(out.data[..., 0], 2.0, atol=1e-12)
            np.testing.assert_allclose(out.data[..., 1:], 0.0, atol=1e-12)

    def test_displacement_values_carry_in_mm(self):
        # downsampling must not rescale the stored millimeter values
        f = constant_field((8, 8, 8), (3.0, -1.0, 0.5), spacing=(1.0, 1.0, 1.0))
        out = resample_field(f, (4, 4, 4), spacing=(2.0, 2.0, 2.0))
        np.testing.assert_allclose(out.data, np.broadcast_to([3.0, -1.0, 0.5], (4, 4, 4, 3)), atol=1e-12)

    def test_explicit_spacing_override(self):
        f = DisplacementField.zeros((8, 8, 8), spacing=(1.0, 1.0, 1.0))
        out = resample_field(f, (4, 4, 4), spacing=(2.0, 2.0, 2.0))
        assert out.spacing == (2.0, 2.0, 2.0)

    def test_linear_field_down_up_round_trip(self):
        n = 9
        grids = np.meshgrid(*(np.arange(n, dtype=np.float64),) * 3, indexing="ij")
        data = np.stack(
            [0.2 * grids[0] + 0.1 * grids[1], -0.1 * grids[2] + 0.5, 0.05 * grids[0]],
            axis=-1,
        )
        f = DisplacementField(data)
        down = resample_field(f, (5, 5, 5), spacing=(2.0, 2.0, 2.0))
        back = resample_field(down, (n, n, n), spacing=(1.0, 1.0, 1.0))
        inner = (slice(1, -1),) * 3
        np.testing.assert_allclose(back.data[inner], f.data[inner], atol=1e-6)

    def test_singleton_axis(self):
        f = constant_field((4, 4, 1), (1.0, 2.0, 3.0))
        out = resample_field(f, (2, 2, 1), spacing=(3.0, 3.0, 1.0))
        np.testing.assert_allclose(out.data, np.broadcast_to([1.0, 2.0, 3.0], (2, 2, 1, 3)), atol=1e-12)

    def test_bad_dims_rejected(self):
        f = DisplacementField.zeros((4, 4, 4))
        with pytest.raises(ValueError):
            resample_field(f, (0, 4, 4), spacing=f.spacing)
        with pytest.raises(ValueError):
            resample_field(f, (4, 4), spacing=f.spacing)

    @pytest.mark.parametrize(
        "old, new, spacing",
        [
            ((4, 5, 6), (7, 9, 11), None),  # up, odd target dims
            ((9, 8, 7), (5, 4, 3), None),  # down
            ((5, 6, 7), (5, 12, 3), None),  # one axis kept, one up, one down
            ((3, 1, 4), (6, 1, 8), None),  # length-1 axis kept
            ((6, 4, 5), (1, 8, 1), None),  # length-1 targets
            ((1, 5, 9), (3, 9, 17), (2.0, 1.0, 0.5)),  # length-1 source, spacing given
            ((4, 4, 4), (4, 4, 4), (2.0, 2.0, 2.0)),  # same dims, explicit spacing
            ((2, 2, 2), (40, 3, 2), (0.5, 1.0, 1.0)),
        ],
    )
    def test_separable_equals_eight_corner_reference_bitwise(self, rng, old, new, spacing):
        data = rng.standard_normal(old + (3,))
        data.reshape(-1)[0] = -0.0
        f = DisplacementField(data, spacing=(1.5, 0.8, 1.2), origin=(3.0, -1.0, 0.0))
        # the target nodes' source coordinates, corners onto corners
        axes = [
            np.zeros(n) if n == 1 else np.arange(n) * (o - 1) / (n - 1)
            for o, n in zip(old, new)
        ]
        grid = np.meshgrid(*axes, indexing="ij")
        # None: the source's own spacing; the values do not depend on it
        spacing = f.spacing if spacing is None else spacing
        out = resample_field(f, new, spacing=spacing)
        for c in range(3):
            want, _ = eight_corner_trilinear(data[..., c], *grid, False)
            assert out.data[..., c].tobytes() == want.tobytes()
        assert out.spacing == spacing
        assert out.origin == f.origin


    @pytest.mark.parametrize(
        "old, new",
        [
            ((4, 5, 6), (7, 9, 11)),
            ((9, 8, 7), (5, 4, 3)),
            ((5, 6, 1), (6, 4, 9)),  # one-voxel source z
            ((1, 1, 6), (3, 4, 1)),  # one-voxel source x and y, target z
            ((6, 4, 5), (1, 8, 1)),  # one-voxel targets
            ((3, 1, 4), (6, 1, 8)),  # a one-voxel axis kept
            ((40, 48, 40), (80, 96, 80)),  # a benchmark level step, several slabs
        ],
    )
    def test_folded_z_lerp_equals_gather_reference_bitwise(self, rng, old, new):
        data = rng.standard_normal(old + (3,))
        data.reshape(-1)[:3] = -0.0  # a zero's sign survives too
        f = DisplacementField(data, spacing=(1.5, 0.8, 1.2), origin=(3.0, -1.0, 0.0))
        out = resample_field(f, new, spacing=(1.0, 2.0, 0.5))
        want = gather_resample_reference(f, new, (1.0, 2.0, 0.5))
        assert out.data.tobytes() == want.data.tobytes()
        assert (out.spacing, out.origin) == (want.spacing, want.origin)


class TestFieldRoundTrip:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        data = rng.standard_normal((4, 3, 5, 3)).astype(np.float32).astype(np.float64)
        f = DisplacementField(data, spacing=(0.5, 1.0, 2.0), origin=(1.0, -2.0, 3.0))
        p = tmp_path / "f.dfield"
        save_field(f, p)
        g = load_field(p)
        assert np.array_equal(g.data, f.data)
        assert g.spacing == f.spacing
        assert g.origin == f.origin

    def test_sidecar_declares_three_channels(self, tmp_path):
        import json

        f = DisplacementField.zeros((2, 2, 2))
        p = tmp_path / "f.dfield"
        save_field(f, p)
        meta = json.loads((tmp_path / "f.dfield.json").read_text())
        assert meta["channels"] == 3
        assert meta["dims"] == [2, 2, 2]

    def test_payload_is_interleaved_x_fastest_f32(self, tmp_path):
        data = np.arange(2 * 1 * 1 * 3, dtype=np.float64).reshape(2, 1, 1, 3)
        f = DisplacementField(data)
        p = tmp_path / "f.dfield"
        save_field(f, p)
        raw = np.frombuffer(p.read_bytes(), dtype="<f4")
        # voxel (0,0,0) components then voxel (1,0,0) components
        np.testing.assert_array_equal(raw, [0, 1, 2, 3, 4, 5])

    def test_truncated_payload_rejected(self, tmp_path):
        f = DisplacementField.zeros((3, 3, 3))
        p = tmp_path / "f.dfield"
        save_field(f, p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_field(p)
