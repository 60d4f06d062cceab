"""Objective tests: windowed correlation, smoothness penalty, gradients."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defreg.warp
from defreg.loss import (
    LossConfig,
    LossValue,
    Workspace,
    _box_counts,
    _box_sum,
    _ncc_terms,
    ncc,
    overall_loss,
    similarity_loss,
    smoothness_loss,
)
from defreg.volume import Volume
from defreg.warp import DisplacementField, warp_volume_with_gradient

from conftest import fd_gradient, offgrid_field, random_volume, rel_err


def brute_box_sum(a, w):
    r = w // 2
    out = np.empty_like(a)
    nx, ny, nz = a.shape
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                out[i, j, k] = a[
                    max(i - r, 0) : min(i + r, nx - 1) + 1,
                    max(j - r, 0) : min(j + r, ny - 1) + 1,
                    max(k - r, 0) : min(k + r, nz - 1) + 1,
                ].sum()
    return out


def concat_take_box_sum(a, w):
    """The earlier prefix-sum box filter, kept as the bit-exact reference:
    a zero-prefixed cumsum per axis, then two fancy ``take``s."""
    r = w // 2
    out = a
    for axis in range(3):
        n = out.shape[axis]
        pref = np.concatenate(
            [np.zeros_like(out.take([0], axis=axis)), np.cumsum(out, axis=axis)], axis=axis
        )
        hi = np.minimum(np.arange(n) + r, n - 1) + 1
        lo = np.maximum(np.arange(n) - r, 0)
        out = np.take(pref, hi, axis=axis) - np.take(pref, lo, axis=axis)
    return out


def closed_form_ncc_terms(F, G, w, eps):
    """The windowed correlation and its gradient as plain expressions, in the
    operation order of ``_ncc_terms``; the bit-exact reference."""
    box = concat_take_box_sum
    n = _box_counts(F.shape, w)
    sF = box(F, w)
    sG = box(G, w)
    muF = sF / n
    muG = sG / n
    cross = box(F * G, w) - muF * sG
    varF = np.maximum(box(F * F, w) - muF * sF, 0.0)
    varG = np.maximum(box(G * G, w) - muG * sG, 0.0)
    d0 = np.sqrt(varF * varG)
    d = np.maximum(d0, eps)
    cc = cross / d
    varG_safe = np.where(varG > 0, varG, 1.0)
    a = 1.0 / d
    e = np.where(d0 < eps, 0.0, cc / varG_safe)
    grad = (F * box(a, w) - box(muF * a, w) - G * box(e, w) + box(muG * e, w)) / F.size
    return float(np.mean(cc)), grad


def closed_form_smoothness(u, spacing):
    """Smoothness value and gradient with a fresh array per step; reference."""
    n_vox = u.size // 3
    value = 0.0
    grad = np.zeros_like(u)
    for axis in range(3):
        s = spacing[axis]
        inner = [slice(None)] * 4
        outer = [slice(None)] * 4
        inner[axis] = slice(0, u.shape[axis] - 1)
        outer[axis] = slice(1, u.shape[axis])
        d = np.zeros_like(u)
        d[tuple(inner)] = np.diff(u, axis=axis) / s
        value += float(np.sum(d * d))
        shifted = np.zeros_like(u)
        shifted[tuple(outer)] = d[tuple(inner)]
        grad += 2.0 * (shifted - d) / (s * n_vox)
    return value / n_vox, grad


def brute_ncc(F, G, w, eps):
    """Per-window correlation from first principles, then the mean."""
    r = w // 2
    nx, ny, nz = F.shape
    vals = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                sl = (
                    slice(max(i - r, 0), min(i + r, nx - 1) + 1),
                    slice(max(j - r, 0), min(j + r, ny - 1) + 1),
                    slice(max(k - r, 0), min(k + r, nz - 1) + 1),
                )
                f = F[sl].ravel()
                g = G[sl].ravel()
                fc = f - f.mean()
                gc = g - g.mean()
                denom = max(np.sqrt((fc * fc).sum() * (gc * gc).sum()), eps)
                vals.append((fc * gc).sum() / denom)
    return float(np.mean(vals))


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.ncc_window == 9
        assert cfg.reg_weight == 1.0
        assert cfg.variance_floor == 1e-5

    @pytest.mark.parametrize("window", [0, -3, 2, 4])
    def test_window_must_be_odd_positive(self, window):
        with pytest.raises(ValueError):
            LossConfig(ncc_window=window)

    def test_one_voxel_window_refused(self):
        # a one-voxel window's correlation and gradient are exactly 0, so
        # it would optimize smoothness alone
        with pytest.raises(ValueError, match="odd and >= 3, got 1"):
            LossConfig(ncc_window=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(reg_weight=-0.1)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(variance_floor=0.0)


class TestBoxFilter:
    def test_matches_brute_force(self, rng):
        a = rng.standard_normal((5, 4, 6))
        for w in (1, 3, 5, 9):
            np.testing.assert_allclose(_box_sum(a, w), brute_box_sum(a, w), atol=1e-10)

    def test_counts_match_brute_force(self):
        dims = (5, 4, 6)
        ones = np.ones(dims)
        for w in (1, 3, 7, 11):
            np.testing.assert_array_equal(_box_counts(dims, w), brute_box_sum(ones, w))

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(2, 7),
        ny=st.integers(2, 7),
        nz=st.integers(2, 7),
        w=st.sampled_from([1, 3, 5, 7]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_box_sum_property(self, nx, ny, nz, w, seed):
        a = np.random.default_rng(seed).standard_normal((nx, ny, nz))
        np.testing.assert_allclose(_box_sum(a, w), brute_box_sum(a, w), atol=1e-9)

    @pytest.mark.parametrize(
        "dims", [(5, 4, 6), (1, 7, 3), (2, 1, 9), (6, 2, 1), (1, 1, 1), (2, 2, 2), (13, 11, 12)]
    )
    @pytest.mark.parametrize("w", [1, 3, 5, 9, 15, 31])
    def test_equals_prefix_take_reference_bitwise(self, rng, dims, w):
        # windows wider than an axis included (w = 15, 31)
        a = rng.standard_normal(dims)
        a.reshape(-1)[0] = -0.0
        got = _box_sum(a, w)
        assert np.array_equal(got, concat_take_box_sum(a, w))
        assert got.flags.c_contiguous

    def test_input_untouched(self, rng):
        a = rng.standard_normal((6, 5, 4))
        keep = a.copy()
        _box_sum(a, 3)
        assert np.array_equal(a, keep)


class TestNcc:
    def test_identical_is_one(self, rng):
        v = random_volume(rng, (8, 8, 8))
        assert ncc(v, v, LossConfig()) == pytest.approx(1.0, abs=1e-9)

    def test_affine_invariance(self, rng):
        v = random_volume(rng, (8, 8, 8))
        w = Volume(data=2.5 * v.data + 7.0, spacing=v.spacing)
        assert ncc(v, w, LossConfig()) == pytest.approx(1.0, abs=1e-6)
        assert ncc(w, v, LossConfig()) == pytest.approx(1.0, abs=1e-6)

    def test_negated_is_minus_one(self, rng):
        v = random_volume(rng, (8, 8, 8))
        w = Volume(data=-v.data, spacing=v.spacing)
        assert ncc(v, w, LossConfig()) == pytest.approx(-1.0, abs=1e-6)

    def test_range_bound(self, rng):
        cfg = LossConfig(ncc_window=3)
        for _ in range(10):
            a = random_volume(rng, (6, 5, 4))
            b = random_volume(rng, (6, 5, 4))
            val = ncc(a, b, cfg)
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9

    def test_symmetry(self, rng):
        a = random_volume(rng, (7, 6, 5))
        b = random_volume(rng, (7, 6, 5))
        cfg = LossConfig(ncc_window=5)
        assert ncc(a, b, cfg) == pytest.approx(ncc(b, a, cfg), abs=1e-12)

    def test_matches_brute_force(self, rng):
        a = random_volume(rng, (5, 4, 6))
        b = random_volume(rng, (5, 4, 6))
        for w in (3, 5):
            cfg = LossConfig(ncc_window=w)
            want = brute_ncc(a.data, b.data, w, cfg.variance_floor)
            assert ncc(a, b, cfg) == pytest.approx(want, abs=1e-10)

    def test_dims_mismatch_rejected(self, rng):
        a = random_volume(rng, (4, 4, 4))
        b = random_volume(rng, (4, 4, 5))
        with pytest.raises(ValueError):
            ncc(a, b, LossConfig())


class TestNccTermsExactness:
    """In-place window statistics reproduce the closed forms bit for bit."""

    @pytest.mark.parametrize("dims", [(9, 8, 7), (1, 6, 5), (2, 2, 2), (4, 1, 1)])
    @pytest.mark.parametrize("w", [1, 3, 9])
    def test_value_and_gradient_equal_reference(self, rng, dims, w):
        F = rng.standard_normal(dims)
        G = rng.standard_normal(dims)
        G[0] = 0.5  # a flat slab floors some windows
        got_value, got_grad = _ncc_terms(F, G, w, 1e-5, True)
        want_value, want_grad = closed_form_ncc_terms(F, G, w, 1e-5)
        assert got_value == want_value
        assert np.array_equal(got_grad, want_grad)
        assert _ncc_terms(F, G, w, 1e-5, False) == (want_value, None)

    def test_constant_moving_floors_everywhere(self, rng):
        F = rng.standard_normal((5, 5, 5))
        G = np.full((5, 5, 5), 2.0)
        got_value, got_grad = _ncc_terms(F, G, 3, 1e-5, True)
        want_value, want_grad = closed_form_ncc_terms(F, G, 3, 1e-5)
        assert got_value == want_value
        assert np.array_equal(got_grad, want_grad)


class TestNccValueSlabs:
    """The statistics pass over x-slabs of any size gives the closed forms'
    value and gradient to the bit."""

    @pytest.mark.parametrize("dims", [(11, 5, 7), (9, 6, 5), (6, 9, 8), (4, 7, 3)])
    @pytest.mark.parametrize("w", [1, 3, 9])
    def test_equals_whole_volume_bitwise(self, rng, monkeypatch, dims, w):
        # slabs of 1 and 2 planes, of r and r+1 planes, where the carried
        # cumulative sums reach furthest back, and of one slab, exactly nx
        # planes or more; (6, 9, 8) and (4, 7, 3) have windows wider than nx
        F = rng.standard_normal(dims)
        G = rng.standard_normal(dims)
        G[1] = 0.5  # a flat slab floors some windows
        want_value, want_grad = closed_form_ncc_terms(F, G, w, 1e-5)
        r = w // 2
        plane = dims[1] * dims[2]
        for planes in sorted({1, 2, r, r + 1, dims[0], dims[0] + 5} - {0}):
            monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", planes * plane)
            got_value, got_grad = _ncc_terms(F, G, w, 1e-5, True)
            assert got_value == want_value, planes
            assert np.array_equal(got_grad, want_grad), planes
            assert _ncc_terms(F, G, w, 1e-5, False) == (want_value, None), planes


class TestSimilarityLoss:
    def test_identical_pair_zero_field_is_stationary(self, rng):
        v = random_volume(rng, (8, 8, 8))
        value, grad = similarity_loss(v, v, DisplacementField.zeros(v.dims), LossConfig())
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert np.abs(grad).max() <= 1e-6

    def test_constant_moving_floored(self, rng):
        fixed = random_volume(rng, (6, 6, 6))
        moving = Volume(data=np.full((6, 6, 6), 4.0))
        field = offgrid_field(rng, (6, 6, 6))
        value, _ = similarity_loss(fixed, moving, field, LossConfig())
        assert -1e-2 <= value <= 1e-2

    def test_gradient_matches_finite_differences(self, rng):
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        field = offgrid_field(rng, (8, 8, 8))
        cfg = LossConfig(ncc_window=5)

        def fn(f):
            val, _ = similarity_loss(fixed, moving, f, cfg)
            return val

        _, grad = similarity_loss(fixed, moving, field, cfg)
        idx = [
            (int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.integers(0, 8)), c)
            for c in range(3)
            for _ in range(16)
        ]
        num = fd_gradient(fn, field, idx, step=1e-4)
        ana = np.array([grad[pos] for pos in idx])
        assert rel_err(num, ana) < 1e-5

    def test_dims_mismatch_rejected(self, rng):
        fixed = random_volume(rng, (4, 4, 4))
        moving = random_volume(rng, (4, 4, 4))
        with pytest.raises(ValueError):
            similarity_loss(fixed, moving, DisplacementField.zeros((4, 4, 5)), LossConfig())


class TestSmoothnessLoss:
    def test_zero_field(self):
        value, grad = smoothness_loss(DisplacementField.zeros((4, 4, 4)))
        assert value == 0.0
        assert not grad.any()

    def test_constant_field(self):
        data = np.broadcast_to([3.0, -2.0, 7.0], (4, 4, 4, 3)).copy()
        value, grad = smoothness_loss(DisplacementField(data))
        assert value == 0.0
        assert not grad.any()

    def test_linear_ramp_analytic_value(self):
        # u_x = 0.5 * x_mm on an n^3 grid with 2 mm spacing: the only nonzero
        # gradient entry is du_x/dx = 0.5 on the n-1 leading voxels per line
        n = 6
        x_mm = np.arange(n) * 2.0
        data = np.zeros((n, n, n, 3))
        data[..., 0] = 0.5 * x_mm[:, None, None]
        value, _ = smoothness_loss(DisplacementField(data, spacing=(2.0, 2.0, 2.0)))
        want = 0.25 * (n - 1) / n
        assert value == pytest.approx(want, abs=1e-12)

    def test_quadratic_scaling(self, rng):
        field = offgrid_field(rng, (6, 6, 6), spacing=(1.0, 2.0, 0.5))
        base, _ = smoothness_loss(field)
        for s in (2.0, 5.0, 0.25):
            scaled = DisplacementField(s * field.data, spacing=field.spacing)
            value, _ = smoothness_loss(scaled)
            assert value == pytest.approx(s * s * base, rel=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(5):
            value, _ = smoothness_loss(offgrid_field(rng, (5, 4, 6)))
            assert value >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        field = offgrid_field(rng, (6, 6, 6), spacing=(1.0, 1.5, 0.5))

        def fn(f):
            val, _ = smoothness_loss(f)
            return val

        _, grad = smoothness_loss(field)
        idx = [
            (int(rng.integers(0, 6)), int(rng.integers(0, 6)), int(rng.integers(0, 6)), c)
            for c in range(3)
            for _ in range(16)
        ]
        num = fd_gradient(fn, field, idx, step=1e-4)
        ana = np.array([grad[pos] for pos in idx])
        assert rel_err(num, ana) < 1e-8

    def test_one_voxel_axis_adds_no_differences(self, rng):
        # the last difference along an axis is zero, so an axis of one voxel
        # contributes nothing: the value equals that of the field with the
        # axis's one plane repeated, and the gradient is still analytic
        spacing = (1.0, 1.5, 0.5)
        for dims in ((8, 8, 1), (1, 4, 4)):
            field = offgrid_field(rng, dims, spacing=spacing)
            value, grad = smoothness_loss(field)
            axis = dims.index(1)
            doubled = DisplacementField(np.repeat(field.data, 2, axis=axis), spacing=spacing)
            assert value == pytest.approx(smoothness_loss(doubled)[0], rel=1e-12)
            idx = [
                tuple(int(rng.integers(0, n)) for n in dims) + (c,)
                for c in range(3)
                for _ in range(8)
            ]
            num = fd_gradient(lambda f: smoothness_loss(f)[0], field, idx, step=1e-4)
            assert rel_err(num, np.array([grad[pos] for pos in idx])) < 1e-8


class TestSmoothnessExactness:
    """The value and gradient have the closed forms' bytes: ``==`` and
    ``np.array_equal`` take -0.0 for +0.0, so the bytes are compared too."""

    @staticmethod
    def check(u, spacing):
        field = DisplacementField(u, spacing=spacing)
        value, grad = smoothness_loss(field)
        want_value, want_grad = closed_form_smoothness(u, spacing)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        value_only, none = smoothness_loss(field, with_grad=False)
        assert none is None
        assert np.float64(value_only).tobytes() == np.float64(want_value).tobytes()

    # the last three have a one-voxel axis, which adds no differences
    @pytest.mark.parametrize(
        "dims", [(6, 5, 4), (2, 2, 2), (2, 7, 3), (7, 1, 4), (1, 5, 3), (5, 4, 1)]
    )
    def test_value_and_gradient_equal_reference(self, rng, dims):
        self.check(rng.standard_normal(dims + (3,)), (1.5, 1.0, 0.75))

    # an axis of spacing 1.0 is not divided, beside axes that are or alone
    @pytest.mark.parametrize("spacing", [(1.0, 2.5, 1.0), (0.5, 1.5, 1.0), (1.0, 1.0, 1.0)])
    def test_unit_spacing_equals_reference(self, rng, spacing):
        self.check(rng.standard_normal((5, 4, 3, 3)), spacing)

    @pytest.mark.parametrize("spacing", [(1.5, 1.0, 0.75), (2.0, 1.0, 2.0)])
    def test_signed_zeros_equal_reference(self, rng, spacing):
        # -0.0 entries make -0.0 differences (-0.0 - +0.0), and the
        # smallest subnormals halve to -0.0 at spacing 2, so the gradient's
        # first plane, 0.0 - d, and its sums meet signed zeros
        values = np.array([-0.0, 0.0, -5e-324, 5e-324, 1.5, -1.5])
        u = rng.choice(values, size=(6, 5, 4, 3))
        self.check(u, spacing)

    # gradient slabs of 7 planes cut 1 ×7, (2, 2, 2, 1), (3, 3, 1), (4, 3)
    # and one slab: short last slabs, along x and across it
    @pytest.mark.parametrize("planes", [1, 2, 3, 4, 100])
    def test_gradient_slabs_equal_reference(self, rng, monkeypatch, planes):
        dims = (7, 5, 3)
        monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", planes * 5 * 3 * 3)
        u = rng.standard_normal(dims + (3,))
        u[2] = -0.0
        self.check(u, (1.5, 1.0, 0.75))


class TestOverallLoss:
    def test_identical_pair_zero_field(self, rng):
        v = random_volume(rng, (8, 8, 8))
        lv, _ = overall_loss(v, v, DisplacementField.zeros(v.dims), LossConfig(reg_weight=1.0))
        assert lv.total == pytest.approx(-1.0, abs=1e-6)
        assert lv.smoothness == 0.0

    def test_total_decomposition(self, rng):
        fixed = random_volume(rng, (6, 6, 6))
        moving = random_volume(rng, (6, 6, 6))
        field = offgrid_field(rng, (6, 6, 6))
        cfg = LossConfig(ncc_window=3, reg_weight=2.5)
        lv, grad = overall_loss(fixed, moving, field, cfg)
        assert isinstance(lv, LossValue)
        assert abs(lv.total - (lv.similarity + cfg.reg_weight * lv.smoothness)) <= 1e-12
        sim_val, sim_grad = similarity_loss(fixed, moving, field, cfg)
        smooth_val, smooth_grad = smoothness_loss(field)
        assert lv.similarity == sim_val
        assert lv.smoothness == smooth_val
        np.testing.assert_array_equal(grad, sim_grad + cfg.reg_weight * smooth_grad)

    def test_zero_weight_is_pure_similarity(self, rng):
        fixed = random_volume(rng, (6, 6, 6))
        moving = random_volume(rng, (6, 6, 6))
        field = offgrid_field(rng, (6, 6, 6))
        cfg = LossConfig(ncc_window=3, reg_weight=0.0)
        lv, grad = overall_loss(fixed, moving, field, cfg)
        sim_val, sim_grad = similarity_loss(fixed, moving, field, cfg)
        assert lv.total == sim_val
        np.testing.assert_array_equal(grad, sim_grad)

    def test_gradient_matches_finite_differences(self, rng):
        fixed = random_volume(rng, (8, 8, 8))
        moving = random_volume(rng, (8, 8, 8))
        field = offgrid_field(rng, (8, 8, 8))
        cfg = LossConfig(ncc_window=5, reg_weight=0.7)

        def fn(f):
            lv, _ = overall_loss(fixed, moving, f, cfg)
            return lv.total

        _, grad = overall_loss(fixed, moving, field, cfg)
        idx = [
            (int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.integers(0, 8)), c)
            for c in range(3)
            for _ in range(16)
        ]
        num = fd_gradient(fn, field, idx, step=1e-4)
        ana = np.array([grad[pos] for pos in idx])
        assert rel_err(num, ana) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(2, 7),) * 3),
        spacing=st.tuples(*(st.sampled_from([0.7, 1.0, 1.5, 2.0]),) * 3),
        reg_weight=st.sampled_from([0.0, 0.05, 1.0, 3.0]),
        w=st.sampled_from([3, 5, 7]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_value_only_equals_full_path_bitwise(self, dims, spacing, reg_weight, w, seed):
        rng = np.random.default_rng(seed)
        fixed = random_volume(rng, dims, spacing)
        moving = random_volume(rng, dims, spacing)
        field = offgrid_field(rng, dims, spacing)
        cfg = LossConfig(ncc_window=w, reg_weight=reg_weight)
        full, grad = overall_loss(fixed, moving, field, cfg)
        value_only, none = overall_loss(fixed, moving, field, cfg, with_grad=False)
        assert grad is not None and none is None

        def bits(*values):
            return np.array(values, dtype=np.float64).tobytes()

        assert bits(*astuple(value_only)) == bits(*astuple(full))
        smooth, none = smoothness_loss(field, with_grad=False)
        assert none is None and bits(smooth) == bits(full.smoothness)
        sim, none = similarity_loss(fixed, moving, field, cfg, with_grad=False)
        assert none is None and bits(sim) == bits(full.similarity)


class TestLossMemory:
    # Peak traced bytes of one overall_loss evaluation, in volumes of the
    # image size.  With fresh arrays it peaks at 11.4 volumes at 40^3, in
    # the NCC's pass (7.4) beside the warped image and its 3-volume sampling
    # derivative; the smoothness gradient, its differences and its slab
    # beside the similarity gradient take 10.  The bound leaves a margin
    # for numpy versions.
    PEAK_VOLUMES = 15

    def test_one_evaluation_stays_under_bound(self):
        rng = np.random.default_rng(0)
        dims = (40, 40, 40)
        fixed = Volume(data=rng.standard_normal(dims))
        moving = Volume(data=rng.standard_normal(dims))
        field = DisplacementField(data=rng.uniform(-2.0, 2.0, dims + (3,)))
        cfg = LossConfig()
        overall_loss(fixed, moving, field, cfg)  # warm-up
        tracemalloc.start()
        try:
            overall_loss(fixed, moving, field, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_VOLUMES * fixed.data.nbytes

    def test_value_only_smoothness_keeps_one_difference_buffer(self):
        rng = np.random.default_rng(0)
        field = DisplacementField(data=rng.uniform(-2.0, 2.0, (40, 40, 40, 3)))
        tracemalloc.start()
        try:
            smoothness_loss(field, with_grad=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * field.data.nbytes  # the differences, squared in place

    # The same evaluation with the warp, the NCC and the smoothness gradient
    # over 1-plane slabs, per path: the NCC's pass beside the warped image
    # and its 3-volume sampling derivative (10.8 volumes at 40^3; the
    # smoothness gradient, its differences and its slab beside the
    # similarity gradient stay lower) and the value-only warp with its
    # derivative (4.5 volumes).
    @pytest.mark.parametrize("with_grad, peak_volumes", [(True, 12), (False, 5)])
    def test_multi_slab_evaluation_stays_under_bound(self, monkeypatch, with_grad, peak_volumes):
        rng = np.random.default_rng(0)
        dims = (40, 40, 40)
        monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", 40 * 40)
        monkeypatch.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", 40 * 40)
        fixed = Volume(data=rng.standard_normal(dims))
        moving = Volume(data=rng.standard_normal(dims))
        field = DisplacementField(data=rng.uniform(-2.0, 2.0, dims + (3,)))
        cfg = LossConfig()
        overall_loss(fixed, moving, field, cfg, with_grad=with_grad)  # warm-up
        tracemalloc.start()
        try:
            overall_loss(fixed, moving, field, cfg, with_grad=with_grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < peak_volumes * fixed.data.nbytes

    # The NCC's value pass alone over 1-plane slabs: the correlation of
    # every window, the carried cumulative sums of 9 planes for each of the
    # 5 quantities, and one slab's statistics (2.6 volumes at 40^3).
    def test_slabbed_ncc_value_pass_stays_under_bound(self, monkeypatch):
        rng = np.random.default_rng(0)
        dims = (40, 40, 40)
        monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", 40 * 40)
        F = rng.standard_normal(dims)
        G = rng.standard_normal(dims)
        _ncc_terms(F, G, 9, 1e-5, False)  # warm-up
        tracemalloc.start()
        try:
            _ncc_terms(F, G, 9, 1e-5, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * F.nbytes

    # The NCC pass alone on a grid of one slab (48^3), per path: with the
    # gradient the correlation, the gradient's four pointwise terms (two of
    # which first hold F's statistics), the sums of G and one reused buffer
    # (7.4 volumes); without it the correlation, the five statistics and
    # the buffer (7.2).  Beside the warped image and its sampling
    # derivative it sets the evaluation's peak.
    @pytest.mark.parametrize("with_grad", [True, False])
    def test_one_slab_ncc_pass_stays_under_bound(self, with_grad):
        rng = np.random.default_rng(0)
        dims = (48, 48, 48)
        planes = defreg.warp._slab_planes(dims[0], dims[1] * dims[2], defreg.warp._SLAB_VOXELS)
        assert planes == dims[0]
        F = rng.standard_normal(dims)
        G = rng.standard_normal(dims)
        _ncc_terms(F, G, 9, 1e-5, with_grad)  # warm-up
        tracemalloc.start()
        try:
            _ncc_terms(F, G, 9, 1e-5, with_grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13 * F.nbytes


class TestWorkspace:
    """With a workspace every whole-volume array of an evaluation is one of
    its own, reused by the next evaluation; without one each evaluation's
    arrays are fresh.  The bits are the same either way."""

    CFG = LossConfig(ncc_window=5)

    def inputs(self, dims=(12, 10, 9)):
        rng = np.random.default_rng(0)
        fixed = Volume(data=rng.standard_normal(dims))
        moving = Volume(data=rng.standard_normal(dims))
        fields = [DisplacementField(data=rng.uniform(-2.0, 2.0, dims + (3,))) for _ in range(2)]
        return fixed, moving, fields

    def test_without_a_workspace_a_second_call_overwrites_nothing(self):
        fixed, moving, (u1, u2) = self.inputs()
        warped, sample_grad = warp_volume_with_gradient(moving, u1)
        _, grad = overall_loss(fixed, moving, u1, self.CFG)
        kept = [warped.data.copy(), sample_grad.copy(), grad.copy()]
        warped2, sample_grad2 = warp_volume_with_gradient(moving, u2)
        _, grad2 = overall_loss(fixed, moving, u2, self.CFG)
        for got, want in zip((warped.data, sample_grad, grad), kept):
            assert np.array_equal(got, want)
        for a, b in ((warped.data, warped2.data), (sample_grad, sample_grad2), (grad, grad2)):
            assert not np.shares_memory(a, b)

    # slabs of 1 and 3 planes carry cumulative sums between them, 3 and 4
    # planes of 11 leave a short last slab (3, 3, 3, 2 and 4, 4, 3), and 100
    # planes is one slab; the fixed image's statistics are taken in the
    # workspace's slabs, the evaluation's without a workspace in its own
    @pytest.mark.parametrize("planes", [1, 3, 4, 100])
    @pytest.mark.parametrize("with_grad", [True, False])
    def test_same_bits_in_the_workspace_memory(self, monkeypatch, planes, with_grad):
        for dims in ((12, 10, 9), (11, 7, 5)):
            fixed, moving, fields = self.inputs(dims)
            plane = dims[1] * dims[2]
            monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", planes * plane)
            monkeypatch.setattr(defreg.warp, "_SAMPLE_SLAB_VOXELS", planes * plane)
            ws = Workspace(fixed, self.CFG.ncc_window)
            for u in fields:
                want, want_grad = overall_loss(fixed, moving, u, self.CFG, with_grad=with_grad)
                got, got_grad = overall_loss(
                    fixed, moving, u, self.CFG, with_grad=with_grad, ws=ws
                )
                assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
                if with_grad:
                    assert got_grad.tobytes() == want_grad.tobytes()
                    assert np.shares_memory(got_grad, ws.smooth[0])
                else:
                    assert got_grad is None

    @pytest.mark.parametrize("planes", [1, 3, 4, 100])
    def test_fixed_statistics_equal_the_closed_forms(self, rng, monkeypatch, planes):
        F = rng.standard_normal((11, 7, 5))
        F[3] = 0.25  # a flat slab gives windows of variance 0
        monkeypatch.setattr(defreg.warp, "_SLAB_VOXELS", planes * 7 * 5)
        ws = Workspace(Volume(data=F), 5)
        n = _box_counts(F.shape, 5)
        muF = concat_take_box_sum(F, 5) / n
        varF = np.maximum(concat_take_box_sum(F * F, 5) - muF * concat_take_box_sum(F, 5), 0.0)
        assert ws.fixed_stats[0].tobytes() == muF.tobytes()
        assert ws.fixed_stats[1].tobytes() == varF.tobytes()

    def test_workspace_of_another_grid_or_window_refused(self):
        fixed, moving, (u, _) = self.inputs()
        other = Volume(data=np.zeros((12, 10, 8)))
        # another grid, or the same grid with other values (the moving
        # image), whose cached statistics would be wrong
        refused = (
            (Workspace(other, 5), "built for another fixed image"),
            (Workspace(moving, 5), "built for another fixed image"),
            (Workspace(fixed, 7), "ncc_window 7"),
        )
        for ws, why in refused:
            for with_grad in (True, False):
                with pytest.raises(ValueError, match=why):
                    overall_loss(fixed, moving, u, self.CFG, with_grad=with_grad, ws=ws)

    # A 48^3 workspace (window 9, one NCC slab, gradient slabs of 16 planes)
    # holds 13 image volumes: the pool's 8 (the warped value and the NCC's
    # 7: correlation, work buffer, G's sums and the gradient's 4 terms; the
    # smoothness' 3 + 3 + 1 fit in it), the sampling derivative's 3 and the
    # fixed image's 2 statistics.  Filling them allocates no whole volume.
    # An evaluation into it allocates only the warp's slab arrays (2.6).
    def test_48_cubed_holds_13_volumes_and_an_evaluation_adds_only_slabs(self):
        rng = np.random.default_rng(0)
        dims = (48, 48, 48)
        fixed = Volume(data=rng.standard_normal(dims))
        moving = Volume(data=rng.standard_normal(dims))
        u = DisplacementField(data=rng.uniform(-2.0, 2.0, dims + (3,)))
        volume = fixed.data.nbytes
        tracemalloc.start()
        try:
            ws = Workspace(fixed, 9)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 13 * volume <= held < 13.01 * volume
        assert peak < 13.5 * volume
        for with_grad in (True, False):
            overall_loss(fixed, moving, u, LossConfig(), with_grad=with_grad, ws=ws)  # warm-up
            tracemalloc.start()
            try:
                overall_loss(fixed, moving, u, LossConfig(), with_grad=with_grad, ws=ws)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * volume, with_grad

    def test_warp_writes_into_the_given_arrays(self):
        _, moving, (u, _) = self.inputs()
        want, want_grad = warp_volume_with_gradient(moving, u)
        out = (np.empty(u.dims), np.empty(u.dims + (3,)))
        warped, grad = warp_volume_with_gradient(moving, u, out=out)
        assert grad is out[1] and np.shares_memory(warped.data, out[0])
        assert not warped.data.flags.writeable
        assert np.array_equal(warped.data, want.data) and np.array_equal(grad, want_grad)
