"""Objective tests: windowed correlation, smoothness penalty, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.loss import (
    LossConfig,
    LossValue,
    _box_counts,
    _box_sum,
    _ncc_terms,
    ncc,
    overall_loss,
    similarity_loss,
    smoothness_loss,
)
from defreg.volume import Volume
from defreg.warp import DisplacementField

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
    if w == 1:
        return a.copy()
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

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            smoothness_loss(DisplacementField.zeros((1, 4, 4)))


class TestSmoothnessExactness:
    @pytest.mark.parametrize("dims", [(6, 5, 4), (2, 2, 2), (2, 7, 3)])
    def test_value_and_gradient_equal_reference(self, rng, dims):
        spacing = (1.5, 1.0, 0.75)
        u = rng.standard_normal(dims + (3,))
        value, grad = smoothness_loss(DisplacementField(u, spacing=spacing))
        want_value, want_grad = closed_form_smoothness(u, spacing)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


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


class TestLossMemory:
    # Peak traced bytes of one overall_loss evaluation, in volumes of the
    # image size.  The in-place hot path peaks near 18 volumes at 40^3; the
    # bound leaves a margin for numpy versions.
    PEAK_VOLUMES = 24

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
