import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.volume import (
    Volume,
    _zscore,
    export_slice,
    load_volume,
    save_volume,
    slice_2d,
    zscore_normalize,
)
from defreg.warp import DisplacementField, load_field, save_field

from conftest import random_volume


class TestVolumeType:
    def test_basic_construction(self):
        v = Volume(data=np.zeros((2, 3, 4)), spacing=(1.0, 2.0, 3.0))
        assert v.dims == (2, 3, 4)
        assert v.spacing == (1.0, 2.0, 3.0)
        assert v.origin == (0.0, 0.0, 0.0)

    def test_data_is_immutable(self):
        v = Volume(data=np.zeros((2, 2, 2)), spacing=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume(data=data, spacing=(1.0, 1.0, 1.0))

    def test_rejects_inf(self):
        data = np.zeros((2, 2, 2))
        data[1, 1, 1] = np.inf
        with pytest.raises(ValueError):
            Volume(data=data, spacing=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("spacing", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, np.inf)])
    def test_rejects_bad_spacing(self, spacing):
        with pytest.raises(ValueError):
            Volume(data=np.zeros((2, 2, 2)), spacing=spacing)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Volume(data=np.zeros((2, 2)), spacing=(1.0, 1.0, 1.0))


def frozen_holder(name):
    """(constructor that returns the array it keeps, a fresh writable input)."""
    from defreg.evaluate import LandmarkSet
    from defreg.warp import DisplacementField

    ids, points, clamped = np.arange(2), np.zeros((2, 3)), np.zeros(2, dtype=bool)
    return {
        "volume": (lambda a: Volume(a).data, np.zeros((2, 2, 2))),
        "field": (lambda a: DisplacementField(a).data, np.zeros((2, 2, 2, 3))),
        "ids": (lambda a: LandmarkSet(ids=a, points=points).ids, ids),
        "points": (lambda a: LandmarkSet(ids=ids, points=a).points, points),
        "clamped": (lambda a: LandmarkSet(ids=ids, points=points, clamped=a).clamped, clamped),
    }[name]


@pytest.mark.parametrize("name", ["volume", "field", "ids", "points", "clamped"])
class TestFreezeRule:
    """Every frozen holder copies a writable buffer its caller passed and
    shares one that is already read-only."""

    def test_writable_buffer_is_copied_and_left_writable(self, name):
        held, given = frozen_holder(name)
        kept = held(given)
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(kept, given)

    def test_read_only_array_is_shared(self, name):
        held, given = frozen_holder(name)
        given.flags.writeable = False
        assert held(given) is given


class TestRoundTrip:
    def test_known_bytes_layout(self, tmp_path):
        # values 0..7 in x-fastest linear order
        data = np.arange(8, dtype=np.float64).reshape(2, 2, 2, order="F")
        v = Volume(data=data, spacing=(1.0, 1.0, 1.0))
        path = tmp_path / "t.vol"
        save_volume(v, path)
        raw = np.frombuffer(path.read_bytes(), dtype="<f4")
        assert raw.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        header = json.loads((tmp_path / "t.vol.json").read_text())
        assert header["dims"] == [2, 2, 2]
        assert header["dtype"] == "f32le"
        assert path.stat().st_size == 4 * 8

    def test_round_trip_bit_exact(self, tmp_path, rng):
        v = random_volume(rng, dims=(8, 8, 8), f32=True)
        save_volume(v, tmp_path / "r.vol")
        back = load_volume(tmp_path / "r.vol")
        assert np.array_equal(back.data, v.data)
        assert back.spacing == v.spacing
        assert back.origin == v.origin

    def test_round_trip_anisotropic(self, tmp_path, rng):
        v = Volume(
            data=rng.normal(size=(5, 7, 3)).astype("<f4").astype(np.float64),
            spacing=(0.7, 1.3, 2.1),
            origin=(-4.0, 2.5, 0.0),
        )
        save_volume(v, tmp_path / "a.vol")
        back = load_volume(tmp_path / "a.vol")
        assert np.array_equal(back.data, v.data)
        assert back.spacing == pytest.approx(v.spacing, abs=0)
        assert back.origin == pytest.approx(v.origin, abs=0)

    def test_length_mismatch_rejected(self, tmp_path, rng):
        v = random_volume(rng, dims=(3, 3, 3), f32=True)
        save_volume(v, tmp_path / "m.vol")
        raw = (tmp_path / "m.vol").read_bytes()
        (tmp_path / "m.vol").write_bytes(raw[:-4])  # 26 values for dims (3,3,3)
        with pytest.raises(ValueError):
            load_volume(tmp_path / "m.vol")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_volume(tmp_path / "nope.vol")

    def test_missing_sidecar(self, tmp_path, rng):
        v = random_volume(rng, dims=(2, 2, 2), f32=True)
        save_volume(v, tmp_path / "s.vol")
        (tmp_path / "s.vol.json").unlink()
        with pytest.raises(OSError):
            load_volume(tmp_path / "s.vol")

    def test_nonfinite_payload_rejected(self, tmp_path, rng):
        v = random_volume(rng, dims=(2, 2, 2), f32=True)
        save_volume(v, tmp_path / "n.vol")
        bad = np.full(8, np.nan, dtype="<f4")
        (tmp_path / "n.vol").write_bytes(bad.tobytes())
        with pytest.raises(ValueError):
            load_volume(tmp_path / "n.vol")


def reference_payload(data):
    """The earlier writer's bytes: one whole-volume float32 transpose."""
    return data.transpose(2, 1, 0, *range(3, data.ndim)).astype("<f4").tobytes()


def reference_samples(payload, dims, channel_shape):
    """The earlier reader's samples: a float64 flat copy, then one strided
    whole-volume copy."""
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    data = flat.reshape(tuple(reversed(dims)) + channel_shape)
    return np.ascontiguousarray(data.transpose(2, 1, 0, *range(3, data.ndim)))


GRID_IO = {
    "volume": (Volume, save_volume, load_volume),
    "field": (DisplacementField, save_field, load_field),
}


@pytest.mark.parametrize("kind", ["volume", "field"])
class TestGridFileOrder:
    """Grids are written a block of z-planes at a time and read a y-plane
    at a time; the bytes and the values are those of the whole-volume
    transposes."""

    # odd dims, one-voxel axes, nz below, at and past the 8-plane block and
    # not a multiple of it
    @pytest.mark.parametrize(
        "dims", [(5, 7, 3), (1, 6, 4), (7, 1, 1), (1, 1, 1), (3, 4, 8), (6, 5, 19), (2, 3, 17)]
    )
    def test_bytes_and_values_equal_the_reference(self, tmp_path, kind, dims):
        cls, save, load = GRID_IO[kind]
        rng = np.random.default_rng(7)
        data = rng.standard_normal(dims + cls.channel_shape) * 100.0
        data.flat[0] = -0.0
        grid = cls(data=data, spacing=(0.7, 1.3, 2.1), origin=(-4.0, 2.5, 0.0))
        path = tmp_path / "g.raw"
        save(grid, path)
        payload = path.read_bytes()
        assert payload == reference_payload(grid.data)
        back = load(path)
        want = reference_samples(payload, dims, cls.channel_shape)
        assert back.data.tobytes() == want.tobytes()
        assert back.data.shape == want.shape and back.data.flags.c_contiguous
        assert not back.data.flags.writeable
        assert (back.spacing, back.origin) == (grid.spacing, grid.origin)

    def refused(self, tmp_path, kind, message, damage):
        cls, save, load = GRID_IO[kind]
        shape = (3, 3, 3) + cls.channel_shape
        data = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
        save(cls(data=data), tmp_path / "g.raw")
        damage(tmp_path / "g.raw")
        with pytest.raises((ValueError, OSError), match=message):
            load(tmp_path / "g.raw")

    def test_truncated_payload_refused(self, tmp_path, kind):
        def truncate(path):
            path.write_bytes(path.read_bytes()[:-4])

        self.refused(tmp_path, kind, r"payload is \d+ bytes but header dims \(3, 3, 3\)", truncate)

    def test_nonfinite_payload_refused(self, tmp_path, kind):
        def poison(path):
            raw = bytearray(path.read_bytes())
            raw[-4:] = np.array([np.inf], dtype="<f4").tobytes()
            path.write_bytes(bytes(raw))

        self.refused(tmp_path, kind, "payload contains non-finite values", poison)

    def test_missing_sidecar_refused(self, tmp_path, kind):
        def unlink_sidecar(path):
            path.with_name(path.name + ".json").unlink()

        self.refused(tmp_path, kind, "missing sidecar header", unlink_sidecar)

    def test_channel_mismatch_refused(self, tmp_path, kind):
        cls, _, load = GRID_IO[kind]
        other = {"volume": "field", "field": "volume"}[kind]
        ocls, osave, _ = GRID_IO[other]
        osave(ocls(data=np.zeros((3, 3, 3) + ocls.channel_shape)), tmp_path / "g.raw")
        want = math.prod(cls.channel_shape), math.prod(ocls.channel_shape)
        with pytest.raises(ValueError, match=r"expected %d channel\(s\), header says %d" % want):
            load(tmp_path / "g.raw")

    # Bounds stated before they were run, in result-sizes (the grid's
    # float64 bytes), at 64x48x40: the earlier reader peaked at 2.63 (the
    # payload, its float64 flat copy and the transposed copy) and the
    # earlier writer at 1.00 (the float32 copy and its bytes).  A load now
    # holds the payload beside the result (1.5); a save holds one block of
    # 8 of the 40 z-planes in float32 (0.1).
    def test_load_and_save_peaks(self, tmp_path, kind):
        cls, save, load = GRID_IO[kind]
        rng = np.random.default_rng(0)
        grid = cls(data=rng.standard_normal((64, 48, 40) + cls.channel_shape))
        path = tmp_path / "g.raw"
        save(grid, path)
        load(path)  # warm-up
        tracemalloc.start()
        try:
            save(grid, path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            load(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_peak <= 1.7 * grid.data.nbytes
        assert save_peak <= 0.3 * grid.data.nbytes


class TestZscore:
    def test_two_values(self):
        v = Volume(data=np.array([0.0, 2.0]).reshape(2, 1, 1), spacing=(1.0, 1.0, 1.0))
        out = zscore_normalize(v)
        assert out.data.ravel().tolist() == [-1.0, 1.0]

    def test_constant_maps_to_zeros(self):
        v = Volume(data=np.full((2, 2, 1), 5.0), spacing=(1.0, 1.0, 1.0))
        out = zscore_normalize(v)
        assert np.array_equal(out.data, np.zeros((2, 2, 1)))

    def test_moments(self, rng):
        v = random_volume(rng, dims=(8, 8, 8))
        out = zscore_normalize(v)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 1e-6

    def test_idempotent(self, rng):
        v = random_volume(rng, dims=(6, 6, 6))
        once = zscore_normalize(v)
        twice = zscore_normalize(once)
        assert np.max(np.abs(twice.data - once.data)) < 1e-6

    def test_equals_the_closed_form_bytes(self, rng):
        v = random_volume(rng, dims=(9, 7, 5))
        mean, std = float(np.mean(v.data)), float(np.std(v.data))
        out = _zscore(v, mean, std)
        assert out.data.tobytes() == ((v.data - mean) / std).tobytes()
        assert not out.data.flags.writeable

    # The result and the grid's finiteness mask (1/8 volume): 1.14 volumes
    # at 24^3, against 2.0 for (v.data - mean) / std.  The grid is below
    # the 256 KiB from which numpy reuses the difference's temporary itself.
    def test_allocates_one_volume(self, rng):
        v = random_volume(rng, dims=(24, 24, 24))
        mean, std = float(np.mean(v.data)), float(np.std(v.data))
        _zscore(v, mean, std)  # warm-up
        tracemalloc.start()
        try:
            out = _zscore(v, mean, std)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * v.data.nbytes
        assert out.data.nbytes == v.data.nbytes

    @given(a=st.floats(0.1, 50.0), b=st.floats(-100.0, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(99)
        v = random_volume(rng, dims=(5, 5, 5))
        base = zscore_normalize(v)
        mapped = zscore_normalize(
            Volume(data=a * v.data + b, spacing=v.spacing, origin=v.origin)
        )
        assert np.max(np.abs(mapped.data - base.data)) < 1e-6


class TestSliceExport:
    def test_slice_2d_orientation(self):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4, order="F")
        v = Volume(data=data, spacing=(1.0, 1.0, 1.0))
        sl = slice_2d(v, "x", 1)
        assert sl.shape == (3, 4)
        assert sl[0, 0] == data[1, 0, 0]
        sl = slice_2d(v, "z", 0)
        assert sl.shape == (2, 3)

    def test_linear_rescale_endpoints(self, tmp_path):
        data = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 2, 2, order="F")
        v = Volume(data=data, spacing=(1.0, 1.0, 1.0))
        out = tmp_path / "s.pgm"
        export_slice(v, "x", 0, out)
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n")
        header, pixels = raw.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(pixels) == [0, 85, 170, 255]

    def test_constant_slice_all_128(self, tmp_path):
        v = Volume(data=np.full((2, 2, 2), 3.3), spacing=(1.0, 1.0, 1.0))
        out = tmp_path / "c.pgm"
        export_slice(v, "z", 1, out)
        pixels = out.read_bytes().split(b"255\n", 1)[1]
        assert set(pixels) == {128}

    def test_index_out_of_range(self, rng, tmp_path):
        v = random_volume(rng, dims=(3, 3, 3))
        with pytest.raises(ValueError):
            export_slice(v, "y", 3, tmp_path / "x.pgm")

    def test_bad_axis(self, rng, tmp_path):
        v = random_volume(rng, dims=(3, 3, 3))
        with pytest.raises(ValueError):
            export_slice(v, "w", 0, tmp_path / "x.pgm")
