"""Grids of samples: scalar volumes, preprocessing, raw file I/O and slice export.

A grid holds float64 samples on a regular 3D lattice with physical spacing
in millimeters.  In memory ``data`` is indexed ``[x, y, z]`` so that axis
``i`` lines up with ``dims[i]`` and ``spacing[i]``, with any per-voxel
channels trailing: none for a ``Volume``, 3 for a ``warp.DisplacementField``.
Both subclass ``_Grid``; they differ only in channel shape.  A grid's
array takes one of two paths, and either way the grid holds it read-only:

* an outside array, passed to the public constructor, is converted to
  C-order float64, scanned for finiteness and frozen by the one
  copy-then-freeze rule (``_frozen``, which ``LandmarkSet`` uses too): a
  caller's writable buffer is copied, a read-only one shared;
* an array that defreg made from checked grids (a downsampled, padded,
  warped, resampled or normalized image, a Jacobian map, a predicted
  field, a loaded payload whose float32 samples were scanned) is adopted
  (``_Grid._adopt``): frozen in place, neither copied nor scanned.

Both paths check the shape, spacing and origin.  As an adopted array is
not scanned, arithmetic that overflows leaves its non-finite values in the
grid: a field that the convnet predicts from overflowing weights is one,
and the registration loop catches it through its non-finite loss.

On disk voxels are stored as little-endian float32, x-fastest with
channels interleaved, next to a JSON sidecar header; ``_load_grid`` and
``_save_grid`` read and write both kinds.  Because files
hold float32, a grid whose samples are exactly float32-representable
(anything that came from a file) round-trips bit-exactly through save/load.

Both transpose between the file's (z, y, x) order and the grid's a y-plane
at a time, so each copy stays in cache.  A load checks the payload's length
and finiteness once, then casts each y-plane, transposed, straight into the
float64 array that the grid keeps: its peak is the payload beside the
result, 1.5 result-sizes (2.6 for one flat float64 copy and one strided
whole-volume copy).  A save casts blocks of 8 z-planes into one reused
float32 buffer and writes each block from it: 0.1 result-sizes at
64x48x40 (1.0 for a whole float32 copy and its bytes).  On a 2-CPU x86-64
host (numpy 2.4.6), a 160x192x160 volume loads in 25 ms instead of 88, a
field in 109 instead of 241, and at 240x240x155 in 66 instead of 162 and
219 instead of 425; saves are bound by the write (a 160x192x160 field 163
against 190 ms).  The files and the loaded samples are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

__all__ = [
    "Volume",
    "VolumeHeader",
    "load_volume",
    "save_volume",
    "zscore_normalize",
    "export_slice",
]

_AXES = {"x": 0, "y": 1, "z": 2}
_SAVE_PLANES = 8  # z-planes cast into the float32 buffer per write


def _check_triple(name: str, values, *, positive: bool) -> tuple[float, float, float]:
    t = tuple(float(v) for v in values)
    if len(t) != 3:
        raise ValueError(f"{name} must have 3 components, got {len(t)}")
    if not all(np.isfinite(t)):
        raise ValueError(f"{name} must be finite, got {t}")
    if positive and not all(v > 0 for v in t):
        raise ValueError(f"{name} components must be > 0, got {t}")
    return t


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, converted from the caller's ``given``, made read-only.

    A caller-owned writable buffer is copied first, never frozen in place;
    an array that is already read-only is shared.
    """
    if arr is given and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Grid:
    """Immutable float64 samples on a regular 3D grid.

    data: array of shape (nx, ny, nz) + ``channel_shape``, indexed [x, y, z, ...]
    spacing: mm per voxel along (x, y, z)
    origin: world position of voxel (0, 0, 0) in mm
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    channel_shape: ClassVar[tuple[int, ...]] = ()  # per-voxel sample shape

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64, order="C")
        self._hold(arr, self.spacing, self.origin, given=self.data)

    @classmethod
    def _adopt(cls, data: np.ndarray, spacing, origin):
        """A grid holding ``data``, a float64 C-order array that defreg
        made from checked grids: frozen in place, neither copied nor
        scanned for finiteness."""
        data.flags.writeable = False
        grid = object.__new__(cls)
        grid._hold(data, spacing, origin)
        return grid

    def _hold(self, arr, spacing, origin, given=None):
        """Check ``arr``'s shape and keep it, with checked spacing and
        origin.  An outside array, ``given``, is scanned for finiteness
        and frozen by ``_frozen``'s rule; an adopted one is kept as it is."""
        cs = self.channel_shape
        if arr.ndim != 3 + len(cs) or arr.shape[3:] != cs or 0 in arr.shape:
            want = ", ".join(("nx", "ny", "nz") + tuple(map(str, cs)))
            raise ValueError(
                f"{type(self).__name__} data must have non-empty shape ({want}), got {arr.shape}"
            )
        if given is not None:
            if not np.isfinite(arr).all():
                raise ValueError(f"{type(self).__name__} data contains non-finite values")
            arr = _frozen(arr, given)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_triple("spacing", spacing, positive=True))
        object.__setattr__(self, "origin", _check_triple("origin", origin, positive=False))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]


class Volume(_Grid):
    """Immutable scalar image on a 3D grid, data of shape (nx, ny, nz)."""


@dataclass(frozen=True)
class VolumeHeader:
    """Sidecar metadata for a raw volume or displacement-field file."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    dtype: str = "f32le"
    channels: int = 1

    def to_json(self) -> str:
        doc = {
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "origin": list(self.origin),
            "dtype": self.dtype,
        }
        if self.channels != 1:
            doc["channels"] = self.channels
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "VolumeHeader":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"header must be a JSON object, got {type(doc).__name__}")
        for key in ("dims", "spacing"):
            if key not in doc:
                raise ValueError(f"header has no {key!r} key")
        dims = tuple(int(d) for d in doc["dims"])
        if len(dims) != 3 or min(dims) < 1:
            raise ValueError(f"bad dims in header: {doc['dims']}")
        return cls(
            dims=dims,
            spacing=_check_triple("spacing", doc["spacing"], positive=True),
            origin=_check_triple("origin", doc.get("origin", (0.0, 0.0, 0.0)), positive=False),
            dtype=str(doc.get("dtype", "f32le")),
            channels=int(doc.get("channels", 1)),
        )


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _load_grid(path, cls: type[_Grid]) -> _Grid:
    """Read a raw little-endian f32 file (x-fastest, channels interleaved)
    and its JSON sidecar into a grid of type ``cls``."""
    path = Path(path)
    header_path = _sidecar_path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing raw file: {path}")
    if not header_path.is_file():
        raise FileNotFoundError(f"missing sidecar header: {header_path}")
    try:
        header = VolumeHeader.from_json(header_path.read_text())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{header_path}: {exc}") from None
    if header.dtype != "f32le":
        raise ValueError(f"unsupported dtype tag {header.dtype!r} in {header_path}")
    channels = math.prod(cls.channel_shape)
    if header.channels != channels:
        raise ValueError(f"{path}: expected {channels} channel(s), header says {header.channels}")
    data = _read_samples(path, header.dims, cls.channel_shape)
    return cls._adopt(data, header.spacing, header.origin)


def _read_samples(path: Path, dims, channel_shape) -> np.ndarray:
    """The payload of ``path`` as a fresh float64 array of shape
    ``dims + channel_shape``, after its length and finiteness are checked.

    The file is x-fastest, (z, y, x[, c]): each y-plane is cast and
    transposed on its own into the C-order result, so the copy stays in
    cache; the payload is freed on return.  This is a load's one
    finiteness scan: a finite float32 casts to a finite float64, so
    ``_load_grid`` adopts the result.
    """
    payload = path.read_bytes()
    nx, ny, nz = dims
    expected = 4 * nx * ny * nz * math.prod(channel_shape)
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes but header dims {dims} "
            f"require {expected} (corrupt pair?)"
        )
    flat = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: payload contains non-finite values (bad export?)")
    planes = flat.reshape((nz, ny, nx) + channel_shape)
    data = np.empty((nx, ny, nz) + channel_shape)
    for j in range(ny):
        data[:, j] = planes[:, j].swapaxes(0, 1)
    return data


def _save_grid(grid: _Grid, path) -> None:
    """Write raw little-endian float32 payload plus JSON sidecar.

    The file is x-fastest, (z, y, x[, c]): blocks of ``_SAVE_PLANES``
    z-planes are cast into one reused float32 buffer, each y-plane of a
    block transposed on its own, as the reader does, and each block is
    written from the buffer.
    """
    path = Path(path)
    channels = math.prod(grid.channel_shape)
    header = VolumeHeader(grid.dims, grid.spacing, grid.origin, channels=channels)
    data = grid.data
    nx, ny, nz = grid.dims
    block = np.empty((min(_SAVE_PLANES, nz), ny, nx) + grid.channel_shape, dtype="<f4")
    with open(path, "wb") as f:
        for z in range(0, nz, len(block)):
            planes = block[: nz - z]
            for j in range(ny):
                planes[:, j] = data[:, j, z : z + len(planes)].swapaxes(0, 1)
            f.write(planes)
    _sidecar_path(path).write_text(header.to_json())


def load_volume(path) -> Volume:
    """Load a ``.vol`` raw file and its ``.vol.json`` sidecar."""
    return _load_grid(path, Volume)


def save_volume(v: Volume, path) -> None:
    """Write a ``.vol`` raw file and its ``.vol.json`` sidecar."""
    _save_grid(v, path)


def zscore_normalize(v: Volume) -> Volume:
    """Subtract the mean and divide by the population standard deviation.

    Constant volumes map to all zeros instead of raising; a volume whose
    mean or standard deviation overflows float64 is refused.
    """
    return _zscore(v, float(np.mean(v.data)), float(np.std(v.data)))


def _zscore(v: Volume, mean: float, std: float) -> Volume:
    """``zscore_normalize`` with the volume's mean and std already known.

    Statistics that overflow are refused: the result, adopted unscanned,
    could be non-finite, where finite ones keep it finite.
    """
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"volume too large to normalize: its mean {mean} or std {std} overflows")
    if std < 1e-12 * max(1.0, abs(mean)):
        data = np.zeros(v.dims)
    else:
        data = v.data - mean
        data /= std
    return Volume._adopt(data, v.spacing, v.origin)


def slice_2d(v: Volume, axis: str, index: int) -> np.ndarray:
    """Extract a 2D slice; remaining axes keep their (x, y, z) order."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    ax = _AXES[axis]
    n = v.dims[ax]
    if not 0 <= index < n:
        raise ValueError(f"slice index {index} out of range for axis {axis} (dim {n})")
    return np.take(v.data, index, axis=ax)


def export_slice(v: Volume, axis: str, index: int, path) -> None:
    """Write one slice as a binary PGM (magic P5), rescaled to [0, 255].

    The rescale window is the slice's own [min, max]; a constant slice maps
    to all-128.
    """
    plane = slice_2d(v, axis, index)
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo < 1e-12 * max(1.0, abs(lo)):
        pixels = np.full(plane.shape, 128, dtype=np.uint8)
    else:
        scaled = (plane - lo) / (hi - lo) * 255.0
        pixels = np.rint(scaled).clip(0, 255).astype(np.uint8)
    width, height = plane.shape
    # raster rows run along the second remaining axis; the first varies fastest
    raster = pixels.T.tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(raster)
