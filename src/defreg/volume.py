"""Dense 3D scalar volumes: preprocessing, raw file I/O and slice export.

A volume lives on a regular grid with physical spacing in millimeters.
In memory ``data`` is a float64 array indexed ``[x, y, z]`` so that axis
``i`` lines up with ``dims[i]`` and ``spacing[i]``.  On disk voxels are
stored as little-endian float32, x-fastest, next to a JSON sidecar header.
Because files hold float32, a volume whose intensities are exactly
float32-representable (anything that came from a file) round-trips
bit-exactly through save/load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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


def _check_triple(name: str, values, *, positive: bool) -> tuple[float, float, float]:
    t = tuple(float(v) for v in values)
    if len(t) != 3:
        raise ValueError(f"{name} must have 3 components, got {len(t)}")
    if not all(np.isfinite(t)):
        raise ValueError(f"{name} must be finite, got {t}")
    if positive and not all(v > 0 for v in t):
        raise ValueError(f"{name} components must be > 0, got {t}")
    return t


@dataclass(frozen=True)
class Volume:
    """Immutable scalar image on a 3D grid.

    data: float64 array of shape (nx, ny, nz), indexed [x, y, z]
    spacing: mm per voxel along (x, y, z)
    origin: world position of voxel (0, 0, 0) in mm, carried as metadata
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"volume data must be 3D and non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("volume data contains non-finite values")
        if arr is self.data and arr.flags.writeable:
            arr = arr.copy()  # never freeze a caller-owned buffer in place
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_triple("spacing", self.spacing, positive=True))
        object.__setattr__(self, "origin", _check_triple("origin", self.origin, positive=False))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


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


def _read_raw(path, expected_channels: int) -> tuple[VolumeHeader, np.ndarray]:
    """Read a raw little-endian f32 file plus sidecar; returns x-fastest payload."""
    path = Path(path)
    header_path = _sidecar_path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing raw file: {path}")
    if not header_path.is_file():
        raise FileNotFoundError(f"missing sidecar header: {header_path}")
    header = VolumeHeader.from_json(header_path.read_text())
    if header.dtype != "f32le":
        raise ValueError(f"unsupported dtype tag {header.dtype!r} in {header_path}")
    if header.channels != expected_channels:
        raise ValueError(
            f"{path}: expected {expected_channels} channel(s), header says {header.channels}"
        )
    payload = path.read_bytes()
    nx, ny, nz = header.dims
    expected = 4 * nx * ny * nz * expected_channels
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes but header dims {header.dims} "
            f"require {expected} (corrupt pair?)"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: payload contains non-finite values (bad export?)")
    return header, flat


def load_volume(path) -> Volume:
    """Load a ``.vol`` raw file and its ``.vol.json`` sidecar."""
    header, flat = _read_raw(path, expected_channels=1)
    nx, ny, nz = header.dims
    # file order is x-fastest: reshape (z, y, x) then put axes back to (x, y, z)
    data = flat.reshape(nz, ny, nx).transpose(2, 1, 0)
    return Volume(data=data, spacing=header.spacing, origin=header.origin)


def save_volume(v: Volume, path) -> None:
    """Write raw little-endian float32 payload plus JSON sidecar."""
    path = Path(path)
    header = VolumeHeader(dims=v.dims, spacing=v.spacing, origin=v.origin)
    payload = v.data.transpose(2, 1, 0).astype("<f4").tobytes()
    path.write_bytes(payload)
    _sidecar_path(path).write_text(header.to_json())


def zscore_normalize(v: Volume) -> Volume:
    """Subtract the mean and divide by the population standard deviation.

    Constant volumes map to all zeros instead of raising.
    """
    return _zscore(v, float(np.mean(v.data)), float(np.std(v.data)))


def _zscore(v: Volume, mean: float, std: float) -> Volume:
    """``zscore_normalize`` with the volume's mean and std already known."""
    if std < 1e-12 * max(1.0, abs(mean)):
        data = np.zeros(v.dims)
    else:
        data = (v.data - mean) / std
    data.flags.writeable = False  # fresh array: the volume need not copy it
    return Volume(data=data, spacing=v.spacing, origin=v.origin)


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
