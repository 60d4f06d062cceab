"""Output checks and quality numbers, computed without defreg's own code.

The benchmark reads defreg's output field files itself and measures the
field against the ground truth it generated, so a change to defreg's
evaluation code cannot change what the benchmark accepts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def read_dfield(path) -> np.ndarray:
    """A ``.dfield`` file: little-endian f32, x fastest, 3 interleaved components."""
    path = Path(path)
    header = json.loads(path.with_name(path.name + ".json").read_text())
    nx, ny, nz = header["dims"]
    flat = np.fromfile(path, dtype="<f4")
    if flat.size != nx * ny * nz * 3:
        raise ValueError(f"{path}: {flat.size} values for dims {header['dims']} x 3")
    return flat.reshape(nz, ny, nx, 3).transpose(2, 1, 0, 3).astype(np.float64)


def field_failures(field: np.ndarray, dims) -> list[str]:
    """The field must have the input dims and hold only finite values."""
    if field.shape != tuple(dims) + (3,):
        return [f"field shape {list(field.shape)} != {list(dims) + [3]}"]
    if not np.isfinite(field).all():
        return ["field holds non-finite values"]
    return []


def landmark_reduction(field, spacing, fixed_points, moving_points) -> float:
    """1 - mean error after / mean error before, landmarks mapped x -> x + u(x).

    Fixed landmarks sit on grid nodes, where trilinear sampling returns the
    node value exactly, so the mapped point is a plain lookup.
    """
    nodes = np.rint(fixed_points / spacing).astype(np.int64)
    if not np.array_equal(nodes * spacing, fixed_points):
        raise ValueError("fixed landmarks are not on grid nodes")
    mapped = fixed_points + field[nodes[:, 0], nodes[:, 1], nodes[:, 2]]
    before = np.linalg.norm(fixed_points - moving_points, axis=1)
    after = np.linalg.norm(mapped - moving_points, axis=1)
    return 1.0 - float(after.mean()) / float(before.mean())


def oracle_error(field, true_field, margin: int) -> float:
    """Mean Euclidean field error (mm) over voxels at least ``margin`` from the border."""
    inner = tuple(slice(margin, n - margin) for n in field.shape[:3])
    diff = field[inner] - true_field[inner]
    return float(np.mean(np.sqrt((diff * diff).sum(axis=-1))))


def folding_fraction(field, spacing) -> float:
    """Share of voxels with det(I + grad u) <= 0 (central differences, one-sided at faces)."""
    grads = [np.gradient(field[..., c], *spacing, edge_order=1) for c in range(3)]
    m = [[grads[c][a] + (1.0 if a == c else 0.0) for a in range(3)] for c in range(3)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return float(np.mean(det <= 0.0))
