"""Landmark-based evaluation of a registration result.

Landmarks live on the fixed image in mm world coordinates and are mapped
into moving space by x -> x + u(x), with u sampled trilinearly from the
displacement field.  Per-case metrics: median and mean landmark error (mm),
mean target registration error, strict-improvement robustness, and the
folding fraction of the field.  Cohort summaries use sample standard
deviation (n-1 denominator) and linear-interpolation quantiles at zero-based
rank (n-1)*p; both conventions are pinned by tests against a published
20-case table.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .volume import Volume, _frozen
from .warp import DisplacementField, _trilinear, _world_to_index, folding_fraction

__all__ = [
    "LandmarkSet",
    "CaseMetrics",
    "CohortSummary",
    "CaseRecord",
    "transform_landmarks",
    "landmark_errors",
    "case_metrics",
    "cohort_summary",
    "load_landmarks",
    "save_landmarks",
    "save_metrics",
    "save_long_errors",
]

_HEADER = ("id", "x", "y", "z")


@dataclass(frozen=True)
class LandmarkSet:
    """Identified points in mm world coordinates.

    ``clamped`` marks points whose field lookup fell outside the grid and
    was clamped to the border; None on sets that never went through
    transform_landmarks.
    """

    ids: np.ndarray  # (n,) int64
    points: np.ndarray  # (n, 3) float64 mm
    clamped: np.ndarray | None = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {points.shape}")
        if ids.shape != (points.shape[0],):
            raise ValueError(f"ids shape {ids.shape} != ({points.shape[0]},)")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("landmark ids must be unique")
        if not np.isfinite(points).all():
            raise ValueError("landmark coordinates must be finite")
        object.__setattr__(self, "ids", _frozen(ids, self.ids))
        object.__setattr__(self, "points", _frozen(points, self.points))
        if self.clamped is not None:
            clamped = _frozen(np.asarray(self.clamped, dtype=bool), self.clamped)
            object.__setattr__(self, "clamped", clamped)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class CaseMetrics:
    mae_median: float
    mae_mean: float  # the mean landmark distance, written as mTRE in the outputs
    robustness: float
    folding_fraction: float | None
    errors: tuple[float, ...]


@dataclass(frozen=True)
class CohortSummary:
    mean: float
    stddev: float
    median: float
    q25: float
    q75: float


@dataclass(frozen=True)
class CaseRecord:
    """One row of the cohort metrics table."""

    case: str
    initial_mae_median: float
    metrics: CaseMetrics


def transform_landmarks(lms: LandmarkSet, field: DisplacementField) -> LandmarkSet:
    """Map fixed-image landmarks into moving space via x -> x + u(x).

    Points outside the field's extent sample the clamped border value and
    come back flagged.
    """
    coords = _world_to_index(lms.points, field.spacing, field.origin)
    nx, ny, nz = field.dims
    clamped = (
        (coords[:, 0] < 0.0)
        | (coords[:, 0] > nx - 1.0)
        | (coords[:, 1] < 0.0)
        | (coords[:, 1] > ny - 1.0)
        | (coords[:, 2] < 0.0)
        | (coords[:, 2] > nz - 1.0)
    )
    disp, _ = _trilinear(field.data, coords[:, 0], coords[:, 1], coords[:, 2], want_grad=False)
    return LandmarkSet(ids=lms.ids.copy(), points=lms.points + disp, clamped=clamped)


def landmark_errors(predicted: LandmarkSet, reference: LandmarkSet) -> np.ndarray:
    """Per-id Euclidean distances in mm, ordered by id."""
    if set(predicted.ids.tolist()) != set(reference.ids.tolist()):
        raise ValueError("landmark id sets differ")
    po = np.argsort(predicted.ids)
    ro = np.argsort(reference.ids)
    diff = predicted.points[po] - reference.points[ro]
    return np.linalg.norm(diff, axis=1)


def case_metrics(errors_after, errors_before, jmap: Volume | None = None) -> CaseMetrics:
    after = np.asarray(errors_after, dtype=np.float64)
    before = np.asarray(errors_before, dtype=np.float64)
    if after.ndim != 1 or after.shape != before.shape:
        raise ValueError(
            f"error vectors must be equal-length 1D, got {after.shape} and {before.shape}"
        )
    if after.size == 0:
        raise ValueError("empty error vectors")
    return CaseMetrics(
        mae_median=float(np.median(after)),
        mae_mean=float(np.mean(after)),
        robustness=float(np.mean(after < before)),
        folding_fraction=None if jmap is None else folding_fraction(jmap),
        errors=tuple(float(e) for e in after),
    )


def cohort_summary(values) -> CohortSummary:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("cohort_summary needs a non-empty 1D value sequence")
    # sample stddev (n-1); a single observation has no spread, define it as 0
    std = 0.0 if v.size == 1 else float(np.std(v, ddof=1))
    return CohortSummary(
        mean=float(np.mean(v)),
        stddev=std,
        median=float(np.quantile(v, 0.5)),
        q25=float(np.quantile(v, 0.25)),
        q75=float(np.quantile(v, 0.75)),
    )


# ---------------------------------------------------------------------------
# file I/O


def load_landmarks(path) -> LandmarkSet:
    """CSV with header exactly 'id,x,y,z'."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty landmark file") from None
        if tuple(h.strip() for h in header) != _HEADER:
            raise ValueError(f"{path}: header must be 'id,x,y,z', got {header!r}")
        ids, pts = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: malformed row {row!r}")
            try:
                ids.append(int(row[0]))
                pts.append([float(row[1]), float(row[2]), float(row[3])])
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row {row!r}") from exc
    if not ids:
        raise ValueError(f"{path}: no landmarks")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate landmark ids")
    return LandmarkSet(ids=np.array(ids), points=np.array(pts))


def save_landmarks(lms: LandmarkSet, path) -> None:
    lines = [",".join(_HEADER)]
    for i, p in zip(lms.ids, lms.points):
        lines.append(f"{int(i)},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_metrics(records, csv_path, json_path=None) -> None:
    """Cohort table as CSV (one row per case) plus optional JSON detail."""
    records = list(records)
    cols = (
        "case",
        "initial_mae_median",
        "method_mae_median",
        "robustness",
        "mtre",
        "folding_fraction",
    )
    rows = [cols]
    for r in records:
        m = r.metrics
        fold = "" if m.folding_fraction is None else repr(float(m.folding_fraction))
        rows.append((r.case, repr(float(r.initial_mae_median)), repr(float(m.mae_median)),
                     repr(float(m.robustness)), repr(float(m.mae_mean)), fold))
    _write_csv(csv_path, rows)
    if json_path is not None:
        detail = [
            {
                "case": r.case,
                "initial_mae_median": r.initial_mae_median,
                "mae_median": r.metrics.mae_median,
                "mae_mean": r.metrics.mae_mean,
                "mtre": r.metrics.mae_mean,
                "robustness": r.metrics.robustness,
                "folding_fraction": r.metrics.folding_fraction,
                "errors": list(r.metrics.errors),
            }
            for r in records
        ]
        Path(json_path).write_text(json.dumps(detail, indent=2) + "\n")


def save_long_errors(rows, path) -> None:
    """Long-format (case, method, error) CSV for external plotting."""
    _write_csv(path, [("case", "method", "error")]
               + [(case, method, repr(float(err))) for case, method, err in rows])


def _write_csv(path, rows) -> None:
    """Rows of string cells as CSV, quoted only where a cell holds a comma,
    a quote or a line break, so that ``csv.reader`` reads back each cell."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
