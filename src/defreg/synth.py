"""Synthetic registration cases with exact ground truth.

Each case is a smooth blob image (fixed), a smooth fold-free displacement
field, a moving image constructed so that warping it by the true field
reproduces the fixed image up to interpolation error, and landmark pairs
with exact correspondence.  All randomness comes from a seeded PCG64
generator, so a seed fully determines a case bit-for-bit.

Construction notes:
* The true field is a sum of compactly supported C1 bumps
  (1 - (r/R)^2)^2, rescaled so its maximum magnitude equals
  max_displacement and verified fold-free (all Jacobian determinants > 0);
  on failure the bumps are regrown with larger radii.
* The moving image samples the fixed image through the numerically
  inverted true field (fixed-point inversion, 20 iterations); the residual
  is recorded and stays below 1e-3 voxel for fields this smooth.
* Landmarks sit on grid nodes (so their true displacement is exact, no
  interpolation) in the image interior, preferring nodes with local
  intensity gradient the way annotated anatomical landmarks would.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .evaluate import LandmarkSet, save_landmarks
from .volume import Volume, _check_triple, save_volume, zscore_normalize
from .warp import (
    DisplacementField,
    _trilinear,
    folding_fraction,
    jacobian_determinant,
    save_field,
    warp_volume,
)

__all__ = ["SynthConfig", "SynthCase", "generate_case", "oracle_error", "save_case"]

_INVERT_ITERATIONS = 20


@dataclass(frozen=True)
class SynthConfig:
    dims: tuple[int, int, int] = (48, 48, 48)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0
    num_blobs: int = 12
    field_bumps: int = 4
    max_displacement: float = 5.0
    num_landmarks: int = 20
    noise_sigma: float = 0.02
    cavity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", _check_triple("spacing", self.spacing, positive=True))
        if len(self.dims) != 3 or any(d < 8 for d in self.dims):
            raise ValueError(f"dims must be 3 axes of at least 8 voxels, got {self.dims}")
        if self.num_blobs < 1 or self.field_bumps < 1 or self.num_landmarks < 1:
            raise ValueError("num_blobs, field_bumps, num_landmarks must be positive")
        # written so that NaN fails too: every comparison with NaN is False
        if not 0 <= self.max_displacement < np.inf:
            raise ValueError(
                f"max_displacement must be finite and >= 0, got {self.max_displacement}"
            )
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    def to_dict(self) -> dict:
        return {**asdict(self), "dims": list(self.dims), "spacing": list(self.spacing)}


@dataclass(frozen=True)
class SynthCase:
    fixed: Volume
    moving: Volume
    true_field: DisplacementField
    fixed_lms: LandmarkSet
    moving_lms: LandmarkSet
    config: SynthConfig
    inversion_residual: float  # max |v(y) + u(y + v(y))| in voxels


def _world_grid(dims, spacing):
    nx, ny, nz = dims
    x = np.arange(nx)[:, None, None] * spacing[0]
    y = np.arange(ny)[None, :, None] * spacing[1]
    z = np.arange(nz)[None, None, :] * spacing[2]
    return x, y, z


def _blob_image(cfg: SynthConfig, rng: np.random.Generator) -> Volume:
    extent = np.array(cfg.dims) * np.array(cfg.spacing)
    x, y, z = _world_grid(cfg.dims, cfg.spacing)
    data = np.zeros(cfg.dims)
    min_ext = float(extent.min())
    # log-uniform widths span coarse shapes to fine texture; local NCC needs
    # the fine end to constrain all displacement components
    for _ in range(cfg.num_blobs):
        c = rng.uniform(0.10, 0.90, size=3) * extent
        sigma = np.exp(rng.uniform(np.log(0.03 * min_ext), np.log(0.12 * min_ext)))
        amp = rng.uniform(0.5, 1.5)
        r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        data += amp * np.exp(-r2 / (2.0 * sigma * sigma))
    return zscore_normalize(Volume(data=data, spacing=cfg.spacing))


def _bump_field(cfg: SynthConfig, rng: np.random.Generator) -> DisplacementField:
    """Sum of compact vector bumps, scaled to max_displacement, fold-free."""
    extent = np.array(cfg.dims) * np.array(cfg.spacing)
    min_ext = float(extent.min())
    x, y, z = _world_grid(cfg.dims, cfg.spacing)
    centers = rng.uniform(0.20, 0.80, size=(cfg.field_bumps, 3)) * extent
    radii = rng.uniform(0.30 * min_ext, 0.55 * min_ext, size=cfg.field_bumps)
    dirs = rng.normal(size=(cfg.field_bumps, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = rng.uniform(0.5, 1.0, size=cfg.field_bumps)

    for attempt in range(8):
        grow = 1.3**attempt
        u = np.zeros(cfg.dims + (3,))
        for c, r0, d, a in zip(centers, radii, dirs, amps):
            r = r0 * grow
            t2 = ((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2) / (r * r)
            w = np.where(t2 < 1.0, (1.0 - np.minimum(t2, 1.0)) ** 2, 0.0)
            u += a * w[..., None] * d
        mag = np.sqrt((u * u).sum(axis=-1))
        peak = float(mag.max())
        if peak > 0.0:
            u *= cfg.max_displacement / peak
        fld = DisplacementField(data=u, spacing=cfg.spacing)
        if cfg.max_displacement == 0.0 or folding_fraction(jacobian_determinant(fld)) == 0.0:
            return fld
    raise ValueError(
        f"could not generate a fold-free field with max_displacement "
        f"{cfg.max_displacement} on dims {cfg.dims}"
    )


def _invert_field(u: DisplacementField) -> tuple[DisplacementField, float]:
    """Fixed-point inversion v(y) = -u(y + v(y)); residual in voxel units."""
    sp = u.spacing
    grid = _world_grid(u.dims, sp)

    def u_at(v):  # u at the points y + v(y), from their voxel coordinates
        cx, cy, cz = ((g + v[..., a]) / sp[a] for a, g in enumerate(grid))
        return _trilinear(u.data, cx, cy, cz, want_grad=False)[0]

    v = np.zeros_like(u.data)
    for _ in range(_INVERT_ITERATIONS):
        v = -u_at(v)
    resid = v + u_at(v)
    residual = float(np.max(np.sqrt(((resid / sp) ** 2).sum(axis=-1))))
    return DisplacementField(data=v, spacing=u.spacing, origin=u.origin), residual


def _pick_landmarks(
    cfg: SynthConfig, fixed: Volume, true_field: DisplacementField, rng: np.random.Generator
) -> tuple[LandmarkSet, LandmarkSet]:
    sp = np.asarray(cfg.spacing)
    margin = np.ceil(cfg.max_displacement / sp).astype(int) + 1
    nx, ny, nz = cfg.dims
    xs = np.arange(margin[0], nx - margin[0])
    ys = np.arange(margin[1], ny - margin[1])
    zs = np.arange(margin[2], nz - margin[2])
    if min(len(xs), len(ys), len(zs)) == 0:
        raise ValueError("dims too small for the landmark interior margin")
    grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)

    # prefer nodes with local intensity gradient, as annotated landmarks
    # would sit on visible structure
    g = np.gradient(fixed.data, *fixed.spacing, edge_order=1)
    gmag = np.sqrt(g[0] ** 2 + g[1] ** 2 + g[2] ** 2)
    scores = gmag[grid[:, 0], grid[:, 1], grid[:, 2]]
    keep = scores >= np.quantile(scores, 0.6)
    pool = grid[keep] if keep.sum() >= cfg.num_landmarks else grid
    if len(pool) < cfg.num_landmarks:
        raise ValueError(f"only {len(pool)} interior nodes for {cfg.num_landmarks} landmarks")
    idx = rng.choice(len(pool), size=cfg.num_landmarks, replace=False)
    nodes = pool[idx]

    pts = nodes * sp  # grid nodes -> exact stored displacements, no interpolation
    disp = true_field.data[nodes[:, 0], nodes[:, 1], nodes[:, 2]]
    ids = np.arange(cfg.num_landmarks)
    return (
        LandmarkSet(ids=ids, points=pts.astype(np.float64)),
        LandmarkSet(ids=ids.copy(), points=(pts + disp).astype(np.float64)),
    )


def _apply_cavity(data: np.ndarray, cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    extent = np.array(cfg.dims) * np.array(cfg.spacing)
    c = rng.uniform(0.30, 0.70, size=3) * extent
    radius = 0.12 * float(extent.min())
    x, y, z = _world_grid(cfg.dims, cfg.spacing)
    r = np.sqrt((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2)
    out = np.where(r < radius, 0.0, data)
    rim = np.exp(-((r - radius) ** 2) / (2.0 * (0.25 * radius) ** 2))
    out = out + np.where(r >= radius, 1.5 * rim, 0.0)
    return out


def generate_case(cfg: SynthConfig) -> SynthCase:
    rng = np.random.default_rng(cfg.seed)  # PCG64 under the hood
    fixed = _blob_image(cfg, rng)
    true_field = _bump_field(cfg, rng)
    fixed_lms, moving_lms = _pick_landmarks(cfg, fixed, true_field, rng)

    inv_field, residual = _invert_field(true_field)
    moving = warp_volume(fixed, inv_field)

    mdata = moving.data
    if cfg.cavity:
        mdata = _apply_cavity(mdata, cfg, rng)
    if cfg.noise_sigma > 0.0:
        mdata = mdata + rng.normal(0.0, cfg.noise_sigma, size=cfg.dims)
    if mdata is not moving.data:
        moving = Volume(data=mdata, spacing=cfg.spacing, origin=moving.origin)

    return SynthCase(
        fixed=fixed,
        moving=moving,
        true_field=true_field,
        fixed_lms=fixed_lms,
        moving_lms=moving_lms,
        config=cfg,
        inversion_residual=residual,
    )


def oracle_error(
    field: DisplacementField, true_field: DisplacementField, margin: int = 0
) -> float:
    """Mean |field - true_field| (mm, Euclidean) over interior voxels.

    margin strips a voxel border per axis, excluding border-clamp effects;
    callers typically pass ceil(max_displacement / spacing).
    """
    if field.dims != true_field.dims:
        raise ValueError(f"dims mismatch: {field.dims} vs {true_field.dims}")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    nx, ny, nz = field.dims
    if 2 * margin >= min(nx, ny, nz):
        raise ValueError(f"margin {margin} leaves no interior for dims {field.dims}")
    sl = (slice(margin, nx - margin), slice(margin, ny - margin), slice(margin, nz - margin))
    diff = field.data[sl] - true_field.data[sl]
    return float(np.mean(np.sqrt((diff * diff).sum(axis=-1))))


def save_case(case: SynthCase, outdir) -> dict:
    """Write the five case files plus a manifest tying them together."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "fixed": outdir / "fixed.vol",
        "moving": outdir / "moving.vol",
        "true_field": outdir / "true_field.dfield",
        "fixed_landmarks": outdir / "fixed_landmarks.csv",
        "moving_landmarks": outdir / "moving_landmarks.csv",
    }
    save_volume(case.fixed, paths["fixed"])
    save_volume(case.moving, paths["moving"])
    save_field(case.true_field, paths["true_field"])
    save_landmarks(case.fixed_lms, paths["fixed_landmarks"])
    save_landmarks(case.moving_lms, paths["moving_landmarks"])
    manifest = {
        "config": case.config.to_dict(),
        "inversion_residual_voxels": case.inversion_residual,
        "files": {k: p.name for k, p in paths.items()},
    }
    (outdir / "case.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
