"""Self-supervised registration driver for a single volume pair.

Minimizes windowed-NCC dissimilarity plus displacement-gradient smoothness
with Adam.  One level loop serves both parameterizations; each level runs
Adam from a fresh state and tracks its best iterate, with the same
convergence and time-budget stops.  The loop is also where a diverging
run is caught: the loss functions do not check finiteness, and the network
gives no field when its weights overflow the forward pass.  A non-finite
field or loss value stops the run as ``diverged`` before Adam steps on its
gradient.  As after a budget stop, no later level runs and the best
finite iterate is returned.  The modes differ only in what a level
optimizes and what is returned:

* freeform: the parameter is the displacement field itself, over a
  mean-downsampling pyramid.  The coarsest level starts from zero, each
  finer level starts from the coarser level's best iterate, resampled, and
  the finest level's best iterate is returned.
* convnet: a small encoder/decoder predicts the field from the image pair
  and its weights are optimized.  "Levels" become full-resolution rounds
  (the network's internal strides already form a pyramid, so
  pyramid_levels defaults to 1 here); each round continues from the last
  iterate, and the best iterate over all rounds is returned with its
  weights.

Inputs are z-score normalized on entry if they are not already.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .loss import LossConfig, LossValue, overall_loss
from .model import (
    AdamState,
    ConvNetConfig,
    ConvNetParameters,
    adam_step,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
)
from .volume import Volume, zscore_normalize
from .warp import DisplacementField, resample_field

__all__ = [
    "RegistrationConfig",
    "LevelTrace",
    "RegistrationReport",
    "register",
    "downsample_volume",
    "report_to_json",
]

_MODES = ("freeform", "convnet")
_CONVERGENCE_WINDOW = 10


@dataclass(frozen=True)
class RegistrationConfig:
    """Driver settings; None fields resolve to mode-dependent defaults.

    Defaults by mode: pyramid_levels 3 (freeform) / 1 (convnet);
    iterations_per_level 200 / 100; learning_rate 1.0 / 1e-4.  The freeform
    rate is in mm of field motion per iteration (Adam steps are normalized);
    the convnet rate applies to network weights.
    """

    mode: str = "freeform"
    pyramid_levels: int | None = None
    iterations_per_level: int | None = None
    iterations_schedule: tuple[int, ...] | None = None
    loss: LossConfig = field(default_factory=LossConfig)
    learning_rate: float | None = None
    convergence_tol: float = 1e-6
    max_seconds: float | None = None
    seed: int = 0
    convnet: ConvNetConfig = field(default_factory=ConvNetConfig)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.pyramid_levels is not None and self.pyramid_levels < 1:
            raise ValueError(f"pyramid_levels must be >= 1, got {self.pyramid_levels}")
        if self.iterations_per_level is not None and self.iterations_per_level < 0:
            raise ValueError(
                f"iterations_per_level must be >= 0, got {self.iterations_per_level}"
            )
        if self.iterations_schedule is not None:
            object.__setattr__(
                self, "iterations_schedule", tuple(self.iterations_schedule)
            )
            if any(i < 0 for i in self.iterations_schedule):
                raise ValueError("iterations_schedule entries must be >= 0")
            if len(self.iterations_schedule) != self.resolved_levels:
                raise ValueError(
                    f"iterations_schedule has {len(self.iterations_schedule)} entries "
                    f"for {self.resolved_levels} levels"
                )
        # written so that NaN fails too: every comparison with NaN is False
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.convergence_tol < np.inf:
            raise ValueError(
                f"convergence_tol must be finite and >= 0, got {self.convergence_tol}"
            )
        if self.max_seconds is not None and not 0 < self.max_seconds < np.inf:
            raise ValueError(f"max_seconds must be finite and > 0, got {self.max_seconds}")

    @property
    def resolved_levels(self) -> int:
        if self.pyramid_levels is not None:
            return self.pyramid_levels
        return 3 if self.mode == "freeform" else 1

    @property
    def resolved_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 1.0 if self.mode == "freeform" else 1e-4

    def iterations_for(self, level_from_coarsest: int) -> int:
        if self.iterations_schedule is not None:
            return self.iterations_schedule[level_from_coarsest]
        if self.iterations_per_level is not None:
            return self.iterations_per_level
        return 200 if self.mode == "freeform" else 100

    def to_dict(self) -> dict:
        """The resolved settings, keyed so that the dict is a config file
        that ``defreg register --config`` replays."""
        d = {
            "mode": self.mode,
            "pyramid_levels": self.resolved_levels,
            "iterations_schedule": [
                self.iterations_for(l) for l in range(self.resolved_levels)
            ],
            "learning_rate": self.resolved_learning_rate,
            "convergence_tol": self.convergence_tol,
            "max_seconds": self.max_seconds,
            "seed": self.seed,
            "loss": asdict(self.loss),
        }
        if self.mode == "convnet":
            d["convnet"] = asdict(self.convnet)
        return d


@dataclass
class LevelTrace:
    """Per-level diagnostics; losses[0] is the entry loss before any step.

    ``iterations`` counts the Adam steps taken.  The iterate whose field or
    loss is non-finite records no loss, so a level that stops as
    ``diverged`` holds ``iterations`` losses rather than ``iterations + 1``.
    """

    level: int  # 0 = coarsest
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    losses: list[LossValue]
    best_iteration: int
    iterations: int
    stop_reason: str


@dataclass
class RegistrationReport:
    field: DisplacementField
    levels: list[LevelTrace]
    wall_seconds: float
    iterations_executed: int
    stop_reason: str  # max_iters | converged | budget | diverged
    dims: tuple[int, int, int]
    padded_dims: tuple[int, int, int]
    config: RegistrationConfig
    final: LossValue  # the loss of the returned field's iterate
    parameters: object = None  # ConvNetParameters in convnet mode


def downsample_volume(v: Volume) -> Volume:
    """2x2x2 block mean with doubled spacing; odd trailing voxels average
    over the truncated block, so output dims are ceil(n/2).  Axes of length
    1 pass through unchanged."""
    if all(d == 1 for d in v.dims):
        raise ValueError("volume is already a single voxel; nothing to downsample")
    data = v.data
    for ax in range(3):
        n = data.shape[ax]
        starts = np.arange(0, n, 2)
        sums = np.add.reduceat(data, starts, axis=ax)
        counts = np.diff(np.append(starts, n)).astype(np.float64)
        shape = [1, 1, 1]
        shape[ax] = len(starts)
        data = sums / counts.reshape(shape)
    spacing = tuple(2.0 * s for s in v.spacing)
    return Volume(data=data, spacing=spacing, origin=v.origin)


def _ensure_normalized(v: Volume) -> Volume:
    mean = float(v.data.mean())
    std = float(v.data.std())
    if abs(mean) <= 1e-6 and abs(std - 1.0) <= 1e-6:
        return v
    return zscore_normalize(v)


class _Clock:
    def __init__(self, max_seconds):
        self.t0 = time.monotonic()
        self.max_seconds = max_seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def exhausted(self) -> bool:
        return self.max_seconds is not None and self.elapsed() > self.max_seconds


def _converged(totals: list[float], tol: float) -> bool:
    if len(totals) <= _CONVERGENCE_WINDOW:
        return False
    prev = totals[-1 - _CONVERGENCE_WINDOW]
    cur = totals[-1]
    return abs(cur - prev) < tol * max(abs(prev), 1e-12)


def _pyramid(fixed: Volume, moving: Volume, n_levels: int) -> list[tuple[Volume, Volume]]:
    """Image pairs of a mean-downsampling pyramid, coarsest first.

    The smoothness term differences neighbouring voxels, so every level
    needs at least 2 voxels per axis; a pyramid too deep for the dims is
    refused before any level is built.
    """
    dims = fixed.dims
    for _ in range(n_levels):
        if min(dims) < 2:
            raise ValueError(
                f"pyramid_levels={n_levels} needs >= 2 voxels per axis on every level, "
                f"but dims {fixed.dims} give a level of dims {dims}"
            )
        dims = tuple((d + 1) // 2 for d in dims)  # downsample_volume's ceil(n/2)
    pairs = [(fixed, moving)]
    for _ in range(n_levels - 1):
        f, m = pairs[-1]
        pairs.append((downsample_volume(f), downsample_volume(m)))
    return pairs[::-1]


def _pad_to_multiple(v: Volume, mult: int) -> Volume:
    pads = [(0, (-d) % mult) for d in v.dims]
    if not any(hi for _, hi in pads):
        return v
    data = np.pad(v.data, pads, mode="edge")
    return Volume(data=data, spacing=v.spacing, origin=v.origin)


def register(fixed: Volume, moving: Volume, cfg: RegistrationConfig) -> RegistrationReport:
    if fixed.dims != moving.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs moving {moving.dims}")
    fixed = _ensure_normalized(fixed)
    moving = _ensure_normalized(moving)
    freeform = cfg.mode == "freeform"
    if freeform:
        pairs = _pyramid(fixed, moving, cfg.resolved_levels)
    else:
        div = 2**cfg.convnet.levels
        pair = (_pad_to_multiple(fixed, div), _pad_to_multiple(moving, div))
        pairs = [pair] * cfg.resolved_levels
        params = init_convnet_parameters(cfg.convnet, seed=cfg.seed).tensors

    def predict(params, f_l, m_l):
        """Parameters -> (field, cache for the backward pass); the field is
        None when network weights overflow the forward pass."""
        if freeform:
            data = params["field"]
            data.flags.writeable = False  # lets the field share it uncopied
            return DisplacementField(data=data, spacing=f_l.spacing, origin=f_l.origin), None
        return convnet_forward(ConvNetParameters(cfg.convnet, params), f_l, m_l)

    def backward(cache, grad):
        """Field gradient, an (nx, ny, nz, 3) array -> parameter gradients."""
        return {"field": grad} if freeform else convnet_backward(cache, grad)

    clock = _Clock(cfg.max_seconds)
    traces: list[LevelTrace] = []
    total_iters = 0
    best = None  # (loss, params, field) of the iterate to return
    for lvl, (f_l, m_l) in enumerate(pairs):
        if freeform:
            # start from the coarser level's best; return the finest level's
            if best is None:
                u = DisplacementField.zeros(f_l.dims, f_l.spacing, f_l.origin)
            else:
                u = resample_field(best[2], f_l.dims, spacing=f_l.spacing)
                # the carried field stands for the coarser best until this
                # level's entry loss is known to be finite; its own arrays
                # are freed before this level's first pass
                best = (best[0], None, u)
            params = {"field": u.data}
        # convnet: a round continues from the last iterate; all rounds compete
        state = AdamState.init(params, alpha=cfg.resolved_learning_rate)
        losses: list[LossValue] = []
        level_best, level_stop = 0, "max_iters"
        for it in range(cfg.iterations_for(lvl) + 1):  # it 0: the entry iterate
            if it:
                params, state = adam_step(params, backward(cache, grad), state)
                cache = grad = None  # not kept alive through the next forward
            u, cache = predict(params, f_l, m_l)
            if u is not None:
                lv, grad = overall_loss(f_l, m_l, u, cfg.loss)
            # a non-finite field or loss: stop before Adam steps on its gradient
            if u is None or not np.isfinite(lv.total):
                level_stop = "diverged"
                break
            losses.append(lv)
            if best is None or lv.total < best[0].total or (freeform and not it):
                best = (lv, params, u)
            if lv.total < losses[level_best].total:
                level_best = it
            if _converged([x.total for x in losses], cfg.convergence_tol):
                level_stop = "converged"
                break
            if it and clock.exhausted():
                level_stop = "budget"
                break
        total_iters += it
        traces.append(
            LevelTrace(
                level=lvl,
                dims=f_l.dims,
                spacing=f_l.spacing,
                losses=losses,
                best_iteration=level_best,
                iterations=it,
                stop_reason=level_stop,
            )
        )
        # free this level's arrays before the next level allocates its own
        state = u = cache = grad = None
        if level_stop in ("budget", "diverged"):
            break

    final, params, out = best
    if out.dims != fixed.dims:
        if freeform:  # a budget or divergence stop before the finest level
            out = resample_field(out, fixed.dims, spacing=fixed.spacing)
        else:  # crop the padding
            nx, ny, nz = fixed.dims
            out = DisplacementField(
                data=out.data[:nx, :ny, :nz, :], spacing=fixed.spacing, origin=fixed.origin
            )
    return RegistrationReport(
        field=out,
        levels=traces,
        wall_seconds=clock.elapsed(),
        iterations_executed=total_iters,
        stop_reason=level_stop,
        dims=fixed.dims,
        padded_dims=pairs[-1][0].dims,
        config=cfg,
        final=final,
        parameters=None if freeform else ConvNetParameters(cfg.convnet, params),
    )


def report_to_json(
    report: RegistrationReport,
    field_path: str | None = None,
    checkpoint_path: str | None = None,
) -> dict:
    """Serializable run record: config, traces, timing, stop reason, paths."""
    return {
        "mode": report.config.mode,
        "config": report.config.to_dict(),
        "dims": list(report.dims),
        "padded_dims": list(report.padded_dims),
        "wall_seconds": report.wall_seconds,
        "iterations_executed": report.iterations_executed,
        "stop_reason": report.stop_reason,
        "final": asdict(report.final),
        "levels": [
            {
                "level": t.level,
                "dims": list(t.dims),
                "spacing": list(t.spacing),
                "iterations": t.iterations,
                "best_iteration": t.best_iteration,
                "stop_reason": t.stop_reason,
                "losses": [
                    {
                        "total": lv.total,
                        "similarity": lv.similarity,
                        "smoothness": lv.smoothness,
                    }
                    for lv in t.losses
                ],
            }
            for t in report.levels
        ],
        "field_path": field_path,
        "checkpoint_path": checkpoint_path,
    }
