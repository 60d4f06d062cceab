"""Self-supervised registration driver for a single volume pair.

Minimizes windowed-NCC dissimilarity plus displacement-gradient smoothness
with Adam.  One level loop serves both parameterizations; each level runs
Adam from a fresh state and tracks its best iterate, with the same
convergence and time-budget stops.  The loop is also where a diverging
run is caught, by the loss value alone: neither the loss functions nor
the fields they score are checked for finiteness, and weights that
overflow the network's forward pass give a non-finite field.  Such a
field gives a non-finite total, because its smoothness differences are
non-finite; the one field without differences, a freeform field of one
voxel, has an NCC gradient of exactly 0 and so never moves.  A
non-finite total stops the run as ``diverged`` before Adam steps on its
gradient.  As after a budget stop, no later level runs and the best
finite iterate is returned.  The loss gradient is computed only for an
iterate Adam may step from: a level's last iterate, and so the single
iterate of a 0-iteration level, is scored by value alone, and a
0-iteration level builds no Adam state.  A convergence or budget stop,
which is known only after the evaluation, still computes one gradient
that no step uses.

Both parameterizations run the same mean-downsampling pyramid
(``_pyramid``), coarsest level first, and differ only in what a level
optimizes: the displacement field itself (freeform), or the weights of a
small encoder/decoder that predicts the field from the image pair
(convnet).  A convnet level pads its pair to a multiple of
``2**convnet.levels``; the network is fully convolutional and predicts
displacements in mm, so one set of weights serves every level.  One rule
each carries, chooses and returns an iterate:

* carry: the coarsest level starts from the zero field or the initial
  weights; each finer level starts from the coarser level's best iterate,
  its field resampled (freeform) or its weights (convnet).  The carried
  iterate stands as the best, unscored on the new grid, until the level's
  entry iterate is scored.  Adam starts fresh on every level.
* best: a level's entry iterate, then any iterate with a lower total.
* return: the finest level's best iterate.  After a stop before the
  finest level, or on its entry, the best is carried onto the finest pair
  as a level start carries it.

A level holds its own image pair and the finest pair, which the end of
the run scores on: the pyramid is built before the first level, and each
coarser pair is dropped when its level ends.  A freeform level with
steps evaluates into one ``loss.Workspace``, built for the level's
fixed image: every whole-volume array of the loss and the fixed
image's window statistics, taken once there, 13 image volumes at 48^3
beside the 6 of Adam's moments, which ``adam_step`` updates in place
with one chunk-sized scratch array.  Both are built when the level
starts and freed when it ends, before the next level allocates, so the
one whole-volume array that a step allocates is its new parameters.  A level
without steps builds neither.  A convnet level allocates the loss's arrays
per evaluation: the loss is a small part of its step
(``scripts/convnet_phase_peaks.py`` prints the traced peak by phase).
The loss gradient is handed over: the loop stores it in its pass's cache,
as "grad", and keeps no other reference, so the convnet's backward pass
frees it once the head's gradients are taken, and a freeform step takes it
out of the cache for Adam.  Once a convnet level
moves past its best iterate, the loop keeps that iterate's weights but
not its field, so no field is held beside the next pass's arrays.  Such a
best's field is predicted once more from its weights at the end, one
forward pass; a best at the last iterate costs none.

A returned field that is not a scored iterate on the input grid (a best
carried onto the finest pair after an early stop, a padded convnet field)
is cropped to the input dims and scored there by value alone, so the
report's ``final`` is its loss there, and the returned weights predict
the returned field on the finest padded pair.

Inputs are z-score normalized on entry if they are not already
(``_ensure_normalized``).  ``defreg register`` normalizes each input by
that rule as it loads it, so the raw image is freed before the run, and
register() finds the pair normalized and keeps it as it is.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .loss import LossConfig, LossValue, Workspace, overall_loss
from .model import (
    AdamState,
    ConvNetConfig,
    ConvNetParameters,
    adam_step,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
)
from .volume import Volume, _zscore
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
    the convnet rate applies to network weights.  pyramid_levels means the
    same in both modes: the levels of the image pyramid, and
    iterations_schedule gives one count per level, coarsest first.
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

    ``iterations`` counts the Adam steps taken.  The iterate whose loss is
    non-finite records no loss, so a level that stops as ``diverged``
    holds ``iterations`` losses rather than ``iterations + 1``.
    ``best_iteration`` is the first iterate of least total, 0 for a level
    that stopped on its entry.
    ``wall_seconds`` runs from the level's start, before its field is
    carried from the coarser level, to the end of its last iterate.  The
    fields are in the order of the report's JSON keys.
    """

    level: int  # 0 = coarsest
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    iterations: int
    best_iteration: int
    stop_reason: str
    wall_seconds: float
    losses: list[LossValue]


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
    final: LossValue  # the returned field's loss on the normalized input grid (see register)
    parameters: object = None  # ConvNetParameters in convnet mode


def downsample_volume(v: Volume) -> Volume:
    """2x2x2 block mean with doubled spacing; odd trailing voxels average
    over the truncated block, so output dims are ceil(n/2).  Axes of length
    1 pass through unchanged.

    Axis by axis, each pair of slabs is added and halved, and an odd
    trailing slab is copied (its one-voxel mean); a pair's sum is one
    addition, so the order of the axes fixes the result to the bit.
    """
    if all(d == 1 for d in v.dims):
        raise ValueError("volume is already a single voxel; nothing to downsample")
    data = v.data
    for ax in range(3):
        n = data.shape[ax]
        m = n // 2  # whole pairs

        def ax_slice(start, stop, step=1):
            idx = [slice(None)] * 3
            idx[ax] = slice(start, stop, step)
            return tuple(idx)

        shape = list(data.shape)
        shape[ax] = n - m  # ceil(n/2)
        out = np.empty(shape)
        pairs = out[ax_slice(0, m)]
        np.add(data[ax_slice(0, 2 * m, 2)], data[ax_slice(1, 2 * m, 2)], out=pairs)
        pairs /= 2.0
        if n % 2:
            out[ax_slice(m, m + 1)] = data[ax_slice(n - 1, n)]
        data = out
    return Volume._adopt(data, tuple(2.0 * s for s in v.spacing), v.origin)


def _ensure_normalized(v: Volume) -> Volume:
    mean = float(v.data.mean())
    std = float(v.data.std())
    if abs(mean) <= 1e-6 and abs(std - 1.0) <= 1e-6:
        return v
    return _zscore(v, mean, std)


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

    An axis of one voxel in the input stays one voxel on every level.
    Every other axis must have at least 2 voxels on every level, the
    input's own included; a pyramid too deep for the dims is refused before
    any level is built.
    """
    dims = fixed.dims
    if n_levels > 1 and max(dims) == 1:
        raise ValueError(
            f"pyramid_levels={n_levels} needs an axis of more than one voxel to downsample, "
            f"but dims {dims} have none"
        )
    for _ in range(n_levels):
        if any(d < 2 and d0 > 1 for d, d0 in zip(dims, fixed.dims)):
            raise ValueError(
                f"pyramid_levels={n_levels} needs >= 2 voxels on every level along each axis "
                f"of more than one voxel, but dims {fixed.dims} give a level of dims {dims}"
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
    return Volume._adopt(np.pad(v.data, pads, mode="edge"), v.spacing, v.origin)


def register(fixed: Volume, moving: Volume, cfg: RegistrationConfig) -> RegistrationReport:
    if fixed.dims != moving.dims:
        raise ValueError(f"dims mismatch: fixed {fixed.dims} vs moving {moving.dims}")
    fixed = _ensure_normalized(fixed)
    moving = _ensure_normalized(moving)
    freeform = cfg.mode == "freeform"
    pairs = _pyramid(fixed, moving, cfg.resolved_levels)
    if freeform:
        params = {"field": np.zeros(pairs[0][0].dims + (3,))}  # the zero field
    else:
        div = 2**cfg.convnet.levels
        pairs = [(_pad_to_multiple(f, div), _pad_to_multiple(m, div)) for f, m in pairs]
        params = init_convnet_parameters(cfg.convnet, seed=cfg.seed).tensors

    def predict(params, f_l, m_l):
        """Parameters -> (field, cache for the backward pass)."""
        if freeform:
            return DisplacementField._adopt(params["field"], f_l.spacing, f_l.origin), {}
        return convnet_forward(ConvNetParameters(cfg.convnet, params), f_l, m_l)

    def backward(cache):
        """The cache, holding the field gradient, an (nx, ny, nz, 3) array,
        as "grad" -> parameter gradients.  The gradient is taken out of the
        cache, so the backward pass holds its only reference."""
        return {"field": cache.pop("grad")} if freeform else convnet_backward(cache)

    def carry(best, f_l, m_l):
        """The best iterate's field on the grid of the pair (f_l, m_l):
        freeform resamples its field, convnet predicts it from its weights."""
        _, params, u = best
        if not freeform:
            return predict(params, f_l, m_l)[0]
        return u if u.dims == f_l.dims else resample_field(u, f_l.dims, spacing=f_l.spacing)

    clock = _Clock(cfg.max_seconds)
    traces: list[LevelTrace] = []
    total_iters = 0
    # (loss, params, field) of the iterate to return.  Loss None: carried
    # from a coarser level, not yet scored on this one; field None: a
    # convnet field that is predicted again from its weights when needed
    best = None
    finest = pairs[-1]  # kept for the end; a coarser pair goes when its level ends
    for lvl in range(len(pairs)):
        level_t0 = time.monotonic()
        (f_l, m_l), pairs[lvl] = pairs[lvl], None
        if best is not None:
            # start from the coarser level's best: its weights, or its field
            # resampled, whose coarse arrays are freed before this level's
            # first pass.  It stands as the best until the entry is scored
            u = carry(best, f_l, m_l) if freeform else None
            params = {"field": u.data} if freeform else best[1]
            best = (None, params, u)
        n_steps = cfg.iterations_for(lvl)
        # Adam's moments are parameter-sized: none for a level without steps,
        # and no workspace either (see the module docstring)
        state = AdamState.init(params, alpha=cfg.resolved_learning_rate) if n_steps else None
        ws = Workspace(f_l, cfg.loss.ncc_window) if freeform and n_steps else None
        losses: list[LossValue] = []
        level_stop = "max_iters"
        for it in range(n_steps + 1):  # it 0: the entry iterate
            if not freeform and best is not None:
                # an earlier best keeps its weights only; its field is not
                # held beside the next pass's arrays (rebuilt at the end)
                best, u = best[:2] + (None,), None
            if it:
                params, state = adam_step(params, backward(cache), state)
                cache = None  # not kept alive through the next forward
            u, cache = predict(params, f_l, m_l)
            if it == n_steps:  # no backward pass reads the last iterate's cache
                cache = {}
            # the last iterate is only scored: Adam takes no step on it.
            # The gradient's one reference is the cache's (see backward)
            lv, cache["grad"] = overall_loss(
                f_l, m_l, u, cfg.loss, with_grad=it < n_steps, ws=ws
            )
            # the one divergence check (see the module docstring): stop
            # before Adam steps on a non-finite loss's gradient
            if not np.isfinite(lv.total):
                level_stop = "diverged"
                break
            losses.append(lv)
            if not it or lv.total < best[0].total:
                best = (lv, params, u)
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
                iterations=it,
                best_iteration=losses.index(best[0]) if losses else 0,
                stop_reason=level_stop,
                wall_seconds=time.monotonic() - level_t0,
                losses=losses,
            )
        )
        # free this level's arrays before the next level allocates its own
        state = ws = u = cache = f_l = m_l = None
        if level_stop in ("budget", "diverged"):
            break

    final, params, out = best
    # a best not scored on the finest grid (a stop before the finest level
    # or on its entry) is carried there, as a level start carries it; a
    # padded field is cropped.  Either is scored on the input grid by value
    # alone (see the module docstring)
    on_finest = final is not None and lvl == len(pairs) - 1
    if out is None or not on_finest:
        out = carry(best, *finest)
    if out.dims != fixed.dims or not on_finest:
        nx, ny, nz = fixed.dims
        crop = np.ascontiguousarray(out.data[:nx, :ny, :nz])
        out = DisplacementField._adopt(crop, fixed.spacing, fixed.origin)
        final, _ = overall_loss(fixed, moving, out, cfg.loss, with_grad=False)
    return RegistrationReport(
        field=out,
        levels=traces,
        wall_seconds=clock.elapsed(),
        iterations_executed=total_iters,
        stop_reason=level_stop,
        dims=fixed.dims,
        padded_dims=finest[0].dims,
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
        "levels": [asdict(t) for t in report.levels],
        "field_path": field_path,
        "checkpoint_path": checkpoint_path,
    }
