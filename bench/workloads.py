"""The benchmark's workloads and the inputs each one is given.

Inputs are made from the workload seed and written to disk before any
timing starts, so defreg receives only volume files.  The ground truth the
checks need (true field, landmarks) is saved beside them in numpy format for
the benchmark's own use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# acceptance-criterion-3 case generator settings, and the cases it is stated on
_RECOVERY_CASE = dict(num_blobs=150, field_bumps=6, max_displacement=5.0,
                      num_landmarks=20, noise_sigma=0.0)
_RECOVERY_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "api": register() in one process; "cli": one process per command
    dims: tuple[int, int, int]
    registration: dict  # RegistrationConfig fields ("api") or CLI flags ("cli")
    required_layers: tuple[str, ...]  # traced layers that must record calls
    synth: dict | None = None  # SynthConfig fields; None means a seeded-noise pair
    level_iterations: tuple[int, ...] | None = None  # exact per-level count, if fixed
    floors: tuple[float, float] | None = None  # (min lm reduction, max oracle mm)
    case_seeds: tuple[int, ...] | None = None  # the case set the floors are stated on
    margin: int = 6  # interior margin for the oracle error, voxels


_LOSS_KERNELS = ("register", "loss.combine", "loss.ncc", "warp.sample", "loss.smooth",
                 "model.adam")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="freeform-48",
            why="headline use: freeform 48^3 recovery of the criterion-3 cases, ~97% in the "
                "cached loss hot path (warp, NCC box sums, smoothness, Adam); converges, "
                "so iterations vary",
            kind="api",
            dims=(48, 48, 48),
            registration=dict(mode="freeform", pyramid_levels=3, iterations_per_level=200,
                              learning_rate=0.2, reg_weight=0.05),
            required_layers=_LOSS_KERNELS + ("register.pyramid", "warp.resample"),
            synth=_RECOVERY_CASE,
            floors=(0.70, 1.5),
            case_seeds=_RECOVERY_SEEDS,
        ),
        Workload(
            name="convnet-48",
            why="convnet 48^3 at a fixed 1 iteration: ~98% conv forward/backward, "
                "loss/warp <2%, so it isolates the model layer",
            kind="api",
            dims=(48, 48, 48),
            registration=dict(mode="convnet", iterations_per_level=1, reg_weight=0.05),
            required_layers=_LOSS_KERNELS + ("model.fwd", "model.bwd"),
            synth=_RECOVERY_CASE,
            level_iterations=(1,),
        ),
        Workload(
            name="fullsize-cli",
            why="160x192x160 noise pair via the CLI: same loss far out of cache, field "
                "resampling, file I/O and hashing; fresh process gives its peak RSS",
            kind="cli",
            dims=(160, 192, 160),
            registration=dict(levels=3, iters_schedule=(10, 10, 0)),
            required_layers=("cli", "register", "volume.load", "volume.save",
                             "warp.sample", "warp.resample", "warp.warp_out",
                             "warp.save_field"),
            level_iterations=(10, 10, 0),
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the benchmark's tests."""
    if w.kind == "cli":
        return replace(w, dims=(24, 32, 24), registration=dict(levels=3, iters_schedule=(2, 2, 0)),
                       level_iterations=(2, 2, 0))
    small = dict(w.synth, max_displacement=2.0, num_blobs=40)
    reg = dict(w.registration)
    if reg["mode"] == "freeform":
        reg.update(pyramid_levels=2, iterations_per_level=30)
    return replace(w, dims=(24, 24, 24), synth=small, registration=reg, margin=3,
                   floors=None if w.floors is None else (0.3, 1.5))


def case_seed(w: Workload, seed: int) -> int:
    """The seed of the synthetic case that workload seed ``seed`` registers.

    Without a case set it is the workload seed itself.  With one, workload
    seeds cycle through it (1, 2, ... map to its first, second, ... case),
    because the floors are a claim about those cases only: other cases of
    the same generator can recover less (case 12 reaches 0.63, case 14 0.60).
    """
    if w.case_seeds is None:
        return seed
    return w.case_seeds[(seed - 1) % len(w.case_seeds)]


def make_inputs(w: Workload, seed: int, outdir: Path) -> dict[str, Path]:
    """Write the fixed/moving volumes (and ground truth) for one workload seed."""
    from defreg.volume import Volume, save_volume

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"fixed": outdir / "fixed.vol", "moving": outdir / "moving.vol"}
    if w.synth is None:
        rng = np.random.default_rng(seed)
        for name in ("fixed", "moving"):
            data = rng.standard_normal(w.dims, dtype=np.float32).astype(np.float64)
            save_volume(Volume(data=data), paths[name])
        return paths

    from defreg.synth import SynthConfig, generate_case

    case = generate_case(SynthConfig(dims=w.dims, seed=case_seed(w, seed), **w.synth))
    save_volume(case.fixed, paths["fixed"])
    save_volume(case.moving, paths["moving"])
    paths["truth"] = outdir / "truth.npz"
    np.savez(
        paths["truth"],
        true_field=case.true_field.data,
        spacing=np.asarray(case.true_field.spacing),
        fixed_points=case.fixed_lms.points,
        moving_points=case.moving_lms.points,
    )
    return paths
