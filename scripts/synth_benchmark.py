#!/usr/bin/env python3
"""Synthetic-recovery benchmark: register seeded ground-truth cases and
report landmark-error reduction, interior field error, smoothness, folding,
and wall time per case and smoothness weight, plus a cohort summary of the
per-case median errors for each weight.

Examples:
    python scripts/synth_benchmark.py --seeds 1 2 3 4 5 --dims 48
    python scripts/synth_benchmark.py --seeds 3 --lambda 0 0.01 0.05 0.2 1 5
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from defreg.evaluate import cohort_summary, landmark_errors, transform_landmarks
from defreg.loss import LossConfig
from defreg.register import RegistrationConfig, register
from defreg.synth import SynthConfig, generate_case, oracle_error
from defreg.warp import folding_fraction, jacobian_determinant


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--dims", type=int, default=48, help="cubic grid side (voxels)")
    ap.add_argument("--max-disp", type=float, default=5.0, help="peak displacement (mm)")
    ap.add_argument("--num-blobs", type=int, default=150)
    ap.add_argument("--field-bumps", type=int, default=6)
    ap.add_argument("--noise-sigma", type=float, default=0.0)
    ap.add_argument("--mode", choices=("freeform", "convnet"), default="freeform")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--iters", type=int, default=200)
    ap.add_argument("--learning-rate", type=float, default=None,
                    help="default: 0.2 for freeform, the registration default for convnet")
    ap.add_argument("--lambda", dest="reg_weights", type=float, nargs="+", default=[0.05],
                    help="smoothness weights: one row per seed and weight")
    return ap.parse_args()


def main():
    args = parse_args()
    lr = args.learning_rate
    if lr is None and args.mode == "freeform":
        lr = 0.2  # criterion 3's rate
    base = RegistrationConfig(
        mode=args.mode,
        pyramid_levels=args.levels,
        iterations_per_level=args.iters,
        learning_rate=lr,
    )
    margin = int(np.ceil(args.max_disp)) + 1

    print(f"# mode={args.mode} dims={args.dims}^3 max_disp={args.max_disp}mm "
          f"lr={base.resolved_learning_rate} iters={args.iters}x{args.levels}")
    print("seed  lambda  init_mae  final_mae  reduction  oracle_mm  smooth  folding  wall_s")
    medians = {weight: [] for weight in args.reg_weights}
    for seed in args.seeds:
        case = generate_case(SynthConfig(
            dims=(args.dims,) * 3,
            seed=seed,
            num_blobs=args.num_blobs,
            field_bumps=args.field_bumps,
            max_displacement=args.max_disp,
            noise_sigma=args.noise_sigma,
        ))
        before = landmark_errors(case.fixed_lms, case.moving_lms)
        for weight in args.reg_weights:
            reg_cfg = replace(base, loss=LossConfig(reg_weight=weight))
            t0 = time.monotonic()
            report = register(case.fixed, case.moving, reg_cfg)
            wall = time.monotonic() - t0

            after = landmark_errors(
                transform_landmarks(case.fixed_lms, report.field), case.moving_lms
            )
            reduction = 1.0 - float(np.mean(after)) / float(np.mean(before))
            ferr = oracle_error(report.field, case.true_field, margin=margin)
            fold = folding_fraction(jacobian_determinant(report.field))
            medians[weight].append(float(np.median(after)))
            print(f"{seed:4d}  {weight:6.3f}  {np.median(before):8.3f}  {np.median(after):9.3f}  "
                  f"{reduction:9.1%}  {ferr:9.3f}  {report.final.smoothness:6.4f}  "
                  f"{fold:7.4f}  {wall:6.1f}")

    for weight, errors in medians.items():
        s = cohort_summary(errors)
        print(f"# cohort median-error at lambda={weight}: mean={s.mean:.3f} "
              f"stddev={s.stddev:.3f} median={s.median:.3f} q25={s.q25:.3f} q75={s.q75:.3f}")


if __name__ == "__main__":
    main()
