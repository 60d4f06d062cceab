#!/usr/bin/env python3
"""Freeform step by kernel: the median time of each kernel of one freeform
step into a ``Workspace``.

The pair is seeded noise, z-scored as registration does, and the iterate
a seeded field of displacements within 2 mm, so any grid size runs; the
kernels' work does not depend on the values.  One step is one
``overall_loss`` with the gradient into the workspace and one ``adam_step``
on that gradient, as the registration loop runs them.  The warp, the NCC
and the smoothness are timed by wrapping the names ``defreg.loss`` calls
them by; the chain rule and combine are the rest of ``overall_loss``.  It
asserts nothing.

Example:
    python scripts/freeform_step_times.py --dims 48
"""

import argparse
import statistics
import time

import numpy as np

import defreg.loss
from defreg.loss import LossConfig, Workspace, overall_loss
from defreg.model import AdamState, adam_step
from defreg.volume import Volume, zscore_normalize
from defreg.warp import DisplacementField

# name printed -> the defreg.loss attribute it wraps, None for the rest
KERNELS = {
    "warp_grad": "warp_volume_with_gradient",
    "ncc_grad": "_ncc_terms",
    "smooth_grad": "smoothness_loss",
    "chain_combine": None,
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, default=48, help="cubic grid side (voxels)")
    ap.add_argument("--repeats", type=int, default=30, help="steps timed")
    return ap.parse_args()


def timed(fn, spent, name):
    """``fn``, adding the seconds of each call to ``spent[name]``."""

    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - t0

    return call


def main():
    args = parse_args()
    n = args.dims
    rng = np.random.default_rng(31)
    fixed, moving = (zscore_normalize(Volume(data=rng.standard_normal((n, n, n)))) for _ in "fm")
    field = DisplacementField(data=rng.uniform(-2.0, 2.0, (n, n, n, 3)))
    cfg = LossConfig(reg_weight=0.05)
    ws = Workspace(fixed, cfg.ncc_window)
    state = AdamState.init({"field": field.data}, alpha=0.2)

    spent = dict.fromkeys(KERNELS, 0.0)
    for name, attr in KERNELS.items():
        if attr is not None:
            setattr(defreg.loss, attr, timed(getattr(defreg.loss, attr), spent, name))
    rows = {name: [] for name in (*KERNELS, "adam", "step")}
    for _ in range(args.repeats + 1):  # the first step warms up and is dropped
        spent.update(dict.fromkeys(spent, 0.0))
        t0 = time.perf_counter()
        _, grad = overall_loss(fixed, moving, field, cfg, ws=ws)
        t1 = time.perf_counter()
        adam_step({"field": field.data}, {"field": grad}, state)
        t2 = time.perf_counter()
        spent["chain_combine"] = t1 - t0 - sum(spent.values())
        for name, seconds in (*spent.items(), ("adam", t2 - t1), ("step", t2 - t0)):
            rows[name].append(seconds)

    print(f"# freeform step at {n}^3 into a Workspace, median of {args.repeats} steps "
          f"(numpy {np.__version__})")
    print("kernel          median_ms")
    for name, seconds in rows.items():
        print(f"{name:14s}  {1e3 * statistics.median(seconds[1:]):9.3f}")


if __name__ == "__main__":
    main()
