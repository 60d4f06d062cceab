#!/usr/bin/env python3
"""Convnet memory by phase: the activation cache in bytes per voxel and the
tracemalloc peak of each phase of a 1-iteration registration.

The default network registers a seeded noise pair with reg_weight 0.05, as
``TestConvNetMemory`` does.  Tracing starts after the pair is made, so each
peak counts everything the registration holds then, its normalized inputs
included.  The phases are the calls the registration loop makes: the first
forward, the first loss (with its gradient), the backward pass, Adam's
step, the second forward and the value-only loss of the last iterate.  The
cache counts each distinct buffer the forward's cache refers to once, the
image pair and the weights included.

Example:
    python scripts/convnet_phase_peaks.py --dims 48
"""

import argparse
import tracemalloc

import numpy as np

import defreg.register
from defreg.loss import LossConfig
from defreg.model import ConvNetConfig, convnet_forward, init_convnet_parameters
from defreg.register import RegistrationConfig, register
from defreg.volume import Volume

PHASES = ("first_forward", "first_loss", "backward", "adam", "second_forward", "value_loss")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, default=48, help="cubic grid side (voxels)")
    return ap.parse_args()


def cache_bytes(obj, seen):
    """Bytes of the distinct base buffers that ``obj``'s arrays view,
    walking dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        seen[id(obj)] = obj.nbytes
    elif isinstance(obj, dict):
        for v in obj.values():
            cache_bytes(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            cache_bytes(v, seen)
    return sum(seen.values())


def traced(fn, peaks):
    """``fn``, appending the traced peak of each call to ``peaks``."""

    def call(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    return call


def main():
    args = parse_args()
    n = args.dims
    rng = np.random.default_rng(31)
    fixed, moving = (
        Volume(data=rng.standard_normal((n, n, n), dtype=np.float32).astype(np.float64))
        for _ in range(2)
    )
    _, cache = convnet_forward(init_convnet_parameters(ConvNetConfig(), seed=0), fixed, moving)
    per_voxel = cache_bytes(cache, {}) / n**3
    del cache

    peaks = []
    for name in ("convnet_forward", "overall_loss", "convnet_backward", "adam_step"):
        setattr(defreg.register, name, traced(getattr(defreg.register, name), peaks))
    cfg = RegistrationConfig(
        mode="convnet", iterations_per_level=1, loss=LossConfig(reg_weight=0.05)
    )
    tracemalloc.start()
    try:
        register(fixed, moving, cfg)
    finally:
        tracemalloc.stop()
    if len(peaks) != len(PHASES):
        raise SystemExit(f"expected {len(PHASES)} phases, traced {len(peaks)} calls")

    print(f"# default network, {n}^3 noise pair, 1 iteration; "
          f"traced peak {max(peaks) / 2**20:.1f} MiB")
    print(f"# cache: {per_voxel:.1f} B/voxel, image pair and weights included")
    print("phase           peak_mib")
    for name, peak in zip(PHASES, peaks):
        print(f"{name:14s}  {peak / 2**20:8.1f}")


if __name__ == "__main__":
    main()
