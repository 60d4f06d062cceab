import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defreg.volume import Volume
from defreg.warp import DisplacementField


def random_volume(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0), f32=False):
    data = rng.normal(size=dims)
    if f32:
        data = data.astype("<f4").astype(np.float64)
    return Volume(data=data, spacing=spacing)


def offgrid_field(rng, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    """Random field whose per-component magnitudes stay in
    [0.05, 0.45] voxels, keeping sample coordinates clear of cell
    boundaries so central finite differences are valid oracles."""
    mag = rng.uniform(0.05, 0.45, size=dims + (3,))
    sign = rng.choice([-1.0, 1.0], size=dims + (3,))
    data = mag * sign * np.asarray(spacing)
    return DisplacementField(data=data, spacing=spacing)


def fd_gradient(fn, field, indices, step=1e-4):
    """Central finite differences of scalar fn(field) at chosen indices."""
    out = []
    base = field.data
    for (i, j, k, c) in indices:
        up = base.copy()
        up[i, j, k, c] += step
        dn = base.copy()
        dn[i, j, k, c] -= step
        vp = fn(DisplacementField(data=up, spacing=field.spacing, origin=field.origin))
        vn = fn(DisplacementField(data=dn, spacing=field.spacing, origin=field.origin))
        out.append((vp - vn) / (2.0 * step))
    return np.array(out)


def rel_err(numeric, analytic):
    numeric = np.asarray(numeric, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(numeric - analytic) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def cli_peak_rss_kb(args, timeout):
    """Runs ``defreg`` with the ``register`` argument list ``args`` in a
    fresh interpreter; asserts that it succeeds and returns the peak RSS in
    kB that its manifest records, the process's own VmHWM."""
    proc = subprocess.run(
        [sys.executable, "-m", "defreg", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = Path(args[args.index("--out-field") + 1] + ".manifest.json")
    peak_kb = json.loads(manifest.read_text())["peak_rss_kb"]
    assert peak_kb is not None, "no /proc/self/status, so no VmHWM to read"
    return peak_kb
