"""Outside-in tracing of defreg's layers.

A traced registration runs with some module attributes of defreg replaced by
wrappers that record one span per call: name, start, end, parent span and
run id.  Each attribute is the one defreg looks the layer up through at call
time (``defreg.register.overall_loss``, not ``defreg.loss.overall_loss``),
so nothing under ``src/`` changes.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans,
so the self times of every span of one run sum to the run's root span.

Work counts are computed from array sizes and the network's layer plan, not
measured, so they repeat exactly between runs of the same code.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import time
from dataclasses import dataclass

# span name -> (module, attribute) that defreg resolves at call time
TARGETS = {
    "cli": ("defreg.cli", "main"),
    "register": ("defreg.register", "register"),
    "register.pyramid": ("defreg.register", "downsample_volume"),
    "loss.combine": ("defreg.register", "overall_loss"),
    "loss.ncc": ("defreg.loss", "similarity_loss"),
    "loss.smooth": ("defreg.loss", "smoothness_loss"),
    "warp.sample": ("defreg.loss", "warp_volume_with_gradient"),
    "warp.resample": ("defreg.register", "resample_field"),
    "warp.warp_out": ("defreg.warp", "warp_volume"),
    "warp.save_field": ("defreg.warp", "save_field"),
    "model.adam": ("defreg.register", "adam_step"),
    "model.fwd": ("defreg.register", "convnet_forward"),
    "model.bwd": ("defreg.register", "convnet_backward"),
    "volume.load": ("defreg.volume", "load_volume"),
    "volume.save": ("defreg.volume", "save_volume"),
}


class TraceError(RuntimeError):
    """The trace can no longer be wired to the code it measures."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: int
    work: float = 0.0  # computed bytes or flop of this call

    @property
    def duration(self) -> float:
        return self.end - self.start


_LEVEL = re.compile(r"^(?:enc|dec)(\d+)_")


def conv_flop(tensors: dict, dims) -> float:
    """Forward flop of one convnet pass: 2*C_in*C_out*k^3 per output voxel.

    A layer of encoder/decoder level l runs at dims / 2^l; the head runs at
    full resolution.
    """
    voxels = float(dims[0]) * dims[1] * dims[2]
    total = 0.0
    for name, w in tensors.items():
        if not name.endswith("_w"):
            continue
        m = _LEVEL.match(name)
        if m is None and not name.startswith("head"):
            raise TraceError(f"cannot place layer {name!r} in the network's level plan")
        level = int(m.group(1)) if m else 0
        cout, cin, kx, ky, kz = w.shape
        total += 2.0 * cin * cout * kx * ky * kz * voxels / 8**level
    return total


class Tracer:
    """Records spans while installed; one run per root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0
        self._saved: list[tuple[object, str, object]] = []
        self.last_fwd_flop = 0.0  # a backward pass reuses its forward's count

    # -- wiring ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise TraceError if one no longer exists."""
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TraceError(
                    f"{module_name}.{attr} no longer exists: layer {name!r} cannot be traced"
                )
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self._runs += 1
            span = Span(name, 0.0, 0.0, parent, self._runs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:  # outside the timed interval
                span.work = work(self, args, result)
            return result

        return traced

    # -- summaries ------------------------------------------------------

    def totals(self, run: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, work; one run or all."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if run is not None and s.run != run:
                continue
            d = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
            d["calls"] += 1
            d["total_s"] += s.duration
            d["self_s"] += s.duration - child[i]
            d["work"] += s.work
        return out

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent < 0]

    def records(self) -> list[dict]:
        """Spans as plain dicts, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "run": s.run,
                "work": s.work,
            }
            for s in self.spans
        ]


# computed work of one call: bytes for warp and loss, flop for the model,
# file bytes for I/O; each takes (tracer, positional args, result)


def _warp_sample_bytes(tracer, args, result):
    moving, field = args[:2]
    warped, grad = result
    return moving.data.nbytes + field.data.nbytes + warped.data.nbytes + grad.nbytes


def _ncc_bytes(tracer, args, result):
    # fixed, warped and the 3-vector sample gradient in; the field gradient out
    return 8 * args[0].data.nbytes


def _fwd_flop(tracer, args, result):
    params, fixed = args[:2]
    tracer.last_fwd_flop = conv_flop(params.tensors, fixed.dims)
    return tracer.last_fwd_flop


def _bwd_flop(tracer, args, result):
    return 2.0 * tracer.last_fwd_flop


def _file_read(tracer, args, result):
    return os.path.getsize(args[0])


def _file_written(tracer, args, result):
    return os.path.getsize(args[1])


WORK = {
    "warp.sample": _warp_sample_bytes,
    "loss.ncc": _ncc_bytes,
    "model.fwd": _fwd_flop,
    "model.bwd": _bwd_flop,
    "volume.load": _file_read,
    "volume.save": _file_written,
    "warp.save_field": _file_written,
}
