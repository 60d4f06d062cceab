"""One workload process: loads the inputs, then registers them.

run.py starts this in a fresh interpreter, so set-up time and peak RSS
belong to one workload alone:

    python3 bench/worker.py SPEC.json

SPEC["action"] is one of
  probe  import defreg, load both volumes, print "ready" and exit;
  api    call defreg.register.register in a closed loop (one caller, one
         registration at a time) while the next one is expected to end
         within SPEC["seconds"], and at least SPEC["min_registrations"]
         times; the first registration is the
         warm-up that lets allocator and caches settle; with tracing, every
         second registration after it is traced and the others give the
         untraced baseline;
  cli    run defreg.cli.main(SPEC["argv"]) once, traced if SPEC["trace"].
The result goes to SPEC["out"] as JSON.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads(env) -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        env[var] = "1"


def _peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _load_inputs(spec):
    from defreg.volume import load_volume

    return load_volume(spec["fixed"]), load_volume(spec["moving"])


def _write_spans(tracer, path) -> None:
    import json

    with open(path, "w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")


def _summary(report) -> dict:
    import hashlib

    last = report.levels[-1]
    best = last.losses[last.best_iteration]
    data = report.field.data
    return {
        "iterations": report.iterations_executed,
        "level_iterations": [t.iterations for t in report.levels],
        "level_dims": [list(t.dims) for t in report.levels],
        "stop": report.stop_reason,
        "final_loss": best.total,
        "final_ncc": -best.similarity,
        "field_sha256": hashlib.sha256(data.tobytes()).hexdigest(),
    }


def probe(spec) -> dict:
    import defreg.cli  # noqa: F401  (what the CLI workload imports too)
    import defreg.register  # noqa: F401

    _load_inputs(spec)
    print("ready", flush=True)
    return {}


def api(spec) -> dict:
    import time

    import numpy as np

    import defreg.register
    from defreg.loss import LossConfig
    from spans import Tracer

    fixed, moving = _load_inputs(spec)
    reg = dict(spec["registration"])
    cfg = defreg.register.RegistrationConfig(loss=LossConfig(reg_weight=reg.pop("reg_weight")),
                                             **reg)
    tracer = Tracer()
    records = []
    t_start = time.perf_counter()
    while True:
        traced = spec["trace"] and len(records) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            report = defreg.register.register(fixed, moving, cfg)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed registration is counted, not hidden
            records.append({"error": f"{type(exc).__name__}: {exc}", "traced": traced})
            break
        finally:
            tracer.uninstall()
        rec = {"wall_s": wall, "traced": traced, "warmup": not records, **_summary(report)}
        if traced:
            rec["root_s"] = tracer.roots()[-1].duration
            rec["layers"] = tracer.totals(run=tracer.roots()[-1].run)
        if not records:
            np.save(spec["field_out"], report.field.data)
        records.append(rec)
        done = len(records) >= spec["min_registrations"]
        if done and time.perf_counter() - t_start + wall > spec["seconds"]:
            break
    if tracer.spans:
        _write_spans(tracer, spec["spans_out"])
    return {"registrations": records, "peak_rss_kb": _peak_rss_kb()}


def cli(spec) -> dict:
    import defreg.cli
    from spans import Tracer

    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    try:
        rc = defreg.cli.main(spec["argv"])
    finally:
        tracer.uninstall()
    out = {"rc": rc, "peak_rss_kb": _peak_rss_kb()}
    if tracer.spans:
        out["root_s"] = tracer.roots()[-1].duration
        out["layers"] = tracer.totals()
        _write_spans(tracer, spec["spans_out"])
    return out


def main(spec_path) -> int:
    import json

    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result = {"probe": probe, "api": api, "cli": cli}[spec["action"]](spec)
    if "out" in spec:
        with open(spec["out"], "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    pin_threads(os.environ)
    sys.exit(main(sys.argv[1]))
