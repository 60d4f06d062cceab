#!/usr/bin/env python3
"""defreg benchmark: one workload run, reported as one JSON line.

    python3 bench/run.py --workload freeform-48 --seed 1 --seconds 20 --trace 0

Run it from the root of a defreg checkout; defreg is imported from ./src.
Workloads are defined in workloads.py.  Each run

1. writes the workload's inputs for --seed to .bench_out/work/ (untimed);
2. measures set-up: fresh interpreters that import defreg with BLAS/OpenMP
   threads pinned to 1 and load both volumes (median of SETUP_PROBES);
3. registers in a closed loop, one caller and one registration at a time,
   while the next registration is expected (from the last one) to end
   within --seconds, and at least MIN_REGISTRATIONS times, in fresh processes
   with threads pinned to 1 ("api" workloads: one process for the loop,
   whose first registration is a warm-up left out of the metrics; "cli"
   workloads: one process per `defreg register` command, cold as a user
   runs it);
4. checks every output and counts each registration that fails a check;
5. writes the full record (environment, every registration, checks, field
   SHA-256s, metrics with sample counts) to .bench_out/results/ and prints
   the result as the last line of stdout.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 every second registration runs traced and the metrics are the
per-layer ones (per traced registration).  --smoke runs the same workload
at a tiny size, for the benchmark's own tests.
"""

import os
import sys

from worker import THREAD_VARS, pin_threads

pin_threads(os.environ)  # before numpy loads, here and in every child process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import TraceError  # noqa: E402
from workloads import WORKLOADS, case_seed, make_inputs, smoke  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
# api: warm-up + traced + untraced; cli: one, or one traced and one untraced
MIN_REGISTRATIONS = {"api": 3, "cli": 1}
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The run could not be measured; no result is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes


@contextmanager
def _child(spec: dict, path: Path, **popen):
    """Start worker.py on ``spec``; the process is always ended and reaped."""
    path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(path)], **popen)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _wait(proc, deadline: float, what: str) -> None:
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within the run's time limit") from None
    if rc != 0:
        raise BenchError(f"{what} exited with code {rc}")


def measure_setup(base: dict, work: Path, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter to defreg imported and inputs loaded."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with _child({**base, "action": "probe"}, work / f"probe{i}.json",
                    stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _wait(proc, deadline, "set-up probe")
        if line.strip() != "ready":
            raise BenchError(f"set-up probe printed {line!r}")
    return times


def run_api(wl, args, base, work, spans_out, deadline):
    spec = {
        **base,
        "action": "api",
        "registration": wl.registration,
        "seconds": args.seconds,
        "min_registrations": MIN_REGISTRATIONS["api"],
        "trace": bool(args.trace),
        "field_out": str(work / "field.npy"),
        "out": str(work / "api.out.json"),
        "spans_out": str(spans_out),
    }
    with _child(spec, work / "api.json", stdout=sys.stderr) as proc:
        _wait(proc, deadline, "registration worker")
    out = json.loads(Path(spec["out"]).read_text())
    field = np.load(spec["field_out"]) if Path(spec["field_out"]).is_file() else None
    for rec in out["registrations"]:
        rec["peak_rss_kb"] = out["peak_rss_kb"]  # one process ran them all
    return out["registrations"], field


def run_cli(wl, args, base, work, spans_out, deadline):
    """One fresh `defreg register` process per registration; yields (record, field)."""
    t_start = time.perf_counter()
    i = 0
    while True:
        d = work / f"cli{i}"
        d.mkdir()
        traced = bool(args.trace) and i % 2 == 1
        argv = [
            "--threads", "1", "register",
            "--fixed", base["fixed"], "--moving", base["moving"],
            "--out-field", str(d / "out.dfield"), "--out-warped", str(d / "warped.vol"),
            "--levels", str(wl.registration["levels"]),
            "--iters-schedule", ",".join(str(n) for n in wl.registration["iters_schedule"]),
        ]
        spec = {**base, "action": "cli", "argv": argv, "trace": traced,
                "out": str(d / "result.json"),
                "spans_out": str(spans_out.with_suffix(f".cli{i}.jsonl"))}
        t0 = time.perf_counter()
        with _child(spec, d / "spec.json", stdout=sys.stderr) as proc:
            _wait(proc, deadline, "CLI registration")
        wall = time.perf_counter() - t0
        res = json.loads((d / "result.json").read_text())
        rec = {"wall_s": wall, "traced": traced, "rc": res["rc"],
               "peak_rss_kb": res["peak_rss_kb"]}
        if traced:
            rec["root_s"] = res["root_s"]
            rec["layers"] = res["layers"]
        field = None
        if res["rc"] == 0:
            report = json.loads((d / "out.dfield.report.json").read_text())
            last = report["levels"][-1]
            best = last["losses"][last["best_iteration"]]
            field_file = d / "out.dfield"
            rec.update(
                iterations=report["iterations_executed"],
                level_iterations=[lv["iterations"] for lv in report["levels"]],
                level_dims=[lv["dims"] for lv in report["levels"]],
                stop=report["stop_reason"],
                final_loss=best["total"],
                final_ncc=-best["similarity"],
                report_dims=report["dims"],
                field_sha256=hashlib.sha256(field_file.read_bytes()).hexdigest(),
            )
            field = checks.read_dfield(field_file)
        else:
            rec["error"] = f"defreg register exited with code {res['rc']}"
        shutil.rmtree(d)
        yield rec, field
        i += 1
        done = i >= MIN_REGISTRATIONS["cli"] + args.trace
        if done and time.perf_counter() - t_start + wall > args.seconds:
            return


# ---------------------------------------------------------------------------
# checks


def _code_id(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((src / "defreg").rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_registrations(wl, regs, fields, inputs, known_sha: str | None) -> dict:
    """Fill each record's "failures"; return the quality numbers of the output."""
    truth = np.load(inputs["truth"]) if "truth" in inputs else None
    quality = {}
    first_sha = None
    for rec, field in zip(regs, fields):
        fails = [rec["error"]] if "error" in rec else []
        if field is not None:
            fails += checks.field_failures(field, wl.dims)
        if "field_sha256" in rec:
            first_sha = first_sha or rec["field_sha256"]
            if rec["field_sha256"] != first_sha:
                fails.append("field SHA-256 differs from the first registration of this input")
            if known_sha is not None and rec["field_sha256"] != known_sha:
                fails.append("field SHA-256 differs from an earlier run of the same code")
        if wl.level_iterations is not None and "level_iterations" in rec:
            if rec["level_iterations"] != list(wl.level_iterations):
                fails.append(f"level iterations {rec['level_iterations']} != "
                             f"{list(wl.level_iterations)}")
        if "report_dims" in rec and rec["report_dims"] != list(wl.dims):
            fails.append(f"report dims {rec['report_dims']} != {list(wl.dims)}")
        if field is not None and not quality and not fails:
            quality["folding_frac"] = checks.folding_fraction(field, (1.0, 1.0, 1.0))
            if truth is not None:
                quality["lm_reduction"] = checks.landmark_reduction(
                    field, truth["spacing"], truth["fixed_points"], truth["moving_points"])
                quality["oracle_mm"] = checks.oracle_error(field, truth["true_field"], wl.margin)
        if wl.floors is not None and quality and not fails:
            lo_red, hi_oracle = wl.floors
            if quality["lm_reduction"] < lo_red:
                fails.append(f"landmark reduction {quality['lm_reduction']:.4f} < {lo_red}")
            if quality["oracle_mm"] >= hi_oracle:
                fails.append(f"oracle error {quality['oracle_mm']:.4f} mm >= {hi_oracle}")
        rec["failures"] = fails
    return quality


def check_trace(wl, regs) -> None:
    """Fail loudly if a required layer went silent or the split does not add up."""
    for rec in regs:
        if not rec["traced"] or "layers" not in rec:
            continue
        layers = rec["layers"]
        silent = [n for n in wl.required_layers if layers.get(n, {}).get("calls", 0) == 0]
        if silent:
            raise TraceError(f"{wl.name}: traced layers recorded no calls: {silent}")
        self_sum = sum(d["self_s"] for d in layers.values())
        if abs(self_sum - rec["root_s"]) > 1e-6 * max(rec["root_s"], 1.0):
            raise TraceError(f"layer self times sum to {self_sum} s, root span is "
                             f"{rec['root_s']} s")


# ---------------------------------------------------------------------------
# metrics


def _summary(values, unit):
    values = [float(v) for v in values]
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "min": min(values), "max": max(values)}


def full_res_iterations(rec) -> float:
    """Iterations executed, each weighted by its level's voxel count over the finest
    level's, so that iterations moving between pyramid levels leave iter_s alone."""
    voxels = [math.prod(d) for d in rec["level_dims"]]
    return sum(n * v for n, v in zip(rec["level_iterations"], voxels)) / max(voxels)


def end_to_end(regs, setup) -> dict:
    ok = [r for r in regs if not (r["traced"] or r.get("warmup")) and "iterations" in r]
    if not ok:
        raise BenchError("no registration completed")
    return {
        "register_s": _summary([r["wall_s"] for r in ok], "s"),
        "iter_s": _summary([r["wall_s"] / full_res_iterations(r) for r in ok], "s"),
        "peak_rss_mb": _summary([r["peak_rss_kb"] / 1024.0 for r in ok], "MB"),
        "setup_s": _summary(setup, "s"),
        "final_ncc": _summary([r["final_ncc"] for r in ok], "ncc"),
    }


# per-layer metric -> (span name, field of its totals, scale, unit)
_LAYER_METRICS = {
    "register.self_s": ("register", "self_s", 1.0, "s"),
    "register.pyramid_s": ("register.pyramid", "self_s", 1.0, "s"),
    "register.loss_evals": ("loss.combine", "calls", 1.0, "count"),
    "warp.sample_s": ("warp.sample", "self_s", 1.0, "s"),
    "warp.sample_calls": ("warp.sample", "calls", 1.0, "count"),
    "warp.sample_gb": ("warp.sample", "work", 1e-9, "GB"),
    "warp.resample_s": ("warp.resample", "self_s", 1.0, "s"),
    "warp.warp_out_s": ("warp.warp_out", "self_s", 1.0, "s"),
    "warp.save_field_s": ("warp.save_field", "self_s", 1.0, "s"),
    "loss.ncc_s": ("loss.ncc", "self_s", 1.0, "s"),
    "loss.ncc_gb": ("loss.ncc", "work", 1e-9, "GB"),
    "loss.smooth_s": ("loss.smooth", "self_s", 1.0, "s"),
    "loss.combine_s": ("loss.combine", "self_s", 1.0, "s"),
    "loss.calls": ("loss.ncc", "calls", 1.0, "count"),
    "model.adam_s": ("model.adam", "self_s", 1.0, "s"),
    "model.fwd_s": ("model.fwd", "self_s", 1.0, "s"),
    "model.bwd_s": ("model.bwd", "self_s", 1.0, "s"),
    "volume.load_s": ("volume.load", "self_s", 1.0, "s"),
    "volume.save_s": ("volume.save", "self_s", 1.0, "s"),
    "volume.mb_read": ("volume.load", "work", 1e-6, "MB"),
    "cli.self_s": ("cli", "self_s", 1.0, "s"),
}


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def per_layer(regs) -> dict:
    traced = [r for r in regs if r["traced"] and "layers" in r]
    plain = [r for r in regs if not (r["traced"] or r.get("warmup")) and "wall_s" in r]
    if not traced or not plain:
        raise BenchError("a traced run needs a traced and an untraced registration")
    n = len(traced)

    def mean(fn):
        return sum(fn(r) for r in traced) / n

    def layer(name, key):
        return lambda r: r["layers"].get(name, {}).get(key, 0.0)

    m = {k: mean(layer(name, key)) * scale for k, (name, key, scale, _) in _LAYER_METRICS.items()}
    m["register.iters"] = mean(lambda r: r["iterations"])
    m["volume.mb_written"] = 1e-6 * mean(
        lambda r: layer("volume.save", "work")(r) + layer("warp.save_field", "work")(r))
    m["warp.sample_gbps"] = _ratio(m["warp.sample_gb"], m["warp.sample_s"])
    m["loss.ncc_gbps"] = _ratio(m["loss.ncc_gb"], m["loss.ncc_s"])
    gflop = 1e-9 * mean(lambda r: layer("model.fwd", "work")(r) + layer("model.bwd", "work")(r))
    m["model.conv_gflop"] = gflop
    m["model.conv_gflops"] = _ratio(gflop, m["model.fwd_s"] + m["model.bwd_s"])
    # a CLI registration's wall time also covers interpreter start-up and exit
    is_cli = "cli" in traced[0]["layers"]
    m["cli.startup_s"] = mean(lambda r: r["wall_s"] - r["root_s"]) if is_cli else 0.0
    traced_s = statistics.median(r["wall_s"] for r in traced)
    m["trace.register_s"] = traced_s
    m["trace.overhead_s"] = traced_s - statistics.median(r["wall_s"] for r in plain)
    units = {k: u for k, (_, _, _, u) in _LAYER_METRICS.items()}
    units.update({"register.iters": "count", "volume.mb_written": "MB",
                  "warp.sample_gbps": "GB/s", "loss.ncc_gbps": "GB/s",
                  "model.conv_gflop": "GFLOP", "model.conv_gflops": "GFLOP/s",
                  "cli.startup_s": "s", "trace.register_s": "s", "trace.overhead_s": "s"})
    return {k: {"value": v, "unit": units[k], "n": n} for k, v in sorted(m.items())}


# ---------------------------------------------------------------------------
# environment


def _cache_sizes() -> dict:
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            key = f"L{(d / 'level').read_text().strip()} {(d / 'type').read_text().strip()}"
            caches[key] = (d / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 only prints
        deps = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------


def run(args, root: Path, work: Path) -> dict:
    src = root / "src"
    wl = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{wl.name}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    results = root / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for old in results.glob(f"{tag}.spans*.jsonl"):
        old.unlink()
    spans_out = results / f"{tag}.spans.jsonl"

    inputs = make_inputs(wl, args.seed, work / "inputs")
    base = {"src": str(src), "fixed": str(inputs["fixed"]), "moving": str(inputs["moving"])}
    setup = measure_setup(base, work, deadline)
    if wl.kind == "api":
        regs, field = run_api(wl, args, base, work, spans_out, deadline)
        fields = [field] * len(regs)  # repeats are held to its SHA-256
    else:
        pairs = list(run_cli(wl, args, base, work, spans_out, deadline))
        regs = [r for r, _ in pairs]
        fields = [f for _, f in pairs]

    # the field of one (workload settings, seed) must not change between runs of the same code
    code = _code_id(src)
    store = root / ".bench_out" / "field_sha256.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    case = case_seed(wl, args.seed)
    key = hashlib.sha256(f"{code}/{wl!r}/{case}".encode()).hexdigest()
    quality = check_registrations(wl, regs, fields, inputs, known.get(key))
    shas = [r["field_sha256"] for r in regs if "field_sha256" in r]
    if shas and key not in known:
        known[key] = shas[0]
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    if args.trace:
        check_trace(wl, regs)

    failed = sum(1 for r in regs if r["failures"])
    quality["fail_frac"] = failed / len(regs)
    losses = [r["final_loss"] for r in regs if "final_loss" in r]
    if losses:
        quality["final_loss"] = statistics.median(losses)
    metrics = per_layer(regs) if args.trace else end_to_end(regs, setup)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "case_seed": case,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "code_sha256": code,
        "env": environment(),
        "setup_s": setup,
        "registrations": regs,
        "field_sha256": sorted(set(shas)),
        "quality": quality,
        "metrics": metrics,
        "result": {
            "correct": failed == 0,
            "attempted": len(regs),
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
        },
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = results / f"{tag}.json"
    return record


def _print_report(record) -> None:
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} case={record['case_seed']} "
          f"trace={record['trace']}: "
          f"{record['result']['attempted']} registrations, {record['result']['failed']} failed")
    for r in record["registrations"]:
        for f in r["failures"]:
            print(f"# FAILED: {f}")
    for k, v in record["metrics"].items():
        spread = f" [{v['min']:.6g} .. {v['max']:.6g}]" if "min" in v else ""
        print(f"# {k:22s} {v['value']:.6g} {v['unit']} (n={v['n']}){spread}")
    if record["trace"]:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        total = m["trace.register_s"]
        parts = sorted(((v, k) for k, v in m.items()
                        if k.endswith("_s") and not k.startswith("trace.") and v > 0), reverse=True)
        print("# split of trace.register_s: " + ", ".join(f"{k} {v / total:.1%}" for v, k in parts)
              + f"; sum {sum(v for v, _ in parts) / total:.2%}")
    q = {k: round(v, 6) for k, v in record["quality"].items()}
    print(f"# quality {json.dumps(q)}")
    print(f"# field sha256 {' '.join(s[:16] for s in record['field_sha256'])}")
    print(f"# env python {env['python']} numpy {env['numpy']} blas {env['blas']['name']} "
          f"{env['blas']['version']} threads {sorted(set(env['threads'].values()))} "
          f"nproc {env['nproc']} caches {env['caches']}")
    print(f"# full record: {record['path']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "defreg" / "__init__.py").is_file():
        print(f"bench: {root} holds no src/defreg; run from the root of a defreg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = run(args, root, work)
    except (BenchError, TraceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
