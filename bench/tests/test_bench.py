"""Tests of the benchmark itself, at smoke size:

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
from workloads import WORKLOADS, case_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_names_the_workloads_and_their_reasons():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_recovery_cases_come_from_the_criterion_3_set():
    wl = WORKLOADS["freeform-48"]
    assert [case_seed(wl, s) for s in (1, 2, 3, 4, 5, 6, 0)] == [1, 2, 3, 4, 5, 1, 5]
    assert {case_seed(wl, s) for s in range(-50, 426871593, 7919)} == {1, 2, 3, 4, 5}
    assert case_seed(WORKLOADS["convnet-48"], 426871592) == 426871592


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc, lines = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # the layer self times split the traced registration completely
        self_s = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
        assert self_s == pytest.approx(metrics["trace.register_s"], rel=1e-3)
    else:  # a tiny noise pair may end with a slightly negative NCC
        assert all(v > 0 for k, v in metrics.items() if k != "final_ncc")


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run(tmp_path, "--workload", "freeform-48", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _tiny_pair():
    from defreg.volume import Volume

    rng = np.random.default_rng(0)
    return (Volume(data=rng.standard_normal((8, 8, 8))),
            Volume(data=rng.standard_normal((8, 8, 8))))


def test_traced_registration_splits_into_self_times_and_unwraps():
    import defreg.register as reg

    original = reg.overall_loss
    cfg = reg.RegistrationConfig(pyramid_levels=2, iterations_per_level=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        reg.register(*_tiny_pair(), cfg)
    finally:
        tracer.uninstall()
    assert reg.overall_loss is original
    (root,) = tracer.roots()
    totals = tracer.totals(run=root.run)
    assert sum(d["self_s"] for d in totals.values()) == pytest.approx(root.duration)
    assert totals["loss.combine"]["calls"] == 2 * 4  # entry + 3 steps per level
    assert totals["warp.sample"]["calls"] == totals["loss.combine"]["calls"]
    assert [s.name for s in tracer.spans if s.parent == -1] == ["register"]


def test_missing_wrapped_attribute_fails_loudly(monkeypatch):
    import defreg.loss

    monkeypatch.delattr(defreg.loss, "smoothness_loss")
    import defreg.register as reg

    original = reg.overall_loss
    with pytest.raises(spans.TraceError, match="smoothness_loss"):
        spans.Tracer().install()
    assert reg.overall_loss is original


def test_conv_flop_counts_each_layer_at_its_level():
    tensors = {
        "enc0_conv1_w": np.zeros((4, 2, 3, 3, 3)),
        "enc1_conv1_w": np.zeros((8, 4, 3, 3, 3)),
        "dec0_conv_w": np.zeros((4, 12, 3, 3, 3)),
        "head_w": np.zeros((3, 4, 1, 1, 1)),
        "head_b": np.zeros(3),
    }
    v = 16**3
    expected = 2 * 27 * (2 * 4 * v + 8 * 4 * v / 8 + 12 * 4 * v) + 2 * 4 * 3 * v
    assert spans.conv_flop(tensors, (16, 16, 16)) == expected
