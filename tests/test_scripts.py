"""Smoke tests of the experiment scripts: each runs a tiny case and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TINY = ["--dims", "16", "--levels", "1", "--iters", "2", "--max-disp", "2"]

HEADER = "seed  lambda  init_mae  final_mae"

SCRIPTS = [
    ("synth_benchmark.py", TINY, HEADER, 5),  # seeds 1-5
    ("synth_benchmark.py", TINY + ["--mode", "convnet"], HEADER, 5),
    # one row per seed and weight
    ("synth_benchmark.py", TINY + ["--seeds", "3", "4", "--lambda", "0", "0.05", "1"], HEADER, 6),
    ("convnet_phase_peaks.py", ["--dims", "16"], "phase  ", 6),  # six phases
]


@pytest.mark.parametrize(
    "script,args,header,rows", SCRIPTS, ids=["synth_benchmark", "synth_benchmark-convnet",
                                             "synth_benchmark-lambdas", "convnet_phase_peaks"]
)
def test_script_prints_its_table(script, args, header, rows):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    table = [line for line in lines[start + 1 :] if not line.startswith("#")]
    assert len(table) == rows
    for line in table:
        assert len(line.split()) == len(lines[start].split())
