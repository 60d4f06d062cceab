"""Smoke tests of the experiment scripts: each runs a tiny case and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from defreg.register import RegistrationConfig

REPO = Path(__file__).resolve().parents[1]
TINY = ["--dims", "16", "--levels", "1", "--iters", "2", "--max-disp", "2"]

HEADER = "seed  lambda  init_mae  final_mae"
# the rate each mode runs at without --learning-rate: freeform criterion 3's,
# convnet the registration default, which the script must not copy
FREEFORM_LR = "lr=0.2 "
CONVNET_LR = f"lr={RegistrationConfig(mode='convnet').resolved_learning_rate} "

# (script, arguments, table header, rows, text the first line shows)
SCRIPTS = [
    ("synth_benchmark.py", TINY, HEADER, 5, FREEFORM_LR),  # seeds 1-5
    ("synth_benchmark.py", TINY + ["--mode", "convnet"], HEADER, 5, CONVNET_LR),
    # one row per seed and weight
    ("synth_benchmark.py", TINY + ["--seeds", "3", "4", "--lambda", "0", "0.05", "1"], HEADER, 6,
     FREEFORM_LR),
    ("convnet_phase_peaks.py", ["--dims", "16"], "phase  ", 6, "traced peak "),  # six phases
    # five kernels and the whole step
    ("freeform_step_times.py", ["--dims", "16", "--repeats", "3"], "kernel  ", 6,
     "freeform step at "),
    # one row per module of src/defreg, and the total
    ("code_lines.py", [], "module  ", len(list((REPO / "src" / "defreg").glob("*.py"))) + 1,
     "code lines "),
]


@pytest.mark.parametrize(
    "script,args,header,rows,title", SCRIPTS,
    ids=["synth_benchmark", "synth_benchmark-convnet", "synth_benchmark-lambdas",
         "convnet_phase_peaks", "freeform_step_times", "code_lines"],
)
def test_script_prints_its_table(script, args, header, rows, title):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert title in lines[0]
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    table = [line for line in lines[start + 1 :] if not line.startswith("#")]
    assert len(table) == rows
    for line in table:
        assert len(line.split()) == len(lines[start].split())
