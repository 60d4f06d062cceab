"""Command-line tests: subprocess round trips, exit codes, manifests."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

TABLE2_INITIAL = (
    "13.50,14.00,16.00,15.00,17.00,17.00,1.50,3.50,9.00,4.00,"
    "3.00,5.00,2.00,2.00,2.00,7.00,10.00,4.50,6.00,4.00"
).split(",")


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "defreg", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    """One small synthetic case shared by the command tests."""
    out = tmp_path_factory.mktemp("case")
    proc = run_cli(
        "synth", "--out", str(out), "--dims", "16", "16", "16", "--seed", "4",
        "--num-blobs", "20", "--field-bumps", "2", "--max-disp", "2",
        "--num-landmarks", "5", "--noise-sigma", "0",
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def registered(case_dir, tmp_path_factory):
    """A quick freeform registration of the shared case."""
    out = tmp_path_factory.mktemp("reg")
    field = out / "out.dfield"
    proc = run_cli(
        "register",
        "--fixed", str(case_dir / "fixed.vol"),
        "--moving", str(case_dir / "moving.vol"),
        "--out-field", str(field),
        "--out-warped", str(out / "warped.vol"),
        "--mode", "freeform", "--levels", "2", "--iters", "40",
        "--lambda", "0.1", "--ncc-window", "5", "--learning-rate", "0.3",
    )
    assert proc.returncode == 0, proc.stderr
    return out, field, proc


class TestVersion:
    def test_prints_version(self):
        proc = run_cli("version")
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("defreg ")

    def test_missing_command_is_user_error(self):
        proc = run_cli()
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()


class TestSynthCommand:
    def test_writes_case_files_and_manifest(self, case_dir):
        for name in (
            "fixed.vol", "fixed.vol.json", "moving.vol", "moving.vol.json",
            "true_field.dfield", "true_field.dfield.json",
            "fixed_landmarks.csv", "moving_landmarks.csv",
            "case.json", "manifest.json",
        ):
            assert (case_dir / name).exists(), name

    def test_manifest_well_formed(self, case_dir):
        m = json.loads((case_dir / "manifest.json").read_text())
        assert m["command"] == "synth"
        assert m["config"]["seed"] == 4
        assert m["config"]["dims"] == [16, 16, 16]
        assert isinstance(m["wall_seconds"], float)
        assert any(p.endswith("fixed.vol") for p in m["outputs"])

    def test_same_seed_identical_bytes(self, case_dir, tmp_path):
        proc = run_cli(
            "synth", "--out", str(tmp_path), "--dims", "16", "16", "16", "--seed", "4",
            "--num-blobs", "20", "--field-bumps", "2", "--max-disp", "2",
            "--num-landmarks", "5", "--noise-sigma", "0",
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("fixed.vol", "moving.vol", "true_field.dfield"):
            assert (tmp_path / name).read_bytes() == (case_dir / name).read_bytes()

    def test_invalid_dims_is_user_error(self, tmp_path):
        proc = run_cli("synth", "--out", str(tmp_path / "x"), "--dims", "4", "4", "4")
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()
        assert proc.stderr.count("\n") <= 2  # single-line diagnostic

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"dims": [16, 16, 16], "seed": 9, "noise_sigma": 0.0,
                                   "num_landmarks": 5, "max_displacement": 1.0}))
        out = tmp_path / "case"
        proc = run_cli("synth", "--out", str(out), "--config", str(cfg), "--seed", "10")
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "case.json").read_text())
        assert manifest["config"]["seed"] == 10  # flag wins
        assert manifest["config"]["dims"] == [16, 16, 16]  # file value used


class TestRegisterCommand:
    def test_happy_path_outputs(self, registered):
        out, field, proc = registered
        assert field.exists()
        assert (out / "out.dfield.json").exists()
        assert (out / "warped.vol").exists()
        assert (out / "out.dfield.report.json").exists()
        assert (out / "out.dfield.manifest.json").exists()
        line = proc.stdout.strip().splitlines()[-1]
        assert "total=" in line and "iterations=" in line and "stop=" in line

    def test_report_structure(self, registered):
        out, _, _ = registered
        report = json.loads((out / "out.dfield.report.json").read_text())
        assert report["mode"] == "freeform"
        assert report["config"]["pyramid_levels"] == 2
        assert len(report["levels"]) == 2
        assert report["field_path"].endswith("out.dfield")

    def test_manifest_records_input_digests(self, registered, case_dir):
        out, _, _ = registered
        m = json.loads((out / "out.dfield.manifest.json").read_text())
        assert m["command"] == "register"
        path = next(p for p in m["inputs"] if p.endswith("fixed.vol"))
        want = hashlib.sha256((case_dir / "fixed.vol").read_bytes()).hexdigest()
        assert m["inputs"][path] == want

    def test_zero_iterations_writes_zero_field(self, case_dir, tmp_path):
        field = tmp_path / "zero.dfield"
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field),
            "--iters", "0",
        )
        assert proc.returncode == 0, proc.stderr
        from defreg.warp import load_field

        assert not load_field(field).data.any()

    def test_missing_flag_is_user_error(self, case_dir, tmp_path):
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--out-field", str(tmp_path / "x.dfield"),
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_missing_input_file_is_io_error(self, tmp_path):
        proc = run_cli(
            "register",
            "--fixed", str(tmp_path / "absent.vol"),
            "--moving", str(tmp_path / "absent.vol"),
            "--out-field", str(tmp_path / "x.dfield"),
        )
        assert proc.returncode == 2
        assert "i/o error" in proc.stderr

    def test_checkpoint_requires_convnet_mode(self, case_dir, tmp_path):
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(tmp_path / "x.dfield"),
            "--out-checkpoint", str(tmp_path / "x.ckpt"),
            "--mode", "freeform",
        )
        assert proc.returncode == 1

    def test_convnet_mode_writes_checkpoint(self, case_dir, tmp_path):
        field = tmp_path / "cn.dfield"
        ckpt = tmp_path / "cn.ckpt"
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field),
            "--out-checkpoint", str(ckpt),
            "--mode", "convnet", "--iters", "2",
            "--net-levels", "2", "--base-filters", "2",
            "--ncc-window", "5", "--lambda", "0.1",
        )
        assert proc.returncode == 0, proc.stderr
        assert ckpt.read_bytes()[:4] == b"IRNW"
        from defreg.model import load_checkpoint

        params = load_checkpoint(ckpt)
        assert params.config.levels == 2

    def test_checkpoint_reproduces_saved_field(self, tmp_path):
        from defreg.model import convnet_forward, load_checkpoint
        from defreg.register import _pad_to_multiple
        from defreg.volume import Volume, load_volume, save_volume, zscore_normalize
        from defreg.warp import load_field

        # dims not divisible by 2^net-levels, so the check covers pad and crop
        rng = np.random.default_rng(21)
        for name in ("fixed", "moving"):
            save_volume(Volume(data=rng.normal(size=(18, 16, 14))), tmp_path / f"{name}.vol")
        field = tmp_path / "cn.dfield"
        ckpt = tmp_path / "cn.ckpt"
        proc = run_cli(
            "register",
            "--fixed", str(tmp_path / "fixed.vol"),
            "--moving", str(tmp_path / "moving.vol"),
            "--out-field", str(field),
            "--out-checkpoint", str(ckpt),
            "--mode", "convnet", "--iters", "3", "--learning-rate", "0.01",
            "--net-levels", "2", "--base-filters", "2",
            "--ncc-window", "5", "--lambda", "0.1",
        )
        assert proc.returncode == 0, proc.stderr
        params = load_checkpoint(ckpt)
        assert params.config.use_batchnorm
        fixed, moving = (
            _pad_to_multiple(zscore_normalize(load_volume(tmp_path / f"{n}.vol")), 4)
            for n in ("fixed", "moving")
        )
        pred, _ = convnet_forward(params, fixed, moving)
        saved = load_field(field).data
        assert saved.shape == (18, 16, 14, 3)
        assert np.abs(saved).max() > 1e-3
        # weights and field are both stored as float32
        np.testing.assert_allclose(
            pred.data[:18, :16, :14], saved, rtol=0, atol=1e-5 * np.abs(saved).max()
        )

    def test_final_line_reports_the_returned_field(self, tmp_path):
        # convnet returns the best iterate of all rounds; here that is not in
        # the last round, whose own best the line used to print
        from defreg.loss import LossConfig, overall_loss
        from defreg.volume import Volume, load_volume, save_volume, zscore_normalize
        from defreg.warp import load_field

        rng = np.random.default_rng(0)
        for name in ("fixed", "moving"):
            save_volume(Volume(data=rng.standard_normal((16, 16, 16))), tmp_path / f"{name}.vol")
        field = tmp_path / "cn.dfield"
        proc = run_cli(
            "--threads", "1", "register",
            "--fixed", str(tmp_path / "fixed.vol"),
            "--moving", str(tmp_path / "moving.vol"),
            "--out-field", str(field),
            "--mode", "convnet", "--levels", "3", "--iters", "4", "--learning-rate", "1.0",
            "--ncc-window", "5", "--lambda", "0.1", "--net-levels", "1",
            "--base-filters", "2", "--seed", "6",
        )
        assert proc.returncode == 0, proc.stderr
        kv = dict(part.split("=", 1) for part in proc.stdout.split())
        report = json.loads((tmp_path / "cn.dfield.report.json").read_text())
        last = report["levels"][-1]
        assert float(kv["total"]) == report["final"]["total"]
        assert report["final"]["total"] < last["losses"][last["best_iteration"]]["total"]
        assert report["final"]["total"] == min(
            lv["total"] for level in report["levels"] for lv in level["losses"]
        )
        # the written field (float32) scores the reported loss
        fixed, moving = (zscore_normalize(load_volume(tmp_path / f"{n}.vol"))
                         for n in ("fixed", "moving"))
        lv, _ = overall_loss(fixed, moving, load_field(field),
                             LossConfig(ncc_window=5, reg_weight=0.1))
        assert lv.total == pytest.approx(report["final"]["total"], abs=1e-6)

    def test_single_thread_runs_are_byte_identical(self, case_dir, tmp_path):
        fields = []
        for tag in ("a", "b"):
            field = tmp_path / f"{tag}.dfield"
            proc = run_cli(
                "--threads", "1", "register",
                "--fixed", str(case_dir / "fixed.vol"),
                "--moving", str(case_dir / "moving.vol"),
                "--out-field", str(field),
                "--levels", "1", "--iters", "5", "--ncc-window", "5",
                "--lambda", "0.1",
            )
            assert proc.returncode == 0, proc.stderr
            fields.append(field.read_bytes())
        assert fields[0] == fields[1]

    def test_help_lists_spec_defaults(self):
        proc = run_cli("register", "--help", env={"COLUMNS": "200"})
        assert proc.returncode == 0
        for needle in ("default: 9", "default: 200 freeform, 100 convnet", "default: 1e-6"):
            assert needle in proc.stdout


# each was silently misread or crashed with a traceback before the settings table
BAD_CONFIGS = [
    ("register", {"loss": None}, "loss"),
    ("register", {"loss": {"ncc_window": [9]}}, "loss.ncc_window"),
    ("register", {"ncc_window": 5}, "ncc_window"),  # belongs under "loss"
    ("register", {"loss": {"ncc_windw": 5}}, "loss.ncc_windw"),
    ("register", {"convnet": {"use_batchnorm": "false"}}, "convnet.use_batchnorm"),
    ("register", {"seed": 1.7}, "seed"),
    ("register", {"seed": True}, "seed"),
    ("register", {"iterations_schedule": "2,,3"}, "iterations_schedule"),
    ("synth", {"dims": 16}, "dims"),
    ("synth", {"num_blob": 3}, "num_blob"),
    ("synth", {"cavity": "no"}, "cavity"),
]


class TestConfigFile:
    @pytest.mark.parametrize(
        "command,config,key", BAD_CONFIGS, ids=[json.dumps(c) for _, c, _ in BAD_CONFIGS]
    )
    def test_bad_config_is_one_line_user_error(self, case_dir, tmp_path, command, config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        if command == "register":
            argv = ["--fixed", str(case_dir / "fixed.vol"),
                    "--moving", str(case_dir / "moving.vol"),
                    "--out-field", str(tmp_path / "x.dfield")]
        else:
            argv = ["--out", str(tmp_path / "case")]
        proc = run_cli(command, *argv, "--config", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") <= 2
        assert "defreg: error:" in proc.stderr
        assert f"run.json: {key}" in proc.stderr or f"{key!r}" in proc.stderr

    def test_blank_schedule_entry_in_flag_rejected(self, case_dir, tmp_path):
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(tmp_path / "x.dfield"),
            "--levels", "3", "--iters-schedule", "2,,3",
        )
        assert proc.returncode == 1
        assert "--iters-schedule" in proc.stderr and "Traceback" not in proc.stderr

    def test_register_sections_flag_override_and_defaults(self, case_dir, tmp_path):
        from defreg.loss import LossConfig
        from defreg.register import RegistrationConfig

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "mode": "convnet", "iterations_per_level": 1, "learning_rate": 1,
            "loss": {"ncc_window": 5, "reg_weight": 0.1},
            "convnet": {"levels": 1, "base_filters": 2, "use_batchnorm": False},
        }))
        field = tmp_path / "cn.dfield"
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field), "--config", str(cfg), "--ncc-window", "3",
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads((tmp_path / "cn.dfield.manifest.json").read_text())["config"]
        assert got["loss"] == {
            "ncc_window": 3,  # flag wins over the file
            "reg_weight": 0.1,
            "variance_floor": LossConfig().variance_floor,  # neither: the dataclass default
        }
        # no kernel_size: it is not a setting (the checkpoint header records it)
        assert got["convnet"] == {"levels": 1, "base_filters": 2, "use_batchnorm": False}
        assert got["learning_rate"] == 1.0 and isinstance(got["learning_rate"], float)
        assert got["convergence_tol"] == RegistrationConfig().convergence_tol
        assert got["seed"] == RegistrationConfig().seed


# NaN passed every "x < 0" check; each now fails in the config, naming it
NON_FINITE = [
    ("register", ["--lambda", "nan"], "reg_weight"),
    ("register", ["--variance-floor", "nan"], "variance_floor"),
    ("register", ["--learning-rate", "nan"], "learning_rate"),
    ("register", ["--convergence-tol", "nan"], "convergence_tol"),
    ("register", ["--max-seconds", "inf"], "max_seconds"),
    ("synth", ["--spacing", "1", "nan", "1"], "spacing"),
    ("synth", ["--max-disp", "nan"], "max_displacement"),
    ("synth", ["--noise-sigma", "inf"], "noise_sigma"),
]


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "command,flags,key", NON_FINITE, ids=[" ".join(f) for _, f, _ in NON_FINITE]
    )
    def test_rejected_by_name(self, case_dir, tmp_path, command, flags, key):
        if command == "register":
            argv = ["--fixed", str(case_dir / "fixed.vol"),
                    "--moving", str(case_dir / "moving.vol"),
                    "--out-field", str(tmp_path / "x.dfield"), "--iters", "1"]
        else:
            argv = ["--out", str(tmp_path / "case"), "--dims", "8", "8", "8"]
        proc = run_cli(command, *argv, *flags)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("defreg: error:")
        assert key in errors[0]

    def test_nan_in_config_file_rejected_by_name(self, case_dir, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"loss": {"reg_weight": NaN}}')  # Python's JSON reader takes NaN
        proc = run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(tmp_path / "x.dfield"), "--config", str(path),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("defreg: error: reg_weight")



def _refuse_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


class TestDivergence:
    @pytest.fixture(scope="class")
    def repro_case(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("repro")
        proc = run_cli("synth", "--out", str(out), "--dims", "16", "16", "16", "--max-disp", "2")
        assert proc.returncode == 0, proc.stderr
        return out

    @pytest.mark.parametrize("flags", [
        ["--levels", "1", "--learning-rate", "1e308"],
        ["--levels", "2", "--learning-rate", "1e200"],
        ["--levels", "1", "--lambda", "1e300", "--learning-rate", "1e200"],
        ["--mode", "convnet", "--learning-rate", "1e300"],
        ["--mode", "convnet", "--learning-rate", "1e308"],
    ], ids=" ".join)
    def test_overflowing_run_stops_as_diverged(self, repro_case, tmp_path, flags):
        from defreg.warp import load_field

        field = tmp_path / "d.dfield"
        proc = run_cli(
            "--threads", "1", "register",
            "--fixed", str(repro_case / "fixed.vol"),
            "--moving", str(repro_case / "moving.vol"),
            "--out-field", str(field), "--iters", "5", *flags,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "stop=diverged"
        assert load_field(field).dims == (16, 16, 16)
        text = (tmp_path / "d.dfield.report.json").read_text()
        report = json.loads(text, parse_constant=_refuse_constant)
        assert report["stop_reason"] == report["levels"][-1]["stop_reason"] == "diverged"

    def test_diverging_run_prints_no_numpy_warnings(self, repro_case, tmp_path):
        # the stop reason reports the divergence; numpy's overflow warnings
        # would point into the library's internals
        proc = run_cli(
            "--threads", "1", "register",
            "--fixed", str(repro_case / "fixed.vol"),
            "--moving", str(repro_case / "moving.vol"),
            "--out-field", str(tmp_path / "d.dfield"),
            "--iters", "5", "--levels", "1", "--learning-rate", "1e308",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "stop=diverged"
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.splitlines()[0]]  # the progress line only


class TestPyramidDepth:
    @pytest.mark.parametrize("dims,levels,level_dims", [
        ((8, 8, 1), "1", "(8, 8, 1)"),
        ((2, 8, 8), "2", "(1, 4, 4)"),
    ])
    def test_pyramid_too_deep_is_one_line_user_error(self, tmp_path, dims, levels, level_dims):
        from defreg.volume import Volume, save_volume

        rng = np.random.default_rng(0)
        for name in ("fixed", "moving"):
            save_volume(Volume(data=rng.standard_normal(dims)), tmp_path / f"{name}.vol")
        proc = run_cli(
            "register",
            "--fixed", str(tmp_path / "fixed.vol"),
            "--moving", str(tmp_path / "moving.vol"),
            "--out-field", str(tmp_path / "x.dfield"), "--levels", levels, "--iters", "1",
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        # the "registering ..." progress line, then one error line
        errors = [line for line in proc.stderr.splitlines() if line.startswith("defreg:")]
        assert errors == proc.stderr.splitlines()[-1:]
        assert errors[0].startswith("defreg: error: pyramid_levels=")
        assert level_dims in errors[0]


class TestManifestReplay:
    @pytest.mark.parametrize("settings", [
        ["--mode", "freeform", "--levels", "2", "--iters-schedule", "6,3",
         "--lambda", "0.1", "--ncc-window", "5", "--learning-rate", "0.3"],
        ["--mode", "convnet", "--levels", "2", "--iters", "2", "--learning-rate", "0.01",
         "--net-levels", "2", "--base-filters", "2", "--ncc-window", "5", "--seed", "3"],
    ], ids=["freeform-schedule", "convnet"])
    def test_manifest_config_reproduces_the_field(self, case_dir, tmp_path, settings):
        inputs = ["--fixed", str(case_dir / "fixed.vol"), "--moving", str(case_dir / "moving.vol")]
        first = tmp_path / "first.dfield"
        proc = run_cli("--threads", "1", "register", *inputs, "--out-field", str(first), *settings)
        assert proc.returncode == 0, proc.stderr
        config = json.loads((tmp_path / "first.dfield.manifest.json").read_text())["config"]
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(config))
        again = tmp_path / "again.dfield"
        proc = run_cli("--threads", "1", "register", *inputs, "--out-field", str(again),
                       "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert again.read_bytes() == first.read_bytes()
        replayed = json.loads((tmp_path / "again.dfield.manifest.json").read_text())["config"]
        assert replayed == config


class TestSettingsTable:
    def test_parser_does_not_import_numpy(self):
        code = (
            "import sys\n"
            "import defreg.cli\n"
            "defreg.cli.build_parser()\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'"
            " or m in ('defreg.loss', 'defreg.model', 'defreg.register', 'defreg.synth')])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["register", "synth"])
    def test_help_defaults_match_dataclasses(self, command):
        import functools
        import re

        from defreg import cli
        from defreg.register import RegistrationConfig
        from defreg.synth import SynthConfig

        table, config = {
            "register": (cli._REGISTER, RegistrationConfig()),
            "synth": (cli._SYNTH, SynthConfig()),
        }[command]
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        keys = {s.flag: s.key for s in table}
        checked = 0
        for action in sub.choices[command]._actions:
            m = re.search(r"\(default: ([^)]*)\)", action.help or "")
            flag = action.option_strings[0] if action.option_strings else None
            if m is None or flag not in keys or "," in m.group(1):
                continue  # not a setting, or a default that depends on the mode
            text = m.group(1)
            if text in ("none", "off"):
                shown = {"none": None, "off": False}[text]
            else:
                try:
                    shown = tuple(float(w) for w in text.split())
                    shown = shown[0] if len(shown) == 1 else shown
                except ValueError:
                    shown = text
            assert shown == functools.reduce(getattr, keys[flag].split("."), config), flag
            checked += 1
        assert checked == {"register": 9, "synth": 9}[command]


class TestEvalCommand:
    def test_zero_field_against_exact_landmarks(self, case_dir, tmp_path):
        # zero displacement: method errors equal initial errors, nothing
        # strictly improves
        field = tmp_path / "zero.dfield"
        run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field),
            "--iters", "0",
        )
        prefix = str(tmp_path / "eval_")
        proc = run_cli(
            "eval",
            "--field", str(field),
            "--fixed-landmarks", str(case_dir / "fixed_landmarks.csv"),
            "--moving-landmarks", str(case_dir / "moving_landmarks.csv"),
            "--out-prefix", prefix,
        )
        assert proc.returncode == 0, proc.stderr
        assert "robustness=0.0" in proc.stdout
        assert proc.stdout.split()[-1] == "clamped=0"
        metrics = json.loads((tmp_path / "eval_metrics.json").read_text())[0]
        assert metrics["mae_median"] == pytest.approx(metrics["initial_mae_median"], abs=1e-9)
        long_lines = (tmp_path / "eval_errors_long.csv").read_text().strip().splitlines()
        assert long_lines[0] == "case,method,error"
        assert len(long_lines) == 1 + 2 * 5  # initial + registered rows
        assert (tmp_path / "eval_manifest.json").exists()

    def test_registered_field_improves_over_initial(self, case_dir, registered):
        _, field, _ = registered
        proc = run_cli(
            "eval",
            "--field", str(field),
            "--fixed-landmarks", str(case_dir / "fixed_landmarks.csv"),
            "--moving-landmarks", str(case_dir / "moving_landmarks.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        kv = dict(part.split("=", 1) for part in proc.stdout.strip().split())
        assert float(kv["mae_median"]) < float(kv["initial_mae_median"])

    def test_clamped_landmarks_are_counted(self, case_dir, tmp_path):
        fixed = tmp_path / "fixed.csv"
        moving = tmp_path / "moving.csv"
        fixed.write_text("id,x,y,z\n1,4.0,5.0,6.0\n2,40.0,5.0,6.0\n")  # 2 is off the 16^3 grid
        moving.write_text("id,x,y,z\n1,4.5,5.0,6.0\n2,41.0,5.0,6.0\n")
        proc = run_cli(
            "eval",
            "--field", str(case_dir / "true_field.dfield"),
            "--fixed-landmarks", str(fixed),
            "--moving-landmarks", str(moving),
        )
        assert proc.returncode == 0, proc.stderr
        kv = dict(part.split("=", 1) for part in proc.stdout.strip().split())
        assert kv["clamped"] == "1"

    def test_summarize_reproduces_published_row(self, tmp_path):
        col = tmp_path / "initial.csv"
        col.write_text("value\n" + "\n".join(TABLE2_INITIAL) + "\n")
        proc = run_cli("eval", "--summarize", str(col))
        assert proc.returncode == 0, proc.stderr
        kv = dict(part.split("=", 1) for part in proc.stdout.strip().split())
        assert float(kv["n"]) == 20
        assert float(kv["mean"]) == pytest.approx(7.80, abs=0.005)
        assert float(kv["median"]) == pytest.approx(5.50, abs=0.005)
        assert float(kv["stddev"]) == pytest.approx(5.62, abs=0.01)
        assert float(kv["q25"]) == pytest.approx(3.38, abs=0.006)
        assert float(kv["q75"]) == pytest.approx(13.63, abs=0.006)

    def test_id_mismatch_is_user_error(self, case_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        lines = (case_dir / "moving_landmarks.csv").read_text().strip().splitlines()
        head, first = lines[0], lines[1].split(",")
        first[0] = "999"
        bad.write_text("\n".join([head, ",".join(first)] + lines[2:]) + "\n")
        field = tmp_path / "zero.dfield"
        run_cli(
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field), "--iters", "0",
        )
        proc = run_cli(
            "eval",
            "--field", str(field),
            "--fixed-landmarks", str(case_dir / "fixed_landmarks.csv"),
            "--moving-landmarks", str(bad),
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()

    def test_missing_inputs_without_summarize(self):
        proc = run_cli("eval")
        assert proc.returncode == 1


class TestSlicesCommand:
    def test_volume_slice_pgm(self, case_dir, tmp_path):
        out = tmp_path / "s.pgm"
        proc = run_cli(
            "slices", "--volume", str(case_dir / "fixed.vol"),
            "--axis", "z", "--index", "8", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n16 16\n255\n")
        assert (tmp_path / "s.pgm.manifest.json").exists()

    def test_jacobian_slice_matches_library(self, case_dir, tmp_path):
        out = tmp_path / "j.pgm"
        proc = run_cli(
            "slices", "--field", str(case_dir / "true_field.dfield"),
            "--jacobian", "--axis", "z", "--index", "8", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        from defreg.warp import jacobian_determinant, load_field

        jm = jacobian_determinant(load_field(case_dir / "true_field.dfield"))
        plane = jm.data[:, :, 8]
        lo, hi = plane.min(), plane.max()
        want = np.rint((plane - lo) / (hi - lo) * 255.0).clip(0, 255).astype(np.uint8)
        raw = out.read_bytes()
        header_end = raw.index(b"255\n") + 4
        pixels = np.frombuffer(raw[header_end:], dtype=np.uint8).reshape(16, 16).T
        np.testing.assert_array_equal(pixels, want)

    def test_volume_and_field_together_rejected(self, case_dir, tmp_path):
        proc = run_cli(
            "slices", "--volume", str(case_dir / "fixed.vol"),
            "--field", str(case_dir / "true_field.dfield"),
            "--jacobian", "--axis", "z", "--index", "8",
            "--out", str(tmp_path / "x.pgm"),
        )
        assert proc.returncode == 1

    def test_field_without_jacobian_rejected(self, case_dir, tmp_path):
        proc = run_cli(
            "slices", "--field", str(case_dir / "true_field.dfield"),
            "--axis", "z", "--index", "8", "--out", str(tmp_path / "x.pgm"),
        )
        assert proc.returncode == 1

    def test_out_of_range_index_rejected(self, case_dir, tmp_path):
        proc = run_cli(
            "slices", "--volume", str(case_dir / "fixed.vol"),
            "--axis", "z", "--index", "99", "--out", str(tmp_path / "x.pgm"),
        )
        assert proc.returncode == 1


class TestThreadConfiguration:
    def test_env_fallback_sets_thread_vars(self):
        code = (
            "import os\n"
            "os.environ['DEFREG_THREADS'] = '3'\n"
            "from defreg.cli import _configure_threads\n"
            "_configure_threads(None)\n"
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "3"]

    def test_flag_overrides_env(self):
        code = (
            "import os\n"
            "os.environ['DEFREG_THREADS'] = '3'\n"
            "from defreg.cli import _configure_threads\n"
            "_configure_threads(2)\n"
            "print(os.environ['OMP_NUM_THREADS'])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"
