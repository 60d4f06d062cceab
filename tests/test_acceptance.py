"""Acceptance gate: the ten release criteria, one test per criterion.

Run under ``pytest -v`` to get one PASS/FAIL line per criterion.  Tolerances
are pinned in the assertions; measured margins are printed so a tee'd run
records them.  The synthetic-recovery cases are module-scoped because
criteria 3 and 6 share them.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from defreg.evaluate import cohort_summary, landmark_errors, transform_landmarks
from defreg.loss import LossConfig, overall_loss, similarity_loss, smoothness_loss, ncc
from defreg.model import (
    ConvNetConfig,
    ConvNetParameters,
    convnet_backward,
    convnet_forward,
    init_convnet_parameters,
    load_checkpoint,
    save_checkpoint,
)
from defreg.register import RegistrationConfig, register
from defreg.synth import SynthConfig, generate_case, oracle_error
from defreg.volume import Volume, load_volume, save_volume
from defreg.warp import (
    DisplacementField,
    folding_fraction,
    jacobian_determinant,
    load_field,
    save_field,
)
from defreg.evaluate import LandmarkSet, load_landmarks, save_landmarks

# published per-case initial-error column the cohort statistics are pinned
# against (20 cases)
INITIAL_COLUMN = [
    13.50, 14.00, 16.00, 15.00, 17.00, 17.00, 1.50, 3.50, 9.00, 4.00,
    3.00, 5.00, 2.00, 2.00, 2.00, 7.00, 10.00, 4.50, 6.00, 4.00,
]

RECOVERY_SEEDS = (1, 2, 3, 4, 5)
RECOVERY_MARGIN = 6  # landmark interior margin: ceil(max_disp / spacing) + 1


def _recovery_case(seed: int):
    return generate_case(
        SynthConfig(
            dims=(48, 48, 48),
            spacing=(1.0, 1.0, 1.0),
            seed=seed,
            num_blobs=150,
            field_bumps=6,
            max_displacement=5.0,
            num_landmarks=20,
            noise_sigma=0.0,
        )
    )


@pytest.fixture(scope="module")
def recovery_cases():
    return [_recovery_case(s) for s in RECOVERY_SEEDS]


def _random_volume(rng, dims, spacing=(1.0, 1.0, 1.0)):
    data = rng.standard_normal(dims, dtype=np.float32).astype(np.float64)
    return Volume(data=data, spacing=spacing)


def test_criterion_01_cohort_summary_reproduces_published_row():
    s = cohort_summary(INITIAL_COLUMN)
    assert abs(s.mean - 7.80) <= 0.005
    assert abs(s.median - 5.50) <= 0.005
    # linear-interpolation quantiles land exactly on the rounding boundary
    # of the printed 3.38 / 13.63
    assert abs(s.q25 - 3.38) <= 0.005 + 1e-12
    assert abs(s.q75 - 13.63) <= 0.005 + 1e-12
    # frozen convention: sample standard deviation (ddof=1); the population
    # form gives 5.47 and misses the printed value
    assert abs(s.stddev - 5.62) <= 0.01
    print(
        f"criterion 1: mean={s.mean:.4f} stddev={s.stddev:.4f} "
        f"median={s.median:.4f} q25={s.q25:.4f} q75={s.q75:.4f}"
    )


def test_criterion_02_full_cohort_accuracy_out_of_scope():
    """The published full-cohort accuracy figures are not reproducible here.

    They require an access-gated clinical dataset (BraTS-Reg) plus full-scale
    training; neither ships with this repository.  The pinned substitute is
    the synthetic-recovery suite of criterion 3, which tests the same engine
    end to end against exact ground truth.
    """
    import defreg.synth as synth
    import defreg.register as reg

    # the substitute exists and is callable at the required configuration
    assert callable(synth.generate_case) and callable(reg.register)
    cfg = SynthConfig(dims=(48, 48, 48), seed=1, noise_sigma=0.0)
    assert cfg.num_landmarks == 20
    print("criterion 2: full-cohort reproduction out of scope; "
          "synthetic-recovery suite is the substitute")


def test_criterion_03_synthetic_recovery_freeform(recovery_cases):
    cfg = RegistrationConfig(
        mode="freeform",
        pyramid_levels=3,
        iterations_per_level=200,
        learning_rate=0.2,
        loss=LossConfig(reg_weight=0.05),
    )
    for case in recovery_cases:
        t0 = time.monotonic()
        report = register(case.fixed, case.moving, cfg)
        elapsed = time.monotonic() - t0

        before = landmark_errors(case.fixed_lms, case.moving_lms)
        after = landmark_errors(
            transform_landmarks(case.fixed_lms, report.field), case.moving_lms
        )
        reduction = 1.0 - float(np.mean(after)) / float(np.mean(before))
        field_err = oracle_error(report.field, case.true_field, margin=RECOVERY_MARGIN)
        print(
            f"criterion 3: seed={case.config.seed} reduction={reduction:.3f} "
            f"oracle={field_err:.3f}mm wall={elapsed:.1f}s"
        )
        assert reduction >= 0.70, f"seed {case.config.seed}: reduction {reduction:.3f}"
        assert field_err < 1.5, f"seed {case.config.seed}: oracle error {field_err:.3f}"
        assert elapsed < 120.0, f"seed {case.config.seed}: {elapsed:.1f}s"


def test_criterion_04_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    cfg = LossConfig()
    worst_field = 0.0
    for _ in range(10):
        fixed = _random_volume(rng, (8, 8, 8))
        moving = _random_volume(rng, (8, 8, 8))
        field = DisplacementField(rng.uniform(-0.4, 0.4, size=(8, 8, 8, 3)))

        def sim(f):
            return similarity_loss(fixed, moving, f, cfg)[0]

        def smooth(f):
            return smoothness_loss(f)[0]

        def total(f):
            return overall_loss(fixed, moving, f, cfg)[0].total

        _, g_sim = similarity_loss(fixed, moving, field, cfg)
        _, g_smooth = smoothness_loss(field)
        _, g_total = overall_loss(fixed, moving, field, cfg)
        for fn, grad in ((sim, g_sim), (smooth, g_smooth), (total, g_total)):
            flat = rng.choice(field.data.size, size=8, replace=False)
            for fi in flat:
                pos = np.unravel_index(int(fi), field.data.shape)
                step = 1e-4
                up = field.data.copy()
                up[pos] += step
                dn = field.data.copy()
                dn[pos] -= step
                num = (
                    fn(DisplacementField(up)) - fn(DisplacementField(dn))
                ) / (2 * step)
                ana = float(grad[pos])
                err = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
                worst_field = max(worst_field, err)
    assert worst_field < 1e-5

    # network parameters: linear probe loss, FD step refined where the
    # symmetric bracket crosses a ReLU kink
    net_cfg = ConvNetConfig(levels=1, base_filters=2)
    params = init_convnet_parameters(net_cfg, seed=6)
    params.tensors["head_w"] = rng.uniform(-0.02, 0.02, size=(3, 2, 1, 1, 1))
    params.tensors["head_b"] = np.array([0.25, -0.25, 0.25])
    fixed = _random_volume(rng, (8, 8, 8))
    moving = _random_volume(rng, (8, 8, 8))
    probe = rng.standard_normal((8, 8, 8, 3))

    def loss_for(tensors):
        p = ConvNetParameters(
            config=net_cfg, tensors={k: v.copy() for k, v in tensors.items()}
        )
        out, _ = convnet_forward(p, fixed, moving)
        return float((out.data * probe).sum())

    _, cache = convnet_forward(
        ConvNetParameters(
            config=net_cfg, tensors={k: v.copy() for k, v in params.tensors.items()}
        ),
        fixed,
        moving,
    )
    grads = convnet_backward(cache, probe)
    worst_net = 0.0
    for name, g in grads.items():
        theta = params.tensors[name]
        scale = max(float(np.abs(theta).max()), 1.0)
        for fi in rng.choice(theta.size, size=min(theta.size, 10), replace=False):
            pos = np.unravel_index(int(fi), theta.shape)
            ana = float(g[pos])
            for step in (1e-3 * scale, 1e-4 * scale, 3e-6 * scale):
                up = {k: v.copy() for k, v in params.tensors.items()}
                up[name][pos] += step
                dn = {k: v.copy() for k, v in params.tensors.items()}
                dn[name][pos] -= step
                num = (loss_for(up) - loss_for(dn)) / (2 * step)
                err = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
                if err < 1e-4:
                    break
            worst_net = max(worst_net, err)
    assert worst_net < 1e-4
    print(f"criterion 4: worst field-grad rel err {worst_field:.2e}, "
          f"worst net-grad rel err {worst_net:.2e}")


def test_criterion_05_ncc_properties():
    rng = np.random.default_rng(7)
    cfg = LossConfig(ncc_window=5)
    for _ in range(100):
        dims = tuple(rng.integers(4, 9, size=3))
        a = _random_volume(rng, dims)
        b = _random_volume(rng, dims)
        assert -1.0 - 1e-9 <= ncc(a, b, cfg) <= 1.0 + 1e-9
    for _ in range(10):
        a = _random_volume(rng, (7, 6, 8))
        same = ncc(a, a, cfg)
        assert abs(same - 1.0) <= 1e-6
        affine = Volume(data=2.5 * a.data + 7.0, spacing=a.spacing)
        assert abs(ncc(a, affine, cfg) - 1.0) <= 1e-6
        negated = Volume(data=-a.data, spacing=a.spacing)
        assert abs(ncc(a, negated, cfg) + 1.0) <= 1e-6
    print("criterion 5: bound, affine-invariance, and anticorrelation hold")


def test_criterion_06_jacobian_exactness(recovery_cases):
    rng = np.random.default_rng(11)
    dims = (9, 8, 10)
    spacing = (1.0, 1.5, 0.75)
    xs = np.arange(dims[0])[:, None, None, None] * spacing[0]
    ys = np.arange(dims[1])[None, :, None, None] * spacing[1]
    zs = np.arange(dims[2])[None, None, :, None] * spacing[2]
    for _ in range(20):
        A = rng.uniform(-0.15, 0.15, size=(3, 3))
        b = rng.uniform(-2.0, 2.0, size=3)
        u = xs * A[:, 0] + ys * A[:, 1] + zs * A[:, 2] + b
        jm = jacobian_determinant(DisplacementField(u, spacing=spacing))
        want = float(np.linalg.det(np.eye(3) + A))
        assert np.max(np.abs(jm.data - want)) <= 1e-9
    zero = jacobian_determinant(DisplacementField.zeros((6, 6, 6)))
    assert np.array_equal(zero.data, np.ones((6, 6, 6)))
    for case in recovery_cases:
        assert folding_fraction(jacobian_determinant(case.true_field)) == 0.0
    print("criterion 6: affine determinants exact; synth fields fold-free")


def test_criterion_07_zero_head_equals_zero_field():
    rng = np.random.default_rng(17)
    fixed = _random_volume(rng, (16, 16, 16))
    moving = _random_volume(rng, (16, 16, 16))
    shared = dict(loss=LossConfig(ncc_window=5, reg_weight=0.1))
    ff = register(
        fixed,
        moving,
        RegistrationConfig(
            mode="freeform", pyramid_levels=1, iterations_per_level=0, **shared
        ),
    )
    cn = register(
        fixed,
        moving,
        RegistrationConfig(
            mode="convnet",
            pyramid_levels=1,
            iterations_per_level=1,
            convnet=ConvNetConfig(levels=2, base_filters=2),
            **shared,
        ),
    )
    entry_ff = ff.levels[0].losses[0]
    entry_cn = cn.levels[0].losses[0]
    assert entry_cn.total == entry_ff.total
    assert entry_cn.similarity == entry_ff.similarity
    assert entry_cn.smoothness == entry_ff.smoothness
    print(f"criterion 7: shared entry loss {entry_ff.total!r}")


def test_criterion_08_determinism(tmp_path):
    case_dir = tmp_path / "case"
    proc = subprocess.run(
        [sys.executable, "-m", "defreg", "synth", "--out", str(case_dir),
         "--dims", "16", "16", "16", "--seed", "12", "--num-blobs", "20",
         "--field-bumps", "2", "--max-disp", "2", "--num-landmarks", "5",
         "--noise-sigma", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr

    def run(tag, threads):
        field = tmp_path / f"{tag}.dfield"
        argv = [sys.executable, "-m", "defreg"]
        if threads is not None:
            argv += ["--threads", str(threads)]
        argv += [
            "register",
            "--fixed", str(case_dir / "fixed.vol"),
            "--moving", str(case_dir / "moving.vol"),
            "--out-field", str(field),
            "--levels", "2", "--iters", "10", "--ncc-window", "5",
            "--lambda", "0.1", "--seed", "0",
        ]
        p = subprocess.run(argv, capture_output=True, text=True)
        assert p.returncode == 0, p.stderr
        kv = dict(part.split("=", 1) for part in p.stdout.strip().split())
        return field.read_bytes(), float(kv["total"])

    bytes_a, total_a = run("a", 1)
    bytes_b, total_b = run("b", 1)
    assert bytes_a == bytes_b
    assert total_a == total_b
    _, total_mt = run("c", None)  # ambient thread count
    assert abs(total_mt - total_a) <= 1e-9
    print(f"criterion 8: single-thread byte-identical; "
          f"multi-thread loss delta {abs(total_mt - total_a):.2e}")


def test_criterion_09_file_round_trips(tmp_path):
    rng = np.random.default_rng(23)
    for i in range(50):
        dims = tuple(rng.integers(2, 6, size=3))
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))

        vol = _random_volume(rng, dims, spacing)
        save_volume(vol, tmp_path / "v.vol")
        back = load_volume(tmp_path / "v.vol")
        assert back.dims == vol.dims and back.spacing == vol.spacing
        assert np.array_equal(back.data, vol.data)

        fdata = rng.standard_normal((*dims, 3)).astype(np.float32).astype(np.float64)
        f = DisplacementField(fdata, spacing=spacing)
        save_field(f, tmp_path / "f.dfield")
        fback = load_field(tmp_path / "f.dfield")
        assert fback.spacing == f.spacing
        assert np.array_equal(fback.data, f.data)

        n = int(rng.integers(1, 9))
        lms = LandmarkSet(
            ids=rng.choice(1000, size=n, replace=False),
            points=rng.uniform(-50, 50, size=(n, 3)),
        )
        save_landmarks(lms, tmp_path / "l.csv")
        lback = load_landmarks(tmp_path / "l.csv")
        assert np.array_equal(lback.ids, lms.ids)
        assert np.array_equal(lback.points, lms.points)

        net_cfg = ConvNetConfig(
            levels=int(rng.integers(1, 3)),
            base_filters=int(rng.integers(1, 4)),
            use_batchnorm=bool(rng.integers(0, 2)),
        )
        params = init_convnet_parameters(net_cfg, seed=i)
        for k in params.tensors:
            snapped = rng.standard_normal(params.tensors[k].shape)
            params.tensors[k] = snapped.astype("<f4").astype(np.float64)
        save_checkpoint(tmp_path / "c.ckpt", params)
        cback = load_checkpoint(tmp_path / "c.ckpt")
        assert cback.config == net_cfg
        for k, v in params.tensors.items():
            assert np.array_equal(cback.tensors[k], v), k
    print("criterion 9: 50 round trips of all four file kinds bit-exact")


def test_criterion_10_full_size_smoke(tmp_path):
    rng = np.random.default_rng(31)
    dims = (160, 192, 160)
    for name in ("fixed", "moving"):
        save_volume(
            Volume(data=rng.standard_normal(dims, dtype=np.float32).astype(np.float64)),
            tmp_path / f"{name}.vol",
        )
    field_path = tmp_path / "out.dfield"
    runner = (
        "import resource, sys\n"
        "from defreg.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('PEAK_KB', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner,
         "register",
         "--fixed", str(tmp_path / "fixed.vol"),
         "--moving", str(tmp_path / "moving.vol"),
         "--out-field", str(field_path),
         "--levels", "3", "--iters-schedule", "10,10,0"],
        capture_output=True, text=True, timeout=540,
    )
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout.strip().splitlines()[-1].split()[-1])
    assert peak_kb < 8 * 1024 * 1024, f"peak RSS {peak_kb / 1024 / 1024:.2f} GB"
    report = json.loads((tmp_path / "out.dfield.report.json").read_text())
    assert report["dims"] == [160, 192, 160]
    assert [lv["iterations"] for lv in report["levels"]] == [10, 10, 0]
    print(f"criterion 10: peak RSS {peak_kb / 1024 / 1024:.2f} GB at 160x192x160")
