"""Landmark metric tests: transforms, error arithmetic, cohort statistics, CSV I/O."""

import csv
import json

import numpy as np
import pytest

from defreg.evaluate import (
    CaseMetrics,
    CaseRecord,
    CohortSummary,
    LandmarkSet,
    case_metrics,
    cohort_summary,
    landmark_errors,
    load_landmarks,
    save_landmarks,
    save_long_errors,
    save_metrics,
    transform_landmarks,
)
from defreg.volume import Volume
from defreg.warp import DisplacementField

# published per-case initial-error column this suite's statistics
# conventions are pinned against
INITIAL_COLUMN = [
    13.50, 14.00, 16.00, 15.00, 17.00, 17.00, 1.50, 3.50, 9.00, 4.00,
    3.00, 5.00, 2.00, 2.00, 2.00, 7.00, 10.00, 4.50, 6.00, 4.00,
]


def lms(points, ids=None):
    points = np.asarray(points, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(points))
    return LandmarkSet(ids=np.asarray(ids, dtype=np.int64), points=points)


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet(ids=np.array([1, 1]), points=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            LandmarkSet(ids=np.array([1]), points=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            LandmarkSet(ids=np.array([1]), points=np.array([[np.inf, 0, 0]]))
        with pytest.raises(ValueError):
            LandmarkSet(ids=np.array([1]), points=np.zeros((1, 2)))

    def test_immutable_arrays(self):
        s = lms([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.ids[0] = 9

    def test_len(self):
        assert len(lms([[0, 0, 0], [1, 1, 1]])) == 2


class TestTransformLandmarks:
    def test_zero_field_identity(self, rng):
        pts = rng.uniform(0, 7, size=(10, 3))
        s = lms(pts)
        out = transform_landmarks(s, DisplacementField.zeros((8, 8, 8)))
        np.testing.assert_array_equal(out.points, s.points)
        np.testing.assert_array_equal(out.ids, s.ids)
        assert not out.clamped.any()

    def test_constant_field_shifts(self, rng):
        pts = rng.uniform(0, 7, size=(6, 3))
        data = np.broadcast_to([2.0, 0.0, 0.0], (8, 8, 8, 3)).copy()
        out = transform_landmarks(lms(pts), DisplacementField(data))
        np.testing.assert_allclose(out.points, pts + [2.0, 0.0, 0.0], atol=1e-12)

    def test_linear_field_sampled_exactly(self):
        n = 12
        x = np.arange(n, dtype=np.float64)
        data = np.zeros((n, n, n, 3))
        data[..., 0] = 0.5 * x[:, None, None]
        out = transform_landmarks(lms([[4.0, 3.0, 3.0]]), DisplacementField(data))
        assert out.points[0, 0] == pytest.approx(6.0, abs=1e-12)
        assert out.points[0, 1] == pytest.approx(3.0, abs=1e-12)

    def test_outside_points_clamped_and_flagged(self):
        data = np.broadcast_to([1.0, 0.0, 0.0], (4, 4, 4, 3)).copy()
        field = DisplacementField(data)
        out = transform_landmarks(lms([[1.0, 1.0, 1.0], [9.0, 1.0, 1.0]]), field)
        assert out.clamped.tolist() == [False, True]
        # clamped point still gets the border displacement
        np.testing.assert_allclose(out.points[1], [10.0, 1.0, 1.0], atol=1e-12)

    def test_respects_spacing(self):
        data = np.zeros((4, 4, 4, 3))
        data[2, 0, 0, 0] = 3.0
        field = DisplacementField(data, spacing=(2.0, 2.0, 2.0))
        # world (4,0,0) is voxel (2,0,0) on the 2 mm grid
        out = transform_landmarks(lms([[4.0, 0.0, 0.0]]), field)
        np.testing.assert_allclose(out.points[0], [7.0, 0.0, 0.0], atol=1e-12)

    def test_respects_origin(self):
        # field origin (10, 0, 0) and ux = 1 at index 1: world x = 11 is
        # index 1, so the landmark moves to 12
        data = np.zeros((3, 2, 2, 3))
        data[1, ..., 0] = 1.0
        field = DisplacementField(data, origin=(10.0, 0.0, 0.0))
        out = transform_landmarks(lms([[11.0, 0.0, 0.0]]), field)
        np.testing.assert_allclose(out.points[0], [12.0, 0.0, 0.0], atol=1e-12)
        assert not out.clamped.any()

    def test_origin_and_anisotropic_spacing_against_oracle(self, rng):
        spacing, origin = (1.5, 0.75, 2.0), (-7.0, 3.5, 12.0)
        field = DisplacementField(rng.uniform(-2.0, 2.0, (6, 5, 4, 3)), spacing, origin)
        idx = rng.uniform(-1.0, 6.0, size=(25, 3))
        pts = idx * spacing + np.asarray(origin)
        out = transform_landmarks(lms(pts), field)
        for p, (x, y, z), got, clamped in zip(pts, idx, out.points, out.clamped):
            # brute force: blend the 8 corners of the clamped cell
            disp = np.zeros(3)
            t = [min(max(c, 0.0), n - 1.0) for c, n in zip((x, y, z), field.dims)]
            base = [min(int(np.floor(c)), n - 2) for c, n in zip(t, field.dims)]
            for corner in np.ndindex(2, 2, 2):
                w = 1.0
                for a in range(3):
                    f = t[a] - base[a]
                    w *= f if corner[a] else 1.0 - f
                disp += w * field.data[base[0] + corner[0], base[1] + corner[1], base[2] + corner[2]]
            np.testing.assert_allclose(got, p + disp, atol=1e-12)
            assert clamped == any(c < 0.0 or c > n - 1.0 for c, n in zip((x, y, z), field.dims))


class TestLandmarkErrors:
    def test_identical_sets_zero(self, rng):
        s = lms(rng.uniform(0, 5, size=(7, 3)))
        np.testing.assert_array_equal(landmark_errors(s, s), np.zeros(7))

    def test_three_four_five(self):
        a = lms([[0.0, 0.0, 0.0]])
        b = lms([[3.0, 4.0, 0.0]])
        np.testing.assert_allclose(landmark_errors(a, b), [5.0], atol=1e-12)

    def test_mean_of_distances(self):
        a = lms([[0, 0, 0], [0, 0, 0]], ids=[1, 2])
        b = lms([[3, 0, 0], [0, 4, 0]], ids=[1, 2])
        errs = landmark_errors(a, b)
        np.testing.assert_allclose(errs, [3.0, 4.0], atol=1e-12)
        assert float(np.mean(errs)) == pytest.approx(3.5)

    def test_orders_by_id_not_position(self):
        a = lms([[1, 0, 0], [0, 0, 0]], ids=[5, 2])
        b = lms([[0, 0, 0], [3, 0, 0]], ids=[2, 5])
        # id 2: both at origin -> 0; id 5: (1,0,0) vs (3,0,0) -> 2
        np.testing.assert_allclose(landmark_errors(a, b), [0.0, 2.0], atol=1e-12)

    def test_symmetry(self, rng):
        a = lms(rng.uniform(0, 5, size=(6, 3)))
        b = lms(rng.uniform(0, 5, size=(6, 3)))
        np.testing.assert_allclose(landmark_errors(a, b), landmark_errors(b, a), atol=1e-12)

    def test_rigid_translation_invariance(self, rng):
        a = lms(rng.uniform(0, 5, size=(6, 3)))
        b = lms(rng.uniform(0, 5, size=(6, 3)))
        t = np.array([1.5, -2.0, 0.25])
        at = lms(a.points + t)
        bt = lms(b.points + t)
        np.testing.assert_allclose(landmark_errors(at, bt), landmark_errors(a, b), atol=1e-12)

    def test_id_mismatch_rejected(self):
        a = lms([[0, 0, 0]], ids=[1])
        b = lms([[0, 0, 0]], ids=[2])
        with pytest.raises(ValueError):
            landmark_errors(a, b)


class TestCaseMetrics:
    def test_robustness_half(self):
        m = case_metrics([4, 6, 3, 5], [5, 5, 5, 5])
        assert m.robustness == 0.5

    def test_median_mean_mtre(self):
        m = case_metrics([1, 2, 9], [9, 9, 9])
        assert m.mae_median == 2.0
        assert m.mae_mean == 4.0  # mTRE: the mean landmark distance
        assert m.errors == (1.0, 2.0, 9.0)

    def test_ties_do_not_improve(self):
        m = case_metrics([5, 5, 5], [5, 5, 5])
        assert m.robustness == 0.0

    def test_all_improved_is_one(self, rng):
        before = rng.uniform(1, 5, size=8)
        m = case_metrics(before - 0.25, before)
        assert m.robustness == 1.0

    def test_folding_from_jacobian_map(self):
        data = np.ones((2, 2, 2))
        data[0, 0, 0] = -1.0
        m = case_metrics([1.0], [2.0], jmap=Volume(data=data))
        assert m.folding_fraction == pytest.approx(1.0 / 8.0)

    def test_no_jmap_leaves_none(self):
        assert case_metrics([1.0], [2.0]).folding_fraction is None

    def test_permutation_invariance(self, rng):
        after = rng.uniform(0, 9, size=11)
        before = rng.uniform(0, 9, size=11)
        perm = rng.permutation(11)
        a = case_metrics(after, before)
        b = case_metrics(after[perm], before[perm])
        assert a.mae_median == b.mae_median
        assert a.mae_mean == pytest.approx(b.mae_mean, abs=1e-12)
        assert a.robustness == b.robustness

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            case_metrics([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            case_metrics([], [])


class TestCohortSummary:
    def test_published_initial_column(self):
        s = cohort_summary(INITIAL_COLUMN)
        assert abs(s.mean - 7.80) <= 0.005
        assert abs(s.median - 5.50) <= 0.005
        assert abs(s.q25 - 3.38) <= 0.005 + 1e-12
        assert abs(s.q75 - 13.63) <= 0.005 + 1e-12
        # sample (n-1) convention: 5.6158 rounds to the printed 5.62;
        # the population value 5.4736 would not
        assert abs(s.stddev - 5.62) <= 0.01

    def test_single_value_degenerate(self):
        s = cohort_summary([7.0])
        assert (s.mean, s.median, s.q25, s.q75, s.stddev) == (7.0, 7.0, 7.0, 7.0, 0.0)

    def test_interpolated_quartiles(self):
        s = cohort_summary([1.0, 2.0, 3.0, 4.0])
        assert s.median == 2.5
        assert s.q25 == 1.75
        assert s.q75 == 3.25

    def test_order_statistics_ordered(self, rng):
        for _ in range(5):
            s = cohort_summary(rng.uniform(-4, 9, size=int(rng.integers(1, 30))))
            assert s.q25 <= s.median <= s.q75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cohort_summary([])


class TestLandmarkCsv:
    def test_single_origin_row(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("id,x,y,z\n1,0,0,0\n")
        s = load_landmarks(p)
        assert len(s) == 1
        assert s.ids[0] == 1
        np.testing.assert_array_equal(s.points, [[0.0, 0.0, 0.0]])

    def test_round_trip_random_set(self, rng, tmp_path):
        s = lms(rng.uniform(-5, 20, size=(10, 3)), ids=rng.permutation(10))
        p = tmp_path / "l.csv"
        save_landmarks(s, p)
        back = load_landmarks(p)
        np.testing.assert_array_equal(back.ids, s.ids)
        np.testing.assert_array_equal(back.points, s.points)

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("id,x,y,z\n1,0,0,0\n1,1,1,1\n")
        with pytest.raises(ValueError):
            load_landmarks(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("id,x,y,z\n1,0,0\n")
        with pytest.raises(ValueError):
            load_landmarks(p)
        p.write_text("id,x,y,z\n1,a,0,0\n")
        with pytest.raises(ValueError):
            load_landmarks(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("id,y,x,z\n1,0,0,0\n")
        with pytest.raises(ValueError):
            load_landmarks(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_landmarks(p)
        p.write_text("id,x,y,z\n")
        with pytest.raises(ValueError):
            load_landmarks(p)


class TestMetricsOutput:
    def make_record(self, name="case1"):
        m = case_metrics([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], jmap=Volume(data=np.ones((2, 2, 2))))
        return CaseRecord(case=name, initial_mae_median=5.0, metrics=m)

    def test_csv_columns_and_values(self, tmp_path):
        p = tmp_path / "metrics.csv"
        save_metrics([self.make_record()], p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "case,initial_mae_median,method_mae_median,robustness,mtre,folding_fraction"
        parts = lines[1].split(",")
        assert parts[0] == "case1"
        assert float(parts[1]) == 5.0
        assert float(parts[2]) == 2.0
        assert float(parts[3]) == 1.0
        assert float(parts[4]) == 2.0
        assert float(parts[5]) == 0.0

    def test_json_detail(self, tmp_path):
        pc = tmp_path / "metrics.csv"
        pj = tmp_path / "metrics.json"
        save_metrics([self.make_record("a"), self.make_record("b")], pc, pj)
        detail = json.loads(pj.read_text())
        assert [d["case"] for d in detail] == ["a", "b"]
        assert detail[0]["errors"] == [1.0, 2.0, 3.0]
        assert detail[0]["robustness"] == 1.0
        assert detail[0]["mtre"] == detail[0]["mae_mean"] == 2.0

    def test_missing_folding_leaves_empty_cell(self, tmp_path):
        m = case_metrics([1.0], [2.0])
        rec = CaseRecord(case="x", initial_mae_median=2.0, metrics=m)
        p = tmp_path / "metrics.csv"
        save_metrics([rec], p)
        assert p.read_text().strip().split("\n")[1].endswith(",")

    def test_long_format_errors(self, tmp_path):
        p = tmp_path / "long.csv"
        save_long_errors(
            [("c1", "initial", 3.0), ("c1", "method", 1.5)], p
        )
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "case,method,error"
        assert lines[1] == "c1,initial,3.0"
        assert lines[2] == "c1,method,1.5"

    @pytest.mark.parametrize("label", ['a,b', 'say "hi"', "x\ny"])
    def test_label_with_a_delimiter_round_trips(self, tmp_path, label):
        # a --case label is written as one quoted cell, so each row reads
        # back with as many fields as its header
        p = tmp_path / "metrics.csv"
        save_metrics([self.make_record(label)], p)
        with open(p, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header) == 6 and row[0] == label
        p = tmp_path / "long.csv"
        save_long_errors([(label, "method", 1.5)], p)
        with open(p, newline="") as fh:
            assert list(csv.reader(fh)) == [["case", "method", "error"], [label, "method", "1.5"]]

    def test_numpy_scalars_do_not_leak(self, tmp_path):
        m = case_metrics(np.array([1.0]), np.array([2.0]))
        rec = CaseRecord(case="x", initial_mae_median=np.float64(2.0), metrics=m)
        p = tmp_path / "metrics.csv"
        save_metrics([rec], p)
        assert "np.float64" not in p.read_text()
