import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprobe import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    ModelParams,
    ParetoPoint,
    evaluate,
    pareto_front,
    spur_core_log_ratio,
)
from grouprobe.errors import ShapeError
from grouprobe.evalsel import (
    PARETO_CSV_COLUMNS,
    dominates,
    read_pareto_csv,
    write_front_gnuplot,
    write_pareto_csv,
)


def _plain_params(w):
    w = np.asarray(w, dtype=np.float64)
    d = len(w)
    return ModelParams(a=np.ones(d), w_end=w, W_aux=np.eye(d),
                       tau=None, fro_radius=None)


class TestEvaluate:
    def test_hand_case(self):
        # w = [1, 0]: prediction is sign(x0), so groups with y agreeing with
        # the core coordinate score 1
        y = np.array([1, 1, -1, -1, 1, -1])
        s = np.array([1, 1, -1, -1, -1, 1])
        g = np.array([0, 0, 1, 1, 2, 3])
        X = np.column_stack([[2.0, -1.0, -3.0, -0.5, 4.0, 1.0], np.zeros(6)])
        data = LabeledDataset(X, y, s, g)
        m = evaluate(_plain_params([1.0, 0.0]), data)
        assert m.per_group_acc[0] == 0.5
        assert m.per_group_acc[1] == 1.0
        assert m.per_group_acc[2] == 1.0
        assert m.per_group_acc[3] == 0.0
        assert m.avg_acc == pytest.approx(4 / 6)
        assert m.wg_acc == 0.0
        assert m.all_groups_present
        assert m.group_sizes.tolist() == [2, 2, 1, 1]

    def test_weighted_mean_hand_case(self):
        # groups 0,1 all correct (450 each), groups 2,3 all wrong (50 each):
        # avg is the size-weighted mean 900/1000, wg is 0
        sizes = [450, 450, 50, 50]
        ys = [1, -1, 1, -1]
        ss = [1, -1, -1, 1]
        # sign(x) is the prediction; pick x = y for correct, x = -y for wrong
        xs = [1.0, -1.0, -1.0, 1.0]
        y = np.repeat(ys, sizes)
        s = np.repeat(ss, sizes)
        g = np.repeat([0, 1, 2, 3], sizes)
        X = np.repeat(xs, sizes)[:, None]
        m = evaluate(_plain_params([1.0]), LabeledDataset(X, y, s, g))
        assert m.per_group_acc.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert m.avg_acc == pytest.approx(0.9, abs=1e-12)
        assert m.wg_acc == 0.0

    def test_missing_group_is_nan(self):
        y = np.array([1, -1])
        s = np.array([1, -1])
        data = LabeledDataset(np.array([[1.0], [-1.0]]), y, s, [0, 1])
        m = evaluate(_plain_params([1.0]), data)
        assert np.isnan(m.per_group_acc[2]) and np.isnan(m.per_group_acc[3])
        assert not m.all_groups_present
        assert m.wg_acc == 1.0  # min over the present groups only

    def test_empty_rejected(self, tiny_task):
        empty = tiny_task.test.take(np.array([], dtype=np.int64))
        with pytest.raises(InvalidInputError):
            evaluate(_plain_params([1.0, 1.0]), empty)

    def test_wg_below_avg_below_max(self, tiny_task):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = evaluate(_plain_params(rng.normal(size=2)), tiny_task.test)
            present = m.per_group_acc[~np.isnan(m.per_group_acc)]
            assert m.wg_acc <= m.avg_acc + 1e-12
            assert m.avg_acc <= present.max() + 1e-12

    def test_json_dict_nan_becomes_none(self):
        data = LabeledDataset(np.array([[1.0]]), [1], [1], [0])
        d = evaluate(_plain_params([1.0]), data).to_json_dict()
        assert d["per_group_acc"][0] == 1.0
        assert d["per_group_acc"][1] is None


class TestLogRatio:
    def test_hand_values(self):
        assert spur_core_log_ratio(np.array([1.0, 2.0]), 1, 1) == pytest.approx(math.log(2))
        assert spur_core_log_ratio(np.array([-1.0, 2.0]), 1, 1) == pytest.approx(math.log(2))
        assert spur_core_log_ratio(np.array([2.0, 2.0]), 1, 1) == 0.0
        assert spur_core_log_ratio(np.array([1.0, 1.0, 4.0]), 2, 1) == pytest.approx(math.log(2))
        # core-dominant allocation: ln(0.01/0.09) = -ln 9
        assert spur_core_log_ratio(np.array([0.09, 0.01]), 1, 1) == pytest.approx(
            -math.log(9), abs=1e-12)

    def test_zero_spur_is_neg_inf(self):
        assert spur_core_log_ratio(np.array([3.0, 0.0]), 1, 1) == float("-inf")

    def test_zero_core_raises(self):
        with pytest.raises(DegenerateInputError):
            spur_core_log_ratio(np.array([0.0, 1.0]), 1, 1)

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            spur_core_log_ratio(np.array([1.0, 1.0, 1.0]), 1, 1)
        with pytest.raises(InvalidInputError):
            spur_core_log_ratio(np.array([1.0]), 1, 0)


def brute_force_front(points):
    return [p for p in points
            if not any(dominates(q, p) for q in points)]


class TestParetoFront:
    def test_named_example(self):
        a = ParetoPoint(0.9, 0.3)
        b = ParetoPoint(0.8, 0.5)
        c = ParetoPoint(0.85, 0.2)   # dominated by a
        d = ParetoPoint(0.8, 0.5)    # duplicate of b, kept
        front = pareto_front([a, b, c, d])
        assert front == [a, b, d]

    def test_staircase_all_survive(self):
        pts = [ParetoPoint(0.9, 0.5), ParetoPoint(0.8, 0.6), ParetoPoint(0.85, 0.55)]
        assert pareto_front(pts) == [pts[0], pts[2], pts[1]]

    def test_strictly_worse_excluded(self):
        keep = ParetoPoint(0.85, 0.55)
        drop = ParetoPoint(0.7, 0.4)
        assert pareto_front([keep, drop]) == [keep]

    def test_single_point(self):
        p = ParetoPoint(0.5, 0.5)
        assert pareto_front([p]) == [p]
        assert pareto_front([]) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            # quantized grid makes exact ties and duplicates common
            pts = [ParetoPoint(float(rng.integers(0, 11)) / 10,
                               float(rng.integers(0, 11)) / 10,
                               tag={"method": "erm"})
                   for _ in range(n)]
            front = pareto_front(pts)
            expected = brute_force_front(pts)
            assert sorted((p.avg_acc, p.wg_acc) for p in front) == sorted(
                (p.avg_acc, p.wg_acc) for p in expected)

    def test_sorted_by_avg_desc(self):
        rng = np.random.default_rng(5)
        pts = [ParetoPoint(float(a), float(w)) for a, w in rng.random((60, 2))]
        front = pareto_front(pts)
        avgs = [p.avg_acc for p in front]
        assert avgs == sorted(avgs, reverse=True)
        wgs = [p.wg_acc for p in front]
        assert wgs == sorted(wgs)  # the front is a staircase

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        pts = [ParetoPoint(float(a), float(w)) for a, w in rng.random((30, 2))]
        front = pareto_front(pts)
        assert pareto_front(front) == front

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_front_property(self, coords):
        pts = [ParetoPoint(a / 8, w / 8) for a, w in coords]
        front = pareto_front(pts)
        # every front member is non-dominated in the input
        for p in front:
            assert not any(dominates(q, p) for q in pts)
        # every input point is covered by some front member on both axes
        for q in pts:
            assert any(p.avg_acc >= q.avg_acc and p.wg_acc >= q.wg_acc for p in front)

    def test_point_validation(self):
        with pytest.raises(InvalidInputError):
            ParetoPoint(1.2, 0.5)
        with pytest.raises(InvalidInputError):
            ParetoPoint(0.5, -0.1)


class TestParetoSerialization:
    def _columns(self):
        avg, wg = np.array([0.9, 0.8]), np.array([0.3, 0.5])
        tags = [["reg_mtl", "10.0", "0.0", "0.1", "0.001", "64"], ["erm", "", "", "", "", ""]]
        return avg, wg, tags

    def test_csv_round_trip(self, tmp_path):
        avg, wg, tags = self._columns()
        path = tmp_path / "front.csv"
        write_pareto_csv(avg, wg, tags, range(2), path)
        got_avg, got_wg, got_tags = read_pareto_csv(path)
        assert got_avg.tolist() == avg.tolist() and got_wg.tolist() == wg.tolist()
        assert got_tags == tags
        assert got_tags[0][0] == "reg_mtl"
        assert float(got_tags[0][1]) == 10.0
        header = path.read_text().splitlines()[0]
        assert header == ",".join(PARETO_CSV_COLUMNS)

    def test_csv_header_guard(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(InvalidInputError):
            read_pareto_csv(path)

    def test_gnuplot_format(self, tmp_path):
        avg, wg, _ = self._columns()
        path = tmp_path / "front.dat"
        write_front_gnuplot(avg, wg, range(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# avg_acc wg_acc"
        assert lines[1] == "0.9 0.3"
        assert lines[2] == "0.8 0.5"
