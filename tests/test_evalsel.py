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
    evaluate,
    spur_core_log_ratio,
)
from grouprobe.errors import ShapeError
from grouprobe.evalsel import (
    PARETO_CSV_COLUMNS,
    front_indices,
    read_pareto_csv,
    write_front_gnuplot,
    write_pareto_csv,
)
from grouprobe.linmodel import classify
from grouprobe.synthgen import N_GROUPS, YS_OF_GROUP


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

    def test_feature_width_checked(self, tiny_task):
        # a 1-feature model would otherwise broadcast over 2-feature rows
        assert tiny_task.test.d == 2
        for w in ([1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ShapeError, match=f"the model has d = {len(w)}, the data d = 2"):
                evaluate(_plain_params(w), tiny_task.test)

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


def _reference_group_acc(params, data):
    # the per-group loop that evaluate's weighted bincount replaced
    correct = (classify(params, data.features) == data.labels).astype(np.float64)
    sizes = np.bincount(data.group_ids, minlength=N_GROUPS)
    per_group = np.full(N_GROUPS, np.nan)
    for g in range(N_GROUPS):
        if sizes[g] > 0:
            per_group[g] = correct[data.group_ids == g].mean()
    return per_group


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3000), present=st.sets(st.integers(0, 3), min_size=1),
       seed=st.integers(0, 2**32 - 1))
def test_group_acc_matches_per_group_loop(n, present, seed):
    """Bit for bit, NaN placement and sign bits included, over any group mix."""
    rng = np.random.default_rng(seed)
    groups = sorted(present)
    g = rng.choice(groups, size=n, p=rng.dirichlet(np.ones(len(groups))))
    y, s = np.array([YS_OF_GROUP[v] for v in g]).reshape(n, 2).T
    data = LabeledDataset(rng.normal(size=(n, 2)), y, s, g)
    params = _plain_params(rng.normal(size=2))
    got, want = evaluate(params, data).per_group_acc, _reference_group_acc(params, data)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def dominated(avg, wg):
    """Each point's dominance flag by O(n^2) pairwise comparison."""
    ge_avg = avg[:, None] <= avg[None, :]
    ge_wg = wg[:, None] <= wg[None, :]
    strict = (avg[:, None] < avg[None, :]) | (wg[:, None] < wg[None, :])
    return (ge_avg & ge_wg & strict).any(axis=1)


def _front(pts):
    avg, wg = np.array(pts, dtype=np.float64).reshape(-1, 2).T
    return front_indices(avg, wg).tolist()


class TestParetoFront:
    def test_named_example(self):
        a = (0.9, 0.3)
        b = (0.8, 0.5)
        c = (0.85, 0.2)   # dominated by a
        d = (0.8, 0.5)    # duplicate of b, kept
        front = _front([a, b, c, d])
        assert front == [0, 1, 3]

    def test_staircase_all_survive(self):
        pts = [(0.9, 0.5), (0.8, 0.6), (0.85, 0.55)]
        assert _front(pts) == [0, 2, 1]

    def test_strictly_worse_excluded(self):
        keep = (0.85, 0.55)
        drop = (0.7, 0.4)
        assert _front([keep, drop]) == [0]

    def test_single_point(self):
        assert _front([(0.5, 0.5)]) == [0]
        assert _front([]) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            # quantized grid makes exact ties and duplicates common
            avg = rng.integers(0, 11, size=n) / 10
            wg = rng.integers(0, 11, size=n) / 10
            front = front_indices(avg, wg)
            expected = np.flatnonzero(~dominated(avg, wg))
            assert sorted(zip(avg[front], wg[front])) == sorted(
                zip(avg[expected], wg[expected]))

    def test_sorted_by_avg_desc(self):
        rng = np.random.default_rng(5)
        avg, wg = rng.random((2, 60))
        front = front_indices(avg, wg)
        avgs = avg[front].tolist()
        assert avgs == sorted(avgs, reverse=True)
        wgs = wg[front].tolist()
        assert wgs == sorted(wgs)  # the front is a staircase

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        avg, wg = rng.random((2, 30))
        front = front_indices(avg, wg)
        assert front[front_indices(avg[front], wg[front])].tolist() == front.tolist()

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_front_property(self, coords):
        avg, wg = np.array(coords, dtype=np.float64).reshape(-1, 2).T / 8
        front = front_indices(avg, wg)
        # every front member is non-dominated in the input
        assert not dominated(avg, wg)[front].any()
        # every input point is covered by some front member on both axes
        for a, w in zip(avg, wg):
            assert ((avg[front] >= a) & (wg[front] >= w)).any()


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

    def test_csv_range_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "full.csv"
        for row, message in [("1.5,0.5", "avg_acc must be in [0, 1], got 1.5"),
                             ("0.5,-0.1", "wg_acc must be in [0, 1], got -0.1"),
                             ("nan,0.5", "avg_acc must be in [0, 1], got nan")]:
            path.write_text(",".join(PARETO_CSV_COLUMNS) + "\n0.9,0.3,erm,,,,,\n"
                            + row + ",erm,,,,,\n")
            with pytest.raises(InvalidInputError) as exc:
                read_pareto_csv(path)
            assert str(exc.value) == f"{path}, line 3: {message}"

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
