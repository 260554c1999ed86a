"""The column-wise dataset CSV and Pareto code against row-by-row references.

The `_reference_*` functions are the row-by-row implementations the
column-wise code replaced, kept here as oracles (the Pareto ones over plain
lists instead of point objects): files written must
be byte-identical, arrays read bit-identical, errors the same, and the Pareto
front the same point indices in the same order.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprobe import InvalidInputError, LabeledDataset
from grouprobe.evalsel import PARETO_CSV_COLUMNS, front_indices, read_pareto_csv
from grouprobe.synthgen import GROUP_OF_YS

SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]


def _reference_to_csv(data, path):
    header = ["y", "s", "group"] + [f"x{i}" for i in range(data.d)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(len(data)):
            row = [int(data.labels[i]), int(data.spurious_attrs[i]), int(data.group_ids[i])]
            row += [repr(float(v)) for v in data.features[i]]
            w.writerow(row)


def _reference_from_csv(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or header[:3] != ["y", "s", "group"] or any(
            h != f"x{i}" for i, h in enumerate(header[3:])
        ):
            raise InvalidInputError(f"{path}: unrecognized dataset CSV header: {header!r}")
        ys, ss, gs, xs = [], [], [], []
        for row in r:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(row)}")
                ys.append(int(row[0]))
                ss.append(int(row[1]))
                gs.append(int(row[2]))
                xs.append([float(v) for v in row[3:]])
            except ValueError as e:
                raise InvalidInputError(f"{path}, line {r.line_num}: {e}") from None
    return LabeledDataset(np.array(xs, dtype=np.float64).reshape(len(ys), len(header) - 3),
                          np.array(ys), np.array(ss), np.array(gs))


def _reference_read_pareto_csv(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != PARETO_CSV_COLUMNS:
            raise InvalidInputError(f"{path}: unrecognized Pareto CSV header: {header!r}")
        out = []
        for row in r:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(row)}")
                avg, wg = float(row[0]), float(row[1])
                for name, v in (("avg_acc", avg), ("wg_acc", wg)):
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(f"{name} must be in [0, 1], got {v}")
            except ValueError as e:
                raise InvalidInputError(f"{path}, line {r.line_num}: {e}") from None
            out.append((avg, wg, dict(zip(PARETO_CSV_COLUMNS[2:], row[2:]))))
    return out


def _reference_front_indices(avg, wg):
    order = sorted(range(len(avg)), key=lambda i: -avg[i])
    front = []
    best_wg = -np.inf
    i = 0
    n = len(order)
    while i < n:
        j = i
        a = avg[order[i]]
        while j < n and avg[order[j]] == a:
            j += 1
        bucket = [order[k] for k in range(i, j)]
        bucket_max = max(wg[k] for k in bucket)
        if bucket_max > best_wg:
            front.extend(k for k in bucket if wg[k] == bucket_max)
            best_wg = bucket_max
        i = j
    return front


def _dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    mask = rng.random((n, d)) < 0.3
    features[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    k = min(n, len(SPECIAL))
    features[:k, 0] = SPECIAL[:k]
    features[n - k:, -1] = SPECIAL[:k]
    y = rng.choice((-1, 1), size=n)
    s = rng.choice((-1, 1), size=n)
    g = np.array([GROUP_OF_YS[(int(a), int(b))] for a, b in zip(y, s)], dtype=np.int64)
    return LabeledDataset(features, y, s, g)


def _same_arrays(got, want):
    for name in ("features", "labels", "spurious_attrs", "group_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


# chunk edges of the writer and reader (4096 rows)
@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_to_csv_bytes_and_from_csv_bits_match_reference(n, d, tmp_path):
    data = _dataset(n, d, seed=n * 10 + d)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    data.to_csv(got)
    _reference_to_csv(data, want)
    assert got.read_bytes() == want.read_bytes()
    _same_arrays(LabeledDataset.from_csv(got), _reference_from_csv(want))


def test_special_values_round_trip(tmp_path):
    n = len(SPECIAL)
    data = LabeledDataset(np.array(SPECIAL).reshape(n, 1), np.ones(n), np.ones(n), np.zeros(n))
    path = tmp_path / "d.csv"
    data.to_csv(path)
    assert path.read_bytes() == b"y,s,group,x0\r\n" + b"".join(
        b"1,1,0," + repr(v).encode() + b"\r\n" for v in SPECIAL)
    back = LabeledDataset.from_csv(path)
    assert np.array_equal(back.features.view(np.int64), data.features.view(np.int64))


# Cells that Python int()/float() accept in unusual spellings, quoted cells,
# and a quoted cell spanning two lines.
ODD_VALID = (
    "y,s,group,x0,x1\r\n"
    " 1 ,+1,0,1_0.5,-nan\n"
    '"-1","-1","1","Infinity","-0.0"\n'
    "1,-1,2,\"0.25\n\",1e-400\n"
    "-1,1,3,٣.5,1e400\r\n"
    "1,1,0,0.5,5e-324\n"
)


def test_odd_but_valid_cells_match_reference(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text(ODD_VALID, newline="")
    _same_arrays(LabeledDataset.from_csv(path), _reference_from_csv(path))


BAD_ROWS = [
    "1,1,0,0.5,nope\n",          # non-numeric feature
    "1.5,1,0,0.5,0.5\n",         # non-integer label
    "1,1,0,0.5\n",               # short row
    "1,1,0,0.5,0.5,0.5\n",       # long row
    "\n",                        # blank line
    "# comment\n",               # comment line
    "1,1,0,0.\u00005,0.5\n",     # NUL inside a cell
    "1,x,0,0.5,nope\n",          # two bad cells: the first in the row wins
]


@pytest.mark.parametrize("bad", BAD_ROWS)
@pytest.mark.parametrize("at", [0, 3, 4095, 4096, 5000])
def test_errors_match_reference(bad, at, tmp_path):
    good = ["1,1,0,0.5,0.5\n"] * 5001
    # a quoted cell spanning two lines before the bad row shifts the line count
    good[1] = '-1,-1,1,"0.5\n",0.5\n'
    lines = good[:at] + [bad] + good[at:] + ["1,1,0,0.5\n"]  # a later short row
    path = tmp_path / "bad.csv"
    path.write_text("y,s,group,x0,x1\n" + "".join(lines), newline="")
    with pytest.raises(InvalidInputError) as want:
        _reference_from_csv(path)
    with pytest.raises(InvalidInputError) as got:
        LabeledDataset.from_csv(path)
    assert str(got.value) == str(want.value)


def _pareto_file(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PARETO_CSV_COLUMNS)
        w.writerows(rows)


def test_read_pareto_csv_matches_reference(tmp_path):
    rng = np.random.default_rng(3)
    rows = [[repr(float(a)), repr(float(w)), "reg_mtl", "0.5", repr(float(a) / 7), "", "0.01", "64"]
            for a, w in rng.random((9000, 2))]
    rows[17][5] = "quoted, with comma"
    path = tmp_path / "p.csv"
    _pareto_file(path, rows)
    avg, wg, tags = read_pareto_csv(path)
    got = [(a, w, dict(zip(PARETO_CSV_COLUMNS[2:], t))) for a, w, t in zip(avg.tolist(), wg.tolist(), tags)]
    assert got == _reference_read_pareto_csv(path)


PARETO_ROW = ["0.5", "0.5", "erm", "", "", "", "", ""]


@pytest.mark.parametrize("bad", [["0.5", "high"] + PARETO_ROW[2:], ["0.5"], PARETO_ROW + ["x"],
                                 ["1.5", "nan"] + PARETO_ROW[2:], ["0.5", "-0.25"] + PARETO_ROW[2:],
                                 ["nan", "0.5"] + PARETO_ROW[2:]],
                         ids=["non-numeric", "short", "long", "avg-above-1", "wg-below-0", "nan"])
@pytest.mark.parametrize("at", [0, 4096, 5000])
def test_pareto_errors_match_reference(bad, at, tmp_path):
    rows = [PARETO_ROW] * at + [bad] + [PARETO_ROW] * 3
    path = tmp_path / "p.csv"
    _pareto_file(path, rows)
    with pytest.raises(InvalidInputError) as want:
        _reference_read_pareto_csv(path)
    with pytest.raises(InvalidInputError) as got:
        read_pareto_csv(path)
    assert str(got.value) == str(want.value)


# coarse grids make equal-avg buckets, equal wg inside them and exact
# duplicates common; 0.0 and -0.0 are equal but distinct floats
_coord = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0])


@given(st.lists(st.tuples(_coord, _coord), max_size=60))
@settings(max_examples=300, deadline=None)
def test_pareto_front_same_objects_same_order(coords):
    avg, wg = np.array(coords, dtype=np.float64).reshape(-1, 2).T
    got = front_indices(avg, wg)
    want = _reference_front_indices(avg.tolist(), wg.tolist())
    assert got.tolist() == want


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_pareto_front_one_avg_bucket(wgs, dup):
    # every point shares one avg_acc, and copies of the first point repeat
    wgs = [w / 3 for w in wgs]
    wgs += [wgs[0]] * dup
    avg = [0.5] * len(wgs)
    assert front_indices(np.array(avg), np.array(wgs)).tolist() == _reference_front_indices(avg, wgs)
