import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouprobe import (
    GroupDataSpec,
    InvalidInputError,
    InvalidSpecError,
    LabeledDataset,
    ShapeError,
    group_id,
    make_balanced_test,
    noise_dataset,
    sample_group_dataset,
)
from grouprobe.synthgen import GROUP_OF_YS, N_GROUPS, AuxDataset

CSV_HEADER = "y,s,group,x0,x1\n"
CSV_ROW = "1,1,0,0.5,0.5\n"


class TestGroupId:
    def test_mapping(self):
        assert group_id(1, 1) == 0
        assert group_id(-1, -1) == 1
        assert group_id(1, -1) == 2
        assert group_id(-1, 1) == 3

    def test_bijection(self):
        assert sorted(GROUP_OF_YS.values()) == list(range(N_GROUPS))
        assert len({(y, s) for y, s in GROUP_OF_YS}) == N_GROUPS

    @pytest.mark.parametrize("y,s", [(0, 1), (1, 0), (2, 1), (1, -2)])
    def test_rejects_out_of_alphabet(self, y, s):
        with pytest.raises(InvalidInputError):
            group_id(y, s)


class TestGroupDataSpec:
    def test_valid(self):
        spec = GroupDataSpec(2, 3, 0.5, 0.1, 100, 10)
        assert spec.d == 5
        assert spec.sigma2_noise == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"d_c": 0},
            {"d_s": 0},
            {"sigma2_core": -0.1},
            {"sigma2_spur": -1.0},
            {"sigma2_noise": -0.5},
            {"n_maj": 901},  # odd
            {"n_min": 11},  # odd
            {"n_maj": 0, "n_min": 0},
            {"n_maj": -2},
        ],
    )
    def test_invalid(self, kw):
        base = dict(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1, n_maj=900, n_min=100)
        base.update(kw)
        with pytest.raises(InvalidSpecError):
            GroupDataSpec(**base)


class TestSampling:
    def test_exact_group_counts(self):
        spec = GroupDataSpec(1, 1, 0.6, 0.1, 900, 100)
        data = sample_group_dataset(spec, 0)
        assert len(data) == 1000
        assert data.group_counts().tolist() == [450, 450, 50, 50]

    def test_balanced_counts(self):
        spec = GroupDataSpec(1, 1, 0.6, 0.1, 900, 100)
        data = make_balanced_test(spec, 250, 907)
        assert len(data) == 1000
        assert data.group_counts().tolist() == [250, 250, 250, 250]

    def test_balanced_rejects_bad_count(self):
        spec = GroupDataSpec(1, 1, 0.6, 0.1, 900, 100)
        with pytest.raises(InvalidSpecError):
            make_balanced_test(spec, 0, 907)

    def test_seeded_determinism(self):
        spec = GroupDataSpec(2, 2, 0.6, 0.1, 40, 8)
        a = sample_group_dataset(spec, [7, 10])
        b = sample_group_dataset(spec, [7, 10])
        c = sample_group_dataset(spec, [8, 10])
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_group_draws_independent_of_other_counts(self):
        # each group has its own child stream, so changing the minority count
        # must not move the majority groups' samples
        small = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 100, 4), 5)
        large = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 100, 40), 5)
        maj_small = small.features[small.group_ids < 2]
        maj_large = large.features[large.group_ids < 2]
        assert np.array_equal(maj_small, maj_large)

    def test_labels_match_groups(self):
        data = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 20, 4), 1)
        for y, s, g in zip(data.labels, data.spurious_attrs, data.group_ids):
            assert group_id(y, s) == g

    def test_feature_block_means(self):
        # core columns center on y, spurious columns on s; with 2,500 points
        # per group the empirical means must sit within 3 standard errors
        spec = GroupDataSpec(2, 2, 0.6, 0.1, 900, 100)
        data = make_balanced_test(spec, 2500, 42)
        for g in range(N_GROUPS):
            rows = data.features[data.group_ids == g]
            y = data.labels[data.group_ids == g][0]
            s = data.spurious_attrs[data.group_ids == g][0]
            se_core = np.sqrt(spec.sigma2_core / rows.shape[0])
            se_spur = np.sqrt(spec.sigma2_spur / rows.shape[0])
            assert np.all(np.abs(rows[:, :2].mean(axis=0) - y) < 3 * se_core)
            assert np.all(np.abs(rows[:, 2:].mean(axis=0) - s) < 3 * se_spur)

    @given(
        n_maj=st.integers(1, 50).map(lambda k: 2 * k),
        n_min=st.integers(1, 20).map(lambda k: 2 * k),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_property(self, n_maj, n_min, seed):
        spec = GroupDataSpec(1, 1, 0.6, 0.1, n_maj, n_min)
        counts = sample_group_dataset(spec, seed).group_counts()
        assert counts.tolist() == [n_maj // 2, n_maj // 2, n_min // 2, n_min // 2]


class TestLabeledDataset:
    def _mk(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        return LabeledDataset(X, [1, -1], [1, 1], [0, 3])

    def test_arrays_locked(self):
        data = self._mk()
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            data.labels[0] = -1

    def test_group_ids_validated(self):
        X = np.zeros((2, 2))
        with pytest.raises(InvalidInputError):
            LabeledDataset(X, [1, -1], [1, 1], [0, 0])  # (-1,1) is group 3

    def test_label_alphabet_validated(self):
        X = np.zeros((2, 2))
        with pytest.raises(InvalidInputError):
            LabeledDataset(X, [1, 0], [1, 1], [0, 0])

    def test_shape_validated(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros(4), [1], [1], [0])
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((2, 2)), [1], [1, -1], [0, 3])

    def test_take(self):
        data = self._mk()
        sub = data.take(np.array([1]))
        assert len(sub) == 1
        assert sub.labels.tolist() == [-1]
        assert np.array_equal(sub.features, data.features[1:])

    def test_take_matches_validated_constructor(self):
        data = sample_group_dataset(GroupDataSpec(2, 1, 0.6, 0.1, 20, 4), 3)
        for idx in (np.array([5, 0, 5, 23]), data.group_ids == 2, slice(3, 9)):
            sub = data.take(idx)
            ref = LabeledDataset(data.features[idx], data.labels[idx],
                                 data.spurious_attrs[idx], data.group_ids[idx])
            for name in ("features", "labels", "spurious_attrs", "group_ids"):
                got, want = getattr(sub, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
        with pytest.raises(ShapeError):
            data.take(3)

    def test_csv_round_trip(self, tmp_path):
        data = sample_group_dataset(GroupDataSpec(2, 1, 0.6, 0.1, 20, 4), 11)
        path = tmp_path / "data.csv"
        data.to_csv(path)
        back = LabeledDataset.from_csv(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.spurious_attrs, data.spurious_attrs)
        assert np.array_equal(back.group_ids, data.group_ids)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            LabeledDataset.from_csv(path)

    @pytest.mark.parametrize("body,line,what", [
        (CSV_ROW + "\n" + CSV_ROW, 3, "expected 5 cells, got 0"),         # blank line
        (CSV_ROW * 2 + "\n", 4, "expected 5 cells, got 0"),               # blank last line
        ("# note\n" + CSV_ROW, 2, "expected 5 cells, got 1"),             # comment line
        (CSV_ROW + "1,1,0,0.5\n", 3, "expected 5 cells, got 4"),          # short row
        (CSV_ROW + "1,1,0,0.5,0.5,0\n", 3, "expected 5 cells, got 6"),    # long row
        ("1.5,1,0,0.5,0.5\n", 2, "invalid literal for int() with base 10: '1.5'"),
        (CSV_ROW * 2 + "1,1,0,0.5,nope\n", 4, "could not convert string to float: 'nope'"),
        # a quoted cell spanning two lines counts as two lines
        ('1,1,0,"0.5\n",0.5\n1,1,0,0.5\n', 4, "expected 5 cells, got 4"),
        # outside int64: was an OverflowError traceback
        ("99999999999999999999,1,0,0.5,0.5\n", 2, "too large"),
    ])
    def test_csv_error_names_file_and_line(self, tmp_path, body, line, what):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + body, newline="")
        with pytest.raises(InvalidInputError) as err:
            LabeledDataset.from_csv(path)
        msg = str(err.value)
        assert msg.startswith(f"{path}, line {line}: ") and what in msg, msg

    @pytest.mark.parametrize("lines_before,line", [(0, 1), (2, 3), (600, 601)],
                             ids=["header", "row", "past-the-first-decoded-block"])
    def test_csv_not_utf8_names_file_and_line(self, tmp_path, lines_before, line):
        # the reader decodes 8 KB ahead of its rows; 600 rows are about 8.4 KB
        path = tmp_path / "data.csv"
        text = (CSV_HEADER + CSV_ROW * lines_before).splitlines(keepends=True)[:lines_before]
        path.write_bytes("".join(text).encode() + b"1,1,0,0.5,\xff\xfe\n" + CSV_ROW.encode() * 600)
        with pytest.raises(InvalidInputError) as err:
            LabeledDataset.from_csv(path)
        msg = str(err.value)
        assert msg.startswith(f"{path}, line {line}: 'utf-8' codec can't decode byte 0xff"), msg

    def test_csv_field_over_reader_limit(self, tmp_path):
        # the csv module's own limit: was a csv.Error traceback
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER + CSV_ROW + "1,1,0,0.5," + "1" * 200_000 + "\n")
        with pytest.raises(InvalidInputError, match=r"data\.csv, line 3: field larger"):
            LabeledDataset.from_csv(path)

    def test_csv_header_only_is_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = LabeledDataset.from_csv(path)
        assert data.features.shape == (0, 2) and data.labels.shape == (0,)
        assert data.features.dtype == np.float64 and data.labels.dtype == np.int64

    def test_npz_round_trip(self, tmp_path):
        data = sample_group_dataset(GroupDataSpec(1, 2, 0.6, 0.1, 12, 4), 13)
        path = tmp_path / "data.npz"
        data.to_npz(path)
        back = LabeledDataset.from_npz(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.group_ids, data.group_ids)


class TestNoiseDataset:
    def test_zero_noise_is_identity(self):
        data = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 20, 4), 2)
        aux = noise_dataset(data, 0.0, 9)
        assert np.array_equal(aux.noised, aux.targets)
        assert np.array_equal(aux.targets, data.features)

    def test_noise_moments(self):
        spec = GroupDataSpec(5, 5, 0.6, 0.1, 10000, 2000)
        data = sample_group_dataset(spec, 21)
        aux = noise_dataset(data, 1.7, 22)
        eps = aux.noised - aux.targets
        assert eps.size >= 10**5
        assert abs(eps.mean()) < 0.01
        assert abs(eps.var() - 1.7) < 0.05 * 1.7

    def test_negative_variance_rejected(self):
        data = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 4, 2), 0)
        with pytest.raises(InvalidSpecError):
            noise_dataset(data, -1.0, 0)

    def test_seeded(self):
        data = sample_group_dataset(GroupDataSpec(1, 1, 0.6, 0.1, 8, 2), 0)
        a = noise_dataset(data, 1.0, 5)
        b = noise_dataset(data, 1.0, 5)
        c = noise_dataset(data, 1.0, 6)
        assert np.array_equal(a.noised, b.noised)
        assert not np.array_equal(a.noised, c.noised)

    def test_aux_shape_validated(self):
        with pytest.raises(ShapeError):
            AuxDataset(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            AuxDataset(np.zeros(4), np.zeros(4))

    def test_aux_take(self):
        aux = AuxDataset(np.arange(6.0).reshape(3, 2), np.ones((3, 2)))
        sub = aux.take(np.array([0, 2]))
        assert len(sub) == 2
        assert np.array_equal(sub.noised, [[0.0, 1.0], [4.0, 5.0]])
