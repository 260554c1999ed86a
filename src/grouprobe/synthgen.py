"""Synthetic two-block Gaussian data with a majority/minority group structure.

Every example carries a label y in {-1,+1} and a spurious attribute s in
{-1,+1}.  The first d_c feature columns ("core") are drawn i.i.d. from
N(y, sigma2_core); the remaining d_s columns ("spurious") from
N(s, sigma2_spur).  Majority groups have s == y, minority groups s == -y,
so s predicts y on most of the training distribution but not off it.
"""

from __future__ import annotations

import csv
import itertools
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, ShapeError

# Group numbering: majority groups first, positive label first within each pair.
GROUP_OF_YS = {(1, 1): 0, (-1, -1): 1, (1, -1): 2, (-1, 1): 3}
YS_OF_GROUP = {g: ys for ys, g in GROUP_OF_YS.items()}
N_GROUPS = 4

# Array names in a dataset .npz archive, in constructor order.
_NPZ_ARRAYS = ("features", "labels", "spurious_attrs", "group_ids")

# Rows of CSV text built and written, or read and converted, at a time.
_CSV_CHUNK_ROWS = 4096

# The same mapping as a 2x2 table indexed by ((y + 1) // 2, (s + 1) // 2):
# rows y = -1, +1; columns s = -1, +1.
_GROUP_TABLE = np.array([[GROUP_OF_YS[(y, s)] for s in (-1, 1)] for y in (-1, 1)], dtype=np.int64)


def group_id(y: int, s: int) -> int:
    """Map a (label, spurious attribute) pair to its group index."""
    try:
        return GROUP_OF_YS[(int(y), int(s))]
    except KeyError:
        raise InvalidInputError(f"y and s must be in {{-1,+1}}, got ({y}, {s})") from None


@dataclass(frozen=True)
class GroupDataSpec:
    """Sampling parameters for one synthetic dataset.

    n_maj is the total count over both majority groups (split evenly between
    them), n_min likewise for the minority groups; both must be even.
    """

    d_c: int
    d_s: int
    sigma2_core: float
    sigma2_spur: float
    n_maj: int
    n_min: int
    sigma2_noise: float = 0.0

    def __post_init__(self):
        if self.d_c < 1 or self.d_s < 1:
            raise InvalidSpecError("d_c and d_s must each be >= 1")
        for name in ("sigma2_core", "sigma2_spur", "sigma2_noise"):
            if getattr(self, name) < 0:
                raise InvalidSpecError(f"{name} must be >= 0")
        if self.n_maj < 0 or self.n_min < 0:
            raise InvalidSpecError("n_maj and n_min must be >= 0")
        if self.n_maj % 2 or self.n_min % 2:
            raise InvalidSpecError("n_maj and n_min must be even (split across two groups)")
        if self.n_maj + self.n_min < 1:
            raise InvalidSpecError("need at least one sample in total")

    @property
    def d(self) -> int:
        return self.d_c + self.d_s


def _check_pm_one(arr: np.ndarray, name: str) -> None:
    if not np.isin(arr, (-1, 1)).all():
        raise InvalidInputError(f"{name} entries must be -1 or +1")


def read_csv_chunks(path: str | Path, kind: str, dtypes_of):
    """Yield (rows, arrays) for each chunk of rows of a CSV file, at least one.

    `dtypes_of(header)` gives the dtypes of the leading columns (None: bad
    header); their cells convert as Python int()/float() do.  A row whose
    cell count differs from the header's, or a bad cell, raises
    InvalidInputError naming the file and the line of the first one, after
    the rows before it are yielded: a caller's check of them comes first.
    The file is read as UTF-8, and a line that is not UTF-8 is such an error."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        try:
            header = next(r, None)
        except csv.Error as e:
            raise InvalidInputError(f"{path}, line {r.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        dtypes = None if header is None else dtypes_of(header)
        if dtypes is None:
            raise InvalidInputError(f"{path}: unrecognized {kind} CSV header: {header!r}")
        width = len(header)
        done = 0
        while True:
            rows, err = [], None
            try:
                rows.extend(itertools.islice(r, _CSV_CHUNK_ROWS))
            except csv.Error as e:
                err = InvalidInputError(f"{path}, line {r.line_num}: {e}")
            except UnicodeDecodeError:
                err = _not_utf8(path)
            try:
                arrays = _columns(rows, width, dtypes)
            except (ValueError, OverflowError):
                k, err = _first_bad_row(path, rows, done, width, dtypes)
                rows = rows[:k]
                arrays = _columns(rows, width, dtypes)
            yield rows, arrays
            if err is not None:
                raise err
            if len(rows) < _CSV_CHUNK_ROWS:
                return
            done += len(rows)


def _columns(rows, width, dtypes):
    if set(map(len, rows)) - {width}:
        raise ValueError
    cols = list(zip(*rows)) or [()] * width
    return [np.array(col, dtype=t) for col, t in zip(cols, dtypes)]


def _first_bad_row(path, rows, done, width, dtypes) -> tuple[int, InvalidInputError]:
    # error path: the chunk's first malformed row and its first bad cell; a
    # quoted cell may span lines, so the reader counts the line
    for k, row in enumerate(rows):
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} cells, got {len(row)}")
            for v, t in zip(row, dtypes):
                np.array((v,), dtype=t)
        except (ValueError, OverflowError) as e:
            return k, InvalidInputError(f"{path}, line {csv_line_of(path, done + k)}: {e}")


def _not_utf8(path) -> InvalidInputError:
    # error path: decoding runs ahead of the rows, so decode line by line
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return InvalidInputError(f"{path}, line {n}: {e}")


def csv_line_of(path: str | Path, k: int) -> int:
    """The line of a CSV file that its data row `k` (0-based, after the
    header) ends on; a quoted cell may span lines, so the reader counts them.
    For error paths: it reads the file again from the start."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        for _ in zip(range(k + 2), r):
            pass
        return r.line_num


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus labels, spurious attributes, and derived group ids.

    Columns are laid out [core | spurious]; arrays are locked read-only on
    construction so downstream code cannot mutate shared data.
    """

    features: np.ndarray
    labels: np.ndarray
    spurious_attrs: np.ndarray
    group_ids: np.ndarray

    def __post_init__(self):
        f = np.array(self.features, dtype=np.float64)
        y = np.array(self.labels, dtype=np.int64)
        s = np.array(self.spurious_attrs, dtype=np.int64)
        g = np.array(self.group_ids, dtype=np.int64)
        if f.ndim != 2:
            raise ShapeError("features must be a 2-D array")
        n = f.shape[0]
        if not (y.shape == s.shape == g.shape == (n,)):
            raise ShapeError("labels, spurious_attrs and group_ids must be 1-D of matching length")
        _check_pm_one(y, "labels")
        _check_pm_one(s, "spurious_attrs")
        if not np.array_equal(g, _GROUP_TABLE[(y + 1) // 2, (s + 1) // 2]):
            raise InvalidInputError("group_ids do not match the (y, s) -> group mapping")
        for arr in (f, y, s, g):
            arr.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "spurious_attrs", s)
        object.__setattr__(self, "group_ids", g)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def group_counts(self) -> np.ndarray:
        return np.bincount(self.group_ids, minlength=N_GROUPS)

    def take(self, idx: np.ndarray) -> "LabeledDataset":
        """Row subset as a new read-only dataset."""
        return LabeledDataset(self.features[idx], self.labels[idx],
                              self.spurious_attrs[idx], self.group_ids[idx])

    # -- serialization ----------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write `y,s,group,x0..x{d-1}` rows with CRLF line ends; floats use
        their shortest round-trip repr."""
        header = ["y", "s", "group"] + [f"x{i}" for i in range(self.d)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            # a chunk of rows at a time bounds the text held in memory
            for start in range(0, len(self), _CSV_CHUNK_ROWS):
                chunk = slice(start, start + _CSV_CHUNK_ROWS)
                cols = [a[chunk].tolist() for a in (self.labels, self.spurious_attrs, self.group_ids)]
                cols += self.features[chunk].T.tolist()
                # str() of a list of int/float tuples: "[(1, -1, 2, 0.5), (...)]",
                # each float printed as repr()
                text = str(list(zip(*cols)))[2:-2]
                fh.write(text.replace("), (", "\r\n").replace(", ", ",") + "\r\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "LabeledDataset":
        def dtypes_of(h):
            if h[:3] == ["y", "s", "group"] and all(x == f"x{i}" for i, x in enumerate(h[3:])):
                return [np.int64] * 3 + [np.float64] * (len(h) - 3)
            return None

        chunks = [cols for _, cols in read_csv_chunks(path, "dataset", dtypes_of)]
        y, s, g, *xs = (np.concatenate(col) for col in zip(*chunks))
        features = np.array(xs, dtype=np.float64).reshape(len(xs), len(y)).T.copy()
        return cls(features, y, s, g)

    def to_npz(self, path: str | Path) -> None:
        """Compact binary cache of the same four arrays (uncompressed .npz)."""
        # write through a handle: np.savez appends ".npz" to bare filenames,
        # which breaks temp-and-rename writers
        with open(path, "wb") as fh:
            np.savez(fh, **{k: getattr(self, k) for k in _NPZ_ARRAYS})

    @classmethod
    def from_npz(cls, path: str | Path) -> "LabeledDataset":
        try:
            z = np.load(path)
        except (ValueError, EOFError, zipfile.BadZipFile) as e:
            raise InvalidInputError(f"{path}: not an .npz archive ({e})") from None
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise InvalidInputError(f"{path}: not an .npz archive")
        with z:
            missing = [k for k in _NPZ_ARRAYS if k not in z.files]
            if missing:
                raise InvalidInputError(f"{path}: .npz archive lacks arrays {missing}")
            return cls(*(z[k] for k in _NPZ_ARRAYS))


@dataclass(frozen=True)
class AuxDataset:
    """Input/target pairs for the reconstruction task.

    `noised` feeds the featurizer; `targets` is what the reconstruction head
    is scored against.  Shapes must agree.
    """

    noised: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        a = np.array(self.noised, dtype=np.float64)
        b = np.array(self.targets, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ShapeError("noised and targets must be 2-D arrays of identical shape")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "noised", a)
        object.__setattr__(self, "targets", b)

    def __len__(self) -> int:
        return self.noised.shape[0]

    @property
    def d(self) -> int:
        return self.noised.shape[1]

    def take(self, idx: np.ndarray) -> "AuxDataset":
        """Row subset as a new read-only dataset."""
        return AuxDataset(self.noised[idx], self.targets[idx])


def _sample_groups(spec: GroupDataSpec, counts: list[int], seed) -> LabeledDataset:
    # One child PRNG stream per group, so each group's draw is independent of
    # the other groups' counts.
    children = np.random.SeedSequence(seed).spawn(N_GROUPS)
    feats, ys, ss, gs = [], [], [], []
    for g in range(N_GROUPS):
        y, s = YS_OF_GROUP[g]
        n_g = counts[g]
        rng = np.random.default_rng(children[g])
        core = rng.normal(float(y), np.sqrt(spec.sigma2_core), size=(n_g, spec.d_c))
        spur = rng.normal(float(s), np.sqrt(spec.sigma2_spur), size=(n_g, spec.d_s))
        feats.append(np.hstack([core, spur]))
        ys.append(np.full(n_g, y, dtype=np.int64))
        ss.append(np.full(n_g, s, dtype=np.int64))
        gs.append(np.full(n_g, g, dtype=np.int64))
    return LabeledDataset(np.vstack(feats), np.concatenate(ys),
                          np.concatenate(ss), np.concatenate(gs))


def sample_group_dataset(spec: GroupDataSpec, seed) -> LabeledDataset:
    """Draw a dataset with n_maj/2 points in each majority group and n_min/2
    in each minority group.  Deterministic for a given (spec, seed)."""
    counts = [spec.n_maj // 2, spec.n_maj // 2, spec.n_min // 2, spec.n_min // 2]
    return _sample_groups(spec, counts, seed)


def make_balanced_test(spec: GroupDataSpec, n_per_group: int, seed) -> LabeledDataset:
    """Draw a group-balanced evaluation set: n_per_group points in all four groups."""
    if n_per_group < 1:
        raise InvalidSpecError("n_per_group must be >= 1")
    return _sample_groups(spec, [n_per_group] * N_GROUPS, seed)


def noise_dataset(data: LabeledDataset, sigma2_noise: float, seed) -> AuxDataset:
    """Make a reconstruction task from `data`: targets are the clean features,
    inputs are the same features plus i.i.d. N(0, sigma2_noise) corruption."""
    if sigma2_noise < 0:
        raise InvalidSpecError("sigma2_noise must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eps = rng.normal(0.0, np.sqrt(sigma2_noise), size=data.features.shape)
    return AuxDataset(data.features + eps, data.features)
