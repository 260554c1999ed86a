"""Group-aware evaluation, selection strategies, and Pareto extraction.

The checkpoint itself is selected in `optim.train`."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, ShapeError
from .linmodel import ModelParams
from .synthgen import N_GROUPS, LabeledDataset, csv_line_of, read_csv_chunks


class SelectionStrategy(Enum):
    """Which validation statistic picks the checkpoint."""

    VAL_GP = "val_gp"  # maximize worst-group accuracy (needs group info)
    NO_GP = "no_gp"    # maximize example-weighted average accuracy


@dataclass(frozen=True)
class GroupMetrics:
    """Accuracy per group plus the two scalar summaries.

    per_group_acc holds NaN for groups absent from the evaluated set; wg_acc
    is the minimum over the groups actually present and all_groups_present
    records whether that covered all four.
    """

    per_group_acc: np.ndarray
    group_sizes: np.ndarray
    avg_acc: float
    wg_acc: float
    all_groups_present: bool

    def to_json_dict(self) -> dict:
        return {
            "per_group_acc": [None if np.isnan(v) else float(v) for v in self.per_group_acc],
            "group_sizes": [int(v) for v in self.group_sizes],
            "avg_acc": self.avg_acc,
            "wg_acc": self.wg_acc,
            "all_groups_present": self.all_groups_present,
        }


def evaluate(params: ModelParams | tuple, data: LabeledDataset | tuple) -> GroupMetrics:
    """Hard-label accuracy of the end head (a zero logit is +1), overall and
    per group, of one model on a LabeledDataset, or of a stack of R models:
    `params` (a, w_end) as (R, d) arrays, `data` R same-length datasets'
    (features, labels, group_ids) as (R, n, d), (R, n), (R, n) arrays,
    unchecked, and each result field with a leading lane axis.  One model
    is the stack code at R = 1, so lane r of a stack equals its one-model
    call bit for bit: one matvec for the logits, one bincount over
    lane-offset group ids for the hits."""
    if one := isinstance(params, ModelParams):
        if len(data) == 0:
            raise InvalidInputError("cannot evaluate on an empty dataset")
        if data.d != params.d:
            raise ShapeError(f"feature width mismatch: the model has d = {params.d}, "
                             f"the data d = {data.d}")
        params = params.a[None], params.w_end[None]
        data = data.features[None], data.labels[None], data.group_ids[None]
    (a, w_end), (X, labels, group_ids) = params, data
    R, n = labels.shape
    correct = (np.matvec(X * a[:, None, :], w_end) >= 0) == (labels == 1)
    lane_groups = (group_ids + np.arange(0, R * N_GROUPS, N_GROUPS)[:, None]).ravel()
    sizes = np.bincount(lane_groups, minlength=R * N_GROUPS).reshape(R, N_GROUPS)
    present = sizes > 0
    # sums of 0/1 values are exact, so each group's hits / size is its mean
    # and the hits' total / n the mean of `correct`
    hits = np.bincount(lane_groups, weights=correct.ravel(),
                       minlength=R * N_GROUPS).reshape(R, N_GROUPS)
    per_group = np.divide(hits, sizes, out=np.full((R, N_GROUPS), np.nan), where=present)
    avg, wg = hits.sum(axis=1) / n, np.fmin.reduce(per_group, axis=1)  # fmin skips NaN
    if not one:
        return GroupMetrics(per_group, sizes, avg, wg, present.all(axis=1))
    return GroupMetrics(per_group[0], sizes[0], float(avg[0]), float(wg[0]), bool(present.all()))


def spur_core_log_ratio(a: np.ndarray, d_c: int, d_s: int) -> float:
    """log(||a_spur||_1 / ||a_core||_1) for a featurizer split [core | spurious].

    Returns -inf when the spurious block is exactly zero; a zero core block
    makes the ratio undefined and raises instead.
    """
    a = np.asarray(a, dtype=np.float64)
    if d_c < 1 or d_s < 1:
        raise InvalidInputError("d_c and d_s must each be >= 1")
    if a.shape != (d_c + d_s,):
        raise ShapeError(f"expected a of length {d_c + d_s}, got shape {a.shape}")
    core = np.abs(a[:d_c]).sum()
    spur = np.abs(a[d_c:]).sum()
    if core == 0.0:
        raise DegenerateInputError("zero core mass: log ratio is undefined")
    if spur == 0.0:
        return float("-inf")
    return float(np.log(spur / core))


def front_indices(avg: np.ndarray, wg: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points, sorted by avg descending.

    Exact duplicates do not dominate each other, so all copies of a surviving
    point are kept, in input order.  One stable sort by avg, O(n log n).
    """
    if avg.size == 0:
        return np.arange(0)
    order = np.argsort(-avg, kind="stable")
    avg, wg = avg[order], wg[order]
    # buckets of equal avg: within a bucket only max-wg points survive;
    # across buckets the wg must strictly exceed everything kept at higher avg
    new_bucket = np.concatenate(([True], avg[1:] != avg[:-1]))
    bucket_max = np.maximum.reduceat(wg, np.flatnonzero(new_bucket))
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(bucket_max)[:-1]))
    bucket = np.cumsum(new_bucket) - 1
    keep = (wg == bucket_max[bucket]) & (bucket_max > best_before)[bucket]
    return order[keep]


PARETO_CSV_COLUMNS = ["avg_acc", "wg_acc", "method", "alpha_aux", "alpha_reg", "tau", "lr", "batch"]


def write_pareto_csv(avg: np.ndarray, wg: np.ndarray, tags: list[list[str]], idx,
                     path: str | Path) -> None:
    """Write the rows `idx` of Pareto columns (as `read_pareto_csv` returns
    them) in the fixed column order; each row's tag cells are text."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PARETO_CSV_COLUMNS)
        w.writerows([repr(float(avg[i])), repr(float(wg[i])), *tags[i]] for i in idx)


def read_pareto_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """The avg_acc and wg_acc columns of a Pareto CSV, and each row's tag
    cells (the columns after them, as text).

    An accuracy outside [0, 1] (or NaN) raises InvalidInputError naming the
    file and the line of the first row that holds one."""
    def dtypes_of(h):
        return [np.float64, np.float64] if h == PARETO_CSV_COLUMNS else None

    avgs, wgs, tags = [], [], []
    for rows, (avg, wg) in read_csv_chunks(path, "Pareto", dtypes_of):
        bad = ~((avg >= 0.0) & (avg <= 1.0) & (wg >= 0.0) & (wg <= 1.0))
        if bad.any():
            i = int(bad.argmax())
            name, v = ("avg_acc", avg[i]) if not 0.0 <= avg[i] <= 1.0 else ("wg_acc", wg[i])
            raise InvalidInputError(f"{path}, line {csv_line_of(path, len(tags) + i)}: "
                                    f"{name} must be in [0, 1], got {float(v)}")
        avgs.append(avg)
        wgs.append(wg)
        tags += [row[2:] for row in rows]
    return np.concatenate(avgs), np.concatenate(wgs), tags


def write_front_gnuplot(avg: np.ndarray, wg: np.ndarray, idx, path: str | Path) -> None:
    """Two-column `avg wg` file of the rows `idx`, one per line, '#'-prefixed header."""
    lines = ["# avg_acc wg_acc"]
    lines += [f"{repr(float(avg[i]))} {repr(float(wg[i]))}" for i in idx]
    Path(path).write_text("\n".join(lines) + "\n")
