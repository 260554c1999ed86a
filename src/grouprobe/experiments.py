"""Config-driven experiment and sweep runner, and the model-params file format.

Configs are single JSON documents with a versioned `schema` field; unknown
keys anywhere (params files included) are hard errors so typos cannot
silently change a run, and each value must have the JSON type of the
dataclass field it sets.  Every artifact write is temp-and-rename, runs are
deterministic per (config, seed), and summary files are byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .baselines import FitResult, GroupDroConfig, JttConfig, RunSpec, TaskData, fit_lanes
from .errors import ConfigError, DegenerateInputError, GrouprobeError, InvalidSpecError
from .evalsel import (
    PARETO_CSV_COLUMNS,
    SelectionStrategy,
    front_indices,
    spur_core_log_ratio,
    write_front_gnuplot,
    write_pareto_csv,
)
from .linmodel import ModelParams
from .objectives import LossWeights
from .optim import OptimConfig
from .synthgen import GroupDataSpec, LabeledDataset, make_balanced_test, noise_dataset, sample_group_dataset

SCHEMA_VERSION = 1

# Per-role seed entropy [seed, tag] for the data and corruption draws.  Not
# disjoint from the batch schedules: a split draws group g from child g of
# its entropy, and epoch ep's schedule from children 0 and 1 of [seed, ep],
# so epochs 10 and 11 reuse streams of the splits drawn here.
_SEED_TRAIN = 10
_SEED_VAL = 11
_SEED_AUX_NOISE = 12
_SEED_AUX_VAL_NOISE = 14


# -- atomic writes ---------------------------------------------------------


def atomic_via_tmp(path: str | Path, writer) -> None:
    """Call writer(tmp_path) on a temp file in the same directory, then
    rename it into place.  If the writer raises, the temp file is removed
    and the writer's error propagates."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# -- config parsing --------------------------------------------------------


def _read_json(path: str | Path):
    """The JSON document in UTF-8 file `path`, or a ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, too deep, or too many digits
        raise ConfigError(f"{path}: {e}") from None


# How an error names each JSON value type a config field can take
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "a JSON object", type(None): "null"}


def _expect_keys(d: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _check(v, kinds: tuple[type, ...], where: str, bounded: bool = True):
    """`v` if it is a JSON value of one of `kinds`; an integer counts as a
    float and loads as one, -0.0 loads as 0.0, true/false count only as
    bool, a float must be finite (an integer in a float field too), and an
    integer in an integer field must fit int64 when `bounded`.  An
    np.ndarray is a JSON array (nested for a matrix) of finite numbers, as
    float64, -0.0 kept."""
    if kinds == (np.ndarray,):
        try:  # numpy would read true/false as 1 and 0, and a string as its number
            arr = np.array(v, dtype=np.float64) if _numbers(v) else None
        except (ValueError, OverflowError) as e:  # ragged, or an integer past float64
            raise ConfigError(f"{where} must be an array of finite numbers ({e})") from None
        if arr is None or not np.isfinite(arr).all():
            raise ConfigError(f"{where} must be an array of finite numbers, got {json.dumps(v)}")
        return arr
    # json reads NaN, Infinity and integers past float64; NaN passes range checks
    if type(v) in (int, float) and float in kinds and not abs(v) <= sys.float_info.max:
        got = json.dumps(v) if type(v) is float else f"an integer of {len(str(abs(v)))} digits"
        raise ConfigError(f"{where} must be a finite number, got {got}")
    # integer fields are held to int64, where numpy sizes stop; a seed is
    # SeedSequence entropy and needs no bound
    if bounded and type(v) is int and int in kinds and abs(v) > 2**63 - 1:
        raise ConfigError(f"{where} must be an integer of magnitude at most 2**63 - 1, "
                          f"got an integer of {len(str(abs(v)))} digits")
    if type(v) in kinds:
        # -0.0 loads as 0.0: a config has one byte form per number
        return v + 0.0 if type(v) is float else v
    if type(v) is int and float in kinds:
        return float(v)
    # Python would read JSON true/false as the integers 1 and 0
    as_number = type(v) is bool and (int in kinds or float in kinds)
    want = "a number" if as_number else " or ".join(_KIND_NAMES[k] for k in kinds)
    raise ConfigError(f"{where} must be {want}, got {json.dumps(v, default=repr)}")


def _numbers(v) -> bool:
    # a JSON array of arrays and numbers, at any depth, without true/false
    return type(v) is list and all(type(x) in (int, float) or _numbers(x) for x in v)


@functools.cache
def _fields(cls) -> dict[str, tuple[tuple[type, ...], bool]]:
    """Each field of a config dataclass as (the JSON value types it takes,
    whether it is required), from annotations resolved once per class."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        kinds = get_args(hints[f.name]) or (hints[f.name],)
        # a field that holds a config dataclass is a nested block, an object
        out[f.name] = ((dict,) if any(map(is_dataclass, kinds)) else kinds,
                       f.default is MISSING and f.default_factory is MISSING)
    return out


def _values(cls, d: dict, where: str, fixed=(), defaults=()) -> dict:
    """`d` as checked config block `where` of keyword arguments to `cls`: its
    keys are the fields not in `fixed`, required unless the field has a
    default or is in `defaults`, and each value is `_check`ed, a `seed` with
    no upper bound, as the run seeds have none."""
    spec = _fields(cls)
    keys = spec.keys() - set(fixed)
    _expect_keys(d, {k for k in keys if spec[k][1] and k not in defaults}, keys, where)
    return {k: _check(v, spec[k][0], f"{where}.{k}", bounded=k != "seed") for k, v in d.items()}


def _block(cls, d: dict, where: str, defaults: dict | None = None, **fixed):
    """A `cls` built from config block `where` (see _values), with the
    caller's `fixed` values and `defaults` for the keys the block leaves out."""
    defaults = defaults or {}
    kw = {**defaults, **_values(cls, d, where, fixed, defaults), **fixed}
    try:
        return cls(**kw)
    except GrouprobeError as e:
        raise ConfigError(f"{where}: {e}") from None


def _parse_seeds(seeds) -> tuple[int, ...]:
    # type(): JSON true/false arrive as bools, which Python counts as ints
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError("seeds must be a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return tuple(seeds)


def _load(cls, source):
    """A `cls` config from an instance, a JSON document or a JSON file path."""
    if isinstance(source, cls):
        return source
    return cls.from_json_dict(source if isinstance(source, dict) else _read_json(source))


def _run_spec(d: dict, where: str) -> RunSpec:
    """The `RunSpec` of config cell `where`: its blocks built, tau a float and
    the keys a cell may leave out defaulted; the constructor checks the
    method rules."""
    d = _values(RunSpec, d, where)
    method = d["method"]
    optim = _block(OptimConfig, d["optim"], f"{where}.optim", seed=0)
    kw = {"weights": _block(LossWeights, d.get("weights", {}), f"{where}.weights")}
    # a method always gets its own block, with the keys it leaves out defaulted
    for name, block_cls, defaults in (
        ("jtt", JttConfig, {"id_epochs": max(1, optim.epochs // 10)}),
        ("group_dro", GroupDroConfig, None),
    ):
        if name in d or method == name:
            kw[name] = _block(block_cls, d.get(name, {}), f"{where}.{name}", defaults)
    try:
        # reconstruction-only cells pin the featurizer norm exactly unless
        # told otherwise; everything else defaults to the ball constraint
        return RunSpec(tag=d["tag"], method=method, optim=optim, tau=d.get("tau"),
                       l1_boundary=d.get("l1_boundary", method == "aux_only"), **kw)
    except GrouprobeError as e:
        raise ConfigError(f"{where}: {e}") from None


@dataclass(frozen=True)
class _HeldOut:
    """The `test` block: a group-balanced test set with its own seed."""

    n_per_group: int
    seed: int

    def __post_init__(self):
        if self.n_per_group < 1 or self.seed < 0:
            raise InvalidSpecError("needs n_per_group >= 1 and seed >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    data: GroupDataSpec
    val: GroupDataSpec  # data's distribution at the validation split's sizes
    test_n_per_group: int
    test_seed: int
    selection: SelectionStrategy
    seeds: tuple[int, ...]
    runs: tuple[RunSpec, ...]

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        _expect_keys(d, {"schema", "name", "data", "val", "test", "selection", "seeds", "runs"},
                     set(), "config")
        if _check(d["schema"], (int,), "schema") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema {d['schema']!r}; this build reads {SCHEMA_VERSION}")
        data = _block(GroupDataSpec, d["data"], "data")
        # the val block sets only the two sizes
        shape = {k: v for k, v in vars(data).items() if k not in ("n_maj", "n_min")}
        val = _block(GroupDataSpec, d["val"], "val", **shape)
        test = _block(_HeldOut, d["test"], "test")
        sel = d["selection"]
        if sel not in ("val_gp", "no_gp"):
            raise ConfigError(f"selection must be 'val_gp' or 'no_gp', got {sel!r}")
        seeds = _parse_seeds(d["seeds"])
        runs_raw = d["runs"]
        if not isinstance(runs_raw, list) or not runs_raw:
            raise ConfigError("runs must be a non-empty list")
        runs = tuple(_run_spec(r, f"runs[{i}]") for i, r in enumerate(runs_raw))
        tags = [r.tag for r in runs]
        if len(set(tags)) != len(tags):
            raise ConfigError("run tags must be distinct")
        return cls(
            name=_check(d["name"], (str,), "name"),
            data=data,
            val=val,
            test_n_per_group=test.n_per_group,
            test_seed=test.seed,
            selection=SelectionStrategy(sel),
            seeds=seeds,
            runs=runs,
        )

    load = classmethod(_load)


# -- model params files ------------------------------------------------------


def params_json(p: ModelParams) -> str:
    """The text of `p`'s params file; it holds `l1_boundary` only when true."""
    d = {"a": p.a.tolist(), "w_end": p.w_end.tolist(), "W_aux": p.W_aux.tolist(), "tau": p.tau,
         "fro_radius": p.fro_radius, **({"l1_boundary": True} if p.l1_boundary else {})}
    return json.dumps(d, indent=1) + "\n"


def read_params(path: str | Path) -> ModelParams:
    """The `ModelParams` of params file `path`, checked as a config block is.
    Errors name the file; constructor errors keep their types."""
    d = _read_json(path)
    kinds = _fields(ModelParams)
    try:
        _expect_keys(d, {"a", "w_end", "W_aux", "tau", "fro_radius"}, {"l1_boundary"}, "model params")
        return ModelParams(**{k: _check(v, kinds[k][0], f"model params.{k}") for k, v in d.items()})
    except GrouprobeError as e:
        raise type(e)(f"{path}: {e}") from None


# -- execution ---------------------------------------------------------------


def n_workers() -> int:
    """Bounded worker count, the calling process included; the
    GROUPROBE_WORKERS env var overrides the default."""
    env = os.environ.get("GROUPROBE_WORKERS")
    if env is None:
        return min(os.cpu_count() or 1, 4)
    try:
        w = int(env)
    except ValueError:
        raise ConfigError(f"GROUPROBE_WORKERS must be an integer, got {env!r}") from None
    if w < 1:
        raise ConfigError("GROUPROBE_WORKERS must be >= 1")
    return w


def _seed_splits(cfg: ExperimentConfig, seed: int, test_set: LabeledDataset):
    """One run seed's (task splits, aux train set, aux val set): the aux sets
    are noised copies of the end task's own train and val inputs.  Every
    seed shares the config's one test set."""
    data = cfg.data
    train_set = sample_group_dataset(data, [seed, _SEED_TRAIN])
    val_set = sample_group_dataset(cfg.val, [seed, _SEED_VAL])
    aux_train = noise_dataset(train_set, data.sigma2_noise, [seed, _SEED_AUX_NOISE])
    aux_val = noise_dataset(val_set, data.sigma2_noise, [seed, _SEED_AUX_VAL_NOISE])
    return TaskData(train_set, val_set, test_set), aux_train, aux_val


def _run_lanes(cfg: ExperimentConfig, jobs: list[tuple[int, int]], out_dir: str | None) -> list[dict]:
    """Train a chunk of (cell, seed) jobs through one `fit_lanes` call and
    return their run records, in job order.  Datasets are immutable, so the
    chunk draws each seed's splits once and one test set for all seeds."""
    test_set = make_balanced_test(cfg.data, cfg.test_n_per_group, cfg.test_seed)
    splits = {seed: _seed_splits(cfg, seed, test_set) for seed in {seed for _, seed in jobs}}
    specs = []
    for run_idx, seed in jobs:
        run = cfg.runs[run_idx]
        specs.append((replace(run, optim=replace(run.optim, seed=seed)), *splits[seed]))
    results = fit_lanes(specs, cfg.selection)
    return [_run_cell(cfg, run_idx, seed, result, out_dir)
            for (run_idx, seed), result in zip(jobs, results)]


def _run_cell(cfg: ExperimentConfig, run_idx: int, seed: int, result: FitResult,
              out_dir: str | None) -> dict:
    """The run record of one trained (cell, seed) job: the JSON object
    written to runs/<tag>_seed<seed>.json when out_dir is given, beside the
    job's trace and parameter files."""
    run = cfg.runs[run_idx]
    try:
        log_ratio = spur_core_log_ratio(result.params.a, cfg.data.d_c, cfg.data.d_s)
    except DegenerateInputError:
        log_ratio = float("nan")
    record = result.to_json_dict()
    record.update(seed=seed, tag=run.tag, log_ratio=_json_float(log_ratio))
    if out_dir is not None:
        out = Path(out_dir)
        stem = f"{run.tag}_seed{seed}"
        text = json.dumps(record, indent=1) + "\n"
        atomic_via_tmp(out / "runs" / f"{stem}.json", lambda p: p.write_text(text))
        atomic_via_tmp(out / "traces" / f"{stem}.csv", result.trace.to_csv)
        atomic_via_tmp(out / "params" / f"{stem}.json", lambda p: p.write_text(params_json(result.params)))
    return record


def _json_float(v: float):
    # JSON has no inf/nan literals; store them as strings
    return float(v) if math.isfinite(v) else repr(float(v))


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    # log ratios can be +/-inf when projection zeroes a coordinate; the
    # mean/std of such a cell is then inf/nan by design, not an error
    with np.errstate(invalid="ignore"):
        return float(arr.mean()), float(arr.std())


SUMMARY_COLUMNS = [
    "tag", "method", "tau", "alpha_aux", "alpha_reg", "lr", "batch", "selection",
    "n_seeds", "test_avg_mean", "test_avg_std", "test_wg_mean", "test_wg_std",
    "final_avg_mean", "final_avg_std", "final_wg_mean", "final_wg_std",
    "g0_mean", "g1_mean", "g2_mean", "g3_mean",
    "log_ratio_mean", "log_ratio_std", "log_ratio_max",
]


def _summarize(cfg: ExperimentConfig, records: list[dict]) -> list[dict]:
    rows = []
    for run in cfg.runs:
        cell = [r for r in records if r["tag"] == run.tag]
        row = {
            "tag": run.tag,
            "method": run.method,
            "tau": "" if run.tau is None else repr(float(run.tau)),
            "alpha_aux": repr(float(run.weights.alpha_aux)),
            "alpha_reg": repr(float(run.weights.alpha_reg)),
            "lr": repr(float(run.optim.learning_rate)),
            "batch": str(run.optim.batch_size),
            "selection": cfg.selection.value,
            "n_seeds": str(len(cell)),
        }
        for view, acc in itertools.product(("test", "final"), ("avg", "wg")):
            mean, std = _mean_std([r[f"{view}_metrics"][f"{acc}_acc"] for r in cell])
            row[f"{view}_{acc}_mean"], row[f"{view}_{acc}_std"] = repr(mean), repr(std)
        by_group = np.asarray(
            [[np.nan if v is None else v for v in r["test_metrics"]["per_group_acc"]] for r in cell]
        )
        for g in range(by_group.shape[1]):
            row[f"g{g}_mean"] = repr(float(by_group[:, g].mean()))
        # non-finite ratios are stored as their repr strings
        log_ratios = [float(r["log_ratio"]) for r in cell]
        mean, std = _mean_std(log_ratios)
        row.update(log_ratio_mean=repr(mean), log_ratio_std=repr(std),
                   log_ratio_max=repr(float(np.max(log_ratios))))
        rows.append(row)
    return rows


def run_experiment(source, out_dir: str | Path | None):
    """Run every (cell, seed) job of a config; returns (summary_rows, records).

    A record is the JSON object of one job's runs/<tag>_seed<seed>.json, in
    (cell, seed) order; a summary row maps SUMMARY_COLUMNS to one cell's
    summary.csv text.  When out_dir is given, writes those files plus per-epoch
    trace CSVs and selected-model parameter JSONs.

    The cell-major job list is split into min(n_workers(), number of jobs)
    near-equal contiguous chunks, and each chunk trains through one
    `fit_lanes` call, whose `optim.train` runs the jobs that can share a step
    as lanes of one loop.  The first chunk trains in the calling process
    while a process pool of one process per other chunk trains the rest (one
    worker makes one chunk and no pool).  When chunks diverge, the error of
    the first of them in job order is raised.  A lane's outputs equal
    its run alone bit for bit and are keyed by deterministic seeds only, so
    neither the grouping nor the scheduling affects results.
    """
    cfg = ExperimentConfig.load(source)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        for sub in ("runs", "traces", "params"):
            (out / sub).mkdir(parents=True, exist_ok=True)
    jobs = [(i, s) for i in range(len(cfg.runs)) for s in cfg.seeds]
    chunks = [[jobs[i] for i in part]
              for part in np.array_split(range(len(jobs)), min(n_workers(), len(jobs)))]
    out_str = str(out) if out is not None else None
    if len(chunks) == 1:
        done = [_run_lanes(cfg, chunks[0], out_str)]
    else:
        # chunk 0 trains here while the pool, one worker per other chunk (fork
        # starts them all at the first submit), trains the rest; chunk 0's
        # error, first in job order, is the one raised
        with ProcessPoolExecutor(max_workers=len(chunks) - 1) as ex:
            futures = [ex.submit(_run_lanes, cfg, chunk, out_str) for chunk in chunks[1:]]
            done = [_run_lanes(cfg, chunks[0], out_str)] + [f.result() for f in futures]
    # contiguous chunks in job order: their records concatenate in job order
    records = [record for chunk_records in done for record in chunk_records]
    rows = _summarize(cfg, records)
    if out is not None:
        text = _csv_text(SUMMARY_COLUMNS, [[row[c] for c in SUMMARY_COLUMNS] for row in rows])
        atomic_via_tmp(out / "summary.csv", lambda p: p.write_text(text))
    return rows, records


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# -- sweeps ------------------------------------------------------------------

SWEEP_AXES = ("alpha_aux", "alpha_reg", "tau", "learning_rate", "batch_size")

# The run block each sweep key sets ("": the run itself)
_SWEEP_BLOCKS = {"method": "", "tau": "", "l1_boundary": "", "epochs": "optim", "patience": "optim",
                 "momentum": "optim", "learning_rate": "optim", "batch_size": "optim",
                 "lambda_l2": "weights", "alpha_aux": "weights", "alpha_reg": "weights"}
# A valid run's sweep keys, which the sweep's method, base and each grid
# point replace; a key that none sets takes its run default
_SWEEP_RUN = {"method": "reg_mtl", "tau": 1.0, "epochs": 500, "learning_rate": 1.0, "batch_size": 1,
              "lambda_l2": 1.0}


def _sweep_run(tag: str, values: dict) -> dict:
    """The run document of sweep keys `values`, each in its block."""
    run = {"tag": tag, "optim": {}, "weights": {}}
    for k, v in values.items():
        (run[_SWEEP_BLOCKS[k]] if _SWEEP_BLOCKS[k] else run)[k] = v
    return run


def _sweep_value(skeleton: dict, key: str, v, where: str):
    """Sweep value `v` of `key` as the run parser loads it into the valid run
    `skeleton`; a parse error is named `where`."""
    # a grid tau goes into the cell's Pareto tag: a number, never null
    if key == "tau" and not _check(v, (float,), where) > 0:
        raise ConfigError(f"{where}: tau must be positive")
    try:
        run = _run_spec(_sweep_run("probe", {**skeleton, key: v}), "run")
    except ConfigError as e:
        raise ConfigError(re.sub(r"^run[\w.]*", where, str(e))) from None
    return {**vars(run.optim), **vars(run.weights), **vars(run)}[key]


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product over the five sweep axes around a base config.

    `cells` lists the grid points as loaded, the last axis varying fastest;
    `config` is the grid as an experiment, one run per cell tagged
    `cell0000`, `cell0001`, ... in that order, validated like any other
    config.  A `base` or grid value is checked alone, in a valid run.
    """

    cells: tuple[dict, ...]
    config: ExperimentConfig

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepGrid":
        _expect_keys(d, {"schema", "name", "data", "val", "test", "selection", "seeds", "grid"},
                     {"method", "base"}, "sweep config")
        skeleton = dict(_SWEEP_RUN)
        if "method" in d:  # first, so that a bad method is not named after a base key
            skeleton["method"] = _sweep_value(_SWEEP_RUN, "method", d["method"], "method")
        base, grid = d.get("base", {}), d["grid"]
        _expect_keys(base, set(), _SWEEP_BLOCKS.keys() - {"method", *SWEEP_AXES}, "base")
        base = {k: _sweep_value(skeleton, k, v, f"base.{k}") for k, v in base.items()}
        _expect_keys(grid, set(SWEEP_AXES), set(), "grid")
        axes = []
        for axis in SWEEP_AXES:
            if not isinstance(grid[axis], list) or not grid[axis]:
                raise ConfigError(f"grid.{axis} must be a non-empty list")
            axes.append([])
            for i, v in enumerate(grid[axis]):
                v = _sweep_value(skeleton, axis, v, f"grid.{axis}[{i}]")
                if v in axes[-1]:
                    raise ConfigError(f"grid.{axis}[{i}] repeats grid.{axis}[{axes[-1].index(v)}]")
                axes[-1].append(v)
        cells = tuple(dict(zip(SWEEP_AXES, combo)) for combo in itertools.product(*axes))
        runs = [_sweep_run(f"cell{i:04d}", {**skeleton, **base, **cell}) for i, cell in enumerate(cells)]
        shared = {k: v for k, v in d.items() if k not in ("method", "base", "grid")}
        return cls(cells, ExperimentConfig.from_json_dict({**shared, "runs": runs}))

    load = classmethod(_load)


def run_sweep(source, out_dir: str | Path | None):
    """Run a sweep grid; returns (rows, front_rows): the summary rows of all
    cells, and of those on the Pareto front of their seed-mean test (avg, wg)
    accuracies, by avg descending.  With out_dir set, writes sweep_full.csv,
    sweep_front.csv and sweep_front.dat, tagged with summary.csv's values,
    alongside the experiment's artifacts.
    """
    grid = SweepGrid.load(source)
    rows, _ = run_experiment(grid.config, out_dir)
    avg = np.array([float(row["test_avg_mean"]) for row in rows])
    wg = np.array([float(row["test_wg_mean"]) for row in rows])
    front = front_indices(avg, wg)
    if out_dir is not None:
        out = Path(out_dir)
        tags = [[row[c] for c in PARETO_CSV_COLUMNS[2:]] for row in rows]
        atomic_via_tmp(out / "sweep_full.csv",
                       lambda p: write_pareto_csv(avg, wg, tags, range(len(rows)), p))
        atomic_via_tmp(out / "sweep_front.csv", lambda p: write_pareto_csv(avg, wg, tags, front, p))
        atomic_via_tmp(out / "sweep_front.dat", lambda p: write_front_gnuplot(avg, wg, front, p))
    return rows, [rows[i] for i in front.tolist()]


# -- named recipes -----------------------------------------------------------

# Shared benchmark distribution: one core and one spurious coordinate, a
# 9:1 majority/minority split, and unit-variance input corruption for the
# reconstruction task.
BENCH_DATA = {
    "d_c": 1,
    "d_s": 1,
    "sigma2_core": 0.6,
    "sigma2_spur": 0.1,
    "n_maj": 900,
    "n_min": 100,
    "sigma2_noise": 1.0,
}
BENCH_VAL = {"n_maj": 90, "n_min": 10}
BENCH_TEST = {"n_per_group": 250, "seed": 907}
BENCH_SEEDS = [0, 1, 2, 3, 4]
_BENCH_OPTIM = {"learning_rate": 0.001, "batch_size": 64, "epochs": 500}


def _recipe(name: str, selection: str, **body) -> dict:
    # every named recipe runs on the shared distribution, splits and seeds
    return {"schema": SCHEMA_VERSION, "name": name, "data": dict(BENCH_DATA),
            "val": dict(BENCH_VAL), "test": dict(BENCH_TEST), "selection": selection,
            "seeds": list(BENCH_SEEDS), **body}


def recipe_table2() -> dict:
    """Low/high featurizer budget, end-task-only vs regularized multitask.

    End-only rows train at lr 1e-3 and report the checkpoint picked by
    average validation accuracy; multitask rows train at lr 1e-2, where the
    high-budget collapse of the end head onto the spurious coordinate
    actually plays out, and their cell values are read from the final-epoch
    columns.  The summary carries both views for every row.
    """
    end_only = [{
        "tag": f"end_only_tau{tau:g}",
        "method": "erm",
        "tau": tau,
        "optim": dict(_BENCH_OPTIM),
        "weights": {"lambda_l2": 1.0},
    } for tau in (0.1, 10.0)]
    reg_mtl = [{
        "tag": f"reg_mtl_tau{tau:g}",
        "method": "reg_mtl",
        "tau": tau,
        "optim": dict(_BENCH_OPTIM, learning_rate=0.01),
        "weights": {"alpha_aux": 10.0, "alpha_reg": 0.0, "lambda_l2": 1.0},
    } for tau in (0.1, 10.0)]
    return _recipe("table2", "no_gp", runs=end_only + reg_mtl)


def recipe_fig3() -> dict:
    """Reconstruction-only featurizer mass at fixed L1 norm, over an
    (lr, batch) grid at low and high budget."""
    runs = []
    for tau in (0.1, 10.0):
        for lr in (0.01, 0.001):
            for batch in (64, 256):
                runs.append({
                    "tag": f"aux_only_tau{tau:g}_lr{lr:g}_b{batch}",
                    "method": "aux_only",
                    "tau": tau,
                    "l1_boundary": True,
                    "optim": {"learning_rate": lr, "batch_size": batch, "epochs": 500},
                    "weights": {},
                })
    return _recipe("fig3", "no_gp", runs=runs)


def recipe_baselines() -> dict:
    """Robustness baselines under worst-group validation selection.

    All methods share the optimizer family and L2 strength; learning rate and
    the method-specific knobs are set where each method is competitive on
    this distribution (the group-weight ascent needs the larger step to move
    within 500 epochs, and loss-based upweighting needs a long enough first
    stage for the error set to stabilize).
    """
    runs = [
        {
            "tag": "erm",
            "method": "erm",
            "optim": dict(_BENCH_OPTIM),
            "weights": {"lambda_l2": 1.0},
        },
        {
            "tag": "jtt",
            "method": "jtt",
            "optim": dict(_BENCH_OPTIM),
            "weights": {"lambda_l2": 1.0},
            "jtt": {"id_epochs": 50, "upweight": 20.0},
        },
        {
            "tag": "group_dro",
            "method": "group_dro",
            "optim": dict(_BENCH_OPTIM, learning_rate=0.01),
            "weights": {"lambda_l2": 1.0},
            "group_dro": {"group_step": 0.05},
        },
        {
            "tag": "reg_mtl_tau0.1",
            "method": "reg_mtl",
            "tau": 0.1,
            "l1_boundary": True,
            "optim": dict(_BENCH_OPTIM),
            "weights": {"alpha_aux": 10.0, "alpha_reg": 0.0, "lambda_l2": 1.0},
        },
    ]
    return _recipe("baselines", "val_gp", runs=runs)


def recipe_pareto_default() -> dict:
    """3x3 aux/reg weight grid times the (lr, batch) grid at low budget."""
    e = math.e
    return _recipe(
        "pareto-default", "val_gp",
        method="reg_mtl",
        base={"epochs": 500, "lambda_l2": 1.0},
        grid={
            "alpha_aux": [1.0 / e, 1.0, e],
            "alpha_reg": [1.0 / e, 1.0, e],
            "tau": [0.1],
            "learning_rate": [0.01, 0.001],
            "batch_size": [64, 256],
        },
    )


RECIPES = {
    "table2": recipe_table2,
    "fig3": recipe_fig3,
    "baselines": recipe_baselines,
    "pareto-default": recipe_pareto_default,
}
SWEEP_RECIPES = {"pareto-default"}


def recipe_config(name: str) -> dict:
    try:
        return RECIPES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown recipe {name!r}; available: {sorted(RECIPES)}"
        ) from None
