"""Output checks for one repetition of a workload.

A repetition is split into units: one per (cell, seed) training run, one per
aggregate file (summary.csv, sweep_*.csv/.dat), one per CLI command, and
one for pool determinism where it applies.  A unit fails when its command
exited non-zero, its output is missing, breaks an invariant, or disagrees
with the recorded reference for this seed.

Invariants hold for every seed: metrics are finite and in [0, 1], the
worst-group accuracy is the lowest group's, saved
params are feasible, file and row counts match the config, Pareto fronts
are exactly the non-dominated points, and every CLI command exits 0.
For seeds recorded in bench/reference/<workload>.json, outputs must also
match the recorded text: counts, tags and text exactly, numbers within
REL_TOL/ABS_TOL.  Byte identity with the reference is counted separately
(`bytes_identical`), so a deliberate last-digit re-baseline shows up
without failing.

This module imports nothing from the program.
"""

from __future__ import annotations

import csv
import json
import math
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import workloads as W

ABS_TOL = 1e-6
REL_TOL = 1e-6
L1_TOL = 1e-9  # the program's feasibility slack (linmodel.L1_FEASIBILITY_TOL)

SUMMARY_UNIT_COLUMNS = ["test_avg_mean", "test_wg_mean", "final_avg_mean", "final_wg_mean",
                        "g0_mean", "g1_mean", "g2_mean", "g3_mean"]
SWEEP_FILES = ["sweep_full.csv", "sweep_front.csv", "sweep_front.dat"]


@dataclass
class Outcome:
    units: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)  # unit -> first reason
    bytes_identical: int = 0
    files_compared: int = 0

    def fail(self, unit: str, reason: str) -> None:
        self.failed.setdefault(unit, reason)

    def fail_all(self, reason: str) -> None:
        for u in self.units:
            self.fail(u, reason)


# -- small readers --------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _unit_float(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(ABS_TOL, REL_TOL * abs(b))


_TOKEN = re.compile(r'([,\s\[\]{}:"]+)')


def _as_float(tok: str):
    try:
        return float(tok)
    except ValueError:
        return None


def lines_match(got: str, want: str) -> bool:
    """Same tokens in the same order; numbers within tolerance."""
    a, b = _TOKEN.split(got), _TOKEN.split(want)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        fx, fy = _as_float(x), _as_float(y)
        if fx is None or fy is None or not _close(fx, fy):
            return False
    return True


def compare_reference(out: Outcome, got: Path, want: str, unit_of_line) -> None:
    """Compare a file with its reference text line by line; unit_of_line(i,
    line) names the unit a differing line belongs to (i None: the file)."""
    out.files_compared += 1
    if not got.exists():
        out.fail(unit_of_line(None, ""), f"{got.name} missing")
        return
    a = got.read_text()
    if a == want:
        out.bytes_identical += 1
        return
    la, lb = a.splitlines(), want.splitlines()
    if len(la) != len(lb):
        out.fail(unit_of_line(None, ""), f"{got.name}: {len(la)} lines, reference has {len(lb)}")
        return
    for i, (x, y) in enumerate(zip(la, lb)):
        if not lines_match(x, y):
            out.fail(unit_of_line(i, y), f"{got.name} line {i + 1} differs from reference")


# -- training outputs --------------------------------------------------------------


def _feasible(params: dict, run: dict) -> str | None:
    a, W_aux = params["a"], params["W_aux"]
    values = list(a) + list(params["w_end"]) + [v for row in W_aux for v in row]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "non-finite params"
    tau = run.get("tau")
    boundary = run.get("l1_boundary", run["method"] == "aux_only")
    if tau is not None:
        l1 = sum(abs(v) for v in a)
        slack = L1_TOL * max(1.0, tau)
        if boundary and abs(l1 - tau) > slack:
            return f"||a||_1 = {l1!r}, expected {tau} on the sphere"
        if not boundary and l1 > tau + slack:
            return f"||a||_1 = {l1!r} exceeds tau {tau}"
    fro = math.sqrt(sum(v * v for row in W_aux for v in row))
    if abs(fro - 1.0) > 1e-9:
        return f"||W_aux||_F = {fro!r}, expected 1"
    return None


def _metrics_problem(m: dict) -> str | None:
    """GroupMetrics JSON: accuracies in [0, 1], the worst group's accuracy
    is the lowest present group's, and the average lies between groups."""
    groups = [v for v in m.get("per_group_acc", []) if v is not None]
    avg, wg = m.get("avg_acc"), m.get("wg_acc")
    if not groups or not all(_unit_float(v) for v in [avg, wg] + groups):
        return "accuracy missing or outside [0, 1]"
    if wg != min(groups) or not min(groups) - 1e-12 <= avg <= max(groups) + 1e-12:
        return f"wg_acc {wg!r} / avg_acc {avg!r} inconsistent with groups {groups}"
    return None


def _check_run(out: Outcome, unit: str, d: Path, stem: str, run: dict) -> None:
    try:
        rec = json.loads((d / "runs" / f"{stem}.json").read_text())
        params = json.loads((d / "params" / f"{stem}.json").read_text())
        trace_lines = (d / "traces" / f"{stem}.csv").read_text().splitlines()
    except (OSError, ValueError) as e:
        out.fail(unit, f"unreadable output: {e}")
        return
    epochs = run["optim"]["epochs"]
    for key in ("test_metrics", "final_metrics"):
        m = rec.get(key, {})
        problem = _metrics_problem(m)
        if problem:
            out.fail(unit, f"{key}: {problem}")
    sel = rec.get("selected_epoch")
    if not isinstance(sel, int) or not 0 <= sel < epochs:
        out.fail(unit, f"selected_epoch {sel!r} outside [0, {epochs})")
    reason = _feasible(params, run)
    if reason:
        out.fail(unit, reason)
    if len(trace_lines) != epochs + 1:
        out.fail(unit, f"trace has {len(trace_lines) - 1} epochs, expected {epochs}")


def check_experiment(out: Outcome, cfg: dict, d: Path, prefix: str) -> dict[str, str]:
    """Check one run_experiment output directory; returns tag -> unit."""
    seeds = cfg["seeds"]
    units = {}
    for run in cfg["runs"]:
        for s in seeds:
            unit = f"{prefix}{run['tag']}_seed{s}"
            units[run["tag"]] = unit
            out.units.append(unit)
            _check_run(out, unit, d, f"{run['tag']}_seed{s}", run)
    summary_unit = f"{prefix}summary.csv"
    out.units.append(summary_unit)
    for sub, ext in (("runs", ".json"), ("traces", ".csv"), ("params", ".json")):
        want = {f"{r['tag']}_seed{s}{ext}" for r in cfg["runs"] for s in seeds}
        have = {p.name for p in (d / sub).iterdir()} if (d / sub).is_dir() else set()
        if have != want:
            out.fail(summary_unit, f"{sub}/ holds {len(have)} files, expected {len(want)}")
    try:
        header, rows = _read_csv(d / "summary.csv")
        col = {c: header.index(c) for c in ["tag", "n_seeds"] + SUMMARY_UNIT_COLUMNS}
    except (OSError, ValueError) as e:
        out.fail(summary_unit, f"summary.csv: {e}")
        return units
    if [r[col["tag"]] for r in rows] != [r["tag"] for r in cfg["runs"]]:
        out.fail(summary_unit, "summary.csv rows do not match the config's tags")
        return units
    for r in rows:
        unit = units[r[col["tag"]]]
        if r[col["n_seeds"]] != str(len(seeds)):
            out.fail(unit, "n_seeds mismatch")
        v = {c: _as_float(r[col[c]]) for c in SUMMARY_UNIT_COLUMNS}
        if not all(_unit_float(x) for x in v.values()):
            out.fail(unit, "summary metric outside [0, 1]")
        elif v["test_wg_mean"] > v["test_avg_mean"] or v["final_wg_mean"] > v["final_avg_mean"]:
            out.fail(unit, "summary worst-group mean above the average")
    return units


def _tag_unit(units: dict[str, str], file_unit: str):
    def unit_of_line(i, line):
        tag = line.split(",", 1)[0] if i else None
        return units.get(tag, file_unit)
    return unit_of_line


# -- Pareto fronts -----------------------------------------------------------------


def _front_problem(points: list[tuple[float, float]], front: list[tuple[float, float]]) -> str | None:
    """The front must be exactly the non-dominated points, duplicates kept,
    sorted by avg_acc descending.  Linear in len(points) per front point."""
    if points and not front:
        return "empty front"
    if [p[0] for p in front] != sorted((p[0] for p in front), reverse=True):
        return "front not sorted by avg_acc descending"
    fset = set(front)
    for f in fset:
        if points.count(f) != front.count(f):
            return f"front point {f} kept {front.count(f)} times, input has {points.count(f)}"
    for p in points:
        dominated = False
        for f in fset:
            if f[0] >= p[0] and f[1] >= p[1] and (f[0] > p[0] or f[1] > p[1]):
                dominated = True
                if p in fset:
                    return f"front point {p} is dominated by {f}"
                break
        if not dominated and p not in fset:
            return f"non-dominated point {p} missing from the front"
    return None


def _pairs(rows: list[list[str]]) -> list[tuple[float, float]]:
    return [(float(r[0]), float(r[1])) for r in rows]


def check_front_files(out: Outcome, points, front_csv: Path, front_dat: Path,
                      csv_unit: str, dat_unit: str) -> None:
    try:
        _header, rows = _read_csv(front_csv)
        front = _pairs(rows)
    except (OSError, ValueError, IndexError) as e:
        out.fail(csv_unit, f"{front_csv.name}: {e}")
        return
    problem = _front_problem(points, front)
    if problem:
        out.fail(csv_unit, problem)
    try:
        lines = front_dat.read_text().splitlines()
    except OSError as e:
        out.fail(dat_unit, str(e))
        return
    if lines[1:] != [f"{r[0]} {r[1]}" for r in rows]:
        out.fail(dat_unit, f"{front_dat.name} does not list the front")


# -- per-workload checks ---------------------------------------------------------------


def check_rep(workload: W.Workload, seed: int, d: Path, rep: dict | None, inputs: dict,
              ref: dict[str, str], serial_dir: Path | None = None) -> Outcome:
    """Check the outputs one repetition wrote under d.  rep is None when the
    pass process failed before reporting it; ref maps output paths relative
    to d to their recorded text (empty for seeds without a reference)."""
    out = Outcome()
    if workload.kind == "experiment":
        for cfg in workload.experiments(seed):
            units = check_experiment(out, cfg, d / cfg["name"], f"{cfg['name']}/")
            rel = f"{cfg['name']}/summary.csv"
            if rel in ref:
                compare_reference(out, d / rel, ref[rel], _tag_unit(units, rel))
    elif workload.kind == "sweep":
        _check_sweep(out, workload.experiments(seed)[0], d, ref, serial_dir)
    else:
        _check_cli(out, inputs, rep, d, ref)
    if rep is None:
        out.fail_all("pass process failed")
    return out


def _check_sweep(out: Outcome, cfg: dict, d: Path, ref: dict[str, str], serial_dir: Path | None) -> None:
    units = check_experiment(out, cfg, d, "")
    out.units.extend(SWEEP_FILES)
    points = []
    try:
        _header, rows = _read_csv(d / "sweep_full.csv")
        points = _pairs(rows)
        if len(rows) != len(cfg["runs"]):
            out.fail("sweep_full.csv", f"{len(rows)} rows, expected {len(cfg['runs'])}")
        if not all(_unit_float(v) for p in points for v in p):
            out.fail("sweep_full.csv", "accuracy outside [0, 1]")
        sheader, srows = _read_csv(d / "summary.csv")
        i_avg, i_wg = sheader.index("test_avg_mean"), sheader.index("test_wg_mean")
        if [(float(r[i_avg]), float(r[i_wg])) for r in srows] != points:
            out.fail("sweep_full.csv", "cells disagree with summary.csv")
    except (OSError, ValueError, IndexError) as e:
        out.fail("sweep_full.csv", f"sweep_full.csv: {e}")
    check_front_files(out, points, d / "sweep_front.csv", d / "sweep_front.dat",
                      "sweep_front.csv", "sweep_front.dat")
    for rel in ["summary.csv"] + SWEEP_FILES:
        if rel in ref:
            unit_of_line = _tag_unit(units, rel) if rel == "summary.csv" else (lambda i, line, r=rel: r)
            compare_reference(out, d / rel, ref[rel], unit_of_line)
    if serial_dir is not None:
        out.units.append("determinism")
        diff = tree_difference(d, serial_dir)
        if diff:
            out.fail("determinism", f"pooled output differs from the serial run: {diff}")


def tree_difference(a: Path, b: Path) -> str | None:
    """First difference between two directory trees (names and bytes)."""
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if fa != fb:
        return f"file sets differ ({len(fa)} vs {len(fb)} files)"
    for rel in fa:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return str(rel)
    return None


def _command_unit(rel: str) -> str:
    stem = rel.rsplit(".", 1)[0]
    return "pareto" if stem == "front" else stem


def _check_cli(out: Outcome, inputs: dict, rep: dict | None, d: Path, ref: dict[str, str]) -> None:
    names = [name for name, _argv in inputs["commands"]]
    out.units.extend(names)
    codes = dict((rep or {}).get("commands", []))
    for name in names:
        if codes.get(name) != 0:
            out.fail(name, f"exit code {codes.get(name)!r}")

    def read_json(name):
        try:
            return json.loads((d / f"{name}.out").read_text())
        except (OSError, ValueError) as e:
            out.fail(name, f"output is not JSON: {e}")
            return None

    n = W.IO_ROWS
    try:
        with open(d / "train.csv") as fh:
            header = fh.readline().strip()
            rows = sum(1 for _ in fh)
        if header != "y,s,group,x0,x1" or rows != n:
            out.fail("generate_csv", f"train.csv has header {header!r} and {rows} rows, expected {n}")
    except OSError as e:
        out.fail("generate_csv", str(e))
    try:
        with zipfile.ZipFile(d / "train.npz") as z:
            arrays = sorted(z.namelist())
        if arrays != ["features.npy", "group_ids.npy", "labels.npy", "spurious_attrs.npy"]:
            out.fail("generate_npz", f"train.npz holds {arrays}")
    except (OSError, zipfile.BadZipFile) as e:
        out.fail("generate_npz", str(e))

    sizes = [n * 9 // 20, n * 9 // 20, n // 20, n // 20]
    evals = {}
    for name in ("eval_csv", "eval_npz"):
        m = read_json(name)
        if m is None:
            continue
        evals[name] = m
        problem = _metrics_problem(m)
        if problem or m.get("group_sizes") != sizes:
            out.fail(name, problem or f"group sizes {m.get('group_sizes')}, expected {sizes}")
    if len(evals) == 2 and evals["eval_csv"] != evals["eval_npz"]:
        out.fail("eval_npz", "CSV and NPZ copies of one dataset score differently")

    try:
        _h, prows = _read_csv(Path(inputs["in_dir"]) / "points.csv")
        check_front_files(out, _pairs(prows), d / "front.csv", d / "front.dat", "pareto", "pareto")
    except (OSError, ValueError) as e:
        out.fail("pareto", str(e))

    for name in names:
        if name.startswith("bound"):
            b = read_json(name)
            if b is None:
                continue
            wg = b.get("worst_group_error_bound")
            tb = b.get("transfer_core_mass_lower_bound", {})
            v = tb.get("value")
            if not (_unit_float(wg) and 0.0 < wg < 0.5):
                out.fail(name, f"worst_group_error_bound {wg!r} outside (0, 0.5)")
            if not (isinstance(v, float) and math.isfinite(v) and tb.get("vacuous") == (v < 0)):
                out.fail(name, f"transfer bound {tb!r} malformed")
    g = read_json("grad_check")
    if g is not None and not (g.get("pass") is True and g.get("max_relative_error", 1) <= 1e-5
                              and g.get("gradient_blocks_checked") == 9 * W.IO_GRAD_TRIALS):
        out.fail("grad_check", f"gradient check failed: {g}")

    for rel, text in sorted(ref.items()):
        unit = _command_unit(rel)
        compare_reference(out, d / rel, text, lambda i, line, u=unit: u)


def reference_files(workload: W.Workload, seed: int, d: Path) -> list[Path]:
    """Output files, relative to a repetition's directory d, kept as the
    reference for a seed.  The generate commands' output names a path, so
    it is left out."""
    if workload.kind == "experiment":
        return [Path(c["name"]) / "summary.csv" for c in workload.experiments(seed)]
    if workload.kind == "sweep":
        return [Path(p) for p in ["summary.csv"] + SWEEP_FILES]
    return sorted(p.relative_to(d) for p in d.iterdir()
                  if (p.suffix == ".out" and not p.name.startswith("generate"))
                  or p.name in ("front.csv", "front.dat"))
