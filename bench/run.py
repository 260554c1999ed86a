"""grouprobe benchmark: run one workload for one seed and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload train-serial --seed 0 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each exists): train-serial,
recon-serial, sweep-pooled, data-io.  bench/README.md describes the
metrics, the machine and the baseline.

A run writes the seed's inputs under .bench_out/, then runs passes, each in
a fresh interpreter (bench/passrun.py), so CPU time and peak memory come
from getrusage of that pass alone.  A pass sets up (import, config load and
validation: setup_s) and then times REPS_PER_PASS repetitions of the
workload, each writing its own outputs, which are all checked
(bench/check.py).  Passes follow one another until --seconds have passed
and at least MIN_PASSES have run.  For sweep-pooled, one serial repetition
runs first: every pooled repetition must match it byte for byte.

Times are reported at reference speed.  This machine shares its cores with
other tenants, and its speed drifts by tens of percent within minutes.
Each pass runs a fixed calibration loop (passrun.calibrate, on as many
processes as the pool uses) before its first and after every repetition.
A pass's speed is CALIBRATION_REF_S over the median of its calibration
times, and its repetitions' and set-up's reference-speed times are their
measured times multiplied by that speed.  The unscaled medians are printed
too, and are per-layer metrics (raw.*).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced single-repetition passes and reports per-layer metrics
from the traced ones; traced passes always run serial, because spans inside
pool workers would be lost.  It also writes the span CSV of the last traced
pass and the per-layer table next to the outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count checked units:
training runs, aggregate files, CLI commands, pool determinism and trace
consistency (see bench/check.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
MIN_PASSES = 3
REPS_PER_PASS = 3
PASS_TIMEOUT_S = 60
# a run stops starting passes this long after --seconds, even short of MIN_PASSES
RUN_GRACE_S = 60

# Typical wall seconds of passrun.calibrate() on the 2-vCPU x86-64 KVM guest
# this benchmark was written on (Python 3.11, numpy 2.4 on OpenBLAS).  Any
# fixed value works: it only sets the scale of the reference-speed times.
CALIBRATION_REF_S = 0.15

END_TO_END = {
    "wall_ref_s": "s",
    "cpu_ref_s": "s",
    "items_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layers run once or more per SGD step: reported per step as well.
STEP_LAYERS = [
    "synthgen.LabeledDataset.take", "synthgen.AuxDataset.take",
    "optim.heterogeneous_batches.next", "optim.sgd_step", "optim.train",
    "linmodel.project_l1", "linmodel.rescale_l1", "linmodel.normalize_frobenius",
    "linmodel.ModelParams.feasible", "linmodel.ModelParams.copy",
    "objectives.end_loss", "objectives.recon_loss", "objectives.multitask_loss",
    "objectives.activation_l1_penalty",
]
CALL_LAYERS = [
    "synthgen.sample", "synthgen.io.write", "synthgen.io.read",
    "baselines.train_erm", "baselines.train_jtt", "baselines.train_group_dro",
    "baselines.train_reg_mtl", "baselines.train_aux_only",
    "evalsel.evaluate", "evalsel.select_checkpoint", "evalsel.pareto_front",
    "experiments.config_load", "experiments.run_cell", "experiments.artifact_write",
    "oracle.finite_diff_param_grads", "oracle.normal_cdf_inv",
    "cli.generate", "cli.eval", "cli.pareto", "cli.bound", "cli.grad-check",
]
EXTRA_LAYER_METRICS = {
    "synthgen.io.write.bytes": "bytes",
    "optim.steps": "count",
    "optim.steps_expected": "count",
    "optim.epochs": "count",
    "optim.us_per_step": "us",
    "linmodel.project_l1.active_frac": "ratio",
    "experiments.artifact_write.bytes": "bytes",
    "experiments.pool.workers": "count",
    "experiments.pool.efficiency": "ratio",
    "raw.wall_s": "s",
    "raw.cpu_s": "s",
    "raw.setup_s": "s",
    "calibration.speed": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
    "trace.missing": "count",
    "check.bytes_identical": "count",
    "check.files_compared": "count",
    "check.fail_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in STEP_LAYERS + CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in STEP_LAYERS:
            units[f"{layer}.us_per_step"] = "us"
    units.update(EXTRA_LAYER_METRICS)
    return units


# -- passes ---------------------------------------------------------------------


def pass_env(serial: bool) -> dict:
    """The program's environment: this checkout's source, one BLAS/OpenMP
    thread per process, and an explicit pool size for serial passes."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GROUPROBE_WORKERS", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if serial:
        env["GROUPROBE_WORKERS"] = "1"
    return env


def run_pass(spec: dict, spec_path: Path, serial: bool) -> tuple[dict | None, str]:
    """Run one pass; returns (result or None, stderr tail).  The result
    gains setup_s: fresh interpreter start to config loaded and validated."""
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    result_path = spec_path.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    # a session of its own, so a pass that hangs is killed with its pool workers
    proc = subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "passrun.py"), str(spec_path)],
        cwd=ROOT, env=pass_env(serial), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"pass timed out after {PASS_TIMEOUT_S} s"
    tail = stderr[-2000:]
    if proc.returncode != 0 or not result_path.exists():
        return None, tail
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    return result, tail


def rep_items(wl: workloads.Workload, seed: int, d: Path) -> int:
    """Work items of one repetition: SGD steps, or dataset rows written plus parsed."""
    if wl.kind != "cli":
        return wl.expected_steps(seed)
    try:
        with open(d / "front.csv") as fh:
            front = sum(1 for _ in fh) - 1
    except OSError:
        front = 0
    # generate writes N rows twice, eval parses them twice, pareto parses
    # the point file and writes the front to CSV and to .dat
    return 4 * workloads.IO_ROWS + workloads.IO_POINTS + 2 * front


def add_speed(result: dict) -> None:
    """A pass's machine speed: the calibration loop's nominal time over the
    median of the pass's calibration times."""
    result["speed"] = CALIBRATION_REF_S / statistics.median(result["calibration_s"])


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Medians over the timed repetitions (set-up: over passes) of times
    taken at reference speed."""
    reps = [(r, p["speed"]) for p in plain for r in p["reps"]]
    return {
        "wall_ref_s": statistics.median(r["wall_s"] * f for r, f in reps),
        "cpu_ref_s": statistics.median(r["cpu_s"] * f for r, f in reps),
        "items_per_ref_s": statistics.median(r["items"] / (r["wall_s"] * f) for r, f in reps),
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024.0,
    }


def load_reference(name: str) -> dict[str, dict[str, str]]:
    """Recorded outputs of a workload: seed -> relative path -> text."""
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# -- one run --------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bytes_identical = 0
        self.files_compared = 0
        self.problems: list[str] = []

    def add(self, label: str, outcome: check.Outcome) -> None:
        self.attempted += len(outcome.units)
        self.failed += len(outcome.failed)
        self.bytes_identical += outcome.bytes_identical
        self.files_compared += outcome.files_compared
        for unit, reason in outcome.failed.items():
            self.problems.append(f"{label}: {unit}: {reason}")


def measure(name: str, seed: int, seconds: float, trace: bool, after_pass=None) -> dict:
    """Run one workload; returns the result object printed as the last line,
    plus 'report' (human-readable lines) and 'passes' (raw pass results).

    after_pass(spec, result), when given, runs after each pass process ends
    and before its outputs are checked (the self-test corrupts outputs there).
    """
    wl = workloads.WORKLOADS[name]
    work = OUT_ROOT / name / f"seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = wl.prepare(seed, work / "inputs")
    ref = load_reference(name).get(str(seed), {})
    tally = Tally()
    serial_dir = None

    def one_pass(idx: int, kind: str):
        serial = kind != "plain" or not wl.pooled
        spec = {"kind": wl.kind, "trace": kind == "traced", "out": str(work / f"pass{idx:02d}"),
                "reps": REPS_PER_PASS if kind == "plain" else 1,
                "span_file": str(work / "spans.csv"), **inputs}
        result, err = run_pass(spec, work / f"pass{idx:02d}.spec.json", serial)
        if after_pass is not None:
            after_pass(spec, result)
        reps = result["reps"] if result is not None else [None] * spec["reps"]
        for k, rep in enumerate(reps):
            d = Path(spec["out"]) / f"rep{k}"
            outcome = check.check_rep(wl, seed, d, rep, inputs, ref,
                                      None if serial else serial_dir)
            if rep is not None:
                rep["items"] = rep_items(wl, seed, d)
            tally.add(f"pass{idx:02d}/rep{k}", outcome)
        if result is None:
            failed = check.Outcome(units=["pass"])
            failed.fail("pass", err.strip().splitlines()[-1] if err.strip() else "no result")
            tally.add(f"pass{idx:02d}", failed)
        else:
            add_speed(result)
            if kind == "traced":
                tally.add(f"pass{idx:02d}", _trace_consistency(wl, seed, result))
        return spec, result

    if wl.pooled:
        # the serial run every pooled repetition must match byte for byte
        spec0, _ = one_pass(0, "serial-reference")
        serial_dir = Path(spec0["out"]) / "rep0"
    if trace:
        cycle = ["plain", "serial", "traced"] if wl.pooled else ["plain", "traced"]
    else:
        cycle = ["plain"]
    runs: dict[str, list[dict]] = {k: [] for k in cycle}
    t_start = time.monotonic()
    idx = 1
    while True:
        kind = cycle[(idx - 1) % len(cycle)]
        spec, result = one_pass(idx, kind)
        if result is not None:
            runs[kind].append(result)
        shutil.rmtree(spec["out"], ignore_errors=True)
        elapsed = time.monotonic() - t_start
        enough = all(len(v) >= MIN_PASSES for v in runs.values())
        if elapsed >= seconds + RUN_GRACE_S or (
                elapsed >= seconds and enough and idx % len(cycle) == 0):
            break
        idx += 1

    report: list[str] = []
    metrics: dict[str, dict] = {}
    plain = runs["plain"]
    if plain:
        e2e = end_to_end(plain)
        reps = [r for p in plain for r in p["reps"]]
        report.append(f"{name} seed {seed}: {len(reps)} timed repetitions in {len(plain)} passes; "
                      f"{reps[0]['items']} items and {plain[0]['workers']} worker(s) per repetition; "
                      f"machine speed {statistics.median(p['speed'] for p in plain):.3f}")
        for key, value in e2e.items():
            report.append(f"  {key:<16} {value:.6g} {END_TO_END[key]}")
        raw = " ".join(f"{r['wall_s']:.3f}" for r in reps)
        report.append(f"  raw wall_s per repetition: {raw}")
        cal = " ".join(f"{c:.3f}" for p in plain for c in p["calibration_s"])
        report.append(f"  calibration_s per sample: {cal}")
        if not trace:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        layer_metrics, table = _layer_metrics(wl, seed, runs, tally)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        (work / "layers.txt").write_text("\n".join(table) + "\n")
        report += table
        report.append(f"spans of the last traced pass: {work / 'spans.csv'}")
    for p in tally.problems[:20]:
        report.append(f"FAILED {p}")
    return {
        "correct": tally.failed == 0 and bool(plain),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "report": report,
        "passes": runs,
    }


def _trace_consistency(wl, seed, result) -> check.Outcome:
    """Traced step and epoch counts must equal the config's, exactly."""
    out = check.Outcome()
    if wl.kind == "cli":
        return out
    out.units.append("trace_consistency")
    steps, epochs = _steps_of(result["trace"]), _epochs_of(result["trace"])
    want = (wl.expected_steps(seed), wl.expected_epochs(seed))
    if (steps, epochs) != want:
        out.fail("trace_consistency", f"traced {steps} SGD steps in {epochs} epochs, "
                 f"config gives {want[0]} in {want[1]}")
    return out


def _steps_of(trace: dict) -> int:
    return trace["stats"].get("optim.sgd_step", [0])[0]


def _epochs_of(trace: dict) -> int:
    """train() draws one batch iterator per epoch."""
    return trace["counters"].get("optim.heterogeneous_batches.next.iterators", 0)


def _median_stat(traced: list[dict], layer: str, col: int) -> float:
    return statistics.median(r["trace"]["stats"].get(layer, [0, 0, 0])[col] for r in traced) / 1e9


def _rep_wall(passes: list[dict]) -> float:
    return statistics.median(r["wall_s"] for p in passes for r in p["reps"])


def _layer_metrics(wl, seed, runs, tally: Tally):
    traced = runs["traced"]
    units = per_layer_units()
    values: dict[str, float] = {k: 0.0 for k in units}
    table = []
    if traced:
        last = traced[-1]["trace"]
        stats = last["stats"]
        steps = _steps_of(last)
        for layer in STEP_LAYERS + CALL_LAYERS:
            self_s = _median_stat(traced, layer, 1)
            values[f"{layer}.calls"] = stats.get(layer, [0])[0]
            values[f"{layer}.self_s"] = self_s
            if layer in STEP_LAYERS:
                values[f"{layer}.us_per_step"] = self_s * 1e6 / steps if steps else 0.0
        counters = last["counters"]
        values["synthgen.io.write.bytes"] = counters.get("synthgen.io.write.bytes", 0)
        values["experiments.artifact_write.bytes"] = counters.get("experiments.artifact_write.bytes", 0)
        values["optim.steps"] = steps
        values["optim.steps_expected"] = wl.expected_steps(seed)
        values["optim.epochs"] = _epochs_of(last)
        train_total = _median_stat(traced, "optim.train", 2)
        values["optim.us_per_step"] = train_total * 1e6 / steps if steps else 0.0
        calls = stats.get("linmodel.project_l1", [0])[0]
        values["linmodel.project_l1.active_frac"] = (
            counters.get("linmodel.project_l1.active", 0) / calls if calls else 0.0)
        traced_wall = _rep_wall(traced)
        values["trace.wall_s"] = traced_wall
        untraced = runs.get("serial") or runs["plain"]
        if untraced:
            values["trace.overhead_frac"] = traced_wall / _rep_wall(untraced) - 1.0
        uncovered = statistics.median(
            r["reps"][0]["wall_s"] - r["trace"]["covered_s"] for r in traced)
        values["trace.uncovered_s"] = uncovered
        values["trace.missing"] = len(last["missing"])
        table = _layer_table(wl.name, traced, traced_wall, steps, uncovered, last["missing"])
    plain = runs["plain"]
    if plain:
        values["raw.wall_s"] = _rep_wall(plain)
        values["raw.cpu_s"] = statistics.median(r["cpu_s"] for p in plain for r in p["reps"])
        values["raw.setup_s"] = statistics.median(p["setup_s"] for p in plain)
        values["calibration.speed"] = statistics.median(p["speed"] for p in plain)
        workers = plain[-1]["workers"]
        values["experiments.pool.workers"] = workers
        values["experiments.pool.efficiency"] = statistics.median(
            r["cpu_s"] / (r["wall_s"] * workers) for p in plain for r in p["reps"])
    values["check.bytes_identical"] = tally.bytes_identical
    values["check.files_compared"] = tally.files_compared
    values["check.fail_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    return {k: (values[k], u) for k, u in units.items()}, table


def _layer_table(name, traced, traced_wall, steps, uncovered, missing) -> list[str]:
    stats = traced[-1]["trace"]["stats"]
    self_s = {layer: _median_stat(traced, layer, 1) for layer in stats}
    head = [f"{name}: self time per layer, median of {len(traced)} traced repetitions "
            f"({traced_wall:.3f} s wall, {steps} SGD steps)",
            f"  {'layer':<36} {'calls':>9} {'self_s':>10} {'share':>7} {'us/step':>10}"]
    rows = []
    for layer in sorted(stats, key=lambda k: -self_s[k]):
        per_step = f"{self_s[layer] * 1e6 / steps:10.2f}" if steps else f"{'-':>10}"
        rows.append(f"  {layer:<36} {stats[layer][0]:>9} {self_s[layer]:10.4f} "
                    f"{100 * self_s[layer] / traced_wall:6.1f}% {per_step}")
    tail = [f"  {'(not covered by any span)':<36} {'':>9} {uncovered:10.4f} "
            f"{100 * uncovered / traced_wall:6.1f}%"]
    if missing:
        tail.append(f"  wrappers not installed: {', '.join(missing)}")
    return head + rows + tail


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "grouprobe" / "__init__.py").is_file():
        print(f"error: no grouprobe source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    res.pop("passes")
    for line in res.pop("report"):
        print(line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
