"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/passrun.py SPEC.json

The spec (written by run.py) names the workload kind, its prepared inputs,
the output directory, the number of repetitions and whether to trace.  The
pass imports grouprobe and loads and validates the workload config
(set-up), then runs the workload `reps` times, each repetition timed on
its own and writing to its own directory, with the calibration loop before
the first and after every repetition.  It writes a result JSON next to the
spec: the monotonic time set-up ended, wall and CPU seconds of each
repetition (CPU includes pool workers, which the pool reaps before a
repetition ends), calibration times, peak resident memory, the pool size,
CLI exit codes, and, when tracing, per-layer statistics.  Spans go to a
CSV file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


CALIBRATION_STEPS = 700
CALIBRATION_ROWS = 100


@dataclass(frozen=True)
class _Batch:
    """A validated, read-only minibatch, built the way Python data classes
    of this kind usually are: copy, check labels row by row, lock."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        if not np.isin(y, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        code = {-1: 0, 1: 1}
        np.fromiter((code[int(v)] for v in y), dtype=np.int64, count=len(y))
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _shuffled(n: int, rng):
    while True:
        yield from rng.permutation(n)


def calibrate() -> float:
    """Wall seconds of a fixed loop that does the same kinds of work as the
    program: a synthetic SGD step (a Python index stream, a validated
    minibatch object, small-array numpy math, an L1 rescale) and CSV text
    written and parsed back.  It never calls the program, so a faster
    program leaves it unchanged; run.py divides a nominal time by it to get
    the machine's speed during a pass."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1000, 2))
    Y = np.where(rng.normal(size=1000) > 0, 1, -1)
    a = np.array([0.05, 0.05])
    w = np.array([0.1, -0.1])
    stream = _shuffled(1000, np.random.default_rng(1))
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        idx = np.fromiter(itertools.islice(stream, 64), dtype=np.int64)
        b = _Batch(X[idx], Y[idx])
        z = (b.x * a) @ w
        float(np.logaddexp(0.0, -b.y * z).mean())
        g = (b.x * w).T @ (-b.y / (1.0 + np.exp(b.y * z))) / 64
        a = a - 1e-3 * g
        s = np.abs(a).sum()
        if s > 0.1:
            a = a * (0.1 / s)
    for k in range(CALIBRATION_ROWS):
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in X[k:k + 64]:
            writer.writerow([repr(float(v)) for v in row])
        [[float(v) for v in r] for r in csv.reader(io.StringIO(buf.getvalue()))]
    return time.perf_counter() - t0


class Calibration:
    """Runs calibrate() on as many processes at once as the workload keeps
    busy, so a pooled pass measures the machine's speed with all its pool's
    cores loaded.  The helper processes live for the whole pass and sit idle
    while a repetition runs; they are reaped after the last repetition, so
    their CPU time never reaches a repetition's cpu_s."""

    def __init__(self, processes: int):
        self.helpers = processes - 1
        self.pool = None
        if self.helpers > 0:
            self.pool = multiprocessing.get_context("spawn").Pool(self.helpers)

    def sample(self) -> float:
        if self.pool is None:
            return calibrate()
        helpers = [self.pool.apply_async(calibrate) for _ in range(self.helpers)]
        mine = calibrate()
        return statistics.fmean([mine] + [h.get() for h in helpers])

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(own.ru_maxrss, kids.ru_maxrss)


@contextlib.contextmanager
def _span(tracer, name, new_trace=False):
    if tracer is None:
        yield
    else:
        with tracer.span(name, new_trace):
            yield


def _setup_experiment(spec, tracer):
    from grouprobe import ExperimentConfig, run_experiment

    cfgs = []
    for path, sub in spec["configs"]:
        with _span(tracer, "experiments.config_load"):
            cfgs.append((ExperimentConfig.load(path), sub))

    def body(dest: Path):
        for cfg, sub in cfgs:
            run_experiment(cfg, str(dest / sub))
        return {}

    return body


def _setup_sweep(spec, tracer):
    from grouprobe import SweepGrid, run_sweep

    with _span(tracer, "experiments.config_load"):
        grid = SweepGrid.load(spec["grid"])

    def body(dest: Path):
        run_sweep(grid, str(dest))
        return {}

    return body


def _setup_cli(spec, tracer):
    from grouprobe import cli

    def argv_for(argv, dest):
        return [a.replace("{in}", spec["in_dir"]).replace("{out}", str(dest)) for a in argv]

    parser = cli.build_parser()
    with _span(tracer, "experiments.config_load"):
        for _name, argv in spec["commands"]:
            parser.parse_args(argv_for(argv, Path(spec["out"])))

    def body(dest: Path):
        dest.mkdir(parents=True, exist_ok=True)
        results = []
        for name, argv in spec["commands"]:
            argv = argv_for(argv, dest)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), _span(tracer, "cli." + argv[0], True):
                try:
                    rc = cli.main(argv)
                except Exception as e:  # a traceback is a failed command, not a failed pass
                    print(f"{name}: {type(e).__name__}: {e}", file=sys.stderr)
                    rc = -1
            results.append([name, rc])
            (dest / f"{name}.out").write_text(buf.getvalue())
        return {"commands": results}

    return body


SETUPS = {"experiment": _setup_experiment, "sweep": _setup_sweep, "cli": _setup_cli}


def main(spec_path: str) -> int:
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    import grouprobe  # noqa: F401  (set-up includes the import)

    if tracer is not None:
        tracer.install()
    body = SETUPS[spec["kind"]](spec, tracer)
    t_ready = time.monotonic()

    try:
        from grouprobe.experiments import n_workers

        workers = n_workers() if spec["kind"] != "cli" else 1
    except ImportError:
        workers = 1

    calib = Calibration(workers)
    calibration = [calib.sample()]
    reps = []
    for k in range(spec["reps"]):
        dest = out / f"rep{k}"
        if tracer is not None:
            tracer.reset_root()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        extra = body(dest)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        calibration.append(calib.sample())
        reps.append({"out": str(dest), "wall_s": wall, "cpu_s": cpu, **extra})
    calib.close()

    result = {
        "t_ready": t_ready,
        "peak_rss_kb": _peak_rss_kb(),
        "workers": workers,
        "calibration_s": calibration,
        "reps": reps,
    }
    if tracer is not None:
        from tracer import write_spans

        result["trace"] = {
            "stats": tracer.stats,
            "counters": tracer.counters,
            "missing": tracer.missing,
            "covered_s": tracer.root_ns / 1e9,
        }
        write_spans(tracer.spans, spec["span_file"])
    spec_file.with_suffix(".result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
