"""The benchmark's own step and epoch count, run as a unit test.

A traced benchmark pass reads `correct` only when its `optim.sgd_step`
calls and its `optim.heterogeneous_batches` iterators equal the step and
epoch counts its configs give (`bench/run.py::_trace_consistency`).  This
test makes that same count on the seed-0 configs of the three training
workloads, serially: it imports `bench/tracer.py` and `bench/workloads.py`
without changing them, in a fresh interpreter, because installing the
tracer rebinds functions of the program for the life of the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COUNT = r"""
import json, sys
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

tracer = Tracer()
import grouprobe  # noqa: F401  (the modules the tracer wraps)
from grouprobe import ExperimentConfig, SweepGrid, run_experiment, run_sweep

tracer.install()
out, counts = Path(sys.argv[1]), {}
for name in ("train-serial", "recon-serial", "sweep-pooled"):
    wl, seed = WORKLOADS[name], 0
    spec = wl.prepare(seed, out / name / "in")
    before = (tracer.stats.get("optim.sgd_step", [0])[0],
              tracer.counters.get("optim.heterogeneous_batches.next.iterators", 0))
    if wl.kind == "sweep":
        run_sweep(SweepGrid.load(spec["grid"]), str(out / name / "out"))
    for path, sub in spec.get("configs", []):
        run_experiment(ExperimentConfig.load(path), str(out / name / "out" / sub))
    counts[name] = {
        "steps": tracer.stats.get("optim.sgd_step", [0])[0] - before[0],
        "epochs": tracer.counters.get("optim.heterogeneous_batches.next.iterators", 0) - before[1],
        "expected_steps": wl.expected_steps(seed),
        "expected_epochs": wl.expected_epochs(seed),
    }
print(json.dumps({"counts": counts, "missing": tracer.missing}))
"""


def test_traced_steps_and_epochs_equal_the_benchmark_configs(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GROUPROBE_WORKERS")}
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]),
               GROUPROBE_WORKERS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", COUNT, str(tmp_path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "grouprobe.optim.sgd_step" not in report["missing"]
    counts = report["counts"]
    assert {name: (c["expected_steps"], c["expected_epochs"]) for name, c in counts.items()} == {
        "train-serial": (1936, 121), "recon-serial": (4000, 400), "sweep-pooled": (1920, 192)}
    for name, c in counts.items():
        assert (c["steps"], c["epochs"]) == (c["expected_steps"], c["expected_epochs"]), name
