"""Golden-output regression test.

Cut-down copies of four named recipes (one seed, 15 epochs), run serially
and with two and three workers, must write artifacts whose sha256 hashes
match the ones recorded in `golden_sha256.json`.  So must the `grad-check` report at three seeds and
the `pareto` front files of a generated 10,000-point sweep file.  A
refactor that claims unchanged behaviour passes this test unmodified; a
change that alters outputs on purpose re-records the hashes with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change log.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from grouprobe import experiments
from grouprobe.cli import main, run_grad_check
from grouprobe.evalsel import PARETO_CSV_COLUMNS
from grouprobe.experiments import SWEEP_RECIPES, recipe_config, run_experiment, run_sweep

GOLDEN = Path(__file__).with_name("golden_sha256.json")
RECIPES = ("table2", "baselines", "fig3", "pareto-default")
SEED = 0
EPOCHS = 15
JTT_ID_EPOCHS = 5
GRAD_CHECK_SEEDS = (1, 7, 23)
GRAD_CHECK_TRIALS = 20
PARETO_POINTS = 10_000


def cut_down(name: str) -> dict:
    doc = recipe_config(name)
    doc["seeds"] = [SEED]
    if name in SWEEP_RECIPES:
        doc["base"]["epochs"] = EPOCHS
        return doc
    for run in doc["runs"]:
        run["optim"]["epochs"] = EPOCHS
        if "jtt" in run:
            run["jtt"]["id_epochs"] = JTT_ID_EPOCHS
    return doc


def _covered(rel: str) -> bool:
    # the byte-identical contract: per-run artifacts and summary files
    top = rel.split("/", 1)[0]
    return top in ("runs", "traces", "params") or rel == "summary.csv" or rel.startswith("sweep_")


def artifact_hashes(name: str, out: Path) -> dict[str, str]:
    """Run the cut-down recipe serially into `out`; sha256 of each covered file."""
    doc = cut_down(name)
    if name in SWEEP_RECIPES:
        run_sweep(doc, out)
    else:
        run_experiment(doc, out)
    hashes = {}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.is_file() and _covered(rel):
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_every_named_recipe_has_golden_hashes():
    assert set(RECIPES) == set(experiments.RECIPES)


# serial, and at 2 and 3 workers, where each lane group trains in two or
# three chunks: the first in this process, the others in pool processes
@pytest.mark.parametrize("workers,name", [
    pytest.param(workers, name, id=name if workers == "1" else f"{name}-workers{workers}")
    for workers in ("1", "2", "3") for name in RECIPES])
def test_artifacts_match_golden(workers, name, tmp_path, monkeypatch):
    monkeypatch.setenv("GROUPROBE_WORKERS", workers)
    want = json.loads(GOLDEN.read_text())[name]
    got = artifact_hashes(name, tmp_path)
    assert sorted(got) == sorted(want), "artifact file set changed"
    changed = [rel for rel in want if got[rel] != want[rel]]
    assert not changed, f"{len(changed)} of {len(want)} artifacts differ: {changed[:5]}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grad_check_hashes() -> dict[str, str]:
    """sha256 of the `grad-check` JSON report, as the CLI prints it, per seed."""
    return {f"seed{seed}.json": _sha256(json.dumps(run_grad_check(GRAD_CHECK_TRIALS, seed),
                                                   indent=1).encode())
            for seed in GRAD_CHECK_SEEDS}


def pareto_hashes(out: Path) -> dict[str, str]:
    """Run `pareto` on a generated sweep file; sha256 of the front CSV and plot.

    Accuracies on a 1/500 grid make equal-avg buckets, ties in wg and exact
    duplicates common; wg falls as avg rises, so the front is long."""
    rng = np.random.default_rng(5)
    avg = rng.integers(250, 476, size=PARETO_POINTS) / 500
    drop = np.round(np.abs(rng.normal(0.0, 0.02, PARETO_POINTS)) * 500) / 500
    wg = np.clip(1.4 - avg - drop, 0.0, 1.0)
    tags = rng.integers(0, 2, size=(PARETO_POINTS, 3))
    lines = [",".join(PARETO_CSV_COLUMNS)]
    lines += [f"{a!r},{w!r},reg_mtl,{(0.5, 2.0)[i]!r},{(0.5, 2.0)[j]!r},0.1,{(0.01, 0.001)[k]!r},"
              f"{(64, 256)[i]}" for a, w, (i, j, k) in zip(avg.tolist(), wg.tolist(), tags.tolist())]
    src = out / "points.csv"
    src.write_text("\n".join(lines) + "\n")
    front, plot = out / "front.csv", out / "front.dat"
    assert main(["pareto", "--input", str(src), "--front", str(front), "--plot", str(plot)]) == 0
    return {p.name: _sha256(p.read_bytes()) for p in (front, plot)}


def test_grad_check_report_matches_golden():
    assert grad_check_hashes() == json.loads(GOLDEN.read_text())["grad-check"]


def test_pareto_front_files_match_golden(tmp_path):
    assert pareto_hashes(tmp_path) == json.loads(GOLDEN.read_text())["pareto-cli"]


def record() -> None:
    os.environ["GROUPROBE_WORKERS"] = "1"
    golden = {}
    for name in RECIPES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = artifact_hashes(name, Path(tmp))
    golden["grad-check"] = grad_check_hashes()
    with tempfile.TemporaryDirectory() as tmp:
        golden["pareto-cli"] = pareto_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} hashes to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
