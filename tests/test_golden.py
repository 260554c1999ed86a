"""Golden-output regression test.

Cut-down copies of four named recipes (one seed, 15 epochs, serial) must
write artifacts whose sha256 hashes match the ones recorded in
`golden_sha256.json`.  A refactor that claims unchanged behaviour passes
this test unmodified; a change that alters outputs on purpose re-records the
hashes with

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

import pytest

from grouprobe.experiments import SWEEP_RECIPES, recipe_config, run_experiment, run_sweep

GOLDEN = Path(__file__).with_name("golden_sha256.json")
RECIPES = ("table2", "baselines", "fig3", "pareto-default")
SEED = 0
EPOCHS = 15
JTT_ID_EPOCHS = 5


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


@pytest.mark.parametrize("name", RECIPES)
def test_artifacts_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.setenv("GROUPROBE_WORKERS", "1")
    want = json.loads(GOLDEN.read_text())[name]
    got = artifact_hashes(name, tmp_path)
    assert sorted(got) == sorted(want), "artifact file set changed"
    changed = [rel for rel in want if got[rel] != want[rel]]
    assert not changed, f"{len(changed)} of {len(want)} artifacts differ: {changed[:5]}"


def record() -> None:
    os.environ["GROUPROBE_WORKERS"] = "1"
    golden = {}
    for name in RECIPES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = artifact_hashes(name, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} hashes to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
