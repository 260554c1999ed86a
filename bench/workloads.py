"""The benchmark's workloads: inputs made from a seed, and what a pass runs.

Every input the program sees is written here, as a JSON config, a params
file or a point CSV, from the workload seed alone.  The configs copy the
cells of the named recipes (`table2`, `baselines`, `fig3`,
`pareto-default`) and their shared data distribution, with fewer epochs
and one run seed, so that a pass takes a few seconds.  They are literal
copies, not calls into the recipes, so the workloads stay fixed when a
later change edits the recipes.

This module imports nothing from the program; the parent process uses it
to prepare inputs and to know the exact counts a pass must produce.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The recipes' shared data distribution (BENCH_DATA, BENCH_VAL and the test
# block size in grouprobe.experiments).
DATA = {"d_c": 1, "d_s": 1, "sigma2_core": 0.6, "sigma2_spur": 0.1,
        "n_maj": 900, "n_min": 100, "sigma2_noise": 1.0}
VAL = {"n_maj": 90, "n_min": 10}
TEST_N_PER_GROUP = 250
N_TRAIN = DATA["n_maj"] + DATA["n_min"]

# Repetition sizes: each takes 0.5-1 s on a 2-core x86-64 box, so a run of
# BENCHMARK.json's run_seconds holds about twenty of them.
TRAIN_EPOCHS = 15
RECON_EPOCHS = 50
SWEEP_EPOCHS = 12
IO_ROWS = 30_000
IO_POINTS = 10_000
IO_BOUND_COMMANDS = 10
IO_GRAD_TRIALS = 20


def _optim(lr, batch, epochs):
    return {"learning_rate": lr, "batch_size": batch, "epochs": epochs,
            "patience": 0, "momentum": 0.0}


def _experiment(name, seed, selection, runs):
    return {
        "schema": 1,
        "name": name,
        "data": dict(DATA),
        "val": dict(VAL),
        "test": {"n_per_group": TEST_N_PER_GROUP, "seed": 1000 + seed},
        "selection": selection,
        "seeds": [seed],
        "runs": runs,
    }


def table2_config(seed: int, epochs: int = TRAIN_EPOCHS) -> dict:
    """The four `table2` cells: ERM and reg_mtl at tau 0.1 and 10 (L1 ball)."""
    runs = [{"tag": f"end_only_tau{tau:g}", "method": "erm", "tau": tau,
             "optim": _optim(0.001, 64, epochs), "weights": {"lambda_l2": 1.0}}
            for tau in (0.1, 10.0)]
    runs += [{"tag": f"reg_mtl_tau{tau:g}", "method": "reg_mtl", "tau": tau,
              "optim": _optim(0.01, 64, epochs),
              "weights": {"alpha_aux": 10.0, "alpha_reg": 0.0, "lambda_l2": 1.0}}
             for tau in (0.1, 10.0)]
    return _experiment("table2", seed, "no_gp", runs)


def baselines_config(seed: int, epochs: int = TRAIN_EPOCHS) -> dict:
    """The four `baselines` cells: unconstrained ERM, JTT, group DRO, and
    reg_mtl at tau 0.1 on the L1 sphere."""
    runs = [
        {"tag": "erm", "method": "erm", "optim": _optim(0.001, 64, epochs),
         "weights": {"lambda_l2": 1.0}},
        {"tag": "jtt", "method": "jtt", "optim": _optim(0.001, 64, epochs),
         "weights": {"lambda_l2": 1.0},
         "jtt": {"id_epochs": max(1, epochs // 10), "upweight": 20.0}},
        {"tag": "group_dro", "method": "group_dro", "optim": _optim(0.01, 64, epochs),
         "weights": {"lambda_l2": 1.0}, "group_dro": {"group_step": 0.05}},
        {"tag": "reg_mtl_tau0.1", "method": "reg_mtl", "tau": 0.1, "l1_boundary": True,
         "optim": _optim(0.001, 64, epochs),
         "weights": {"alpha_aux": 10.0, "alpha_reg": 0.0, "lambda_l2": 1.0}},
    ]
    return _experiment("baselines", seed, "val_gp", runs)


def fig3_config(seed: int, epochs: int = RECON_EPOCHS) -> dict:
    """The eight `fig3` cells: aux_only on the L1 sphere with dense init,
    tau 0.1 and 10, lr 0.01 and 0.001, batch 64 and 256."""
    runs = [{"tag": f"aux_only_tau{tau:g}_lr{lr:g}_b{batch}", "method": "aux_only",
             "tau": tau, "l1_boundary": True, "optim": _optim(lr, batch, epochs),
             "weights": {}}
            for tau in (0.1, 10.0) for lr in (0.01, 0.001) for batch in (64, 256)]
    return _experiment("fig3", seed, "no_gp", runs)


def sweep_grid(seed: int, epochs: int = SWEEP_EPOCHS) -> dict:
    """`pareto-default` cut to the corners of its weight grid: 16 reg_mtl
    cells, every one with alpha_reg > 0, at batch 64 and 256."""
    e = math.e
    return {
        "schema": 1,
        "name": "pareto-cut",
        "data": dict(DATA),
        "val": dict(VAL),
        "test": {"n_per_group": TEST_N_PER_GROUP, "seed": 1000 + seed},
        "selection": "val_gp",
        "seeds": [seed],
        "method": "reg_mtl",
        "base": {"epochs": epochs, "patience": 0, "momentum": 0.0, "lambda_l2": 1.0},
        "grid": {
            "alpha_aux": [1.0 / e, e],
            "alpha_reg": [1.0 / e, e],
            "tau": [0.1],
            "learning_rate": [0.01, 0.001],
            "batch_size": [64, 256],
        },
    }


def sweep_cells(grid: dict) -> list[dict]:
    """Expand a grid in the program's documented order (cell0000, cell0001, ...)."""
    axes = ("alpha_aux", "alpha_reg", "tau", "learning_rate", "batch_size")
    cells = [{}]
    for axis in axes:
        cells = [dict(c, **{axis: v}) for c in cells for v in grid["grid"][axis]]
    return cells


def sweep_as_experiment(grid: dict) -> dict:
    """The experiment config the sweep grid stands for, for expected counts."""
    runs = [{"tag": f"cell{i:04d}", "method": grid["method"], "tau": c["tau"],
             "optim": _optim(c["learning_rate"], c["batch_size"], grid["base"]["epochs"]),
             "weights": {"alpha_aux": c["alpha_aux"], "alpha_reg": c["alpha_reg"],
                         "lambda_l2": grid["base"]["lambda_l2"]}}
            for i, c in enumerate(sweep_cells(grid))]
    return _experiment(grid["name"], grid["seeds"][0], grid["selection"], runs)


def run_epochs(run: dict) -> int:
    """Epochs of SGD one run makes; JTT's identification stage counts too."""
    epochs = run["optim"]["epochs"]
    if run["method"] == "jtt":
        epochs += run["jtt"]["id_epochs"]
    return epochs


def run_steps(run: dict) -> int:
    """SGD steps of one run.  Every stream has N_TRAIN rows (the aux stream
    reuses the train features), so each epoch has ceil(N_TRAIN / batch)."""
    return run_epochs(run) * math.ceil(N_TRAIN / run["optim"]["batch_size"])


# -- data-io ----------------------------------------------------------------


def _data_flags(n_rows: int) -> list[str]:
    return ["--dc", str(DATA["d_c"]), "--ds", str(DATA["d_s"]),
            "--sigma2-core", repr(DATA["sigma2_core"]), "--sigma2-spur", repr(DATA["sigma2_spur"]),
            "--n-maj", str(n_rows * 9 // 10), "--n-min", str(n_rows // 10),
            "--sigma2-noise", repr(DATA["sigma2_noise"])]


def io_params(rng: random.Random) -> dict:
    """Feasible model params: ||a||_1 <= tau = 0.1 and ||W_aux||_F = 1."""
    a = [rng.uniform(0.01, 0.06), rng.uniform(0.0, 0.04)]
    w = [rng.gauss(1.0, 0.3), rng.gauss(0.5, 0.3)]
    W = [[rng.gauss(0, 1) for _ in range(2)] for _ in range(2)]
    norm = math.sqrt(sum(v * v for row in W for v in row))
    return {"a": a, "w_end": w, "W_aux": [[v / norm for v in row] for row in W],
            "tau": 0.1, "fro_radius": 1.0}


def io_points(rng: random.Random, n: int) -> list[list[str]]:
    """Sweep-style point rows with accuracies correlated like real sweeps."""
    rows = []
    for _ in range(n):
        avg = rng.uniform(0.5, 0.95)
        wg = max(0.0, min(1.0, avg - abs(rng.gauss(0.0, 0.15))))
        rows.append([repr(avg), repr(wg), "reg_mtl", repr(rng.choice((0.5, 1.0, 2.0))),
                     repr(rng.choice((0.5, 1.0, 2.0))), "0.1",
                     repr(rng.choice((0.01, 0.001))), str(rng.choice((64, 256)))])
    return rows


def io_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The data-io command list, in run order: (unit name, argv).

    `{in}` stands for the prepared input directory and `{out}` for the
    pass's own output directory.
    """
    rng = random.Random(seed)
    cmds = [
        ("generate_csv", ["generate", *_data_flags(IO_ROWS), "--seed", str(seed),
                          "--out", "{out}/train.csv"]),
        ("generate_npz", ["generate", *_data_flags(IO_ROWS), "--seed", str(seed),
                          "--out", "{out}/train.npz"]),
        ("eval_csv", ["eval", "--params", "{in}/params.json", "--data", "{out}/train.csv"]),
        ("eval_npz", ["eval", "--params", "{in}/params.json", "--data", "{out}/train.npz"]),
        ("pareto", ["pareto", "--input", "{in}/points.csv", "--front", "{out}/front.csv",
                    "--plot", "{out}/front.dat"]),
    ]
    for i in range(IO_BOUND_COMMANDS):
        dc = rng.randint(2, 4)
        cmds.append((f"bound{i:02d}", [
            "bound", "--gamma", repr(rng.uniform(0.5, 2.0)), "--sigma-spur", repr(rng.uniform(0.5, 2.0)),
            "--eta", repr(rng.uniform(0.5, 2.0)), "--tau", repr(rng.uniform(0.05, 1.0)),
            "--lam", repr(rng.uniform(0.01, 0.5)), "--dc", str(dc), "--ds", str(rng.randint(1, dc - 1)),
            "--eps", repr(rng.uniform(0.01, 0.45))]))
    cmds.append(("grad_check", ["grad-check", "--trials", str(IO_GRAD_TRIALS), "--seed", str(seed)]))
    return cmds


# -- workload table -----------------------------------------------------------


@dataclass
class Workload:
    name: str
    kind: str  # "experiment", "sweep" or "cli"
    # the experiment configs a repetition runs, as the program runs them
    # (a sweep as its expanded experiment); none for the CLI workload
    experiments: Callable[[int], list[dict]]
    pooled: bool = False

    def prepare(self, seed: int, in_dir: Path) -> dict:
        """Write this seed's inputs under in_dir; return the pass spec body."""
        in_dir.mkdir(parents=True, exist_ok=True)
        if self.kind == "experiment":
            configs = []
            for cfg in self.experiments(seed):
                path = in_dir / f"{cfg['name']}.json"
                path.write_text(json.dumps(cfg, indent=1) + "\n")
                configs.append([str(path), cfg["name"]])
            return {"configs": configs}
        if self.kind == "sweep":
            path = in_dir / "grid.json"
            path.write_text(json.dumps(sweep_grid(seed), indent=1) + "\n")
            return {"grid": str(path)}
        rng = random.Random(seed * 7919 + 1)
        (in_dir / "params.json").write_text(json.dumps(io_params(rng), indent=1) + "\n")
        header = "avg_acc,wg_acc,method,alpha_aux,alpha_reg,tau,lr,batch\n"
        rows = io_points(rng, IO_POINTS)
        (in_dir / "points.csv").write_text(header + "".join(",".join(r) + "\n" for r in rows))
        return {"commands": io_commands(seed), "in_dir": str(in_dir)}

    def expected_steps(self, seed: int) -> int:
        return sum(run_steps(r) for c in self.experiments(seed) for r in c["runs"])

    def expected_epochs(self, seed: int) -> int:
        return sum(run_epochs(r) for c in self.experiments(seed) for r in c["runs"])


WORKLOADS = {
    "train-serial": Workload("train-serial", "experiment",
                             lambda seed: [table2_config(seed), baselines_config(seed)]),
    "recon-serial": Workload("recon-serial", "experiment", lambda seed: [fig3_config(seed)]),
    "sweep-pooled": Workload("sweep-pooled", "sweep",
                             lambda seed: [sweep_as_experiment(sweep_grid(seed))], pooled=True),
    "data-io": Workload("data-io", "cli", lambda seed: []),
}
