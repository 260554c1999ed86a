import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grouprobe
from grouprobe import ConfigError, LabeledDataset, SweepGrid, normal_cdf
from grouprobe.cli import main, run_grad_check
from grouprobe.evalsel import PARETO_CSV_COLUMNS, write_pareto_csv

from test_experiments import tiny_config, tiny_sweep

GEN_FLAGS = ["--dc", "1", "--ds", "1", "--sigma2-core", "0.6",
             "--sigma2-spur", "0.1", "--n-maj", "20", "--n-min", "4"]


def _edited_doc(make, block, **fields):
    doc = make()
    doc[block] = dict(doc[block], **fields)
    return doc


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.setenv("GROUPROBE_WORKERS", "1")


class TestGenerate:
    def test_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", *GEN_FLAGS, "--seed", "5", "--out", str(out)]) == 0
        assert "wrote 24 rows (csv)" in capsys.readouterr().out
        data = LabeledDataset.from_csv(out)
        assert len(data) == 24 and data.d == 2

    def test_npz_inferred_from_suffix(self, tmp_path):
        out = tmp_path / "data.npz"
        assert main(["generate", *GEN_FLAGS, "--seed", "5", "--out", str(out)]) == 0
        assert len(LabeledDataset.from_npz(out)) == 24

    @pytest.mark.parametrize("fmt,name", [("csv", "data.npz"), ("npz", "data.csv")])
    def test_format_flag_is_rejected(self, tmp_path, fmt, name):
        # the --out suffix alone picks the format, by eval --data's rule, so
        # no file can be written that eval would refuse
        out = tmp_path / name
        with pytest.raises(SystemExit) as exc:
            main(["generate", *GEN_FLAGS, "--seed", "5", "--out", str(out), "--format", fmt])
        assert exc.value.code == 2
        assert not out.exists()

    def test_balanced(self, tmp_path):
        out = tmp_path / "bal.csv"
        assert main(["generate", *GEN_FLAGS, "--balanced", "10",
                     "--seed", "7", "--out", str(out)]) == 0
        data = LabeledDataset.from_csv(out)
        assert data.group_counts().tolist() == [10, 10, 10, 10]

    def test_sigma2_noise_is_a_no_op(self, tmp_path):
        outs = [tmp_path / f"n{v}.csv" for v in ("0.0", "5.0")]
        for v, out in zip(("0.0", "5.0"), outs):
            assert main(["generate", *GEN_FLAGS, "--sigma2-noise", v,
                         "--seed", "5", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_named_distribution(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["generate", "--spec", "table2", "--seed", "0",
                     "--out", str(out)]) == 0
        assert len(LabeledDataset.from_csv(out)) == 1000

    def test_spec_with_custom_flags_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(["generate", "--spec", "table2", "--n-maj", "10", "--n-min", "2",
                     "--sigma2-noise", "0.5", "--seed", "0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert all(f in err[0] for f in ("--n-maj", "--n-min", "--sigma2-noise")), err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--balanced", "10"]], ids=["train", "balanced"])
    def test_negative_seed_exits_2(self, extra, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(["generate", "--spec", "table2", *extra, "--seed", "-1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be >= 0, got -1"], err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2**63, -(10**400)], ids=["2**63", "-10**400"])
    @pytest.mark.parametrize("flag", ["--dc", "--ds", "--n-maj", "--n-min", "--balanced"])
    def test_size_past_int64_exits_2(self, flag, value, tmp_path, capsys):
        # only sizes past int64, which fail before anything is allocated
        out = tmp_path / "g.csv"
        argv = ["generate", *GEN_FLAGS, "--seed", "0", "--out", str(out)]
        if flag in argv:
            argv[argv.index(flag) + 1] = str(value)
        else:
            argv += [flag, str(value)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            f"error: {flag} must be an integer of magnitude at most 2**63 - 1, "
            f"got an integer of {len(str(abs(value)))} digits"]
        assert captured.out == "" and not out.exists()

    def test_unknown_spec_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["generate", "--spec", "fig5", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown recipe 'fig5'"), err
        assert not out.exists()

    def test_incomplete_custom_spec(self, tmp_path, capsys):
        code = main(["generate", "--dc", "1", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "missing" in capsys.readouterr().err


class TestTrain:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config()))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "erm: avg" in stdout and "mtl: avg" in stdout
        assert (out / "summary.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = tiny_config()
        doc["selection"] = "optimal"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_divergence_exits_1(self, tmp_path, capsys):
        doc = tiny_config(seeds=[0])
        doc["runs"] = [{
            "tag": "blowup", "method": "erm",
            "optim": {"learning_rate": 1e12, "batch_size": 16, "epochs": 8},
            "weights": {"lambda_l2": 1.0},
        }]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("method,alpha_aux", [("erm", 0.0), ("reg_mtl", 10.0)])
    def test_projection_divergence_exits_1(self, method, alpha_aux, tmp_path, capsys):
        doc = tiny_config(seeds=[0])
        doc["runs"] = [{
            "tag": "blowup", "method": method, "tau": 0.1,
            "optim": {"learning_rate": 1e300, "batch_size": 16, "epochs": 2},
            "weights": {"alpha_aux": alpha_aux, "lambda_l2": 1.0},
        }]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged"), err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverged_lane_names_its_run(self, workers, tmp_path, capsys, monkeypatch):
        """One cell of a lane group diverges: the error names that cell and
        its first seed, once, and no summary is written."""
        monkeypatch.setenv("GROUPROBE_WORKERS", workers)
        doc = tiny_config(seeds=[0, 1])
        doc["runs"] = [{
            "tag": tag, "method": "erm", "tau": 0.1,
            "optim": {"learning_rate": lr, "batch_size": 16, "epochs": 2},
            "weights": {"lambda_l2": 1.0},
        } for tag, lr in (("calm", 0.01), ("wild", 1e300), ("steady", 0.001))]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: training diverged: "), err
        assert err[0].endswith("(run wild, seed 0, epoch 0)"), err
        assert not (tmp_path / "o" / "summary.csv").exists()

    def test_sweep_recipe_not_a_train_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--recipe", "pareto-default", "--out", "x"])
        assert exc.value.code == 2

    def test_unknown_recipe_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--recipe", "fig5", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --recipe: invalid choice: 'fig5'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_divergence_writes_one_stderr_line(self, workers, tmp_path):
        """A diverged run prints its one error line and no numpy warnings,
        serially and from pool workers; a subprocess, since pytest's warning
        capture would hide the warnings from capsys."""
        doc = tiny_config(seeds=[0, 1])
        doc["runs"] = [{
            "tag": "big", "method": "erm",
            "optim": {"learning_rate": 1e300, "batch_size": 16, "epochs": 2},
            "weights": {"lambda_l2": 1.0},
        }]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        env = dict(_module_env(), GROUPROBE_WORKERS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "grouprobe", "train", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: training diverged: non-finite training loss (run big, seed 0, epoch 0)"]


class TestEvalCommand:
    def test_eval_saved_params(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tiny_config(seeds=[0])))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        data = tmp_path / "test.csv"
        assert main(["generate", *GEN_FLAGS, "--balanced", "5",
                     "--seed", "42", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["eval", "--params", str(out / "params" / "erm_seed0.json"),
                     "--data", str(data)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"per_group_acc", "group_sizes", "avg_acc",
                                "wg_acc", "all_groups_present"}
        assert metrics["group_sizes"] == [5, 5, 5, 5]

    def test_missing_params_file(self, tmp_path):
        assert main(["eval", "--params", str(tmp_path / "p.json"),
                     "--data", str(tmp_path / "d.csv")]) == 2


class TestSweepCommand:
    def test_grid_file(self, tmp_path, capsys):
        doc = tiny_sweep()
        doc["grid"] = {"alpha_aux": [1.0], "alpha_reg": [0.0], "tau": [0.5],
                       "learning_rate": [0.01], "batch_size": [16]}
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
        assert "1 cells, 1 on the front" in capsys.readouterr().out
        assert (out / "sweep_front.dat").exists()

    @pytest.mark.parametrize("seeds", [5, [], [-1], [1, 1], [True]], ids=str)
    def test_bad_seeds_exit_2(self, seeds, tmp_path, capsys):
        doc = tiny_sweep(seeds=seeds)
        with pytest.raises(ConfigError, match="seeds must be"):
            SweepGrid.load(doc)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "sweep")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: seeds must be"), err


@pytest.mark.parametrize("command,doc", [
    ("train", _edited_doc(tiny_config, "test", n_per_group=True)),
    ("sweep", _edited_doc(tiny_sweep, "grid", batch_size=[True])),
], ids=["train-test-block", "sweep-grid"])
def test_json_boolean_number_exits_2(command, doc, tmp_path, capsys):
    assert "got true" in _config_error(command, doc, tmp_path, capsys)


def _config_error(command, doc, tmp_path, capsys) -> str:
    """Run `command` on config `doc`: it must exit 2 before writing any
    output, with one `error:` line, which is returned."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    flag = "--config" if command == "train" else "--grid"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
    return err[0]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_aux_block_exits_2(command, tmp_path, capsys):
    """The aux task always reconstructs noised copies of the end task's own
    inputs, so neither a config nor a sweep has an `aux` block."""
    doc = (tiny_config if command == "train" else tiny_sweep)(
        seeds=[0], aux={"reuse_end_features": True})
    where = "config" if command == "train" else "sweep config"
    assert _config_error(command, doc, tmp_path, capsys) == f"error: unknown keys ['aux'] in {where}"


def _jtt_run(doc):
    doc["runs"][0].update(method="jtt", jtt={"id_epochs": 2.5})


# an integer too large for float64: float() of it raises OverflowError
HUGE_INT = 10**400


# each of these loaded and then failed mid-run with a TypeError, OverflowError or
# ValueError traceback
@pytest.mark.parametrize("command,edit,field", [
    ("train", lambda d: d["data"].update(n_maj=60.0), "data.n_maj"),
    ("train", lambda d: d["runs"][0]["optim"].update(batch_size=16.0), "runs[0].optim.batch_size"),
    ("train", lambda d: d["runs"][1]["optim"].update(epochs=4.0), "runs[1].optim.epochs"),
    ("train", _jtt_run, "runs[0].jtt.id_epochs"),
    ("train", lambda d: d["runs"][0].update(tag=5), "runs[0].tag"),
    ("train", lambda d: d["test"].update(n_per_group="25"), "test.n_per_group"),
    ("sweep", lambda d: d["grid"].update(batch_size=[16.0]), "grid.batch_size[0]"),
    ("train", lambda d: d["runs"][0]["optim"].update(learning_rate=float("nan")),
     "runs[0].optim.learning_rate"),
    ("train", lambda d: d["runs"][1].update(tau=float("inf")), "runs[1].tau"),
    ("train", lambda d: d["data"].update(sigma2_core=float("nan")), "data.sigma2_core"),
    ("sweep", lambda d: d["grid"].update(learning_rate=[float("inf")]), "grid.learning_rate[0]"),
    ("train", lambda d: d["runs"][1].update(tau=HUGE_INT), "runs[1].tau"),
    ("train", lambda d: d["runs"][0]["optim"].update(learning_rate=HUGE_INT),
     "runs[0].optim.learning_rate"),
    ("train", lambda d: d["runs"][0]["weights"].update(lambda_l2=HUGE_INT),
     "runs[0].weights.lambda_l2"),
    ("sweep", lambda d: d["grid"].update(tau=[HUGE_INT]), "grid.tau[0]"),
    ("train", lambda d: d["data"].update(sigma2_core=HUGE_INT), "data.sigma2_core"),
    ("train", lambda d: d["data"].update(n_maj=HUGE_INT), "data.n_maj"),
    ("train", lambda d: d["data"].update(d_c=HUGE_INT), "data.d_c"),
    ("train", lambda d: d["test"].update(n_per_group=HUGE_INT), "test.n_per_group"),
    ("train", lambda d: d["data"].update(n_maj=2**63), "data.n_maj"),
], ids=["data-n_maj", "optim-batch_size", "optim-epochs", "jtt-id_epochs", "tag",
        "test-n_per_group", "sweep-grid-batch_size", "optim-lr-nan", "tau-inf",
        "data-sigma2_core-nan", "sweep-grid-lr-inf", "tau-huge-int", "optim-lr-huge-int",
        "weights-lambda_l2-huge-int", "sweep-grid-tau-huge-int", "data-sigma2_core-huge-int",
        "data-n_maj-huge-int", "data-d_c-huge-int", "test-n_per_group-huge-int",
        "data-n_maj-2**63"])
def test_wrong_value_type_exits_2(command, edit, field, tmp_path, capsys):
    doc = (tiny_config if command == "train" else tiny_sweep)(seeds=[0])
    edit(doc)
    err = _config_error(command, doc, tmp_path, capsys)
    assert err.startswith(f"error: {field} must be ") and "TypeError" not in err, err


def test_erm_sweep_with_aux_weight_exits_2(tmp_path, capsys):
    doc = tiny_sweep(method="erm", seeds=[0])
    doc["grid"].update(alpha_aux=[0.0], alpha_reg=[0.0, 1.0])
    err = _config_error("sweep", doc, tmp_path, capsys)
    assert err == "error: grid.alpha_reg[1]: erm does not take aux loss weights", err


@pytest.mark.parametrize("edit,field", [
    (lambda d: d["grid"].update(learning_rate=[0.0]), "grid.learning_rate[0]: "),
    (lambda d: d["base"].update(epochs=0), "base.epochs: "),
    (lambda d: d["grid"].update(tau=[-1.0]), "grid.tau[0]: "),
    (lambda d: d["base"].update(patience=3), "base.patience: patience must be 0"),
    (lambda d: d["base"].update(momentum=0.9), "base.momentum: momentum must be 0"),
], ids=["lr-zero", "epochs-zero", "tau-negative", "patience-nonzero", "momentum-nonzero"])
def test_sweep_range_error_names_the_sweep_field(edit, field, tmp_path, capsys):
    doc = tiny_sweep(seeds=[0])
    edit(doc)
    err = _config_error("sweep", doc, tmp_path, capsys)
    assert err.startswith(f"error: {field}") and "runs[" not in err, err


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["runs"][0]["optim"].update(momentum=0.5), "runs[0].optim: momentum must be 0"),
    (lambda d: d["runs"][1]["optim"].update(patience=3), "runs[1].optim: patience must be 0"),
], ids=["momentum", "patience"])
def test_nonzero_momentum_or_patience_exits_2(edit, message, tmp_path, capsys):
    doc = tiny_config(seeds=[0])
    edit(doc)
    err = _config_error("train", doc, tmp_path, capsys)
    assert err.startswith(f"error: {message}"), err


def _train_artifacts(doc, tmp_path, name) -> dict[str, bytes]:
    """Every file `train --config doc` writes, by path under the output
    directory; the directory holds runs/, traces/, params/ and summary.csv."""
    cfg, out = tmp_path / f"{name}.json", tmp_path / name
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    artifacts = {str(p.relative_to(out)): p.read_bytes() for p in files}
    assert {name.split("/")[0] for name in artifacts} == {"runs", "traces", "params",
                                                          "summary.csv"}
    return artifacts


def test_explicit_zero_momentum_and_patience_write_the_same_bytes(tmp_path):
    """Schema-1 configs may spell out patience 0 and momentum 0.0 in each
    run's optim block; every artifact is byte-identical to leaving them out."""
    outputs = []
    for explicit in (False, True):
        doc = tiny_config(seeds=[0])
        if explicit:
            for run in doc["runs"]:
                run["optim"].update(patience=0, momentum=0.0)
        outputs.append(_train_artifacts(doc, tmp_path, f"out{explicit:d}"))
    assert outputs[0] == outputs[1]


def test_integer_in_number_field_writes_the_same_bytes(tmp_path):
    """A number field loads as a float, and -0.0 as 0.0, so `1` and `1.0`,
    and `0`, `0.0` and `-0.0`, are one run and every artifact is
    byte-identical."""
    outputs = []
    for i, (one, zero) in enumerate(((1, 0), (1.0, 0.0), (1.0, -0.0))):
        doc = tiny_config(seeds=[0])
        doc["data"].update(sigma2_noise=one)
        erm, mtl = doc["runs"]
        erm["optim"].update(momentum=zero)
        erm["weights"].update(lambda_l2=one)
        mtl.update(tau=one)
        mtl["weights"].update(alpha_aux=one, alpha_reg=zero, lambda_l2=zero)
        outputs.append(_train_artifacts(doc, tmp_path, f"out{i}"))
    assert outputs[0] == outputs[1] == outputs[2]
    assert b'"momentum": 0.0' in outputs[0]["runs/erm_seed0.json"]
    assert b'"lambda_l2": 0.0' in outputs[0]["runs/mtl_seed0.json"]


class TestParetoCommand:
    def test_front_extraction(self, tmp_path, capsys):
        full = tmp_path / "full.csv"
        avg = np.array([0.9, 0.7, 0.8])  # the second point is dominated
        wg = np.array([0.3, 0.2, 0.5])
        write_pareto_csv(avg, wg, [["erm", "", "", "", "", ""]] * 3, range(3), full)
        front = tmp_path / "front.csv"
        plot = tmp_path / "front.dat"
        code = main(["pareto", "--input", str(full), "--front", str(front),
                     "--plot", str(plot)])
        assert code == 0
        assert "kept 2 of 3 points" in capsys.readouterr().out
        assert len(front.read_text().splitlines()) == 3  # header + 2 points
        assert plot.read_text().startswith("# avg_acc wg_acc")

    def test_bad_input_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.5,0.5\n")
        assert main(["pareto", "--input", str(bad),
                     "--front", str(tmp_path / "f.csv")]) == 2


PARAMS = {"a": [1.0, 0.5], "w_end": [1.0, -1.0], "W_aux": [[1.0, 0.0], [0.0, 0.0]],
          "tau": None, "fro_radius": 1.0}
DATA_CSV = "y,s,group,x0,x1\n1,1,0,0.5,0.5\n-1,-1,1,-0.5,-0.5\n"


def _eval_argv(tmp_path, params=PARAMS, data_name="d.csv", data=DATA_CSV):
    (tmp_path / "p.json").write_text(json.dumps(params))
    path = tmp_path / data_name
    if callable(data):
        data(path)
    else:
        path.write_text(data)
    return ["eval", "--params", str(tmp_path / "p.json"), "--data", str(path)]


def _pareto_non_numeric(tmp_path):
    full = tmp_path / "full.csv"
    full.write_text(",".join(PARETO_CSV_COLUMNS) + "\n0.9,0.3,erm,,,,,\n0.8,high,erm,,,,,\n")
    return ["pareto", "--input", str(full), "--front", str(tmp_path / "f.csv")], ["full.csv", "line 3"]


def _csv_non_numeric(tmp_path):
    return _eval_argv(tmp_path, data=DATA_CSV + "1,1,0,0.5,nope\n"), ["d.csv", "line 4"]


def _csv_header_field_too_large(tmp_path):
    # past the csv module's 131,072-character field limit
    data = "y,s,group,x0," + "x" * 200_000 + "\n" + DATA_CSV.split("\n", 1)[1]
    return _eval_argv(tmp_path, data=data), ["d.csv", "line 1", "field larger than field limit"]


def _npz_not_zip(tmp_path):
    return _eval_argv(tmp_path, data_name="d.npz", data="y,s,group\n"), ["d.npz", "not an .npz"]


def _params_without_fro_radius(tmp_path):
    params = {k: v for k, v in PARAMS.items() if k != "fro_radius"}
    return _eval_argv(tmp_path, params=params), ["p.json", "fro_radius"]


def _npz_without_features(tmp_path):
    def write(path):
        with open(path, "wb") as fh:
            np.savez(fh, labels=[1], spurious_attrs=[1], group_ids=[0])
    return _eval_argv(tmp_path, data_name="d.npz", data=write), ["d.npz", "features"]


def _params_tau_true(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, tau=True)), ["p.json", "tau"]


def _params_boundary_string(tmp_path):
    params = dict(PARAMS, tau=1.5, l1_boundary="no")
    return _eval_argv(tmp_path, params=params), ["p.json", "l1_boundary"]


def _params_bool_array(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, a=[True, False])), ["p.json", "a must"]


def _params_nan_a(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, a=[float("nan"), 0.05])), ["p.json", "model params.a"]


def _params_inf_tau(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, tau=float("inf"))), ["p.json", "tau"]


def _params_int_beyond_float(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, w_end=[10**400, 0])), ["p.json", "too large"]


def _params_unknown_key(tmp_path):
    params = dict(PARAMS, tau=1.5, l1_boundry=True)
    return _eval_argv(tmp_path, params=params), ["p.json", "l1_boundry"]


def _params_tau_negative(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, tau=-1)), ["p.json", "tau must be positive"]


def _params_fro_radius_zero(tmp_path):
    return _eval_argv(tmp_path, params=dict(PARAMS, fro_radius=0)), ["p.json", "fro_radius"]


def _params_boundary_without_tau(tmp_path):
    params = dict(PARAMS, l1_boundary=True)
    return _eval_argv(tmp_path, params=params), ["p.json", "l1_boundary requires tau"]


def _params_mismatched_shapes(tmp_path):
    params = dict(PARAMS, a=[1.0, 0.5, 0.25])
    return _eval_argv(tmp_path, params=params), ["p.json", "W_aux,(d,d)"]


def _params_wider_than_data(tmp_path):
    params = dict(PARAMS, a=[1.0, 0.5, 0.25], w_end=[1.0, -1.0, 0.5], W_aux=np.eye(3).tolist())
    return _eval_argv(tmp_path, params=params), ["feature width", "model has d = 3, the data d = 2"]


def _params_narrower_than_data(tmp_path):
    # without a width check a 1-feature model broadcasts over the 2 columns
    params = dict(PARAMS, a=[1.0], w_end=[1.0], W_aux=[[1.0]])
    return _eval_argv(tmp_path, params=params), ["feature width", "model has d = 1, the data d = 2"]


@pytest.mark.parametrize("make", [
    _pareto_non_numeric, _csv_non_numeric, _csv_header_field_too_large, _npz_not_zip,
    _params_without_fro_radius, _npz_without_features,
    _params_tau_true, _params_boundary_string, _params_bool_array, _params_unknown_key,
    _params_nan_a, _params_inf_tau, _params_int_beyond_float,
    _params_tau_negative, _params_fro_radius_zero, _params_boundary_without_tau,
    _params_mismatched_shapes, _params_wider_than_data, _params_narrower_than_data,
], ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_input_file_exits_2(make, tmp_path, capsys):
    """A malformed input file is a usage error with one message naming the
    file and what is wrong in it (for params and data of different feature
    widths, both widths), not a traceback and not exit 1."""
    argv, names = make(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(name in err[0] for name in names), err[0]


BAD_INPUT_ARGV = {
    "train-config": ["train", "--config", "{bad}.json", "--out", "{out}"],
    "sweep-grid": ["sweep", "--grid", "{bad}.json", "--out", "{out}"],
    "eval-params": ["eval", "--params", "{bad}.json", "--data", "{good}.csv"],
    "eval-data": ["eval", "--params", "{good}.json", "--data", "{bad}.csv"],
    "pareto-input": ["pareto", "--input", "{bad}.csv", "--front", "{out}"],
}


def _bad_input_error(argv, bad_text: bytes, tmp_path, capsys) -> tuple[str, str]:
    """Run `argv` with its `{bad}` file holding `bad_text`: it must exit 2
    without output, with one `error:` line.  Returns that line and the bad
    file's path."""
    for name, text in (("bad.json", bad_text), ("bad.csv", bad_text),
                       ("good.json", json.dumps(PARAMS).encode()), ("good.csv", DATA_CSV.encode())):
        (tmp_path / name).write_bytes(text)
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "good", "out": tmp_path / "out"}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
    return err[0], next(a for a in argv if a.startswith(str(paths["bad"])))


@pytest.mark.parametrize("argv", BAD_INPUT_ARGV.values(), ids=BAD_INPUT_ARGV)
def test_non_utf8_input_exits_2(argv, tmp_path, capsys):
    """An input file that is not UTF-8 text is a usage error with one
    message naming the file, not a UnicodeDecodeError traceback and not
    exit 1."""
    err, bad = _bad_input_error(argv, b"\xff\xfe", tmp_path, capsys)
    assert bad in err and "decode" in err, err


@pytest.mark.parametrize("which", ["train-config", "sweep-grid", "eval-params"])
def test_non_json_input_exits_2(which, tmp_path, capsys):
    """A config, grid or params file that is not JSON is named with the
    parser's message."""
    err, bad = _bad_input_error(BAD_INPUT_ARGV[which], b"a = 1\n", tmp_path, capsys)
    assert err.startswith(f"error: {bad}: Expecting value: line 1 column 1"), err


@pytest.mark.parametrize("field,value", [
    ("tau", float("nan")), ("tau", True), ("tau", HUGE_INT),
    ("W_aux", [[1.0, 0.0], [0.0, True]]), ("w_end", [1.0, float("inf")]),
    ("fro_radius", None),
], ids=["tau-nan", "tau-true", "tau-huge-int", "W_aux-nested-true", "w_end-inf",
        "fro_radius-null"])
def test_bad_params_value_names_file_and_field(field, value, tmp_path, capsys):
    """A params value of the wrong JSON kind is refused by the config
    parser's rules, in one line naming the file and the field."""
    assert main(_eval_argv(tmp_path, params=dict(PARAMS, **{field: value}))) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {tmp_path / 'p.json'}: model params.{field} must be "), err


class TestBoundCommand:
    BASE = ["bound", "--gamma", "1", "--sigma-spur", "1", "--eta", "1",
            "--tau", "0.1", "--lam", "0.1", "--dc", "1", "--ds", "1"]

    def test_worst_group_value(self, capsys):
        assert main(self.BASE) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["worst_group_error_bound"] == pytest.approx(normal_cdf(-1.2), abs=1e-15)
        assert "transfer_core_mass_lower_bound" not in out

    def test_with_transfer(self, capsys):
        argv = ["bound", "--gamma", "1", "--sigma-spur", "1", "--eta", "1",
                "--tau", "0.1", "--lam", "0.1", "--dc", "2", "--ds", "1",
                "--eps", "0.3"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        tb = out["transfer_core_mass_lower_bound"]
        assert isinstance(tb["vacuous"], bool)
        assert tb["value"] == pytest.approx(tb["value"])  # finite float

    def test_invalid_eps(self, capsys):
        assert main(self.BASE + ["--eps", "0.7"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,eps", [
        ("--gamma", "nan", None), ("--gamma", "inf", "0.3"), ("--eta", "inf", None),
        ("--eps", "nan", "nan"),
    ], ids=["gamma-nan", "gamma-inf-with-eps", "eta-inf", "eps-nan"])
    def test_nonfinite_input_exits_2(self, flag, value, eps, capsys):
        argv = self.BASE + (["--eps", eps] if eps else [])
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0] == f"error: {flag[2:]} must be finite, got {value}", err
        assert captured.out == ""


    @pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("flag", ["--dc", "--ds"])
    def test_size_past_int64_exits_2(self, flag, value, capsys):
        argv = list(self.BASE)
        argv[argv.index(flag) + 1] = str(value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            f"error: {flag} must be an integer of magnitude at most 2**63 - 1, "
            f"got an integer of {len(str(value))} digits"]
        assert captured.out == ""

# The recorded `max_relative_error` text of `json.dumps(run_grad_check(20, seed))`
# for seeds 0-11, the only field of those reports that differs between seeds
GRAD_CHECK_ERRORS = (
    "5.577434179001445e-07",
    "1.3906531150462874e-07",
    "2.873895045552022e-07",
    "1.848836156219391e-07",
    "1.0774235739564092e-07",
    "1.0207582392188219e-07",
    "1.2901904309177784e-07",
    "6.014231326498254e-08",
    "1.321328178816028e-07",
    "9.342158895433994e-08",
    "1.4411867255148536e-07",
    "4.4178244179224335e-08",
)


class TestGradCheckCommand:
    def test_passes(self, capsys):
        assert main(["grad-check", "--trials", "3", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert out["max_relative_error"] <= 1e-5
        assert out["trials"] == 3

    @pytest.mark.parametrize("argv,message", [
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--trials", "-3"], "--trials must be >= 1, got -3"),
    ], ids=["seed-negative", "trials-zero", "trials-negative"])
    def test_bad_flag_exits_2(self, argv, message, capsys):
        assert main(["grad-check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == ""

    def test_run_grad_check_counts(self):
        out = run_grad_check(2, 0)
        # 3 losses x 3 parameter blocks per trial
        assert out["gradient_blocks_checked"] == 2 * 9

    @pytest.mark.parametrize("seed", range(12))
    def test_report_text_is_pinned(self, seed):
        """The report prints as recorded, to the last digit of its largest
        relative error."""
        want = ('{"trials": 20, "gradient_blocks_checked": 180, "max_relative_error": '
                f'{GRAD_CHECK_ERRORS[seed]}, "pass": true}}')
        assert json.dumps(run_grad_check(20, seed)) == want


class TestArgparseBehavior:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_console_script_smoke():
    exe = shutil.which("grouprobe")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "bound", "--gamma", "1", "--sigma-spur", "1", "--eta", "1",
         "--tau", "0.1", "--lam", "0.1", "--dc", "1", "--ds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["worst_group_error_bound"] == pytest.approx(
        0.11507, abs=5e-6)


def _module_env() -> dict:
    # the environment of a `python -m grouprobe` child that imports this tree
    env = dict(os.environ)
    src = str(Path(grouprobe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m():
    env = _module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "grouprobe", "bound", "--gamma", "1", "--sigma-spur", "1",
         "--eta", "1", "--tau", "0.1", "--lam", "0.1", "--dc", "1", "--ds", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["worst_group_error_bound"] == pytest.approx(
        0.11507, abs=5e-6)


@pytest.mark.parametrize("command", ["train", "pareto"])
def test_utf8_input_under_ascii_locale(command, tmp_path):
    """Inputs are read, and Pareto tags written, as UTF-8 whatever the
    locale: under the C locale, with Python's UTF-8 mode off, a config whose
    name is not ASCII trains, and a Pareto tag that is not ASCII is kept."""
    if command == "train":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(tiny_config(seeds=[0]), name="expérience"), ensure_ascii=False),
                       encoding="utf-8")
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        points = tmp_path / "points.csv"
        points.write_text(",".join(PARETO_CSV_COLUMNS) + "\n0.9,0.5,méthode,1,1,0.1,0.01,64\n",
                          encoding="utf-8")
        argv = ["pareto", "--input", str(points), "--front", str(tmp_path / "front.csv")]
    env = dict(_module_env(), LC_ALL="C")
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "grouprobe", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    if command == "train":
        assert (tmp_path / "out" / "summary.csv").exists()
    else:
        assert "méthode" in (tmp_path / "front.csv").read_text(encoding="utf-8")
