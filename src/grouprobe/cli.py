"""Command-line front end.

Exit codes: 0 success, 1 diverged training or a failed `grad-check`, 2
configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergedError, GrouprobeError
from .evalsel import evaluate, front_indices, read_pareto_csv, write_front_gnuplot, write_pareto_csv
from .experiments import (
    RECIPES,
    SWEEP_RECIPES,
    _check,
    atomic_via_tmp,
    read_params,
    recipe_config,
    run_experiment,
    run_sweep,
)
from .linmodel import init_params
from .objectives import LaneWeights, LossWeights, end_stream, joint_terms, multitask_loss
from .oracle import BoundInputs, finite_diff_param_grads, transfer_core_mass_lower_bound, worst_group_error_bound
from .synthgen import (
    AuxDataset,
    GroupDataSpec,
    LabeledDataset,
    make_balanced_test,
    sample_group_dataset,
)


def _add_generate(sub):
    p = sub.add_parser("generate", help="sample a synthetic dataset to CSV or NPZ")
    p.set_defaults(func=cmd_generate)
    p.add_argument("--spec", help="named recipe whose data distribution to use")
    p.add_argument("--dc", type=int, help="core dimensions (custom spec)")
    p.add_argument("--ds", type=int, help="spurious dimensions (custom spec)")
    p.add_argument("--sigma2-core", type=float)
    p.add_argument("--sigma2-spur", type=float)
    p.add_argument("--n-maj", type=int)
    p.add_argument("--n-min", type=int)
    p.add_argument("--sigma2-noise", type=float,
                   help="accepted and range-checked, but a no-op: generated data has no aux noise")
    p.add_argument("--balanced", type=int, metavar="N_PER_GROUP",
                   help="draw a group-balanced set instead of the train split")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="an .npz suffix writes NPZ, any other CSV")


def _spec_from_args(args) -> GroupDataSpec:
    # in GroupDataSpec's field order
    flags = {"--dc": args.dc, "--ds": args.ds, "--sigma2-core": args.sigma2_core,
             "--sigma2-spur": args.sigma2_spur, "--n-maj": args.n_maj, "--n-min": args.n_min}
    if args.spec is not None:
        given = [f for f, v in {**flags, "--sigma2-noise": args.sigma2_noise}.items() if v is not None]
        if given:
            raise ConfigError(f"--spec sets the whole data distribution; drop {', '.join(given)}")
        return GroupDataSpec(**recipe_config(args.spec)["data"])
    missing = [f for f, v in flags.items() if v is None]
    if missing:
        raise ConfigError(f"--spec not given, so all custom flags are required; missing {missing}")
    return GroupDataSpec(*flags.values(), sigma2_noise=args.sigma2_noise or 0.0)


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")
    return value


def _int64(args, *flags: str) -> None:
    # sizes become numpy shapes, which stop at int64, as config integers do
    for flag in flags:
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None:
            _check(value, (int,), flag)


def cmd_generate(args) -> int:
    _int64(args, "--dc", "--ds", "--n-maj", "--n-min", "--balanced")
    spec = _spec_from_args(args)
    seed = _at_least("--seed", args.seed, 0)
    data = (sample_group_dataset(spec, seed) if args.balanced is None
            else make_balanced_test(spec, args.balanced, seed))
    out = Path(args.out)
    fmt = "npz" if out.suffix == ".npz" else "csv"
    atomic_via_tmp(out, data.to_csv if fmt == "csv" else data.to_npz)
    print(f"wrote {len(data)} rows ({fmt}) to {out}")
    return 0


def cmd_train(args) -> int:
    source = recipe_config(args.recipe) if args.recipe else args.config
    rows, _ = run_experiment(source, args.out)
    for row in rows:
        print(
            f"{row['tag']}: avg {float(row['test_avg_mean']):.4f} "
            f"+/- {float(row['test_avg_std']):.4f}, "
            f"wg {float(row['test_wg_mean']):.4f} +/- {float(row['test_wg_std']):.4f}"
        )
    print(f"artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    params = read_params(args.params)
    path = Path(args.data)
    data = LabeledDataset.from_npz(path) if path.suffix == ".npz" else LabeledDataset.from_csv(path)
    metrics = evaluate(params, data)
    print(json.dumps(metrics.to_json_dict(), indent=1))
    return 0


def cmd_sweep(args) -> int:
    source = recipe_config(args.recipe) if args.recipe else args.grid
    rows, front = run_sweep(source, args.out)
    print(f"{len(rows)} cells, {len(front)} on the front; artifacts in {args.out}")
    return 0


def cmd_pareto(args) -> int:
    avg, wg, tags = read_pareto_csv(args.input)
    front = front_indices(avg, wg)
    atomic_via_tmp(args.front, lambda p: write_pareto_csv(avg, wg, tags, front, p))
    if args.plot:
        atomic_via_tmp(args.plot, lambda p: write_front_gnuplot(avg, wg, front, p))
    print(f"kept {len(front)} of {len(avg)} points")
    return 0


def cmd_bound(args) -> int:
    _int64(args, "--dc", "--ds")
    inp = BoundInputs(
        gamma=args.gamma, sigma_spur=args.sigma_spur, eta=args.eta,
        tau=args.tau, lam=args.lam, d_c=args.dc, d_s=args.ds, eps=args.eps,
    )
    out = {
        "inputs": {k: v for k, v in asdict(inp).items() if v is not None},
        "worst_group_error_bound": worst_group_error_bound(inp),
    }
    if args.eps is not None:
        tb = transfer_core_mass_lower_bound(inp)
        out["transfer_core_mass_lower_bound"] = {"value": tb.value, "vacuous": tb.vacuous}
    print(json.dumps(out, indent=1))
    return 0


def _grad_check_instance(rng: np.random.Generator):
    d = int(rng.integers(1, 6))
    n = int(rng.integers(2, 9))
    # keep activations away from the L1 penalty's kinks so central
    # differences are valid
    def away_from_zero(shape):
        return (rng.uniform(0.2, 1.5, size=shape)) * rng.choice((-1.0, 1.0), size=shape)

    X = away_from_zero((n, d))
    y = rng.choice((-1, 1), size=n).astype(np.int64)
    s = y.copy()
    g = np.where(y > 0, 0, 1)
    end_batch = LabeledDataset(X, y, s, g)
    aux_batch = AuxDataset(away_from_zero((n, d)), rng.normal(size=(n, d)))
    params = init_params(d, None, int(rng.integers(2**31)))
    params.a = away_from_zero(d)
    params.w_end = rng.normal(size=d)
    params.W_aux = rng.normal(size=(d, d))
    weights = LossWeights(
        alpha_aux=float(rng.uniform(0.1, 3.0)),
        alpha_reg=float(rng.uniform(0.1, 3.0)),
        lambda_l2=float(rng.uniform(0.0, 2.0)),
    )
    return params, end_batch, aux_batch, weights


def run_grad_check(trials: int, seed: int) -> dict:
    """Compare analytic gradients of all three losses against central finite
    differences on random instances; returns a summary dict."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for _ in range(trials):
        params, end_batch, aux_batch, weights = _grad_check_instance(rng)
        end, aux = end_stream(end_batch), (aux_batch.noised, aux_batch.targets)
        # the end loss, the reconstruction loss and the joint objective
        cases = [(LossWeights(lambda_l2=weights.lambda_l2), end_batch, None),
                 (LossWeights(), None, aux_batch),
                 (weights, end_batch, aux_batch)]
        for w, e, x in cases:
            le = multitask_loss(params, e, x, w)
            streams = (None if e is None else end, None if x is None else aux)
            lw = LaneWeights.stack([w])  # columns of one entry: every probe shares them
            fa, fw, fW = finite_diff_param_grads(
                lambda a, w_end, W_aux: joint_terms(a, w_end, W_aux, lw, *streams).value, params)
            for got, want in ((le.grad_a, fa), (le.grad_w_end, fw), (le.grad_W_aux, fW)):
                err = np.abs(got - want) / np.maximum(np.abs(want), 1e-2)
                worst = max(worst, float(err.max()))
                checked += 1
    passed = worst <= 1e-5
    return {"trials": trials, "gradient_blocks_checked": checked,
            "max_relative_error": worst, "pass": passed}


def cmd_grad_check(args) -> int:
    out = run_grad_check(_at_least("--trials", args.trials, 1), _at_least("--seed", args.seed, 0))
    print(json.dumps(out, indent=1))
    return 0 if out["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grouprobe",
        description="Worst-group robustness workbench for regularized multitask linear models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_generate(sub)

    p = sub.add_parser("train", help="run an experiment config or named recipe")
    p.set_defaults(func=cmd_train)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", help="experiment config JSON path")
    g.add_argument("--recipe", choices=sorted(set(RECIPES) - SWEEP_RECIPES))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate saved model params on a dataset")
    p.set_defaults(func=cmd_eval)
    p.add_argument("--params", required=True, help="model params JSON")
    p.add_argument("--data", required=True, help="dataset CSV or NPZ")

    p = sub.add_parser("sweep", help="run a hyperparameter sweep grid")
    p.set_defaults(func=cmd_sweep)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--grid", help="sweep grid JSON path")
    g.add_argument("--recipe", choices=sorted(SWEEP_RECIPES))
    p.add_argument("--out", required=True)

    p = sub.add_parser("pareto", help="extract the Pareto front from a sweep CSV")
    p.set_defaults(func=cmd_pareto)
    p.add_argument("--input", required=True, help="sweep_full.csv from a sweep run")
    p.add_argument("--front", required=True, help="output CSV for the front")
    p.add_argument("--plot", help="optional gnuplot two-column output")

    p = sub.add_parser("bound", help="evaluate the analytic bounds")
    p.set_defaults(func=cmd_bound)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma-spur", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--eps", type=float, default=None,
                   help="worst-group error target; enables the transfer bound")

    p = sub.add_parser("grad-check", help="verify analytic gradients against finite differences")
    p.set_defaults(func=cmd_grad_check)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergedError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 1
    except (GrouprobeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
