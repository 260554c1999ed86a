#!/usr/bin/env python3
"""Group-robustness baselines on the same data: means, spread, selection.

Four ways to fight a shortcut feature: plain ERM, just-train-twice
reweighting (no group labels at train time), group DRO (group labels at
train time), and end-task + reconstruction multitask under a tight feature
budget (no group labels anywhere).  The bundled "baselines" recipe runs each
over five seeds with worst-group checkpoint selection.  A second act retrains
ERM on one seed under both selection rules to isolate how much the checkpoint
rule alone contributes.  Runs in about half a minute.
"""

from grouprobe import (
    GroupDataSpec,
    LossWeights,
    OptimConfig,
    RunSpec,
    SelectionStrategy,
    TaskData,
    fit,
    make_balanced_test,
    recipe_config,
    run_experiment,
    sample_group_dataset,
)

rows, _ = run_experiment(recipe_config("baselines"), None)

print("five seeds, checkpoint = best worst-group validation accuracy")
print(f"{'method':<16} {'test avg':>9} {'test wg':>16}")
for row in rows:
    wg = f"{float(row['test_wg_mean']):.3f} +- {float(row['test_wg_std']):.3f}"
    print(f"{row['tag']:<16} {float(row['test_avg_mean']):9.3f} {wg:>16}")
print()

# the interventions are not about the mean so much as the spread: ERM's
# worst group depends on which epoch happened to score well on a 10-point
# minority validation slice, the other three are steady

spec = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                     n_maj=900, n_min=100, sigma2_noise=1.0)
val_spec = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                         n_maj=90, n_min=10, sigma2_noise=1.0)
task = TaskData(sample_group_dataset(spec, [0, 10]),
                sample_group_dataset(val_spec, [0, 11]),
                make_balanced_test(spec, 250, 907))
erm = RunSpec(tag="erm", method="erm",
              optim=OptimConfig(learning_rate=0.001, batch_size=64, epochs=500, seed=0),
              weights=LossWeights(lambda_l2=1.0))

print("same ERM trace (seed 0), two checkpoint rules")
print(f"{'selection rule':<22} {'epoch':>5} {'test avg':>9} {'test wg':>8}")
for name, rule in (("worst-group val acc", SelectionStrategy.VAL_GP),
                   ("average val acc", SelectionStrategy.NO_GP)):
    result = fit(erm, task, rule)
    m = result.test_metrics
    print(f"{name:<22} {result.selected_epoch:5d} {m.avg_acc:9.3f} {m.wg_acc:8.3f}")

print()
print("Every training step is identical between the last two rows; only the")
print("kept epoch differs.  Group-aware selection buys a lot on a lucky seed,")
print("but the five-seed spread above is why the training-time interventions")
print("still matter: they do not depend on that luck.")
