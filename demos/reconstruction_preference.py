#!/usr/bin/env python3
"""Why reconstruction prefers the core coordinate, and when it stops caring.

The reconstruction head sees noisy copies of the inputs and has to denoise
them through the shared featurizer.  Per coordinate the best linear denoiser
weight is var / (var + noise), so the high-variance core coordinate is worth
more than the low-variance shortcut.  Under a tight L1 budget that preference
is decisive.  Under a loose budget the gate can afford both coordinates and
initialization decides which one ends up larger.  Runs in about 10 seconds.
"""

from grouprobe import (
    BayesWeightInputs,
    GroupDataSpec,
    OptimConfig,
    RunSpec,
    SelectionStrategy,
    TaskData,
    bayes_weight,
    fit,
    make_balanced_test,
    noise_dataset,
    numeric_bayes_weight,
    sample_group_dataset,
    spur_core_log_ratio,
)

spec = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                     n_maj=900, n_min=100, sigma2_noise=1.0)

# closed form first: weight = var / (var + noise var), where the +-1 mean
# contributes mu^2 = 1 to each coordinate's marginal variance
core = BayesWeightInputs(sigma2=spec.sigma2_core, mu2_pos=1.0, mu2_neg=1.0,
                         sigma2_noise=spec.sigma2_noise)
spur = BayesWeightInputs(sigma2=spec.sigma2_spur, mu2_pos=1.0, mu2_neg=1.0,
                         sigma2_noise=spec.sigma2_noise)
print("optimal per-coordinate denoiser weights")
print(f"  core {bayes_weight(core):.4f}   (variance 1.6 out of 2.6)")
print(f"  spur {bayes_weight(spur):.4f}   (variance 1.1 out of 2.1)")

# sanity: recover the same weights from a large sample by regression
w_core = numeric_bayes_weight(core, samples=1_000_000, seed=3)
w_spur = numeric_bayes_weight(spur, samples=1_000_000, seed=3)
print(f"  monte carlo check: core {w_core:.4f}  spur {w_spur:.4f}")
print()

# now let the reconstruction-only model discover this through the L1 gate.
# two fresh seeds per budget; the dense random decoder init gives each seed
# its own sign lottery at the loose budget
print(f"{'budget':>7} {'seed':>5} {'|a_core|':>9} {'|a_spur|':>9} {'log spur/core':>14}")
val_spec = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                         n_maj=90, n_min=10, sigma2_noise=1.0)
for tau in (0.1, 10.0):
    for seed in (0, 3):
        train = sample_group_dataset(spec, [seed, 10])
        task = TaskData(train, sample_group_dataset(val_spec, [seed, 11]),
                        make_balanced_test(spec, 250, 907))
        aux = noise_dataset(train, spec.sigma2_noise, [seed, 12])
        aux_val = noise_dataset(sample_group_dataset(spec, [seed, 13]),
                                spec.sigma2_noise, [seed, 14])
        cfg = OptimConfig(learning_rate=0.01, batch_size=64, epochs=500, seed=seed)
        run = RunSpec(tag="aux_only", method="aux_only", optim=cfg, tau=tau, l1_boundary=True)
        a = fit(run, task, SelectionStrategy.NO_GP, aux, aux_val).params.a
        ratio = spur_core_log_ratio(a, spec.d_c, spec.d_s)
        print(f"{tau:7g} {seed:5d} {abs(a[0]):9.4f} {abs(a[1]):9.4f} {ratio:14.2f}")

print()
print("At tau=0.1 every seed spends the whole budget on the core coordinate")
print("(log ratio pinned below zero).  At tau=10 the gate is slack and the")
print("allocation becomes a lottery: some seeds pile mass on core, others on")
print("the shortcut.  Reconstruction alone no longer forces the choice the")
print("end task needs; it only does so when features are scarce.")
