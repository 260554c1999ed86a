import numpy as np
import pytest

import grouprobe.optim
from grouprobe import (
    GroupDataSpec,
    OptimConfig,
    TaskData,
    make_balanced_test,
    noise_dataset,
    sample_group_dataset,
)

# A scaled-down distribution in the same family as the benchmark one, small
# enough that training-loop tests stay fast.
TINY_SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                          n_maj=60, n_min=20, sigma2_noise=1.0)
TINY_VAL_SPEC = GroupDataSpec(d_c=1, d_s=1, sigma2_core=0.6, sigma2_spur=0.1,
                              n_maj=20, n_min=8, sigma2_noise=1.0)


@pytest.fixture(scope="session")
def tiny_spec():
    return TINY_SPEC


@pytest.fixture(scope="session")
def tiny_task():
    train = sample_group_dataset(TINY_SPEC, [3, 10])
    val = sample_group_dataset(TINY_VAL_SPEC, [3, 11])
    test = make_balanced_test(TINY_SPEC, 25, 99)
    return TaskData(train, val, test)


@pytest.fixture(scope="session")
def tiny_aux(tiny_task):
    return noise_dataset(tiny_task.train, TINY_SPEC.sigma2_noise, [3, 12])


@pytest.fixture(scope="session")
def tiny_aux_val(tiny_task):
    return noise_dataset(tiny_task.val, TINY_SPEC.sigma2_noise, [3, 14])


@pytest.fixture
def group_sizes(monkeypatch) -> list[int]:
    """The size of every lane group `optim.train` runs in the test, in run
    order."""
    sizes = []
    real = grouprobe.optim._train_group

    def recording(lanes):
        sizes.append(len(lanes))
        return real(lanes)

    monkeypatch.setattr(grouprobe.optim, "_train_group", recording)
    return sizes


@pytest.fixture
def tiny_cfg():
    return OptimConfig(learning_rate=0.01, batch_size=16, epochs=8, seed=3)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
