"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from wecfarm import surrogate
from wecfarm.hydro import Environment, FrequencyGrid, ReferenceProvider


@pytest.fixture(scope="session")
def tiny_committees():
    """Under-trained committees of every map, quick to fit."""
    grid = FrequencyGrid.default(count=30)
    env = Environment()
    oracle = ReferenceProvider()
    rng = np.random.default_rng(3)
    tiny = {}
    for kind in ("single", "pair"):
        inputs = surrogate.sample_inputs(kind, 60, rng)
        ids = (
            surrogate.SINGLE_TARGET_IDS if kind == "single" else surrogate.PAIR_TARGET_IDS
        )
        datasets = {
            tid: surrogate.Dataset(
                tid, inputs,
                surrogate.label_inputs(tid, inputs, grid, env, oracle),
                grid, env,
            )
            for tid in ids
        }
        config = surrogate.CommitteeConfig(hidden=(8, 8), epochs=10, round_epochs=5, min_samples=10)
        for tid in ids:
            tiny[tid] = surrogate.train_committee(datasets[tid], config)
    return tiny
