"""Shared builders for the test suite."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vecafl
from vecafl.config import SimConfig, validate_config
from vecafl.model import LabeledBatch, ModelParams
from vecafl.rng import substream


def tiny_cfg(**overrides) -> SimConfig:
    """A validated config that runs in moments: 3 vehicles, width 6, a
    6-8-10 classifier, shards of 40, one local round of batch 10 and no
    degraded vehicle; ``overrides`` go on top."""
    base = dict(vehicle_count=3, feature_dim=6, classifier_arch=(6, 8, 10),
                shard_size=40, rsu_shard_size=40, local_rounds=1,
                local_batch=10, bad_vehicle=-1)
    return validate_config(replace(SimConfig(), **{**base, **overrides}))


def child_env(**extra) -> dict:
    """This environment for a child interpreter: this tree's src first on
    its path, and ``extra`` set."""
    src = Path(vecafl.__file__).resolve().parents[1]
    path = filter(None, (str(src), os.environ.get("PYTHONPATH")))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def make_params(weights, biases):
    """ModelParams from plain nested lists: per layer, the weights
    row-major, then the biases."""
    ws = [np.array(w, dtype=float) for w in weights]
    bs = [np.array(b, dtype=float) for b in biases]
    arch = tuple([ws[0].shape[0]] + [w.shape[1] for w in ws])
    return ModelParams(np.concatenate([part.ravel() for w, b in zip(ws, bs)
                                       for part in (w, b)]), arch)


def tiny_122_net():
    """1-2-2 stack with hand-set weights; the oracle values in the tests
    were produced from exactly these numbers."""
    return make_params(
        [[[1.0, -1.0]], [[0.5, -0.25], [1.5, 0.75]]],
        [[0.1, 0.2], [0.05, -0.05]])


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return (a.architecture == b.architecture
            and np.array_equal(a.vector, b.vector))


def params_allclose(a: ModelParams, b: ModelParams, tol=1e-12) -> bool:
    return (a.architecture == b.architecture
            and np.allclose(a.vector, b.vector, rtol=0.0, atol=tol))


def balanced_batch(n: int, dim: int, seed: int = 0) -> LabeledBatch:
    rng = substream(seed, "test-batch")
    inputs = rng.uniform(0.0, 1.0, size=(n, dim))
    labels = np.arange(n) % 10
    return LabeledBatch(inputs, labels)


@pytest.fixture
def rng():
    return substream(1234, "fixture")
