"""Shared builders for the test suite."""

import numpy as np
import pytest

from vecafl.model import LabeledBatch, ModelParams
from vecafl.rng import substream


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
