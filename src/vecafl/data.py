"""Datasets, shard assignment and adversarial tampering.

Features live in [0, 1] and labels in 0..9 throughout; both attacks are
involutions on that domain.  Tampering happens on a vehicle's local copy
only, the trusted roadside shard is never routed through any attack path.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import LabeledBatch, ModelParams, weights_then_biases

NUM_CLASSES = 10


@dataclass
class DataShard:
    """A participant's local dataset and, once ``World.set_attacks`` has
    made one, the tampered copy it trains on."""

    batch: LabeledBatch
    tampered: LabeledBatch = field(default=None, repr=False)

    def training_view(self) -> LabeledBatch:
        """The data trained on: the tampered copy when there is one."""
        return self.batch if self.tampered is None else self.tampered


def _check_batch(batch: LabeledBatch) -> None:
    if batch.inputs.ndim != 2:
        raise ValueError("inputs must be a 2-d array")
    if batch.inputs.shape[0] != batch.labels.shape[0]:
        raise ValueError("inputs and labels disagree in length")
    if not ((batch.inputs >= 0.0) & (batch.inputs <= 1.0)).all():  # NaN too
        raise ValueError("features must lie in [0, 1]")
    if batch.labels.min(initial=0) < 0 or batch.labels.max(initial=0) >= NUM_CLASSES:
        raise ValueError(f"labels must lie in 0..{NUM_CLASSES - 1}")


def synthetic_blobs(n: int, dim: int, rng: np.random.Generator,
                    spread: float) -> LabeledBatch:
    """Ten Gaussian clusters with centres inside [0.2, 0.8]^dim, clipped.

    Labels are balanced round-robin so every shard size yields all classes.
    """
    if n <= 0 or dim <= 0:
        raise ValueError("n and dim must be positive")
    centers = rng.uniform(0.2, 0.8, size=(NUM_CLASSES, dim))
    labels = np.arange(n) % NUM_CLASSES
    rng.shuffle(labels)
    inputs = centers[labels] + spread * rng.standard_normal((n, dim))
    np.clip(inputs, 0.0, 1.0, out=inputs)
    batch = LabeledBatch(inputs, labels.astype(int))
    _check_batch(batch)
    return batch


def load_csv(path) -> LabeledBatch:
    """Rows of ``label, f1, ..., fd``: integer labels in 0..9 and features
    already in [0, 1].  Every ValueError names the file."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        if raw.shape[1] < 2:
            raise ValueError("need a label column plus at least one feature")
        if not np.isin(raw[:, 0], np.arange(NUM_CLASSES)).all():
            raise ValueError(f"labels must be integers in "
                             f"0..{NUM_CLASSES - 1}")
        batch = LabeledBatch(raw[:, 1:].astype(float), raw[:, 0].astype(int))
        _check_batch(batch)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return batch


def partition(dataset: LabeledBatch, shard_sizes, rsu_size: int,
              rng: np.random.Generator):
    """Disjoint random shards for each vehicle plus the trusted shard.

    Returns (vehicle_batches, rsu_batch, remainder); the remainder serves
    as a clean held-out evaluation pool.
    """
    sizes = [int(s) for s in shard_sizes]
    needed = sum(sizes) + rsu_size
    if needed > len(dataset):
        raise ValueError(f"partition wants {needed} samples, "
                         f"dataset has {len(dataset)}")
    order = rng.permutation(len(dataset))
    cuts, pos = [], 0
    for s in sizes + [rsu_size]:
        cuts.append(order[pos:pos + s])
        pos += s
    rest = order[pos:]
    take = lambda idx: LabeledBatch(dataset.inputs[idx], dataset.labels[idx])
    return [take(c) for c in cuts[:-1]], take(cuts[-1]), take(rest)


def class_flip(batch: LabeledBatch) -> LabeledBatch:
    """Label inversion y -> 9 - y; features untouched."""
    _check_batch(batch)
    return LabeledBatch(batch.inputs.copy(),
                        (NUM_CLASSES - 1) - batch.labels)


def data_flip(batch: LabeledBatch) -> LabeledBatch:
    """Feature inversion a -> 1 - a; labels untouched."""
    _check_batch(batch)
    return LabeledBatch(1.0 - batch.inputs, batch.labels.copy())


ATTACKS = {"class_flip": class_flip, "data_flip": data_flip}
ATTACK_KINDS = ("none", *ATTACKS)


def degrade_bad_node(params: ModelParams, noise_scale: float,
                     rng: np.random.Generator) -> ModelParams:
    """Additive Gaussian corruption of an upload from a failing vehicle."""
    # one draw, spread over the weights first and the biases after them
    noise = np.empty_like(params.vector)
    noise[weights_then_biases(params.architecture)] = \
        rng.standard_normal(noise.size)
    return ModelParams(params.vector + noise_scale * noise,
                       params.architecture)
