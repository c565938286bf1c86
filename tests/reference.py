"""Plain references the tests pin the simulator to.

``forward`` and ``gradient`` are the solo network: one learner's class
probabilities and its exact cross-entropy gradient, built from the
package's own ``forward_stack`` and ``backprop_from_logits``.
``solo_sgd`` trains one learner with them a minibatch at a time, and
``model.train_cohort`` must reproduce it bit for bit.  ``parse_metrics``
reads a ``metrics.csv`` back into rows.
"""

import csv

import numpy as np

from vecafl.harness import MetricsRow
from vecafl.model import (LabeledBatch, ModelParams, backprop_from_logits,
                          cross_entropy, forward_stack, params_axpy, softmax)


def weights(params: ModelParams) -> list:
    """Each layer's weight view, in order."""
    return [w for w, _ in params.layers]


def biases(params: ModelParams) -> list:
    """Each layer's bias view, in order."""
    return [b for _, b in params.layers]


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities; rows sum to one."""
    logits, _ = forward_stack(params, x)
    probs = softmax(logits)
    return probs[0] if np.asarray(x).ndim == 1 else probs


def gradient(params: ModelParams, batch: LabeledBatch) -> ModelParams:
    """Exact gradient of the mean cross entropy over the batch."""
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    logits, acts = forward_stack(params, batch.inputs)
    dlogits = softmax(logits)
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n
    grads, _ = backprop_from_logits(params, acts, dlogits)
    return grads


def solo_sgd(start, shard, rounds, eta, batch_size, rng):
    """One learner's minibatch SGD, one minibatch at a time; returns the
    trained parameters and their mean loss on the whole shard."""
    params = start
    n = len(shard)
    for _ in range(rounds):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            mb = LabeledBatch(shard.inputs[idx], shard.labels[idx])
            params = params_axpy(params, gradient(params, mb), -eta)
    return params, cross_entropy(params, shard)


def parse_metrics(path) -> list:
    """The ``MetricsRow``s of a ``metrics.csv``."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            out.append(MetricsRow(
                rec["run_id"], rec["scheme"], int(rec["episode"]),
                int(rec["slot"]), float(rec["avg_loss"]),
                float(rec["accuracy"]), float(rec["error_rate"]),
                float(rec["reward"]), float(rec["attacked_fraction"]),
                int(rec["accepted_count"]), float(rec["mean_delay"]),
                rec["config_hash"]))
    return out
