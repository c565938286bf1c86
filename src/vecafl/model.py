"""Dense softmax classifier trained with plain minibatch SGD.

Also holds the generic fully connected parameter container and backprop
core reused by the actor and critic networks: every network in the
simulator is a stack of affine layers with relu on the hidden ones, and
only the output head differs.
"""

import io
import json
from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12  # floor inside log() of the cross entropy


@dataclass
class LabeledBatch:
    """Feature rows with integer class labels."""

    inputs: np.ndarray   # (n, dim) float64
    labels: np.ndarray   # (n,) int

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ModelParams:
    """Weights and biases of a fully connected network."""

    layer_weights: list   # [(fan_in, fan_out) float64, ...]
    layer_biases: list    # [(fan_out,) float64, ...]
    architecture: tuple   # (in, hidden..., out)


def init_params(architecture, rng: np.random.Generator) -> ModelParams:
    """Uniform(-b, b) weights with b = sqrt(6/(fan_in+fan_out)), zero biases."""
    arch = tuple(int(n) for n in architecture)
    if len(arch) < 2 or any(n <= 0 for n in arch):
        raise ValueError("architecture needs at least two positive layer sizes")
    weights, biases = [], []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases, arch)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def forward_stack(params: ModelParams, x: np.ndarray):
    """Return output-layer logits and per-layer activations (for backprop).

    A cohort of networks runs at once when every weight carries a leading
    learner axis, (g, fan_in, fan_out) with (g, fan_out) biases, and the
    inputs are (g, n, dim): each learner's rows meet only its own layers.
    """
    acts = [_as_batch(x)]
    h = acts[0]
    last = len(params.layer_weights) - 1
    for i, (w, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
        z = h @ w + b[..., None, :]
        h = z if i == last else relu(z)
        acts.append(h)
    return h, acts


def backprop_from_logits(params: ModelParams, acts, dlogits: np.ndarray):
    """Push a gradient at the output logits back through the stack.

    Returns (grads, dinput) where grads mirrors the parameter layout and
    dinput is the gradient with respect to the input rows.  Hidden layers
    use the relu mask of the cached activations.  Works on a cohort stack
    as ``forward_stack`` does.
    """
    grads_w = [None] * len(params.layer_weights)
    grads_b = [None] * len(params.layer_biases)
    delta = dlogits
    for i in range(len(params.layer_weights) - 1, -1, -1):
        grads_w[i] = acts[i].swapaxes(-1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        delta = delta @ params.layer_weights[i].swapaxes(-1, -2)
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    grads = ModelParams(grads_w, grads_b, params.architecture)
    return grads, delta


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities; rows sum to one."""
    logits, _ = forward_stack(params, x)
    probs = softmax(logits)
    return probs[0] if np.asarray(x).ndim == 1 else probs


def cross_entropy(params: ModelParams, batch: LabeledBatch) -> float:
    """Mean negative log-likelihood of the true labels."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    probs = softmax(forward_stack(params, batch.inputs)[0])
    picked = probs[np.arange(len(batch)), batch.labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLAMP))))


def gradient(params: ModelParams, batch: LabeledBatch) -> ModelParams:
    """Exact gradient of the mean cross entropy over the batch.

    On a cohort stack (see ``forward_stack``) with (g, n) labels, each
    learner gets the gradient of the mean over its own n rows.
    """
    n = batch.labels.shape[-1]
    if n == 0:
        raise ValueError("empty batch")
    logits, acts = forward_stack(params, batch.inputs)
    dlogits = softmax(logits)
    rows = dlogits.reshape(-1, dlogits.shape[-1])  # a view: softmax is fresh
    rows[np.arange(len(rows)), batch.labels.ravel()] -= 1.0
    dlogits /= n
    grads, _ = backprop_from_logits(params, acts, dlogits)
    return grads


def sgd_step(params: ModelParams, grads: ModelParams,
             eta: float) -> ModelParams:
    """One descent step; functional, leaves the inputs untouched."""
    if eta < 0.0:
        raise ValueError("learning rate must be nonnegative")
    return params_axpy(params, grads, -eta)


def train_cohort(starts, shards, rngs, rounds: int, eta: float,
                 batch_size: int) -> list:
    """Minibatch SGD for a cohort of learners in lockstep.

    Learner i starts from ``starts[i]`` and makes ``rounds`` passes over
    ``shards[i]``, reshuffled each pass by ``rngs[i].permutation``.
    Returns one (trained parameters, mean loss of the final model on the
    whole shard) per learner, in input order.

    Each learner's result is bit-identical to training it alone: the
    learners are ordered by shard size, largest first, so those that still
    hold a full minibatch at a step are a prefix of the stack and take one
    stacked step.  A short last minibatch is never padded; it steps
    together with the learners of the same shard size only.  Every learner
    thus sees the matrix shapes, and so the summation order, of its solo
    run.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if eta < 0.0:
        raise ValueError("learning rate must be nonnegative")
    if not len(starts) == len(shards) == len(rngs):
        raise ValueError("one start, shard and rng per learner")
    if not starts:
        return []
    if any(len(shard) == 0 for shard in shards):
        raise ValueError("empty batch")
    arch = starts[0].architecture
    if any(s.architecture != arch for s in starts):
        raise ValueError("parameter shapes disagree")

    order = sorted(range(len(shards)), key=lambda i: -len(shards[i]))
    sizes = [len(shards[i]) for i in order]
    stack = ModelParams(
        [np.stack([starts[i].layer_weights[k] for i in order])
         for k in range(len(arch) - 1)],
        [np.stack([starts[i].layer_biases[k] for i in order])
         for k in range(len(arch) - 1)], arch)
    inputs = np.empty((len(order), sizes[0], arch[0]))
    labels = np.empty((len(order), sizes[0]), dtype=np.intp)

    def step(first: int, stop: int, lo: int, hi: int) -> None:
        view = ModelParams([w[first:stop] for w in stack.layer_weights],
                           [b[first:stop] for b in stack.layer_biases], arch)
        grads = gradient(view, LabeledBatch(inputs[first:stop, lo:hi],
                                            labels[first:stop, lo:hi]))
        for p, g in zip(view.layer_weights + view.layer_biases,
                        grads.layer_weights + grads.layer_biases):
            p += (-eta) * g

    for _ in range(rounds):
        for row, (i, n) in enumerate(zip(order, sizes)):
            perm = rngs[i].permutation(n)
            inputs[row, :n] = shards[i].inputs[perm]
            labels[row, :n] = shards[i].labels[perm]
        for lo in range(0, sizes[0], batch_size):
            hi = lo + batch_size
            full = sum(n >= hi for n in sizes)
            if full:
                step(0, full, lo, hi)
            row = full
            while row < len(sizes) and sizes[row] > lo:
                stop = row + sizes.count(sizes[row])
                step(row, stop, lo, sizes[row])
                row = stop

    out = [None] * len(order)
    for row, i in enumerate(order):
        params = ModelParams([w[row].copy() for w in stack.layer_weights],
                             [b[row].copy() for b in stack.layer_biases],
                             arch)
        out[i] = (params, cross_entropy(params, shards[i]))
    return out


def local_train(start: ModelParams, shard: LabeledBatch, rounds: int,
                eta: float, batch_size: int,
                rng: np.random.Generator):
    """Minibatch SGD for ``rounds`` full passes over the shard.

    Returns the trained parameters and the mean loss of the final model on
    the whole shard: a cohort of one.
    """
    return train_cohort([start], [shard], [rng], rounds, eta,
                        batch_size)[0]


def evaluate(params: ModelParams, batch: LabeledBatch):
    """(accuracy, error_rate) under argmax prediction, ties to lowest class."""
    probs = softmax(forward_stack(params, batch.inputs)[0])
    pred = probs.argmax(axis=1)
    acc = float(np.mean(pred == batch.labels))
    return acc, 1.0 - acc


def model_size_bits(params: ModelParams, configured_bits: int = 5000) -> int:
    """Upload payload size used for air-time accounting.

    The scenario fixes the payload as a constant independent of the actual
    parameter count, so this just validates and passes the constant through.
    """
    if configured_bits <= 0:
        raise ValueError("configured_bits must be positive")
    return int(configured_bits)


# ---------------------------------------------------------------------------
# parameter algebra shared with the aggregation and agent code


def params_copy(params: ModelParams) -> ModelParams:
    return ModelParams([w.copy() for w in params.layer_weights],
                       [b.copy() for b in params.layer_biases],
                       params.architecture)


def params_scale(params: ModelParams, factor: float) -> ModelParams:
    return ModelParams([w * factor for w in params.layer_weights],
                       [b * factor for b in params.layer_biases],
                       params.architecture)


def params_axpy(a: ModelParams, b: ModelParams, coeff: float) -> ModelParams:
    """a + coeff * b elementwise."""
    if a.architecture != b.architecture:
        raise ValueError("parameter shapes disagree")
    return ModelParams(
        [wa + coeff * wb for wa, wb in zip(a.layer_weights, b.layer_weights)],
        [ba + coeff * bb for ba, bb in zip(a.layer_biases, b.layer_biases)],
        a.architecture)


def params_combine(ca: float, a: ModelParams, cb: float,
                   b: ModelParams) -> ModelParams:
    """ca * a + cb * b elementwise."""
    if a.architecture != b.architecture:
        raise ValueError("parameter shapes disagree")
    return ModelParams(
        [ca * wa + cb * wb
         for wa, wb in zip(a.layer_weights, b.layer_weights)],
        [ca * ba + cb * bb
         for ba, bb in zip(a.layer_biases, b.layer_biases)],
        a.architecture)


def params_mean(models) -> ModelParams:
    models = list(models)
    if not models:
        raise ValueError("nothing to average")
    out = params_copy(models[0])
    for m in models[1:]:
        out = params_axpy(out, m, 1.0)
    return params_scale(out, 1.0 / len(models))


# ---------------------------------------------------------------------------
# flat serialization: JSON shape header + little-endian float64 payload


def flatten_params(params: ModelParams) -> np.ndarray:
    parts = []
    for w, b in zip(params.layer_weights, params.layer_biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts).astype(np.float64)


def unflatten_params(vector: np.ndarray, architecture) -> ModelParams:
    arch = tuple(int(n) for n in architecture)
    vector = np.asarray(vector, dtype=np.float64)
    expected = sum(i * o + o for i, o in zip(arch[:-1], arch[1:]))
    if vector.ndim != 1 or vector.size != expected:
        raise ValueError(f"expected {expected} values for {arch}")
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        weights.append(vector[pos:pos + fan_in * fan_out]
                       .reshape(fan_in, fan_out).copy())
        pos += fan_in * fan_out
        biases.append(vector[pos:pos + fan_out].copy())
        pos += fan_out
    return ModelParams(weights, biases, arch)


def params_to_bytes(params: ModelParams) -> bytes:
    flat = flatten_params(params)
    header = json.dumps({"architecture": list(params.architecture),
                         "dtype": "<f8", "count": int(flat.size)},
                        sort_keys=True)
    buf = io.BytesIO()
    buf.write(header.encode("utf-8"))
    buf.write(b"\n")
    buf.write(flat.astype("<f8").tobytes())
    return buf.getvalue()


def params_from_bytes(blob: bytes) -> ModelParams:
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline].decode("utf-8"))
    flat = np.frombuffer(blob[newline + 1:], dtype="<f8")
    if flat.size != header["count"]:
        raise ValueError("payload length disagrees with header count")
    return unflatten_params(flat.astype(np.float64),
                            header["architecture"])


def save_params(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
