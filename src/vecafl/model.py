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
    return _mean_nll(probs[np.arange(len(batch)), batch.labels])


def _mean_nll(picked: np.ndarray) -> float:
    """Mean negative log of the true-class probabilities ``picked``."""
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


# Row block of the final loss: a multiple of the BLAS kernels' row panels,
# so that blocked logits equal whole-shard ones, and small enough that the
# default net's widest product (64 x 64 x 32) stays under OpenBLAS's
# threading threshold of 262,144.
LOSS_ROWS = 64


def _step_plan(sizes, block: int, join_lone_row: bool = False) -> list:
    """Stacked steps (first, stop, lo, hi) over learners sorted by size.

    ``sizes`` runs largest first.  Each learner's rows are cut into blocks
    of ``block`` rows from row 0, and learners that share a block's bounds
    and sit next to each other in the order step together: rows lo:hi of
    learners first:stop.  Those still holding a full block are a prefix;
    the learners of one shard size share their short last block.  With
    ``join_lone_row`` a last block of one row is joined to the block before
    it, so that no block but a one-row shard is a single row.
    """
    steps = []
    for lo in range(0, sizes[0], block):
        ends = []
        for n in sizes:
            hi = min(lo + block, n)
            if join_lone_row and n - hi == 1:
                hi = n
            elif join_lone_row and lo and n - lo == 1:
                hi = lo  # joined to the block before
            ends.append(hi)
        first = 0
        for row in range(1, len(sizes) + 1):
            if row == len(sizes) or ends[row] != ends[first]:
                if ends[first] > lo:
                    steps.append((first, row, lo, ends[first]))
                first = row
    return steps


def _layer_views(flat: np.ndarray, architecture) -> list:
    """(weights, biases) views per layer of a (g, P) stack of flat vectors."""
    views, pos = [], 0
    for fan_in, fan_out in zip(architecture[:-1], architecture[1:]):
        w = flat[:, pos:pos + fan_in * fan_out]
        pos += fan_in * fan_out
        views.append((w.reshape(len(flat), fan_in, fan_out),
                      flat[:, pos:pos + fan_out]))
        pos += fan_out
    return views


def train_cohort(starts, shards, rngs, rounds: int, eta: float,
                 batch_size: int) -> list:
    """Minibatch SGD for a cohort of learners in lockstep.

    Learner i starts from ``starts[i]`` and makes ``rounds`` passes over
    ``shards[i]``, reshuffled each pass by ``rngs[i].permutation``.
    Returns one (trained parameters, mean loss of the final model on the
    whole shard) per learner, in input order.

    Each learner's result is bit-identical to training it alone with
    ``gradient`` and ``sgd_step`` and scoring it with ``cross_entropy``.
    The learners are ordered by shard size, largest first, so that every
    stacked operand is a view and each learner meets the matrix shapes, and
    so the summation order, of its solo run: see ``_step_plan``.  A short
    last minibatch is never padded.  The parameters live in one (g, P)
    stack in the ``flatten_params`` layout, and the gradients in a second
    one, so a step ends in one fused update.

    The final loss runs over row blocks of ``LOSS_ROWS``.  A row's logits
    from a block equal those from the whole shard because the blocks start
    on the BLAS kernel's row panels and no block but a one-row shard is a
    single row, which numpy hands to a matrix-vector kernel instead.
    Keeping every product this small also keeps BLAS on one thread.
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
    batches = [LabeledBatch(np.asarray(shards[i].inputs, dtype=float),
                            np.asarray(shards[i].labels, dtype=np.intp))
               for i in order]
    g, rows = len(order), min(sizes[0], max(batch_size, LOSS_ROWS + 1))
    stack = np.stack([flatten_params(starts[i]) for i in order])
    grads = np.empty_like(stack)
    layers = _layer_views(stack, arch)
    grad_layers = _layer_views(grads, arch)
    inputs = np.empty((g, sizes[0], arch[0]))
    labels = np.empty((g, sizes[0]), dtype=np.intp)
    # scratch rows for the layer outputs and the backpropagated errors; a
    # step views the head of each as a contiguous (learners, rows, width)
    outs = [np.empty((g * rows, n)) for n in arch[1:]]
    deltas = [np.empty((g * rows, n)) for n in arch[1:-1]]
    index = np.arange(max(g, rows))
    last = len(layers) - 1

    def scratch(buf, first, stop, lo, hi):
        return buf[:(stop - first) * (hi - lo)].reshape(stop - first, hi - lo,
                                                        -1)

    def forward(first, stop, lo, hi):
        """Layer inputs, then class probabilities, of rows lo:hi of
        learners first:stop."""
        acts = [inputs[first:stop, lo:hi]]
        for k, (w, b) in enumerate(layers):
            z = np.matmul(acts[-1], w[first:stop],
                          out=scratch(outs[k], first, stop, lo, hi))
            z += b[first:stop, None, :]
            if k < last:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return acts

    def step(first, stop, lo, hi):
        acts = forward(first, stop, lo, hi)
        delta = acts.pop()
        delta[index[:stop - first, None], index[:hi - lo],
              labels[first:stop, lo:hi]] -= 1.0
        delta /= hi - lo
        for k in range(last, -1, -1):
            gw, gb = grad_layers[k]
            np.matmul(acts[k].swapaxes(-1, -2), delta, out=gw[first:stop])
            np.sum(delta, axis=-2, out=gb[first:stop])
            if k:  # the input rows need no gradient
                delta = np.matmul(delta, layers[k][0][first:stop]
                                  .swapaxes(-1, -2),
                                  out=scratch(deltas[k - 1], first, stop,
                                              lo, hi))
                delta *= acts[k] > 0.0
        update = grads[first:stop]
        update *= -eta
        stack[first:stop] += update

    plan = _step_plan(sizes, batch_size)
    for _ in range(rounds):
        for row, (i, batch) in enumerate(zip(order, batches)):
            perm = rngs[i].permutation(len(batch))
            # a permutation is in range, so "clip" only skips a buffer
            np.take(batch.inputs, perm, axis=0, out=inputs[row, :len(batch)],
                    mode="clip")
            np.take(batch.labels, perm, out=labels[row, :len(batch)],
                    mode="clip")
        for first, stop, lo, hi in plan:
            step(first, stop, lo, hi)

    picked = np.empty((g, sizes[0]))
    for row, batch in enumerate(batches):
        inputs[row, :len(batch)] = batch.inputs
        labels[row, :len(batch)] = batch.labels
    for first, stop, lo, hi in _step_plan(sizes, LOSS_ROWS,
                                          join_lone_row=True):
        probs = forward(first, stop, lo, hi)[-1]
        picked[first:stop, lo:hi] = np.take_along_axis(
            probs, labels[first:stop, lo:hi, None], axis=-1)[..., 0]
    out = [None] * g
    for row, i in enumerate(order):
        out[i] = (unflatten_params(stack[row], arch),
                  _mean_nll(picked[row, :sizes[row]]))
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
