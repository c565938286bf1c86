"""Dense softmax classifier trained with plain minibatch SGD.

Also holds the generic fully connected parameter container and backprop
core reused by the actor and critic networks: every network in the
simulator is a stack of affine layers with relu on the hidden ones, and
only the output head differs.
"""

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


def _layer_views(flat: np.ndarray, architecture) -> list:
    """(weights, biases) views per layer of a flat parameter vector.

    The one statement of the layout: layer by layer, the (fan_in, fan_out)
    weights row-major, then the fan_out biases.  On a (g, P) stack every
    view carries the leading learner axis.
    """
    views, pos, lead = [], 0, flat.shape[:-1]
    for fan_in, fan_out in zip(architecture[:-1], architecture[1:]):
        w = flat[..., pos:pos + fan_in * fan_out]
        pos += fan_in * fan_out
        views.append((w.reshape(lead + (fan_in, fan_out)),
                      flat[..., pos:pos + fan_out]))
        pos += fan_out
    return views


def _param_count(arch: tuple) -> int:
    """Length of a network's vector; raises on a bad architecture."""
    if len(arch) < 2 or any(n <= 0 for n in arch):
        raise ValueError("architecture needs at least two positive layer sizes")
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(arch[:-1], arch[1:]))


@dataclass
class ModelParams:
    """Weights and biases of a fully connected network in one vector.

    ``vector`` is float64 in the ``_layer_views`` layout: (P,) for one
    network, (g, P) for a cohort of g.  ``layer_weights`` and
    ``layer_biases`` are views into it.
    """

    vector: np.ndarray
    architecture: tuple   # (in, hidden..., out)

    def __post_init__(self):
        arch = self.architecture = tuple(int(n) for n in self.architecture)
        size = _param_count(arch)
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim not in (1, 2) or self.vector.shape[-1] != size:
            raise ValueError(f"expected {size} values for {arch}, "
                             f"got shape {self.vector.shape}")

    @property
    def layers(self) -> list:
        return _layer_views(self.vector, self.architecture)

    @property
    def layer_weights(self) -> list:
        return [w for w, _ in self.layers]

    @property
    def layer_biases(self) -> list:
        return [b for _, b in self.layers]


def weights_then_biases(architecture) -> np.ndarray:
    """Positions of every layer's weights, then of every layer's biases."""
    layers = _layer_views(np.arange(_param_count(architecture)),
                          architecture)
    return np.concatenate([w.ravel() for w, _ in layers]
                          + [b for _, b in layers])


def _architecture(*params: ModelParams) -> tuple:
    """The shared architecture of ``params``; raises when they differ."""
    arch = params[0].architecture
    if any(p.architecture != arch for p in params):
        raise ValueError("parameter shapes disagree")
    return arch


def init_params(architecture, rng: np.random.Generator) -> ModelParams:
    """Uniform(-b, b) weights with b = sqrt(6/(fan_in+fan_out)), zero biases."""
    arch = tuple(int(n) for n in architecture)
    params = ModelParams(np.zeros(_param_count(arch)), arch)
    for w, _ in params.layers:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


def forward_stack(params: ModelParams, x: np.ndarray):
    """Return output-layer logits and per-layer activations (for backprop).

    A cohort of networks runs at once when the parameters are a (g, P)
    stack and the inputs are (g, n, dim): each learner's rows meet only its
    own layers.
    """
    acts = [_as_batch(x)]
    h = acts[0]
    layers = params.layers
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w + b[..., None, :]
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def backprop_from_logits(params: ModelParams, acts, dlogits: np.ndarray):
    """Push a gradient at the output logits back through the stack.

    Returns (grads, dinput) where grads mirrors the parameter layout and
    dinput is the gradient with respect to the input rows.  Hidden layers
    use the relu mask of the cached activations.  Works on a cohort stack
    as ``forward_stack`` does.
    """
    grads = ModelParams(np.empty_like(params.vector), params.architecture)
    delta = dlogits
    for i, ((w, _), (gw, gb)) in reversed(list(enumerate(
            zip(params.layers, grads.layers)))):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=gw)
        np.sum(delta, axis=-2, out=gb)
        delta = delta @ w.swapaxes(-1, -2)
        if i > 0:
            delta = delta * (acts[i] > 0.0)
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
    last minibatch is never padded.  The starts' vectors are stacked into
    one (g, P) array, and the gradients live in a second one, so a step
    ends in one fused update.

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
    arch = _architecture(*starts)

    order = sorted(range(len(shards)), key=lambda i: -len(shards[i]))
    sizes = [len(shards[i]) for i in order]
    batches = [LabeledBatch(np.asarray(shards[i].inputs, dtype=float),
                            np.asarray(shards[i].labels, dtype=np.intp))
               for i in order]
    g, rows = len(order), min(sizes[0], max(batch_size, LOSS_ROWS + 1))
    stack = np.stack([starts[i].vector for i in order])
    grads = np.empty_like(stack)
    layers = _layer_views(stack, arch)
    grad_layers = _layer_views(grads, arch)
    # each shard's labels as one-hot rows, gathered with the inputs, so a
    # step's softmax-minus-target is one subtraction
    hots = [np.eye(arch[-1])[batch.labels] for batch in batches]
    inputs = np.empty((g, sizes[0], arch[0]))
    targets = np.empty((g, sizes[0], arch[-1]))
    # scratch rows for the layer outputs and the backpropagated errors; a
    # step views the head of each as a contiguous (learners, rows, width)
    outs = [np.empty((g * rows, n)) for n in arch[1:]]
    deltas = [np.empty((g * rows, n)) for n in arch[1:-1]]
    column = np.empty(g * rows)  # a row max, then a row sum, of the logits
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
        flat = outs[last][:(stop - first) * (hi - lo)]  # z as 2-D rows
        col = column[:len(flat)]
        np.maximum.reduce(flat, axis=1, out=col)
        flat -= col[:, None]
        np.exp(flat, out=flat)
        np.add.reduce(flat, axis=1, out=col)
        flat /= col[:, None]
        return acts

    def step(first, stop, lo, hi):
        acts = forward(first, stop, lo, hi)
        delta = acts.pop()
        delta -= targets[first:stop, lo:hi]
        delta /= hi - lo
        for k in range(last, -1, -1):
            gw, gb = grad_layers[k]
            np.matmul(acts[k].swapaxes(-1, -2), delta, out=gw[first:stop])
            np.add.reduce(delta, axis=1, out=gb[first:stop])
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
            np.take(hots[row], perm, axis=0, out=targets[row, :len(batch)],
                    mode="clip")
        for first, stop, lo, hi in plan:
            step(first, stop, lo, hi)

    picked = np.empty((g, sizes[0]))
    labels = np.empty((g, sizes[0]), dtype=np.intp)
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
        out[i] = (ModelParams(stack[row].copy(), arch),
                  _mean_nll(picked[row, :sizes[row]]))
    return out


def evaluate(params: ModelParams, batch: LabeledBatch):
    """(accuracy, error_rate) under argmax prediction, ties to lowest class."""
    probs = softmax(forward_stack(params, batch.inputs)[0])
    pred = probs.argmax(axis=1)
    acc = float(np.mean(pred == batch.labels))
    return acc, 1.0 - acc


# ---------------------------------------------------------------------------
# parameter algebra shared with the aggregation and agent code


def params_copy(params: ModelParams) -> ModelParams:
    return ModelParams(params.vector.copy(), params.architecture)


def params_scale(params: ModelParams, factor: float) -> ModelParams:
    return ModelParams(params.vector * factor, params.architecture)


def params_axpy(a: ModelParams, b: ModelParams, coeff: float) -> ModelParams:
    """a + coeff * b elementwise."""
    return ModelParams(a.vector + coeff * b.vector, _architecture(a, b))


def params_combine(ca: float, a: ModelParams, cb: float,
                   b: ModelParams) -> ModelParams:
    """ca * a + cb * b elementwise."""
    return ModelParams(ca * a.vector + cb * b.vector, _architecture(a, b))


def params_mean(models) -> ModelParams:
    """Elementwise mean: a running sum in input order, then one scaling."""
    models = list(models)
    if not models:
        raise ValueError("nothing to average")
    arch = _architecture(*models)
    total = sum((m.vector for m in models[1:]), models[0].vector)
    return ModelParams(total * (1.0 / len(models)), arch)


# ---------------------------------------------------------------------------
# serialization: JSON shape header line + little-endian float64 payload


def params_to_bytes(params: ModelParams) -> bytes:
    header = json.dumps({"architecture": list(params.architecture),
                         "dtype": "<f8", "count": int(params.vector.size)},
                        sort_keys=True)
    return (header.encode("utf-8") + b"\n"
            + params.vector.astype("<f8").tobytes())


def params_from_bytes(blob: bytes) -> ModelParams:
    """Inverse of ``params_to_bytes``; a ValueError says what is wrong."""
    head, _, payload = blob.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
        arch = tuple(int(n) for n in header["architecture"])
        count, dtype = int(header["count"]), header["dtype"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"unreadable header ({exc!r})") from exc
    if dtype != "<f8":
        raise ValueError(f"unsupported dtype {dtype!r}")
    if len(payload) != 8 * count:
        raise ValueError(f"payload of {len(payload)} bytes, the header "
                         f"count of {count} needs {8 * count}")
    return ModelParams(np.frombuffer(payload, dtype="<f8").astype(np.float64),
                       arch)


def save_params(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return params_from_bytes(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
