"""Dense softmax classifier trained with plain minibatch SGD.

Also holds the generic fully connected parameter container and backprop
core reused by the actor and critic networks: every network in the
simulator is a stack of affine layers with relu on the hidden ones, and
only the output head differs.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

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

    ``vector`` is a (P,) float64 array in the ``_layer_views`` layout.
    ``layers`` holds views into it.
    """

    vector: np.ndarray
    architecture: tuple   # (in, hidden..., out)

    def __post_init__(self):
        arch = self.architecture = tuple(int(n) for n in self.architecture)
        size = _param_count(arch)
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.shape != (size,):
            raise ValueError(f"expected {size} values for {arch}, "
                             f"got shape {self.vector.shape}")

    @property
    def layers(self) -> list:
        return _layer_views(self.vector, self.architecture)


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
    """Return output-layer logits and per-layer activations (for backprop)."""
    acts = [_as_batch(x)]
    h = acts[0]
    layers = params.layers
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return h, acts


def backprop_from_logits(params: ModelParams, acts, dlogits: np.ndarray):
    """Push a gradient at the output logits back through the stack to the
    parameter gradients, returned in the parameter layout.  Hidden layers
    use the relu mask of the cached activations.  The gradient with
    respect to the input rows is ``input_gradient``'s.
    """
    grads = ModelParams(np.empty_like(params.vector), params.architecture)
    delta = dlogits
    for i, ((w, _), (gw, gb)) in reversed(list(enumerate(
            zip(params.layers, grads.layers)))):
        np.matmul(acts[i].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            delta = (delta @ w.T) * (acts[i] > 0.0)
    return grads


def input_gradient(params: ModelParams, acts, dlogits: np.ndarray):
    """Push a gradient at the output logits back through the stack to the
    input rows, without the parameter gradients."""
    delta = dlogits
    for i, (w, _) in reversed(list(enumerate(params.layers))):
        delta = delta @ w.T
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return delta


def cross_entropy(params: ModelParams, batch: LabeledBatch) -> float:
    """Mean negative log-likelihood of the true labels."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    probs = softmax(forward_stack(params, batch.inputs)[0])
    return _mean_nll(probs[np.arange(len(batch)), batch.labels])


def _mean_nll(picked: np.ndarray) -> float:
    """Mean negative log of the true-class probabilities ``picked``."""
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLAMP))))


# cohort shapes whose operand records the workspace keeps: five vehicles
# and the roadside learner make at most 19 shapes under one config
_SHAPES_KEPT = 32


class _Operands(NamedTuple):
    """Every operand of one stacked step, rows lo:hi of learners first:stop.

    All are views into the cohort workspace, built once per cohort shape
    and replayed on every pass of every call with that shape: the inputs
    and targets fill in place, the scratch is shared by all steps, and the
    parameters and gradients are the cohort's stacks.  A final-loss record
    is one learner's whole shard; it reads the shard, not ``inputs``.
    """

    inputs: np.ndarray      # (learners, rows, in)
    layers: tuple           # (weights, biases, output) per layer, in order
    logits: np.ndarray      # the last output as (learners * rows, classes)
    by_column: np.ndarray   # (classes, learners * rows) scratch
    row_stat: np.ndarray    # (learners * rows,): a row max, then a sum
    row_stat_col: np.ndarray  # row_stat as a (learners * rows, 1) column
    targets: np.ndarray     # one-hot rows, like the last output
    rows: int
    back: tuple             # (input^T, grad w, grad b, w^T, error, input)
                            # per layer, last first; the last three are
                            # None on layer 0, whose input needs no error
    grads: np.ndarray       # the learners' rows of the gradient stack
    params: np.ndarray      # and of the parameter stack


def _step_plan(sizes, block: int) -> list:
    """Stacked steps (first, stop, lo, hi) over learners sorted by size.

    ``sizes`` runs largest first.  Each learner's rows are cut into blocks
    of ``block`` rows from row 0, and learners that share a block's bounds
    and sit next to each other in the order step together: rows lo:hi of
    learners first:stop.  Those still holding a full block are a prefix;
    the learners of one shard size share their short last block.
    """
    steps = []
    for lo in range(0, sizes[0], block):
        ends = [min(lo + block, n) for n in sizes]
        first = 0
        for row in range(1, len(sizes) + 1):
            if row == len(sizes) or ends[row] != ends[first]:
                if ends[first] > lo:
                    steps.append((first, row, lo, ends[first]))
                first = row
    return steps


class _Cohort(NamedTuple):
    """One cohort shape's views into the workspace, and its step operands."""

    stack: np.ndarray     # (g, P) parameters; a call copies its starts in
    inputs: np.ndarray    # (g, largest shard, in) gathered input rows
    targets: np.ndarray   # (g, largest shard, classes) one-hot rows
    train: tuple          # _Operands per step of _step_plan(sizes, batch)
    loss: tuple           # _Operands per learner over its whole shard


class _Workspace:
    """The buffers and per-shape operand records ``train_cohort`` reuses.

    Every buffer is flat and sized to the largest cohort seen so far: it
    grows when a bigger one arrives and never shrinks.  A grown buffer is
    a new array, so the kept records, which view the old one, are dropped
    with it.  Records are keyed by (architecture, sorted sizes, batch size);
    the ``_SHAPES_KEPT`` most recently built are kept.
    """

    def __init__(self):
        self._buffers = {}
        self._cohorts = {}

    def _buffer(self, name, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
            self._cohorts.clear()
        return buf[:size].reshape(shape)

    def cohort(self, arch: tuple, sizes: list, batch_size: int) -> _Cohort:
        key = (arch, tuple(sizes), batch_size)
        found = self._cohorts.get(key)
        if found is None:
            if len(self._cohorts) >= _SHAPES_KEPT:
                del self._cohorts[next(iter(self._cohorts))]
            found = self._cohorts[key] = self._build(arch, sizes, batch_size)
        return found

    def _build(self, arch, sizes, batch_size) -> _Cohort:
        g, longest = len(sizes), sizes[0]
        # a training step spans at most g learners' minibatches, a loss
        # record one learner's whole shard
        rows = max(g * min(batch_size, longest), longest)
        stack = self._buffer("stack", (g, _param_count(arch)))
        grads = self._buffer("grads", stack.shape)
        inputs = self._buffer("inputs", (g, longest, arch[0]))
        targets = self._buffer("targets", (g, longest, arch[-1]))
        # scratch rows for the layer outputs and the backpropagated errors; a
        # step views the head of each as a contiguous (learners, rows, width)
        outs = [self._buffer(("out", k), (rows, n))
                for k, n in enumerate(arch[1:])]
        deltas = [self._buffer(("delta", k), (rows, n))
                  for k, n in enumerate(arch[1:-1])]
        # the logits column-major, and a row max, then a row sum, of them
        by_column = self._buffer("by_column", (rows * arch[-1],))
        column = self._buffer("column", (rows,))
        layers = _layer_views(stack, arch)
        grad_layers = _layer_views(grads, arch)
        last = len(layers) - 1

        def operands(first, stop, lo, hi):
            """The views one step over rows lo:hi of learners first:stop
            uses."""
            n = (stop - first) * (hi - lo)

            def scratch(buf):
                return buf[:n].reshape(stop - first, hi - lo, -1)

            acts = [inputs[first:stop, lo:hi]] + [scratch(z) for z in outs]
            back = []
            for k in range(last, -1, -1):
                gw, gb = grad_layers[k]
                below = ((layers[k][0][first:stop].swapaxes(-1, -2),
                          scratch(deltas[k - 1]), acts[k]) if k
                         else (None, None, None))  # input rows need no error
                back.append((acts[k].swapaxes(-1, -2), gw[first:stop],
                             gb[first:stop]) + below)
            return _Operands(
                acts[0],
                tuple((w[first:stop], b[first:stop, None, :], z)
                      for (w, b), z in zip(layers, acts[1:])),
                outs[last][:n], by_column[:n * arch[-1]].reshape(arch[-1], n),
                column[:n], column[:n, None], targets[first:stop, lo:hi],
                hi - lo, tuple(back),
                grads[first:stop], stack[first:stop])

        return _Cohort(stack, inputs, targets,
                       tuple(operands(*bounds)
                             for bounds in _step_plan(sizes, batch_size)),
                       tuple(operands(row, row + 1, 0, n)
                             for row, n in enumerate(sizes)))


_WORKSPACE = _Workspace()


def train_cohort(starts, shards, rngs, rounds: int, eta: float,
                 batch_size: int) -> list:
    """Minibatch SGD for a cohort of learners in lockstep.

    Learner i starts from ``starts[i]`` and makes ``rounds`` passes over
    ``shards[i]``, reshuffled each pass by ``rngs[i].permutation``.
    Returns one (trained parameters, mean loss of the final model on the
    whole shard) per learner, in input order; the results own their
    memory.

    Each learner's result is bit-identical to training it alone, one
    minibatch at a time, with the exact gradient and the step
    ``params_axpy(params, grads, -eta)``, and scoring it with
    ``cross_entropy``: ``tests/reference.py`` holds that solo reference.
    The learners are ordered by shard size, largest first, so that every
    stacked operand is a view and each learner meets the matrix shapes, and
    so the summation order, of its solo run: see ``_step_plan``.  A short
    last minibatch is never padded.  The starts' vectors are copied into
    one (g, P) stack, and the gradients live in a second one, so a step
    ends in one fused update.

    The stacks, the gathered rows and the scratch live in one module-level
    ``_Workspace``, reused by every call, and every operand of a step is a
    view built once per cohort shape (``_Operands``) and replayed on each
    pass of each call with that shape.  Every value a step reads is written
    earlier in the same call, so a call does not see its predecessors.
    There is one workspace per process: a forked ``engine.CohortHelper``
    trains in its own copy, while two threads of one process would share
    one.

    The final loss is one forward pass per learner over its shard in its
    original row order, the first product reading the shard itself, so
    every product has the shapes of ``cross_entropy``'s.
    """
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
    cohort = _WORKSPACE.cohort(arch, sizes, batch_size)
    stack, inputs, targets = cohort.stack, cohort.inputs, cohort.targets
    np.stack([starts[i].vector for i in order], out=stack)
    # each shard's labels as one-hot rows, gathered with the inputs, so a
    # step's softmax-minus-target is one subtraction
    hots = [np.eye(arch[-1])[batch.labels] for batch in batches]
    last = len(arch) - 2

    def forward(step, h):
        """Class probabilities of input rows ``h`` through the step's
        layers, left in its last output.

        The row max is taken down the columns of a column-major copy, one
        vectorised pass per class; a max does not depend on the order of
        its terms, and the sign of a zero max reaches no later value.
        """
        for k, (w, b, z) in enumerate(step.layers):
            np.matmul(h, w, out=z)
            z += b
            if k < last:
                np.maximum(z, 0.0, out=z)
            h = z
        logits, stat, stat_col = step.logits, step.row_stat, step.row_stat_col
        np.copyto(step.by_column, logits.T)
        np.maximum.reduce(step.by_column, axis=0, out=stat)
        logits -= stat_col
        np.exp(logits, out=logits)
        np.add.reduce(logits, axis=1, out=stat)
        logits /= stat_col
        return h

    def train(step):
        delta = forward(step, step.inputs)
        delta -= step.targets
        delta /= step.rows
        for a_t, gw, gb, w_t, error, a in step.back:
            np.matmul(a_t, delta, out=gw)
            np.add.reduce(delta, axis=1, out=gb)
            if w_t is not None:
                delta = np.matmul(delta, w_t, out=error)
                delta *= a > 0.0
        update, params = step.grads, step.params
        update *= -eta
        params += update

    for _ in range(rounds):
        for row, (i, batch) in enumerate(zip(order, batches)):
            perm = rngs[i].permutation(len(batch))
            # a permutation is in range, so "clip" only skips a buffer
            np.take(batch.inputs, perm, axis=0, out=inputs[row, :len(batch)],
                    mode="clip")
            np.take(hots[row], perm, axis=0, out=targets[row, :len(batch)],
                    mode="clip")
        for step in cohort.train:
            train(step)

    out = [None] * len(order)
    for row, (i, batch, step) in enumerate(zip(order, batches, cohort.loss)):
        probs = forward(step, batch.inputs[None])[0]
        out[i] = (ModelParams(stack[row].copy(), arch),
                  _mean_nll(probs[np.arange(len(batch)), batch.labels]))
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
