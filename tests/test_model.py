"""Classifier, backprop core and parameter algebra unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (balanced_batch, make_params, params_allclose,
                      params_equal, tiny_122_net)
from vecafl import model
from reference import (biases, forward, full_backprop, gradient, solo_sgd,
                       weights)
from vecafl.model import (LabeledBatch, ModelParams, _layer_views,
                          backprop_from_logits, cross_entropy, evaluate,
                          forward_stack, init_params, input_gradient,
                          load_params, params_axpy, params_combine, params_copy,
                          params_from_bytes, params_mean, params_scale,
                          params_to_bytes, save_params, train_cohort,
                          weights_then_biases)
from vecafl.rng import substream

LN10 = 2.3025850929940457


# -- initialization ----------------------------------------------------------


def test_init_same_seed_identical():
    a = init_params((64, 32, 10), substream(1, "init"))
    b = init_params((64, 32, 10), substream(1, "init"))
    assert params_equal(a, b)


def test_init_parameter_count():
    p = init_params((64, 32, 10), substream(1, "init"))
    assert p.vector.shape == (64 * 32 + 32 + 32 * 10 + 10,)  # 2410


def test_init_biases_zero():
    p = init_params((64, 32, 10), substream(1, "init"))
    assert all(np.all(b == 0.0) for b in biases(p))


def test_init_draws_each_layer_in_order():
    p = init_params((5, 4, 3), substream(1, "init"))
    rng = substream(1, "init")
    for w, (fan_in, fan_out) in zip(weights(p), [(5, 4), (4, 3)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.array_equal(w, rng.uniform(-bound, bound,
                                             size=(fan_in, fan_out)))


def test_init_rejects_bad_architecture():
    with pytest.raises(ValueError):
        init_params((64,), substream(1, "init"))
    with pytest.raises(ValueError):
        init_params((64, 0, 10), substream(1, "init"))


# -- layout ------------------------------------------------------------------


def test_layers_are_views_of_the_vector_in_layout_order():
    p = make_params([np.arange(6).reshape(3, 2), np.arange(8).reshape(2, 4)],
                    [[6, 7], [8, 9, 10, 11]])
    # layer by layer: row-major weights, then biases
    assert np.array_equal(p.vector, [0, 1, 2, 3, 4, 5, 6, 7,
                                     0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    assert np.array_equal(weights(p)[1], np.arange(8).reshape(2, 4))
    assert np.array_equal(biases(p)[0], [6, 7])
    weights(p)[0][2, 1] = -1.0
    biases(p)[1][0] = -2.0
    assert p.vector[5] == -1.0 and p.vector[16] == -2.0


def test_cohort_layers_carry_the_learner_axis():
    # the cohort workspace views its (g, P) parameter stack this way
    p = init_params((3, 2, 4), substream(2, "cohort"))
    stack = np.stack([p.vector, 2 * p.vector])
    layers = _layer_views(stack, p.architecture)
    assert [w.shape for w, _ in layers] == [(2, 3, 2), (2, 2, 4)]
    assert [b.shape for _, b in layers] == [(2, 2), (2, 4)]
    assert np.array_equal(layers[1][0][1], 2 * weights(p)[1])
    assert all(np.shares_memory(a, stack) for layer in layers for a in layer)


def test_weights_then_biases_positions():
    # (3, 2, 4): w0 at 0..5, b0 at 6..7, w1 at 8..15, b1 at 16..19
    assert weights_then_biases((3, 2, 4)).tolist() == \
        [*range(0, 6), *range(8, 16), 6, 7, *range(16, 20)]


# -- forward pass ------------------------------------------------------------


def test_forward_rows_sum_to_one():
    p = init_params((8, 6, 10), substream(2, "fw"))
    x = substream(3, "fw-x").uniform(0, 1, size=(7, 8))
    probs = forward(p, x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_zero_params_uniform():
    p = make_params([np.zeros((4, 10))], [np.zeros(10)])
    probs = forward(p, np.ones(4))
    assert np.allclose(probs, 0.1, atol=1e-12)


def test_forward_tiny_hand_case():
    probs = forward(tiny_122_net(), np.array([0.5]))
    assert probs[0] == pytest.approx(0.63413559101080068, abs=1e-9)
    assert probs[1] == pytest.approx(0.36586440898919932, abs=1e-9)


# -- cross entropy -----------------------------------------------------------


def test_cross_entropy_uniform_is_ln10():
    p = make_params([np.zeros((4, 10))], [np.zeros(10)])
    batch = balanced_batch(30, 4)
    assert cross_entropy(p, batch) == pytest.approx(LN10, abs=1e-12)


def test_cross_entropy_confident_correct_is_zero():
    # logits put +60 on the true class; the picked probability rounds to 1
    batch = LabeledBatch(np.eye(10), np.arange(10))
    p = make_params([np.eye(10) * 60.0], [np.zeros(10)])
    assert cross_entropy(p, batch) < 1e-9


def test_cross_entropy_two_sample_hand_case():
    # both rows share the tiny net's logits; labels pick class 0 then 1
    batch = LabeledBatch(np.array([[0.5], [0.5]]), np.array([0, 1]))
    assert cross_entropy(tiny_122_net(), batch) \
        == pytest.approx(0.73049248146333764, abs=1e-9)


def test_cross_entropy_rejects_empty_batch():
    p = make_params([np.zeros((4, 10))], [np.zeros(10)])
    with pytest.raises(ValueError):
        cross_entropy(p, LabeledBatch(np.zeros((0, 4)), np.zeros(0, int)))


# -- gradient ----------------------------------------------------------------


def _central_difference(params, batch, eps=1e-5):
    flat = params.vector
    grad = np.empty_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (cross_entropy(ModelParams(up, params.architecture), batch)
                   - cross_entropy(ModelParams(down, params.architecture),
                                   batch)) / (2 * eps)
    return grad


def test_gradient_matches_finite_differences():
    params = init_params((8, 4, 10), substream(7, "grad"))
    batch = balanced_batch(20, 8, seed=8)
    got = gradient(params, batch).vector
    want = _central_difference(params, batch)
    denom = np.maximum(np.abs(want), 1e-8)
    assert np.max(np.abs(got - want) / denom) < 1e-4


def test_gradient_zero_params_balanced_bias_grad():
    params = make_params([np.zeros((4, 10))], [np.zeros(10)])
    batch = balanced_batch(40, 4)  # 4 samples of every class
    g = gradient(params, batch)
    assert np.allclose(biases(g)[-1], 0.0, atol=1e-12)


def test_gradient_duplication_invariance():
    params = init_params((6, 5, 10), substream(9, "grad"))
    batch = balanced_batch(10, 6, seed=10)
    doubled = LabeledBatch(np.vstack([batch.inputs, batch.inputs]),
                           np.concatenate([batch.labels, batch.labels]))
    assert params_allclose(gradient(params, batch),
                           gradient(params, doubled), tol=1e-12)


# -- SGD ----------------------------------------------------------------------


def test_sgd_zero_gradient_noop():
    p = init_params((3, 2), substream(4, "sgd"))
    zero = params_scale(p, 0.0)
    assert params_equal(params_axpy(p, zero, -0.5), p)


def test_sgd_hand_case():
    p = make_params([[[1.0]]], [[1.0]])
    g = make_params([[[1.0]]], [[1.0]])
    out = params_axpy(p, g, -0.1)
    assert weights(out)[0][0, 0] == pytest.approx(0.9)
    assert biases(out)[0][0] == pytest.approx(0.9)


def test_sgd_steps_compose_linearly():
    p = init_params((3, 2), substream(4, "sgd"))
    g = init_params((3, 2), substream(5, "sgd"))
    two = params_axpy(params_axpy(p, g, -0.1), g, -0.2)
    one = params_axpy(p, g, -0.3)
    assert params_allclose(two, one, tol=1e-12)


# -- local training ----------------------------------------------------------


def test_local_train_zero_eta_noop():
    start = init_params((6, 4, 10), substream(11, "lt"))
    batch = balanced_batch(16, 6)
    out, loss = train_cohort([start], [batch], [substream(12, "lt")], 3, 0.0,
                             8)[0]
    assert params_equal(out, start)
    assert loss == pytest.approx(cross_entropy(start, batch), abs=1e-12)


def test_local_train_reduces_loss_on_separable_toy():
    rng = substream(13, "lt")
    inputs = np.vstack([rng.uniform(0.0, 0.3, size=(30, 4)),
                        rng.uniform(0.7, 1.0, size=(30, 4))])
    labels = np.array([0] * 30 + [1] * 30)
    batch = LabeledBatch(inputs, labels)
    start = init_params((4, 6, 10), substream(14, "lt"))
    before = cross_entropy(start, batch)
    _, after = train_cohort([start], [batch], [substream(15, "lt")], 5, 0.1,
                            10)[0]
    assert after < before


def test_local_train_deterministic():
    start = init_params((6, 4, 10), substream(16, "lt"))
    batch = balanced_batch(20, 6, seed=17)
    a, la = train_cohort([start], [batch], [substream(18, "lt")], 2, 0.05,
                         7)[0]
    b, lb = train_cohort([start], [batch], [substream(18, "lt")], 2, 0.05,
                         7)[0]
    assert params_equal(a, b)
    assert la == lb


# -- cohort training -----------------------------------------------------------


def random_shard(n, dim, seed):
    rng = substream(seed, "cohort-shard")
    return LabeledBatch(rng.standard_normal((n, dim)),
                        rng.integers(0, 10, size=n))


def check_cohort(arch, sizes, batch_size, rounds=2, eta=0.05,
                 distinct_starts=True, seed=0):
    starts = [init_params(arch, substream(seed, "start",
                                          i if distinct_starts else 0))
              for i in range(len(sizes))]
    shards = [random_shard(n, arch[0], 100 * seed + i)
              for i, n in enumerate(sizes)]
    rngs = lambda: [substream(seed, "perm", i) for i in range(len(sizes))]
    got = train_cohort(starts, shards, rngs(), rounds, eta, batch_size)
    want = [solo_sgd(*args, rounds, eta, batch_size, rng)
            for args, rng in zip(zip(starts, shards), rngs())]
    assert len(got) == len(want)
    for (gp, gl), (wp, wl) in zip(got, want):
        assert gp.architecture == wp.architecture
        assert np.max(np.abs(gp.vector - wp.vector)) == 0.0
        assert abs(gl - wl) == 0.0


def test_cohort_matches_solo_on_unequal_slot_shards():
    # vehicle, degraded vehicle and roadside shard sizes, out of order
    check_cohort((64, 32, 10), [250, 1000, 600], 32, eta=0.005,
                 distinct_starts=False, seed=1)


def test_cohort_matches_solo_with_distinct_starts():
    check_cohort((64, 32, 10), [1000, 1000, 250, 600], 32, eta=0.005,
                 seed=2)


def test_cohort_matches_solo_when_shard_is_below_the_batch():
    check_cohort((64, 32, 10), [20, 100, 20, 1], 32, seed=3)


def test_cohort_matches_solo_when_batch_divides_the_shard():
    check_cohort((64, 32, 10), [640, 96, 64], 32, seed=4)


def test_cohort_of_one_matches_solo():
    check_cohort((64, 32, 10), [250], 32, seed=5)


def test_cohort_zero_rounds_returns_starts_and_their_loss():
    check_cohort((64, 32, 10), [600, 250], 32, rounds=0, seed=6)


def test_cohort_matches_solo_on_tiny_net_at_odd_batch():
    check_cohort((8, 6, 10), [50, 14, 7, 3, 49], 7, rounds=4, eta=0.1,
                 seed=7)


def test_cohort_of_none_is_empty():
    assert train_cohort([], [], [], 3, 0.1, 8) == []


def test_cohort_rejects_mismatched_learners():
    start = init_params((6, 4, 10), substream(16, "lt"))
    other = init_params((6, 5, 10), substream(16, "lt"))
    shard = balanced_batch(20, 6)
    with pytest.raises(ValueError):
        train_cohort([start, other], [shard, shard],
                     [substream(1), substream(2)], 1, 0.1, 8)
    with pytest.raises(ValueError):
        train_cohort([start], [shard, shard], [substream(1)], 1, 0.1, 8)


@settings(max_examples=60, deadline=None, database=None)
@given(sizes=st.lists(st.integers(1, 90), min_size=1, max_size=6),
       batch_size=st.integers(1, 17), rounds=st.integers(0, 2),
       hidden=st.lists(st.integers(2, 12), min_size=1, max_size=2),
       dim=st.integers(1, 9), distinct_starts=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_cohort_matches_solo_on_drawn_cohorts(sizes, batch_size, rounds,
                                              hidden, dim, distinct_starts,
                                              seed):
    check_cohort((dim, *hidden, 10), sizes, batch_size, rounds=rounds,
                 distinct_starts=distinct_starts, seed=seed)


def as_bytes(result):
    """A learner's trained vector and loss as bytes, NaN payloads and all."""
    params, loss = result
    return params.vector.tobytes() + np.float64(loss).tobytes()


@pytest.mark.parametrize("start", ["zeros", "nan", "inf"])
def test_cohort_matches_solo_bit_for_bit_from_degenerate_starts(start):
    # the softmax row max is taken down the columns: all-zero parameters
    # tie every logit at +0.0 on the first step, and a NaN or an inf
    # reaches the max; the other learners must not notice
    arch, sizes = (8, 6, 10), [40, 40, 13]
    starts = [init_params(arch, substream(30, "edge", i)) for i in range(3)]
    odd = starts[1].vector
    if start == "zeros":
        odd[:] = 0.0
    else:
        odd[[5, -3]] = float(start)  # a first-layer weight, an output bias
    shards = [random_shard(n, arch[0], 31 + i) for i, n in enumerate(sizes)]
    rngs = lambda: [substream(32, "edge", i) for i in range(3)]
    with np.errstate(all="ignore"):
        got = train_cohort(starts, shards, rngs(), 2, 0.05, 16)
        want = [solo_sgd(p, shard, 2, 0.05, 16, rng)
                for p, shard, rng in zip(starts, shards, rngs())]
    assert [as_bytes(r) for r in got] == [as_bytes(r) for r in want]
    assert np.all(np.isfinite(got[0][0].vector))
    assert np.all(np.isfinite(got[2][0].vector))
    assert np.isfinite(got[1][1]) == (start == "zeros")


def test_cohort_trained_twice_writes_the_same_bytes():
    # the second call replays the workspace and step operands of the first
    arch, sizes = (8, 6, 10), [50, 14, 7, 50]
    starts = [init_params(arch, substream(33, "twice", i)) for i in range(4)]
    shards = [random_shard(n, arch[0], 34 + i) for i, n in enumerate(sizes)]
    runs = [train_cohort(starts, shards,
                         [substream(35, "twice", i) for i in range(4)],
                         3, 0.05, 8)
            for _ in range(2)]
    assert [as_bytes(r) for r in runs[0]] == [as_bytes(r) for r in runs[1]]


@pytest.mark.parametrize("rounds", [0, 2])
def test_cohort_results_share_no_memory(rounds):
    starts = [init_params((6, 4, 10), substream(20, "alias", i % 2))
              for i in range(3)]
    shards = [balanced_batch(n, 6, seed=n) for n in (12, 30, 12)]
    rngs = [substream(21, "alias", i) for i in range(3)]
    out = train_cohort(starts, shards, rngs, rounds, 0.1, 8)

    def arrays(params):
        return weights(params) + biases(params)

    held = [a for start in starts for a in arrays(start)]
    for i, (params, _) in enumerate(out):
        others = held + [a for j, (p, _) in enumerate(out) if j != i
                         for a in arrays(p)]
        for a in arrays(params):
            assert not any(np.shares_memory(a, b) for b in others)
    # a second call of the same shape reuses the workspace, not the results
    kept = [as_bytes(r) for r in out]
    train_cohort(starts[::-1], shards, [substream(22, "alias", i)
                                        for i in range(3)], 2, 0.1, 8)
    assert [as_bytes(r) for r in out] == kept


def cohort_run(arch, sizes, batch_size, seed, poison=False):
    """A train_cohort call to make later; ``poison`` fills every start
    with NaN."""
    starts = [init_params(arch, substream(seed, "ws", i))
              for i in range(len(sizes))]
    if poison:
        for start in starts:
            start.vector[:] = np.nan
    shards = [random_shard(n, arch[0], seed + i) for i, n in enumerate(sizes)]
    return lambda: [as_bytes(r) for r in train_cohort(
        starts, shards, [substream(seed, "ws-perm", i)
                         for i in range(len(sizes))], 2, 0.05, batch_size)]


def on_fresh_workspace(monkeypatch, run):
    monkeypatch.setattr(model, "_WORKSPACE", model._Workspace())
    return run()


@pytest.mark.parametrize("kept", [model._SHAPES_KEPT, 2])
def test_interleaved_cohorts_match_fresh_workspaces(monkeypatch, kept):
    # shapes and architectures interleaved, a cohort that grows every
    # buffer midway, and, at two kept shapes, records evicted and rebuilt
    runs = [cohort_run((8, 6, 10), [50, 14, 7], 8, 40),
            cohort_run((6, 5, 4, 10), [30, 9], 5, 41),
            cohort_run((8, 6, 10), [14, 50, 7, 50], 8, 42),
            cohort_run((8, 6, 10), [50, 14, 7], 8, 43),
            cohort_run((8, 6, 10), [50, 14, 7], 12, 44),
            cohort_run((6, 5, 4, 10), [7, 50, 14], 8, 44),
            cohort_run((8, 6, 10), [300, 3, 120, 1, 90, 7], 16, 45),
            cohort_run((6, 5, 4, 10), [30, 9], 5, 46),
            cohort_run((8, 6, 10), [14, 50, 7, 50], 8, 47)]
    want = [on_fresh_workspace(monkeypatch, run) for run in runs]
    monkeypatch.setattr(model, "_WORKSPACE", model._Workspace())
    monkeypatch.setattr(model, "_SHAPES_KEPT", kept)
    assert [run() for run in runs] == want


def test_a_nan_cohort_leaves_the_next_of_its_shape_clean(monkeypatch):
    arch, sizes = (8, 6, 10), [40, 40, 13]
    clean = cohort_run(arch, sizes, 16, 50)
    want = on_fresh_workspace(monkeypatch, clean)
    with np.errstate(all="ignore"):
        on_fresh_workspace(monkeypatch, cohort_run(arch, sizes, 16, 51,
                                                   poison=True))
    assert clean() == want


def shards_across_row_panels():
    """One trained cohort whose shards sit on both sides of the row counts
    where a BLAS kernel could cut a product differently."""
    sizes = [1, 2, 255, 256, 257, 513, 1000]
    starts = [init_params((64, 32, 10), substream(60, "whole", i))
              for i in range(len(sizes))]
    shards = [random_shard(n, 64, 60 + i) for i, n in enumerate(sizes)]
    yield starts, shards, 1


def last_row_dominates():
    """40 untrained cohorts of one, each a scaled-up start whose last row
    gets its least likely label, so a change in that row's logits shows in
    the loss."""
    for seed in range(40):
        params = params_scale(init_params((64, 32, 10),
                                          substream(seed, "lone")), 3.0)
        x = substream(seed, "lone-x").uniform(0.0, 1.0, (257, 64))
        probs = forward(params, x)
        labels = probs.argmax(axis=1)
        labels[-1] = probs[-1].argmin()
        yield [params], [LabeledBatch(x, labels)], 0


@pytest.mark.parametrize("cohorts", [shards_across_row_panels,
                                     last_row_dominates],
                         ids=lambda cohorts: cohorts.__name__)
def test_cohort_final_loss_is_cross_entropy_on_the_whole_shard(cohorts):
    for starts, shards, rounds in cohorts():
        rngs = [substream(61, "whole", i) for i in range(len(shards))]
        out = train_cohort(starts, shards, rngs, rounds, 0.005, 32)
        for (trained, loss), shard in zip(out, shards):
            assert loss == cross_entropy(trained, shard)


def test_gradient_matches_plain_two_dimensional_backprop():
    # the backprop core against the textbook form, bit for bit
    params = init_params((8, 6, 5, 10), substream(8, "grad"))
    batch = random_shard(13, 8, 9)
    w, b = weights(params), biases(params)
    acts = [batch.inputs]
    for i in range(3):
        z = acts[-1] @ w[i] + b[i]
        acts.append(z if i == 2 else np.maximum(z, 0.0))
    e = np.exp(acts[-1] - acts[-1].max(axis=-1, keepdims=True))
    delta = e / e.sum(axis=-1, keepdims=True)
    delta[np.arange(13), batch.labels] -= 1.0
    delta /= 13
    got = gradient(params, batch)
    for i in (2, 1, 0):
        assert np.array_equal(weights(got)[i], acts[i].T @ delta)
        assert np.array_equal(biases(got)[i], delta.sum(axis=0))
        delta = (delta @ w[i].T) * (acts[i] > 0.0)


@pytest.mark.parametrize("arch,rows", [((8, 6, 5, 1), 13),
                                       ((25, 40, 30, 1), 64)])
def test_input_gradient_is_the_backprop_input_gradient(arch, rows):
    # the actor update's critic pass: a mean over the rows of one output;
    # the two halves of a full backprop, each bit for bit
    params = init_params(arch, substream(9, "input-grad"))
    _, acts = forward_stack(params, random_shard(rows, arch[0], 10).inputs)
    dout = np.full((rows, 1), 1.0 / rows)
    gws, gbs, dinput = full_backprop(params, acts, dout)
    assert np.array_equal(input_gradient(params, acts, dout), dinput)
    grads = backprop_from_logits(params, acts, dout)
    for got, want in zip(weights(grads) + biases(grads), gws + gbs):
        assert np.array_equal(got, want)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_all_correct():
    batch = LabeledBatch(np.eye(10), np.arange(10))
    p = make_params([np.eye(10) * 60.0], [np.zeros(10)])
    acc, err = evaluate(p, batch)
    assert acc == 1.0 and err == 0.0


def test_evaluate_zero_params_ties_to_class_zero():
    p = make_params([np.zeros((4, 10))], [np.zeros(10)])
    batch = balanced_batch(50, 4)
    acc, err = evaluate(p, batch)
    assert acc == pytest.approx(np.mean(batch.labels == 0))
    assert acc + err == pytest.approx(1.0, abs=1e-15)


def test_evaluate_accuracy_error_sum_to_one():
    p = init_params((5, 4, 10), substream(19, "ev"))
    batch = balanced_batch(33, 5, seed=20)
    acc, err = evaluate(p, batch)
    assert acc + err == pytest.approx(1.0, abs=1e-15)


# -- parameter algebra --------------------------------------------------------


def test_params_mean_of_zero_and_one():
    zero = make_params([np.zeros((2, 2))], [np.zeros(2)])
    one = make_params([np.ones((2, 2))], [np.ones(2)])
    mean = params_mean([zero, one])
    assert np.allclose(weights(mean)[0], 0.5)
    assert np.allclose(biases(mean)[0], 0.5)


def test_params_mean_identical_models_fixed_point():
    p = init_params((4, 3), substream(22, "alg"))
    assert params_allclose(params_mean([p, params_copy(p)]), p, tol=1e-15)


def test_params_combine_hand_case():
    a = make_params([np.full((2, 2), 2.0)], [np.full(2, 2.0)])
    b = make_params([np.full((2, 2), 4.0)], [np.full(2, 4.0)])
    out = params_combine(0.25, a, 0.75, b)
    assert np.allclose(weights(out)[0], 3.5)


def test_params_axpy_shape_mismatch():
    a = init_params((4, 3), substream(22, "alg"))
    b = init_params((4, 2), substream(22, "alg"))
    with pytest.raises(ValueError):
        params_axpy(a, b, 1.0)
    with pytest.raises(ValueError):
        params_mean([])


# -- serialization ------------------------------------------------------------


def test_params_bytes_round_trip():
    p = init_params((6, 5, 10), substream(23, "ser"))
    back = params_from_bytes(params_to_bytes(p))
    assert params_equal(p, back)


def test_params_file_round_trip(tmp_path):
    p = init_params((6, 5, 10), substream(24, "ser"))
    path = tmp_path / "params.bin"
    save_params(p, path)
    assert params_equal(load_params(path), p)


def test_params_reject_wrong_length():
    with pytest.raises(ValueError, match="expected 8 values"):
        ModelParams(np.zeros(7), (3, 2))
    with pytest.raises(ValueError, match="expected 8 values"):
        ModelParams(np.zeros((2, 8)), (3, 2))
    with pytest.raises(ValueError, match="expected 8 values"):
        ModelParams(np.zeros((2, 2, 8)), (3, 2))


def test_params_bytes_rejects_truncated_payload():
    blob = params_to_bytes(init_params((3, 2), substream(25, "ser")))
    with pytest.raises(ValueError):
        params_from_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload of 61 bytes"):
        params_from_bytes(blob[:-3])


def test_params_bytes_keep_the_header_format():
    blob = params_to_bytes(make_params([[[1.0], [2.0]]], [[-0.5]]))
    assert blob == (b'{"architecture": [2, 1], "count": 3, "dtype": "<f8"}\n'
                    + np.array([1.0, 2.0, -0.5], "<f8").tobytes())


@pytest.mark.parametrize("header, why", [
    (b"not json", "unreadable header"),
    (b'{"architecture": [3, 2], "dtype": "<f8"}', "unreadable header"),
    (b'{"architecture": [3, 2], "count": 8, "dtype": ">f4"}',
     "unsupported dtype"),
    (b'{"architecture": [3, 3], "count": 8, "dtype": "<f8"}',
     "expected 12 values"),
])
def test_params_bytes_name_a_bad_header(header, why):
    with pytest.raises(ValueError, match=why):
        params_from_bytes(header + b"\n" + np.zeros(8).tobytes())


def test_load_params_names_the_file(tmp_path):
    path = tmp_path / "params.bin"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ValueError, match="params.bin: unreadable header"):
        load_params(path)
