"""Aggregation engine unit and property tests.

Slot-level behaviour is exercised through tiny worlds (few samples, short
episodes) so each test stays in the millisecond range.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecafl
import conftest
from conftest import make_params, params_allclose
from reference import biases, weights
from vecafl import engine, harness
from vecafl.config import ConfigError
from vecafl.engine import (SCHEMES, FilterSoundnessError, GlobalModel,
                           TrustedShardError, compute_reward, global_update,
                           local_delay, run_afl_slot, run_phase,
                           staleness_weight, threshold_accept, upload_delay,
                           weighted_upload)
from vecafl.model import (LabeledBatch, ModelParams, init_params,
                          params_copy, params_to_bytes, train_cohort)
from vecafl.rng import substream
from vecafl.world import World, build_dataset


tiny_cfg = partial(conftest.tiny_cfg, dataset_size=260, eval_size=40,
                   slots_per_episode=4, test_episodes=1, train_episodes=1)


def select_all(k):
    def select(world, prev_action):
        return np.ones(k), np.ones(k, dtype=bool)
    return select


# -- delays --------------------------------------------------------------------


def test_local_delay_table_case():
    assert local_delay(1000, 1e6, 2e9) == pytest.approx(0.5, abs=1e-15)


def test_local_delay_zero_samples():
    assert local_delay(0, 1e6, 2e9) == 0.0


def test_local_delay_inverse_in_compute():
    assert local_delay(1000, 1e6, 4e9) \
        == pytest.approx(local_delay(1000, 1e6, 2e9) / 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        local_delay(1000, 1e6, 0.0)


def test_upload_delay_hand_cases():
    assert upload_delay(5000, 37863.137138654119) \
        == pytest.approx(0.13205456224322066, abs=1e-12)
    assert upload_delay(5000, 5000.0) == 1.0
    assert upload_delay(5000, 0.0) == math.inf
    assert upload_delay(5000, 1e18) < 1e-11


# -- staleness weights ----------------------------------------------------------


def test_staleness_weight_hand_cases():
    assert staleness_weight(0.9, 0.5) == 1.0
    assert staleness_weight(0.9, 1.5) == pytest.approx(0.9, abs=1e-15)
    assert staleness_weight(0.9, 2.5) == pytest.approx(0.81, abs=1e-15)
    assert staleness_weight(0.9, 0.13205) \
        == pytest.approx(1.0395286629656373, abs=1e-9)


def test_staleness_weight_bounds_and_monotonicity():
    rng = substream(31, "stale")
    for _ in range(200):
        base = rng.uniform(0.05, 0.95)
        t = rng.uniform(0.0, 20.0)
        w = staleness_weight(base, t)
        assert 0.0 < w <= base ** (-0.5) + 1e-12
        assert staleness_weight(base, t + 0.1) < w


def test_staleness_weight_rejects_bad_args():
    with pytest.raises(ValueError):
        staleness_weight(0.9, -0.1)


# -- weighted upload and global mix ----------------------------------------------


def test_weighted_upload_identity_and_hand_case():
    p = make_params([np.full((2, 2), 2.0)], [np.full(2, 2.0)])
    same = weighted_upload(p, 1.0, 1.0)
    assert np.allclose(weights(same)[0], 2.0)
    scaled = weighted_upload(p, 0.9, 0.9)
    assert np.allclose(weights(scaled)[0], 1.62)
    assert np.allclose(biases(scaled)[0], 1.62)


def test_weighted_upload_commutes():
    p = init_params((3, 4), substream(32, "wu"))
    assert params_allclose(weighted_upload(p, 0.7, 1.2),
                           weighted_upload(p, 1.2, 0.7), tol=1e-15)


def test_global_update_fixed_point_and_hand_case():
    w = init_params((3, 4), substream(33, "gu"))
    gm = GlobalModel(w, update_count=0)
    global_update(gm, w, 0.5)
    assert params_allclose(gm.params, w, tol=1e-15)
    assert gm.update_count == 1

    zero = make_params([np.zeros((2, 2))], [np.zeros(2)])
    one = make_params([np.ones((2, 2))], [np.ones(2)])
    gm = GlobalModel(zero)
    global_update(gm, one, 0.5)
    assert np.allclose(weights(gm.params)[0], 0.5)


def test_global_update_limit_toward_old():
    old = make_params([np.zeros((2, 2))], [np.zeros(2)])
    new = make_params([np.ones((2, 2))], [np.ones(2)])
    gm = GlobalModel(old)
    global_update(gm, new, 0.999999)
    assert np.all(weights(gm.params)[0] < 1e-5)


def test_global_update_convex_envelope_property():
    rng = substream(34, "gu")
    for _ in range(50):
        old = init_params((4, 3), substream(int(rng.integers(1e9)), "a"))
        new = init_params((4, 3), substream(int(rng.integers(1e9)), "b"))
        mix = float(rng.uniform(0.01, 0.99))
        gm = GlobalModel(old)
        global_update(gm, new, mix)
        lo = np.minimum(old.vector, new.vector)
        hi = np.maximum(old.vector, new.vector)
        got = gm.params.vector
        assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)


@settings(max_examples=100, deadline=None, database=None)
@given(arch=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       mix=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       scales=st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)),
       same=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_global_update_stays_between_old_and_upload(arch, mix, scales, same,
                                                    seed):
    # elementwise between the old model and the upload, up to one rounding
    # of the larger magnitude: mix * a + (1 - mix) * b is exact only over
    # the reals, and with a == b it may round just past both
    rng = substream(seed, "fold")
    old = init_params(arch, rng)
    flat_old = old.vector * scales[0]
    flat_up = flat_old.copy() if same else \
        init_params(arch, rng).vector * scales[1]
    gm = GlobalModel(ModelParams(flat_old, arch), update_count=3)
    global_update(gm, ModelParams(flat_up, arch), mix)
    got = gm.params.vector
    slack = 2.0 * np.finfo(float).eps * np.maximum(abs(flat_old),
                                                   abs(flat_up))
    assert np.all(got >= np.minimum(flat_old, flat_up) - slack)
    assert np.all(got <= np.maximum(flat_old, flat_up) + slack)
    assert gm.update_count == 4


def test_global_update_rejects_bad_mix_and_shape():
    gm = GlobalModel(init_params((3, 4), substream(35, "gu")))
    with pytest.raises(ValueError):
        global_update(gm, init_params((3, 5), substream(35, "gu")), 0.5)


# -- threshold filter -------------------------------------------------------------


def test_threshold_boundary_accepts():
    assert threshold_accept(1.0, 0.8, 1.25) is True


def test_threshold_rejects_above():
    assert threshold_accept(2.3, 0.8, 1.25) is False


def test_threshold_zero_loss_accepts():
    assert threshold_accept(0.0, 5.0, 0.1) is True


def test_threshold_rejects_bad_args():
    with pytest.raises(ValueError):
        threshold_accept(-0.1, 0.8, 1.25)


# -- slot mechanics ---------------------------------------------------------------


def test_single_vehicle_single_update():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 51)
    world = World(cfg, ds, 51, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(51, "g")))
    res = run_afl_slot(world, [1], gm, None, cfg)
    assert gm.update_count == 1
    assert res.accepted_ids == [1]
    assert res.filter_calls == 0


def test_uploads_applied_in_arrival_order():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 52)
    world = World(cfg, ds, 52, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(52, "g")))
    res = run_afl_slot(world, [0, 1, 2], gm, None, cfg)
    arrivals = [sum(res.delays[v]) for v in res.accepted_ids]
    assert arrivals == sorted(arrivals)
    assert gm.update_count == len(res.accepted_ids)


def test_slot_reports_match_recomputation():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 53)
    world = World(cfg, ds, 53, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(53, "g")))
    res = run_afl_slot(world, [0, 1, 2], gm, None, cfg)
    arrived = sorted(res.reported)
    assert res.avg_loss == pytest.approx(
        np.mean([res.reported[v] for v in arrived]), abs=1e-12)
    assert res.mean_delay == pytest.approx(
        np.mean([sum(res.delays[v]) for v in arrived]), abs=1e-12)


def test_slot_train_starts_from_snapshot():
    # an upload equals beta*old + (1-beta)*w1*w2*(SGD from the snapshot)
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 54)
    world = World(cfg, ds, 54, "test", 1)
    start = init_params(cfg.classifier_arch, substream(54, "g"))
    gm = GlobalModel(start)
    res = run_afl_slot(world, [2], gm, None, cfg)
    trained, loss = train_cohort([start], [world.training_batch(2)],
                                 [world.train_rng(2)], cfg.local_rounds,
                                 cfg.local_lr, cfg.local_batch)[0]
    t_l, t_u = res.delays[2]
    w = staleness_weight(cfg.stale_base_local, t_l) \
        * staleness_weight(cfg.stale_base_upload, t_u)
    expect = GlobalModel(start)
    global_update(expect, weighted_upload(trained, w, 1.0), cfg.agg_mix)
    assert params_allclose(gm.params, expect.params, tol=1e-12)
    assert res.reported[2] == pytest.approx(loss, abs=1e-12)


def test_stale_weight_log_matches_delays():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 55)
    world = World(cfg, ds, 55, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(55, "g")))
    res = run_afl_slot(world, [0, 1, 2], gm, None, cfg)
    for vid, (w_lt, w_ct) in res.stale_weights.items():
        t_l, t_u = res.delays[vid]
        assert w_lt == pytest.approx(
            staleness_weight(cfg.stale_base_local, t_l), abs=1e-12)
        assert w_ct == pytest.approx(
            staleness_weight(cfg.stale_base_upload, t_u), abs=1e-12)


def test_stale_weight_log_is_one_when_disabled():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 56)
    world = World(cfg, ds, 56, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(56, "g")))
    res = run_afl_slot(world, [0, 1, 2], gm, None, cfg, SCHEMES["plain_afl"])
    assert all(w == (1.0, 1.0) for w in res.stale_weights.values())


def test_tampered_trusted_shard_raises():
    cfg = tiny_cfg()
    world = World(cfg, build_dataset(cfg, 60), 60, "test", 1)
    gm = GlobalModel(init_params(cfg.classifier_arch, substream(60, "g")))
    trusted = GlobalModel(params_copy(gm.params))
    rsu = world.rsu_batch
    world.rsu_batch = LabeledBatch(rsu.inputs, (rsu.labels + 1) % 10)
    with pytest.raises(TrustedShardError):
        run_afl_slot(world, [0, 1], gm, trusted, cfg)
    assert gm.update_count == 0


def test_trusted_shard_check_survives_optimized_mode():
    code = (
        "from dataclasses import replace\n"
        "from vecafl.config import SimConfig\n"
        "from vecafl.engine import GlobalModel, TrustedShardError, "
        "run_afl_slot\n"
        "from vecafl.model import LabeledBatch, init_params\n"
        "from vecafl.rng import substream\n"
        "from vecafl.world import World, build_dataset\n"
        "cfg = replace(SimConfig(), slots_per_episode=1)\n"
        "world = World(cfg, build_dataset(cfg, 1), 1, 'test', 1)\n"
        "rsu = world.rsu_batch\n"
        "world.rsu_batch = LabeledBatch(rsu.inputs, (rsu.labels + 1) % 10)\n"
        "gm = GlobalModel(init_params(cfg.classifier_arch, substream(1)))\n"
        "try:\n"
        "    run_afl_slot(world, [], gm, None, cfg)\n"
        "except TrustedShardError:\n"
        "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(vecafl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


def test_accepted_upload_over_limit_raises(monkeypatch):
    # a filter that waves everything through lets the tampered upload in
    monkeypatch.setattr(engine, "threshold_accept", lambda *args: True)
    with pytest.raises(FilterSoundnessError, match="vehicle 1"):
        fitted_attack_slot(58)


def fitted_attack_slot(seed, **cfg_overrides):
    """One defended slot whose snapshot already fits the clean data.

    Starting the slot from a fitted model makes the class-flipped vehicle's
    announced loss blow up (it cannot unlearn the snapshot in two passes)
    while honest continuations stay near the trusted loss.
    """
    cfg = tiny_cfg(classifier_arch=(6, 16, 10), eval_size=50,
                   local_rounds=2, local_batch=5, local_lr=0.2,
                   blob_spread=0.2, cycles_per_sample=3e7, model_bits=19000,
                   attack="class_flip", attacked_vehicles=(1,),
                   **cfg_overrides)
    world = World(cfg, build_dataset(cfg, seed), seed, "test", 1)
    world.set_attacks((1,), "class_flip")
    start = init_params(cfg.classifier_arch, substream(seed, "g"))
    fit, _ = train_cohort([start], [world.eval_batch],
                          [substream(seed, "fit")], 40, 0.2, 5)[0]
    gm = GlobalModel(params_copy(fit))
    trusted = GlobalModel(params_copy(fit))
    res = run_afl_slot(world, [0, 1, 2], gm, trusted, cfg)
    return cfg, res, gm


def test_defended_rejection_skips_update():
    # the tampered vehicle tops the threshold and must leave no trace in
    # the global model; the honest two pass
    cfg, res, gm = fitted_attack_slot(58)
    assert list(res.reject_reasons) == [1]
    assert sorted(res.accepted_ids) == [0, 2]
    assert len(res.accepted_ids) == len(res.reported) - 1
    assert gm.update_count == 2
    assert res.filter_calls == 3
    audited = [vid for vid, loss, limit in res.accept_audit]
    assert sorted(audited) == [0, 2]
    for vid, loss, limit in res.accept_audit:
        assert loss <= limit + 1e-12
    for vid in res.accepted_ids:
        assert res.reported[vid] \
            <= cfg.loss_ratio_limit * res.trusted_loss + 1e-12


def test_accepted_only_loss_average_flag():
    cfg, res, _ = fitted_attack_slot(58, loss_avg_accepted_only=True)
    want = np.mean([res.reported[v] for v in res.accepted_ids])
    assert res.avg_loss == pytest.approx(want, abs=1e-12)
    cfg_all, res_all, _ = fitted_attack_slot(58)
    want_all = np.mean([res_all.reported[v] for v in sorted(res_all.reported)])
    assert res_all.avg_loss == pytest.approx(want_all, abs=1e-12)
    assert res_all.avg_loss > res.avg_loss   # the tampered loss drags it up


def test_filter_rejection_records_loss_limit_reason():
    _, res, _ = fitted_attack_slot(58)
    assert res.reject_reasons == {1: engine.LOSS_LIMIT}


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 16), limit=st.floats(0.5, 3.0),
       fit_passes=st.integers(0, 30),
       attack=st.sampled_from(["none", "class_flip", "data_flip"]),
       attacked=st.sets(st.integers(0, 2), max_size=2),
       selected=st.sets(st.integers(0, 2), min_size=1),
       bad_vehicle=st.integers(-1, 2))
def test_defended_slot_accepts_only_losses_within_limit(
        seed, limit, fit_passes, attack, attacked, selected, bad_vehicle):
    cfg = tiny_cfg(classifier_arch=(6, 16, 10), local_rounds=2,
                   local_batch=5, local_lr=0.2, loss_ratio_limit=limit,
                   bad_vehicle=bad_vehicle)
    world = World(cfg, build_dataset(cfg, seed), seed, "test", 1)
    if attack != "none" and attacked:
        world.set_attacks(sorted(attacked), attack)
    # a snapshot fitted for a few passes makes tampered losses stand out
    start, _ = train_cohort(
        [init_params(cfg.classifier_arch, substream(seed, "g"))],
        [world.eval_batch], [substream(seed, "fit")], fit_passes, 0.2, 5)[0]
    gm = GlobalModel(params_copy(start))
    trusted = GlobalModel(params_copy(start))
    res = run_afl_slot(world, sorted(selected), gm, trusted, cfg)
    bound = limit * res.trusted_loss
    for vid in res.accepted_ids:
        assert res.reported[vid] <= bound
    for vid, why in res.reject_reasons.items():
        assert why == engine.NONFINITE or res.reported[vid] > bound
    assert sorted(res.accepted_ids + list(res.reject_reasons)) \
        == sorted(res.reported)
    assert gm.update_count == len(res.accepted_ids)


# -- non-finite uploads ----------------------------------------------------------


def poison_vehicle(monkeypatch, vid, corrupt):
    """Make the cohort kernel hand vehicle ``vid`` a non-finite result."""
    real = engine.train_cohort

    def poisoned(starts, shards, rngs, *args):
        out = real(starts, shards, rngs, *args)
        params, loss = out[vid]
        flat = params.vector.copy()
        if corrupt == "loss":
            loss = math.nan
        else:
            flat[3] = math.nan if corrupt == "nan" else -math.inf
        out[vid] = (ModelParams(flat, params.architecture), loss)
        return out

    monkeypatch.setattr(engine, "train_cohort", poisoned)


@pytest.mark.parametrize("corrupt", ["nan", "inf", "loss"])
@pytest.mark.parametrize("mode", ["sync", "afl", "afl_defended"])
def test_nonfinite_upload_is_never_folded(monkeypatch, mode, corrupt):
    cfg = tiny_cfg()
    world = World(cfg, build_dataset(cfg, 62), 62, "test", 1)
    start = init_params(cfg.classifier_arch, substream(62, "g"))
    gm = GlobalModel(params_copy(start))
    poison_vehicle(monkeypatch, 1, corrupt)
    if mode == "sync":
        res = engine.sync_round(world, gm, cfg)
    else:
        trusted = GlobalModel(params_copy(start)) \
            if mode == "afl_defended" else None
        res = run_afl_slot(world, [0, 1, 2], gm, trusted, cfg)
    assert sorted(res.reported) == [0, 1, 2]
    assert list(res.reject_reasons) == [1]
    assert res.reject_reasons == {1: engine.NONFINITE}
    assert 1 not in res.accepted_ids
    assert gm.update_count == len(res.accepted_ids) > 0
    assert np.isfinite(gm.params.vector).all()
    assert res.filter_calls == (2 if mode == "afl_defended" else 0)
    finite = [v for v in res.reported if v != 1]
    assert res.avg_loss == pytest.approx(
        np.mean([res.reported[v] for v in finite]), abs=1e-12)
    assert res.mean_delay == pytest.approx(
        np.mean([sum(res.delays[v]) for v in finite]), abs=1e-12)


# -- sync baseline ------------------------------------------------------------------


def test_sync_round_counts_and_average():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 59)
    phase = run_phase(cfg, ds, 59, "test", 1, select_all(3),
                      scheme=SCHEMES["sync_fl"])
    for sr in phase.records:
        arrived = sorted(sr.reported)
        assert sr.accepted_ids == arrived
        assert list(sr.reject_reasons) == []
        assert sr.avg_loss == pytest.approx(
            np.mean([sr.reported[v] for v in arrived]), abs=1e-12)
    assert phase.global_model.update_count \
        == sum(len(sr.accepted_ids) for sr in phase.records)


# -- phase determinism and pairing ---------------------------------------------------


def test_phase_deterministic():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 60)
    runs = [run_phase(cfg, ds, 60, "test", 2, select_all(3),
                      scheme=SCHEMES["ddafl"])
            for _ in range(2)]
    assert runs[0].digests == runs[1].digests
    assert np.array_equal(runs[0].global_model.params.vector,
                          runs[1].global_model.params.vector)
    assert [r.avg_loss for r in runs[0].records] \
        == [r.avg_loss for r in runs[1].records]


def test_paired_seed_worlds_identical_across_schemes():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 61)
    defended = run_phase(cfg, ds, 61, "test", 2, select_all(3),
                         scheme=SCHEMES["ddafl"])
    raw = run_phase(cfg, ds, 61, "test", 2, select_all(3),
                    scheme=SCHEMES["plain_afl"])
    assert defended.digests == raw.digests


def test_phase_records_shape_and_bounds():
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 62)
    phase = run_phase(cfg, ds, 62, "test", 2, select_all(3),
                      scheme=SCHEMES["ddafl_no_defense"])
    assert len(phase.records) == 2 * cfg.slots_per_episode
    for rec in phase.records:
        assert rec.accuracy + rec.error_rate == pytest.approx(1.0, abs=1e-12)
        assert rec.reward == compute_reward(np.ones(3), rec.avg_loss,
                                            rec.mean_delay, cfg)
    slots = range(1, cfg.slots_per_episode + 1)
    assert [(r.episode, r.slot) for r in phase.records] \
        == [(e, s) for e in (1, 2) for s in slots]
    assert phase.admissions.sum() == 3 * len(phase.records)


# -- the slot loop's contract ------------------------------------------------------


def test_observe_runs_once_per_slot_after_advance_before_evaluate(
        monkeypatch):
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 63)
    events = []
    real_evaluate = engine.evaluate

    def spy_evaluate(params, batch):
        events.append("evaluate")
        return real_evaluate(params, batch)

    def observe(world, weights, res):
        events.append(("observe", world.slot, res.reward))

    monkeypatch.setattr(engine, "evaluate", spy_evaluate)
    phase = run_phase(cfg, ds, 63, "test", 2, select_all(3), observe)
    want = []
    for rec in phase.records:
        want += [("observe", rec.slot, rec.reward), "evaluate"]
    assert events == want
    assert len(want) == 2 * 2 * cfg.slots_per_episode


@pytest.mark.parametrize("restart", [True, False])
def test_restart_global_starts_each_episode_from_its_own_draw(
        monkeypatch, restart):
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 64)
    starts = {}                  # episode -> (global, trusted) at slot 1
    real_slot = engine.run_afl_slot

    def spy_slot(world, selected, global_model, trusted_model, *a, **kw):
        if world.slot == 0:
            starts[world.episode] = (params_copy(global_model.params),
                                     params_copy(trusted_model.params))
        return real_slot(world, selected, global_model, trusted_model,
                         *a, **kw)

    monkeypatch.setattr(engine, "run_afl_slot", spy_slot)
    run_phase(cfg, ds, 64, "test", 3, select_all(3), restart_global=restart)
    phase_draw = init_params(cfg.classifier_arch,
                             substream(64, "global-init", "test")).vector
    for episode, (start, trusted) in starts.items():
        own = init_params(cfg.classifier_arch,
                          substream(64, "global-init", "test",
                                    episode)).vector
        assert np.array_equal(start.vector, own) == restart
        assert np.array_equal(trusted.vector, own) == restart
        assert np.array_equal(start.vector, phase_draw) \
            == (not restart and episode == 1)
    assert sorted(starts) == [1, 2, 3]


def shifting_select(world, prev_action):
    """Admit all but one vehicle, a different one each slot."""
    mask = np.arange(3) != (world.episode + world.slot) % 3
    return np.where(mask, 0.9, 0.2), mask


@pytest.mark.parametrize("scheme", ["ddafl", "plain_afl", "sync_fl"])
@pytest.mark.parametrize("early_right", [False, True])
def test_a_settled_selection_runs_as_if_selected_directly(
        monkeypatch, scheme, early_right):
    # select picks early; when settle's mask differs, the round runs again
    # from the head of the slot, across episodes of one global model
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 66)
    seen = {"direct": [], "settled": []}

    def direct(world, prev_action):
        seen["direct"].append(prev_action.copy())
        return shifting_select(world, prev_action)

    def early(world, prev_action):
        seen["settled"].append(prev_action.copy())
        weights, mask = shifting_select(world, prev_action)
        if early_right:
            return weights, mask, lambda: (weights, mask)
        return np.full(3, 0.6), ~mask, lambda: (weights, mask)

    rounds = []
    for name in ("run_afl_slot", "sync_round"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, _real=real, **kw: (
            rounds.append(1), _real(*a, **kw))[1])
    want = run_phase(cfg, ds, 66, "test", 2, direct, scheme=SCHEMES[scheme])
    slots = len(want.records)
    assert len(rounds) == slots
    got = run_phase(cfg, ds, 66, "test", 2, early, scheme=SCHEMES[scheme])
    assert len(rounds) == slots + (1 if early_right else 2) * slots
    assert [repr(r) for r in got.records] == [repr(r) for r in want.records]
    assert got.digests == want.digests
    assert np.array_equal(got.admissions, want.admissions)
    assert got.global_model.update_count == want.global_model.update_count
    assert np.array_equal(got.global_model.params.vector,
                          want.global_model.params.vector)
    assert all(np.array_equal(a, b)
               for a, b in zip(seen["settled"], seen["direct"], strict=True))


@pytest.mark.parametrize("key,value", [("agg_mix", 1.0),
                                       ("wavelength_m", 0.0)])
def test_run_phase_refuses_a_bad_config_before_any_slot(key, value):
    cfg = tiny_cfg()
    ds = build_dataset(cfg, 65)
    calls = []

    def select(world, prev_action):
        calls.append(world.slot)
        return np.ones(3), np.ones(3, dtype=bool)

    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        run_phase(replace(cfg, **{key: value}), ds, 65, "test", 1, select)
    assert calls == []


# -- the cohort helper -------------------------------------------------------------


TWO_CPUS = pytest.mark.skipif(not engine._wants_helper(),
                              reason="fewer than two usable CPUs")


@pytest.mark.parametrize("sizes,halves", [
    # sync_fl at the default config: four full shards and the weak one's
    ([1000, 1000, 1000, 250, 1000], ([0, 2, 3], [1, 4])),
    # four admitted vehicles and the 600-row trusted learner
    ([1000, 1000, 250, 1000, 600], ([0, 3], [1, 2, 4])),
    ([40, 40], ([0], [1])),
    ([5, 40, 7], ([1], [0, 2]))])
def test_halves_balance_rows_largest_first(sizes, halves):
    assert engine._halves(sizes) == halves


class RecordingPipe:
    """A pipe end that keeps what is sent through it."""

    def __init__(self, conn):
        self.conn, self.sent = conn, []

    def send(self, obj):
        self.sent.append(obj)
        self.conn.send(obj)

    def __getattr__(self, name):
        return getattr(self.conn, name)


def test_a_split_cohort_trains_each_learner_as_one_cohort_does():
    # tampering on even slots only gives vehicle 0 two shards an episode;
    # each crosses the pipe once, and again only for a new World
    cfg = tiny_cfg(attack="data_flip", attack_persistent=False)
    ds = build_dataset(cfg, 63)
    start = init_params(cfg.classifier_arch, substream(63, "g"))
    trusted = init_params(cfg.classifier_arch, substream(63, "t"))
    hyper = (2, cfg.local_lr, 7)
    helper = engine.CohortHelper()
    helper._conn = pipe = RecordingPipe(helper._conn)
    try:
        for episode in (1, 2):
            world = World(cfg, ds, 63, "test", episode)
            world.set_attacks([0], "data_flip")
            for _ in range(3):
                shards = [world.training_batch(v) for v in range(3)] \
                    + [world.rsu_batch]

                def rngs():
                    return [world.train_rng(v) for v in range(3)] \
                        + [world.rsu_train_rng()]
                starts = [start] * 3 + [trusted]
                got = helper.train_cohort(world, starts, shards, rngs(),
                                          *hyper)
                want = train_cohort(starts, shards, rngs(), *hyper)
                assert [(params_to_bytes(p), loss) for p, loss in got] \
                    == [(params_to_bytes(p), loss) for p, loss in want]
                world.advance()
    finally:
        helper.close()
    assert helper._proc.exitcode == 0
    # the helper trains vehicles 0 and 2, from one start
    assert [(fresh, len(new), len(starts), len(learners))
            for fresh, new, starts, learners, _ in pipe.sent] \
        == [(True, 2, 1, 2), (False, 1, 1, 2), (False, 0, 1, 2)] * 2


def test_a_cohort_of_one_stays_in_this_process():
    cfg = tiny_cfg()
    world = World(cfg, build_dataset(cfg, 64), 64, "test", 1)
    start = init_params(cfg.classifier_arch, substream(64, "g"))
    helper = engine.CohortHelper()
    helper._conn = pipe = RecordingPipe(helper._conn)
    try:
        got = helper.train_cohort(world, [start], [world.training_batch(1)],
                                  [world.train_rng(1)], 1, cfg.local_lr, 10)
    finally:
        helper.close()
    want = train_cohort([start], [world.training_batch(1)],
                        [world.train_rng(1)], 1, cfg.local_lr, 10)
    assert params_to_bytes(got[0][0]) == params_to_bytes(want[0][0])
    assert pipe.sent == []


@pytest.mark.parametrize("odd", [2, 1])
def test_an_error_in_either_half_is_raised_and_the_next_cohort_trains(odd):
    # the helper trains learners 0 and 2, this process 1 and 3; learner
    # ``odd``'s architecture differs from the others' in its half
    cfg = tiny_cfg()
    world = World(cfg, build_dataset(cfg, 64), 64, "test", 1)
    start = init_params(cfg.classifier_arch, substream(64, "g"))
    starts = [start] * 4
    starts[odd] = init_params((6, 4, 10), substream(64, "h"))
    shards = [world.training_batch(v) for v in range(3)] + [world.rsu_batch]

    def rngs():
        return [world.train_rng(v) for v in range(3)] \
            + [world.rsu_train_rng()]
    helper = engine.CohortHelper()
    try:
        with pytest.raises(ValueError, match="parameter shapes disagree"):
            helper.train_cohort(world, starts, shards, rngs(), 1,
                                cfg.local_lr, 10)
        # from another start, so that a reply left over from the failed
        # call shows
        start = init_params(cfg.classifier_arch, substream(64, "f"))
        got = helper.train_cohort(world, [start] * 4, shards, rngs(), 1,
                                  cfg.local_lr, 10)
    finally:
        helper.close()
    assert helper._proc.exitcode == 0
    want = train_cohort([start] * 4, shards, rngs(), 1, cfg.local_lr, 10)
    assert [(params_to_bytes(p), loss) for p, loss in got] \
        == [(params_to_bytes(p), loss) for p, loss in want]


@TWO_CPUS
@pytest.mark.parametrize("scheme", ["ddafl", "sync_fl"])
def test_every_deployment_slot_sees_one_helper_for_the_phase(scheme):
    cfg = tiny_cfg()
    children = []

    def select(world, prev_action):
        children.append([p.pid for p in multiprocessing.active_children()])
        return np.ones(3), np.ones(3, dtype=bool)

    run_phase(cfg, build_dataset(cfg, 67), 67, "test", 2, select,
              scheme=SCHEMES[scheme])
    assert len(children) == 2 * cfg.slots_per_episode
    assert len(children[0]) == 1
    assert all(pids == children[0] for pids in children)
    assert multiprocessing.active_children() == []


def test_a_phase_with_a_live_child_forks_no_helper():
    # a training phase's learner owns the second core
    ctx = multiprocessing.get_context("fork")
    done = ctx.Event()
    child = ctx.Process(target=done.wait, daemon=True)
    child.start()
    try:
        assert not engine._wants_helper()
    finally:
        done.set()
        child.join(10)
    assert child.exitcode == 0


# runs one sync_fl cell on one CPU and prints how many processes it forked
ONE_CPU = """
import os, sys
sys.path.insert(0, sys.argv[2])
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
os.register_at_fork(before=lambda: forks.append(1))
from conftest import tiny_cfg
from vecafl import harness
cfg = tiny_cfg(dataset_size=260, eval_size=40, slots_per_episode=4,
               test_episodes=2, train_episodes=1)
harness.run_experiment("sync_fl", cfg, 68, out_dir=sys.argv[1])
print(len(forks))
"""


@TWO_CPUS
def test_on_one_cpu_a_deployment_forks_no_helper_and_writes_the_same_bytes(
        monkeypatch, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", ONE_CPU, str(tmp_path / "one"),
         os.path.dirname(conftest.__file__)],
        env=conftest.child_env(), capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
    forked = []

    def counting(self):
        forked.append(1)
        real(self)

    real = engine.CohortHelper._fork
    monkeypatch.setattr(engine.CohortHelper, "_fork", counting)
    harness.run_experiment("sync_fl", tiny_cfg(test_episodes=2), 68,
                           out_dir=str(tmp_path / "two"))
    assert forked == [1]
    one, two = (sorted(p.relative_to(tmp_path / d) for p in
                       (tmp_path / d).rglob("*") if p.is_file())
                for d in ("one", "two"))
    assert one == two and one
    for name in one:
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes(), name


def kill_helper():
    """SIGKILL the one live child, the phase's helper, and wait for it."""
    (child,) = multiprocessing.active_children()
    os.kill(child.pid, signal.SIGKILL)
    child.join(10)
    assert child.exitcode == -9


@TWO_CPUS
@pytest.mark.parametrize("while_training", [False, True])
def test_a_killed_helper_raises_helper_failed(monkeypatch, while_training):
    # SIGKILL in slot 2: before the cohort is sent, or once the helper has
    # its half and this process trains the other
    cfg = tiny_cfg()
    real = engine.train_cohort

    def select(world, prev_action):
        if world.slot == 1:
            if while_training:
                monkeypatch.setattr(engine, "train_cohort", killing)
            else:
                kill_helper()
        return np.ones(3), np.ones(3, dtype=bool)

    def killing(*args):
        kill_helper()
        return real(*args)

    with pytest.raises(engine.HelperFailed,
                       match="cohort helper process exited with code -9$"
                       ) as caught:
        run_phase(cfg, build_dataset(cfg, 69), 69, "test", 1, select,
                  scheme=SCHEMES["sync_fl"])
    assert caught.value.exitcode == -9
    assert multiprocessing.active_children() == []


def test_a_phase_that_raises_leaves_no_helper_running():
    cfg = tiny_cfg()

    def select(world, prev_action):
        if world.slot == 2:
            rsu = world.rsu_batch
            world.rsu_batch = LabeledBatch(rsu.inputs, (rsu.labels + 1) % 10)
        return np.ones(3), np.ones(3, dtype=bool)

    with pytest.raises(TrustedShardError):
        run_phase(cfg, build_dataset(cfg, 70), 70, "test", 1, select,
                  scheme=SCHEMES["ddafl"])
    assert multiprocessing.active_children() == []
