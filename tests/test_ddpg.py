"""Agent-side unit tests: replay, noise, networks, updates, training loop."""

import json
import math
import multiprocessing
import os
import re
import signal
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (TWO_CPUS, make_params, params_allclose, params_equal,
                      tiny_122_net, tiny_cfg)
from reference import biases, weights
import vecafl
from vecafl import ddpg
from vecafl.config import SimConfig, validate_config
from vecafl.ddpg import (AgentNets, OUNoise, ReplayBuffer, actor_forward,
                         actor_update, binarize_action, critic_forward,
                         critic_targets, critic_update, init_agent,
                         soft_update, state_vector)
from vecafl.engine import SCHEMES, ChildFailed, compute_reward
from vecafl.harness import run_experiment
from vecafl.model import (ModelParams, forward_stack, init_params,
                          params_copy, params_to_bytes)
from vecafl.rng import substream
from vecafl.world import build_dataset


agent_cfg = partial(tiny_cfg, dataset_size=260, eval_size=40,
                    slots_per_episode=3, train_episodes=2, test_episodes=2,
                    hidden1=16, hidden2=8, replay_batch=2)


# -- replay buffer -----------------------------------------------------------


def push_tagged(buf: ReplayBuffer, tag: float) -> None:
    """A transition whose every entry is ``tag``, next state ``-tag``."""
    buf.push(np.full(2, tag), np.full(1, tag), tag, np.full(2, -tag))


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(3, 2, 1)
    for i in range(5):
        push_tagged(buf, float(i))
    assert len(buf) == 3
    rewards = buf.sample(substream(1, "rb"), 3)[2]
    assert set(rewards) == {2.0, 3.0, 4.0}
    # slot i % capacity holds push i: 3 overwrote 0, 4 overwrote 1
    assert list(buf.rewards) == [3.0, 4.0, 2.0]


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(8, 2, 1)
    for i in range(5):
        push_tagged(buf, float(i))
    rewards = buf.sample(substream(2, "rb"), 5)[2]
    assert sorted(rewards) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_replay_sample_keeps_transitions_whole():
    buf = ReplayBuffer(4, 2, 1)
    for i in range(6):
        push_tagged(buf, float(i))
    states, actions, rewards, next_states = buf.sample(substream(9, "rb"), 4)
    assert states.shape == next_states.shape == (4, 2)
    assert actions.shape == (4, 1) and rewards.shape == (4,)
    assert np.array_equal(states, np.repeat(rewards[:, None], 2, axis=1))
    assert np.array_equal(actions[:, 0], rewards)
    assert np.array_equal(next_states, -states)


def test_replay_sample_draws_the_list_ring_indices():
    # the sampled rows are rng.choice(len, count, replace=False) of the
    # ring, so the replay stream is that of the earlier list-backed buffer
    buf = ReplayBuffer(5, 2, 1)
    for i in range(7):
        push_tagged(buf, float(i))
    rewards = buf.sample(substream(10, "rb"), 3)[2]
    idx = substream(10, "rb").choice(5, size=3, replace=False)
    assert np.array_equal(rewards, np.array([5.0, 6.0, 2.0, 3.0, 4.0])[idx])


def test_replay_rejects_oversample_and_bad_capacity():
    buf = ReplayBuffer(4, 2, 1)
    push_tagged(buf, 1.0)
    with pytest.raises(ValueError):
        buf.sample(substream(3, "rb"), 2)


def test_replay_sampling_is_roughly_uniform():
    buf = ReplayBuffer(4, 2, 1)
    for i in range(4):
        push_tagged(buf, float(i))
    rng = substream(4, "rb")
    counts = np.zeros(4)
    for _ in range(4000):
        counts[int(buf.sample(rng, 1)[2][0])] += 1
    assert np.all(counts > 850) and np.all(counts < 1150)


# -- exploration noise ----------------------------------------------------------


def test_ou_decay_step_exact():
    noise = OUNoise(2, decay=0.15, sigma=0.0)
    noise.state = np.ones(2)
    assert np.allclose(noise.sample(substream(5, "ou")), 0.85, atol=1e-15)


def test_ou_zero_sigma_stays_at_rest():
    noise = OUNoise(3, decay=0.5, sigma=0.0)
    for _ in range(4):
        out = noise.sample(substream(6, "ou"))
    assert np.all(out == 0.0)


def test_ou_reset_clears_state():
    noise = OUNoise(2, decay=0.15, sigma=1.0)
    rng = substream(7, "ou")
    for _ in range(10):
        noise.sample(rng)
    noise.reset()
    assert np.all(noise.state == 0.0)


def test_ou_long_run_variance():
    # stationary variance of x' = (1-d) x + s N(0,1) is s^2 / (2d - d^2);
    # with d = 0.15 and s^2 = 0.02 that is 0.072072072072072072
    noise = OUNoise(1, decay=0.15, sigma=math.sqrt(0.02))
    rng = substream(8, "ou")
    trace = np.array([noise.sample(rng)[0] for _ in range(100000)])
    want = 0.072072072072072072
    assert abs(trace[5000:].var() - want) < 0.1 * want


# -- state encoding ----------------------------------------------------------------


def test_state_vector_layout_and_clipping():
    cfg = validate_config(SimConfig())
    # a stand-in world that reports fixed per-vehicle values
    world = SimpleNamespace(
        rates=lambda: np.array([1e12, 0.0, 4e4, -5.0, 2e4]),
        computes=lambda: np.array([2e9, 3e9, 1e12, 0.0, 2.5e9]),
        positions=lambda: np.array([-250.0, 0.0, 250.0, 5e4, -5e4]))
    prev_action = np.array([0.3, 0.9, 0.01, 1.0, 0.5])
    vec = state_vector(world, prev_action, cfg)
    assert vec.shape == (20,)
    assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
    assert np.allclose(vec[15:], prev_action)
    assert vec[0] == 1.0 and vec[1] == 0.0       # rate clip both ends
    assert vec[7] == 1.0 and vec[8] == 0.0       # compute clip
    assert vec[10] == 0.25 and vec[11] == 0.5    # position affine map
    assert vec[12] == 0.75
    assert vec[13] == 1.0 and vec[14] == 0.0     # position clip


def test_build_state_copies_action():
    cfg = agent_cfg()
    from vecafl.world import World
    world = World(cfg, build_dataset(cfg, 9), 9, "test", 1)
    prev = np.full(3, 0.7)
    vec = state_vector(world, prev, cfg)
    prev[0] = 0.0
    assert vec[9] == 0.7                         # the action block is 3K on
    rate_scale = cfg.rate_norm_mult * cfg.bandwidth_hz
    assert np.array_equal(vec[:3],
                          np.clip(world.rates() / rate_scale, 0.0, 1.0))


# -- network heads -------------------------------------------------------------------


def test_actor_forward_zero_params_is_half():
    actor = make_params([np.zeros((4, 2))], [np.zeros(2)])
    assert np.allclose(actor_forward(actor, np.zeros(4)), 0.5)


def test_actor_forward_hand_case():
    out = actor_forward(tiny_122_net(), np.array([0.5]))
    assert out[0] == pytest.approx(0.58661757891733006, abs=1e-15)
    assert out[1] == pytest.approx(0.45016600268752209, abs=1e-15)


def test_actor_forward_codomain():
    actor = init_params((8, 6, 4), substream(10, "af"))
    rng = substream(11, "af")
    for _ in range(20):
        out = actor_forward(actor, rng.uniform(-5, 5, size=8))
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_critic_forward_linear_hand_case():
    critic = make_params([[[2.0], [3.0]]], [[0.5]])
    assert critic_forward(critic, np.array([1.0]), np.array([2.0])) \
        == pytest.approx(8.5, abs=1e-15)


def test_binarize_threshold_and_fallback():
    mask = binarize_action(np.array([0.9, 0.1, 0.5, 0.49, 1.0]))
    assert mask.tolist() == [True, False, True, False, True]
    mask = binarize_action(np.array([0.4, 0.2, 0.3]))
    assert mask.tolist() == [True, False, False]
    mask = binarize_action(np.array([0.3, 0.3]))
    assert mask.tolist() == [True, False]


# -- reward -------------------------------------------------------------------------


def test_reward_hand_case():
    cfg = validate_config(SimConfig())
    assert compute_reward(np.ones(5), 0.5, 0.6, cfg) \
        == pytest.approx(-1.1, abs=1e-15)


def test_reward_doubles_when_weights_halve():
    cfg = validate_config(SimConfig())
    full = compute_reward(np.ones(5), 0.5, 0.6, cfg)
    half = compute_reward(np.full(5, 0.5), 0.5, 0.6, cfg)
    assert half == pytest.approx(2.0 * full, abs=1e-12)


def test_reward_nan_terms_count_zero():
    cfg = validate_config(SimConfig())
    assert compute_reward(np.ones(5), math.nan, math.nan, cfg) == 0.0
    assert compute_reward(np.ones(5), math.nan, 0.6, cfg) \
        == pytest.approx(-0.6, abs=1e-15)


def test_reward_rejects_zero_weight_sum():
    cfg = validate_config(SimConfig())
    with pytest.raises(ValueError):
        compute_reward(np.zeros(5), 0.5, 0.6, cfg)


def test_reward_rejects_a_nan_weight_sum():
    # a nan sum passed the old "total <= 0.0" check and scored nan
    cfg = validate_config(SimConfig())
    with pytest.raises(ValueError, match="positive"):
        compute_reward(np.array([np.nan, 1.0, 1.0, 1.0, 1.0]), 0.5, 0.6, cfg)


def test_reward_never_positive():
    cfg = validate_config(SimConfig())
    rng = substream(12, "rw")
    for _ in range(100):
        r = compute_reward(rng.uniform(0.01, 1.0, size=5),
                           rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0), cfg)
        assert r <= 0.0


# -- learning updates ------------------------------------------------------------------


def small_nets(seed: int, k: int = 1) -> AgentNets:
    actor = init_params((4 * k, 6, k), substream(seed, "a"))
    critic = init_params((5 * k, 6, 1), substream(seed, "c"))
    return AgentNets(actor, critic, params_copy(actor), params_copy(critic))


def test_init_agent_shapes_and_target_copies():
    cfg = agent_cfg()
    nets = init_agent(cfg, 13)
    assert nets.actor.architecture == (12, 16, 8, 3)
    assert nets.critic.architecture == (15, 16, 8, 1)
    assert params_equal(nets.actor, nets.target_actor)
    assert params_equal(nets.critic, nets.target_critic)
    weights(nets.actor)[0][0, 0] += 1.0
    assert not params_equal(nets.actor, nets.target_actor)


def test_critic_targets_constant_critic():
    nets = small_nets(14)
    for w in weights(nets.target_critic):
        w[:] = 0.0
    biases(nets.target_critic)[-1][:] = 2.0
    targets = critic_targets(nets, np.array([1.0, 0.5]),
                             np.zeros((2, 4)), 0.99)
    assert targets[0] == pytest.approx(2.98, abs=1e-12)
    assert targets[1] == pytest.approx(0.5 + 0.99 * 2.0, abs=1e-12)


def test_critic_targets_match_recomputation():
    nets = small_nets(15)
    rng = substream(16, "ct")
    nvecs = rng.uniform(0.0, 1.0, size=(6, 4))
    rewards = rng.uniform(-3.0, 0.0, size=6)
    got = critic_targets(nets, rewards, nvecs, 0.9)
    na = actor_forward(nets.target_actor, nvecs)
    nq = critic_forward(nets.target_critic, nvecs, na)
    assert np.allclose(got, rewards + 0.9 * nq, atol=1e-12)


def test_critic_update_no_error_no_change():
    nets = small_nets(17)
    rng = substream(18, "cu")
    svecs = rng.uniform(0.0, 1.0, size=(4, 4))
    avecs = rng.uniform(0.0, 1.0, size=(4, 1))
    q = critic_forward(nets.critic, svecs, avecs)
    new, mse = critic_update(nets, svecs, avecs, q, 0.1)
    assert mse == 0.0
    assert params_equal(new, nets.critic)


def test_critic_update_reports_mse():
    nets = small_nets(19)
    svecs = np.zeros((1, 4))
    avecs = np.zeros((1, 1))
    q = critic_forward(nets.critic, svecs, avecs)
    _, mse = critic_update(nets, svecs, avecs, q - 3.0, 0.01)
    assert mse == pytest.approx(9.0, abs=1e-12)


def test_critic_update_gradient_matches_finite_differences():
    nets = small_nets(20)
    rng = substream(21, "fd")
    svecs = rng.uniform(0.0, 1.0, size=(4, 4))
    avecs = rng.uniform(0.0, 1.0, size=(4, 1))
    targets = rng.uniform(-2.0, 0.0, size=4)
    lr = 1e-3
    new, _ = critic_update(nets, svecs, avecs, targets, lr)
    got = (nets.critic.vector - new.vector) / lr

    def loss_at(flat):
        params = ModelParams(flat, nets.critic.architecture)
        q = critic_forward(params, svecs, avecs)
        return float(np.mean((q - targets) ** 2))

    base = nets.critic.vector
    eps = 1e-5
    fd = np.empty_like(base)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (loss_at(up) - loss_at(dn)) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)


def test_actor_update_constant_critic_no_change():
    nets = small_nets(22)
    for w in weights(nets.critic):
        w[:] = 0.0
    biases(nets.critic)[-1][:] = 5.0
    rng = substream(23, "au")
    svecs = rng.uniform(0.0, 1.0, size=(4, 4))
    new = actor_update(nets, svecs, 0.01)
    assert params_allclose(new, nets.actor, tol=1e-15)


def test_actor_update_gradient_matches_finite_differences():
    nets = small_nets(24)
    rng = substream(25, "au")
    svecs = rng.uniform(0.0, 1.0, size=(4, 4))
    lr = 1e-3
    new = actor_update(nets, svecs, lr)
    got = (new.vector - nets.actor.vector) / lr

    def value_at(flat):
        params = ModelParams(flat, nets.actor.architecture)
        logits, _ = forward_stack(params, svecs)
        actions = 1.0 / (1.0 + np.exp(-logits))
        return float(np.mean(critic_forward(nets.critic, svecs, actions)))

    base = nets.actor.vector
    eps = 1e-5
    fd = np.empty_like(base)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (value_at(up) - value_at(dn)) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)

    # the step really ascends the critic's value for a small rate
    assert value_at(new.vector) >= value_at(base)


def test_soft_update_blend_and_edges():
    ones = make_params([np.ones((2, 2))], [np.ones(2)])
    zeros = make_params([np.zeros((2, 2))], [np.zeros(2)])
    out = soft_update(zeros, ones, 0.001)
    assert np.allclose(weights(out)[0], 0.001, atol=1e-18)
    same = soft_update(ones, ones, 0.3)
    assert params_allclose(same, ones, tol=1e-15)
    snapped = soft_update(zeros, ones, 1.0)
    assert params_equal(snapped, ones)


def test_soft_update_contracts_distance():
    a = init_params((3, 4), substream(26, "su"))
    b = init_params((3, 4), substream(27, "su"))
    out = soft_update(a, b, 0.25)
    before = np.linalg.norm(a.vector - b.vector)
    after = np.linalg.norm(out.vector - b.vector)
    assert after == pytest.approx(0.75 * before, rel=1e-12)


# -- training loop -------------------------------------------------------------------


def test_train_holds_updates_until_replay_fills():
    # 2 episodes x 3 slots push 6 transitions; with a batch of 8 the
    # strict > guard never fires, so the networks keep their init values
    cfg = agent_cfg(replay_batch=8)
    ds = build_dataset(cfg, 28)
    out = ddpg.train(cfg, ds, 28)
    ref = init_agent(cfg, 28)
    assert params_equal(out.nets.actor, ref.actor)
    assert params_equal(out.nets.critic, ref.critic)
    assert params_equal(out.nets.target_actor, ref.actor)
    assert out.episode_rewards.shape == (2,)
    assert len(out.records) == 6
    assert len(out.digests) == 2


def test_train_updates_once_replay_spills():
    cfg = agent_cfg()
    ds = build_dataset(cfg, 29)
    out = ddpg.train(cfg, ds, 29)
    ref = init_agent(cfg, 29)
    assert not params_equal(out.nets.actor, ref.actor)
    assert not params_equal(out.nets.critic, ref.critic)


def test_train_episode_rewards_sum_records():
    cfg = agent_cfg()
    ds = build_dataset(cfg, 30)
    out = ddpg.train(cfg, ds, 30)
    for ep in (1, 2):
        slot_sum = sum(r.reward for r in out.records if r.episode == ep)
        assert out.episode_rewards[ep - 1] == pytest.approx(slot_sum,
                                                            abs=1e-12)
    assert np.all(out.episode_rewards <= 0.0)


def test_train_deterministic():
    cfg = agent_cfg()
    ds = build_dataset(cfg, 31)
    a = ddpg.train(cfg, ds, 31)
    b = ddpg.train(cfg, ds, 31)
    assert a.rng_digest == b.rng_digest
    assert len(a.rng_digest) == 16
    assert np.array_equal(a.episode_rewards, b.episode_rewards)
    assert params_equal(a.nets.actor, b.nets.actor)
    assert a.digests == b.digests


def test_train_ignores_the_schemes_filter():
    # training never screens uploads, so the defended scheme trains the
    # same policy as its undefended knockout
    cfg = agent_cfg()
    ds = build_dataset(cfg, 33)
    a = ddpg.train(cfg, ds, 33, SCHEMES["ddafl"])
    b = ddpg.train(cfg, ds, 33, SCHEMES["ddafl_no_defense"])
    assert a.rng_digest == b.rng_digest
    for name in ("actor", "critic", "target_actor", "target_critic"):
        assert params_equal(getattr(a.nets, name), getattr(b.nets, name))
    assert all(r.trusted_loss is None and r.filter_calls == 0
               for r in a.records + b.records)


@pytest.mark.parametrize("critic_lr, actor_lr, where", [
    # both nets blow up within three episodes
    (1e4, 1e4, "episode 3, slot 1"),
    # the first update: the critic's step is so large that the actor's
    # overflows, while the loss that update reports is still finite
    (1e300, 1e-4, "episode 1, slot 3")])
def test_train_raises_when_an_update_diverges(monkeypatch, critic_lr,
                                              actor_lr, where):
    # unchecked, training ran on with NaN nets; the learner updates in a
    # forked process or, without a spare CPU, in the slot
    cfg = agent_cfg(hidden1=16, hidden2=12, critic_lr=critic_lr,
                    actor_lr=actor_lr, train_episodes=3)
    ds = build_dataset(cfg, 2)
    rates = f"critic_lr ({critic_lr:g}) or actor_lr ({actor_lr:g})"
    for spare in (True, False):
        monkeypatch.setattr(ddpg, "spare_cpu", lambda: spare)
        with np.errstate(all="ignore"), pytest.raises(
                ddpg.TrainingDiverged,
                match=f"in {where}: .* {re.escape(rates)}$"):
            ddpg.train(cfg, ds, 2)
        assert multiprocessing.active_children() == []
    assert issubclass(ddpg.TrainingDiverged, ValueError)


@TWO_CPUS
def test_a_rerun_in_every_update_slot_changes_no_byte(monkeypatch):
    # each early pick made with an update pending is the complement of the
    # settled pick, so every such slot's round runs twice, the second time
    # from the models at the head of the slot
    cfg = agent_cfg(train_episodes=3)
    ds = build_dataset(cfg, 38)
    want = ddpg.train(cfg, ds, 38)
    real, reruns = ddpg.run_phase, []

    def forcing(cfg, dataset, seed, phase, episodes, select_fn, *rest, **kw):
        def select(world, prev_action):
            weights, mask, *settle = select_fn(world, prev_action)
            if not settle:
                return weights, mask
            settled = settle[0]()
            reruns.append((world.episode, world.slot))
            return weights, ~settled[1], lambda: settled
        return real(cfg, dataset, seed, phase, episodes, select, *rest, **kw)

    monkeypatch.setattr(ddpg, "run_phase", forcing)
    got = ddpg.train(cfg, ds, 38)
    # the first update is pending from the fourth slot on
    assert len(reruns) == cfg.train_episodes * cfg.slots_per_episode - 3
    for name in ("actor", "critic", "target_actor", "target_critic"):
        assert params_to_bytes(getattr(got.nets, name)) \
            == params_to_bytes(getattr(want.nets, name))
    assert repr(got.records) == repr(want.records)
    assert np.array_equal(got.episode_rewards, want.episode_rewards)
    assert (got.digests, got.rng_digest) == (want.digests, want.rng_digest)


def test_train_leaves_no_learner_process_running():
    cfg = agent_cfg()
    out = ddpg.train(cfg, build_dataset(cfg, 34), 34)
    assert not params_equal(out.nets.critic, init_agent(cfg, 34).critic)
    assert multiprocessing.active_children() == []


@TWO_CPUS
def test_a_learner_whose_pipe_closes_exits_within_a_second():
    # a parent that dies closes its end of the pipe just so
    cfg = agent_cfg()
    learner = ddpg._Learner(init_agent(cfg, 35), cfg)
    learner._conn.close()
    learner._proc.join(1.0)
    assert learner._proc.exitcode == 0
    assert multiprocessing.active_children() == []


@TWO_CPUS
@pytest.mark.parametrize("while_updating", [False, True])
def test_a_killed_learner_raises_learner_failed(monkeypatch, while_updating):
    # SIGKILL after the second update: the learner dies just before the
    # third is sent, or while the second runs
    update, calls = ddpg._Learner.update, []

    def killing(self, batch, where):
        calls.append(where)
        if len(calls) == 3 and not while_updating:
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join()
        update(self, batch, where)
        if len(calls) == 2 and while_updating:
            os.kill(self._proc.pid, signal.SIGKILL)

    monkeypatch.setattr(ddpg._Learner, "update", killing)
    cfg = agent_cfg()
    with pytest.raises(ChildFailed, match="learner process exited "
                                          "with code -9$") as caught:
        ddpg.train(cfg, build_dataset(cfg, 37), 37)
    assert (caught.value.role, caught.value.exitcode) \
        == ("agent's learner", -9)
    assert multiprocessing.active_children() == []


@TWO_CPUS
def test_the_learner_updates_as_the_slot_did():
    # the learner's nets after a few minibatches are those of running the
    # same update sequence in this process
    cfg = agent_cfg()
    rng = substream(36, "batches")
    batches = [(rng.random((2, 12)), rng.random((2, 3)), -rng.random(2),
                rng.random((2, 12))) for _ in range(4)]
    here = init_agent(cfg, 36)
    learner = ddpg._Learner(init_agent(cfg, 36), cfg)
    try:
        for i, (svecs, avecs, rews, nvecs) in enumerate(batches):
            learner.update((svecs, avecs, rews, nvecs), (1, i))
            targets = critic_targets(here, rews, nvecs, cfg.discount)
            here.critic, _ = critic_update(here, svecs, avecs, targets,
                                           cfg.critic_lr)
            here.actor = actor_update(here, svecs, cfg.actor_lr)
            here.target_critic = soft_update(here.target_critic, here.critic,
                                             cfg.soft_tau)
            here.target_actor = soft_update(here.target_actor, here.actor,
                                            cfg.soft_tau)
            learner.settle()
            assert params_to_bytes(learner.nets.actor) \
                == params_to_bytes(here.actor)
    finally:
        learner.close()
    for name in ("actor", "critic", "target_actor", "target_critic"):
        assert params_to_bytes(getattr(learner.nets, name)) \
            == params_to_bytes(getattr(here, name))


def test_deployment_leaves_actor_untouched():
    cfg = agent_cfg()
    out = ddpg.train(cfg, build_dataset(cfg, 32), 32)
    before = params_to_bytes(out.nets.actor)
    res = run_experiment("ddafl_no_defense", cfg, 32, pretrained=out)
    assert params_to_bytes(out.nets.actor) == before
    assert len(res.test_slot_results) \
        == cfg.test_episodes * cfg.slots_per_episode


# -- checkpointing -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg = agent_cfg()
    nets = init_agent(cfg, 33)
    ddpg.save_checkpoint(tmp_path / "ck", nets, cfg, 7, rng_digest="abc")
    loaded, manifest = ddpg.load_checkpoint(tmp_path / "ck", cfg)
    for attr in ("actor", "critic", "target_actor", "target_critic"):
        assert params_equal(getattr(loaded, attr), getattr(nets, attr))
    assert manifest["episodes_trained"] == 7
    assert manifest["rng_digest"] == "abc"
    assert manifest["blas_threads"] == vecafl.BLAS_THREADS


def test_checkpoint_without_blas_threads_still_loads(tmp_path):
    # manifests written before the BLAS thread count was recorded
    cfg, ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    del manifest["blas_threads"]
    (ck / "manifest.json").write_text(json.dumps(manifest))
    _, loaded = ddpg.load_checkpoint(ck, cfg)
    assert "blas_threads" not in loaded


def test_checkpoint_refuses_config_mismatch(tmp_path):
    cfg = agent_cfg()
    nets = init_agent(cfg, 34)
    ddpg.save_checkpoint(tmp_path / "ck", nets, cfg, 1)
    other = agent_cfg(agg_mix=0.6)
    with pytest.raises(ValueError):
        ddpg.load_checkpoint(tmp_path / "ck", other)


def saved_checkpoint(tmp_path, seed=35):
    cfg = agent_cfg()
    ddpg.save_checkpoint(tmp_path / "ck", init_agent(cfg, seed), cfg, 1)
    return cfg, tmp_path / "ck"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_refuses_a_non_finite_net(tmp_path, bad):
    cfg = agent_cfg()
    nets = init_agent(cfg, 37)
    nets.target_critic.vector[3] = bad
    ddpg.save_checkpoint(tmp_path / "ck", nets, cfg, 1)
    where = re.escape(str(tmp_path / "ck" / "target_critic.bin"))
    with pytest.raises(ValueError, match=f"^{where}: holds a non-finite"):
        ddpg.load_checkpoint(tmp_path / "ck", cfg)


def test_checkpoint_refuses_a_net_of_another_architecture(tmp_path):
    cfg, ck = saved_checkpoint(tmp_path)
    # an actor trained with another hidden1, under the matching manifest
    other = init_agent(agent_cfg(hidden1=17), 35).actor
    (ck / "actor.bin").write_bytes(params_to_bytes(other))
    with pytest.raises(ValueError, match=r"actor\.bin: architecture "
                       r"\(12, 17, 8, 3\) does not match"):
        ddpg.load_checkpoint(ck, cfg)


def test_checkpoint_names_a_missing_manifest_key(tmp_path):
    cfg, ck = saved_checkpoint(tmp_path)
    manifest = json.loads((ck / "manifest.json").read_text())
    del manifest["config_hash"]
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError,
                       match=r"manifest\.json: missing config_hash"):
        ddpg.load_checkpoint(ck, cfg)


@pytest.mark.parametrize("text, why", [
    ("{", "not JSON"),
    ("[1, 2]", "missing config_hash, episodes_trained, rng_digest")])
def test_checkpoint_names_an_unreadable_manifest(tmp_path, text, why):
    cfg, ck = saved_checkpoint(tmp_path)
    (ck / "manifest.json").write_text(text)
    with pytest.raises(ValueError, match=rf"manifest\.json: {why}"):
        ddpg.load_checkpoint(ck, cfg)


def test_checkpoint_names_a_truncated_payload(tmp_path):
    cfg, ck = saved_checkpoint(tmp_path)
    blob = (ck / "critic.bin").read_bytes()
    (ck / "critic.bin").write_bytes(blob[:-3])
    with pytest.raises(ValueError, match=r"critic\.bin: payload of \d+ "
                       r"bytes, the header count of \d+ needs"):
        ddpg.load_checkpoint(ck, cfg)


def test_checkpoint_names_a_header_without_its_newline(tmp_path):
    cfg, ck = saved_checkpoint(tmp_path)
    blob = (ck / "target_actor.bin").read_bytes()
    (ck / "target_actor.bin").write_bytes(blob.replace(b"\n", b"", 1))
    with pytest.raises(ValueError,
                       match=r"target_actor\.bin: unreadable header"):
        ddpg.load_checkpoint(ck, cfg)
