"""Actor-critic vehicle selection.

A deterministic-policy agent watches (rates, CPU draws, positions, last
action) and emits a selection weight per vehicle; weights at or above one
half admit the vehicle for this slot's upload round.  Exploration adds
mean-reverting noise, experience goes to a uniform replay ring, and both
networks track slowly-updated targets.  All of it is plain numpy on the
shared dense-stack machinery.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import SimConfig, config_hash
from .engine import GlobalModel, PhaseRecord, run_afl_slot, run_phase
from .model import (ModelParams, backprop_from_logits, evaluate,
                    forward_stack, init_params, load_params, params_axpy,
                    params_combine, params_copy, save_params, sgd_step)
from .rng import substream
from .world import World


@dataclass
class SystemState:
    """Raw per-vehicle observations for one slot."""

    rates: np.ndarray         # uplink rates, bit/s
    computes: np.ndarray      # CPU draws, Hz
    positions: np.ndarray     # lane coordinates, m
    prev_action: np.ndarray   # selection weights from the previous slot


@dataclass
class Transition:
    state: SystemState
    action: np.ndarray
    reward: float
    next_state: SystemState


@dataclass
class AgentNets:
    actor: ModelParams
    critic: ModelParams
    target_actor: ModelParams
    target_critic: ModelParams


class ReplayBuffer:
    """Fixed-capacity ring with uniform no-replacement minibatch sampling."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items = []
        self._pos = 0

    def push(self, transition: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._pos] = transition
            self._pos = (self._pos + 1) % self.capacity

    def sample(self, rng: np.random.Generator, count: int) -> list:
        if count > len(self._items):
            raise ValueError("not enough stored transitions")
        idx = rng.choice(len(self._items), size=count, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


class OUNoise:
    """Mean-reverting exploration noise, one dimension per vehicle."""

    def __init__(self, size: int, decay: float, sigma: float):
        self.size = size
        self.decay = decay
        self.sigma = sigma
        self.state = np.zeros(size)

    def reset(self) -> None:
        self.state = np.zeros(self.size)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        self.state = self.state - self.decay * self.state \
            + self.sigma * rng.standard_normal(self.size)
        return self.state.copy()


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def build_state(world: World, prev_action: np.ndarray) -> SystemState:
    return SystemState(world.rates(), world.computes(), world.positions(),
                       np.asarray(prev_action, dtype=float).copy())


def state_vector(state: SystemState, cfg: SimConfig) -> np.ndarray:
    """Flatten to 4K entries with every block scaled into [0, 1]."""
    rate_scale = cfg.rate_norm_mult * cfg.bandwidth_hz
    rates = np.clip(state.rates / rate_scale, 0.0, 1.0)
    computes = np.clip(state.computes / cfg.compute_max_hz, 0.0, 1.0)
    pos = np.clip((state.positions / cfg.coverage_radius_m + 1.0) / 2.0,
                  0.0, 1.0)
    return np.concatenate([rates, computes, pos, state.prev_action])


def actor_forward(actor: ModelParams, svec: np.ndarray) -> np.ndarray:
    """Selection weights in (0, 1): sigmoid head on the dense stack."""
    logits, _ = forward_stack(actor, svec)
    out = _sigmoid(logits)
    return out[0] if np.asarray(svec).ndim == 1 else out


def critic_forward(critic: ModelParams, svec: np.ndarray,
                   avec: np.ndarray) -> np.ndarray:
    """Q(s, a) with the action appended to the state features."""
    x = np.concatenate([np.atleast_2d(svec), np.atleast_2d(avec)], axis=1)
    logits, _ = forward_stack(critic, x)
    q = logits[:, 0]
    return q[0] if np.asarray(svec).ndim == 1 else q


def binarize_action(weights: np.ndarray) -> np.ndarray:
    """Admission mask: weight >= 0.5 admits; an empty mask falls back to
    the single highest-weight vehicle (lowest id on ties)."""
    weights = np.asarray(weights)
    mask = weights >= 0.5
    if not mask.any():
        mask = np.zeros_like(mask)
        mask[int(np.argmax(weights))] = True
    return mask


def compute_reward(weights: np.ndarray, avg_loss: float, mean_delay: float,
                   cfg: SimConfig) -> float:
    """Negative cost of the slot, spread over the admission budget.

    Cost blends the announced-loss average with the mean end-to-end delay
    of the arrived uploads; the K/sum(weights) prefactor charges timid
    selections.  Slots where nothing arrived contribute zero to a term.
    """
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("selection weights must sum to a positive value")
    loss_term = 0.0 if math.isnan(avg_loss) else avg_loss
    delay_term = 0.0 if math.isnan(mean_delay) else mean_delay
    k = weights.size
    return -(k / total) * (cfg.loss_weight * loss_term
                           + cfg.delay_weight * delay_term)


def slot_reward(weights, mask, slot_result, cfg: SimConfig) -> float:
    return compute_reward(weights, slot_result.avg_loss,
                          slot_result.mean_delay, cfg)


# ---------------------------------------------------------------------------
# learning updates


def init_agent(cfg: SimConfig, seed: int) -> AgentNets:
    k = cfg.vehicle_count
    actor_arch = (4 * k, cfg.hidden1, cfg.hidden2, k)
    critic_arch = (5 * k, cfg.hidden1, cfg.hidden2, 1)
    actor = init_params(actor_arch, substream(seed, "agent", "actor-init"))
    critic = init_params(critic_arch, substream(seed, "agent", "critic-init"))
    return AgentNets(actor, critic, params_copy(actor), params_copy(critic))


def critic_targets(nets: AgentNets, rewards: np.ndarray,
                   next_svecs: np.ndarray, gamma: float) -> np.ndarray:
    """Bootstrapped values through the target networks; every slot
    bootstraps, episode ends are not terminal."""
    next_actions = actor_forward(nets.target_actor, next_svecs)
    next_q = critic_forward(nets.target_critic, next_svecs, next_actions)
    return rewards + gamma * next_q


def critic_update(nets: AgentNets, svecs: np.ndarray, avecs: np.ndarray,
                  targets: np.ndarray, lr: float):
    """One mean-squared-error descent step; returns (new critic, mse)."""
    x = np.concatenate([svecs, avecs], axis=1)
    logits, acts = forward_stack(nets.critic, x)
    q = logits[:, 0]
    diff = q - targets
    dlogits = (2.0 / q.size) * diff[:, None]
    grads, _ = backprop_from_logits(nets.critic, acts, dlogits)
    return sgd_step(nets.critic, grads, lr), float(np.mean(diff ** 2))


def actor_update(nets: AgentNets, svecs: np.ndarray, lr: float) -> ModelParams:
    """Ascend the critic's value of the actor's own actions.

    The critic's gradient with respect to the action block is chained
    through the sigmoid head into the actor parameters.
    """
    state_dim = svecs.shape[1]
    logits_a, acts_a = forward_stack(nets.actor, svecs)
    actions = _sigmoid(logits_a)
    x = np.concatenate([svecs, actions], axis=1)
    _, acts_c = forward_stack(nets.critic, x)
    dmean_q = np.full((svecs.shape[0], 1), 1.0 / svecs.shape[0])
    _, dx = backprop_from_logits(nets.critic, acts_c, dmean_q)
    dactions = dx[:, state_dim:]
    dlogits_a = dactions * actions * (1.0 - actions)
    grads, _ = backprop_from_logits(nets.actor, acts_a, dlogits_a)
    return params_axpy(nets.actor, grads, lr)


def soft_update(target: ModelParams, online: ModelParams,
                tau: float) -> ModelParams:
    """Move the target a fraction tau toward the online network."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return params_combine(tau, online, 1.0 - tau, target)


# ---------------------------------------------------------------------------
# training and deployment


@dataclass
class TrainResult:
    nets: AgentNets
    episode_rewards: np.ndarray
    records: list                 # engine.PhaseRecord per slot
    digests: list
    rng_digest: str


def train(cfg: SimConfig, dataset, seed: int, *, lt_weight_on: bool = True,
          ct_weight_on: bool = True) -> TrainResult:
    """Learn a selection policy over ``cfg.train_episodes`` episodes.

    Training aggregates without the upload filter and without tampering;
    the degraded vehicle, if configured, is part of the environment.  The
    world and the global model restart every episode, and network updates
    begin once the replay holds strictly more than one minibatch.
    """
    k = cfg.vehicle_count
    nets = init_agent(cfg, seed)
    replay = ReplayBuffer(cfg.replay_capacity)
    noise = OUNoise(k, cfg.ou_decay, math.sqrt(cfg.ou_variance))
    noise_rng = substream(seed, "agent", "noise")
    sample_rng = substream(seed, "agent", "replay")

    episode_rewards = np.zeros(cfg.train_episodes)
    records, digests = [], []
    for episode in range(1, cfg.train_episodes + 1):
        world = World(cfg, dataset, seed, "train", episode)
        global_model = GlobalModel(init_params(
            cfg.classifier_arch, substream(seed, "global-init", "train",
                                           episode)))
        noise.reset()
        prev_action = np.ones(k)
        state = build_state(world, prev_action)
        for slot in range(1, cfg.slots_per_episode + 1):
            svec = state_vector(state, cfg)
            weights = np.clip(actor_forward(nets.actor, svec)
                              + noise.sample(noise_rng),
                              cfg.action_floor, 1.0)
            mask = binarize_action(weights)
            res = run_afl_slot(world, np.flatnonzero(mask), global_model,
                               None, cfg, defense_on=False,
                               lt_weight_on=lt_weight_on,
                               ct_weight_on=ct_weight_on)
            reward = slot_reward(weights, mask, res, cfg)
            world.advance()
            next_state = build_state(world, weights)
            replay.push(Transition(state, weights, reward, next_state))

            if len(replay) > cfg.replay_batch:
                batch = replay.sample(sample_rng, cfg.replay_batch)
                svecs = np.stack([state_vector(t.state, cfg) for t in batch])
                avecs = np.stack([t.action for t in batch])
                rews = np.array([t.reward for t in batch])
                nvecs = np.stack([state_vector(t.next_state, cfg)
                                  for t in batch])
                targets = critic_targets(nets, rews, nvecs, cfg.discount)
                nets.critic, _ = critic_update(nets, svecs, avecs, targets,
                                               cfg.critic_lr)
                nets.actor = actor_update(nets, svecs, cfg.actor_lr)
                nets.target_critic = soft_update(nets.target_critic,
                                                 nets.critic, cfg.soft_tau)
                nets.target_actor = soft_update(nets.target_actor,
                                                nets.actor, cfg.soft_tau)

            acc, err = evaluate(global_model.params, world.eval_batch)
            records.append(PhaseRecord(episode, slot, res.avg_loss, acc, err,
                                       reward, len(res.accepted_ids),
                                       res.mean_delay, 0.0))
            episode_rewards[episode - 1] += reward
            state = next_state
        digests.append(world.digest())

    rng_digest = hashlib.sha256(
        (json.dumps(noise_rng.bit_generator.state, sort_keys=True,
                    default=str)
         + json.dumps(sample_rng.bit_generator.state, sort_keys=True,
                      default=str)).encode()).hexdigest()[:16]
    return TrainResult(nets, episode_rewards, records, digests, rng_digest)


def greedy_select(actor: ModelParams, cfg: SimConfig):
    """Noise-free deployment callback for the phase runner."""
    def select(world: World, prev_action: np.ndarray):
        svec = state_vector(build_state(world, prev_action), cfg)
        weights = np.clip(actor_forward(actor, svec), cfg.action_floor, 1.0)
        return weights, binarize_action(weights)
    return select


def test_policy(actor: ModelParams, cfg: SimConfig, dataset, seed: int, *,
                defense_on: bool = True, lt_weight_on: bool = True,
                ct_weight_on: bool = True, attack_kind: str = "none",
                attacked_ids=()):
    """Deploy a trained actor for ``cfg.test_episodes`` episodes.

    No noise, no learning; the upload filter and any tampering are active
    here rather than during training.
    """
    reward_fn = lambda w, m, res: slot_reward(w, m, res, cfg)
    return run_phase(cfg, dataset, seed, "test", cfg.test_episodes,
                     greedy_select(actor, cfg), reward_fn,
                     aggregator="afl", defense_on=defense_on,
                     lt_weight_on=lt_weight_on, ct_weight_on=ct_weight_on,
                     attack_kind=attack_kind, attacked_ids=attacked_ids)


# ---------------------------------------------------------------------------
# checkpointing

_NET_FILES = {"actor": "actor.bin", "critic": "critic.bin",
              "target_actor": "target_actor.bin",
              "target_critic": "target_critic.bin"}


def save_checkpoint(path, nets: AgentNets, cfg: SimConfig,
                    episodes_trained: int, rng_digest: str = "",
                    scheme: str = "") -> None:
    os.makedirs(path, exist_ok=True)
    for attr, fname in _NET_FILES.items():
        save_params(getattr(nets, attr), os.path.join(path, fname))
    manifest = {"episodes_trained": int(episodes_trained),
                "config_hash": config_hash(cfg),
                "rng_digest": rng_digest, "scheme": scheme}
    with open(os.path.join(path, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_checkpoint(path, cfg: SimConfig = None):
    """Read nets and manifest; with a config, refuse a mismatched hash."""
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if cfg is not None and manifest["config_hash"] != config_hash(cfg):
        raise ValueError("checkpoint was trained under a different config "
                         f"(hash {manifest['config_hash']})")
    loaded = {attr: load_params(os.path.join(path, fname))
              for attr, fname in _NET_FILES.items()}
    return AgentNets(**loaded), manifest
