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
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREADS
from .config import SimConfig, config_hash, validate_config
from .engine import SCHEMES, ChildFailed, Forked, Scheme, run_phase
# evaluate is unused here but stays bound: perfbench's slot clock patches it
from .model import (ModelParams, backprop_from_logits, evaluate,
                    forward_stack, init_params, input_gradient, load_params,
                    params_axpy, params_combine, params_copy, save_params)
from .rng import substream
from .world import World


@dataclass
class AgentNets:
    actor: ModelParams
    critic: ModelParams
    target_actor: ModelParams
    target_critic: ModelParams


class ReplayBuffer:
    """Fixed-capacity ring with uniform no-replacement minibatch sampling.

    A transition is (state vector, action, reward, next-state vector), kept
    in preallocated arrays, so a minibatch is one fancy index per array.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.capacity = capacity
        self.states = np.empty((capacity, state_dim))
        self.actions = np.empty((capacity, action_dim))
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, state_dim))
        self._pushes = 0

    def push(self, svec: np.ndarray, action: np.ndarray, reward: float,
             next_svec: np.ndarray) -> None:
        """Store a transition; once full, overwrite the oldest."""
        i = self._pushes % self.capacity
        self.states[i] = svec
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_svec
        self._pushes += 1

    def sample(self, rng: np.random.Generator, count: int):
        """(states, actions, rewards, next states) of ``count`` distinct
        stored transitions."""
        if count > len(self):
            raise ValueError("not enough stored transitions")
        idx = rng.choice(len(self), size=count, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx])

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)


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


def state_vector(world: World, prev_action: np.ndarray,
                 cfg: SimConfig) -> np.ndarray:
    """The agent's observation of the slot: the world's uplink rates, CPU
    draws and lane positions, then the previous selection weights, 4K
    entries with every block scaled into [0, 1]."""
    rate_scale = cfg.rate_norm_mult * cfg.bandwidth_hz
    rates = np.clip(world.rates() / rate_scale, 0.0, 1.0)
    computes = np.clip(world.computes() / cfg.compute_max_hz, 0.0, 1.0)
    pos = np.clip((world.positions() / cfg.coverage_radius_m + 1.0) / 2.0,
                  0.0, 1.0)
    return np.concatenate([rates, computes, pos,
                           np.asarray(prev_action, dtype=float)])


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


# ---------------------------------------------------------------------------
# learning updates


def _agent_architectures(cfg: SimConfig):
    """(actor, critic) layer sizes under ``cfg``."""
    k = cfg.vehicle_count
    return ((4 * k, cfg.hidden1, cfg.hidden2, k),
            (5 * k, cfg.hidden1, cfg.hidden2, 1))


def init_agent(cfg: SimConfig, seed: int) -> AgentNets:
    actor_arch, critic_arch = _agent_architectures(cfg)
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
    return params_axpy(nets.critic, grads, -lr), float(np.mean(diff ** 2))


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
    dx = input_gradient(nets.critic, acts_c, dmean_q)
    dactions = dx[:, state_dim:]
    dlogits_a = dactions * actions * (1.0 - actions)
    grads, _ = backprop_from_logits(nets.actor, acts_a, dlogits_a)
    return params_axpy(nets.actor, grads, lr)


def soft_update(target: ModelParams, online: ModelParams,
                tau: float) -> ModelParams:
    """Move the target a fraction tau toward the online network."""
    return params_combine(tau, online, 1.0 - tau, target)


# ---------------------------------------------------------------------------
# training and deployment


class TrainingDiverged(ValueError):
    """An agent update left a non-finite critic loss or network."""


class LearnerFailed(ChildFailed):
    """The learner process died, or exited with a non-zero code."""


@dataclass
class TrainResult:
    nets: AgentNets
    episode_rewards: np.ndarray
    records: list                 # engine.SlotResult per slot
    digests: list
    rng_digest: str


class _Learner(Forked):
    """The agent's four nets and updates, in a process forked by ``train``.
    It writes each new actor, and all four nets at the pipe's EOF, into a
    ``MAP_SHARED`` buffer, so nothing larger than a minibatch is pickled."""

    failure = LearnerFailed
    role = "agent's learner"

    def __init__(self, nets: AgentNets, cfg: SimConfig):
        self.nets, self.cfg, self.pending = nets, cfg, None
        sizes = [getattr(nets, name).vector.size for name in _NET_FILES]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))
        self._shared = dict(zip(_NET_FILES,
                                np.split(flat, np.cumsum(sizes)[:-1])))
        self._fork()

    def _serve(self, conn) -> None:
        os.nice(19)               # on a shared CPU, the slot loop goes first
        nets, cfg = self.nets, self.cfg
        try:
            while True:
                svecs, avecs, rews, nvecs = conn.recv()
                targets = critic_targets(nets, rews, nvecs, cfg.discount)
                nets.critic, mse = critic_update(nets, svecs, avecs, targets,
                                                 cfg.critic_lr)
                nets.actor = actor_update(nets, svecs, cfg.actor_lr)
                finite = (math.isfinite(mse)
                          and np.isfinite(nets.critic.vector).all()
                          and np.isfinite(nets.actor.vector).all())
                if finite:
                    nets.target_critic = soft_update(nets.target_critic,
                                                     nets.critic, cfg.soft_tau)
                    nets.target_actor = soft_update(nets.target_actor,
                                                    nets.actor, cfg.soft_tau)
                    self._shared["actor"][...] = nets.actor.vector
                conn.send(finite)
        except (EOFError, BrokenPipeError):
            for name in _NET_FILES:
                self._shared[name][...] = getattr(nets, name).vector

    def update(self, batch, where) -> None:
        self._pipe(self._conn.send, batch)
        self.pending = where      # the (episode, slot) that names the update

    def settle(self) -> None:
        """Wait for the pending update and take its actor."""
        (episode, slot), self.pending = self.pending, None
        if not self._pipe(self._conn.recv):
            raise TrainingDiverged(
                f"training diverged in episode {episode}, slot {slot}: the "
                f"critic loss or a network is not finite; lower critic_lr "
                f"({self.cfg.critic_lr:g}) or actor_lr "
                f"({self.cfg.actor_lr:g})")
        self.nets.actor = self._take("actor")

    def finish(self) -> AgentNets:
        """Settle, end the learner and take all four nets."""
        if self.pending is not None:
            self.settle()
        self.close()
        self._check_exit()
        return AgentNets(*map(self._take, _NET_FILES))

    def _take(self, name: str) -> ModelParams:
        return ModelParams(self._shared[name].copy(),
                           getattr(self.nets, name).architecture)


def train(cfg: SimConfig, dataset, seed: int,
          scheme: Scheme = SCHEMES["ddafl"]) -> TrainResult:
    """Learn a selection policy over ``cfg.train_episodes`` episodes.

    Training aggregates with ``scheme``'s staleness weights but never with
    the upload filter, and without tampering; the degraded vehicle, if
    configured, is part of the environment.  The world and the global model
    restart every episode, and network updates begin once the replay holds
    strictly more than one minibatch.  The episodes run on
    ``engine.run_phase``: the actor plus exploration noise selects, and
    each slot's transition is stored and learned from.  An update that
    leaves the critic's loss, the critic or the actor non-finite raises
    ``TrainingDiverged``.  Updates run in a ``_Learner`` while the next
    slot trains on the old actor's pick; ``settle`` picks with the new one
    and the same noise, so the bytes are those of an in-slot update.
    """
    validate_config(cfg)
    k = cfg.vehicle_count
    nets = init_agent(cfg, seed)
    replay = ReplayBuffer(cfg.replay_capacity, 4 * k, k)
    noise = OUNoise(k, cfg.ou_decay, math.sqrt(cfg.ou_variance))
    noise_rng = substream(seed, "agent", "noise")
    sample_rng = substream(seed, "agent", "replay")
    svec = None                   # state vector of the slot about to run

    def select(world: World, prev_action: np.ndarray):
        nonlocal svec
        if world.slot == 0:
            noise.reset()
            svec = state_vector(world, prev_action, cfg)
        state, draw = svec, noise.sample(noise_rng)

        def pick():
            weights = np.clip(actor_forward(nets.actor, state) + draw,
                              cfg.action_floor, 1.0)
            return weights, binarize_action(weights)
        return pick() if learner.pending is None else (
            *pick(), lambda: learner.settle() or pick())

    def observe(world: World, weights: np.ndarray, res):
        nonlocal svec
        next_svec = state_vector(world, weights, cfg)
        replay.push(svec, weights, res.reward, next_svec)
        svec = next_svec
        if len(replay) > cfg.replay_batch:
            learner.update(replay.sample(sample_rng, cfg.replay_batch),
                           (world.episode, world.slot))

    learner = _Learner(nets, cfg)
    try:
        phase = run_phase(cfg, dataset, seed, "train", cfg.train_episodes,
                          select, observe,
                          scheme=scheme._replace(defense=False),
                          restart_global=True)
        nets = learner.finish()
    finally:
        learner.close()
    episode_rewards = np.zeros(cfg.train_episodes)
    for rec in phase.records:
        episode_rewards[rec.episode - 1] += rec.reward

    states = "".join(json.dumps(r.bit_generator.state, sort_keys=True,
                                default=str) for r in (noise_rng, sample_rng))
    rng_digest = hashlib.sha256(states.encode()).hexdigest()[:16]
    return TrainResult(nets, episode_rewards, phase.records, phase.digests,
                       rng_digest)


def greedy_select(actor: ModelParams, cfg: SimConfig):
    """Noise-free deployment callback for the phase runner."""
    def select(world: World, prev_action: np.ndarray):
        svec = state_vector(world, prev_action, cfg)
        weights = np.clip(actor_forward(actor, svec), cfg.action_floor, 1.0)
        return weights, binarize_action(weights)
    return select


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
                "rng_digest": rng_digest, "scheme": scheme,
                "blas_threads": BLAS_THREADS}
    with open(os.path.join(path, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_checkpoint(path, cfg: SimConfig):
    """Read nets and manifest; refuse a hash or net architecture that does
    not match ``cfg``, or a non-finite net value.  Every ValueError names
    the file at fault."""
    where = os.path.join(path, "manifest.json")
    with open(where, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{where}: not JSON ({exc})") from exc
    missing = [key for key in ("config_hash", "episodes_trained", "rng_digest")
               if not isinstance(manifest, dict) or key not in manifest]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")
    if manifest["config_hash"] != config_hash(cfg):
        raise ValueError(f"{where}: checkpoint was trained under a "
                         f"different config (hash {manifest['config_hash']})")
    loaded = {attr: load_params(os.path.join(path, fname))
              for attr, fname in _NET_FILES.items()}
    # _NET_FILES lists the actor and the critic, then their targets
    for (attr, fname), want in zip(_NET_FILES.items(),
                                   2 * _agent_architectures(cfg)):
        got = loaded[attr].architecture
        if got != want:
            raise ValueError(f"{os.path.join(path, fname)}: architecture "
                             f"{got} does not match the config's {want}")
        if not np.isfinite(loaded[attr].vector).all():
            raise ValueError(f"{os.path.join(path, fname)}: holds a "
                             f"non-finite value")
    return AgentNets(**loaded), manifest
