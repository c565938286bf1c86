"""Per-episode simulation state: vehicles, their shards, channels, CPUs.

A ``World`` keeps each per-vehicle quantity in one array indexed by vehicle
id: start and current lane coordinates, the distance and bearing cosine to
the antenna, complex channel gains, CPU draws, and the list of data shards.

Every random quantity is drawn from a named substream of the run seed, and
the environment streams (partition, positions, fading, compute draws) are
kept apart from the training streams.  Two runs with the same seed therefore
see identical roads, channels and data *no matter which vehicles they
select*, which is what makes scheme comparisons paired.

The realisation digest folds in everything the environment draws, so tests
can assert that two schemes really did face the same world.
"""

import hashlib

import numpy as np
from scipy import special

from .channel import (advance_position, channel_correlation,
                      complex_gaussian, doppler_freq, evolve_gain,
                      lane_geometry, transmission_rate)
from .config import SAMPLE_BUDGET, SimConfig, samples_needed, shard_sizes
from .data import (ATTACK_KINDS, ATTACKS, DataShard, LabeledBatch, load_csv,
                   partition, synthetic_blobs)
from .rng import substream


def build_dataset(cfg: SimConfig, seed: int) -> LabeledBatch:
    """The run's dataset: a CSV if configured, else seeded synthetic blobs."""
    if cfg.dataset_path:
        batch = load_csv(cfg.dataset_path)
        width = batch.inputs.shape[1]
        if width != cfg.feature_dim:
            raise ValueError(f"{cfg.dataset_path}: {width} features per row, "
                             f"but feature_dim is {cfg.feature_dim}")
        if len(batch) < samples_needed(cfg):
            raise ValueError(f"{cfg.dataset_path}: {len(batch)} rows, but "
                             f"{SAMPLE_BUDGET} is {samples_needed(cfg)}")
        return batch
    return synthetic_blobs(cfg.dataset_size, cfg.feature_dim,
                           substream(seed, "data"), cfg.blob_spread)


def _truncnorm_draws(a: float, b: float, log_mass: float, loc: float,
                     scale: float, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Truncated normal draws: N(loc, scale^2) cut to loc + [a, b] * scale.

    Runs the float operations of ``scipy.stats.truncnorm.rvs(a, b,
    loc=loc, scale=scale, size=size, random_state=rng)`` (scipy 1.17), so
    the draws and the generator state after them equal scipy's, on
    ``scipy.special`` alone: importing ``scipy.stats`` costs about a second
    of start-up.  Each uniform goes through the quantile function in log
    space, worked in the left tail and mirrored when a >= 0.  ``log_mass``
    is ``_log_gauss_mass(a, b)``, which depends on the cut alone, so a
    caller that draws every slot works it out once.
    """
    q = rng.uniform(size=size)
    if a < 0:
        log_tail, log_q = special.log_ndtr(a), np.log(q)
    else:  # minus the draw from [-b, -a] at 1 - q
        log_tail, log_q = special.log_ndtr(-b), np.log1p(-q)
    log_cdf = _logsumexp_rows(   # log(tail + q * mass)
        np.stack(np.broadcast_arrays(log_tail, log_q + log_mass)))
    vals = special.ndtri_exp(log_cdf)
    return (vals if a < 0 else -vals) * scale + loc


def _logsumexp_rows(rows: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(rows, axis=0)`` for real rows.

    The same float operations as scipy 1.17 without its array-API dispatch,
    which costs far more than the arithmetic on a few values.  Each
    column's largest term is split off, the rest are shifted by it, summed
    and divided by the count of tied largest terms; where that result is
    not finite, the direct log of the sum of exponentials stands.  scipy's
    sign bookkeeping is left out: with no weights the sum is never
    negative, so it changes no value.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(rows, axis=0)
        is_top = rows == top
        ties = np.sum(is_top, axis=0, dtype=rows.dtype)
        rest = np.sum(np.exp(np.where(is_top, -np.inf, rows) - top), axis=0)
        rest = np.where(rest == 0, rest, rest / ties)
        out = np.log1p(rest) + np.log(ties) + top
        return np.where(np.isfinite(out), out,
                        np.log(np.sum(np.exp(rows), axis=0)))


def _log_gauss_mass(a: float, b: float) -> float:
    """Log of the standard normal mass in [a, b], from the left tail."""
    if a > 0:
        a, b = -b, -a
    if b <= 0:  # log(Phi(b) - Phi(a)) as log(Phi(b) + Phi(a) e^(i pi))
        return np.real(special.logsumexp(
            [special.log_ndtr(b), special.log_ndtr(a) + np.pi * 1j], axis=0))
    return special.log1p(-special.ndtr(a) - special.ndtr(-b))


class World:
    """State of one episode, advanced slot by slot."""

    def __init__(self, cfg: SimConfig, dataset: LabeledBatch, seed: int,
                 phase: str, episode: int):
        self.cfg = cfg
        self.seed = seed
        self.phase = phase
        self.episode = episode
        self.slot = 0
        self._hash = hashlib.sha256()

        shards, rsu_batch, rest = partition(
            dataset, shard_sizes(cfg), cfg.rsu_shard_size,
            substream(seed, "world", phase, episode, "partition"))
        self.rsu_batch = rsu_batch
        self.eval_batch = LabeledBatch(rest.inputs[:cfg.eval_size],
                                       rest.labels[:cfg.eval_size])
        self._rsu_digest = self._batch_digest(rsu_batch)

        pos_rng = substream(seed, "world", phase, episode, "positions")
        self.start_x = pos_rng.uniform(cfg.start_x_min_m, cfg.start_x_max_m,
                                       size=cfg.vehicle_count)
        self.x = self.start_x.copy()
        self.distance, self.cos_bearing = lane_geometry(
            self.x, cfg.lane_offset_m, cfg.rsu_height_m)
        self._compute_rng = substream(seed, "world", phase, episode, "compute")
        self._channel_rngs = [
            substream(seed, "world", phase, episode, "channel", vid)
            for vid in range(cfg.vehicle_count)]
        self.gains = np.array([complex_gaussian(rng)
                               for rng in self._channel_rngs], dtype=complex)

        a = (cfg.compute_min_hz - cfg.compute_mean_hz) / cfg.compute_std_hz
        b = (cfg.compute_max_hz - cfg.compute_mean_hz) / cfg.compute_std_hz
        self._compute_cut = (a, b, _log_gauss_mass(a, b))
        self.compute_hz = self._draw_computes()
        self.shards = [DataShard(shard) for shard in shards]
        for shard in shards:
            self._hash.update(shard.labels.tobytes())
        self._hash.update(rsu_batch.labels.tobytes())
        self._hash.update(self.eval_batch.labels.tobytes())
        self._fold_slot_draws()

    # -- randomness ------------------------------------------------------

    def _draw_computes(self) -> np.ndarray:
        cfg = self.cfg
        draws = _truncnorm_draws(*self._compute_cut, cfg.compute_mean_hz,
                                 cfg.compute_std_hz, cfg.vehicle_count,
                                 self._compute_rng)
        if cfg.bad_vehicle >= 0:
            # a scaled truncated normal is again truncated normal, so the
            # weak vehicle's CPU keeps the divided statistics exactly
            draws[cfg.bad_vehicle] /= cfg.bad_compute_divisor
        return draws

    def train_rng(self, vid: int) -> np.random.Generator:
        """Minibatch shuffling stream, fresh per (slot, vehicle)."""
        return substream(self.seed, "train", self.phase, self.episode,
                         self.slot, vid)

    def rsu_train_rng(self) -> np.random.Generator:
        return substream(self.seed, "train", self.phase, self.episode,
                         self.slot, "rsu")

    def degrade_rng(self, vid: int) -> np.random.Generator:
        return substream(self.seed, "degrade", self.phase, self.episode,
                         self.slot, vid)

    # -- geometry and channel ---------------------------------------------

    def advance(self) -> None:
        """Move one slot: positions, fading and CPU draws all refresh.

        Each gain steps at the fading correlation of the Doppler shift
        along its vehicle's bearing to the antenna."""
        cfg = self.cfg
        self.slot += 1
        self.x = advance_position(self.start_x, cfg.speed_mps, self.slot,
                                  cfg.slot_seconds)
        self.distance, self.cos_bearing = lane_geometry(
            self.x, cfg.lane_offset_m, cfg.rsu_height_m)
        for vid, cos_theta in enumerate(self.cos_bearing.tolist()):
            rho = channel_correlation(
                doppler_freq(cfg.speed_mps, cfg.wavelength_m, cos_theta),
                cfg.slot_seconds)
            self.gains[vid] = evolve_gain(
                complex(self.gains[vid]), rho,
                complex_gaussian(self._channel_rngs[vid]))
        self.compute_hz = self._draw_computes()
        self._fold_slot_draws()

    def rates(self) -> np.ndarray:
        return np.array([transmission_rate(self.cfg, gain, dist)
                         for gain, dist in zip(self.gains.tolist(),
                                               self.distance.tolist())])

    def computes(self) -> np.ndarray:
        return self.compute_hz

    def positions(self) -> np.ndarray:
        return self.x

    def data_counts(self) -> np.ndarray:
        return np.array([len(shard.batch) for shard in self.shards])

    # -- data views ---------------------------------------------------------

    def set_attacks(self, attacked_ids, kind: str) -> None:
        """Make this episode's tampered copies, once, by
        ``data.ATTACKS[kind]``; ``"none"`` or no ids changes nothing."""
        if kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {kind!r}")
        if kind == "none" or not attacked_ids:
            return
        for vid in attacked_ids:
            self.shards[vid].tampered = ATTACKS[kind](self.shards[vid].batch)
        self._hash.update(("attack:" + kind + ":"
                           + ",".join(str(v) for v in sorted(attacked_ids)))
                          .encode())

    def training_batch(self, vid: int) -> LabeledBatch:
        """What the vehicle trains on this slot: its tampered copy, if any,
        but the clean shard on odd slots when tampering is transient."""
        if not self.cfg.attack_persistent and self.slot % 2 == 1:
            return self.shards[vid].batch
        return self.shards[vid].training_view()

    def rsu_batch_intact(self) -> bool:
        """Trusted shard must never pass through an attack path."""
        return self._batch_digest(self.rsu_batch) == self._rsu_digest

    @staticmethod
    def _batch_digest(batch: LabeledBatch) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(batch.inputs).tobytes())
        h.update(np.ascontiguousarray(batch.labels).tobytes())
        return h.hexdigest()

    # -- realisation digest ---------------------------------------------------

    def _fold_slot_draws(self) -> None:
        for draws in (self.x, self.gains, self.compute_hz):
            self._hash.update(draws.tobytes())

    def digest(self) -> str:
        """Hash of everything the environment has drawn so far."""
        return self._hash.hexdigest()
