"""Per-episode simulation state: vehicles, their shards, channels, CPUs.

Every random quantity is drawn from a named substream of the run seed, and
the environment streams (partition, positions, fading, compute draws) are
kept apart from the training streams.  Two runs with the same seed therefore
see identical roads, channels and data *no matter which vehicles they
select*, which is what makes scheme comparisons paired.

The realisation digest folds in everything the environment draws, so tests
can assert that two schemes really did face the same world.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import (ChannelState, LinkBudget, Position3, advance_position,
                      channel_correlation, complex_gaussian,
                      cos_bearing_angle, distance_to_antenna, doppler_freq,
                      evolve_channel, transmission_rate)
from .config import SAMPLE_BUDGET, SimConfig, samples_needed
from .data import DataShard, LabeledBatch, partition, synthetic_blobs, load_csv
from .rng import substream


@dataclass
class VehicleSim:
    vid: int
    start_x: float
    x: float
    channel: ChannelState
    compute_hz: float
    shard: DataShard
    bad: bool


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


def _truncnorm_draws(a: float, b: float, loc: float, scale: float,
                     size: int, rng: np.random.Generator) -> np.ndarray:
    """Truncated normal draws: N(loc, scale^2) cut to loc + [a, b] * scale.

    Runs the float operations of ``scipy.stats.truncnorm.rvs(a, b,
    loc=loc, scale=scale, size=size, random_state=rng)`` (scipy 1.17), so
    the draws and the generator state after them equal scipy's, on
    ``scipy.special`` alone: importing ``scipy.stats`` costs about a second
    of start-up.  Each uniform goes through the quantile function in log
    space, worked in the left tail and mirrored when a >= 0.
    """
    if not (a < b and scale > 0):
        raise ValueError("truncated normal needs a < b and scale > 0")
    q = rng.uniform(size=size)
    if a < 0:
        log_tail, log_q = special.log_ndtr(a), np.log(q)
    else:  # minus the draw from [-b, -a] at 1 - q
        log_tail, log_q = special.log_ndtr(-b), np.log1p(-q)
    log_cdf = _logsumexp_rows(   # log(tail + q * mass)
        np.stack(np.broadcast_arrays(log_tail, log_q + _log_gauss_mass(a, b))))
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
        self.antenna = Position3(0.0, 0.0, cfg.rsu_height_m)
        self.link = LinkBudget(cfg.bandwidth_hz, cfg.tx_power_w,
                               cfg.noise_power_w, cfg.path_loss_exp)
        self._hash = hashlib.sha256()

        sizes = [cfg.shard_size] * cfg.vehicle_count
        if cfg.bad_vehicle >= 0:
            sizes[cfg.bad_vehicle] = max(1, cfg.shard_size
                                         // cfg.bad_shard_divisor)
        shards, rsu_batch, rest = partition(
            dataset, sizes, cfg.rsu_shard_size,
            substream(seed, "world", phase, episode, "partition"))
        self.rsu_batch = rsu_batch
        self.eval_batch = LabeledBatch(rest.inputs[:cfg.eval_size],
                                       rest.labels[:cfg.eval_size])
        self._rsu_digest = self._batch_digest(rsu_batch)

        pos_rng = substream(seed, "world", phase, episode, "positions")
        starts = pos_rng.uniform(cfg.start_x_min_m, cfg.start_x_max_m,
                                 size=cfg.vehicle_count)
        self._compute_rng = substream(seed, "world", phase, episode, "compute")
        self._channel_rngs = [
            substream(seed, "world", phase, episode, "channel", vid)
            for vid in range(cfg.vehicle_count)]

        computes = self._draw_computes()
        self.vehicles = []
        for vid in range(cfg.vehicle_count):
            x = float(starts[vid])
            state = ChannelState(complex_gaussian(self._channel_rngs[vid]),
                                 self._rho_at(x))
            self.vehicles.append(VehicleSim(vid, x, x, state,
                                            float(computes[vid]),
                                            DataShard(shards[vid]),
                                            vid == cfg.bad_vehicle))
            self._hash.update(shards[vid].labels.tobytes())
        self._hash.update(rsu_batch.labels.tobytes())
        self._hash.update(self.eval_batch.labels.tobytes())
        self._fold_slot_draws()

    # -- randomness ------------------------------------------------------

    def _draw_computes(self) -> np.ndarray:
        cfg = self.cfg
        a = (cfg.compute_min_hz - cfg.compute_mean_hz) / cfg.compute_std_hz
        b = (cfg.compute_max_hz - cfg.compute_mean_hz) / cfg.compute_std_hz
        draws = _truncnorm_draws(a, b, cfg.compute_mean_hz,
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

    def _vehicle_position(self, x: float) -> Position3:
        return Position3(x, self.cfg.lane_offset_m, 0.0)

    def _rho_at(self, x: float) -> float:
        """Slot-to-slot fading correlation at ``x``, from the Doppler shift
        along the bearing to the antenna."""
        cos_theta = cos_bearing_angle(self._vehicle_position(x), self.antenna)
        doppler = doppler_freq(self.cfg.speed_mps, self.cfg.wavelength_m,
                               cos_theta)
        return channel_correlation(doppler, self.cfg.slot_seconds)

    def advance(self) -> None:
        """Move one slot: positions, fading and CPU draws all refresh."""
        self.slot += 1
        for veh in self.vehicles:
            veh.x = advance_position(veh.start_x, self.cfg.speed_mps,
                                     self.slot, self.cfg.slot_seconds)
            veh.channel = evolve_channel(
                ChannelState(veh.channel.gain, self._rho_at(veh.x)),
                complex_gaussian(self._channel_rngs[veh.vid]))
        computes = self._draw_computes()
        for veh, mu in zip(self.vehicles, computes):
            veh.compute_hz = float(mu)
        self._fold_slot_draws()

    def rates(self) -> np.ndarray:
        out = np.empty(self.cfg.vehicle_count)
        for veh in self.vehicles:
            dist = distance_to_antenna(self._vehicle_position(veh.x),
                                       self.antenna)
            out[veh.vid] = transmission_rate(self.link, veh.channel.gain,
                                             dist)
        return out

    def computes(self) -> np.ndarray:
        return np.array([v.compute_hz for v in self.vehicles])

    def positions(self) -> np.ndarray:
        return np.array([v.x for v in self.vehicles])

    def data_counts(self) -> np.ndarray:
        return np.array([len(v.shard.batch) for v in self.vehicles])

    # -- data views ---------------------------------------------------------

    def set_attacks(self, attacked_ids, kind: str) -> None:
        for vid in attacked_ids:
            self.vehicles[vid].shard.attack = kind
            self.vehicles[vid].shard.attacked = None
        self._hash.update(("attack:" + kind + ":"
                           + ",".join(str(v) for v in sorted(attacked_ids)))
                          .encode())

    def training_batch(self, vid: int) -> LabeledBatch:
        """What the vehicle trains on this slot, tampering included."""
        shard = self.vehicles[vid].shard
        if shard.attack != "none" and not self.cfg.attack_persistent \
                and self.slot % 2 == 1:
            return shard.batch  # transient tampering skips odd slots
        return shard.training_view()

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
        self._hash.update(np.array([v.x for v in self.vehicles]).tobytes())
        gains = np.array([v.channel.gain for v in self.vehicles],
                         dtype=complex)
        self._hash.update(gains.tobytes())
        self._hash.update(self.computes().tobytes())

    def digest(self) -> str:
        """Hash of everything the environment has drawn so far."""
        return self._hash.hexdigest()
