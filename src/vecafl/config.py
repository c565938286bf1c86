"""Run configuration: defaults, flat-file parsing and validation.

Config files are plain ``key = value`` lines ('#' starts a comment).
Unknown keys are rejected rather than ignored so a typo cannot silently
fall back to a default, and every validation error names the key it is
complaining about.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .data import ATTACK_KINDS, NUM_CLASSES


class ConfigError(ValueError):
    pass


@dataclass
class SimConfig:
    # --- road geometry and mobility -------------------------------------
    vehicle_count: int = 5          # K, vehicles in coverage
    speed_mps: float = 20.0         # v, constant lane speed
    slot_seconds: float = 0.5       # time slot length
    rsu_height_m: float = 10.0      # H_R, antenna height above the road
    lane_offset_m: float = 5.0      # d_y, lateral lane-antenna distance
    coverage_radius_m: float = 500.0
    start_x_min_m: float = -400.0   # initial lane coordinates drawn
    start_x_max_m: float = 100.0    # uniformly from [min, max]

    # --- uplink radio ----------------------------------------------------
    wavelength_m: float = 7.0       # carrier wavelength as configured;
                                    # unusually long for a vehicular band
    bandwidth_hz: float = 1000.0    # B
    tx_power_w: float = 0.25        # p0, vehicle transmit power
    noise_power_w: float = 1e-12    # receiver noise over the band
    path_loss_exp: float = 2.0      # alpha
    model_bits: int = 5000          # fixed upload payload size, bits

    # --- local compute ---------------------------------------------------
    cycles_per_sample: float = 1e6  # C0, CPU cycles per training sample
    compute_mean_hz: float = 2e9    # truncated-normal CPU frequency draw,
    compute_std_hz: float = 5e8     # refreshed every slot
    compute_min_hz: float = 1e9
    compute_max_hz: float = 3e9

    # --- data ------------------------------------------------------------
    dataset_path: str = ""          # CSV of label,f1..fd; empty = synthetic
    dataset_size: int = 6000        # synthetic sample count; unused with a CSV
    feature_dim: int = 64
    blob_spread: float = 0.30       # synthetic cluster standard deviation
    shard_size: int = 1000          # per-vehicle samples; ~0.5 s local delay at mean compute
    rsu_shard_size: int = 600       # trusted shard, smaller than a vehicle's
    eval_size: int = 300            # clean held-out pool

    # --- degraded vehicle and tampering ----------------------------------
    bad_vehicle: int = 4            # id of the failing vehicle, -1 for none
    bad_shard_divisor: int = 4      # bad node holds 1/4 of a normal shard
    bad_compute_divisor: int = 4    # and 1/4 of the normal CPU statistics
    bad_noise_scale: float = 0.5    # stddev of additive upload corruption
    attack: str = "none"            # none | class_flip | data_flip
    attacked_vehicles: tuple = ()   # explicit ids; empty = picked from the
                                    # admitted set at deployment time
    attack_persistent: bool = True  # False tampers on even slots only

    # --- local training and aggregation ----------------------------------
    classifier_arch: tuple = (64, 32, 10)
    local_lr: float = 0.005         # eta
    local_rounds: int = 5           # L, full passes per slot
    local_batch: int = 32
    agg_mix: float = 0.7            # beta, weight kept on the old global
    stale_base_local: float = 0.9   # M1, base of the training-delay weight
    stale_base_upload: float = 0.9  # M2, base of the upload-delay weight
    loss_ratio_limit: float = 1.25  # uploads above this multiple of the
                                    # trusted loss are dropped
    loss_avg_accepted_only: bool = False  # slot loss over accepted uploads
                                          # only instead of all trained ones

    # --- selector agent ---------------------------------------------------
    hidden1: int = 400              # widths of the two hidden layers
    hidden2: int = 300
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    discount: float = 0.99          # gamma
    soft_tau: float = 0.001         # target-network tracking rate
    replay_capacity: int = 100000
    replay_batch: int = 64          # I
    ou_decay: float = 0.15          # exploration-noise mean reversion
    ou_variance: float = 0.02       # exploration-noise innovation variance
    action_floor: float = 0.01      # lower clip on the selection weights
    loss_weight: float = 1.0        # W1, loss term in the reward
    delay_weight: float = 1.0       # W2, delay term in the reward
    rate_norm_mult: float = 40.0    # rates enter the nets as R/(mult*B)

    # --- episode schedule --------------------------------------------------
    train_episodes: int = 1000      # E_m
    test_episodes: int = 3          # E_m'
    slots_per_episode: int = 20     # N


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_BOOL_TEXT = {**dict.fromkeys(("true", "yes", "1"), True),
              **dict.fromkeys(("false", "no", "0"), False)}


class _Type(NamedTuple):
    read: Callable      # line text -> value; ValueError, KeyError if bad
    write: Callable     # value -> its config line's text
    holds: Callable     # may a key of this type hold the value?
    what: str           # the values it holds, for the error message


# one row per value type; a key holds the values that its config line reads
# back as equal, under the same hash: numpy integers count as integers, and
# a float key takes an integer that a float holds exactly
_TYPES = {
    int: _Type(int, str, _is_int, "an integer"),
    float: _Type(float, lambda v: repr(float(v)),
                 lambda v: isinstance(v, float)
                 or _is_int(v) and abs(v) <= 2 ** 53,
                 "a float or an integer of at most 2**53"),
    bool: _Type(lambda t: _BOOL_TEXT[t.lower()],
                lambda v: "true" if v else "false",
                lambda v: isinstance(v, bool), "true or false"),
    tuple: _Type(lambda t: tuple(int(p) for p in t.split(",")) if t else (),
                 lambda v: ",".join(str(n) for n in v),
                 lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
                 "a tuple of integers"),
    str: _Type(str, str, lambda v: isinstance(v, str), "a string"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def load_config(path) -> SimConfig:
    """Defaults overridden by the file; rejects unknown, repeated or
    invalid keys."""
    overrides, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', "
                                  f"got {stripped!r}")
            key, _, text = (part.strip() for part in stripped.partition("="))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key '{key}'")
            if key in lines:
                raise ConfigError(f"config key '{key}' set twice, on lines "
                                  f"{lines[key]} and {lineno}")
            lines[key] = lineno
            try:
                overrides[key] = _TYPES[_FIELD_TYPES[key]].read(text)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad value for key '{key}': {text!r}") \
                    from exc
    cfg = SimConfig(**overrides)
    validate_config(cfg)
    return cfg


def save_config(cfg: SimConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(cfg))


def canonical_text(cfg: SimConfig) -> str:
    lines = [f"{key} = {_TYPES[ftype].write(getattr(cfg, key))}"
             for key, ftype in _FIELD_TYPES.items()]
    return "\n".join(lines) + "\n"


def config_hash(cfg: SimConfig) -> str:
    """Short digest identifying the exact configuration of a run."""
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:12]


def _require(ok: bool, key: str, why: str) -> None:
    if not ok:
        raise ConfigError(f"config key '{key}': {why}")


# the budget that samples_needed states, spelled as the keys
SAMPLE_BUDGET = ("the vehicle shards (shard_size each, bad_vehicle's cut to "
                 "shard_size // bad_shard_divisor) + rsu_shard_size "
                 "+ eval_size")


def _bad_shard_size(cfg: SimConfig) -> int:
    """The degraded vehicle's rows: ``shard_size`` divided by
    ``bad_shard_divisor``, at least one."""
    return max(1, cfg.shard_size // cfg.bad_shard_divisor)


def shard_sizes(cfg: SimConfig) -> list:
    """Rows of each vehicle's shard: ``shard_size``, but the degraded
    vehicle's is ``_bad_shard_size``."""
    sizes = [cfg.shard_size] * cfg.vehicle_count
    if cfg.bad_vehicle >= 0:
        sizes[cfg.bad_vehicle] = _bad_shard_size(cfg)
    return sizes


def samples_needed(cfg: SimConfig) -> int:
    """Dataset rows the vehicle shards, trusted shard and eval pool take.

    The sum of ``shard_sizes``, counted without listing a shard per
    vehicle, so that validating a huge ``vehicle_count`` allocates nothing.
    """
    vehicles = cfg.shard_size * cfg.vehicle_count
    if cfg.bad_vehicle >= 0:
        vehicles += _bad_shard_size(cfg) - cfg.shard_size
    return vehicles + cfg.rsu_shard_size + cfg.eval_size


def validate_config(cfg: SimConfig) -> SimConfig:
    for key, ftype in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        kind = _TYPES[ftype]
        _require(kind.holds(value), key, f"must be {kind.what}, got {value!r}")
        if ftype is float:
            _require(math.isfinite(value), key, "must be finite")

    positive = ("vehicle_count", "model_bits", "dataset_size", "feature_dim",
                "shard_size", "rsu_shard_size", "eval_size", "local_rounds",
                "local_batch", "hidden1", "hidden2", "replay_capacity",
                "replay_batch", "train_episodes", "test_episodes",
                "slots_per_episode", "bad_shard_divisor",
                "bad_compute_divisor", "slot_seconds", "rsu_height_m",
                "coverage_radius_m", "wavelength_m", "bandwidth_hz",
                "tx_power_w", "noise_power_w", "cycles_per_sample",
                "compute_mean_hz", "compute_std_hz", "compute_min_hz",
                "compute_max_hz", "blob_spread", "rate_norm_mult",
                "loss_ratio_limit", "ou_variance")
    for key in positive:
        _require(getattr(cfg, key) > 0, key, "must be positive")

    nonnegative = ("speed_mps", "lane_offset_m", "bad_noise_scale",
                   "local_lr", "actor_lr", "critic_lr", "loss_weight",
                   "delay_weight")
    for key in nonnegative:
        _require(getattr(cfg, key) >= 0.0, key, "must be nonnegative")

    for key in ("agg_mix", "stale_base_local", "stale_base_upload",
                "discount"):
        _require(0.0 < getattr(cfg, key) < 1.0, key,
                 "must lie strictly between 0 and 1")
    _require(0.0 < cfg.soft_tau <= 0.1, "soft_tau",
             "must lie in (0, 0.1]; target tracking has to be slow")
    _require(0.0 < cfg.ou_decay <= 1.0, "ou_decay", "must lie in (0, 1]")

    # a positive floor keeps the selection weights' sum, which the slot
    # reward divides by, above zero
    _require(0.0 < cfg.action_floor < 0.5, "action_floor",
             "must lie in (0, 0.5)")
    path = cfg.dataset_path
    _require(not any(c in path for c in "#\n\r") and path == path.strip(),
             "dataset_path", "must not hold '#' or a line break, nor start "
             "or end with whitespace, which a config file cannot carry")
    _require(cfg.attack in ATTACK_KINDS, "attack",
             f"must be one of {ATTACK_KINDS}")
    _require(cfg.bad_vehicle == -1
             or 0 <= cfg.bad_vehicle < cfg.vehicle_count,
             "bad_vehicle", "must be -1 or a valid vehicle id")
    _require(len(set(cfg.attacked_vehicles)) == len(cfg.attacked_vehicles),
             "attacked_vehicles", "ids must be distinct")
    for vid in cfg.attacked_vehicles:
        _require(0 <= vid < cfg.vehicle_count, "attacked_vehicles",
                 f"id {vid} outside 0..{cfg.vehicle_count - 1}")

    _require(cfg.compute_min_hz <= cfg.compute_mean_hz <= cfg.compute_max_hz,
             "compute_mean_hz", "must lie between compute_min_hz and "
             "compute_max_hz")
    _require(cfg.compute_min_hz < cfg.compute_max_hz, "compute_min_hz",
             "must be below compute_max_hz")

    arch = cfg.classifier_arch
    _require(len(arch) >= 2 and all(n >= 1 for n in arch),
             "classifier_arch", "needs at least two positive layer sizes")
    _require(arch[0] == cfg.feature_dim, "classifier_arch",
             f"input width {arch[0]} must equal feature_dim")
    _require(arch[-1] == NUM_CLASSES, "classifier_arch",
             f"output width must be {NUM_CLASSES}")

    # dataset_size sizes only the synthetic blobs; build_dataset checks a
    # CSV's row count against the same budget and names the file
    budget = samples_needed(cfg)
    _require(cfg.dataset_path or budget <= cfg.dataset_size, "dataset_size",
             f"needs at least {budget} samples for the configured shards "
             f"({SAMPLE_BUDGET})")

    _require(cfg.start_x_min_m < cfg.start_x_max_m, "start_x_min_m",
             "must be below start_x_max_m")
    reach = cfg.start_x_max_m + cfg.speed_mps * cfg.slots_per_episode \
        * cfg.slot_seconds
    _require(abs(cfg.start_x_min_m) <= cfg.coverage_radius_m
             and abs(reach) <= cfg.coverage_radius_m,
             "coverage_radius_m", "episode trajectories must stay inside "
             "the coverage radius")

    _require(cfg.replay_batch < cfg.replay_capacity, "replay_batch",
             "must be below replay_capacity")
    _require(cfg.local_batch <= cfg.shard_size, "local_batch",
             "cannot exceed shard_size")
    return cfg
