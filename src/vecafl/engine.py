"""Asynchronous aggregation at the roadside unit.

Each slot the selected vehicles download the current global model, run a
few local SGD passes, and upload staleness-weighted parameters that the
roadside unit folds in one by one in arrival order.  A trusted model
trained on the unit's own clean shard supplies the loss threshold that
screens tampered uploads before they reach the global model.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .data import degrade_bad_node
from .model import (ModelParams, cross_entropy, evaluate, init_params,
                    params_combine, params_copy, params_mean, params_scale,
                    train_cohort)
from .rng import substream
from .world import World


class TrustedShardError(RuntimeError):
    """The roadside unit's clean shard no longer matches its digest."""


class FilterSoundnessError(RuntimeError):
    """An upload passed the filter with a loss above the limit."""


@dataclass
class Upload:
    vehicle_id: int
    weighted_model: ModelParams
    local_loss: float
    t_local: float
    t_upload: float

    @property
    def arrival(self) -> float:
        return self.t_local + self.t_upload


@dataclass
class GlobalModel:
    params: ModelParams
    update_count: int = 0


@dataclass
class SlotResult:
    """Everything one aggregation round produced, for metrics and audits."""

    avg_loss: float
    reported: dict                 # vid -> loss the vehicle announced
    delays: dict                   # vid -> (t_local, t_upload)
    accepted_ids: list
    rejected_ids: list
    skipped_ids: list              # zero uplink rate, never arrived
    trusted_loss: float            # None when no trusted model is kept
    mean_delay: float
    filter_calls: int
    accept_audit: list = field(default_factory=list)  # (vid, loss, limit)
    stale_weights: dict = field(default_factory=dict)  # vid -> (w_lt, w_ct)
    reject_reasons: dict = field(default_factory=dict)  # vid -> why rejected


NONFINITE = "nonfinite"     # a NaN or inf announced loss or parameter
LOSS_LIMIT = "loss_limit"   # announced loss above the filter's limit


def finite_upload(params: ModelParams, loss: float) -> bool:
    """True when the announced loss and every parameter are finite."""
    return math.isfinite(loss) and all(
        np.isfinite(a).all()
        for a in params.layer_weights + params.layer_biases)


def _slot_means(reported: dict, delays: dict, pool, arrived):
    """Mean announced loss over ``pool`` and mean delay over ``arrived``;
    nan when empty."""
    avg_loss = float(np.mean([reported[v] for v in pool])) if pool \
        else math.nan
    mean_delay = float(np.mean([delays[v][0] + delays[v][1]
                                for v in arrived])) if arrived else math.nan
    return avg_loss, mean_delay


def local_delay(data_count: int, cycles_per_sample: float,
                compute_hz: float) -> float:
    """Seconds of local training: samples * cycles each / CPU frequency."""
    if compute_hz <= 0.0:
        raise ValueError("compute_hz must be positive")
    if data_count < 0 or cycles_per_sample < 0:
        raise ValueError("sample count and cycle cost must be nonnegative")
    return data_count * cycles_per_sample / compute_hz

def upload_delay(model_bits: int, rate_bps: float) -> float:
    """Seconds on air for the fixed payload; inf when the link gives 0 b/s."""
    if model_bits <= 0:
        raise ValueError("model_bits must be positive")
    if rate_bps <= 0.0:
        return math.inf
    return model_bits / rate_bps


def staleness_weight(base: float, delay_s: float) -> float:
    """base ** (delay - 0.5): above one for fresh uploads, decaying beyond.

    With base in (0,1) the weight is bounded by base**(-0.5) no matter how
    small the delay, and falls monotonically as the delay grows.
    """
    if not 0.0 < base < 1.0:
        raise ValueError("staleness base must lie strictly between 0 and 1")
    if delay_s < 0.0:
        raise ValueError("delay must be nonnegative")
    return base ** (delay_s - 0.5)


def weighted_upload(params: ModelParams, local_weight: float,
                    upload_weight: float) -> ModelParams:
    """Scale trained parameters by both staleness weights before upload."""
    return params_scale(params, local_weight * upload_weight)


def global_update(global_model: GlobalModel, weighted: ModelParams,
                  mix: float) -> GlobalModel:
    """Fold one upload into the global model, keeping ``mix`` of the old."""
    if not 0.0 < mix < 1.0:
        raise ValueError("mix must lie strictly between 0 and 1")
    global_model.params = params_combine(mix, global_model.params,
                                         1.0 - mix, weighted)
    global_model.update_count += 1
    return global_model


def threshold_accept(local_loss: float, trusted_loss: float,
                     ratio: float) -> bool:
    """Accept an upload whose loss is within ``ratio`` of the trusted loss.

    The boundary case counts as acceptable.
    """
    if ratio <= 0.0:
        raise ValueError("ratio must be positive")
    if trusted_loss < 0.0 or local_loss < 0.0:
        raise ValueError("losses are nonnegative by construction")
    return local_loss <= ratio * trusted_loss


def _local_updates(world: World, vids, snapshot: ModelParams,
                   cfg: SimConfig, trusted_model: GlobalModel = None):
    """Local SGD of the vehicles ``vids`` from ``snapshot`` in one cohort.

    A kept trusted model trains in the same cohort on the roadside shard,
    from its own parameters, and is updated in place.  Returns one
    (vid, params, announced loss, t_local, t_upload) per vehicle and the
    trusted loss (None without a trusted model).  A degraded vehicle's
    upload is corrupted on the way out, and the loss it announces is the
    loss of what actually gets sent.
    """
    rates = world.rates()
    counts = world.data_counts()
    shards = [world.training_batch(vid) for vid in vids]
    starts = [snapshot] * len(vids)
    rngs = [world.train_rng(vid) for vid in vids]
    if trusted_model is not None:
        starts.append(trusted_model.params)
        shards.append(world.rsu_batch)
        rngs.append(world.rsu_train_rng())
    trained = train_cohort(starts, shards, rngs, cfg.local_rounds,
                           cfg.local_lr, cfg.local_batch)
    trusted_loss = None
    if trusted_model is not None:
        trusted_model.params, trusted_loss = trained.pop()
    updates = []
    for vid, batch, (params, loss) in zip(vids, shards, trained):
        veh = world.vehicles[vid]
        if veh.bad:
            params = degrade_bad_node(params, cfg.bad_noise_scale,
                                      world.degrade_rng(vid))
            loss = cross_entropy(params, batch)
        updates.append((vid, params, loss,
                        local_delay(int(counts[vid]), cfg.cycles_per_sample,
                                    veh.compute_hz),
                        upload_delay(cfg.model_bits, float(rates[vid]))))
    return updates, trusted_loss


def run_afl_slot(world: World, selected_ids, global_model: GlobalModel,
                 trusted_model: GlobalModel, cfg: SimConfig, *,
                 defense_on: bool, lt_weight_on: bool = True,
                 ct_weight_on: bool = True) -> SlotResult:
    """One asynchronous round over the selected vehicles.

    All selected vehicles start from the global model as it stood at the
    head of the slot; their weighted uploads are applied sequentially in
    arrival order with id as the tie-break.  When ``defense_on``, each
    upload must pass the trusted-loss threshold before it touches the
    global model (a trusted model is then required).  An upload with a
    non-finite loss or parameter is rejected either way, and the slot's
    mean loss and delay leave it out.
    """
    if defense_on and trusted_model is None:
        raise ValueError("defense needs a trusted model")
    if not world.rsu_batch_intact():
        raise TrustedShardError("trusted shard was tampered with")

    uploads, reported, delays, skipped, stale = [], {}, {}, [], {}
    updates, trusted_loss = _local_updates(
        world, sorted(int(v) for v in selected_ids), global_model.params,
        cfg, trusted_model)
    for vid, params, loss, t_l, t_u in updates:
        delays[vid] = (t_l, t_u)
        if not math.isfinite(t_u):
            skipped.append(vid)
            continue
        reported[vid] = loss
        w_lt = staleness_weight(cfg.stale_base_local, t_l) \
            if lt_weight_on else 1.0
        w_ct = staleness_weight(cfg.stale_base_upload, t_u) \
            if ct_weight_on else 1.0
        stale[vid] = (w_lt, w_ct)
        uploads.append(Upload(vid, weighted_upload(params, w_lt, w_ct),
                              loss, t_l, t_u))

    accepted, rejected, audit, reasons = [], [], [], {}
    filter_calls = 0
    for up in sorted(uploads, key=lambda u: (u.arrival, u.vehicle_id)):
        if not finite_upload(up.weighted_model, up.local_loss):
            rejected.append(up.vehicle_id)
            reasons[up.vehicle_id] = NONFINITE
            continue
        if defense_on:
            filter_calls += 1
            if not threshold_accept(up.local_loss, trusted_loss,
                                    cfg.loss_ratio_limit):
                rejected.append(up.vehicle_id)
                reasons[up.vehicle_id] = LOSS_LIMIT
                continue
            limit = cfg.loss_ratio_limit * trusted_loss
            if not up.local_loss <= limit:
                raise FilterSoundnessError(
                    f"vehicle {up.vehicle_id} accepted with loss "
                    f"{up.local_loss!r} over the limit {limit!r}")
            audit.append((up.vehicle_id, up.local_loss, limit))
        global_update(global_model, up.weighted_model, cfg.agg_mix)
        accepted.append(up.vehicle_id)

    finite = [v for v in sorted(reported) if reasons.get(v) != NONFINITE]
    avg_loss, mean_delay = _slot_means(
        reported, delays,
        accepted if cfg.loss_avg_accepted_only else finite, finite)
    return SlotResult(avg_loss, reported, delays, accepted, rejected,
                      skipped, trusted_loss, mean_delay, filter_calls, audit,
                      stale, reject_reasons=reasons)


def sync_round(world: World, global_model: GlobalModel,
               cfg: SimConfig) -> SlotResult:
    """Synchronous baseline: wait for every vehicle, average equally.

    No selection, no staleness weighting, no screening beyond dropping
    uploads with a non-finite loss or parameter; one global step per slot
    once the slowest upload is in.
    """
    models, reported, delays, skipped, reasons = [], {}, {}, [], {}
    updates, _ = _local_updates(world, [veh.vid for veh in world.vehicles],
                                global_model.params, cfg)
    for vid, params, loss, t_l, t_u in updates:
        delays[vid] = (t_l, t_u)
        if not math.isfinite(t_u):
            skipped.append(vid)
            continue
        reported[vid] = loss
        if not finite_upload(params, loss):
            reasons[vid] = NONFINITE
            continue
        models.append(params)
    if models:
        global_model.params = params_mean(models)
        global_model.update_count += len(models)
    folded = [v for v in sorted(reported) if v not in reasons]
    avg_loss, mean_delay = _slot_means(reported, delays, folded, folded)
    return SlotResult(avg_loss, reported, delays, folded, sorted(reasons),
                      skipped, None, mean_delay, 0, reject_reasons=reasons)


# ---------------------------------------------------------------------------
# deployment loop shared by the learned policy and the baselines


@dataclass
class PhaseRecord:
    episode: int
    slot: int
    avg_loss: float
    accuracy: float
    error_rate: float
    reward: float
    accepted_count: int
    mean_delay: float
    attacked_fraction: float


@dataclass
class PhaseResult:
    records: list
    admissions: np.ndarray        # per-vehicle count of admitted slots
    total_slots: int
    global_model: GlobalModel
    trusted_model: GlobalModel
    digests: list                 # one realisation digest per episode
    slot_results: list


def run_phase(cfg: SimConfig, dataset, seed: int, phase: str, episodes: int,
              select_fn, reward_fn=None, *, aggregator: str = "afl",
              defense_on: bool = True, lt_weight_on: bool = True,
              ct_weight_on: bool = True, attack_kind: str = "none",
              attacked_ids=()) -> PhaseResult:
    """Run ``episodes`` deployment episodes against one shared global model.

    The world (positions, channels, data assignment) restarts every episode
    while the global and trusted models keep training across the whole
    phase.  ``select_fn(world, prev_action) -> (weights, mask)`` picks the
    uploaders each slot; ``reward_fn(weights, mask, slot_result)`` is only
    used for logging here.
    """
    k = cfg.vehicle_count
    init_rng = substream(seed, "global-init", phase)
    global_model = GlobalModel(init_params(cfg.classifier_arch, init_rng))
    trusted_model = GlobalModel(params_copy(global_model.params)) \
        if defense_on else None

    records, digests, slot_results = [], [], []
    admissions = np.zeros(k)
    frac = len(attacked_ids) / k
    for episode in range(1, episodes + 1):
        world = World(cfg, dataset, seed, phase, episode)
        if attack_kind != "none" and attacked_ids:
            world.set_attacks(attacked_ids, attack_kind)
        prev_action = np.ones(k)
        for slot in range(1, cfg.slots_per_episode + 1):
            weights, mask = select_fn(world, prev_action)
            if aggregator == "sync":
                res = sync_round(world, global_model, cfg)
            else:
                res = run_afl_slot(world, np.flatnonzero(mask),
                                   global_model, trusted_model, cfg,
                                   defense_on=defense_on,
                                   lt_weight_on=lt_weight_on,
                                   ct_weight_on=ct_weight_on)
            reward = reward_fn(weights, mask, res) if reward_fn else math.nan
            acc, err = evaluate(global_model.params, world.eval_batch)
            records.append(PhaseRecord(episode, slot, res.avg_loss, acc, err,
                                       reward, len(res.accepted_ids),
                                       res.mean_delay, frac))
            slot_results.append(res)
            admissions += mask
            prev_action = weights
            world.advance()
        digests.append(world.digest())
    return PhaseResult(records, admissions,
                       episodes * cfg.slots_per_episode, global_model,
                       trusted_model, digests, slot_results)
