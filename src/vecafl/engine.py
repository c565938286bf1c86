"""Asynchronous aggregation at the roadside unit.

Each slot the selected vehicles download the current global model, run a
few local SGD passes, and upload staleness-weighted parameters that the
roadside unit folds in one by one in arrival order.  A trusted model
trained on the unit's own clean shard supplies the loss threshold that
screens tampered uploads before they reach the global model.
``run_phase`` is the one episode and slot loop, for training and
deployment alike.
"""

import copy
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import SimConfig, validate_config
from .data import degrade_bad_node
from .model import (ModelParams, cross_entropy, evaluate, init_params,
                    params_combine, params_copy, params_mean, params_scale,
                    train_cohort)
from .rng import substream
from .world import World


class Scheme(NamedTuple):
    """What one named scheme does, from the CLI to the slot loop."""

    learned: bool   # a trained DDPG policy selects; else everyone uploads
    defense: bool   # a trusted model screens uploads by announced loss
    lt: bool        # uploads weighted by their local-training delay
    ct: bool        # uploads weighted by their upload delay
    sync: bool      # one mean of every vehicle per slot, not async folds


SCHEMES = {
    "ddafl": Scheme(True, True, True, True, False),
    "ddafl_no_defense": Scheme(True, False, True, True, False),
    "ddafl_no_lt": Scheme(True, True, False, True, False),
    "ddafl_no_ct": Scheme(True, True, True, False, False),
    "plain_afl": Scheme(False, False, False, False, False),
    "sync_fl": Scheme(False, False, False, False, True),
}


class TrustedShardError(RuntimeError):
    """The roadside unit's clean shard no longer matches its digest."""


class FilterSoundnessError(RuntimeError):
    """An upload passed the filter with a loss above the limit."""


class ChildFailed(RuntimeError):
    """A forked child process died, or exited with a non-zero code, which
    ``exitcode`` holds."""

    def __init__(self, message: str, exitcode: int):
        super().__init__(message)
        self.exitcode = exitcode


class HelperFailed(ChildFailed):
    """The cohort helper process died, or exited with a non-zero code."""


class Forked:
    """A child process forked to serve requests on a pipe.

    ``_fork`` starts it running ``_serve(conn)``.  EOF on the pipe, from
    ``close`` or a dead parent, ends it.  A pipe that breaks in the parent
    means the child died: ``_pipe`` then joins it and raises ``failure``,
    naming its exit code (``-9`` for a SIGKILL).
    """

    failure = ChildFailed
    role = "child"

    def _fork(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, end = ctx.Pipe()
        self._proc = ctx.Process(target=self._run, args=(end,), daemon=True)
        self._proc.start()
        end.close()

    def _run(self, conn) -> None:
        self._conn.close()        # so that a dead parent means EOF
        self._serve(conn)

    def close(self) -> None:
        self._conn.close()        # EOF: the child finishes and exits
        self._proc.join()

    def _check_exit(self) -> None:
        """Raise ``failure`` unless the joined child exited with code 0."""
        code = self._proc.exitcode
        if code != 0:
            raise self.failure(f"the {self.role} process exited with code "
                               f"{code}", code)

    def _pipe(self, io, *args):
        try:
            return io(*args)
        except (EOFError, OSError):   # the child died
            self.close()
            self._check_exit()
            raise


@dataclass
class GlobalModel:
    params: ModelParams
    update_count: int = 0


@dataclass
class SlotResult:
    """One slot's record, from the aggregation round to ``metrics.csv``.

    The round fills in what it produced, for metrics and audits;
    ``run_phase`` then sets the episode, slot, reward, accuracy and error
    rate once the slot is scored and the global model evaluated.
    """

    avg_loss: float
    mean_delay: float
    reported: dict                 # vid -> loss the vehicle announced
    delays: dict                   # vid -> (t_local, t_upload)
    accepted_ids: list
    skipped_ids: list              # zero uplink rate, never arrived
    reject_reasons: dict           # vid -> why rejected, in the
                                   # order of rejection
    trusted_loss: float = None     # None when no trusted model is kept
    filter_calls: int = 0
    accept_audit: list = field(default_factory=list)  # (vid, loss, limit)
    stale_weights: dict = field(default_factory=dict)  # vid -> (w_lt, w_ct)
    episode: int = 0
    slot: int = 0
    reward: float = math.nan
    accuracy: float = math.nan
    error_rate: float = math.nan


NONFINITE = "nonfinite"     # a NaN or inf announced loss or parameter
LOSS_LIMIT = "loss_limit"   # announced loss above the filter's limit


def local_delay(data_count: int, cycles_per_sample: float,
                compute_hz: float) -> float:
    """Seconds of local training: samples * cycles each / CPU frequency."""
    if compute_hz <= 0.0:
        raise ValueError("compute_hz must be positive")
    return data_count * cycles_per_sample / compute_hz

def upload_delay(model_bits: int, rate_bps: float) -> float:
    """Seconds on air for the fixed payload; inf when the link gives 0 b/s."""
    if rate_bps <= 0.0:
        return math.inf
    return model_bits / rate_bps


def staleness_weight(base: float, delay_s: float) -> float:
    """base ** (delay - 0.5): above one for fresh uploads, decaying beyond.

    With base in (0,1) the weight is bounded by base**(-0.5) no matter how
    small the delay, and falls monotonically as the delay grows.
    """
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
    global_model.params = params_combine(mix, global_model.params,
                                         1.0 - mix, weighted)
    global_model.update_count += 1
    return global_model


def threshold_accept(local_loss: float, trusted_loss: float,
                     ratio: float) -> bool:
    """Accept an upload whose loss is within ``ratio`` of the trusted loss.

    The boundary case counts as acceptable.
    """
    if trusted_loss < 0.0 or local_loss < 0.0:
        raise ValueError("losses are nonnegative by construction")
    return local_loss <= ratio * trusted_loss


def _halves(sizes) -> tuple:
    """Learner indices in two groups balanced by rows: largest shard first,
    each to the group with fewer rows so far, the first on a tie.  Each
    group lists its learners in order."""
    groups, rows = ([], []), [0, 0]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        side = int(rows[1] < rows[0])
        groups[side].append(i)
        rows[side] += sizes[i]
    return sorted(groups[0]), sorted(groups[1])


class CohortHelper(Forked):
    """A second process that trains half of each slot's cohort.

    ``run_phase`` forks one per deployment phase.  ``train_cohort`` splits
    a cohort by ``_halves``: the helper trains the first group while this
    process trains the second, each with ``model.train_cohort``, so every
    learner's result is the bytes of its solo run.  A shard crosses the
    pipe once per World, the first time the helper trains on it, and is
    known by its identity from then on: a World's shards are fixed objects
    for its episode.  Each call sends the starts, the shard keys and the
    training streams, and gets back the trained vectors and losses.
    """

    failure = HelperFailed
    role = "cohort helper"

    def __init__(self):
        self._world, self._sent = None, {}
        self._fork()

    def _serve(self, conn) -> None:
        shards = {}
        try:
            while True:
                fresh, new, starts, learners, hyper = conn.recv()
                if fresh:
                    shards.clear()
                shards.update(new)
                try:
                    out = [(params.vector, loss) for params, loss in
                           train_cohort([starts[s] for s, _, _ in learners],
                                        [shards[k] for _, k, _ in learners],
                                        [rng for _, _, rng in learners],
                                        *hyper)]
                except Exception as exc:  # raised again in the parent
                    out = exc
                conn.send(out)
        except (EOFError, BrokenPipeError):
            pass

    def train_cohort(self, world: World, starts, shards, rngs, *hyper):
        """``model.train_cohort(starts, shards, rngs, *hyper)`` over two
        processes; ``world`` holds the shards.  The helper's learners draw
        from copies of their streams, so ``rngs`` of those stay unread."""
        if len(starts) < 2:
            return train_cohort(starts, shards, rngs, *hyper)
        there, here = _halves([len(shard) for shard in shards])
        fresh = world is not self._world
        if fresh:
            self._world, self._sent = world, {}
        new = {}
        for i in there:
            key = id(shards[i])
            if key not in self._sent:
                self._sent[key] = new[key] = shards[i]
        self._pipe(self._conn.send, (
            fresh, new, {id(starts[i]): starts[i] for i in there},
            [(id(starts[i]), id(shards[i]), rngs[i]) for i in there], hyper))
        try:
            mine = train_cohort([starts[i] for i in here],
                                [shards[i] for i in here],
                                [rngs[i] for i in here], *hyper)
        finally:
            # read the reply even if this half raised: the pipe stays in step
            got = self._pipe(self._conn.recv)
        if isinstance(got, Exception):
            raise got
        out = [None] * len(starts)
        for i, res in zip(here, mine):
            out[i] = res
        for i, (vector, loss) in zip(there, got):
            out[i] = (ModelParams(vector, starts[i].architecture), loss)
        return out


def _wants_helper() -> bool:
    """Whether ``run_phase`` forks a ``CohortHelper``: this process may run
    on two CPUs or more, and has no live child, such as a training phase's
    learner, which owns the second core."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return len(cpus) >= 2 and not multiprocessing.active_children()


def _local_updates(world: World, vids, snapshot: ModelParams,
                   cfg: SimConfig, trusted_model: GlobalModel = None,
                   helper: CohortHelper = None):
    """Local SGD of the vehicles ``vids`` from ``snapshot`` in one cohort,
    split with ``helper`` when there is one.

    A kept trusted model trains in the same cohort on the roadside shard,
    from its own parameters, and is updated in place.  Returns the uploads
    that arrive, one (vid, params, announced loss, t_local, t_upload) each;
    every vehicle's (t_local, t_upload); the ids whose link gives 0 b/s, so
    that nothing arrives; and the trusted loss (None without a trusted
    model).  A degraded vehicle's upload is corrupted on the way out, and
    the loss it announces is the loss of what actually gets sent.
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
    hyper = (cfg.local_rounds, cfg.local_lr, cfg.local_batch)
    trained = train_cohort(starts, shards, rngs, *hyper) if helper is None \
        else helper.train_cohort(world, starts, shards, rngs, *hyper)
    trusted_loss = None
    if trusted_model is not None:
        trusted_model.params, trusted_loss = trained.pop()
    updates, delays, skipped = [], {}, []
    for vid, batch, (params, loss) in zip(vids, shards, trained):
        if vid == cfg.bad_vehicle:
            params = degrade_bad_node(params, cfg.bad_noise_scale,
                                      world.degrade_rng(vid))
            loss = cross_entropy(params, batch)
        t_l = local_delay(int(counts[vid]), cfg.cycles_per_sample,
                          float(world.compute_hz[vid]))
        t_u = upload_delay(cfg.model_bits, float(rates[vid]))
        delays[vid] = (t_l, t_u)
        if math.isfinite(t_u):
            updates.append((vid, params, loss, t_l, t_u))
        else:
            skipped.append(vid)
    return updates, delays, skipped, trusted_loss


def _finite_only(uploads, reasons: dict) -> list:
    """The uploads ``(vid, params, loss, ...)`` whose announced loss and
    parameters are all finite; each other one is rejected in ``reasons``."""
    kept = []
    for upload in uploads:
        if math.isfinite(upload[2]) and np.isfinite(upload[1].vector).all():
            kept.append(upload)
        else:
            reasons[upload[0]] = NONFINITE
    return kept


def _slot_result(updates, delays, skipped, accepted, reasons,
                 loss_pool=None, **audit) -> SlotResult:
    """The round's record.  The mean announced loss is taken over
    ``loss_pool`` (every finite upload when None) and the mean delay over
    the finite uploads; either is nan when its pool is empty."""
    reported = {vid: loss for vid, _, loss, _, _ in updates}
    finite = [v for v in sorted(reported) if reasons.get(v) != NONFINITE]
    pool = finite if loss_pool is None else loss_pool
    avg_loss = float(np.mean([reported[v] for v in pool])) if pool \
        else math.nan
    mean_delay = float(np.mean([delays[v][0] + delays[v][1]
                                for v in finite])) if finite else math.nan
    return SlotResult(avg_loss, mean_delay, reported, delays, accepted,
                      skipped, reasons, **audit)


def run_afl_slot(world: World, selected_ids, global_model: GlobalModel,
                 trusted_model: GlobalModel, cfg: SimConfig,
                 scheme: Scheme = SCHEMES["ddafl"],
                 helper: CohortHelper = None) -> SlotResult:
    """One asynchronous round over the selected vehicles.

    All selected vehicles start from the global model as it stood at the
    head of the slot; their weighted uploads are applied sequentially in
    arrival order with id as the tie-break.  With a ``trusted_model`` (the
    defended schemes), each upload must pass the trusted-loss threshold
    before it touches the global model; with None, nothing is screened by
    loss.  An upload with a non-finite loss or parameter is rejected either
    way, and the slot's mean loss and delay leave it out.  ``scheme.lt``
    and ``scheme.ct`` switch the two staleness weights.  A ``helper``
    trains part of the cohort.
    """
    if not world.rsu_batch_intact():
        raise TrustedShardError("trusted shard was tampered with")

    updates, delays, skipped, trusted_loss = _local_updates(
        world, sorted(int(v) for v in selected_ids), global_model.params,
        cfg, trusted_model, helper)
    uploads, stale = [], {}  # uploads: (vid, weighted, loss, arrival time)
    for vid, params, loss, t_l, t_u in updates:
        w_lt = staleness_weight(cfg.stale_base_local, t_l) \
            if scheme.lt else 1.0
        w_ct = staleness_weight(cfg.stale_base_upload, t_u) \
            if scheme.ct else 1.0
        stale[vid] = (w_lt, w_ct)
        uploads.append((vid, weighted_upload(params, w_lt, w_ct), loss,
                        t_l + t_u))
    uploads.sort(key=lambda u: (u[3], u[0]))

    accepted, audit, reasons = [], [], {}
    filter_calls = 0
    for vid, weighted, loss, _ in _finite_only(uploads, reasons):
        if trusted_model is not None:
            filter_calls += 1
            if not threshold_accept(loss, trusted_loss,
                                    cfg.loss_ratio_limit):
                reasons[vid] = LOSS_LIMIT
                continue
            limit = cfg.loss_ratio_limit * trusted_loss
            if not loss <= limit:
                raise FilterSoundnessError(
                    f"vehicle {vid} accepted with loss {loss!r} over the "
                    f"limit {limit!r}")
            audit.append((vid, loss, limit))
        global_update(global_model, weighted, cfg.agg_mix)
        accepted.append(vid)
    return _slot_result(updates, delays, skipped, accepted, reasons,
                        accepted if cfg.loss_avg_accepted_only else None,
                        trusted_loss=trusted_loss, filter_calls=filter_calls,
                        accept_audit=audit, stale_weights=stale)


def sync_round(world: World, global_model: GlobalModel, cfg: SimConfig,
               helper: CohortHelper = None) -> SlotResult:
    """Synchronous baseline: wait for every vehicle, average equally.

    No selection, no staleness weighting, no screening beyond dropping
    uploads with a non-finite loss or parameter; one global step per slot
    once the slowest upload is in.  A ``helper`` trains part of the cohort.
    """
    updates, delays, skipped, _ = _local_updates(
        world, range(cfg.vehicle_count), global_model.params, cfg,
        helper=helper)
    reasons = {}
    folded = _finite_only(updates, reasons)
    if folded:
        global_model.params = params_mean([u[1] for u in folded])
        global_model.update_count += len(folded)
    return _slot_result(updates, delays, skipped, [u[0] for u in folded],
                        reasons)


# ---------------------------------------------------------------------------
# the one slot loop, shared by training and every deployment


def compute_reward(weights: np.ndarray, avg_loss: float, mean_delay: float,
                   cfg: SimConfig) -> float:
    """Negative cost of the slot, spread over the admission budget.

    Cost blends the announced-loss average with the mean end-to-end delay
    of the arrived uploads; the K/sum(weights) prefactor charges timid
    selections.  Slots where nothing arrived contribute zero to a term.
    """
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if not total > 0.0:
        raise ValueError("selection weights must sum to a positive value")
    loss_term = 0.0 if math.isnan(avg_loss) else avg_loss
    delay_term = 0.0 if math.isnan(mean_delay) else mean_delay
    k = weights.size
    return -(k / total) * (cfg.loss_weight * loss_term
                           + cfg.delay_weight * delay_term)


@dataclass
class PhaseResult:
    records: list                 # one SlotResult per slot, in order
    admissions: np.ndarray        # per-vehicle count of admitted slots
    global_model: GlobalModel
    digests: list                 # one realisation digest per episode


def run_phase(cfg: SimConfig, dataset, seed: int, phase: str, episodes: int,
              select_fn, observe=None, *, scheme: Scheme = SCHEMES["ddafl"],
              attacked_ids=(), restart_global: bool = False) -> PhaseResult:
    """Run ``episodes`` episodes of ``cfg.slots_per_episode`` slots each.

    The world restarts every episode, with ``cfg.attack`` on
    ``attacked_ids``.  The global model (and the trusted model, when
    ``scheme.defense``) is drawn once from ``substream(seed, "global-init",
    phase)`` and trains across the phase; with ``restart_global`` it is
    redrawn every episode from ``substream(seed, "global-init", phase,
    episode)``.  Each slot: ``select_fn(world, prev_action) -> (weights,
    mask)`` picks the uploaders, ``scheme``'s round runs, ``compute_reward``
    scores it, the world advances, ``observe(world, weights, slot_result)``
    sees the advanced world, and the global model is evaluated on the fixed
    ``world.eval_batch`` to complete the slot's record.  ``cfg`` is
    validated first, so a bad value fails here, naming its key.

    ``select_fn`` may add ``settle() -> (weights, mask)``, called after
    the round; if its mask differs, the models go back to the head of the
    slot and the round, which changes no World state, runs again on it.

    When ``_wants_helper``, a phase forks one ``CohortHelper`` to train
    part of every slot's cohort, and joins it before it returns or raises.
    """
    def play(mask) -> SlotResult:
        if scheme.sync:
            return sync_round(world, global_model, cfg, helper)
        return run_afl_slot(world, np.flatnonzero(mask), global_model,
                            trusted_model, cfg, scheme, helper)

    validate_config(cfg)
    k = cfg.vehicle_count
    records, digests = [], []
    admissions = np.zeros(k)
    global_model = None
    helper = CohortHelper() if _wants_helper() else None
    try:
        for episode in range(1, episodes + 1):
            world = World(cfg, dataset, seed, phase, episode)
            if restart_global or global_model is None:
                tags = (episode,) if restart_global else ()
                global_model = GlobalModel(init_params(
                    cfg.classifier_arch,
                    substream(seed, "global-init", phase, *tags)))
                trusted_model = GlobalModel(params_copy(
                    global_model.params)) if scheme.defense else None
            world.set_attacks(attacked_ids, cfg.attack)
            prev_action = np.ones(k)
            for slot in range(1, cfg.slots_per_episode + 1):
                weights, mask, *settle = select_fn(world, prev_action)
                heads = copy.copy(global_model), copy.copy(trusted_model)
                res = play(mask)
                if settle:
                    early, (weights, mask) = mask, settle[0]()
                    if not np.array_equal(mask, early):
                        global_model, trusted_model = heads
                        res = play(mask)
                res.episode, res.slot = episode, slot
                res.reward = compute_reward(weights, res.avg_loss,
                                            res.mean_delay, cfg)
                world.advance()
                if observe is not None:
                    observe(world, weights, res)
                res.accuracy, res.error_rate = evaluate(global_model.params,
                                                        world.eval_batch)
                records.append(res)
                admissions += mask
                prev_action = weights
            digests.append(world.digest())
    finally:
        if helper is not None:
            helper.close()
    return PhaseResult(records, admissions, global_model, digests)
