"""Experiment orchestration and metrics emission.

A scheme names one end-to-end recipe, as ``engine.SCHEMES`` states it:
learned selection with or without its defenses, or a baseline.  All
schemes sharing a seed face identical environment realisations, so their
metrics are directly comparable row by row.
"""

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ddpg
from .config import (ConfigError, SimConfig, config_hash, save_config,
                     validate_config)
from .data import ATTACKS
from .engine import SCHEMES, run_phase
from .world import World, build_dataset

DEFAULT_ATTACK_COUNT = 2   # tampered uploaders picked at deployment


@dataclass
class MetricsRow:
    run_id: str
    scheme: str
    episode: int
    slot: int                 # 0 marks the episode summary row
    avg_loss: float
    accuracy: float
    error_rate: float
    reward: float
    attacked_fraction: float
    accepted_count: int
    mean_delay: float
    config_hash: str


@dataclass
class ExperimentResult:
    scheme: str
    seed: int
    cfg_hash: str
    rows: list
    train_rewards: np.ndarray     # empty for baselines
    admissions: np.ndarray        # test-phase admitted slots per vehicle
    test_digests: list
    nets: object                  # AgentNets or None
    attacked_ids: tuple
    test_slot_results: list       # engine.SlotResult per deployment slot
    out_dir: str


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.9g" % value
    return str(value)


def _write_csv(path, header, rows) -> None:
    """CSV under ``header``; floats at nine significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def emit_metrics(rows, path) -> None:
    """The metrics rows as CSV, one column per ``MetricsRow`` field."""
    names = [f.name for f in fields(MetricsRow)]
    _write_csv(path, names, ([getattr(row, n) for n in names] for row in rows))


def _phase_rows(records, run_id: str, scheme: str, cfg_hash: str,
                attacked_fraction: float = 0.0) -> list:
    """Per-slot rows plus one slot-0 summary row per episode."""
    rows = []
    by_episode = {}
    for rec in records:
        by_episode.setdefault(rec.episode, []).append(rec)
    for episode in sorted(by_episode):
        recs = by_episode[episode]
        rows.append(MetricsRow(
            run_id, scheme, episode, 0,
            float(np.mean([r.avg_loss for r in recs])),
            recs[-1].accuracy, recs[-1].error_rate,
            float(np.sum([r.reward for r in recs])), attacked_fraction,
            int(np.sum([len(r.accepted_ids) for r in recs])),
            float(np.mean([r.mean_delay for r in recs])), cfg_hash))
        for r in recs:
            rows.append(MetricsRow(run_id, scheme, r.episode, r.slot,
                                   r.avg_loss, r.accuracy, r.error_rate,
                                   r.reward, attacked_fraction,
                                   len(r.accepted_ids), r.mean_delay,
                                   cfg_hash))
    return rows


def resolve_attacked_ids(cfg: SimConfig, actor, dataset, seed: int,
                         count: int = DEFAULT_ATTACK_COUNT) -> tuple:
    """Which uploads get tampered with at deployment.

    Explicitly configured ids win.  Otherwise the tampered vehicles are
    picked from the set the policy actually admits at the start of the
    deployment phase, highest selection weight first (all vehicles, by id,
    for the baselines, which admit everyone).
    """
    if cfg.attack == "none" or count <= 0:
        return ()
    if cfg.attacked_vehicles:
        return tuple(cfg.attacked_vehicles)
    k = cfg.vehicle_count
    if actor is None:
        return tuple(range(min(count, k)))
    world = World(cfg, dataset, seed, "test", 1)
    weights, mask = ddpg.greedy_select(actor, cfg)(world, np.ones(k))
    ranked = sorted(range(k), key=lambda v: (not mask[v], -weights[v], v))
    return tuple(sorted(ranked[:count]))


def _select_everyone(k: int):
    def select(world, prev_action):
        return np.ones(k), np.ones(k, dtype=bool)
    return select


def _deploy(scheme: str, cfg: SimConfig, dataset, seed: int, select,
            attacked_ids, run_id: str):
    """The deployment phase of ``scheme``: ``cfg.test_episodes`` episodes
    with ``cfg.attack`` on ``attacked_ids``.  Returns the phase and its
    metrics rows."""
    phase = run_phase(cfg, dataset, seed, "test", cfg.test_episodes, select,
                      scheme=SCHEMES[scheme], attacked_ids=attacked_ids)
    return phase, _phase_rows(phase.records, run_id, scheme,
                              config_hash(cfg),
                              len(attacked_ids) / cfg.vehicle_count)


def run_experiment(scheme: str, cfg: SimConfig, seed: int,
                   out_dir: str = None,
                   pretrained: "ddpg.TrainResult" = None) -> ExperimentResult:
    """Full recipe for one (scheme, config, seed) cell.

    Learned schemes train a fresh policy (or reuse ``pretrained``) and then
    deploy it; baselines only run the deployment phase.  Metrics land in
    ``out_dir/metrics.csv`` when a directory is given, together with the
    resolved config and, for learned schemes, the policy checkpoint.
    """
    validate_config(cfg)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of "
                         f"{tuple(SCHEMES)}")
    cfg_hash = config_hash(cfg)
    dataset = build_dataset(cfg, seed)
    rows, train_rewards, nets = [], np.zeros(0), None
    select = _select_everyone(cfg.vehicle_count)

    if SCHEMES[scheme].learned:
        train_res = pretrained if pretrained is not None else ddpg.train(
            cfg, dataset, seed, SCHEMES[scheme])
        nets = train_res.nets
        train_rewards = train_res.episode_rewards
        rows += _phase_rows(train_res.records, f"{scheme}-s{seed}-train",
                            scheme, cfg_hash)
        select = ddpg.greedy_select(nets.actor, cfg)
    attacked = resolve_attacked_ids(cfg, nets.actor if nets else None,
                                    dataset, seed)
    phase, test_rows = _deploy(scheme, cfg, dataset, seed, select, attacked,
                               f"{scheme}-s{seed}-test")
    rows += test_rows

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        emit_metrics(rows, os.path.join(out_dir, "metrics.csv"))
        save_config(cfg, os.path.join(out_dir, "config.txt"))
        if nets is not None and pretrained is None:
            ddpg.save_checkpoint(os.path.join(out_dir, "checkpoint"), nets,
                                 cfg, cfg.train_episodes,
                                 rng_digest=train_res.rng_digest,
                                 scheme=scheme)

    return ExperimentResult(scheme, seed, cfg_hash, rows, train_rewards,
                            phase.admissions, phase.digests, nets, attacked,
                            phase.records, out_dir or "")


@dataclass
class SweepCell:
    fraction: float
    scheme: str
    attacked_ids: tuple
    final_error_rate: float
    final_accuracy: float
    final_avg_loss: float


def attack_sweep(cfg: SimConfig, seed: int, fractions, attack_kind: str,
                 out_dir: str = None):
    """Tampered-uploader fraction sweep, defended versus undefended.

    The policy is trained once (training never sees tampering) and then
    deployed at every fraction with the filter on and off, under paired
    environment realisations.  Returns the per-cell summaries plus all
    metrics rows.  A config that sets ``attacked_vehicles`` is refused.
    """
    validate_config(cfg)
    if cfg.attacked_vehicles:
        raise ConfigError("attacked_vehicles must be empty for a sweep, "
                          "which picks the tampered vehicles per fraction")
    if attack_kind not in ATTACKS:
        raise ValueError(f"unknown attack kind {attack_kind!r}; pick one of "
                         f"{tuple(ATTACKS)}")
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in [0, 1]")
    base = replace(cfg, attack="none")
    dataset = build_dataset(base, seed)
    train_res = ddpg.train(base, dataset, seed)
    actor = train_res.nets.actor
    select = ddpg.greedy_select(actor, cfg)
    k = cfg.vehicle_count

    cells, rows = [], []
    for fraction in fractions:
        count = int(round(fraction * k))
        probe = replace(cfg, attack=attack_kind if count else "none")
        ids = resolve_attacked_ids(probe, actor, dataset, seed, count)
        cell_cfg = replace(probe, attacked_vehicles=ids)
        for scheme in ("ddafl", "ddafl_no_defense"):
            phase, cell_rows = _deploy(
                scheme, cell_cfg, dataset, seed, select, ids,
                f"sweep-{attack_kind}-f{fraction:g}-{scheme}-s{seed}")
            rows += cell_rows
            final = phase.records[-1]
            cells.append(SweepCell(float(fraction), scheme, ids,
                                   final.error_rate, final.accuracy,
                                   final.avg_loss))

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        emit_metrics(rows, os.path.join(out_dir, "sweep_metrics.csv"))
        _write_csv(os.path.join(out_dir, "sweep_summary.csv"),
                   [f.name for f in fields(SweepCell)],
                   ([c.fraction, c.scheme,
                     " ".join(str(i) for i in c.attacked_ids),
                     c.final_error_rate, c.final_accuracy, c.final_avg_loss]
                    for c in cells))
    return cells, rows, train_res
