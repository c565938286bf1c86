"""Orchestration tests: metrics plumbing, scheme recipes, paired seeds."""

import json
import math
import os
import re
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import conftest
from vecafl import ddpg
from vecafl.config import ConfigError, SimConfig, config_hash
from vecafl.engine import Scheme, SlotResult
from reference import parse_metrics, weights
from vecafl.harness import (SCHEMES, MetricsRow, _phase_rows, attack_sweep,
                            emit_metrics, resolve_attacked_ids,
                            run_experiment)
from vecafl.model import init_params
from vecafl.rng import substream
from vecafl.world import build_dataset


tiny_cfg = partial(conftest.tiny_cfg, dataset_size=400, eval_size=50,
                   slots_per_episode=3, train_episodes=2, test_episodes=2,
                   hidden1=16, hidden2=8, replay_batch=2)


def sample_rows():
    return [MetricsRow("run-a", "plain_afl", 1, 0, math.pi, 1.0 / 3.0,
                       2.0 / 3.0, -1.23456789123, 0.4, 7, 0.13205456224322066,
                       "abc123def456"),
            MetricsRow("run-a", "plain_afl", 1, 1, math.nan, 0.5, 0.5,
                       -0.5, 0.0, 3, math.nan, "abc123def456")]


# -- metrics emission ----------------------------------------------------------


def test_metrics_schema_is_locked():
    assert [f.name for f in fields(MetricsRow)] == [
        "run_id", "scheme", "episode", "slot", "avg_loss", "accuracy",
        "error_rate", "reward", "attacked_fraction", "accepted_count",
        "mean_delay", "config_hash"]


def test_emit_one_row_two_lines(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics(sample_rows()[:1], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("run_id,scheme,episode,slot,avg_loss")


def test_emit_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_metrics(sample_rows(), a)
    emit_metrics(sample_rows(), b)
    assert a.read_bytes() == b.read_bytes()


def test_parse_back_reproduces_values(tmp_path):
    path = tmp_path / "m.csv"
    rows = sample_rows()
    emit_metrics(rows, path)
    back = parse_metrics(path)
    assert len(back) == 2
    for want, got in zip(rows, back):
        assert got.run_id == want.run_id and got.scheme == want.scheme
        assert got.episode == want.episode and got.slot == want.slot
        assert got.accepted_count == want.accepted_count
        assert got.config_hash == want.config_hash
        for name in ("avg_loss", "accuracy", "error_rate", "reward",
                     "attacked_fraction", "mean_delay"):
            w, g = getattr(want, name), getattr(got, name)
            if math.isnan(w):
                assert math.isnan(g)
            else:
                # nine significant digits keep half an ulp at the ninth
                # place: 5e-9 relative in the worst case
                assert g == pytest.approx(w, rel=5e-9, abs=1e-15)


def slot_record(episode, slot, avg_loss, accuracy, error_rate, reward,
                accepted, mean_delay):
    return SlotResult(avg_loss, mean_delay, {}, {}, list(range(accepted)),
                      [], {}, episode=episode, slot=slot, reward=reward,
                      accuracy=accuracy, error_rate=error_rate)


def test_phase_rows_summary_and_order():
    records = [slot_record(1, 1, 0.4, 0.9, 0.1, -1.0, 3, 0.5),
               slot_record(1, 2, 0.2, 0.8, 0.2, -2.0, 2, 0.7),
               slot_record(2, 1, 0.6, 0.7, 0.3, -3.0, 1, 0.9),
               slot_record(2, 2, 0.8, 0.6, 0.4, -4.0, 4, 1.1)]
    rows = _phase_rows(records, "rid", "ddafl", "hash", 0.4)
    assert [(r.episode, r.slot) for r in rows] \
        == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    ep1 = rows[0]
    assert ep1.avg_loss == pytest.approx(0.3, abs=1e-12)
    assert ep1.accuracy == 0.8 and ep1.error_rate == 0.2
    assert ep1.reward == pytest.approx(-3.0, abs=1e-12)
    assert ep1.accepted_count == 5
    assert ep1.mean_delay == pytest.approx(0.6, abs=1e-12)
    assert all(r.run_id == "rid" and r.scheme == "ddafl"
               and r.config_hash == "hash" and r.attacked_fraction == 0.4
               for r in rows)


# -- scheme table -----------------------------------------------------------------


@pytest.mark.parametrize("scheme,learned,defense,lt,ct,sync", [
    ("ddafl", True, True, True, True, False),
    ("ddafl_no_defense", True, False, True, True, False),
    ("ddafl_no_lt", True, True, False, True, False),
    ("ddafl_no_ct", True, True, True, False, False),
    ("plain_afl", False, False, False, False, False),
    ("sync_fl", False, False, False, False, True),
])
def test_scheme_flag_table(scheme, learned, defense, lt, ct, sync):
    assert SCHEMES[scheme] == Scheme(learned=learned, defense=defense, lt=lt,
                                     ct=ct, sync=sync)


def test_unknown_scheme_rejected():
    six = ("ddafl", "ddafl_no_defense", "ddafl_no_lt", "ddafl_no_ct",
           "plain_afl", "sync_fl")
    with pytest.raises(ValueError,
                       match=re.escape(f"'fedavg'; pick one of {six}")):
        run_experiment("fedavg", tiny_cfg(), 1)


# -- attacked-id resolution ----------------------------------------------------------


def test_resolver_no_attack_returns_empty():
    cfg = tiny_cfg()   # attack defaults to "none"
    assert resolve_attacked_ids(cfg, None, None, 1) == ()


def test_resolver_explicit_ids_win():
    cfg = tiny_cfg(attack="class_flip", attacked_vehicles=(0, 2))
    assert resolve_attacked_ids(cfg, None, None, 1, count=1) == (0, 2)


def test_resolver_without_actor_takes_lowest_ids():
    cfg = tiny_cfg(attack="class_flip")
    assert resolve_attacked_ids(cfg, None, None, 1, count=2) == (0, 1)
    assert resolve_attacked_ids(cfg, None, None, 1, count=0) == ()


def test_resolver_with_actor_ranks_admitted():
    cfg = tiny_cfg(attack="data_flip")
    ds = build_dataset(cfg, 7)
    # all-zero actor emits 0.5 for everyone: all admitted, ties break by id
    actor = init_params((12, 3), substream(7, "ra"))
    for w in weights(actor):
        w[:] = 0.0
    got = resolve_attacked_ids(cfg, actor, ds, 7, count=2)
    assert got == (0, 1)


# -- experiment cells ------------------------------------------------------------------


def test_plain_afl_cell_writes_files(tmp_path):
    cfg = tiny_cfg()
    out = tmp_path / "cell"
    res = run_experiment("plain_afl", cfg, 5, out_dir=str(out))
    assert res.scheme == "plain_afl"
    assert res.nets is None and res.train_rewards.size == 0
    assert (out / "metrics.csv").exists() and (out / "config.txt").exists()
    assert not (out / "checkpoint").exists()
    rows = parse_metrics(out / "metrics.csv")
    assert len(rows) == cfg.test_episodes * (cfg.slots_per_episode + 1)
    assert all(r.config_hash == config_hash(cfg) for r in rows)
    assert all(r.run_id == "plain_afl-s5-test" for r in rows)


def test_cell_rerun_is_byte_identical(tmp_path):
    cfg = tiny_cfg()
    paths = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        run_experiment("sync_fl", cfg, 11, out_dir=str(out))
        paths.append(out / "metrics.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sync_never_calls_filter():
    res = run_experiment("sync_fl", tiny_cfg(), 13)
    assert all(sr.filter_calls == 0 for sr in res.test_slot_results)
    assert all(sr.trusted_loss is None for sr in res.test_slot_results)


def test_learned_cell_saves_checkpoint_and_pairs_with_baseline(tmp_path):
    cfg = tiny_cfg()
    out = tmp_path / "ddafl"
    learned = run_experiment("ddafl", cfg, 17, out_dir=str(out))
    assert learned.nets is not None
    assert (out / "checkpoint" / "manifest.json").exists()
    assert learned.train_rewards.shape == (cfg.train_episodes,)
    baseline = run_experiment("plain_afl", cfg, 17)
    assert learned.test_digests == baseline.test_digests


def test_checkpoint_manifest_records_rng_digest_and_scheme(tmp_path):
    cfg = tiny_cfg()
    out = tmp_path / "ddafl_no_lt"
    run_experiment("ddafl_no_lt", cfg, 23, out_dir=str(out))
    manifest = json.loads((out / "checkpoint" / "manifest.json")
                          .read_text(encoding="utf-8"))
    trained = ddpg.train(cfg, build_dataset(cfg, 23), 23,
                         SCHEMES["ddafl_no_lt"])
    assert trained.rng_digest
    assert manifest["rng_digest"] == trained.rng_digest
    assert manifest["scheme"] == "ddafl_no_lt"


def test_ablation_cells_log_unit_weights():
    cfg = tiny_cfg()
    no_lt = run_experiment("ddafl_no_lt", cfg, 19)
    assert all(w[0] == 1.0 for sr in no_lt.test_slot_results
               for w in sr.stale_weights.values())
    assert any(w[1] != 1.0 for sr in no_lt.test_slot_results
               for w in sr.stale_weights.values())
    no_ct = run_experiment("ddafl_no_ct", cfg, 19)
    assert all(w[1] == 1.0 for sr in no_ct.test_slot_results
               for w in sr.stale_weights.values())


# -- attack sweep ------------------------------------------------------------------------


def test_sweep_cell_order_and_fraction_zero(tmp_path):
    cfg = tiny_cfg()
    out = tmp_path / "sweep"
    cells, rows, _ = attack_sweep(cfg, 23, (0.0, 1.0 / 3.0), "class_flip",
                                  out_dir=str(out))
    assert [(c.fraction, c.scheme) for c in cells] == [
        (0.0, "ddafl"), (0.0, "ddafl_no_defense"),
        (1.0 / 3.0, "ddafl"), (1.0 / 3.0, "ddafl_no_defense")]
    assert cells[0].attacked_ids == () and cells[1].attacked_ids == ()
    assert len(cells[2].attacked_ids) == 1
    assert cells[2].attacked_ids == cells[3].attacked_ids
    # clean-world filter transparency: with nothing tampered the defended
    # and undefended deployments end at exactly the same error rate
    assert abs(cells[0].final_error_rate - cells[1].final_error_rate) < 1e-12
    assert (out / "sweep_metrics.csv").exists()
    assert (out / "sweep_summary.csv").exists()


def test_sweep_refuses_explicit_attacked_vehicles():
    # the sweep probes every fraction with this config, so explicit ids
    # would win at each nonzero fraction: the f0.2 cells would tamper with
    # both vehicles and log 0.4 while the summary says 0.2
    cfg = tiny_cfg(vehicle_count=5, attacked_vehicles=(0, 1))
    with pytest.raises(ConfigError, match="attacked_vehicles"):
        attack_sweep(cfg, 3, (0.0, 0.2, 0.4), "class_flip")


@pytest.mark.parametrize("fraction", [1.5, -0.2, float("nan")])
def test_sweep_refuses_a_fraction_outside_0_1(fraction):
    # 1.5 once recorded fraction 1.5 with every vehicle tampered, and -0.2
    # deployed clean
    with pytest.raises(ConfigError, match=r"fractions must lie in \[0, 1\]"):
        attack_sweep(tiny_cfg(), 1, (0.0, fraction), "class_flip")


def test_sweep_rejects_unknown_attack():
    with pytest.raises(ValueError, match="'bitflip'"):
        attack_sweep(tiny_cfg(), 1, (0.0,), "bitflip")


@pytest.mark.parametrize("entry", ["run_experiment", "attack_sweep",
                                   "train"])
def test_entry_points_refuse_an_invalid_config(entry):
    # built with replace, so no loader has validated it; at a zero action
    # floor this config once reached the slot loop and failed in the reward
    cfg = replace(SimConfig(), action_floor=0.0, ou_variance=100.0,
                  train_episodes=2, test_episodes=1)
    calls = {
        "run_experiment": lambda: run_experiment("ddafl", cfg, 1),
        "attack_sweep": lambda: attack_sweep(cfg, 1, (0.0,), "class_flip"),
        "train": lambda: ddpg.train(cfg, build_dataset(cfg, 1), 1),
    }
    with pytest.raises(ConfigError, match="action_floor"):
        calls[entry]()
