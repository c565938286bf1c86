"""Frozen reference outputs: per-slot results of nine cells.

A rerun of a cell only proves a run agrees with itself; a change that
shifts results deterministically passes it.  This test compares against
values frozen in ``golden_outputs.json`` instead.  The config is the
default one cut short for speed: it keeps the 250-sample degraded vehicle
and the 600-sample trusted shard, so learners with short last minibatches
train every slot.  Four cells only deploy, one of them under ``data_flip``
on even slots only.  Five also train the agent and freeze the sum and the
sum of squares of each learned net: ``ddafl_train`` and the three
ablations on 16x12 nets, and ``ddafl_train_wide`` at the default 400x300
widths and minibatch of 64, whose agent products are large enough for
OpenBLAS to split over threads; the package pins BLAS to one thread.
Every cell also freezes its whole metrics rows (``<cell>_rows``): the
slot-0 episode summaries and the columns the per-slot entries leave out;
and the world digest of each deployment episode (``<cell>_digests``),
which no output file carries, so that a change in what the environment
draws or how ``World`` folds it into its hash shows here.

Regenerate (only when a change of results is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import biases, weights
from vecafl import ddpg
from vecafl.config import SimConfig, validate_config
from vecafl.harness import run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 5
AGENT_SEED = 3          # initial actor deployed by the ddafl cell
REL_TOL = 1e-9
FIELDS = ("avg_loss", "accuracy", "accepted_count", "reward")
ROW_FIELDS = ("episode", "slot", "avg_loss", "accuracy", "error_rate",
              "reward", "attacked_fraction", "accepted_count", "mean_delay")
CELLS = {  # cell -> (scheme, config overrides)
    "sync_fl": ("sync_fl", {}),
    "plain_afl": ("plain_afl", {}),
    "ddafl": ("ddafl", {"attack": "class_flip"}),
    "ddafl_train": ("ddafl", {"train_episodes": 3, "test_episodes": 1,
                              "replay_batch": 8, "hidden1": 16,
                              "hidden2": 12}),
    # 5 x 20 transitions against a minibatch of 64: 36 agent updates
    "ddafl_train_wide": ("ddafl", {"train_episodes": 5, "test_episodes": 1,
                                   "slots_per_episode": 20}),
    # the ablations train with their component off and deploy under attack
    **{scheme: (scheme, {"attack": "class_flip", "train_episodes": 3,
                         "replay_batch": 8, "hidden1": 16, "hidden2": 12})
       for scheme in ("ddafl_no_lt", "ddafl_no_ct", "ddafl_no_defense")},
    # tampering on even slots only
    "data_flip_even": ("ddafl", {"attack": "data_flip",
                                 "attack_persistent": False}),
}
TRAINED = ("ddafl_train", "ddafl_train_wide", "ddafl_no_lt", "ddafl_no_ct",
           "ddafl_no_defense")   # the cells that learn
PRETRAINED = ("ddafl", "data_flip_even")   # deploy the initial actor
NETS = ("actor", "critic", "target_actor", "target_critic")


def golden_cfg(**overrides) -> SimConfig:
    overrides = {"slots_per_episode": 4, "test_episodes": 2, **overrides}
    return validate_config(replace(SimConfig(), **overrides))


@functools.lru_cache(maxsize=None)
def run_cell(cell: str):
    scheme, overrides = CELLS[cell]
    cfg = golden_cfg(**overrides)
    pretrained = None
    if cell in PRETRAINED:
        pretrained = ddpg.TrainResult(ddpg.init_agent(cfg, AGENT_SEED),
                                      [], [], [], "")
    return run_experiment(scheme, cfg, SEED, pretrained=pretrained)


def cell_values(cell: str) -> list:
    """[avg_loss, accuracy, accepted_count, reward] of every slot, the
    training slots first."""
    return [[getattr(r, f) for f in FIELDS]
            for r in run_cell(cell).rows if r.slot > 0]


def row_values(cell: str) -> list:
    """Every metrics row in ``ROW_FIELDS`` order, summary rows included."""
    return [[getattr(r, f) for f in ROW_FIELDS] for r in run_cell(cell).rows]


def net_values(cell: str) -> dict:
    """[sum, sum of squares] of the parameters of each learned net."""
    out = {}
    for name in NETS:
        params = getattr(run_cell(cell).nets, name)
        flat = np.concatenate([a.ravel() for a in weights(params)
                               + biases(params)])
        out[name] = [float(np.sum(flat)), float(np.sum(flat * flat))]
    return out


def digest_values(cell: str) -> list:
    """The world digest of each deployment episode."""
    return list(run_cell(cell).test_digests)


def _same(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_per_slot_outputs_match_frozen_reference(cell):
    want = _golden()[cell]
    got = cell_values(cell)
    assert len(got) == len(want)
    for slot, (g, w) in enumerate(zip(got, want), 1):
        assert g[2] == w[2], f"slot {slot}: accepted_count {g[2]} != {w[2]}"
        for name, gv, wv in zip(FIELDS, g, w):
            assert _same(gv, wv), f"slot {slot}: {name} {gv!r} != {wv!r}"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_metrics_rows_match_frozen_reference(cell):
    want = _golden()[f"{cell}_rows"]
    got = row_values(cell)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for name, gv, wv in zip(ROW_FIELDS, g, w):
            same = gv == wv if isinstance(wv, int) else _same(gv, wv)
            assert same, f"row {i} (episode {g[0]}, slot {g[1]}): " \
                         f"{name} {gv!r} != {wv!r}"


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_world_digests_match_frozen_reference(cell):
    assert digest_values(cell) == _golden()[f"{cell}_digests"]


def test_trained_nets_match_frozen_reference():
    for cell in TRAINED:
        want = _golden()[f"{cell}_nets"]
        got = net_values(cell)
        assert sorted(got) == sorted(want)
        for name in NETS:
            for what, gv, wv in zip(("sum", "sum of squares"), got[name],
                                    want[name]):
                assert _same(gv, wv), \
                    f"{cell} {name} {what}: {gv!r} != {wv!r}"


def test_golden_cells_run_the_short_minibatch_learners():
    cfg = golden_cfg()
    assert cfg.shard_size // cfg.bad_shard_divisor == 250
    assert cfg.rsu_shard_size == 600
    assert cfg.bad_vehicle >= 0


def test_training_cell_updates_the_agent():
    for cell in TRAINED:
        cfg = golden_cfg(**CELLS[cell][1])
        # updates start once the replay holds more than one minibatch
        assert cfg.train_episodes * cfg.slots_per_episode > cfg.replay_batch
        start = ddpg.init_agent(cfg, SEED).actor
        trained = run_cell(cell).nets.actor
        assert not all(np.array_equal(a, b) for a, b in
                       zip(weights(start), weights(trained)))


if __name__ == "__main__":
    blocks = [f' "{cell}": [\n  '
              + ",\n  ".join(json.dumps(row) for row in cell_values(cell))
              + "\n ]" for cell in sorted(CELLS)]
    blocks += [f' "{cell}_nets": ' + json.dumps(net_values(cell),
                                                 sort_keys=True)
               for cell in TRAINED]
    blocks += [f' "{cell}_digests": ' + json.dumps(digest_values(cell))
               for cell in sorted(CELLS)]
    blocks += [f' "{cell}_rows": [\n  '
               + ",\n  ".join(json.dumps(row) for row in row_values(cell))
               + "\n ]" for cell in sorted(CELLS)]
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                      encoding="utf-8")
    sys.exit(0)
