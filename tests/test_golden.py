"""Frozen reference outputs: per-slot results of three schemes.

A rerun of a cell only proves a run agrees with itself; a change that
shifts results deterministically passes it.  This test compares against
values frozen in ``golden_outputs.json`` instead.  The config is the
default one cut short for speed: it keeps the 250-sample degraded vehicle
and the 600-sample trusted shard, so learners with short last minibatches
train every slot.

Regenerate (only when a change of results is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vecafl import ddpg
from vecafl.config import SimConfig, validate_config
from vecafl.harness import run_experiment

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 5
AGENT_SEED = 3          # initial actor deployed by the ddafl cell
REL_TOL = 1e-9
FIELDS = ("avg_loss", "accuracy", "accepted_count", "reward")
CELLS = {
    "sync_fl": {},
    "plain_afl": {},
    "ddafl": {"attack": "class_flip"},
}


def golden_cfg(**overrides) -> SimConfig:
    return validate_config(replace(SimConfig(), slots_per_episode=4,
                                   test_episodes=2, **overrides))


def cell_values(scheme: str) -> list:
    """[avg_loss, accuracy, accepted_count, reward] of every slot."""
    cfg = golden_cfg(**CELLS[scheme])
    pretrained = None
    if scheme == "ddafl":
        pretrained = ddpg.TrainResult(ddpg.init_agent(cfg, AGENT_SEED),
                                      [], [], [], "")
    result = run_experiment(scheme, cfg, SEED, pretrained=pretrained)
    return [[getattr(r, f) for f in FIELDS] for r in result.rows if r.slot > 0]


def _same(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("scheme", sorted(CELLS))
def test_per_slot_outputs_match_frozen_reference(scheme):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[scheme]
    got = cell_values(scheme)
    assert len(got) == len(want)
    for slot, (g, w) in enumerate(zip(got, want), 1):
        assert g[2] == w[2], f"slot {slot}: accepted_count {g[2]} != {w[2]}"
        for name, gv, wv in zip(FIELDS, g, w):
            assert _same(gv, wv), f"slot {slot}: {name} {gv!r} != {wv!r}"


def test_golden_cells_run_the_short_minibatch_learners():
    cfg = golden_cfg()
    assert cfg.shard_size // cfg.bad_shard_divisor == 250
    assert cfg.rsu_shard_size == 600
    assert cfg.bad_vehicle >= 0


if __name__ == "__main__":
    blocks = [f' "{scheme}": [\n  '
              + ",\n  ".join(json.dumps(row) for row in cell_values(scheme))
              + "\n ]" for scheme in sorted(CELLS)]
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                      encoding="utf-8")
    sys.exit(0)
