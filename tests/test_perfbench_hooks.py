"""The benchmark's hooks still find every name they patch.

``perfbench/run.py`` times the simulator from outside: its slot clock and
span recorder wrap names in the package's modules, read with
``vars(module)[name]``.  A refactor that drops or renames such a name
would crash every benchmark cell with a KeyError.  This test installs the
benchmark's own recorders on the package and restores them, without
running a cell.
"""

import sys
from pathlib import Path

import pytest

from conftest import tiny_cfg
from vecafl import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import spans
        yield run, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_benchmark_recorders_install_on_the_package_and_restore(bench):
    run, spans = bench
    modules = run.MODULES
    before = {layer: dict(vars(mod)) for layer, mod in modules.items()}
    world_init = vars(modules["world"].World)["__init__"]
    patcher = spans.Patcher()
    try:
        spans.SlotClock(calibrate=True).install(patcher, modules)
        spans.SpanRecorder(run.NOTES).install(patcher, modules)
        assert modules["engine"].evaluate is not before["engine"]["evaluate"]
        assert modules["engine"].train_cohort \
            is not before["engine"]["train_cohort"]
    finally:
        patcher.restore()
    for layer, mod in modules.items():
        assert vars(mod) == before[layer], layer
    assert vars(modules["world"].World)["__init__"] is world_init



def test_slot_clock_cuts_a_learned_cell_into_its_slots(bench):
    # training runs on run_phase inside ddpg.train, so the two loop roots
    # nest; every slot of both stages must still end exactly once
    run, spans = bench
    cfg = tiny_cfg(dataset_size=260, eval_size=40, slots_per_episode=3,
                   train_episodes=2, test_episodes=1, hidden1=16, hidden2=8,
                   replay_batch=2)
    clock = spans.SlotClock()
    patcher = spans.Patcher()
    try:
        clock.install(patcher, run.MODULES)
        harness.run_experiment("ddafl", cfg, 5)
    finally:
        patcher.restore()
    slots = (cfg.train_episodes + cfg.test_episodes) * cfg.slots_per_episode
    assert len(clock.slot_s) == len(clock.slot_cpu_s) == slots
    assert all(s > 0.0 for s in clock.slot_s)
