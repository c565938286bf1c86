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

