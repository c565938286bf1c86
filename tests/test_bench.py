"""What ``tools/bench.py`` reads back from the runs it makes: perfbench's
JSON result line and pytest's slowest durations, tested without a run."""

import json
import sys
from pathlib import Path

import pytest

import vecafl

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(TOOLS))
    try:
        import bench
        yield bench
    finally:
        sys.path.remove(str(TOOLS))


def _output(result) -> str:
    return "workload deploy_sync: 4 cells\n  slots_per_s 44 1/s\n" \
        + json.dumps(result) + "\n"


def test_a_correct_result_is_read(bench):
    result = {"correct": True, "attempted": 240, "failed": 0,
              "metrics": {"slots_per_s": {"value": 44.0, "unit": "1/s"}}}
    assert bench.perfbench_result(_output(result)) == result


@pytest.mark.parametrize("stdout", [
    "",
    "a cell failed, so there is nothing to report\n",
    _output({"correct": True})[:-5] + "\n",     # cut short
    _output({"correct": True}) + "one more line\n",
    "[1, 2]\n",
])
def test_a_run_whose_last_line_is_not_a_json_object_is_refused(bench,
                                                                stdout):
    with pytest.raises(bench.BenchError, match="not a JSON object"):
        bench.perfbench_result(stdout)


@pytest.mark.parametrize("correct", [False, None, "true", 1])
def test_a_run_not_reporting_correct_true_is_refused(bench, correct):
    result = {"attempted": 240, "failed": 3, "metrics": {}}
    if correct is not None:
        result["correct"] = correct
    with pytest.raises(bench.BenchError, match="correct"):
        bench.perfbench_result(_output(result))


def test_slowest_durations_are_read_in_order(bench):
    stdout = """....
============================= slowest 5 durations ==============================
98.51s setup    tests/test_acceptance.py::test_criterion7_tamper_sweep
22.10s call     tests/test_acceptance.py::test_criterion6[a b]
0.01s teardown tests/test_x.py::test_y
491 passed in 252.00s (0:04:12)
"""
    assert bench.slowest(stdout) == [
        {"seconds": 98.51, "step": "setup",
         "test": "tests/test_acceptance.py::test_criterion7_tamper_sweep"},
        {"seconds": 22.10, "step": "call",
         "test": "tests/test_acceptance.py::test_criterion6[a b]"},
        {"seconds": 0.01, "step": "teardown",
         "test": "tests/test_x.py::test_y"},
    ]


def test_the_machine_record_names_the_kernel_family_the_package_read(bench):
    assert bench.machine()["openblas_core"] == vecafl.BLAS_CORE
