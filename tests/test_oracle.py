"""The byte-identity oracle's file comparison, on two small directories,
byte for byte and with ``--floats``, and its clean-up when it is stopped.

``tools/oracle.py`` runs whole experiments in two trees; what decides its
verdict is ``differing_files``, tested here without running a cell.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from vecafl.harness import MetricsRow

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def oracle():
    sys.path.insert(0, str(TOOLS))
    try:
        import oracle
        yield oracle
    finally:
        sys.path.remove(str(TOOLS))


def _write(top: Path, files: dict) -> Path:
    for rel, data in files.items():
        path = top / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return top


FILES = {"ddafl/metrics.csv": b"a,b\n1,2\n",
         "ddafl/checkpoint/actor.bin": b"\x00\x01",
         "sync_fl/test_digests.txt": b"d9c4\n"}


def test_identical_trees_have_no_differing_file(oracle, tmp_path):
    a = _write(tmp_path / "a", FILES)
    b = _write(tmp_path / "b", FILES)
    assert oracle.differing_files(a, b) == []


def test_every_changed_or_one_sided_file_is_named(oracle, tmp_path):
    a = _write(tmp_path / "a", FILES)
    b = _write(tmp_path / "b", {**FILES,
                                "ddafl/checkpoint/actor.bin": b"\x00\x02",
                                "sync_fl/test_digests.txt": b"d9c5\n",
                                "plain_afl/metrics.csv": b"a,b\n"})
    (a / "ddafl" / "metrics.csv").unlink()
    assert oracle.differing_files(a, b) == [
        "ddafl/checkpoint/actor.bin", "ddafl/metrics.csv",
        "plain_afl/metrics.csv", "sync_fl/test_digests.txt"]


def _rows(**changed) -> bytes:
    """A ``rows.txt`` of three metrics rows, as the oracle's runs write
    them; ``changed`` sets fields of the third."""
    rows = [MetricsRow("ddafl-s3", "ddafl", 1, slot, slot + 0.25, 0.5,
                       0.5, float("nan"), 0.0, 3, 12.5, "9f3e1c")
            for slot in range(3)]
    rows[2] = replace(rows[2], **changed)
    return "".join(json.dumps(asdict(row)) + "\n" for row in rows).encode()


def test_floats_within_the_tolerance_match(oracle, tmp_path):
    # one bit in the last place of a float, and a nan on both sides
    a = _write(tmp_path / "a", {**FILES, "ddafl/rows.txt": _rows()})
    b = _write(tmp_path / "b", {**FILES, "ddafl/rows.txt": _rows(
        avg_loss=float(np.nextafter(2.25, 3.0)))})
    assert oracle.differing_files(a, b) == ["ddafl/rows.txt"]
    assert oracle.differing_files(a, b, 1e-12) == []


@pytest.mark.parametrize("changed", [
    {"avg_loss": 2.25 * (1 + 1e-9)}, {"accepted_count": 4},
    {"config_hash": "9f3e1d"}, {"reward": 0.0}, {"accepted_count": 3.0},
    {"mean_delay": float("inf")}])
def test_floats_past_the_tolerance_name_the_first_row(oracle, tmp_path,
                                                      changed):
    a = _write(tmp_path / "a", {**FILES, "ddafl/rows.txt": _rows()})
    b = _write(tmp_path / "b", {**FILES, "ddafl/rows.txt": _rows(**changed),
                                "sync_fl/test_digests.txt": b"d9c5\n"})
    assert oracle.differing_files(a, b, 1e-12) == [
        "ddafl/rows.txt (row 3)", "sync_fl/test_digests.txt"]


def _drivers(top: Path) -> list:
    """Pids of live processes running an oracle cell under ``top``."""
    mark = (str(top) + os.sep + "vecafl-oracle-").encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes()
        except OSError:           # ended while being read
            continue
        if mark in argv and b"out-" in argv:
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(),
                    reason="finds the cell processes through /proc")
def test_sigterm_stops_both_runs_and_removes_the_scratch(tmp_path):
    if subprocess.run(["git", "-C", str(TOOLS), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout to export HEAD from")
    proc = subprocess.Popen(
        [sys.executable, str(TOOLS / "oracle.py"), "--against", "HEAD"],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while len(_drivers(tmp_path)) < 2:
            assert proc.poll() is None, "the oracle ended before both runs"
            assert time.monotonic() < deadline, "the runs never started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _drivers(tmp_path) == []
    assert list(tmp_path.glob("vecafl-oracle-*")) == []
