"""The byte-identity oracle's file comparison, on two small directories.

``tools/oracle.py`` runs whole experiments in two trees; what decides its
verdict is ``differing_files``, tested here without running a cell.
"""

import sys
from pathlib import Path

import pytest

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
