"""The package pins numpy's BLAS to one thread, so results do not depend on
the thread count a host or an environment variable would give it."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import vecafl

SRC = Path(vecafl.__file__).resolve().parents[1]
NETS = ("actor.bin", "critic.bin", "target_actor.bin", "target_critic.bin")

# 4 x 20 slots against a minibatch of 64: 16 updates of the default-width
# nets, whose 64 x 25 x 400 and 64 x 400 x 300 products pass OpenBLAS's
# threading threshold of 262,144 multiply-adds
CHILD = """
import sys
from dataclasses import replace
import vecafl
from vecafl import ddpg
from vecafl.config import SimConfig, validate_config
from vecafl.world import build_dataset
cfg = validate_config(replace(SimConfig(), train_episodes=4))
out = ddpg.train(cfg, build_dataset(cfg, 7), 7)
ddpg.save_checkpoint(sys.argv[1], out.nets, cfg, cfg.train_episodes)
print(vecafl.BLAS_THREADS)
"""


def train_in_child(out: Path, threads: str) -> str:
    path = filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_blas_is_pinned_to_one_thread():
    assert vecafl.BLAS_THREADS == 1


def test_pinning_warns_when_numpy_bundles_no_scipy_openblas(tmp_path,
                                                             monkeypatch):
    # as with a numpy built against a system BLAS
    (tmp_path / "numpy").mkdir()
    monkeypatch.setattr(vecafl, "np", SimpleNamespace(
        __file__=str(tmp_path / "numpy" / "__init__.py")))
    with pytest.warns(RuntimeWarning, match="scipy-openblas was not found"):
        assert vecafl._pin_blas_to_one_thread() is None


def test_trained_nets_do_not_depend_on_the_blas_thread_setting(tmp_path):
    assert train_in_child(tmp_path / "one", "1") == "1"
    assert train_in_child(tmp_path / "two", "2") == "1"
    for name in NETS:
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes(), name
