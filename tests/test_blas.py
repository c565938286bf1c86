"""The package pins numpy's BLAS to one thread, so results do not depend on
the thread count a host or an environment variable would give it."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import vecafl
from conftest import child_env
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
    env = child_env(OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_blas_is_pinned_to_one_thread():
    assert vecafl.BLAS_THREADS == 1


def test_the_kernel_family_is_read_with_the_pin():
    if vecafl.BLAS_THREADS == 1:
        assert isinstance(vecafl.BLAS_CORE, str) and vecafl.BLAS_CORE


@pytest.mark.skipif(vecafl.BLAS_CORE is None,
                    reason="numpy bundles no scipy-openblas")
def test_the_kernel_family_is_the_one_that_runs():
    # OPENBLAS_CORETYPE is set in the child's environment only
    done = subprocess.run(
        [sys.executable, "-c", "import vecafl; print(vecafl.BLAS_CORE)"],
        env=child_env(OPENBLAS_CORETYPE="Sandybridge"), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "Sandybridge"


def test_pinning_warns_when_numpy_bundles_no_scipy_openblas(tmp_path,
                                                             monkeypatch):
    # as with a numpy built against a system BLAS
    (tmp_path / "numpy").mkdir()
    monkeypatch.setattr(vecafl, "np", SimpleNamespace(
        __file__=str(tmp_path / "numpy" / "__init__.py")))
    with pytest.warns(RuntimeWarning, match="scipy-openblas was not found"):
        assert vecafl._pin_blas_to_one_thread() == (None, None)


def test_trained_nets_do_not_depend_on_the_blas_thread_setting(tmp_path):
    assert train_in_child(tmp_path / "one", "1") == "1"
    assert train_in_child(tmp_path / "two", "2") == "1"
    for name in NETS:
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes(), name
