"""Command-line surface: exit codes, output files, seed resolution."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import TWO_CPUS, child_env, tiny_cfg
from vecafl.cli import main
from vecafl.config import (SAMPLE_BUDGET, load_config, save_config,
                           validate_config)
from vecafl.model import load_params, save_params


@pytest.fixture()
def cfg_file(tmp_path):
    cfg = tiny_cfg(dataset_size=400, eval_size=50, slots_per_episode=3,
                   train_episodes=2, test_episodes=2, hidden1=16, hidden2=8,
                   replay_batch=2)
    path = tmp_path / "tiny.cfg"
    save_config(cfg, path)
    return str(path)


def test_baseline_writes_metrics_and_reports(cfg_file, tmp_path, capsys):
    out = tmp_path / "base"
    code = main(["baseline", "--scheme", "plain_afl", "--config", cfg_file,
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "config.txt").exists()
    printed = capsys.readouterr().out
    assert "plain_afl seed=3" in printed
    assert "final avg_loss=" in printed


def test_train_then_redeploy_checkpoint(cfg_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3",
                 "--out", str(run)]) == 0
    assert (run / "checkpoint").is_dir()

    redeploy = tmp_path / "redeploy"
    code = main(["test", "--checkpoint", str(run / "checkpoint"),
                 "--config", cfg_file, "--seed", "3",
                 "--out", str(redeploy)])
    assert code == 0
    assert (redeploy / "metrics.csv").exists()
    assert "deployment of" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["ddafl", "ddafl_no_lt"])
def test_redeploy_writes_the_test_rows_of_its_training_run(cfg_file,
                                                          tmp_path, scheme):
    # no --scheme on redeploy: the checkpoint's own scheme is deployed
    run, redeploy = tmp_path / "run", tmp_path / "redeploy"
    assert main(["train", "--config", cfg_file, "--seed", "4",
                 "--scheme", scheme, "--out", str(run)]) == 0
    assert main(["test", "--checkpoint", str(run / "checkpoint"),
                 "--config", cfg_file, "--seed", "4",
                 "--out", str(redeploy)]) == 0
    header, *rows = (run / "metrics.csv").read_text().splitlines()
    test_rows = [r for r in rows if r.split(",")[0].endswith("-test")]
    assert test_rows
    assert (redeploy / "metrics.csv").read_text().splitlines() \
        == [header] + test_rows
    assert (redeploy / "config.txt").read_text() \
        == (run / "config.txt").read_text()


def test_corrupt_checkpoint_exits_2_naming_the_file(cfg_file, tmp_path,
                                                    capsys):
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3",
                 "--out", str(run)]) == 0
    (run / "checkpoint" / "manifest.json").write_text("{}")
    code = main(["test", "--checkpoint", str(run / "checkpoint"),
                 "--config", cfg_file, "--seed", "3",
                 "--out", str(tmp_path / "redeploy")])
    assert code == 2
    assert "manifest.json: missing config_hash" in capsys.readouterr().err


def test_checkpoint_with_a_nan_net_exits_2_naming_the_file(cfg_file,
                                                           tmp_path, capsys):
    # unchecked, the redeploy exited 0 with nan rewards in every row
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_file, "--seed", "3",
                 "--out", str(run)]) == 0
    actor = run / "checkpoint" / "actor.bin"
    params = load_params(actor)
    params.vector[:] = np.nan
    save_params(params, actor)
    code = main(["test", "--checkpoint", str(run / "checkpoint"),
                 "--config", cfg_file, "--seed", "3",
                 "--out", str(tmp_path / "redeploy")])
    assert code == 2
    assert f"{actor}: holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "redeploy" / "metrics.csv").exists()


def test_diverging_training_exits_2_naming_the_rates(cfg_file, tmp_path,
                                                     capsys):
    cfg = validate_config(replace(load_config(cfg_file), hidden2=12,
                                  train_episodes=3, critic_lr=1e4,
                                  actor_lr=1e4))
    save_config(cfg, tmp_path / "hot.cfg")
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(tmp_path / "hot.cfg"),
                     "--seed", "2", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "training diverged in episode 3, slot 1" in err
    assert "critic_lr" in err and "actor_lr" in err


# command -> (a scheme it refuses, a scheme it accepts)
REFUSED = {"train": ("plain_afl", "ddafl_no_ct"),
           "baseline": ("ddafl", "sync_fl"),
           "ablation": ("ddafl", "ddafl_no_defense")}


@pytest.mark.parametrize("command", sorted(REFUSED))
def test_bad_scheme_exits_2_naming_the_accepted_ones(cfg_file, capsys,
                                                     command):
    refused, accepted = REFUSED[command]
    code = main([command, "--scheme", refused, "--config", cfg_file,
                 "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {command} scheme must be one of (" in err
    assert repr(accepted) in err


def test_csv_of_the_wrong_width_exits_2_naming_the_file(cfg_file, tmp_path,
                                                        capsys):
    data = tmp_path / "wide.csv"
    data.write_text("".join(f"{i % 10}," + ",".join(["0.5"] * 10) + "\n"
                            for i in range(20)))
    save_config(replace(load_config(cfg_file), dataset_path=str(data)),
                tmp_path / "csv.cfg")
    code = main(["baseline", "--scheme", "plain_afl", "--config",
                 str(tmp_path / "csv.cfg"), "--seed", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{data}: 10 features per row, but feature_dim is 6" \
        in capsys.readouterr().err


def test_csv_short_of_the_shards_exits_2_naming_the_file(cfg_file, tmp_path,
                                                        capsys):
    # rows for the vehicle and trusted shards but none for the eval pool:
    # without the check this runs to the end with accuracy nan in every row
    data = tmp_path / "short.csv"
    rng = np.random.default_rng(0)
    data.write_text("".join(f"{i % 10}," + ",".join(map(str, rng.random(6)))
                            + "\n" for i in range(3 * 40 + 40)))
    save_config(replace(load_config(cfg_file), dataset_path=str(data)),
                tmp_path / "csv.cfg")
    code = main(["baseline", "--scheme", "plain_afl", "--config",
                 str(tmp_path / "csv.cfg"), "--seed", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{data}: 160 rows, but {SAMPLE_BUDGET} is 210" \
        in capsys.readouterr().err


@pytest.mark.parametrize("short", [0, 1])
def test_csv_of_the_sample_budget_runs_and_one_row_less_exits_2(
        cfg_file, tmp_path, capsys, short):
    # vehicle 1 is degraded: 40 + 10 + 40 vehicle rows, 40 trusted, 50 eval
    rows = 40 + 40 // 4 + 40 + 40 + 50 - short
    data = tmp_path / "budget.csv"
    rng = np.random.default_rng(0)
    data.write_text("".join(f"{i % 10}," + ",".join(map(str, rng.random(6)))
                            + "\n" for i in range(rows)))
    save_config(replace(load_config(cfg_file), dataset_path=str(data),
                        bad_vehicle=1), tmp_path / "csv.cfg")
    code = main(["baseline", "--scheme", "plain_afl", "--config",
                 str(tmp_path / "csv.cfg"), "--seed", "1",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    if short:
        assert code == 2
        assert f"{data}: 179 rows, but {SAMPLE_BUDGET} is 180" in err
    else:
        assert code == 0, err
        assert (tmp_path / "run" / "metrics.csv").exists()


def test_csv_run_ignores_dataset_size(cfg_file, tmp_path, capsys):
    # dataset_size (400) sizes only the synthetic blobs; the shards take 450
    data = tmp_path / "budget.csv"
    rng = np.random.default_rng(0)
    data.write_text("".join(f"{i % 10}," + ",".join(map(str, rng.random(6)))
                            + "\n" for i in range(3 * 120 + 40 + 50)))
    cfg = replace(load_config(cfg_file), dataset_path=str(data),
                  shard_size=120)
    assert cfg.dataset_size == 400
    save_config(validate_config(cfg), tmp_path / "csv.cfg")
    code = main(["baseline", "--scheme", "plain_afl", "--config",
                 str(tmp_path / "csv.cfg"), "--seed", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("text, why", [
    # at floor 0 every selection weight clipped to 0 within these two
    # training episodes (seed 1), and the slot reward then raised naming
    # no config key
    ("action_floor = 0.0\nou_variance = 100.0\ntrain_episodes = 2\n"
     "test_episodes = 1\n",
     "config key 'action_floor': must lie in (0, 0.5)"),
    ("local_lr = 0.1\nlocal_lr = 0.001\n",
     "config key 'local_lr' set twice, on lines 1 and 2"),
], ids=["zero_action_floor", "repeated_key"])
def test_config_refused_at_load_exits_2_naming_the_key(tmp_path, capsys,
                                                      text, why):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "run"
    code = main(["train", "--config", str(path), "--seed", "1",
                 "--out", str(out)])
    assert code == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_bad_sweep_fraction_exits_2(cfg_file, capsys):
    code = main(["sweep", "--attack", "class_flip", "--fractions", "0,1.5",
                 "--config", cfg_file, "--seed", "1"])
    assert code == 2
    assert "fractions must lie in [0, 1]" in capsys.readouterr().err


def test_sweep_refuses_a_scheme(cfg_file, capsys):
    # the sweep always deploys ddafl with and without the filter
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--attack", "class_flip", "--scheme", "nonsense",
              "--config", cfg_file, "--seed", "1"])
    assert exit_.value.code == 2
    assert "--scheme" in capsys.readouterr().err


def test_sweep_with_explicit_attacked_vehicles_exits_2(cfg_file, tmp_path,
                                                       capsys):
    path = tmp_path / "ids.cfg"
    save_config(replace(load_config(cfg_file), attacked_vehicles=(0, 1)),
                path)
    out = tmp_path / "sweep"
    code = main(["sweep", "--attack", "class_flip", "--config", str(path),
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "attacked_vehicles" in capsys.readouterr().err
    assert not out.exists()


def test_seed_falls_back_to_environment(cfg_file, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.setenv("SIM_SEED", "9")
    out = tmp_path / "env-seed"
    code = main(["baseline", "--scheme", "sync_fl", "--config", cfg_file,
                 "--out", str(out)])
    assert code == 0
    assert "sync_fl seed=9" in capsys.readouterr().out


def test_garbage_environment_seed_exits_2(cfg_file, capsys, monkeypatch):
    monkeypatch.setenv("SIM_SEED", "many")
    code = main(["baseline", "--scheme", "sync_fl", "--config", cfg_file])
    assert code == 2
    assert "SIM_SEED" in capsys.readouterr().err


# kills the learner with SIGKILL just after it is sent its second update
KILLER = """
import os, signal, sys
from vecafl import cli, ddpg

update, calls = ddpg._Learner.update, []

def killing(self, batch, where):
    update(self, batch, where)
    calls.append(where)
    if len(calls) == 2:
        os.kill(self._proc.pid, signal.SIGKILL)

ddpg._Learner.update = killing
sys.exit(cli.main(sys.argv[1:]))
"""


@TWO_CPUS
def test_a_dead_learner_is_not_reported_as_a_config_error(cfg_file,
                                                          tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", KILLER, "train", "--config", cfg_file,
         "--seed", "3", "--out", str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode not in (0, 2), done.stderr
    last = done.stderr.strip().splitlines()[-1]
    assert "learner process exited with code -9" in last, done.stderr
