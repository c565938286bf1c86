"""Episode-state tests: shards, CPUs, mobility, fading, attack plumbing."""

import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import vecafl
from vecafl.config import SimConfig, validate_config
from vecafl.world import World, _truncnorm_draws, build_dataset


def world_cfg(**overrides):
    base = dict(vehicle_count=3, dataset_size=400, feature_dim=6,
                classifier_arch=(6, 8, 10), shard_size=40, rsu_shard_size=40,
                eval_size=50, local_rounds=1, local_batch=10,
                slots_per_episode=6, bad_vehicle=-1)
    base.update(overrides)
    return validate_config(replace(SimConfig(), **base))


def make_world(seed=101, episode=1, **overrides):
    cfg = world_cfg(**overrides)
    return World(cfg, build_dataset(cfg, seed), seed, "test", episode), cfg


def test_shard_sizes_equal_without_bad_vehicle():
    world, cfg = make_world()
    assert world.data_counts().tolist() == [40, 40, 40]
    assert not any(v.bad for v in world.vehicles)


def test_bad_vehicle_holds_quarter_shard():
    world, cfg = make_world(bad_vehicle=1)
    assert world.data_counts().tolist() == [40, 10, 40]
    assert [v.bad for v in world.vehicles] == [False, True, False]


def test_rsu_and_eval_sizes():
    world, cfg = make_world()
    assert len(world.rsu_batch) == 40
    assert len(world.eval_batch) == 50


def test_csv_dataset_of_the_wrong_width_is_refused(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("".join(f"{i % 10}," + ",".join(["0.5"] * 10) + "\n"
                            for i in range(20)))
    cfg = replace(SimConfig(), dataset_path=str(path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 10 "
                       f"features per row, but feature_dim is 64$"):
        build_dataset(cfg, 0)
    fits = replace(cfg, feature_dim=10, vehicle_count=2, shard_size=5,
                   rsu_shard_size=5, eval_size=5)
    assert build_dataset(fits, 0).inputs.shape == (20, 10)


def test_csv_dataset_short_of_the_shards_is_refused(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("".join(f"{i % 10},0.5,0.5\n" for i in range(20)))
    cfg = replace(SimConfig(), dataset_path=str(path), feature_dim=2,
                  vehicle_count=2, shard_size=5, rsu_shard_size=5,
                  eval_size=6)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 20 rows, "
                       r"but vehicle_count \* shard_size \+ rsu_shard_size "
                       r"\+ eval_size is 21$"):
        build_dataset(cfg, 0)
    assert len(build_dataset(replace(cfg, eval_size=5), 0)) == 20


def test_compute_draws_respect_bounds():
    world, cfg = make_world(bad_vehicle=2)
    for _ in range(20):
        computes = world.computes()
        for vid in (0, 1):
            assert cfg.compute_min_hz <= computes[vid] <= cfg.compute_max_hz
        lo = cfg.compute_min_hz / cfg.bad_compute_divisor
        hi = cfg.compute_max_hz / cfg.bad_compute_divisor
        assert lo <= computes[2] <= hi
        world.advance()


def assert_draws_match_scipy(a, b, loc, scale, size, seed):
    """The helper's draws and generator state equal truncnorm.rvs's."""
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = stats.truncnorm.rvs(a, b, loc=loc, scale=scale, size=size,
                               random_state=want_rng)
    got = _truncnorm_draws(a, b, loc, scale, size, got_rng)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def compute_configs(draw):
    """(min, mean, max, std) of a valid CPU draw, with mean == min and
    mean == max, the a = 0 and b = 0 edges, forced often."""
    lo = draw(st.floats(1e6, 5e9))
    hi = lo + draw(st.floats(1e3, 5e9))
    mean = draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))
    return lo, mean, hi, draw(st.floats(1e3, 5e9))


@settings(max_examples=150, deadline=None, database=None)
@given(cpu=compute_configs(), size=st.integers(1, 11),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compute_draws_equal_scipy_truncnorm(cpu, size, seed):
    lo, mean, hi, std = cpu
    assert_draws_match_scipy((lo - mean) / std, (hi - mean) / std, mean, std,
                             size, seed)


@settings(max_examples=150, deadline=None, database=None)
@given(ends=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2,
                     unique=True).map(sorted),
       loc=st.floats(-1e9, 1e9), scale=st.floats(1e-3, 1e9),
       size=st.integers(1, 11), seed=st.integers(0, 2 ** 32 - 1))
def test_truncnorm_draws_equal_scipy_on_any_interval(ends, loc, scale, size,
                                                     seed):
    # covers a > 0 too (the right-tail mass), which no valid config reaches
    assert_draws_match_scipy(ends[0], ends[1], loc, scale, size, seed)


@pytest.mark.parametrize("a, b, scale", [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                         (-1.0, 1.0, 0.0),
                                         (-1.0, 1.0, -1.0),
                                         (float("nan"), 1.0, 1.0)])
def test_truncnorm_draws_reject_bad_arguments(a, b, scale):
    with pytest.raises(ValueError):
        _truncnorm_draws(a, b, 0.0, scale, 3, np.random.default_rng(0))


def test_package_import_leaves_scipy_stats_out():
    code = ("import sys\n"
            "import vecafl.cli, vecafl.harness, vecafl.ddpg\n"
            "print('scipy.stats' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(vecafl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_advance_moves_at_lane_speed():
    world, cfg = make_world()
    starts = [v.start_x for v in world.vehicles]
    for n in range(1, 5):
        world.advance()
        for vid, veh in enumerate(world.vehicles):
            assert veh.x == pytest.approx(
                starts[vid] + cfg.speed_mps * n * cfg.slot_seconds,
                abs=1e-12)


def test_positions_start_inside_configured_span():
    for seed in range(101, 111):
        world, cfg = make_world(seed=seed)
        for veh in world.vehicles:
            assert cfg.start_x_min_m <= veh.start_x <= cfg.start_x_max_m


def test_rates_shape_and_positivity():
    world, cfg = make_world()
    for _ in range(6):
        rates = world.rates()
        assert rates.shape == (3,)
        assert np.all(rates >= 0.0)
        world.advance()


def test_channel_gains_change_each_slot():
    world, _ = make_world()
    before = [v.channel.gain for v in world.vehicles]
    world.advance()
    after = [v.channel.gain for v in world.vehicles]
    assert all(a != b for a, b in zip(before, after))


def test_set_attacks_flips_training_view_only():
    world, _ = make_world()
    world.set_attacks((1,), "class_flip")
    clean = world.vehicles[1].shard.batch
    seen = world.training_batch(1)
    assert np.array_equal(seen.labels, 9 - clean.labels)
    assert np.array_equal(seen.inputs, clean.inputs)
    other = world.training_batch(0)
    assert np.array_equal(other.labels, world.vehicles[0].shard.batch.labels)
    assert world.rsu_batch_intact()


def test_data_flip_attack_view():
    world, _ = make_world()
    world.set_attacks((0, 2), "data_flip")
    for vid in (0, 2):
        clean = world.vehicles[vid].shard.batch
        seen = world.training_batch(vid)
        assert np.allclose(seen.inputs, 1.0 - clean.inputs)
        assert np.array_equal(seen.labels, clean.labels)


def test_transient_attack_skips_odd_slots():
    world, _ = make_world(attack_persistent=False)
    world.set_attacks((1,), "class_flip")
    clean = world.vehicles[1].shard.batch
    assert np.array_equal(world.training_batch(1).labels, 9 - clean.labels)
    world.advance()   # slot 1
    assert np.array_equal(world.training_batch(1).labels, clean.labels)
    world.advance()   # slot 2
    assert np.array_equal(world.training_batch(1).labels, 9 - clean.labels)


def test_rsu_tamper_detection():
    world, _ = make_world()
    assert world.rsu_batch_intact()
    world.rsu_batch.labels[0] = (world.rsu_batch.labels[0] + 1) % 10
    assert not world.rsu_batch_intact()


def test_same_seed_worlds_stay_in_lockstep():
    a, _ = make_world(seed=202)
    b, _ = make_world(seed=202)
    assert a.digest() == b.digest()
    # one side trains, the other does not; environment streams are separate
    a.training_batch(0)
    a.train_rng(0).standard_normal(5)
    for _ in range(4):
        a.advance()
        b.advance()
    assert a.digest() == b.digest()
    assert np.array_equal(a.rates(), b.rates())
    assert np.array_equal(a.computes(), b.computes())


def test_digest_separates_episodes_and_attacks():
    base, _ = make_world(seed=303, episode=1)
    other_ep, _ = make_world(seed=303, episode=2)
    assert base.digest() != other_ep.digest()
    attacked, _ = make_world(seed=303, episode=1)
    attacked.set_attacks((1,), "class_flip")
    assert base.digest() != attacked.digest()


def test_train_rng_is_slot_scoped():
    world, _ = make_world()
    first = world.train_rng(0).standard_normal(3)
    again = world.train_rng(0).standard_normal(3)
    assert np.array_equal(first, again)
    world.advance()
    later = world.train_rng(0).standard_normal(3)
    assert not np.array_equal(first, later)
