"""Configuration parsing, validation and hashing unit tests."""

import math
from dataclasses import fields, replace

import pytest

from vecafl.config import (ConfigError, SimConfig, canonical_text,
                           config_hash, load_config, save_config,
                           validate_config)


def test_defaults_validate():
    assert validate_config(SimConfig()) is not None


def test_round_trip_preserves_every_field(tmp_path):
    cfg = replace(SimConfig(), attacked_vehicles=(0, 2), attack="class_flip",
                  local_lr=0.0125, loss_avg_accepted_only=True)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_canonical_text_lists_every_field():
    text = canonical_text(SimConfig())
    for f in fields(SimConfig):
        assert f"{f.name} = " in text


def test_hash_stable_and_sensitive():
    a, b = SimConfig(), SimConfig()
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(replace(a, shard_size=999))
    assert len(config_hash(a)) == 12


def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("vehicle_cout = 5\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_load_rejects_bad_value(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("vehicle_count = five\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_rejects_missing_equals(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("vehicle_count 5\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config(path)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("# header\n\nspeed_mps = 15.0  # slower\n")
    assert load_config(path).speed_mps == 15.0


def test_tuple_and_bool_parsing(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("attacked_vehicles = 0,2\nattack = class_flip\n"
                    "attack_persistent = false\n"
                    "loss_avg_accepted_only = 1\n")
    cfg = load_config(path)
    assert cfg.attacked_vehicles == (0, 2)
    assert cfg.attack_persistent is False
    assert cfg.loss_avg_accepted_only is True
    path.write_text("attack_persistent = maybe\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("field,value", [
    ("vehicle_count", 0),
    ("model_bits", -5000),
    ("slot_seconds", 0.0),
    ("agg_mix", 1.0),
    ("stale_base_local", 0.0),
    ("discount", 1.0),
    ("soft_tau", 0.2),        # target tracking must stay slow
    ("ou_decay", 1.5),
    ("action_floor", 0.5),
    ("attack", "bitflip"),
    ("bad_vehicle", 9),
    ("attacked_vehicles", (0, 0)),
    ("attacked_vehicles", (7,)),
    ("compute_min_hz", 4e9),  # above compute_max_hz
    ("classifier_arch", (32, 32, 10)),   # input != feature_dim
    ("classifier_arch", (64, 32, 9)),    # wrong class count
    ("shard_size", 2000),     # blows the dataset budget
    ("coverage_radius_m", 100.0),        # trajectories escape coverage
    ("replay_batch", 100000),            # not below capacity
    ("local_batch", 1001),               # exceeds shard_size
    ("local_lr", -0.1),
])
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        validate_config(replace(SimConfig(), **{field: value}))


FLOAT_FIELDS = [f.name for f in fields(SimConfig) if f.type in (float, "float")]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_validation_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
        validate_config(replace(SimConfig(), **{field: value}))


def test_float_fields_cover_the_unchecked_keys():
    assert {"tx_power_w", "compute_max_hz", "blob_spread",
            "loss_ratio_limit", "local_lr", "bad_noise_scale",
            "path_loss_exp"} <= set(FLOAT_FIELDS)


def test_load_rejects_infinite_value(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("tx_power_w = inf\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="tx_power_w"):
        load_config(path)


def test_validation_accepts_edge_values():
    validate_config(replace(SimConfig(), ou_decay=1.0))
    validate_config(replace(SimConfig(), soft_tau=0.1))
    validate_config(replace(SimConfig(), bad_vehicle=-1))
    validate_config(replace(SimConfig(), action_floor=0.0))
