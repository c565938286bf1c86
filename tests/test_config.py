"""Configuration parsing, validation and hashing unit tests."""

import math
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecafl.config import (ConfigError, SimConfig, canonical_text,
                           config_hash, load_config, samples_needed,
                           save_config, shard_sizes, validate_config)
from vecafl.data import ATTACK_KINDS, NUM_CLASSES


def test_defaults_validate():
    assert validate_config(SimConfig()) is not None


def test_default_sample_budget_counts_the_degraded_shard_cut():
    # four vehicles of 1000 rows, the degraded one's 1000 // 4, the
    # trusted 600 and the eval pool's 300
    cfg = SimConfig()
    assert shard_sizes(cfg) == [1000, 1000, 1000, 1000, 250]
    assert samples_needed(cfg) == 5150
    assert samples_needed(replace(cfg, bad_vehicle=-1)) == 5900
    assert shard_sizes(replace(cfg, shard_size=3, bad_vehicle=0)) \
        == [1, 3, 3, 3, 3]
    validate_config(replace(cfg, dataset_size=5150))
    with pytest.raises(ConfigError, match="dataset_size"):
        validate_config(replace(cfg, dataset_size=5149))
    for bad in (-1, 0, 3):
        small = replace(cfg, shard_size=7, vehicle_count=4, bad_vehicle=bad)
        assert samples_needed(small) == sum(shard_sizes(small)) + 900
    # counted, not listed: a shard list this long could not be allocated
    with pytest.raises(ConfigError, match="dataset_size"):
        validate_config(replace(cfg, vehicle_count=10 ** 15))


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


def test_load_rejects_a_repeated_key_naming_both_lines(tmp_path):
    # the later value used to win without a word
    path = tmp_path / "config.txt"
    path.write_text("local_lr = 0.1\n# tuned\nlocal_rounds = 3\n"
                    "local_lr = 0.001\n")
    with pytest.raises(ConfigError, match="'local_lr' set twice, on lines "
                                          "1 and 4"):
        load_config(path)


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


REJECTED = [
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
    ("action_floor", 0.0),    # every selection weight could clip to 0
    ("bandwidth_hz", 0.0),    # the uplink rate needs a positive radio
    ("tx_power_w", 0.0),
    ("noise_power_w", 0.0),
    ("wavelength_m", 0.0),    # the Doppler shift divides by it
    ("bad_noise_scale", -0.1),
    ("shard_size", 0),
    ("rsu_shard_size", 0),
    ("compute_std_hz", 0.0),  # the CPU draw's truncation divides by it
    ("cycles_per_sample", 0.0),
    ("stale_base_upload", 1.0),
    ("loss_ratio_limit", 0.0),
    ("local_batch", 0),
    ("critic_lr", -1e-3),
    ("replay_capacity", 0),
    ("soft_tau", 0.0),
]


def _case_id(field, value) -> str:
    """``<key>-<value>``, a tuple's items joined by commas, so that adding
    a case renames no other."""
    text = ",".join(map(str, value)) if isinstance(value, tuple) \
        else str(value)
    return f"{field}-{text}"


@pytest.mark.parametrize("field,value", REJECTED,
                         ids=[_case_id(*case) for case in REJECTED])
def test_validation_rejects(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        validate_config(replace(SimConfig(), **{field: value}))


FLOAT_FIELDS = [f.name for f in fields(SimConfig) if f.type is float]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_validation_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
        validate_config(replace(SimConfig(), **{field: value}))


def test_float_fields_cover_the_unchecked_keys():
    assert {"tx_power_w", "compute_max_hz", "blob_spread",
            "loss_ratio_limit", "local_lr", "bad_noise_scale",
            "path_loss_exp"} <= set(FLOAT_FIELDS)


# values built in Python: each is refused naming its key, or its config
# line reads back as an equal config under the same hash
TYPED = [
    pytest.param("speed_mps", 20, False, id="int_for_float"),
    pytest.param("local_lr", np.float64(0.01), False, id="numpy_float"),
    pytest.param("vehicle_count", np.int64(5), False, id="numpy_int"),
    pytest.param("attacked_vehicles", (np.int64(1),), False,
                 id="numpy_int_ids"),
    pytest.param("vehicle_count", 5.0, True, id="float_for_int"),
    pytest.param("vehicle_count", True, True, id="bool_for_int"),
    pytest.param("attack_persistent", "false", True, id="str_for_bool"),
    pytest.param("loss_avg_accepted_only", 1, True, id="int_for_bool"),
    pytest.param("attacked_vehicles", [1], True, id="list_for_tuple"),
    pytest.param("attacked_vehicles", (1.0,), True, id="float_id"),
    pytest.param("classifier_arch", [64, 32, 10], True, id="list_arch"),
    pytest.param("speed_mps", "20", True, id="str_for_float"),
    pytest.param("speed_mps", False, True, id="bool_for_float"),
    pytest.param("local_lr", np.float32(0.01), True, id="float32"),
    pytest.param("speed_mps", 10 ** 400, True, id="int_past_float"),
]


@pytest.mark.parametrize("field,value,refused", TYPED)
def test_validation_refuses_or_round_trips_each_value_type(
        tmp_path, field, value, refused):
    cfg = replace(SimConfig(), **{field: value})
    if refused:
        with pytest.raises(ConfigError, match=f"'{field}'"):
            validate_config(cfg)
        return
    validate_config(cfg)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg)


def test_load_rejects_infinite_value(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("tx_power_w = inf\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="tx_power_w"):
        load_config(path)


@pytest.mark.parametrize("path", ["a#b", " a", "a ", "x\ny", "x\ry"])
def test_validation_rejects_paths_a_config_file_cannot_carry(path):
    with pytest.raises(ConfigError, match="dataset_path"):
        validate_config(replace(SimConfig(), dataset_path=path))


def test_validation_accepts_edge_values():
    validate_config(replace(SimConfig(), ou_decay=1.0))
    validate_config(replace(SimConfig(), soft_tau=0.1))
    validate_config(replace(SimConfig(), bad_vehicle=-1))
    validate_config(replace(SimConfig(), action_floor=1e-9))


# Any text a config file can be written in; validate_config rejects the
# paths the file format cannot carry back, and the key keeps its value.
PATHS = st.text(st.characters(blacklist_categories=("Cs",)))


def changes_for(name: str, cfg: SimConfig, data) -> dict:
    """Draw a new value for key ``name``; the input width moves with the
    classifier's first layer, which must equal it."""
    ftype = next(f.type for f in fields(SimConfig) if f.name == name)
    if name in ("feature_dim", "classifier_arch"):
        dim = data.draw(st.integers(1, 80)) if name == "feature_dim" \
            else cfg.feature_dim
        hidden = data.draw(st.lists(st.integers(1, 64), max_size=3))
        return {"feature_dim": dim,
                "classifier_arch": (dim, *hidden, NUM_CLASSES)}
    if name == "attack":
        return {name: data.draw(st.sampled_from(ATTACK_KINDS))}
    if name == "dataset_path":
        return {name: data.draw(PATHS)}
    if name == "attacked_vehicles":
        return {name: tuple(data.draw(st.lists(st.integers(-1, 6),
                                               max_size=4, unique=True)))}
    if ftype is bool:
        return {name: data.draw(st.booleans())}
    if ftype is int:
        return {name: data.draw(st.one_of(st.integers(-1, 40),
                                          st.integers(-1, 10 ** 9)))}
    return {name: data.draw(st.one_of(
        st.floats(0.0, 1.0),
        st.floats(allow_nan=False, allow_infinity=False)))}


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_save_load_round_trips_any_valid_config(data):
    # propose a new value for every key, in a drawn order; keep the valid
    cfg = SimConfig()
    names = [f.name for f in fields(SimConfig)]
    for name in data.draw(st.permutations(names)):
        candidate = replace(cfg, **changes_for(name, cfg, data))
        try:
            cfg = validate_config(candidate)
        except ConfigError:
            continue
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        save_config(cfg, path)
        loaded = load_config(path)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg)
