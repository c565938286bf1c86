"""Dataset synthesis, sharding and tampering unit tests."""

import re

import numpy as np
import pytest

from conftest import params_equal
from reference import biases, weights
from vecafl.data import (class_flip, data_flip, degrade_bad_node, load_csv,
                         partition, synthetic_blobs)
from vecafl.model import LabeledBatch, init_params
from vecafl.rng import substream


# -- synthetic blobs ----------------------------------------------------------


def test_blobs_shapes_and_ranges():
    batch = synthetic_blobs(200, 16, substream(1, "data"), 0.08)
    assert batch.inputs.shape == (200, 16)
    assert batch.labels.shape == (200,)
    assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0
    assert set(batch.labels) == set(range(10))


def test_blobs_balanced_labels():
    batch = synthetic_blobs(500, 8, substream(2, "data"), 0.08)
    counts = np.bincount(batch.labels, minlength=10)
    assert np.all(counts == 50)


def test_blobs_deterministic():
    a = synthetic_blobs(100, 8, substream(3, "data"), 0.08)
    b = synthetic_blobs(100, 8, substream(3, "data"), 0.08)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_rejects_bad_sizes():
    with pytest.raises(ValueError):
        synthetic_blobs(0, 8, substream(1, "data"), 0.08)
    with pytest.raises(ValueError):
        synthetic_blobs(10, 0, substream(1, "data"), 0.08)


# -- partition ---------------------------------------------------------------


def test_partition_disjoint_and_sized():
    ds = synthetic_blobs(1000, 4, substream(4, "data"), 0.08)
    # tag every sample by a unique feature so overlaps are detectable
    ds.inputs[:, 0] = np.linspace(0.0, 1.0, 1000)
    shards, rsu, rest = partition(ds, [150] * 5, 150, substream(5, "data"))
    sizes = [len(s) for s in shards]
    assert sizes == [150] * 5 and len(rsu) == 150
    assert len(rest) == 100
    tags = np.concatenate([s.inputs[:, 0] for s in shards]
                          + [rsu.inputs[:, 0], rest.inputs[:, 0]])
    assert np.unique(tags).size == 1000


def test_partition_rejects_overdraw():
    ds = synthetic_blobs(100, 4, substream(6, "data"), 0.08)
    with pytest.raises(ValueError):
        partition(ds, [30, 30, 30], 30, substream(7, "data"))


def test_partition_deterministic():
    ds = synthetic_blobs(300, 4, substream(8, "data"), 0.08)
    a, rsu_a, _ = partition(ds, [50, 50], 50, substream(9, "data"))
    b, rsu_b, _ = partition(ds, [50, 50], 50, substream(9, "data"))
    assert np.array_equal(a[0].inputs, b[0].inputs)
    assert np.array_equal(rsu_a.labels, rsu_b.labels)


# -- attacks -----------------------------------------------------------------


def test_class_flip_inverts_labels():
    batch = synthetic_blobs(50, 4, substream(10, "data"), 0.08)
    flipped = class_flip(batch)
    assert np.array_equal(flipped.labels, 9 - batch.labels)
    assert np.array_equal(flipped.inputs, batch.inputs)


def test_class_flip_is_involution():
    batch = synthetic_blobs(50, 4, substream(11, "data"), 0.08)
    twice = class_flip(class_flip(batch))
    assert np.array_equal(twice.labels, batch.labels)


def test_data_flip_inverts_features():
    batch = synthetic_blobs(50, 4, substream(12, "data"), 0.08)
    flipped = data_flip(batch)
    assert np.allclose(flipped.inputs, 1.0 - batch.inputs)
    assert np.array_equal(flipped.labels, batch.labels)


def test_data_flip_fixed_point_and_involution():
    batch = LabeledBatch(np.full((3, 2), 0.5), np.array([1, 2, 3]))
    assert np.array_equal(data_flip(batch).inputs, batch.inputs)
    rand = synthetic_blobs(50, 4, substream(13, "data"), 0.08)
    assert np.allclose(data_flip(data_flip(rand)).inputs, rand.inputs)


def test_attacks_reject_malformed_batches():
    bad = LabeledBatch(np.full((2, 2), 1.5), np.array([0, 1]))
    with pytest.raises(ValueError):
        class_flip(bad)
    with pytest.raises(ValueError):
        data_flip(LabeledBatch(np.zeros((2, 2)), np.array([0, 10])))


# -- degraded uploads ----------------------------------------------------------


def test_degrade_zero_scale_is_identity():
    p = init_params((6, 5, 10), substream(16, "deg"))
    out = degrade_bad_node(p, 0.0, substream(17, "deg"))
    assert np.allclose(out.vector, p.vector, atol=0.0)


def test_degrade_noise_scale_statistics():
    p = init_params((100, 90, 10), substream(18, "deg"))  # 10000 params
    out = degrade_bad_node(p, 0.1, substream(19, "deg"))
    diff = out.vector - p.vector
    assert diff.size >= 10_000
    assert float(np.std(diff)) == pytest.approx(0.1, abs=0.005)


def test_degrade_deterministic():
    p = init_params((6, 5, 10), substream(20, "deg"))
    a = degrade_bad_node(p, 0.5, substream(21, "deg"))
    b = degrade_bad_node(p, 0.5, substream(21, "deg"))
    assert params_equal(a, b)


# -- CSV loading ---------------------------------------------------------------


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    rows = ["3,0.1,0.9", "0,0.5,0.5", "9,1.0,0.0"]
    path.write_text("\n".join(rows) + "\n")
    batch = load_csv(path)
    assert np.array_equal(batch.labels, [3, 0, 9])
    assert batch.inputs.shape == (3, 2)
    assert batch.inputs[2, 0] == 1.0


def test_load_csv_rejects_label_only(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1\n2\n")
    with pytest.raises(ValueError):
        load_csv(path)


@pytest.mark.parametrize("row,why", [
    ("0,nan,0.5", "features must lie in"),
    ("0,0.5,inf", "features must lie in"),
    ("2.7,0.1,0.5", "labels must be integers"),
    ("nan,0.1,0.5", "labels must be integers"),
    ("10,0.1,0.5", "labels must be integers"),
    ("3,0.1,oops", "could not convert"),
])
def test_load_csv_rejects_bad_values_naming_the_file(tmp_path, row, why):
    path = tmp_path / "bad.csv"
    path.write_text("3,0.1,0.9\n" + row + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {why}"):
        load_csv(path)


def test_degrade_draws_every_weight_before_any_bias():
    # the noise stream order that frozen results depend on: each layer's
    # weights, then each layer's biases, one standard normal per parameter
    p = init_params((6, 5, 10), substream(22, "deg"))
    out = degrade_bad_node(p, 0.5, substream(23, "deg"))
    rng = substream(23, "deg")
    noise = [rng.standard_normal(w.shape) for w in weights(p)] \
        + [rng.standard_normal(b.shape) for b in biases(p)]
    for got, start, z in zip(weights(out) + biases(out),
                             weights(p) + biases(p), noise):
        assert np.array_equal(got, start + 0.5 * z)
