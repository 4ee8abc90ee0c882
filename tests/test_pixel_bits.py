"""IDX splits keep their uint8 pixels, and rows are decoded as they are
fetched. These tests pin every decoded row, every centred row and the
training mean to the earlier eager path (``ref_idx_features`` and
``ref_mean_subtract`` in ``conftest.py``): the kept rows converted to one
float64 array, divided by 255, centred in place by ``np.mean(axis=0)``.
Values are compared as uint64 bit patterns with ``==``.
"""

import gzip

import numpy as np
import pytest

from conftest import ref_idx_features, ref_mean_subtract
from emsoftmax import data
from emsoftmax.data import load_idx_pair, mean_subtract
from test_data import idx_image_bytes, idx_label_bytes

# image shapes of one row width each
SHAPES = {1: (1, 1), 2: (1, 2), 784: (28, 28)}
EVAL_ROWS = 7


# row counts of each width: feature_mean cuts 4096 rows into 32 chunks of
# 128, and 4095 and 4097 rows into 32 chunks plus a shorter last one; 9 to
# 11 rows decode one row per chunk, and a single column is decoded whole
ROW_COUNTS = {1: (8191, 8192, 8193), 2: (4095, 4096, 4097), 784: (9, 10, 11)}


def write_split(tmp_path, name, n, d, seed, gz):
    g = np.random.default_rng(seed)
    pixels = g.integers(0, 256, (n, *SHAPES[d]), dtype=np.uint8)
    blobs = {"images": idx_image_bytes(pixels), "labels": idx_label_bytes(g.integers(0, 10, n))}
    paths = []
    for kind, blob in blobs.items():
        path = tmp_path / f"{name}-{kind}{'.gz' if gz else ''}"
        path.write_bytes(gzip.compress(blob) if gz else blob)
        paths.append(path)
    return paths


def assert_bits(ours, ref):
    assert ours.dtype == ref.dtype == np.float64 and ours.shape == ref.shape
    assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


def index_sets(n, seed):
    """Slices and index arrays as the trainer and count_hits fetch them."""
    g = np.random.default_rng(seed)
    return [
        slice(None), slice(0, 4096), slice(n // 2, n), slice(1, None, 2),
        g.permutation(n), g.integers(0, n, 2 * n + 3), np.array([n - 1, 0, n - 1]),
    ]


def cases():
    for d in SHAPES:
        for n in ROW_COUNTS[d]:
            yield d, n


@pytest.mark.parametrize("gz", [False, True], ids=["raw", "gzip"])
@pytest.mark.parametrize("limit", [None, 1, 17, "n"])
@pytest.mark.parametrize("d, n", list(cases()))
def test_rows_and_mean_keep_the_eager_bits(tmp_path, d, n, limit, gz):
    limit = n if limit == "n" else limit
    train_paths = write_split(tmp_path, "train", n, d, seed=d + n, gz=gz)
    eval_paths = write_split(tmp_path, "eval", EVAL_ROWS, d, seed=d + n + 1, gz=gz)
    train = load_idx_pair(*train_paths, limit=limit)
    other = load_idx_pair(*eval_paths)
    assert train.features.dtype == np.uint8
    ref_train = ref_idx_features(train_paths[0], limit)
    ref_eval = ref_idx_features(eval_paths[0])
    kept = len(ref_train)
    assert len(train) == kept
    for ds, ref in ((train, ref_train), (other, ref_eval)):
        for index in index_sets(len(ref), seed=kept):
            assert_bits(ds.rows(index), ref[index])

    splits = mean_subtract(train, other)
    ref_mean = ref_mean_subtract(ref_train, ref_eval)
    assert splits[:2] == (train, other)
    assert_bits(splits[2], ref_mean)
    for ds, ref in ((train, ref_train), (other, ref_eval)):
        for index in index_sets(len(ref), seed=kept + 1):
            assert_bits(ds.rows(index), ref[index])


@pytest.mark.parametrize("d", [2, 3, 784])
@pytest.mark.parametrize("step", [1, 2, 3, 10, 64, 10**6])
def test_mean_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, d, step):
    n = 130
    g = np.random.default_rng(d)
    pixels = g.integers(0, 256, (n, d), dtype=np.uint8)
    ds = data.Dataset(pixels, np.zeros(n, dtype=np.int64), 1)
    ref = pixels.astype(np.float64)
    ref /= 255.0
    # a chunk of ``step`` rows
    monkeypatch.setattr(data, "_mean_chunk_rows", lambda rows: step)
    assert_bits(ds.feature_mean(), np.mean(ref, axis=0))


def test_rows_decode_fresh_arrays_and_keep_the_pixels(tmp_path):
    paths = write_split(tmp_path, "train", 12, 784, seed=5, gz=False)
    ds = load_idx_pair(*paths)
    pixels = ds.features.copy()
    mean_subtract(ds)
    first = ds.rows(slice(0, 4))
    first[:] = 7.0
    assert np.array_equal(ds.features, pixels)
    assert not np.array_equal(ds.rows(slice(0, 4)), first)
