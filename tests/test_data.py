import gzip
import re
import struct

import numpy as np
import pytest

from emsoftmax.data import (
    Dataset,
    IdxFormatError,
    SyntheticSpec,
    load_idx_pair,
    load_mean,
    mean_subtract,
    minibatch_stream,
    save_mean,
    subtract_mean,
    synth_blobs,
)
from emsoftmax.tensor import Rng


def idx_image_bytes(pixels):
    """Pack a uint8 image stack (n, rows, cols) into IDX3 bytes."""
    arr = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = arr.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + arr.tobytes()


def idx_label_bytes(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, arr.size) + arr.tobytes()


def write_pair(tmp_path, image_blob, label_blob, image_name="imgs"):
    """Write an image and a label file; return both paths for load_idx_pair."""
    imgs, labels = tmp_path / image_name, tmp_path / "labels"
    imgs.write_bytes(image_blob)
    labels.write_bytes(label_blob)
    return imgs, labels


class TestIdxLoading:
    def test_image_values_and_scaling(self, tmp_path):
        pixels = np.array([[[0, 128], [255, 1]]], dtype=np.uint8)
        ds = load_idx_pair(*write_pair(tmp_path, idx_image_bytes(pixels),
                                       idx_label_bytes([0])))
        assert ds.features.dtype == np.uint8
        feats = ds.rows(slice(None))
        assert feats.shape == (1, 4)
        np.testing.assert_allclose(feats[0], [0.0, 128 / 255, 1.0, 1 / 255])

    def test_gzipped_files_are_transparent(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
        raw, labels = write_pair(tmp_path, idx_image_bytes(pixels), idx_label_bytes([0]))
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(idx_image_bytes(pixels)))
        labels_gz = tmp_path / "labels.gz"
        labels_gz.write_bytes(gzip.compress(idx_label_bytes([0])))
        np.testing.assert_array_equal(load_idx_pair(raw, labels).features,
                                      load_idx_pair(gz, labels_gz).features)

    def test_labels(self, tmp_path):
        pixels = np.zeros((3, 1, 1), dtype=np.uint8)
        labels = load_idx_pair(*write_pair(tmp_path, idx_image_bytes(pixels),
                                           idx_label_bytes([3, 0, 9]))).labels
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [3, 0, 9])

    def test_bad_magic_names_the_file(self, tmp_path):
        paths = write_pair(tmp_path, struct.pack(">IIII", 0xDEAD, 1, 1, 1) + b"\x00",
                           idx_label_bytes([0]), image_name="weird")
        with pytest.raises(IdxFormatError, match="weird.*magic"):
            load_idx_pair(*paths)

    def test_truncated_payload(self, tmp_path):
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((2, 2, 2), dtype=np.uint8))[:-3],
                           idx_label_bytes([0, 0]))
        with pytest.raises(IdxFormatError, match="header implies"):
            load_idx_pair(*paths)

    def test_truncated_header(self, tmp_path):
        paths = write_pair(tmp_path, b"\x00\x00", idx_label_bytes([0]))
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_pair(*paths)

    @pytest.mark.parametrize("image_shape, label_count, name", [
        ((0, 28, 28), 0, "imgs"), ((5, 0, 28), 5, "imgs"), ((2, 3, 3), 0, "labels"),
    ], ids=["zero count", "zero row width", "zero label count"])
    def test_zero_dimension_names_the_file(self, tmp_path, image_shape, label_count, name):
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros(image_shape, dtype=np.uint8)),
                           idx_label_bytes([0] * label_count))
        with pytest.raises(IdxFormatError, match=f"{name}: header dims .* include a zero"):
            load_idx_pair(*paths)

    @pytest.mark.parametrize("damage", ["truncated", "bad crc", "bad deflate block"])
    def test_damaged_gzip_names_the_file(self, tmp_path, damage):
        blob = gzip.compress(idx_image_bytes(np.arange(48, dtype=np.uint8).reshape(3, 4, 4)))
        if damage == "truncated":
            blob = blob[: len(blob) // 2]
        elif damage == "bad crc":
            # the trailer is the CRC-32, then the uncompressed size
            blob = blob[:-8] + bytes(b ^ 0xFF for b in blob[-8:-4]) + blob[-4:]
        else:
            # after the 10-byte gzip header, block type 3 is reserved
            blob = blob[:10] + b"\xff" * 20
        paths = write_pair(tmp_path, blob, idx_label_bytes([0, 1, 2]), image_name="imgs.gz")
        with pytest.raises(IdxFormatError, match="imgs.gz: bad gzip stream"):
            load_idx_pair(*paths)

    def test_pair_count_mismatch(self, tmp_path):
        imgs = tmp_path / "imgs"
        labels = tmp_path / "labels"
        imgs.write_bytes(idx_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(IdxFormatError, match="3 images but.*2 labels"):
            load_idx_pair(imgs, labels)

    def test_label_out_of_range_names_the_label_file(self, tmp_path):
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)),
                           idx_label_bytes([0, 12, 2]))
        with pytest.raises(IdxFormatError, match="labels: label 12 out of range for 10"):
            load_idx_pair(*paths, num_classes=10)
        assert load_idx_pair(*paths, num_classes=13).num_classes == 13

    @pytest.mark.parametrize("limit", [1, 17, 49, 50, 80])
    def test_limit_keeps_the_rows_of_convert_then_take(self, tmp_path, limit):
        g = np.random.default_rng(3)
        paths = write_pair(tmp_path,
                           idx_image_bytes(g.integers(0, 256, (50, 5, 7), dtype=np.uint8)),
                           idx_label_bytes(g.integers(0, 10, 50)))
        kept = load_idx_pair(*paths, limit=limit)
        ref = load_idx_pair(*paths).take(np.arange(min(limit, 50)))
        assert kept.num_classes == ref.num_classes
        kept_rows, ref_rows = kept.rows(slice(None)), ref.rows(slice(None))
        assert kept_rows.dtype == ref_rows.dtype == np.float64
        assert np.array_equal(kept_rows.view(np.uint64), ref_rows.view(np.uint64))
        assert kept.labels.dtype == np.int64 and np.array_equal(kept.labels, ref.labels)

    def test_limit_still_checks_every_label_and_both_counts(self, tmp_path):
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)),
                           idx_label_bytes([0, 1, 12]))
        with pytest.raises(IdxFormatError, match="labels: label 12 out of range for 10"):
            load_idx_pair(*paths, num_classes=10, limit=1)
        assert load_idx_pair(*paths, limit=1).num_classes == 13
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)),
                           idx_label_bytes([0, 1]))
        with pytest.raises(IdxFormatError, match="3 images but.*2 labels"):
            load_idx_pair(*paths, limit=1)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        # -1 would keep all rows but the last, 0 no row at all
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((5, 2, 2), dtype=np.uint8)),
                           idx_label_bytes([0, 1, 2, 0, 1]))
        with pytest.raises(ValueError, match=f"^limit must be at least 1, got {limit}$"):
            load_idx_pair(*paths, limit=limit)

    @pytest.mark.parametrize("limit", [2.5, 2.0, True])
    def test_non_integer_limit_rejected(self, tmp_path, limit):
        # a float failed in slicing with a TypeError; True kept one row
        paths = write_pair(tmp_path, idx_image_bytes(np.zeros((5, 2, 2), dtype=np.uint8)),
                           idx_label_bytes([0, 1, 2, 0, 1]))
        with pytest.raises(ValueError, match=f"^limit must be an integer, got {limit!r}$"):
            load_idx_pair(*paths, limit=limit)

    def test_pair_default_class_count(self, tmp_path):
        imgs = tmp_path / "imgs"
        labels = tmp_path / "labels"
        imgs.write_bytes(idx_image_bytes(np.zeros((3, 1, 1), dtype=np.uint8)))
        labels.write_bytes(idx_label_bytes([0, 4, 2]))
        ds = load_idx_pair(imgs, labels)
        assert ds.num_classes == 5


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([[0], [1]]), 2)
        with pytest.raises(ValueError, match="pixels must be 2-D"):
            Dataset(np.zeros((2, 2, 2), dtype=np.uint8), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="pixels must be 2-D and non-empty"):
            Dataset(np.zeros((2, 0), dtype=np.uint8), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="mean has shape"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), 2, mean=np.zeros(3))

    @pytest.mark.parametrize("num_classes", [2.5, True, "3"])
    def test_non_integer_class_count_rejected(self, num_classes):
        # 2.5 and True were kept as the class count; '3' raised a raw TypeError
        with pytest.raises(ValueError,
                           match=rf"^num_classes must be an integer, got {num_classes!r}$"):
            Dataset(np.zeros((3, 2)), [0, 1, 0], num_classes)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.0], [False, True]],
                             ids=["fractions", "whole floats", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # a cast to int64 would keep [0.5, 1.7] as the labels [0, 1]
        dtype = np.asarray(labels).dtype
        with pytest.raises(ValueError, match=f"labels must be integers, got dtype {dtype}"):
            Dataset(np.zeros((2, 2)), labels, 2)

    @pytest.mark.parametrize("indices", [[0.5, 1.5], [0.0, 1.0], [True, False, True]],
                             ids=["fractions", "whole floats", "bool"])
    def test_take_rejects_non_integer_indices(self, indices):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]), 2)
        dtype = np.asarray(indices).dtype
        with pytest.raises(ValueError, match=f"row indices must be integers, got dtype {dtype}"):
            ds.take(indices)

    @pytest.mark.parametrize("indices", [[-1], [6], [0, 6, 2], np.array([7], dtype=np.uint8)],
                             ids=["negative", "n", "n among others", "unsigned"])
    def test_take_rejects_indices_out_of_range(self, indices):
        # numpy would wrap -1 round to the last row and raise its own
        # IndexError for 6
        ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6) % 2, 2)
        with pytest.raises(ValueError, match=r"^row indices must lie in \[0, 6\)$"):
            ds.take(indices)
        assert len(ds.take([0, 5])) == 2

    @pytest.mark.parametrize("indices", [3, np.int64(3), [[1, 2]], [], np.array([], dtype=int)],
                             ids=["int", "numpy int", "2-D", "empty list", "empty array"])
    def test_take_rejects_indices_not_a_non_empty_row(self, indices):
        # a scalar or 2-D index would fail with a message about the features
        ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6) % 2, 2)
        shape = np.shape(indices)
        with pytest.raises(ValueError, match=rf"^row indices must be a non-empty 1-D array, "
                                             rf"got shape {re.escape(str(shape))}$"):
            ds.take(indices)

    def test_unsigned_labels_and_indices_accepted(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1], dtype=np.uint8), 2)
        assert ds.labels.dtype == np.int64
        sub = ds.take(np.array([2, 0], dtype=np.uint32))
        np.testing.assert_array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
        np.testing.assert_array_equal(sub.labels, [1, 0])

    def test_take_returns_independent_copy(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
        sub = ds.take([1, 3])
        sub.features[0, 0] = 99.0
        assert ds.features[1, 0] == 2.0
        np.testing.assert_array_equal(sub.labels, [1, 1])
        assert len(sub) == 2 and sub.dim == 2


class TestMeanSubtract:
    def test_train_mean_applied_to_all_splits(self):
        train = Dataset(np.array([[1.0, 3.0], [3.0, 5.0]]), np.array([0, 1]), 2)
        other = Dataset(np.array([[10.0, 10.0]]), np.array([0]), 2)
        new_train, new_other, mean = mean_subtract(train, other)
        np.testing.assert_array_equal(mean, [2.0, 4.0])
        np.testing.assert_allclose(new_train.rows(slice(None)).mean(axis=0), [0.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_array_equal(new_other.rows(slice(None)), [[8.0, 6.0]])

    def test_dim_mismatch(self):
        a = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), 1)
        b = Dataset(np.zeros((2, 4)), np.zeros(2, dtype=int), 1)
        with pytest.raises(ValueError):
            mean_subtract(a, b)

    def test_given_mean_applied_to_each_split(self):
        a = Dataset(np.array([[1.0, 3.0], [3.0, 5.0]]), np.array([0, 1]), 2)
        b = Dataset(np.array([[10.0, 10.0]]), np.array([0]), 2)
        a_features = a.features.copy()
        assert subtract_mean(np.array([0.5, -1.0]), a, b) is None
        # the stored rows stay as they are; the fetched rows are centred
        assert np.array_equal(a.features, a_features)
        np.testing.assert_array_equal(a.rows(slice(None)), [[0.5, 4.0], [2.5, 6.0]])
        np.testing.assert_array_equal(b.rows(slice(None)), [[9.5, 11.0]])
        with pytest.raises(ValueError, match="mean has shape"):
            subtract_mean(np.zeros(3), a)

    def test_mean_round_trip(self, tmp_path):
        mean = np.array([1.5, -2.25, 0.0])
        path = tmp_path / "mean.bin"
        save_mean(path, mean)
        np.testing.assert_array_equal(load_mean(path), mean)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_names_the_file(self, tmp_path, bad):
        path = tmp_path / "mean.bin"
        save_mean(path, np.array([0.5, bad, 0.25]))
        with pytest.raises(IdxFormatError, match="mean.bin: mean has non-finite values"):
            load_mean(path)

    def test_mean_file_truncation(self, tmp_path):
        path = tmp_path / "mean.bin"
        save_mean(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(IdxFormatError):
            load_mean(path)


class TestSyntheticBlobs:
    def test_deterministic(self):
        spec = SyntheticSpec(3, 10, 5, 1.0, 7)
        a, b = synth_blobs(spec), synth_blobs(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_layout_and_labels(self):
        ds = synth_blobs(SyntheticSpec(3, 4, 2, 0.5, 0))
        assert len(ds) == 12 and ds.dim == 2 and ds.num_classes == 3
        np.testing.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 4))

    def test_noise_scale_respected(self):
        tight = synth_blobs(SyntheticSpec(2, 500, 4, 0.1, 1))
        loose = synth_blobs(SyntheticSpec(2, 500, 4, 2.0, 1))
        spread = lambda ds: ds.features[ds.labels == 0].std(axis=0).mean()
        assert spread(tight) == pytest.approx(0.1, rel=0.15)
        assert spread(loose) == pytest.approx(2.0, rel=0.15)

    def test_classes_are_separable_at_low_noise(self):
        ds = synth_blobs(SyntheticSpec(4, 30, 10, 0.3, 2))
        centers = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        nearest = np.argmin(
            np.linalg.norm(ds.features[:, None, :] - centers[None], axis=2), axis=1
        )
        assert np.mean(nearest == ds.labels) > 0.99

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 1, 1, 1.0, 0)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 1, 0.0, 0)
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(1, 1, 1, float("nan"), 0)
        # a float seed was truncated when the blobs were drawn
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1.5$"):
            SyntheticSpec(seed=1.5)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("name", ["num_classes", "samples_per_class", "dim"])
    def test_non_integer_sizes_rejected(self, name, value):
        # 2.5 died in Rng.normal with a raw TypeError; True made one
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            SyntheticSpec(**{name: value})


class TestBatching:
    def test_epoch_covers_every_index_once(self):
        stream = minibatch_stream(10, 3, Rng(0))
        batches = [next(stream) for _ in range(4)]
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_epochs_reshuffle(self):
        stream = minibatch_stream(32, 32, Rng(1))
        first = next(stream)
        second = next(stream)
        assert sorted(first.tolist()) == sorted(second.tolist())
        assert not np.array_equal(first, second)

    def test_stream_is_deterministic(self):
        a = [next(minibatch_stream(20, 6, Rng(3))) for _ in range(1)]
        b = [next(minibatch_stream(20, 6, Rng(3))) for _ in range(1)]
        np.testing.assert_array_equal(a[0], b[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            next(minibatch_stream(5, 0, Rng(0)))
        with pytest.raises(ValueError, match="empty"):
            next(minibatch_stream(0, 2, Rng(0)))
        # a float size died in slicing with a raw TypeError
        with pytest.raises(ValueError, match=r"^batch_size must be an integer, got 2.5$"):
            next(minibatch_stream(5, 2.5, Rng(0)))
