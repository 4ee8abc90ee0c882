import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import central_diff, ref_mlp_backward, ref_mlp_forward
from emsoftmax import data
from emsoftmax.data import Dataset
from emsoftmax.model import (
    CheckpointError,
    MlpFeatureExtractor,
    WeakClassifierBank,
    load_checkpoint,
    save_checkpoint,
)
from emsoftmax.tensor import Rng
from emsoftmax.trainer import count_hits


class TestMlpFeatureExtractor:
    def test_gaussian_init_with_rng(self):
        net = MlpFeatureExtractor([100, 80], Rng(1))
        w = net.weights[0]
        assert abs(w.std() - np.sqrt(2.0 / 180.0)) < 0.005
        assert np.all(net.biases[0] == 0)
        assert net.input_dim == 100 and net.feature_dim == 80

    def test_forward_manual_relu_stack(self):
        net = MlpFeatureExtractor([2, 2, 1], Rng(0))
        net.weights[0] = np.array([[1.0, -1.0], [0.0, 2.0]])
        net.biases[0] = np.array([[0.5, -0.5]])
        net.weights[1] = np.array([[1.0], [3.0]])
        x = np.array([[1.0, 1.0], [-2.0, 0.5]])
        feats, cache = net.forward(x)
        hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)
        np.testing.assert_array_equal(feats, hidden @ net.weights[1])
        assert len(cache) == 2

    def test_relu_clips_negative_preactivations(self):
        net = MlpFeatureExtractor([1, 1, 1], Rng(0))
        net.weights[0] = np.array([[1.0]])
        net.weights[1] = np.array([[1.0]])
        feats, _ = net.forward(np.array([[-3.0]]))
        assert feats[0, 0] == 0.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = MlpFeatureExtractor([4, 5, 3], Rng(7))
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def scalar(net_):
            f, _ = net_.forward(x)
            return 0.5 * float(np.sum((f - target) ** 2))

        feats, cache = net.forward(x)
        param_grads = net.backward(cache, feats - target)

        for i in range(2):
            def f_w(w, i=i):
                old = net.weights[i]
                net.weights[i] = w
                try:
                    return scalar(net)
                finally:
                    net.weights[i] = old

            np.testing.assert_allclose(
                param_grads[i][0], central_diff(f_w, net.weights[i].copy()), atol=1e-5
            )

            def f_b(b, i=i):
                old = net.biases[i]
                net.biases[i] = b
                try:
                    return scalar(net)
                finally:
                    net.biases[i] = old

            np.testing.assert_allclose(
                param_grads[i][1], central_diff(f_b, net.biases[i].copy()), atol=1e-5
            )

    @pytest.mark.parametrize("dims", [[7, 4], [9, 6, 5], [8, 10, 6, 4]])
    def test_backward_matches_reference_bitwise(self, dims):
        # the reference also forms the input gradient; leaving it out must
        # not move a bit of the parameter gradients
        rng = np.random.default_rng(len(dims))
        net = MlpFeatureExtractor(dims, Rng(3))
        for b in net.biases:
            b += rng.normal(size=b.shape)
        for n in (1, 5, 32):
            feats, cache = net.forward(rng.normal(size=(n, dims[0])))
            grad = rng.normal(size=feats.shape)
            ref_grads, _ = ref_mlp_backward(net, cache, grad)
            got = net.backward(cache, grad)
            assert len(got) == len(ref_grads)
            for (gw, gb), (rw, rb) in zip(got, ref_grads):
                assert (gw == rw).all() and (gb == rb).all()
            # written into given arrays, as train's gradient views take them
            out = [(np.full(w.shape, np.nan), np.full(b.shape, np.nan))
                   for w, b in zip(net.weights, net.biases)]
            assert net.backward(cache, grad, out) is out
            for (gw, gb), (rw, rb) in zip(out, ref_grads):
                assert (gw == rw).all() and (gb == rb).all()

    @pytest.mark.parametrize("dims", [[7, 4], [9, 6, 5], [8, 10, 6, 4]])
    def test_forward_matches_reference_bitwise(self, dims):
        rng = np.random.default_rng(10 + len(dims))
        net = MlpFeatureExtractor(dims, Rng(4))
        for b in net.biases:
            b += rng.normal(size=b.shape)
        for n in (1, 5, 32):
            x = rng.normal(size=(n, dims[0]))
            feats, cache = net.forward(x)
            ref_feats, ref_cache = ref_mlp_forward(net, x)
            assert len(cache) == len(ref_cache)
            for got, want in zip([feats, *cache], [ref_feats, *ref_cache]):
                assert got.shape == want.shape
                assert (got.view(np.uint64) == want.view(np.uint64)).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpFeatureExtractor([4], Rng(0))
        with pytest.raises(ValueError):
            MlpFeatureExtractor([4, 0, 2], Rng(0))
        net = MlpFeatureExtractor([4, 2], Rng(0))
        with pytest.raises(ValueError, match="input dim"):
            net.forward(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            net.backward([], np.zeros((1, 2)))

    @pytest.mark.parametrize("dims, bad", [([4.7, 3], "layer dim 0 .* 4.7"),
                                           ([True, 3], "layer dim 0 .* True"),
                                           (["4", 3], "layer dim 0 .* '4'"),
                                           ([4, 3.0], "layer dim 1 .* 3.0")],
                             ids=["fraction", "bool", "string", "whole float"])
    def test_non_integer_dims_rejected(self, dims, bad):
        # int() would build [4, 3] from 4.7 and [1, 3] from True
        with pytest.raises(ValueError, match=f"^{bad}"):
            MlpFeatureExtractor(dims, Rng(0))

    def test_numpy_integer_dims_stored_as_ints(self):
        net = MlpFeatureExtractor(np.array([4, 3]), Rng(0))
        assert net.layer_dims == [4, 3] and all(type(d) is int for d in net.layer_dims)


class TestWeakClassifierBank:
    def test_heads_have_distinct_initializations(self):
        bank = WeakClassifierBank(6, 4, 3, Rng(5))
        assert bank.num_heads == 3
        assert not np.array_equal(bank.heads[0], bank.heads[1])
        assert not np.array_equal(bank.heads[1], bank.heads[2])

    def test_deterministic_given_rng_seed(self):
        a = WeakClassifierBank(6, 4, 2, Rng(5))
        b = WeakClassifierBank(6, 4, 2, Rng(5))
        for wa, wb in zip(a.heads, b.heads):
            np.testing.assert_array_equal(wa, wb)

    def test_heads_are_one_contiguous_array(self):
        bank = WeakClassifierBank(6, 4, 3, Rng(5))
        assert bank.heads.shape == (3, 6, 4) and bank.heads.dtype == np.float64
        assert bank.heads.flags["C_CONTIGUOUS"]

    def test_dims_read_the_heads_array(self):
        bank = WeakClassifierBank(6, 4, 3, Rng(5))
        assert (bank.num_heads, bank.feature_dim, bank.num_classes) == (3, 6, 4)
        bank.heads = np.ones((2, 7, 5))
        assert (bank.num_heads, bank.feature_dim, bank.num_classes) == (2, 7, 5)
        with pytest.raises(AttributeError):
            bank.feature_dim = 6

    def test_assemble_averages_heads(self):
        bank = WeakClassifierBank(3, 2, 2, Rng(0))
        bank.heads = np.stack([np.full((3, 2), 1.0), np.full((3, 2), 3.0)])
        np.testing.assert_array_equal(bank.assemble(), np.full((3, 2), 2.0))

    def test_single_head_assemble_is_identity(self):
        bank = WeakClassifierBank(4, 3, 1, Rng(2))
        np.testing.assert_array_equal(bank.assemble(), bank.heads[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            WeakClassifierBank(0, 3, 1, Rng(0))
        with pytest.raises(ValueError):
            WeakClassifierBank(3, 3, 0, Rng(0))

    @pytest.mark.parametrize("sizes, name", [((3.5, 4, 2), "feature_dim"),
                                             ((3, 4.0, 2), "num_classes"),
                                             ((3, 4, True), "num_heads"),
                                             ((3, 4, 2.0), "num_heads")],
                             ids=["fraction", "whole float", "bool", "whole float heads"])
    def test_non_integer_sizes_rejected(self, sizes, name):
        # True would build one head, and 3.5 fail in Rng.normal with a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            WeakClassifierBank(*sizes, Rng(0))
        assert WeakClassifierBank(*np.array([3, 4, 2]), Rng(0)).heads.shape == (2, 3, 4)


class TestEnsembleClassifier:
    """The assembled (averaged) classifier, as ``count_hits`` scores it."""

    @staticmethod
    def hits(w_avg, features, labels):
        bank = WeakClassifierBank(*w_avg.shape, 1, Rng(0))
        bank.heads = np.asarray(w_avg, dtype=np.float64)[None]
        features = np.asarray(features, dtype=np.float64)
        return count_hits(None, bank, Dataset(features, np.asarray(labels), w_avg.shape[1]))[0]

    def test_predict_argmax(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        feats = [[2.0, 1.0], [0.1, 0.4]]
        assert self.hits(w, feats, [0, 1]) == 2
        assert self.hits(w, feats, [1, 0]) == 0

    def test_ties_resolve_to_lowest_index(self):
        feats = [[1.0, 1.0, 1.0], [0.0, 2.0, 2.0]]
        assert self.hits(np.eye(3), feats, [0, 1]) == 2
        assert self.hits(np.eye(3), feats, [2, 2]) == 0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            self.hits(np.eye(3), np.zeros((1, 4)), [0])


class TestCheckpoint:
    def make_pair(self):
        net = MlpFeatureExtractor([5, 4, 3], Rng(11))
        bank = WeakClassifierBank(3, 4, 2, Rng(12))
        return net, bank

    def write_with_crc(self, path, body):
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))

    def test_round_trip_bitwise(self, tmp_path):
        net, bank = self.make_pair()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, bank)
        net2, bank2 = load_checkpoint(path)
        assert net2.layer_dims == net.layer_dims
        for a, b in zip(net.weights, net2.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(net.biases, net2.biases):
            np.testing.assert_array_equal(a, b)
        assert bank2.num_heads == 2
        assert bank2.feature_dim == 3 and bank2.num_classes == 4
        for a, b in zip(bank.heads, bank2.heads):
            np.testing.assert_array_equal(a, b)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        net, bank = self.make_pair()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, bank)
        before = path.read_bytes()
        real_open = open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, payload):
                self.fh.write(payload[: len(payload) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(data, "open", lambda *a: HalfWriter(real_open(*a)), raising=False)
        bank.heads[0] += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net, bank)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        net, bank = self.make_pair()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        net, bank = self.make_pair()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        blob = path.read_bytes()
        path.write_bytes(blob[:3])
        with pytest.raises(CheckpointError, match="short"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        net, bank = self.make_pair()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        blob = bytearray(path.read_bytes()[:-4])
        # bump the version word that follows the 4-byte magic
        blob[4:8] = struct.pack("<I", 99)
        self.write_with_crc(path, bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layer, shape", [("w0", (20, 31)), ("b1", (1, 23))])
    def test_layer_shape_must_match_header_dims(self, tmp_path, layer, shape):
        # a CRC-valid file whose arrays disagree with its own header
        net = MlpFeatureExtractor([20, 32, 24], Rng(1))
        bank = WeakClassifierBank(24, 10, 2, Rng(2))
        params = net.weights if layer[0] == "w" else net.biases
        params[int(layer[1])] = np.zeros(shape)
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        with pytest.raises(CheckpointError, match=layer):
            load_checkpoint(path)

    @pytest.mark.parametrize("bank_shape, match", [((0, 3, 4), "0 heads"),
                                                   ((2, 6, 4), "6-dim features"),
                                                   ((1, 3, 0), "0 classes")])
    def test_bank_header_must_fit_network(self, tmp_path, bank_shape, match):
        # a CRC-valid file whose bank cannot score the network's features
        net = MlpFeatureExtractor([5, 4, 3], Rng(11))
        bank = WeakClassifierBank(3, 4, 1, Rng(12))
        bank.heads = np.ones(bank_shape)
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\x00\x01\x02",
                                       struct.pack("<II", 3, 4) + bytes(8 * 12)],
                             ids=["3 junk bytes", "extra array"])
    def test_bytes_after_the_bank_rejected(self, tmp_path, extra):
        net, bank = self.make_pair()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        self.write_with_crc(path, path.read_bytes()[:-4] + extra)
        with pytest.raises(CheckpointError, match=f"{len(extra)} bytes after the last head"):
            load_checkpoint(path)

    def test_head_shape_must_match_bank_header(self, tmp_path):
        # the last head's (rows, cols) says (4, 3) where the bank header
        # says (3, 4): the same payload size, in the wrong shape
        net, bank = self.make_pair()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        body = bytearray(path.read_bytes()[:-4])
        at = len(body) - 8 * 12 - 8
        assert struct.unpack("<II", body[at : at + 8]) == (3, 4)
        body[at : at + 8] = struct.pack("<II", 4, 3)
        self.write_with_crc(path, bytes(body))
        with pytest.raises(CheckpointError,
                           match=r"head 1 has shape \(4, 3\), header says \(3, 4\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block, value, match", [
        ("head0", np.nan, "head 0"), ("head1", -np.inf, "head 1"),
        ("w0", np.inf, r"layer 0 w0 of dims \[5, 4, 3\]"),
        ("b1", np.nan, r"layer 1 b1 of dims \[5, 4, 3\]"),
    ])
    def test_non_finite_values_rejected_naming_the_array(self, tmp_path, block, value, match):
        # a CRC-valid file, as damage before saving or another writer
        # leaves it: NaN scores would still print an accuracy
        net, bank = self.make_pair()
        if block.startswith("head"):
            bank.heads[int(block[-1]), 1, 2] = value
        else:
            (net.weights if block[0] == "w" else net.biases)[int(block[1])][0, 1] = value
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, net, bank)
        with pytest.raises(CheckpointError, match=f"^{match} has non-finite values$"):
            load_checkpoint(path)

    def test_unbuildable_header_dims(self, tmp_path):
        # magic, version 1, one layer dim: no network can have that shape
        path = tmp_path / "x.ckpt"
        self.write_with_crc(path, b"EMSM" + struct.pack("<III", 1, 1, 20))
        with pytest.raises(CheckpointError, match="dims"):
            load_checkpoint(path)

    def test_load_peaks_below_two_and_a_half_file_sizes(self, tmp_path):
        # the file's bytes plus one copy of every array: no sliced payload,
        # no sliced array bytes, no zero weights built and then replaced
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, MlpFeatureExtractor([300, 200, 100], Rng(1)),
                        WeakClassifierBank(100, 10, 2, Rng(2)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            net, bank = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size, (peak, size)
        assert net.layer_dims == [300, 200, 100] and bank.heads.shape == (2, 100, 10)
        assert all(w.flags.writeable and w.flags.owndata for w in net.weights + net.biases)
        assert bank.heads.flags.writeable and bank.heads.dtype == np.float64

    def test_huge_header_dims_without_payload_are_truncated(self, tmp_path):
        # a 2^20 x 2^20 layer would need 8 TiB: every array is read against
        # the file's size before the network is built
        path = tmp_path / "x.ckpt"
        self.write_with_crc(path, b"EMSM" + struct.pack("<IIII", 1, 2, 2**20, 2**20))
        with pytest.raises(CheckpointError, match="^truncated checkpoint: wanted 8 bytes"):
            load_checkpoint(path)
