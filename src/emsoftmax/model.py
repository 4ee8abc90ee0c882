"""Small MLP feature extractor, weak-classifier bank, and checkpoints.

The network is deliberately modest: a stack of affine+ReLU layers with a
linear output producing the feature vector that the bank of weak linear
classifiers scores. Both draw their starting weights from an
:class:`~emsoftmax.tensor.Rng`; a loaded checkpoint builds them around
its arrays instead. The bank holds its V heads as one ``(V, d, K)``
array, which the loss scores as one block. Training rebinds every
weight, bias and the heads to views of one flat buffer
(:func:`~emsoftmax.trainer.train`); each keeps its shape and stays
C-contiguous float64. At test time the bank collapses into one averaged
``(d, K)`` classifier ``W = (1/V) sum_v Wv`` so prediction cost does not
grow with the ensemble size.

Checkpoints are a self-describing little-endian binary format (magic,
version, layer dims, raw float64 payload, CRC-32 trailer). Loading
verifies magic, version, and checksum separately so corruption reports
what actually went wrong. Each array's ``(rows, cols)`` is checked
against the shape the header implies before its payload is read, every
layer is read before the network is built, and bytes after the last
head are rejected.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .data import write_atomic
from .tensor import Rng, as_matrix, check_count, gaussian_init, xavier_scale

__all__ = [
    "MlpFeatureExtractor",
    "WeakClassifierBank",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"EMSM"
_VERSION = 1


class CheckpointError(Exception):
    """A checkpoint is unreadable: bad magic, version, size, CRC, or shapes."""


def _check_layer_dims(dims: list) -> None:
    """At least an input and an output dim, each a count (see
    :func:`~emsoftmax.tensor.check_count`)."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output dim")
    for i, d in enumerate(dims):
        check_count(d, f"layer dim {i}")


class MlpFeatureExtractor:
    """Affine+ReLU stack with a linear final layer.

    layer_dims lists every width from input to feature output, e.g.
    ``[784, 512, 256]`` is 784 -> ReLU(512) -> 256. Weights are drawn from
    ``rng``, Gaussian with Xavier scale sqrt(2/(fan_in+fan_out)); biases
    start at zero.
    """

    def __init__(self, layer_dims, rng: Rng):
        dims = list(layer_dims)
        _check_layer_dims(dims)
        self.layer_dims = dims = [int(d) for d in dims]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.weights.append(
                gaussian_init(fan_in, fan_out, xavier_scale(fan_in, fan_out), rng))
            self.biases.append(np.zeros((1, fan_out)))

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    def forward(self, x_batch: np.ndarray):
        """Features plus the cache of each layer's input the backward needs.

        Each layer's product is the one fresh array it makes: the bias is
        added to it and the ReLU applied to it in place.
        """
        a = as_matrix(x_batch, "x_batch")
        if a.shape[1] != self.input_dim:
            raise ValueError(
                f"network expects input dim {self.input_dim}, got {a.shape[1]}"
            )
        inputs = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            a = a @ w
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a, inputs

    def backward(self, cache, grad_features: np.ndarray, out=None):
        """Backpropagate a feature gradient through the stack.

        Returns [(grad_w, grad_b), ...] aligned with the layers. With
        ``out``, a list of such pairs shaped like the layers (the views
        :func:`~emsoftmax.trainer.train` holds into its gradient buffer),
        each gradient is written straight into its array, and ``out`` is
        returned; otherwise they are fresh arrays. The gradient with
        respect to the input batch is not formed.
        """
        grad = as_matrix(grad_features, "grad_features")
        if len(cache) != len(self.weights):
            raise ValueError("cache does not match the network depth")
        if out is None:
            out = [(np.empty(w.shape), np.empty(b.shape))
                   for w, b in zip(self.weights, self.biases)]
        for i in range(len(self.weights) - 1, -1, -1):
            grad_w, grad_b = out[i]
            np.matmul(cache[i].T, grad, out=grad_w)
            np.add.reduce(grad, axis=0, keepdims=True, out=grad_b)
            if i > 0:
                # ReLU mask from this layer's input max(pre, 0), which is
                # positive exactly where pre > 0 (NaN included).
                grad = grad @ self.weights[i].T
                grad *= cache[i] > 0.0
        return out


class WeakClassifierBank:
    """V weak linear classifiers (d x K each) over a shared feature space.

    ``heads`` is one C-contiguous ``(V, d, K)`` float64 array; ``heads[v]``
    is head v, and ``num_heads``, ``feature_dim`` and ``num_classes`` read
    its shape. Heads are initialized from per-head spawned RNG streams so
    each head starts at a different point; identical starts would make
    the diversity penalty's symmetry hard to break.
    """

    def __init__(self, feature_dim: int, num_classes: int, num_heads: int, rng: Rng):
        check_count(feature_dim, "feature_dim")
        check_count(num_classes, "num_classes")
        check_count(num_heads, "num_heads")
        scale = xavier_scale(feature_dim, num_classes)
        self.heads = np.array([
            gaussian_init(feature_dim, num_classes, scale, rng.spawn(1000 + v))
            for v in range(num_heads)
        ])

    @property
    def num_heads(self) -> int:
        return self.heads.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.heads.shape[1]

    @property
    def num_classes(self) -> int:
        return self.heads.shape[2]

    def assemble(self) -> np.ndarray:
        """The single test-time classifier: the mean of the heads, (d, K)."""
        return self.heads.mean(axis=0)


def _pack_array(a: np.ndarray) -> bytes:
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return struct.pack("<II", a.shape[0], a.shape[1]) + data


class _Reader:
    """Reads a checkpoint's payload, the file's bytes before the CRC, in
    place: arrays are read-only views of ``blob``, copied by the caller."""

    def __init__(self, blob: bytes, end: int):
        self.blob = blob
        self.end = end
        self.pos = 0

    def skip(self, n: int) -> int:
        """Offset of the next ``n`` bytes, which the reader then passes."""
        if self.pos + n > self.end:
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {self.end}"
            )
        self.pos += n
        return self.pos - n

    def u32(self) -> int:
        return struct.unpack_from("<I", self.blob, self.skip(4))[0]

    def array(self, shape: tuple[int, int], what: str) -> np.ndarray:
        """A view of the next array, whose ``(rows, cols)`` must be
        ``shape`` and whose values must all be finite."""
        found = struct.unpack_from("<II", self.blob, self.skip(8))
        if found != shape:
            raise CheckpointError(f"{what} has shape {found}, header says {shape}")
        count = shape[0] * shape[1]
        offset = self.skip(count * 8)
        values = np.frombuffer(self.blob, "<f8", count, offset).reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{what} has non-finite values")
        return values


def save_checkpoint(path, net: MlpFeatureExtractor, bank: WeakClassifierBank) -> None:
    """Write network + bank to ``path`` with a CRC-32 trailer, atomically."""
    body = bytearray()
    body += struct.pack("<I", _VERSION)
    body += struct.pack("<I", len(net.layer_dims))
    for d in net.layer_dims:
        body += struct.pack("<I", d)
    for w, b in zip(net.weights, net.biases):
        body += _pack_array(w)
        body += _pack_array(b)
    body += struct.pack(
        "<III", bank.num_heads, bank.feature_dim, bank.num_classes
    )
    for w in bank.heads:
        body += _pack_array(w)
    blob = _MAGIC + bytes(body)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    write_atomic(path, blob + struct.pack("<I", crc))


def load_checkpoint(path) -> tuple[MlpFeatureExtractor, WeakClassifierBank]:
    """Read a checkpoint, verifying magic, version, and checksum.

    A NaN or infinite weight is a :class:`CheckpointError` naming its
    array: its scores would be NaN, and eval would print an accuracy
    for a model that cannot rank classes.

    The file's bytes are read once and every array is copied straight
    out of them, so loading holds about twice the file's size at its
    peak.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 4:
        raise CheckpointError(f"file too short to be a checkpoint ({len(blob)} bytes)")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"bad magic {blob[:len(_MAGIC)]!r}, expected {_MAGIC!r}")
    end = len(blob) - 4
    crc = struct.unpack_from("<I", blob, end)[0]
    actual = zlib.crc32(memoryview(blob)[:end]) & 0xFFFFFFFF
    if crc != actual:
        raise CheckpointError(
            f"checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )
    r = _Reader(blob, end)
    r.skip(len(_MAGIC))
    version = r.u32()
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    n_dims = r.u32()
    dims = [r.u32() for _ in range(n_dims)]
    # every array is read, against the file's size, before the network is
    # built: a header that claims huge layers cannot allocate them
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weights.append(r.array((fan_in, fan_out), f"layer {i} w{i} of dims {dims}").copy())
        biases.append(r.array((1, fan_out), f"layer {i} b{i} of dims {dims}").copy())
    try:
        _check_layer_dims(dims)
    except ValueError as exc:
        raise CheckpointError(f"bad layer dims {dims}: {exc}") from exc
    # built around the arrays just read, without drawing weights to replace
    net = MlpFeatureExtractor.__new__(MlpFeatureExtractor)
    net.layer_dims, net.weights, net.biases = dims, weights, biases
    num_heads = r.u32()
    feature_dim = r.u32()
    num_classes = r.u32()
    if num_heads < 1:
        raise CheckpointError("bank header says 0 heads")
    if num_classes < 1:
        raise CheckpointError("bank header says 0 classes")
    if feature_dim != dims[-1]:
        raise CheckpointError(
            f"bank expects {feature_dim}-dim features, network emits {dims[-1]}"
        )
    heads = [r.array((feature_dim, num_classes), f"head {v}") for v in range(num_heads)]
    if r.pos != end:
        raise CheckpointError(f"{end - r.pos} bytes after the last head")
    bank = WeakClassifierBank.__new__(WeakClassifierBank)
    bank.heads = np.array(heads)
    return net, bank
