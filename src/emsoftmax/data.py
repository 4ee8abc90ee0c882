"""Dataset handling: IDX image files, preprocessing, synthetic blobs.

One IDX reader covers the classic big-endian format used by the MNIST
distribution files: magic 0x00000803 for uint8 image tensors and
0x00000801 for uint8 label vectors. Gzipped files are detected from the
two-byte gzip signature, so both ``t10k-images-idx3-ubyte`` and
``t10k-images-idx3-ubyte.gz`` work unchanged. The reader checks the
whole file (the gzip stream, the magic, every dimension positive, the
payload size the header implies) and reports any fault as an
:class:`IdxFormatError` naming the file. Pixels scale to [0, 1]: the
payload is viewed in place and copied once to float64, the array the
model sees. With a row limit (the ``limit_train`` config key) only the
kept rows are copied, though every label and both row counts are still
checked. The only other preprocessing offered is
global mean subtraction with the training mean applied to every split
(or a stored mean reapplied); it works in place on the given splits, so
no second copy of the data exists at any point.

When no image data is on disk, :func:`synth_blobs` generates a
deterministic Gaussian-mixture classification problem from the same
counter-based RNG used everywhere else, which keeps the trainer and CLI
exercisable end to end. The noise is drawn into the feature array, then
scaled and shifted by its class centre in place, so the set is its only
full-size array.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Rng, as_matrix

__all__ = [
    "Dataset",
    "IdxFormatError",
    "load_idx_pair",
    "mean_subtract",
    "subtract_mean",
    "save_mean",
    "load_mean",
    "write_atomic",
    "SyntheticSpec",
    "synth_blobs",
    "minibatch_stream",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class IdxFormatError(Exception):
    """An IDX file failed structural validation (magic/size/consistency)."""


@dataclass
class Dataset:
    """Feature matrix (n x d, float64) with integer labels in [0, K)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset (copy) with the same class count."""
        # integer-array indexing always returns a fresh array
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def _read_idx(path, magic: int, n_dims: int) -> np.ndarray:
    """The uint8 payload of an IDX file, in the shape its header gives."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"{path}: bad gzip stream: {exc}") from exc
    need = 4 * (1 + n_dims)
    if len(blob) < need:
        raise IdxFormatError(f"{path}: header truncated ({len(blob)} bytes)")
    found, *shape = struct.unpack(f">{1 + n_dims}I", blob[:need])
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic {found:#010x}, expected {magic:#010x}")
    if 0 in shape:
        raise IdxFormatError(f"{path}: header dims {tuple(shape)} include a zero")
    expected = math.prod(shape)
    if len(blob) - need != expected:
        raise IdxFormatError(
            f"{path}: payload is {len(blob) - need} bytes, header implies {expected}"
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=need).reshape(shape)


def load_idx_pair(image_path, label_path, num_classes: int | None = None,
                  limit: int | None = None) -> Dataset:
    """Matched image/label files as one Dataset, or its first ``limit`` rows.

    The class count defaults to max(label) + 1, which is 10 for the usual
    digit files; a given count that some label reaches is a format error
    naming the label file. Every label and both files' row counts are
    checked, also past ``limit``; only the kept rows become float64.
    """
    images = _read_idx(image_path, _IMAGE_MAGIC, 3)
    count = len(images)
    # rebinding to the float64 copy of the kept rows lets go of the file's
    # bytes before the labels are read
    images = images[:limit].reshape(-1, math.prod(images.shape[1:])).astype(np.float64)
    images /= 255.0
    labels = _read_idx(label_path, _LABEL_MAGIC, 1)
    if count != len(labels):
        raise IdxFormatError(
            f"{image_path} has {count} images but {label_path} has {len(labels)} labels"
        )
    top = int(labels.max())
    if num_classes is None:
        num_classes = top + 1
    elif top >= num_classes:
        raise IdxFormatError(
            f"{label_path}: label {top} out of range for {num_classes} classes"
        )
    return Dataset(images, labels[:limit].astype(np.int64), num_classes)


def mean_subtract(train: Dataset, *others: Dataset):
    """Subtract the training-set feature mean from every split, in place.

    Returns (train, *others, mean_vector): the same Dataset objects, now
    centred. The mean comes from the training split only so evaluation
    data never leaks into preprocessing.
    """
    mean = np.mean(train.features, axis=0)
    subtract_mean(mean, train, *others)
    return (train, *others, mean)


def subtract_mean(mean: np.ndarray, *splits: Dataset) -> None:
    """Subtract a given feature mean from each split's features in place.

    Every split's dim is checked before any of them changes.
    """
    for ds in splits:
        if mean.shape != (ds.dim,):
            raise ValueError(f"split has dim {ds.dim}, mean has shape {mean.shape}")
    for ds in splits:
        ds.features -= mean


def write_atomic(path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` in one step.

    The bytes go to a temporary file in the same directory, which
    ``os.replace`` then moves over ``path``; a write that fails midway
    removes the temporary file and leaves any previous ``path`` intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_mean(path, mean: np.ndarray) -> None:
    """Persist the preprocessing mean so eval runs can reapply it."""
    mean = np.ascontiguousarray(np.asarray(mean, dtype=np.float64).ravel(), dtype="<f8")
    write_atomic(path, struct.pack("<I", mean.size) + mean.tobytes())


def load_mean(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: mean file truncated")
    (size,) = struct.unpack("<I", blob[:4])
    if len(blob) != 4 + 8 * size:
        raise IdxFormatError(
            f"{path}: mean payload is {len(blob) - 4} bytes, header implies {8 * size}"
        )
    return np.frombuffer(blob[4:], dtype="<f8").copy()


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian blob mixture: one spherical cluster per class.

    centers default to random unit-ish directions drawn from the seed, so
    two specs with equal fields describe byte-identical datasets.
    """

    num_classes: int = 10
    samples_per_class: int = 100
    dim: int = 16
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.samples_per_class < 1 or self.dim < 1:
            raise ValueError("num_classes, samples_per_class, dim must be positive")
        if not (math.isfinite(self.noise_std) and self.noise_std > 0):
            raise ValueError("noise_std must be finite and positive")


def synth_blobs(spec: SyntheticSpec) -> Dataset:
    """Deterministic blob dataset; rows are ordered class by class."""
    rng = Rng(spec.seed)
    centers = rng.spawn(1).normal((spec.num_classes, spec.dim))
    # class by class, each row's noise scaled and then its centre added
    # in place (the same sums as centre + std * noise)
    features = rng.spawn(2).normal((spec.num_classes, spec.samples_per_class, spec.dim))
    features *= spec.noise_std
    features += centers[:, None, :]
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    return Dataset(features.reshape(-1, spec.dim), labels, spec.num_classes)


def minibatch_stream(n: int, batch_size: int, rng: Rng):
    """Endless batch indices, one shuffled epoch after another (an epoch's
    last batch may be short); the arguments are checked at the first next."""
    if not 1 <= batch_size:
        raise ValueError("batch_size must be positive")
    if n < 1:
        raise ValueError("cannot batch an empty dataset")
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]
