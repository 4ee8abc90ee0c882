"""Dataset handling: IDX image files, preprocessing, synthetic blobs.

One IDX reader covers the classic big-endian format used by the MNIST
distribution files: magic 0x00000803 for uint8 image tensors and
0x00000801 for uint8 label vectors. Gzipped files are detected from the
two-byte gzip signature, so both ``t10k-images-idx3-ubyte`` and
``t10k-images-idx3-ubyte.gz`` work unchanged. The reader checks the
whole file (the gzip stream, the magic, every dimension positive, the
payload size the header implies) and reports any fault as an
:class:`IdxFormatError` naming the file.

Images stay in their stored form: a split holds the file's uint8
pixels, one byte per value, and :meth:`Dataset.rows` decodes only the
rows a batch or an evaluation chunk fetches, to ``pixel / 255`` in
float64. With a row limit (the ``limit_train`` config key) only the kept
rows' bytes are kept, though every label and both row counts are still
checked. The only other preprocessing offered is global mean
subtraction with the training mean applied to every split (or a stored
mean reapplied). The mean is recorded on each split and subtracted from
each decoded row, so no float64 copy of a split is ever made; the
training mean itself is summed over decoded chunks of a 32nd of the
split, in the row order ``np.mean(axis=0)`` uses.

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

from .tensor import Rng, as_indices, as_matrix, check_count, check_integer

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


def _mean_chunk_rows(n: int) -> int:
    """Rows per decoded chunk of :meth:`Dataset.feature_mean` on an
    n-row split: a 32nd of it, so from 32 rows on a float64 chunk holds at
    most a quarter of the split's uint8 bytes."""
    return max(1, n // 32)


class IdxFormatError(Exception):
    """An IDX file failed structural validation (magic/size/consistency)."""


@dataclass
class Dataset:
    """Labelled rows: ``features`` (n x d) with integer labels in [0, K).

    ``features`` is kept as stored: float64 rows, or uint8 IDX pixels,
    which stand for ``pixel / 255``. With a ``mean`` (d,) every row is
    centred by it. :meth:`rows` gives the rows in the form the model
    sees, decoding and centring only the rows asked for.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    mean: np.ndarray | None = None

    def __post_init__(self):
        if getattr(self.features, "dtype", None) != np.uint8:
            self.features = as_matrix(self.features, "features")
        elif self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(f"pixels must be 2-D and non-empty, got shape {self.features.shape}")
        check_count(self.num_classes, "num_classes")
        self.labels = as_indices(self.labels, self.num_classes, "labels")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels"
            )
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=np.float64)
            if self.mean.shape != (self.dim,):
                raise ValueError(f"split has dim {self.dim}, mean has shape {self.mean.shape}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows(self, index) -> np.ndarray:
        """The float64 rows ``features[index]``, decoded and centred.

        Pixels are converted to a fresh array, divided by 255 and centred
        by the mean in place: the same operations, element by
        element, as converting the whole split and centring it. Float64
        rows without a mean are ``features[index]`` itself (a view for a
        slice).
        """
        if self.features.dtype != np.uint8:
            out = self.features[index]
            return out if self.mean is None else out - self.mean
        out = _decode(self.features[index])
        if self.mean is not None:
            out -= self.mean
        return out

    def feature_mean(self) -> np.ndarray:
        """The mean of the uncentred rows, as ``np.mean(axis=0)`` of the
        decoded split gives it, bit for bit.

        Pixels are decoded :func:`_mean_chunk_rows` rows at a time.
        numpy adds the rows of an (n, d) array in order, so each chunk's
        first row takes in the running sum before the chunk is summed, and
        the bits do not depend on the chunk size. A single column is summed
        pairwise instead, so it is decoded whole.
        """
        n, d = self.features.shape
        if self.features.dtype != np.uint8:
            return np.mean(self.features, axis=0)
        if d == 1:
            return np.mean(_decode(self.features), axis=0)
        step = _mean_chunk_rows(n)
        total = np.zeros(d)
        for start in range(0, n, step):
            chunk = _decode(self.features[start : start + step])
            chunk[0] += total
            np.sum(chunk, axis=0, out=total)
            # the next chunk is then decoded with no other one alive
            del chunk
        total /= n
        return total

    def take(self, indices) -> "Dataset":
        """Row subset (copy) with the same class count and mean; the
        indices are a non-empty 1-D integer array, each in ``[0, n)``."""
        # integer-array indexing always returns a fresh array
        indices = as_indices(indices, len(self), "row indices")
        return Dataset(self.features[indices], self.labels[indices], self.num_classes, self.mean)


def _decode(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float64 values ``pixel / 255`` (a fresh array).

    Converting first and dividing in place needs no cast buffer, which a
    mixed-type ``np.divide`` would allocate.
    """
    out = pixels.astype(np.float64)
    out /= 255.0
    return out


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
    checked, also past ``limit``. The Dataset holds the file's uint8
    pixels, one image per row; with a ``limit`` below the count only the
    kept rows are copied, so the rest of the file's bytes can be freed.
    A ``limit`` that is not an integer of at least 1 is a ValueError.
    """
    if limit is not None:
        check_count(limit, "limit")
    images = _read_idx(image_path, _IMAGE_MAGIC, 3)
    count = len(images)
    images = images.reshape(count, -1)
    if limit is not None and limit < count:
        # rebinding to the copy lets go of the file's bytes before the
        # labels are read
        images = images[:limit].copy()
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
    """Centre every split by the training-set feature mean.

    Returns (train, *others, mean_vector): the same Dataset objects, now
    carrying the mean (see :func:`subtract_mean`). The mean comes from
    the training split only so evaluation data never leaks into
    preprocessing.
    """
    mean = train.feature_mean()
    subtract_mean(mean, train, *others)
    return (train, *others, mean)


def subtract_mean(mean: np.ndarray, *splits: Dataset) -> None:
    """Centre each split by a given feature mean: its :meth:`Dataset.rows`
    subtract ``mean`` from every row they return. Stored features stay
    as they are, and a split's earlier mean is replaced.

    Every split's dim is checked before any of them changes.
    """
    for ds in splits:
        if mean.shape != (ds.dim,):
            raise ValueError(f"split has dim {ds.dim}, mean has shape {mean.shape}")
    for ds in splits:
        ds.mean = mean


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
    """The mean :func:`save_mean` wrote; a damaged or non-finite one is an
    :class:`IdxFormatError` naming the file."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: mean file truncated")
    (size,) = struct.unpack("<I", blob[:4])
    if len(blob) != 4 + 8 * size:
        raise IdxFormatError(
            f"{path}: mean payload is {len(blob) - 4} bytes, header implies {8 * size}"
        )
    mean = np.frombuffer(blob[4:], dtype="<f8").astype(np.float64)
    if not np.isfinite(mean).all():
        raise IdxFormatError(f"{path}: mean has non-finite values")
    return mean


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
        for name in ("num_classes", "samples_per_class", "dim"):
            check_count(getattr(self, name), name)
        check_integer(self.seed, "seed")
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
    check_count(batch_size, "batch_size")
    if n < 1:
        raise ValueError("cannot batch an empty dataset")
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]
