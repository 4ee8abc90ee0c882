"""Dense float64 matrix helpers and a deterministic, counter-based RNG.

Everything downstream (losses, model, trainer) moves data as plain 2-D
``numpy.ndarray`` objects in row-major float64. The helpers here add the
shape checking the rest of the package relies on, plus weight
initialization driven by a fully-owned random number generator so that
runs reproduce bit-for-bit across machines regardless of the platform's
RNG implementation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Rng",
    "as_matrix",
    "gaussian_init",
    "sum_in_order",
    "xavier_scale",
]

# splitmix64 constants (Steele, Lea, Flood 2014). The generator is
# counter-based: output k of a stream is finalize(seed + (k+1)*GAMMA),
# which makes vectorized generation and stream-splitting trivial.
# Single words are mixed as Python ints masked to 64 bits, which is much
# cheaper than numpy scalars.
_GAMMA_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _MIX1, _MIX2 = np.uint64(_GAMMA_INT), np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_U53 = float(2.0**-53)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer (bijective avalanche on 64-bit words)."""
    # all arithmetic is modulo 2**64 by design
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    """:func:`_mix` of one word held as a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based random stream.

    A stream is identified by a 64-bit seed; the k-th raw draw is
    ``splitmix64_finalize(seed + (k+1)*GAMMA)``. Identical seeds give
    identical streams on every platform (up to libm rounding in the
    normal transform). ``spawn`` derives statistically independent child
    streams from (seed, tag) without consuming draws from the parent.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def counter(self) -> int:
        return self._counter

    def spawn(self, tag: int) -> "Rng":
        """Derive an independent child stream from this seed and a tag."""
        return Rng(_mix_int(self._seed ^ _mix_int(((tag & _MASK64) + _GAMMA_INT) & _MASK64)))

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words of the stream."""
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(np.uint64(self._seed) + ks * _GAMMA)

    def uniform(self, size: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Uniform draws in [0, 1) with 53-bit resolution."""
        if size is None:
            self._counter += 1
            raw = _mix_int((self._seed + self._counter * _GAMMA_INT) & _MASK64)
            return (raw >> 11) * _U53
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        out = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U53
        return out.reshape(shape)

    def normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal draws via the Box-Muller transform."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so that log(u1) is finite.
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * _U53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting raw keys."""
        if n < 0:
            raise ValueError("permutation length must be non-negative")
        return np.argsort(self._raw(n), kind="stable")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {out.shape}")
    return out


def xavier_scale(rows: int, cols: int) -> float:
    """Xavier/Glorot standard deviation sqrt(2 / (fan_in + fan_out))."""
    return math.sqrt(2.0 / (rows + cols))


def gaussian_init(rows: int, cols: int, scale: float, rng: Rng) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, scale^2) entries from ``rng``."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_init needs positive dimensions")
    if scale <= 0:
        raise ValueError("gaussian_init scale must be positive")
    return rng.normal((rows, cols)) * scale


def sum_in_order(values) -> float:
    """Add ``values`` one by one from 0.0 (the builtin sum compensates from 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total
