"""Dense float64 matrix helpers and a deterministic, counter-based RNG.

Everything downstream (losses, model, trainer) moves data as plain 2-D
``numpy.ndarray`` objects in row-major float64. The helpers here add the
shape checking the rest of the package relies on, the three input rules
every entry point shares (sizes: :func:`check_count`; index arrays:
:func:`as_indices`; real settings: :func:`check_real`), plus weight
initialization driven by a fully-owned random number generator so that
runs reproduce bit-for-bit across machines regardless of the platform's
RNG implementation.

Word ``k`` of a stream depends only on its seed and ``k``, so any run of
words can be made on its own. :meth:`Rng.normal` uses that: of the ``2 *
pairs`` words one draw takes, Box-Muller pair ``i`` takes its radius
from word ``i`` and its angle from word ``pairs + i``, so the draw is
made ``_NORMAL_CHUNK`` pairs at a time straight into the two halves of
its output, with no temporary the size of the whole draw. Each chunk
runs the same ufuncs in the same order as a whole-array draw would, so
the bits do not depend on the chunking. The uint64 words are mixed in
place without ``np.errstate``: integer *array* arithmetic wraps modulo
2**64 and never warns (only numpy integer scalars do).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Rng",
    "as_indices",
    "as_matrix",
    "check_count",
    "check_integer",
    "check_real",
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
# Box-Muller pairs per chunk of Rng.normal: 32 KiB per float64 temporary
_NORMAL_CHUNK = 4096


def _words(counters: np.ndarray, seed: int, scratch: np.ndarray) -> np.ndarray:
    """Turn the uint64 counters ``k`` into the raw words
    finalize(seed + k*GAMMA), in place; ``scratch`` (same shape) holds the
    shifts."""
    counters *= _GAMMA
    counters += np.uint64(seed)
    # splitmix64 finalizer: bijective avalanche on 64-bit words
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(counters, np.uint64(shift), out=scratch)
        counters ^= scratch
        counters *= mult
    np.right_shift(counters, np.uint64(31), out=scratch)
    counters ^= scratch
    return counters


def _mix_int(z: int) -> int:
    """The splitmix64 finalizer of one word held as a Python int in [0, 2**64)."""
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
        self._seed = int(check_integer(seed, "seed")) & _MASK64
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
        return _words(ks, self._seed, np.empty_like(ks))

    def uniform(self) -> float:
        """One uniform draw in [0, 1) with 53-bit resolution."""
        self._counter += 1
        raw = _mix_int((self._seed + self._counter * _GAMMA_INT) & _MASK64)
        return (raw >> 11) * _U53

    def normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal draws via the Box-Muller transform.

        ``n`` draws take ``2 * pairs`` words, ``pairs = ceil(n / 2)``. Pair
        ``i`` takes its radius from word ``i`` and its angle from word
        ``pairs + i``, and gives output ``i`` (``r cos theta``) and output
        ``pairs + i`` (``r sin theta``, dropped when it is output ``n`` of
        an odd draw). So any run of pairs can be made on its own: the draw
        runs ``_NORMAL_CHUNK`` pairs at a time, straight into the two
        halves of the output, and every temporary is chunk-sized. The
        words wrap modulo 2**64 as uint64 arrays, which never warn, so no
        ``np.errstate`` is needed.
        """
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        pairs = (n + 1) // 2
        out = np.empty(2 * pairs)
        lo, hi = out[:pairs], out[pairs:]
        scratch = np.empty(2 * min(pairs, _NORMAL_CHUNK), dtype=np.uint64)
        for start in range(0, pairs, _NORMAL_CHUNK):
            m = min(_NORMAL_CHUNK, pairs - start)
            # the radius words of pairs start..start+m-1, then their angle words
            first = self._counter + start + 1
            w = np.arange(first, first + 2 * m, dtype=np.uint64)
            w[m:] += np.uint64(pairs - m)
            _words(w, self._seed, scratch[: 2 * m])
            w >>= np.uint64(11)
            # below 2**53 now, so the signed view converts exactly (and faster)
            u = w.view(np.int64).astype(np.float64)
            r, theta = u[:m], u[m:]
            # radius uniform in (0, 1] so that its log is finite
            r += 1.0
            u *= _U53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * math.pi
            c, s = lo[start : start + m], hi[start : start + m]
            np.cos(theta, out=c)
            c *= r
            np.sin(theta, out=s)
            s *= r
        self._counter += 2 * pairs
        return out[:n].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting raw keys.

        The keys are ``finalize(seed + k * GAMMA)`` for consecutive k: GAMMA
        is odd, so the ``seed + k * GAMMA`` are distinct modulo 2**64 for
        any n up to 2**64, and the finalizer is a bijection, so the keys
        are distinct too. Every correct sort of distinct keys gives the
        same order, so numpy's default (unstable, faster) sort is used.
        """
        if n < 0:
            raise ValueError("permutation length must be non-negative")
        return np.argsort(self._raw(n))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {out.shape}")
    return out


def as_indices(a, bound: int, name: str) -> np.ndarray:
    """``a`` as an int64 index array into ``bound`` entries (labels into
    classes, row indices into rows): a non-empty 1-D array of an integer
    dtype with every value in ``[0, bound)``, returned without a copy when
    it already is int64. Anything else is a ValueError naming ``name``: a
    float or bool array is not truncated to indices, and a negative index
    is not wrapped round to the last entries."""
    out = np.asarray(a)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {out.shape}")
    if out.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {out.dtype}")
    if np.minimum.reduce(out) < 0 or np.maximum.reduce(out) >= bound:
        raise ValueError(f"{name} must lie in [0, {bound})")
    return out.astype(np.int64, copy=False)


def check_integer(value, name: str):
    """``value`` itself when it is a Python or numpy integer; anything
    else, bool included, is a ValueError naming ``name``: a float would be
    truncated, or fail later with a message about something else."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_count(value, name: str):
    """``value`` itself when it is an integer (see :func:`check_integer`)
    of at least 1, as every size and count is; anything else is a
    ValueError naming ``name``."""
    check_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")
    return value


def check_real(value, name: str, positive: bool = False):
    """``value`` itself when it is a Python or numpy real number that a float
    holds finitely, at least 0 (above 0 with ``positive``); anything else, a
    bool, a string or None included, is a ValueError naming ``name``."""
    real = value
    # a float, the common case, skips the kind test; a bool is an int
    if type(value) is not float:
        real = math.nan
        if type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating)):
            with contextlib.suppress(OverflowError):  # an int that no float holds
                real = float(value)
    if (0.0 < real if positive else 0.0 <= real) and real < math.inf:
        return value
    sign = "positive" if positive else "non-negative"
    raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def xavier_scale(rows: int, cols: int) -> float:
    """Xavier/Glorot standard deviation sqrt(2 / (fan_in + fan_out))."""
    return math.sqrt(2.0 / (rows + cols))


def gaussian_init(rows: int, cols: int, scale: float, rng: Rng) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, scale^2) entries from ``rng``."""
    check_count(rows, "gaussian_init rows")
    check_count(cols, "gaussian_init cols")
    check_real(scale, "gaussian_init scale", positive=True)
    out = rng.normal((rows, cols))
    out *= scale
    return out


def sum_in_order(values) -> float:
    """Add ``values`` one by one from 0.0 (the builtin sum compensates from 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total
