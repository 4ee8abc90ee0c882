"""Bit-for-bit guards: the chunked, in-place draws against the earlier
whole-array formulation kept in ``conftest`` (``ref_raw``,
``ref_uniform``, ``ref_normal``, ``ref_gaussian_init`` and
``ref_synth_blobs``).

``Rng.normal`` makes its Box-Muller pairs ``_NORMAL_CHUNK`` at a time, so
the sizes here put the pair count on each side of one and two chunk
boundaries, on odd and even draw sizes, from a fresh stream and from one
whose counter an earlier draw has moved. Arrays are compared as uint64
views with ``==``, and the counters with ``==``.
"""

import warnings

import numpy as np
import pytest

from conftest import ref_gaussian_init, ref_normal, ref_raw, ref_synth_blobs, ref_uniform
from emsoftmax import tensor
from emsoftmax.data import SyntheticSpec, synth_blobs
from emsoftmax.tensor import Rng, gaussian_init

CHUNK = tensor._NORMAL_CHUNK
M64 = 0xFFFF_FFFF_FFFF_FFFF
SEEDS = (0, 7, 2**63 + 11, M64)
# draw sizes with 1 and 2 pairs, odd sizes, and 2 * pairs and 2 * pairs - 1
# for pair counts chunk - 1, chunk, chunk + 1 and 2 * chunk + 1
SIZES = (
    1, 2, 3, 7, 101, (3, 4), (5, 3), (2, 3, 5), (), (0,), (0, 3),
    *(count for pairs in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
      for count in (2 * pairs - 1, 2 * pairs)),
)
# earlier draws that leave the counter at 0, 1, an odd count and past a chunk
EARLIER = (None, 1, 5, 2 * CHUNK + 3)


def assert_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def twins(seed, earlier):
    """Two streams of one seed, each after the same earlier normal draw."""
    ours, ref = Rng(seed), Rng(seed)
    if earlier is not None:
        ours.normal(earlier)
        ref_normal(ref, earlier)
    assert ours.counter == ref.counter
    return ours, ref


@pytest.mark.parametrize("earlier", EARLIER)
@pytest.mark.parametrize("size", SIZES)
def test_normal(size, earlier):
    for seed in SEEDS:
        ours, ref = twins(seed, earlier)
        assert_bits(ours.normal(size), ref_normal(ref, size))
        assert ours.counter == ref.counter


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_normal_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(tensor, "_NORMAL_CHUNK", chunk)
    for size in (1, 2, 3, 9, 10, 11, 64, (7, 5)):
        ours, ref = twins(3, 3)
        assert_bits(ours.normal(size), ref_normal(ref, size))
        assert ours.counter == ref.counter


@pytest.mark.parametrize("earlier", EARLIER)
@pytest.mark.parametrize("size", [1, 2, 7, (3, 4), (), (0,), 2 * CHUNK + 1])
def test_uniform_and_raw(size, earlier):
    n = int(np.prod(size))
    for seed in SEEDS:
        ours, ref = twins(seed, earlier)
        assert_bits(np.array([ours.uniform() for _ in range(n)]), ref_uniform(ref, n))
        assert ours.counter == ref.counter
        assert np.array_equal(ours._raw(n), ref_raw(ref, n))
        assert ours.counter == ref.counter


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 4), (7, 5), (24, 10), (784, 512)])
def test_gaussian_init(rows, cols):
    for seed in SEEDS:
        ours, ref = twins(seed, 1)
        assert_bits(gaussian_init(rows, cols, 0.37, ours),
                    ref_gaussian_init(rows, cols, 0.37, ref))
        assert ours.counter == ref.counter


@pytest.mark.parametrize("spec", [
    SyntheticSpec(1, 1, 1, 1.0, 0),
    SyntheticSpec(3, 4, 2, 0.5, 0),
    SyntheticSpec(3, 5, 3, 0.3, 2**63 + 11),
    SyntheticSpec(10, 350, 20, 1.8, 5),
    SyntheticSpec(4, 33, 127, 2.5, M64),
])
def test_synth_blobs(spec):
    ours, ref = synth_blobs(spec), ref_synth_blobs(spec)
    assert_bits(ours.features, ref.features)
    assert np.array_equal(ours.labels, ref.labels) and ours.num_classes == ref.num_classes


def test_draws_raise_no_floating_point_error_or_warning():
    # uint64 array arithmetic wraps modulo 2**64 without a warning; the
    # seeds here overflow every addition and multiplication of the mix
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in SEEDS:
            rng = Rng(seed)
            rng.normal(1)
            rng.normal(2 * CHUNK + 3)
            rng.uniform()
            rng.permutation(9)
            rng.spawn(M64).normal((3, 4))
            gaussian_init(24, 10, 0.5, rng)
        synth_blobs(SyntheticSpec(3, 50, 7, 1.0, M64))
