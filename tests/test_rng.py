"""The pinned RNG: reference vectors and derived sampling procedures."""

import pytest

from lowpm import SplitMix64
from lowpm.rng import _CHUNK, _chunk_words

from helpers import (
    reference_bits,
    reference_sample_indices,
    reference_stream,
    reference_words,
)

# First outputs of the reference SplitMix64 for seed 0, as published with
# the original C implementation.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_seed0_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == SEED0_OUTPUTS


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, -1])
def test_matches_reference_transcription(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(16)] == reference_stream(seed, 16)


def test_bounded_range_and_determinism():
    rng = SplitMix64(7)
    draws = [rng.bounded(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
    rng2 = SplitMix64(7)
    assert draws == [rng2.bounded(10) for _ in range(1000)]


def test_bounded_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).bounded(0)


def test_shuffle_is_permutation_and_deterministic():
    rng = SplitMix64(12345)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    items2 = list(range(20))
    SplitMix64(12345).shuffle(items2)
    assert items == items2


def test_sample_indices():
    rng = SplitMix64(9)
    sample = sorted(rng._sample_front(100, 30))
    assert len(sample) == 30
    assert sample == sorted(set(sample))
    assert all(0 <= i < 100 for i in sample)
    assert sorted(SplitMix64(9)._sample_front(100, 30)) == sample
    assert sorted(SplitMix64(1)._sample_front(5, 5)) == [0, 1, 2, 3, 4]
    assert SplitMix64(1)._sample_front(5, 0) == []
    with pytest.raises(ValueError):
        SplitMix64(1)._sample_front(5, 6)


def test_sample_indices_covers_population_across_seeds():
    hits = set()
    for seed in range(50):
        hits.update(SplitMix64(seed)._sample_front(28, 14))
    assert hits == set(range(28))


@pytest.mark.parametrize("population,count", [(1, 1), (5, 3), (28, 14), (100, 99), (1225, 600)])
def test_sample_indices_matches_reference(population, count):
    for seed in (0, 3, 2**64 - 1):
        rng = SplitMix64(seed)
        words = reference_words(seed)
        assert sorted(rng._sample_front(population, count)) == reference_sample_indices(
            words, population, count)
        assert rng.next_u64() == next(words)


def _unxorshift(y, shift):
    z = y
    for _ in range(64 // shift + 1):
        z = y ^ (z >> shift)
    return z


def _state_drawing(word, ahead):
    """A seed whose ``ahead``-th word is ``word``: the output mix inverted."""
    mask = (1 << 64) - 1
    z = _unxorshift(word, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - ahead * 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("accepted_before", [0, 1, 3, _CHUNK - 1, _CHUNK])
def test_sample_indices_rejection_matches_reference(accepted_before):
    # 2^64 mod 3 = 1, so bounded(3) rejects exactly the word 2^64 - 1;
    # place it where the draw for a population of 3 remaining slots falls:
    # at _CHUNK - 1 it ends the first packed chunk, at _CHUNK it starts the second
    top = (1 << 64) - 1
    seed = _state_drawing(top, accepted_before + 1)
    assert reference_stream(seed, accepted_before + 1)[-1] == top
    population = accepted_before + 3
    for count in range(accepted_before + 1, population + 1):
        rng = SplitMix64(seed)
        words = reference_words(seed)
        assert sorted(rng._sample_front(population, count)) == reference_sample_indices(
            words, population, count)
        assert rng.next_u64() == next(words)


# The state is exactly 0 at word _CHUNK // 2, so the lanes after it restart from
# gamma; seeds 0 and 2^64 - 1 start at the two ends of the state range.
PACKED_SEEDS = [0, 2**64 - 1, -(_CHUNK // 2) * 0x9E3779B97F4A7C15 % 2**64]
PACKED_COUNTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


@pytest.mark.parametrize("seed", PACKED_SEEDS)
@pytest.mark.parametrize("count", PACKED_COUNTS)
def test_packed_draw_matches_reference(seed, count):
    if count <= _CHUNK:
        assert _chunk_words(seed, count) == reference_stream(seed, count)
    rng = SplitMix64(seed)
    words = reference_words(seed)
    assert list(rng._bits(64 * count)) == reference_bits(words, 64 * count)
    assert rng.next_u64() == next(words)
    rng = SplitMix64(seed)
    words = reference_words(seed)
    assert sorted(rng._sample_front(count + 7, count)) == reference_sample_indices(
        words, count + 7, count)
    assert rng.next_u64() == next(words)


@pytest.mark.parametrize("seed", PACKED_SEEDS)
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 64 * _CHUNK - 1, 64 * _CHUNK + 1])
def test_bits_match_reference(seed, count):
    # ceil(count / 64) words: 64 * _CHUNK + 1 bits take one word of a second chunk
    rng = SplitMix64(seed)
    words = reference_words(seed)
    bits = rng._bits(count)
    assert type(bits) is bytes
    assert list(bits) == reference_bits(words, count)
    assert rng.next_u64() == next(words)


def test_bits_are_least_significant_first():
    word = reference_stream(5, 1)[0]
    assert list(SplitMix64(5)._bits(64)) == [int(d) for d in reversed(f"{word:064b}")]
