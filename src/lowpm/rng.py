"""Pinned deterministic RNG so corpora reproduce bit-for-bit anywhere.

Every randomized object in this package (instances, start matchings, sampled
graphs) is derived from SplitMix64, chosen because the whole generator is
four lines and trivially portable:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Derived procedures are likewise pinned:

* ``bounded(n)``: draw 64-bit words, reject values >= 2^64 - (2^64 mod n),
  return ``word mod n`` (unbiased).
* ``shuffle``: Fisher-Yates from the last index down, ``j = bounded(i + 1)``.
* ``_sample_front(p, c)``: partial Fisher-Yates from the front of
  ``[0, ..., p-1]``, slot i swapped with slot ``i + bounded(p - i)``; the
  first ``c`` slots are the sample.
* ``_bits(count)``: the next ceil(count/64) words, 64 bits per word; bit
  position k is bit k mod 64 (least significant first) of word k // 64.

Seeded instances (stream version 2, lowpm 0.2.0; 0.1.0 spent one whole word
per pair, as ``bounded(2)`` for a graph and Fisher-Yates over every pair
for a signing):

* ``random_graph(order, seed)``: pair k of the canonical order is an edge
  iff bit k of ``_bits(C(order, 2))`` is 1.
* ``random_with_imbalance(order, s, seed)`` with T = C(order, 2) pairs and
  p = (T + s)/2 pluses: draw b = ``_bits(T)`` and count its c ones.  If
  c != p, the surplus class is the ones when c > p and the zeros otherwise;
  let ``pos`` be its m positions, ascending, and f = |c - p|.  If 2f <= m,
  flip ``pos[i]`` for each i in ``_sample_front(m, f)``, drawn from the
  same stream after the bits; otherwise flip every surplus position but
  ``pos[i]`` for i in ``_sample_front(m, m - f)``.  Bit 1 is +1, bit 0 is
  -1.

  The result is uniform over the C(T, p) vectors with p pluses.  The bits
  are i.i.d., so their law is invariant under every permutation of the
  pairs; the fix-up flips a uniform f-subset of the surplus class (the
  complement of a uniform (m - f)-subset is one), which commutes with
  permuting the pairs.  So the output's law is permutation-invariant too,
  and the permutations act transitively on the vectors with p pluses.

Packed draws: ``_bits`` and ``_sample_front`` compute up to ``_CHUNK``
words at once in big-int arithmetic.  Word i of a chunk sits in bits
128i..128i+63 of one Python int, whose lanes start as the states
``state + (i+1)*gamma mod 2^64``; each mixing step is one shift, XOR,
multiply and mask over the whole int.  A 64 x 64-bit product fits in its
128-bit lane, and the mask after each step drops what a shift pulled in from
the next lane, so every lane holds exactly the word ``next_u64`` would give.
``_sample_front`` runs Fisher-Yates over a chunk's words; at a word the
``bounded`` rule rejects it keeps that word drawn and starts the next chunk
after it.  Either way the state is left at ``start + taken*gamma``, so every
procedure above draws the same stream as its one-word-at-a-time
transcription.

Seed streams: a sweep with master seed ``s`` draws one 64-bit word per
instance from ``SplitMix64(s)`` and uses it as that instance's seed.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache

_SPAN = 1 << 64
_MASK64 = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Words per packed draw: each lane is 16 bytes, so a chunk's ints stay ~16 KB.
_CHUNK = 1024

_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


@cache
def _lane_constants() -> tuple[int, int, int]:
    """``_CHUNK`` 128-bit lanes holding (i+1)*gamma mod 2^64, 1 and 2^64 - 1.

    Built on the first packed draw, not at import."""
    steps = b"".join(((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
                     for i in range(_CHUNK))
    ones = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
    return int.from_bytes(steps, "little"), ones, ones * _MASK64


def _chunk_words(state: int, count: int) -> list[int]:
    """The ``count`` <= ``_CHUNK`` words after ``state``, mixed as one int
    with word i in bits 128i..128i+63."""
    steps, ones, mask = _lane_constants()
    if count < _CHUNK:
        cut = (1 << 128 * count) - 1
        steps, ones, mask = steps & cut, ones & cut, mask & cut
    z = (state * ones + steps) & mask
    z = ((z ^ z >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 & mask
    lanes = array("Q", ((z ^ z >> 31) & mask).to_bytes(16 * count, "little"))
    if sys.byteorder != "little":
        lanes.byteswap()
    return lanes[0::2].tolist()


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (wrapped mod 2^64)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _bits(self, count: int) -> bytes:
        """The next ``count`` bits, one byte (0 or 1) each: position k holds
        bit k mod 64, least significant first, of word k // 64."""
        words: list[int] = []
        needed = -(-count // 64)
        for start in range(0, needed, _CHUNK):
            size = min(_CHUNK, needed - start)
            words += _chunk_words(self.state, size)
            self.state = (self.state + size * _GAMMA) & _MASK64
        packed = array("Q", words)
        if sys.byteorder != "little":
            packed.byteswap()
        stream = int.from_bytes(packed.tobytes(), "little")
        # a 1 above the last position keeps leading zeros; [:0:-1] drops it
        # and puts position 0 first
        digits = format(stream & (1 << count) - 1 | 1 << count, "b")[:0:-1]
        return digits.encode().translate(_DIGIT_BITS)

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        limit = _SPAN - _SPAN % n
        while True:
            word = self.next_u64()
            if word < limit:
                return word % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.bounded(i + 1)
            items[i], items[j] = items[j], items[i]

    def _sample_front(self, population: int, count: int) -> list[int]:
        """The first ``count`` slots of the partial Fisher-Yates, in slot order:
        ``count`` distinct indices from [0, population)."""
        if not 0 <= count <= population:
            raise ValueError(f"cannot sample {count} of {population}")
        sample: list[int] = []
        moved: dict[int, int] = {}  # slot -> index, for the slots a swap displaced
        # bounded(n) rejects only words >= 2^64 - (2^64 mod n) > 2^64 - population
        risky = _SPAN - population
        state = self.state
        i = 0
        while i < count:
            words = _chunk_words(state, min(_CHUNK, count - i))
            for taken, word in enumerate(words, 1):
                n = population - i
                if word > risky and word >= _SPAN - _SPAN % n:
                    break  # rejected as in bounded(): the next chunk starts after it
                j = i + word % n
                # slot i is final once swapped; slot j takes slot i's index
                sample.append(moved.get(j, j))
                moved[j] = moved.pop(i, i)
                i += 1
            state = (state + taken * _GAMMA) & _MASK64
        self.state = state
        return sample
