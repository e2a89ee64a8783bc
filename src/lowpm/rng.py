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
* ``sample_indices(p, c)``: partial Fisher-Yates from the front of
  ``[0, ..., p-1]``; the first ``c`` slots, sorted, are the sample.

Batched draws: ``random_graph`` and ``sample_indices`` take their words
from one local-variable loop (``SplitMix64._words``) that yields exactly
the words successive ``next_u64`` calls would, and stores the state back
when the caller stops.  ``sample_indices`` stops a batch at a word the
``bounded`` rule rejects, keeps that word drawn and starts the next batch
after it, so every procedure above draws the same stream as its
one-word-at-a-time transcription.

Seed streams: a sweep with master seed ``s`` draws one 64-bit word per
instance from ``SplitMix64(s)`` and uses it as that instance's seed.
"""

from __future__ import annotations

from typing import Iterator

_SPAN = 1 << 64
_MASK64 = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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

    def _words(self, count: int) -> Iterator[int]:
        """The next ``count`` outputs of :meth:`next_u64`, drawn in one loop.

        ``state`` is written back when the generator finishes or is closed,
        so a caller that stops early has drawn exactly the words it took.
        """
        state = self.state
        try:
            for _ in range(count):
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                yield z ^ (z >> 31)
        finally:
            self.state = state

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

    def sample_indices(self, population: int, count: int) -> list[int]:
        """``count`` distinct indices from [0, population), sorted ascending."""
        if not 0 <= count <= population:
            raise ValueError(f"cannot sample {count} of {population}")
        pool = list(range(population))
        i = 0
        while i < count:
            words = self._words(count - i)
            for word in words:
                n = population - i
                if word >= _SPAN - _SPAN % n:
                    break  # rejected as in bounded(): the next batch starts after it
                j = i + word % n
                pool[i], pool[j] = pool[j], pool[i]
                i += 1
            words.close()
        return sorted(pool[:count])
