"""Instance generators and closed-form bounds.

Both extremal families are two-block instances from one writer: block A
is the lowest vertices, B the rest, with one sign inside each and one across.

* the two-block family (``proposition2_instance``): +1 across, A sized so
  the total imbalance is exactly +2 while no perfect matching can reach
  weight 0 (a parity obstruction: any zero-weight matching would need
  |A| - order/4 vertices of A covered by minus edges, and that count is odd);

* the plus-clique family (``clique_instance``): +1 inside A, a clique of
  order 3n+k.  Its imbalance meets ``thm2_bound(n, k)`` exactly and its
  minus subgraph, the Erdos-Gallai extremal graph (``eg_extremal_graph``),
  has matching number n-k, which forces every perfect matching to weight >= 2k;

* seeded random instances with a prescribed imbalance
  (``random_with_imbalance``), the workhorse of the verification sweeps.

Vertex placement is pinned for reproducibility: block A always occupies the
lowest-indexed vertices.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate

from .core import (
    ParameterError,
    SignedCompleteGraph,
    SimpleGraph,
    _DIGITS,
    _pair_subgraph,
    pair_count,
    sign_subgraph,
)
from .rng import SplitMix64

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_SIGNS = bytes.maketrans(b"\x00\x01", b"\xff\x01")  # bit -> sign as a signed byte
_POPCOUNT = bytes(map(int.bit_count, range(256)))
_SET_BITS: list[tuple[int, ...]] = [()]  # entry i: the set bits of byte i, ascending
for _bit in range(8):  # by doubling, ~8x cheaper at import than testing each bit
    _SET_BITS += [bits + (_bit,) for bits in _SET_BITS]


def _check_nk(n: int, k: int, clique_fits: bool = True) -> None:
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if clique_fits and k > n:
        raise ParameterError(f"need k <= n, got n={n}, k={k}")


def _two_block(order: int, t: int,
               inside_a: int, across: int, inside_b: int) -> SignedCompleteGraph:
    """Block A = vertices 0..t-1, block B = the rest.  In canonical pair
    order each A row lists its pairs inside A, then across; B rows follow."""
    signs: list[int] = []
    for u in range(t):
        signs += [inside_a] * (t - 1 - u) + [across] * (order - t)
    signs += [inside_b] * pair_count(order - t)
    return SignedCompleteGraph._trusted(order, tuple(signs))


def proposition2_instance(k: int) -> SignedCompleteGraph:
    """Two-block instance of order k^2+4 with imbalance exactly +2.

    Block A holds the first (k^2+k)/2 + 2 vertices, block B the rest
    ((k^2-k)/2 + 2 vertices).  Edges between A and B are +1, edges inside
    either block are -1.  Requires even k >= 2 so the order is 0 mod 4.
    """
    if k < 2 or k % 2:
        raise ParameterError(f"k must be an even integer >= 2, got {k}")
    return _two_block(k * k + 4, (k * k + k) // 2 + 2, -1, 1, -1)


def thm2_bound(n: int, k: int) -> int:
    """The imbalance threshold n(n-1) + k(6n-1) + k^2.

    Also equals 2*C(3n+k,2) - C(4n,2), the imbalance of the plus-clique
    instance, which is the tightness identity.  Defined for all k >= 1 even
    though the matching-weight guarantee it gates needs k >= 2.
    """
    _check_nk(n, k, clique_fits=False)
    return n * (n - 1) + k * (6 * n - 1) + k * k


def clique_instance(n: int, k: int) -> SignedCompleteGraph:
    """Order-4n instance whose +1 edges form a clique on the first 3n+k vertices.

    Requires 1 <= k <= n (so the clique fits).  The imbalance equals
    thm2_bound(n, k) exactly; the minus subgraph is the complement of the
    clique plus n-k vertices joined to everything, with matching number n-k.
    """
    _check_nk(n, k)
    return _two_block(4 * n, 3 * n + k, 1, -1, -1)


def eg_edge_bound(n: int, k: int) -> int:
    """Maximum edge count of an order-4n graph with matching number n-k."""
    _check_nk(n, k)
    return pair_count(4 * n) - pair_count(3 * n + k)


def eg_extremal_graph(n: int, k: int) -> SimpleGraph:
    """The unique extremal graph for :func:`eg_edge_bound`.

    Complement of (clique of order 3n+k, disjoint union, n-k isolated
    vertices): every pair with an endpoint among the last n-k vertices,
    which is the minus subgraph of :func:`clique_instance`.
    """
    return sign_subgraph(clique_instance(n, k), -1)


def random_with_imbalance(order: int, s: int, seed: int) -> SignedCompleteGraph:
    """Uniform random sign vector with imbalance exactly ``s``.

    Exactly (C(order,2)+s)/2 edges get +1: one bit per pair from the pinned
    SplitMix64 stream, 64 pairs per word, then a uniform fix-up of the
    surplus class to the exact count (the procedure and why the result is
    uniform are in the :mod:`lowpm.rng` docstring).  ``s`` must satisfy
    |s| <= C(order,2) and have the same parity as C(order,2).
    """
    if order < 2 or order % 2:  # before s, whose parity is read off the order
        raise ParameterError(f"order must be an even integer >= 2, got {order}")
    total = pair_count(order)
    if abs(s) > total:
        raise ParameterError(f"|s|={abs(s)} exceeds C({order},2)={total}")
    if (s - total) % 2:
        raise ParameterError(
            f"imbalance s={s} must have the same parity as C({order},2)={total}"
        )
    plus = (total + s) // 2
    rng = SplitMix64(seed)
    bits = bytearray(rng._bits(total))
    ones = int.from_bytes(bits, "little").bit_count()  # each 1 byte sets one bit
    if ones != plus:
        surplus = 1 if ones > plus else 0
        mark = bits if surplus else bits.translate(_FLIP)
        m, f = ones if surplus else total - ones, abs(ones - plus)
        if 2 * f <= m:
            for k in _nth_marked(mark, rng._sample_front(m, f)):
                bits[k] = 1 - surplus
        else:  # the kept m - f are fewer: flip the whole class, then put them back
            bits = bytearray([1 - surplus]) * total
            for k in _nth_marked(mark, rng._sample_front(m, m - f)):
                bits[k] = surplus
    return SignedCompleteGraph._trusted(order, tuple(array("b", bits.translate(_SIGNS))))


def _nth_marked(mark: bytes, ranks: list[int]) -> list[int]:
    """``pos[r]`` for each r in ``ranks``, where ``pos`` lists the positions
    of the 1 bytes of ``mark`` in ascending order.

    The sample is usually far smaller than ``pos``, so ``pos`` is never
    built: ``mark`` is packed 8 positions per byte (bit k of byte b is
    position 8b + k) through one binary numeral, the running counts of set
    bits per byte come from one table translation, and a rank is found by
    bisecting them and reading the byte's set bits from a table.
    """
    if not ranks:
        return []
    packed = int(mark.translate(_DIGITS)[::-1], 2).to_bytes(-(-len(mark) // 8), "little")
    ends = list(accumulate(packed.translate(_POPCOUNT)))
    found = []
    for r in ranks:
        b = bisect_right(ends, r)
        found.append(8 * b + _SET_BITS[packed[b]][r - ends[b - 1] if b else r])
    return found


def random_graph(order: int, seed: int) -> SimpleGraph:
    """Random graph on {0,...,order-1}; each edge present with probability 1/2.

    Pair k of the canonical order is an edge iff bit k of the stream is 1,
    64 pairs per SplitMix64 word (see :mod:`lowpm.rng`).
    """
    return _pair_subgraph(order, SplitMix64(seed)._bits(pair_count(order)))
