"""Instance generators and closed-form bounds.

Three families matter here:

* the two-block family (``proposition2_instance``): a complete bipartite
  plus-part between blocks A and B sized so the total imbalance is exactly
  +2 while no perfect matching can reach weight 0 (a parity obstruction:
  any zero-weight matching would need |A| - order/4 vertices of A covered
  by minus edges, and that count is odd);

* the plus-clique family (``clique_instance``): all edges inside a clique
  of order 3n+k are +1, everything else -1.  Its imbalance meets
  ``thm2_bound(n, k)`` exactly and its minus subgraph has matching number
  n-k, which forces every perfect matching to weight >= 2k;

* seeded random instances with a prescribed imbalance
  (``random_with_imbalance``), the workhorse of the verification sweeps.

Vertex placement is pinned for reproducibility: cliques and block A always
occupy the lowest-indexed vertices.
"""

from __future__ import annotations

from .core import (
    Pair,
    ParameterError,
    SignedCompleteGraph,
    SimpleGraph,
    iter_pairs,
    pair_count,
)
from .rng import SplitMix64


def _check_nk(n: int, k: int) -> None:
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")


def proposition2_instance(k: int) -> SignedCompleteGraph:
    """Two-block instance of order k^2+4 with imbalance exactly +2.

    Block A holds the first (k^2+k)/2 + 2 vertices, block B the rest
    ((k^2-k)/2 + 2 vertices).  Edges between A and B are +1, edges inside
    either block are -1.  Requires even k >= 2 so the order is 0 mod 4.
    """
    if k < 2 or k % 2:
        raise ParameterError(f"k must be an even integer >= 2, got {k}")
    order = k * k + 4
    size_a = (k * k + k) // 2 + 2
    signs: list[int] = []
    for u in range(order):
        if u < size_a:
            signs.extend([-1] * (size_a - 1 - u) + [1] * (order - size_a))
        else:
            signs.extend([-1] * (order - 1 - u))
    return SignedCompleteGraph(order, tuple(signs))


def thm2_bound(n: int, k: int) -> int:
    """The imbalance threshold n(n-1) + k(6n-1) + k^2.

    Also equals 2*C(3n+k,2) - C(4n,2), the imbalance of the plus-clique
    instance, which is the tightness identity.  Defined for all k >= 1 even
    though the matching-weight guarantee it gates needs k >= 2.
    """
    _check_nk(n, k)
    return n * (n - 1) + k * (6 * n - 1) + k * k


def clique_instance(n: int, k: int) -> SignedCompleteGraph:
    """Order-4n instance whose +1 edges form a clique on the first 3n+k vertices.

    Requires 1 <= k <= n (so the clique fits).  The imbalance equals
    thm2_bound(n, k) exactly; the minus subgraph is the complement of the
    clique plus n-k vertices joined to everything, with matching number n-k.
    """
    _check_nk(n, k)
    if k > n:
        raise ParameterError(f"need k <= n, got n={n}, k={k}")
    clique = 3 * n + k
    order = 4 * n
    signs: list[int] = []
    for u in range(order):
        if u < clique:
            signs.extend([1] * (clique - 1 - u) + [-1] * (order - clique))
        else:
            signs.extend([-1] * (order - 1 - u))
    return SignedCompleteGraph(order, tuple(signs))


def eg_edge_bound(n: int, k: int) -> int:
    """Maximum edge count of an order-4n graph with matching number n-k."""
    _check_nk(n, k)
    if k > n:
        raise ParameterError(f"need k <= n, got n={n}, k={k}")
    return pair_count(4 * n) - pair_count(3 * n + k)


def eg_extremal_graph(n: int, k: int) -> SimpleGraph:
    """The unique extremal graph for :func:`eg_edge_bound`.

    Complement of (clique of order 3n+k, disjoint union, n-k isolated
    vertices): every pair with an endpoint among the last n-k vertices.
    This is exactly the minus subgraph of :func:`clique_instance`.
    """
    _check_nk(n, k)
    if k > n:
        raise ParameterError(f"need k <= n, got n={n}, k={k}")
    clique = 3 * n + k
    edges = tuple((u, v) for u, v in iter_pairs(4 * n) if v >= clique)
    return SimpleGraph(4 * n, edges)


def random_with_imbalance(order: int, s: int, seed: int) -> SignedCompleteGraph:
    """Uniform random sign vector with imbalance exactly ``s``.

    Exactly (C(order,2)+s)/2 edges get +1, their positions drawn by partial
    Fisher-Yates from the pinned SplitMix64 stream.  ``s`` must satisfy
    |s| <= C(order,2) and have the same parity as C(order,2).
    """
    total = pair_count(order)
    if abs(s) > total:
        raise ParameterError(f"|s|={abs(s)} exceeds C({order},2)={total}")
    if (s - total) % 2:
        raise ParameterError(
            f"imbalance s={s} must have the same parity as C({order},2)={total}"
        )
    plus = (total + s) // 2
    rng = SplitMix64(seed)
    plus_positions = set(rng.sample_indices(total, plus))
    signs = tuple(1 if i in plus_positions else -1 for i in range(total))
    return SignedCompleteGraph(order, signs)


def random_graph(order: int, seed: int) -> SimpleGraph:
    """Random graph on {0,...,order-1}; each edge present with probability 1/2.

    One ``bounded(2)`` draw per pair, in canonical pair order.
    """
    rng = SplitMix64(seed)
    edges = tuple(p for p in iter_pairs(order) if rng.bounded(2) == 1)
    return SimpleGraph(order, edges)
