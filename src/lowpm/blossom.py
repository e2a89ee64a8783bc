"""Maximum cardinality matching in general graphs.

Augmenting-path search with blossom contraction, in the classic array form:
``base[v]`` tracks the contracted pseudo-vertex containing ``v``, and odd
cycles found while growing the alternating tree are shrunk on the fly.  Each
exposed vertex is the root of one search.  The graph is given as neighbour
bitsets (bit v of ``rows[u]`` <=> edge {u, v}, as in
:class:`lowpm.core.SimpleGraph`), and the vertex sets the search keeps,
the still-free vertices of the greedy start and the ``alive`` ones, are
bitmasks too.  A neighbour scan is one AND; its set bits are listed at C
speed from the binary digits, which beats clearing the lowest bit in a loop
on the dense classes lowpm matches (0.11 to 0.06 ms on a random order-200
graph, 4.7 to 1.5 ms on the plus class of ``clique_instance(50, 3)``, one
core of a 2-vCPU VM, Python 3.11.7) and loses on rows of a few bits.

A search that fails leaves a Hungarian tree (Edmonds 1965): its root and the
matched pairs it reached lie on no augmenting path for the rest of the run,
so they leave ``alive`` and later searches skip them.  Without that, every
later root re-walks the same tree.  On the plus-clique minus class, where
the n-k hub vertices are joined to everything and most clique vertices stay
exposed, each failed root re-explored all hubs: 33 ms per call at n=50,
k=2 (order 200), 4 ms with the pruning (one core, Python 3.11).  An exposed
root with no live neighbour would grow only the tree {root}, so it leaves
``alive`` with no search.  A search costs O(E) plus O(V) per blossom
contraction, O(V^3) overall.

Deterministic: neighbours are scanned lowest first and roots in increasing
order, so the matching returned for a given graph is unique.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Sequence

from .core import Pair

_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def maximum_matching(order: int, rows: Sequence[int]) -> tuple[Pair, ...]:
    """A maximum matching of the graph on {0,...,order-1} with neighbour
    bitsets ``rows``, canonical form."""
    match = [-1] * order
    free = (1 << order) - 1
    for u in range(order):
        if free >> u & 1:
            candidates = rows[u] & free
            if candidates:
                v = (candidates & -candidates).bit_length() - 1
                match[u] = v
                match[v] = u
                free ^= 1 << u | 1 << v

    parent = [-1] * order
    vertices = range(order)
    base = list(range(order))
    alive = (1 << order) - 1

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
        nonlocal alive
        for i in range(order):
            parent[i] = -1
            base[i] = i
        in_tree = [False] * order
        in_tree[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            # the live neighbours, lowest first: bit v of the row is digit v from the right
            live = format(rows[u] & alive, "b")[::-1].encode().translate(_DIGIT_BITS)
            for v in compress(vertices, live):
                if base[u] == base[v] or match[u] == v:
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
                alive &= ~(1 << i)
        return False

    for root in range(order):
        if match[root] == -1:
            if not rows[root] & alive:
                # its search would grow the tree {root} and take only root out
                alive &= ~(1 << root)
            else:
                find_augmenting_path(root)

    return tuple((u, match[u]) for u in range(order) if match[u] > u)


def matching_number(order: int, rows: Sequence[int]) -> int:
    """Size of a maximum matching."""
    return len(maximum_matching(order, rows))
