"""Minimum-|weight| perfect matchings: exchange local search and exact oracle.

The local move replaces ``r`` edges of the current perfect matching with a
different perfect matching on the same ``2r`` vertices (their symmetric
difference is a union of alternating cycles).  One scan generates every
move with r in {2, 3, 4}; it reads signs straight from the instance's flat
``signs`` tuple through per-row offsets computed once per call.

A solve has one route: an r = 2 descent to the parity floor; on a stall
above it, the certified :func:`lower_bound`; on a stall above the bound, the
interpolation walk, which swaps the least-weight matching into the
greatest-weight one two edges at a time.  Each swap moves the weight by at
most 4, so the walk passes |weight| <= 2 when the two straddle 0 and ends
optimal when they do not.  Only a walk that stops above the bound is
polished by a descent escalating r = 2 -> 3 -> 4.

The oracle computes the exact minimum of |weight| over all perfect
matchings with a bitmask memo of the achievable weights of every vertex set
left by repeatedly matching the lowest vertex (F(order+1) sets, 10,946 at
order 20).  It fills the memo bottom-up, lowest vertex descending, with no
recursion: each set splits its partners by sign through the instance's
plus-neighbour bitmasks and shifts the OR of each side's child weights
once.  The witness is reconstructed greedily afterwards and is the
lexicographically smallest optimal matching, which pins oracle output for a
given instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from . import blossom
from .core import (
    MatchingError,
    Pair,
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    pair_row_offset,
    sign_subgraph,
)
from .rng import SplitMix64

DEFAULT_ORACLE_LIMIT = 16
MAX_ORACLE_LIMIT = 24
ORACLE_COST = ("one oracle call takes ~20 ms at order 20 and ~0.17 s at order 24, "
               "growing ~2.6x per two vertices")

R_LEVELS = (2, 3, 4)


class OracleLimitError(ParameterError):
    """Instance order exceeds the enumeration limit of the oracle."""


def refuse_past_oracle_limit(order: int, limit: int, other_way: str = "") -> None:
    """Raise :class:`OracleLimitError` past ``limit``: the one wording of the
    refusal, naming --oracle-limit up to its maximum, then ``other_way``."""
    if order <= limit:
        return
    if order <= MAX_ORACLE_LIMIT:
        ways = "; raise the limit (--oracle-limit)" + (f" or {other_way}" if other_way else "")
    else:
        ways = (f" and the most --oracle-limit accepts, {MAX_ORACLE_LIMIT}"
                + (f"; {other_way}" if other_way else ""))
    raise OracleLimitError(f"order {order} exceeds the oracle limit {limit}{ways} ({ORACLE_COST})")


@dataclass
class SolveReport:
    """Trace of one local-search run.

    ``stop_reason`` is ``floor`` (|weight| reached the parity floor),
    ``certified`` (|weight| reached :func:`lower_bound`) or ``no_move``
    (uncertified after the walk).  ``lower_bound`` is the floor in the first
    case and the computed bound otherwise; ``gap`` is |final_weight| -
    lower_bound, so 0 means the result is proven optimal.
    """

    initial_weight: int
    final_weight: int
    moves_applied: dict[int, int]
    stop_reason: str
    lower_bound: int
    oracle_checked: bool = False
    oracle_min_weight: int | None = None
    elapsed_ms: int = 0
    # read by perfbench/tracing.py; always 0, as the search has no plateau walk or restarts
    sideways_moves = 0
    restarts = 0

    @property
    def gap(self) -> int:
        return abs(self.final_weight) - self.lower_bound

    def to_dict(self) -> dict:
        return {
            "initial_weight": self.initial_weight,
            "final_weight": self.final_weight,
            "moves_applied": {str(r): c for r, c in sorted(self.moves_applied.items())},
            "stop_reason": self.stop_reason,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "oracle_checked": self.oracle_checked,
            "oracle_min_weight": self.oracle_min_weight,
            "elapsed_ms": self.elapsed_ms,
        }


def _pairings(verts: tuple[int, ...]) -> Iterator[tuple[Pair, ...]]:
    """All perfect pairings of sorted ``verts``, in lexicographic order."""
    if not verts:
        yield ()
        return
    u = verts[0]
    for i in range(1, len(verts)):
        rest = verts[1:i] + verts[i + 1:]
        for tail in _pairings(rest):
            yield ((u, verts[i]),) + tail


def random_perfect_matching(order: int, rng: SplitMix64) -> PerfectMatching:
    """Uniform random perfect matching (shuffle, pair consecutive)."""
    verts = list(range(order))
    rng.shuffle(verts)
    return PerfectMatching.from_pairs(
        (verts[i], verts[i + 1]) for i in range(0, order, 2)
    )


# Crossing pairings as position patterns over 2r sorted vertices; shared by
# every subset scan.  3 / 15 / 105 patterns for r = 2 / 3 / 4.
_PATTERNS = {r: tuple(_pairings(tuple(range(2 * r)))) for r in R_LEVELS}


def _row_offsets(order: int) -> list[int]:
    """``signs[offsets[a] + b]`` is the sign of the pair (a, b), a < b."""
    return [pair_row_offset(u, order) for u in range(order)]


def _edges_after(edges: tuple[Pair, ...], removed_idxs, added) -> tuple[Pair, ...]:
    keep = [e for i, e in enumerate(edges) if i not in removed_idxs]
    keep.extend(added)
    keep.sort()
    return tuple(keep)


def _iter_raw_moves(signs, off, edges, r):
    """(removed_idxs, added_pairs, delta) in canonical order, r fixed.

    Removed subsets come in ``combinations`` order, and each subset's added
    pairings in lexicographic order.  ``off`` is :func:`_row_offsets`; the
    flat lookup is valid because removed pairs are canonical and added pairs
    are built from increasing positions over sorted vertices, so a < b.
    """
    patterns = _PATTERNS[r]
    for idxs in combinations(range(len(edges)), r):
        removed = [edges[i] for i in idxs]
        verts = sorted(v for p in removed for v in p)
        pos = {v: i for i, v in enumerate(verts)}
        removed_pos = {(pos[a], pos[b]) for a, b in removed}
        sigma_removed = sum(signs[off[a] + b] for a, b in removed)
        for pattern in patterns:
            total = 0
            for pp in pattern:
                if pp in removed_pos:
                    break
                total += signs[off[verts[pp[0]]] + verts[pp[1]]]
            else:
                added = tuple((verts[pa], verts[pb]) for pa, pb in pattern)
                yield idxs, added, total - sigma_removed


def _find_improving(signs, off, edges, weight, levels):
    """The first move that lowers |weight|, at the smallest r in ``levels``."""
    current_abs = abs(weight)
    for r in levels:
        if r > len(edges):
            break
        for idxs, added, delta in _iter_raw_moves(signs, off, edges, r):
            if abs(weight + delta) < current_abs:
                return idxs, added, delta
    return None


def _descend(signs, off, edges, w, stop_at, levels, moves_applied):
    """Apply improving moves until |w| <= stop_at or none is left."""
    while abs(w) > stop_at:
        move = _find_improving(signs, off, edges, w, levels)
        if move is None:
            break
        idxs, added, delta = move
        edges = _edges_after(edges, idxs, added)
        w += delta
        moves_applied[len(idxs)] += 1
    return edges, w


def _mates(pairs: tuple[Pair, ...]) -> list[int]:
    mate = [0] * (2 * len(pairs))
    for a, b in pairs:
        mate[a], mate[b] = b, a
    return mate


def _interpolation_walk(signs, off, mate, target) -> Iterator[int]:
    """Turn the mate array ``mate`` into ``target`` in place; yield each weight.

    For each vertex a whose mate b is not c = target[a], the swap (a, b),
    (c, d) -> (a, c), (b, d) with d = mate[c] fixes a's edge and no earlier
    one: at most order/2 swaps, each moving the weight by at most 4.  The
    first weight yielded is the start's.
    """
    def sign(u, v):
        return signs[off[u] + v] if u < v else signs[off[v] + u]

    w = sum(signs[off[a] + b] for a, b in enumerate(mate) if a < b)
    yield w
    for a, c in enumerate(target):
        b = mate[a]
        if b != c:
            d = mate[c]
            w += sign(a, c) + sign(b, d) - sign(a, b) - sign(c, d)
            mate[a], mate[c], mate[b], mate[d] = c, a, d, b
            yield w


def local_search_min_weight(
    g: SignedCompleteGraph, *, seed: int = 0, start: PerfectMatching | None = None
) -> tuple[PerfectMatching, SolveReport]:
    """Minimize |weight|: r = 2 descent, certified bound, walk, r <= 4 polish.

    Descends by improving r = 2 exchanges from ``start`` or, when it is
    None, one random matching drawn from ``seed``, stopping at the parity
    floor (0 when order/2 is even, else 1).  A stall above it computes
    :func:`lower_bound`; a stall above the bound runs the walk from the
    least- to the greatest-weight matching, whose best matching replaces
    the stalled one when it weighs less.  A descent with r <= 4 down to
    the bound ends the solve; it scans r = 3/4 only when the walk stopped
    at |weight| 2 above a bound of 0.  The gap is 0 when order/2 is odd
    and at most 2 otherwise.
    """
    if g.order < 4 or g.order % 2:
        raise ParameterError(f"local search needs even order >= 4, got {g.order}")
    if start is not None and start.order != g.order:
        raise MatchingError("start matching does not cover the graph's vertex set")
    floor = 0 if (g.order // 2) % 2 == 0 else 1
    signs, off = g.signs, _row_offsets(g.order)
    t0 = time.perf_counter()

    start = start or random_perfect_matching(g.order, SplitMix64(seed))
    initial_weight = sum(signs[off[a] + b] for a, b in start.pairs)
    moves_applied = {r: 0 for r in R_LEVELS}
    edges, w = _descend(signs, off, start.pairs, initial_weight, floor, (2,), moves_applied)
    bound = floor
    if abs(w) > floor:
        # two blossom calls and <= order/2 walk swaps, not ~order^4-pattern scans
        bound, minus_mm, plus_mm = _bound_parts(g)
        if abs(w) > bound:
            mate = _mates(complete_sign_matching(g, minus_mm, -1).pairs)
            # with lo > 0 the least-weight matching is already exact: no walk
            target = mate if plus_mm is None else _mates(
                complete_sign_matching(g, plus_mm, 1).pairs)
            # a tie keeps the r = 2 optimum, which needed fewer r = 4 scans to polish
            for walk_w in _interpolation_walk(signs, off, mate, target):
                if abs(walk_w) < abs(w):
                    edges, w = tuple((a, b) for a, b in enumerate(mate) if a < b), walk_w
            edges, w = _descend(signs, off, edges, w, bound, R_LEVELS, moves_applied)

    if abs(w) <= floor:
        stop_reason = "floor"
    elif abs(w) <= bound:
        stop_reason = "certified"
    else:
        stop_reason = "no_move"
    report = SolveReport(
        initial_weight=initial_weight,
        final_weight=w,
        moves_applied=moves_applied,
        stop_reason=stop_reason,
        lower_bound=bound,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
    return PerfectMatching(edges), report


# ---------------------------------------------------------------------------
# Exact oracle


def oracle_min_weight(
    g: SignedCompleteGraph, order_limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, PerfectMatching]:
    """Exact minimum of |weight| over all perfect matchings, with witness.

    Matching the lowest vertex again and again leaves vertex sets whose
    achievable weights are memoized, packed into an int (bit i <=> weight
    i - order/2 is achievable).  A set with lowest vertex u splits the rest
    into u's plus and minus neighbours, ORs its children's weights per side
    and shifts each side once.  Children have a larger lowest vertex, so
    the sets are filled bottom-up, lowest vertex descending.  The witness
    is the lexicographically smallest matching attaining the minimum.

    Refuses instances with order above ``order_limit`` (default 16, which
    already means 2,027,025 matchings); see :data:`ORACLE_COST`.
    """
    refuse_past_oracle_limit(g.order, order_limit)
    order = g.order
    offset = order // 2
    plus = g.plus_masks
    full = (1 << order) - 1
    memo: dict[int, int] = {0: 1 << offset}
    for u in range(order - 2, -1, -1):
        # A set with lowest vertex u has lost all u earlier vertices and
        # ``a`` later ones; each later one went with an earlier one, the
        # other earlier ones in pairs, so a <= u and u + a is even.
        ubit = 1 << u
        above = full ^ ((ubit << 1) - 1)
        plus_u = plus[u]
        later = [1 << v for v in range(u + 1, order)]
        for a in range(u % 2, min(u, order - 2 - u) + 1, 2):
            for removed in combinations(later, a):
                rest = above ^ sum(removed)
                p = rest & plus_u
                m = rest ^ p
                hi = lo = 0
                while p:
                    vbit = p & -p
                    p ^= vbit
                    hi |= memo[rest ^ vbit]
                while m:
                    vbit = m & -m
                    m ^= vbit
                    lo |= memo[rest ^ vbit]
                memo[rest | ubit] = (hi << 1) | (lo >> 1)

    weights = memo[full]
    min_abs = -1
    for w in range(offset + 1):
        if (weights >> (offset + w)) & 1 or (weights >> (offset - w)) & 1:
            min_abs = w
            break
    assert min_abs >= 0

    targets = {t for t in (min_abs, -min_abs) if (weights >> (offset + t)) & 1}
    pairs: list[Pair] = []
    mask = full
    while mask:
        u = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << u)
        mm = rest
        while mm:
            vbit = mm & -mm
            mm ^= vbit
            sub_mask = rest ^ vbit
            sub_weights = memo[sub_mask]
            s = 1 if plus[u] & vbit else -1
            new_targets = {
                t - s
                for t in targets
                if abs(t - s) <= offset and (sub_weights >> (offset + t - s)) & 1
            }
            if new_targets:
                pairs.append((u, vbit.bit_length() - 1))
                mask = sub_mask
                targets = new_targets
                break
        else:
            raise AssertionError("witness reconstruction lost feasibility")

    return min_abs, PerfectMatching(tuple(pairs))


# ---------------------------------------------------------------------------
# Sign-restricted matchings


def _bipartite_side(order: int, edges: tuple[Pair, ...]) -> int | None:
    """|A| when ``edges`` are exactly the pairs across a partition {A, B}, else None.

    A is the side holding vertex 0, so B is the neighborhood of 0.
    """
    side_b = {v for u, v in edges if u == 0}
    size_a = order - len(side_b)
    if not side_b or len(edges) != size_a * len(side_b):
        return None
    if any((u in side_b) == (v in side_b) for u, v in edges):
        return None
    return size_a


def lower_bound(g: SignedCompleteGraph) -> int:
    """Certified lower bound on |weight| over all perfect matchings.

    A perfect matching with m minus edges weighs order/2 - 2m, and m is at
    most the minus class's matching number; symmetrically the weight is at
    most 2*nu_plus - order/2.  Every weight thus lies on the lattice
    lo, lo+2, ..., hi with lo = order/2 - 2*nu_minus and hi = 2*nu_plus -
    order/2; nu_plus is only computed when lo <= 0.  If one sign class is
    the complete bipartite graph across a partition {A, B} of the vertices
    (the two-block family), the other class is two cliques, so every perfect
    matching pairs an even number of A's vertices inside A and uses a number
    of class edges with the parity of |A|; weights breaking that parity are
    dropped.  The bound is the smallest |weight| left on the lattice.
    """
    return _bound_parts(g)[0]


def _bound_parts(g: SignedCompleteGraph):
    """(:func:`lower_bound`, maximum minus-class matching, maximum plus-class
    matching or None when lo > 0): the bound and the walk's two ends."""
    order = g.order
    half = order // 2
    minus = sign_subgraph(g, -1).edges
    minus_mm = blossom.maximum_matching(order, minus)
    lo = half - 2 * len(minus_mm)
    if lo > 0:
        # the least-weight matching weighs lo, so it meets every parity step
        return lo, minus_mm, None
    plus = sign_subgraph(g, 1).edges
    plus_mm = blossom.maximum_matching(order, plus)
    hi = 2 * len(plus_mm) - half
    # (sign, parity): a matching's count of ``sign`` edges, (half + sign*w)/2,
    # must have this parity
    parities = []
    for sign, edges in ((1, plus), (-1, minus)):
        size_a = _bipartite_side(order, edges)
        if size_a is not None:
            parities.append((sign, size_a % 2))
    bound = min(
        abs(w)
        for w in range(lo, hi + 1, 2)
        if all((half + sign * w) // 2 % 2 == parity for sign, parity in parities)
    )
    return bound, minus_mm, plus_mm


def pm_from_sign_max_matching(g: SignedCompleteGraph, sign: int) -> PerfectMatching:
    """Perfect matching built from a maximum matching of one sign class.

    The vertices missed by the maximum matching span no edge of that sign
    (else the matching could grow), so pairing them consecutively uses only
    opposite-sign edges.  The result has weight
    ``(order/2 - 2*nu) * (-sign)`` where nu is the sign's matching number;
    for sign=-1 that is order/2 - 2*nu.
    """
    sub = sign_subgraph(g, sign)
    return complete_sign_matching(g, blossom.maximum_matching(sub.order, sub.edges), sign)


def complete_sign_matching(
    g: SignedCompleteGraph, mm: tuple[Pair, ...], sign: int
) -> PerfectMatching:
    """Extend a maximum matching of one sign class to a perfect matching.

    The uncovered vertices are paired consecutively; by maximality they span
    no edge of ``sign``, so every added pair carries -sign.
    """
    covered = {v for p in mm for v in p}
    uncovered = [v for v in range(g.order) if v not in covered]
    rest = [(uncovered[i], uncovered[i + 1]) for i in range(0, len(uncovered), 2)]
    for a, b in rest:
        # maximality witness: an uncovered same-sign edge would extend mm
        assert g.sign(a, b) == -sign, f"uncovered pair ({a},{b}) carries sign {sign}"
    return PerfectMatching.from_pairs(list(mm) + rest)
