"""Minimum-|weight| perfect matchings: exchange local search and exact oracle.

The local move replaces ``r`` edges of the current perfect matching with a
different perfect matching on the same ``2r`` vertices (their symmetric
difference is a union of alternating cycles).  One scan generates every
move with r in {2, 3, 4}, optionally anchored on edges every move removes;
it reads signs straight from the instance's flat ``signs`` tuple through
per-row offsets computed once per call.

A solve has one route: an r = 2 descent to the parity floor; on a stall
above it, :func:`certify`'s bound and witness, the best matching of the
interpolation walk, which swaps the least-weight matching into the
greatest-weight one two edges at a time.  Each swap moves the weight by at
most 4, so the walk passes |weight| <= 2 when the two straddle 0 and ends
optimal when they do not.  A walk that jumps from -2 to +2 over a bound of
0 is bridged by one exchange anchored on that swap; only these anchored
scans reach r = 3 and 4.

The oracle computes the exact minimum of |weight| over all perfect
matchings by building its witness pair by pair, weight by weight, asking
top down whether a weight is achievable on the vertex sets left by
repeatedly matching the lowest vertex.  A set's complete weights are
computed at most once, when a query on it has tried every child, as a
failed one has; so the floor is typically reached after a few dozen sets
and, when it is unreachable, after all F(order+1) (10,946 at order 20).
Its witness is the lexicographically smallest optimal matching, which pins
oracle output for a given instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

from . import blossom
from .core import (
    Pair,
    ParameterError,
    PerfectMatching,
    SignedCompleteGraph,
    pair_row_offset,
    sigma_matching,
    sign_subgraph,
)
from .rng import SplitMix64

ORACLE_LIMIT = 24
ORACLE_COST = ("one oracle call takes ~30 ms at order 20 and ~0.25 s at order 24, "
               "growing ~3x per two vertices")

R_LEVELS = (2, 3, 4)


class OracleLimitError(ParameterError):
    """Instance order exceeds the enumeration limit of the oracle."""


@dataclass
class SolveReport:
    """Trace of one local-search run.

    ``stop_reason`` is ``floor`` (|weight| reached the parity floor),
    ``certified`` (|weight| reached :func:`certify`'s bound) or ``no_move``
    (uncertified: the walk jumped over 0 and no anchored exchange bridged
    it, so the gap is 2).  ``lower_bound`` is the floor in the first case
    and the certified bound otherwise; ``gap`` is
    |final_weight| - lower_bound, so 0 means the result is proven optimal.
    ``moves_applied`` counts the descent's r = 2 moves and the bridging
    exchange, by r.
    """

    initial_weight: int
    final_weight: int
    moves_applied: dict[int, int]
    stop_reason: str
    lower_bound: int
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


def _iter_raw_moves(signs, off, edges, r, anchor=()):
    """(removed_idxs, added_pairs, delta) in canonical order, r fixed.

    Removed subsets are the ``anchor`` indices into ``edges`` plus each
    ``combinations`` of r - len(anchor) other indices, and each subset's
    added pairings come in lexicographic order.  ``off`` is
    :func:`_row_offsets`; the flat lookup is valid because removed pairs are
    canonical and added pairs are built from increasing positions over
    sorted vertices, so a < b.
    """
    patterns = _PATTERNS[r]
    if anchor:
        others = [i for i in range(len(edges)) if i not in anchor]
        subsets = (anchor + rest for rest in combinations(others, r - len(anchor)))
    else:
        subsets = combinations(range(len(edges)), r)
    for idxs in subsets:
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


def _find_improving(signs, off, edges, weight, anchor=()):
    """The first move that lowers |weight|: an r = 2 move or, given an
    ``anchor``, a move removing the anchor edges, at the smallest r <= 4."""
    current_abs = abs(weight)
    for r in R_LEVELS if anchor else (2,):
        if r > len(edges):
            break
        for idxs, added, delta in _iter_raw_moves(signs, off, edges, r, anchor):
            if abs(weight + delta) < current_abs:
                return idxs, added, delta
    return None


def _descend(signs, off, edges, w, stop_at, moves_applied):
    """Apply improving r = 2 moves until |w| <= stop_at or none is left."""
    while abs(w) > stop_at:
        move = _find_improving(signs, off, edges, w)
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


def _pairs_of(mate: list[int]) -> tuple[Pair, ...]:
    return tuple((a, b) for a, b in enumerate(mate) if a < b)


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
    """Minimize |weight|: r = 2 descent, then :func:`certify`.

    Descends by improving r = 2 exchanges from ``start`` or, when it is
    None, one random matching drawn from ``seed``, stopping at the parity
    floor (0 when order/2 is even, else 1).  A stall above it calls
    :func:`certify`, whose witness replaces the stalled matching when it
    weighs less; the exchange that bridged the walk's jump over 0, if any,
    is counted under its r.  The gap is 0 unless the bridge found no
    anchored exchange, and then it is 2.
    """
    if g.order < 4:
        raise ParameterError(f"local search needs even order >= 4, got {g.order}")
    floor = 0 if (g.order // 2) % 2 == 0 else 1
    signs, off = g.signs, _row_offsets(g.order)
    t0 = time.perf_counter()

    start = start or random_perfect_matching(g.order, SplitMix64(seed))
    initial_weight = sigma_matching(g, start)
    moves_applied = {r: 0 for r in R_LEVELS}
    edges, w = _descend(signs, off, start.pairs, initial_weight, floor, moves_applied)
    bound = floor
    if abs(w) > floor:
        # one or two blossom calls, <= order/2 walk swaps and at most one anchored scan
        cert = certify(g)
        bound = cert.bound
        # a tie keeps the r = 2 optimum
        if abs(cert.weight) < abs(w):
            edges, w = cert.matching.pairs, cert.weight
            if cert.bridge:
                moves_applied[cert.bridge] += 1

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


def oracle_min_weight(g: SignedCompleteGraph) -> tuple[int, PerfectMatching]:
    """Exact minimum of |weight| over all perfect matchings, with witness.

    For |weight| = floor, floor + 2, ... in turn, the witness is built pair
    by pair from the targets {w, -w}: the lowest vertex u takes the first
    partner v whose child achieves some target - sign(u, v), as
    :func:`_reach` answers.  Only the first pair can find no partner, and
    then w is not achieved; so the first weight built is the minimum, and
    its witness the lexicographically smallest optimal matching.  ``full``,
    a local memo freed on return, maps a vertex set to its complete weights
    as an int with bit i <=> weight i - order (a target starts within
    order/2 of 0 and moves by 1 per pair, so no bit goes negative).

    Refuses instances with order above :data:`ORACLE_LIMIT`, 24: that is
    316,234,143,225 matchings and at worst 75,025 completed sets; see
    :data:`ORACLE_COST`.
    """
    order = g.order
    if order > ORACLE_LIMIT:
        raise OracleLimitError(
            f"order {order} exceeds the oracle limit {ORACLE_LIMIT} ({ORACLE_COST})")
    plus = _plus_masks(g)
    full: dict[int, int] = {0: 1 << order}
    min_abs = order // 2 % 2
    while True:  # |weight| = order/2 at the latest
        targets = {min_abs, -min_abs}
        pairs: list[Pair] = []
        mask = (1 << order) - 1
        while mask:
            ubit = mask & -mask
            u = ubit.bit_length() - 1
            rest = m = mask ^ ubit
            while m:
                vbit = m & -m
                m ^= vbit
                s = 1 if plus[u] & vbit else -1
                reached = {t - s for t in targets
                           if _reach(rest ^ vbit, order + t - s, full, plus)}
                if reached:
                    pairs.append((u, vbit.bit_length() - 1))
                    mask, targets = rest ^ vbit, reached
                    break
            else:
                break  # vertex 0 has no partner: min_abs is not achieved
        if not mask:
            return min_abs, PerfectMatching(tuple(pairs))
        min_abs += 2


def _plus_masks(g: SignedCompleteGraph) -> list[int]:
    """Per-vertex plus neighbourhoods: bit v of entry u <=> sign(u, v) = +1."""
    masks = [0] * g.order
    for (u, v), sign in zip(combinations(range(g.order), 2), g.signs):
        if sign > 0:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def _reach(mask, bit, full, plus) -> bool:
    """Whether weight ``bit`` - order is achievable on the vertex set ``mask``.

    A complete set is read from ``full``.  Otherwise its lowest vertex u
    tries its partners v ascending; the child ``mask`` - {u, v} needs
    weight - sign(u, v).  The weights of complete children are ORed per
    sign as they come.  An incomplete child is asked, by recursion, only
    when the children before it do not already answer, and a failed query
    completed it.  When the loop ends every child is complete, so the set's
    weights, each sign's OR shifted once, go to ``full``: no set is
    completed twice.
    """
    known = full.get(mask)
    if known is not None:
        return bool(known >> bit & 1)
    ubit = mask & -mask
    rest = mask ^ ubit
    p = rest & plus[ubit.bit_length() - 1]
    get = full.get
    hi = lo = 0
    m = rest
    while m:
        vbit = m & -m
        m ^= vbit
        child = rest ^ vbit
        known = get(child)
        if known is None:
            if ((hi >> (bit - 1) | lo >> (bit + 1)) & 1
                    or _reach(child, bit - 1 if vbit & p else bit + 1, full, plus)):
                return True
            known = full[child]
        if vbit & p:
            hi |= known
        else:
            lo |= known
    weights = full[mask] = (hi << 1) | (lo >> 1)
    return bool(weights >> bit & 1)


# ---------------------------------------------------------------------------
# Sign-restricted matchings


class Certificate(NamedTuple):
    """:func:`certify`'s bound and lo; the witness ``matching`` weighs
    ``weight``.  ``bridge`` is the r of the exchange that bridged the walk's
    jump over 0, else 0."""

    bound: int
    lo: int
    matching: PerfectMatching
    weight: int
    bridge: int = 0


def certify(g: SignedCompleteGraph) -> Certificate:
    """Certified lower bound on |weight| over all perfect matchings, with witness.

    A perfect matching with m minus edges weighs order/2 - 2m, and m is at
    most the minus class's matching number; symmetrically the weight is at
    most 2*nu_plus - order/2.  Every weight thus lies on the lattice
    lo, lo+2, ..., hi, where lo and hi are the weights of M- and M+, the
    minus and plus classes' maximum matchings completed by
    :func:`pm_from_sign_max_matching`; M+ is only built when lo <= 0.  If
    the signs show one class to be the complete bipartite graph across a
    partition {A, B} (the two-block family), the other class is two cliques, so every perfect matching pairs
    an even number of A's vertices inside A and uses a number of class edges
    with the parity of |A|; weights breaking that parity are dropped.  The
    bound is the smallest |weight| left on the lattice.

    The witness is M- when lo > 0, else the walk's first matching of least
    |weight| from M- to M+.  When that misses a bound of 0, the walk's first
    swap jumped from -2 to +2, and :func:`_bridge` looks for one exchange to
    weight 0 anchored on that swap; its result, when found, is the witness.
    """
    minus_pm = pm_from_sign_max_matching(g, -1)
    lo = sigma_matching(g, minus_pm)
    if lo > 0:  # M- attains lo, so lo meets every parity step
        return Certificate(lo, lo, minus_pm, lo)
    plus_pm = pm_from_sign_max_matching(g, 1)
    hi = sigma_matching(g, plus_pm)
    half = g.order // 2
    # a matching's count of ``sign`` edges, (half + sign*w)/2, has the parity of |A|
    block = _two_block_parity(g)
    bound = min(abs(w) for w in range(lo, hi + 1, 2)
                if block is None or (half + block[0] * w) // 2 % 2 == block[1])
    off = _row_offsets(g.order)
    mate, target = _mates(minus_pm.pairs), _mates(plus_pm.pairs)
    best = jump = None
    before = mate[:]
    for w in _interpolation_walk(g.signs, off, mate, target):
        if best is None or abs(w) < abs(best):
            best, pairs = w, _pairs_of(mate)
            if abs(best) == bound:  # no later matching weighs less
                break
        if bound == 0 and jump is None:
            # weights are even and start at lo <= 0, so with no 0 met the
            # first positive one ends a swap from -2 to +2
            if w > 0:
                jump = (_pairs_of(before), _pairs_of(mate))
            before = mate[:]
    if jump is not None and best != 0:
        bridged = _bridge(g.signs, off, *jump)
        if bridged is not None:
            return Certificate(0, lo, PerfectMatching(bridged[0]), 0, bridged[1])
    return Certificate(bound, lo, PerfectMatching(pairs), best)


def _bridge(signs, off, before, after):
    """(pairs, r) of a zero-weight matching one exchange from the walk's swap
    (a, b), (c, d) -> (a, c), (b, d) from weight -2 to +2, or None.  The scan
    runs from the matching ``before`` the swap anchored on {ab, cd}, then
    from the one ``after`` it anchored on {ac, bd}, each r = 2, 3, 4 in turn;
    any move that lowers |weight| 2 reaches 0.
    """
    for edges, other, w in ((before, after, -2), (after, before, 2)):
        other = set(other)
        anchor = tuple(i for i, e in enumerate(edges) if e not in other)
        move = _find_improving(signs, off, edges, w, anchor)
        if move is not None:
            idxs, added, _ = move
            return _edges_after(edges, idxs, added), len(idxs)
    return None


def _two_block_parity(g: SignedCompleteGraph) -> tuple[int, int] | None:
    """(sign, |A| % 2) when the ``sign`` class is exactly the pairs across a
    partition {A, B} with 0 in A, else None.  Row 0 of the signs is then the
    row of every u in A, sign(u, v) = sign(0, v), and negated that of every
    u in B.  At most one class qualifies: the other is two cliques, never
    complete bipartite at order >= 4, and empty at order 2.
    """
    order, signs = g.order, g.signs
    a_row = signs[:order - 1]  # a_row[u:] holds sign(0, v) for v > u
    b_row = tuple(-x for x in a_row)
    for sign in set(a_row):  # the signs whose B, 0's neighbourhood, is nonempty
        start = order - 1
        for u in range(1, order - 1):
            end = start + order - 1 - u
            if signs[start:end] != (b_row if a_row[u - 1] == sign else a_row)[u:]:
                break
            start = end
        else:
            return sign, (order - a_row.count(sign)) % 2
    return None


def pm_from_sign_max_matching(g: SignedCompleteGraph, sign: int) -> PerfectMatching:
    """A maximum matching of one sign class, completed to a perfect matching.

    The vertices it misses are paired consecutively; by maximality they span
    no edge of ``sign``, so each added pair carries -sign, as an assert
    checks.  The weight is ``(order/2 - 2*nu) * (-sign)``, nu the sign's
    matching number.
    """
    sub = sign_subgraph(g, sign)
    mm = blossom.maximum_matching(sub.order, sub.edges)
    covered = {v for p in mm for v in p}
    uncovered = [v for v in range(g.order) if v not in covered]
    rest = [(uncovered[i], uncovered[i + 1]) for i in range(0, len(uncovered), 2)]
    for a, b in rest:
        # maximality witness: an uncovered same-sign edge would extend mm
        assert g.sign(a, b) == -sign, f"uncovered pair ({a},{b}) carries sign {sign}"
    return PerfectMatching.from_pairs(list(mm) + rest)
