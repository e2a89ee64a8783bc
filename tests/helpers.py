"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against different traversals than
the package (largest-vertex-first pairing enumeration, bitmask matching
recursion) so the two sides cannot share a bug by construction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice

from lowpm import (
    PerfectMatching,
    SignedCompleteGraph,
    SplitMix64,
    clique_instance,
    proposition2_instance,
    solver,
)
from lowpm import sigma_total  # noqa: F401  (re-export convenience)


def iter_pairings_desc(verts: tuple[int, ...]):
    """All perfect pairings, recursing on the LARGEST remaining vertex."""
    if not verts:
        yield ()
        return
    u = verts[-1]
    rest = verts[:-1]
    for i in range(len(rest)):
        v = rest[i]
        remaining = rest[:i] + rest[i + 1:]
        for tail in iter_pairings_desc(remaining):
            yield tail + ((v, u),)


def brute_perfect_matchings(order: int):
    """All perfect matchings of K_order as canonical pair tuples."""
    for pairing in iter_pairings_desc(tuple(range(order))):
        yield tuple(sorted(pairing))


def brute_min_weight(g: SignedCompleteGraph) -> tuple[int, tuple]:
    """Exact minimum |weight| and the lexicographically smallest witness."""
    best = None
    witness = None
    for pairs in sorted(brute_perfect_matchings(g.order)):
        w = abs(sum(g.sign(a, b) for a, b in pairs))
        if best is None or w < best:
            best, witness = w, pairs
    return best, witness


def reference_oracle(g: SignedCompleteGraph) -> tuple[int, tuple]:
    """The exact minimum |weight| and its lexicographically smallest witness
    from the complete weight memo, filled bottom-up with no query or recursion.

    Matching the lowest vertex again and again leaves F(order+1) vertex
    sets.  Each one's achievable weights are an int (bit i <=> weight
    i - order/2): its lowest vertex's partners split by sign, the children's
    weights ORed per side and each side shifted once.  Children have a
    larger lowest vertex, so the sets are filled lowest vertex descending.
    The witness is then built greedily, keeping every optimal target the
    chosen pairs still allow.
    """
    order = g.order
    offset = order // 2
    plus = [sum(1 << v for v in range(order) if v != u and g.sign(u, v) > 0)
            for u in range(order)]
    full = (1 << order) - 1
    memo = {0: 1 << offset}
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
    min_abs = min(abs(i - offset) for i in range(2 * offset + 1) if weights >> i & 1)
    targets = {t for t in (min_abs, -min_abs) if (weights >> (offset + t)) & 1}
    pairs = []
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
    return min_abs, tuple(pairs)


def brute_matching_number(order: int, edges) -> int:
    """Maximum matching size by branch-on-lowest-vertex bitmask recursion."""
    adj = [0] * order
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @lru_cache(maxsize=None)
    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        low = mask & -mask
        u = low.bit_length() - 1
        rest = mask ^ low
        best = rec(rest)  # u stays unmatched
        candidates = adj[u] & rest
        while candidates:
            vbit = candidates & -candidates
            candidates ^= vbit
            best = max(best, 1 + rec(rest ^ vbit))
        return best

    result = rec((1 << order) - 1)
    rec.cache_clear()
    return result


def sigma_by_index(g: SignedCompleteGraph, pairs) -> int:
    """Sum of the pairs' labels, read through README's closed-form index
    ``u*order - u*(u+1)/2 + (v-u-1)`` rather than the package's lookup."""
    order = g.order
    total = 0
    for a, b in pairs:
        u, v = min(a, b), max(a, b)
        total += g.signs[u * order - u * (u + 1) // 2 + (v - u - 1)]
    return total


@lru_cache(maxsize=None)
def _cross_masks(order: int) -> tuple:
    """(|A|, bitmask over canonical pair indices of the pairs across {A, B})
    for every partition of the vertices with 0 in A and B nonempty."""
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    masks = []
    for b_bits in range(1, 1 << (order - 1)):
        side_b = {v for v in range(1, order) if b_bits >> (v - 1) & 1}
        cross = sum(1 << i for i, (u, v) in enumerate(pairs) if (u in side_b) != (v in side_b))
        masks.append((order - len(side_b), cross))
    return tuple(masks)


def brute_two_block_parities(g: SignedCompleteGraph) -> list[tuple[int, int]]:
    """Every (sign, |A| % 2) such that the ``sign`` class is exactly the pairs
    across a partition {A, B}, 0 in A and B nonempty, found by trying every
    such partition against both classes' pair bitmasks."""
    plus = sum(1 << i for i, x in enumerate(g.signs) if x > 0)
    minus = ((1 << len(g.signs)) - 1) ^ plus
    return [(sign, size_a % 2) for size_a, cross in _cross_masks(g.order)
            for sign, cls in ((1, plus), (-1, minus)) if cls == cross]


def raw_moves(g: SignedCompleteGraph, m: PerfectMatching, r: int, anchor=()):
    """The local search's own scan at ``r``: (removed_idxs, added, delta)."""
    return solver._iter_raw_moves(g.signs, solver._row_offsets(g.order), m.pairs, r, anchor)


def assert_sound_move(g: SignedCompleteGraph, m: PerfectMatching, move) -> PerfectMatching:
    """Check one scan move and return the matching after it.

    Its added pairs cover exactly the 2r removed vertices and share no edge
    with the removed ones, the result is a valid :class:`PerfectMatching`,
    and delta is the difference of :func:`sigma_by_index` across the move.
    """
    idxs, added, delta = move
    removed = [m.pairs[i] for i in idxs]
    assert len(added) == len(removed)
    assert sorted(v for p in added for v in p) == sorted(v for p in removed for v in p)
    assert not set(added) & set(removed)
    after = PerfectMatching(solver._edges_after(m.pairs, idxs, added))
    assert sigma_by_index(g, after.pairs) - sigma_by_index(g, m.pairs) == delta
    return after


def crossing_pairings(removed: tuple) -> list[tuple]:
    """All pairings of removed's vertices sharing no edge with removed."""
    verts = tuple(sorted(v for p in removed for v in p))
    removed_set = set(removed)
    return [
        tuple(sorted(p))
        for p in iter_pairings_desc(verts)
        if not any(e in removed_set for e in p)
    ]


# ---------------------------------------------------------------------------
# The bridge corpus: instances whose interpolation walk jumps over 0, or that
# sit just below the thm2 threshold.  Signs are set through the closed-form
# pair index, as in :func:`sigma_by_index`.


def with_signs(g: SignedCompleteGraph, changes) -> SignedCompleteGraph:
    """``g`` with each pair (u, v), u < v, of ``changes`` set to its sign."""
    order, signs = g.order, list(g.signs)
    for (u, v), sign in changes.items():
        signs[u * order - u * (u + 1) // 2 + (v - u - 1)] = sign
    return SignedCompleteGraph(order, tuple(signs))


def flipped_prop2(k: int, seed: int) -> SignedCompleteGraph:
    """``proposition2_instance(k)`` with one seeded cross edge set to -1:
    balanced, and its walk from M- to M+ often jumps from -2 to +2."""
    g = proposition2_instance(k)
    t = (k * k + k) // 2 + 2  # block A is 0..t-1
    rng = SplitMix64(seed)
    u, v = rng.bounded(t), t + rng.bounded(g.order - t)
    return with_signs(g, {(u, v): -1})


def flipped_two_block(order: int, seed: int) -> SignedCompleteGraph:
    """A seeded partition {A, B} with order/4 <= |A| <= 3*order/4, one sign
    across and the other inside, and 1-3 seeded sign flips (a pair drawn
    twice flips back)."""
    rng = SplitMix64(seed)
    verts = list(range(order))
    rng.shuffle(verts)
    side_a = set(verts[:order // 4 + rng.bounded(order // 2 + 1)])
    across = 1 if rng.bounded(2) else -1
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    signs = {(u, v): across if (u in side_a) != (v in side_a) else -across for u, v in pairs}
    for _ in range(1 + rng.bounded(3)):
        pair = pairs[rng.bounded(len(pairs))]
        signs[pair] = -signs[pair]
    return with_signs(SignedCompleteGraph(order, (1,) * len(pairs)), signs)


def flipped_clique(n: int, k: int, seed: int) -> SignedCompleteGraph:
    """``clique_instance(n, k)`` with one seeded clique edge set to -1: its
    imbalance is thm2_bound - 2 and its minimum 2k - 2."""
    rng = SplitMix64(seed)
    u = rng.bounded(3 * n + k - 1)
    v = u + 1 + rng.bounded(3 * n + k - 1 - u)
    return with_signs(clique_instance(n, k), {(u, v): -1})


# ---------------------------------------------------------------------------
# Generators, transcribed one word at a time from the procedures pinned in
# the lowpm.rng module docstring (no batching, no shortcuts).


def reference_words(seed: int):
    """Endless SplitMix64 output stream."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def reference_stream(seed: int, count: int) -> list[int]:
    """The first ``count`` words of :func:`reference_words`."""
    return list(islice(reference_words(seed), count))


def reference_bounded(words, n: int) -> int:
    """Reject words >= 2^64 - (2^64 mod n), return ``word mod n``."""
    while True:
        word = next(words)
        if word < 2**64 - 2**64 % n:
            return word % n


def reference_sample_indices(words, population: int, count: int) -> list[int]:
    """Partial Fisher-Yates from the front; the first ``count`` slots, sorted."""
    pool = list(range(population))
    for i in range(count):
        j = i + reference_bounded(words, population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:count])


def reference_bits(words, count: int) -> list[int]:
    """Bit k mod 64 of word k // 64 for k < count, least significant first."""
    bits = []
    for k in range(count):
        if k % 64 == 0:
            word = next(words)
        bits.append(word >> (k % 64) & 1)
    return bits


def reference_random_with_imbalance(order: int, s: int, seed: int) -> tuple[int, ...]:
    """Stream version 2: T bits, then a uniform fix-up of the surplus class."""
    total = order * (order - 1) // 2
    plus = (total + s) // 2
    words = reference_words(seed)
    bits = reference_bits(words, total)
    ones = sum(bits)
    if ones != plus:
        surplus = 1 if ones > plus else 0
        positions = [k for k in range(total) if bits[k] == surplus]
        m, f = len(positions), abs(ones - plus)
        if 2 * f <= m:
            flipped = {positions[i] for i in reference_sample_indices(words, m, f)}
        else:
            kept = {positions[i] for i in reference_sample_indices(words, m, m - f)}
            flipped = set(positions) - kept
        for k in flipped:
            bits[k] = 1 - surplus
    return tuple(1 if bit else -1 for bit in bits)


def reference_random_graph(order: int, seed: int) -> tuple:
    """Stream version 2: pair k, in canonical order, is an edge iff bit k is 1."""
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    bits = reference_bits(reference_words(seed), len(pairs))
    return tuple(pair for pair, bit in zip(pairs, bits) if bit)


def random_with_imbalance_v0_1_0(order: int, s: int, seed: int) -> SignedCompleteGraph:
    """The lowpm 0.1.0 stream: the plus positions are the first
    (C(order,2)+s)/2 slots of a partial Fisher-Yates over every pair."""
    total = order * (order - 1) // 2
    plus = set(reference_sample_indices(reference_words(seed), total, (total + s) // 2))
    return SignedCompleteGraph(order, tuple(1 if i in plus else -1 for i in range(total)))
