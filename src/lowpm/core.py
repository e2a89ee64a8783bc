"""Core types for +/-1 edge-labeled complete graphs and their perfect matchings.

An instance is the complete graph on vertices ``{0, ..., order-1}`` together
with a label in ``{-1, +1}`` for every unordered vertex pair.  Labels live in
a flat tuple indexed by the row-major upper-triangle pair index (see
:func:`pair_row_offset`), so sign lookup is O(1) and instances are
immutable and hashable.

This module also owns the two text formats used throughout the package:

* instance files (``signed-k`` format, version 1)::

      signed-k 1
      order 8
      signs ++-+-...        # exactly C(8,2) = 28 sign characters

  Serialization always emits the three-line form above.  When parsing, any
  whitespace inside the sign block is ignored, so long sign strings may be
  wrapped over several lines.

* matchings on one line, written but never read: ``matching 0-3 1-2`` with
  each pair ``a-b`` satisfying ``a < b`` and pairs sorted by first endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import eq
from typing import Callable, Iterable

Pair = tuple[int, int]

FORMAT_HEADER = "signed-k 1"


class LowpmError(Exception):
    """Base class for all package errors."""


class InvalidPairError(LowpmError, ValueError):
    """A vertex pair is degenerate or out of range."""


class MatchingError(LowpmError, ValueError):
    """A matching violates its structural contract."""


class ParameterError(LowpmError, ValueError):
    """An operation was called with parameters outside its domain."""


class InstanceFormatError(LowpmError, ValueError):
    """Malformed instance text.

    Carries the 1-based ``line`` and ``column`` of the first offending
    character when that position is meaningful.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


def pair_count(order: int) -> int:
    """Number of unordered vertex pairs of K_order, i.e. C(order, 2)."""
    return order * (order - 1) // 2


def pair_row_offset(u: int, order: int) -> int:
    """Row u's offset in the pair index: pair (u, v), u < v, has index offset + v.

    The pairs (0,1), (0,2), ..., (0,order-1), (1,2), ... are numbered
    0, 1, ..., C(order,2)-1, the order of ``combinations(range(order), 2)``;
    the closed form is ``u*order - u*(u+1)//2 + (v - u - 1)``.  Hot loops
    precompute this per row and read ``signs[offset[u] + v]`` unchecked.
    """
    return u * (2 * order - u - 3) // 2 - 1


@dataclass(frozen=True)
class SignedCompleteGraph:
    """Complete graph of even order with a +/-1 sign on every edge.

    ``signs[i]`` is the label of the pair with canonical index ``i``.  The
    instance is immutable.
    """

    order: int
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 2 or self.order % 2:
            raise ParameterError(f"order must be an even integer >= 2, got {self.order}")
        expected = pair_count(self.order)
        if len(self.signs) != expected:
            raise ParameterError(
                f"signs has length {len(self.signs)}, expected C({self.order},2)={expected}"
            )
        if self.signs.count(1) + self.signs.count(-1) != len(self.signs):
            raise ParameterError("every sign must be -1 or +1")

    @classmethod
    def _trusted(cls, order: int, signs: tuple[int, ...]) -> "SignedCompleteGraph":
        """An instance from lowpm's own generators, whose order is valid and
        whose signs are C(order, 2) values of +/-1 by construction: built
        without the checks, which scan the signs twice."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "signs", signs)
        return g

    @classmethod
    def from_edge_sign(cls, order: int, sign_of: Callable[[int, int], int]) -> "SignedCompleteGraph":
        """Build an instance by evaluating ``sign_of(u, v)`` on every pair u < v."""
        return cls(order, tuple(sign_of(u, v) for u, v in combinations(range(order), 2)))

    def sign(self, u: int, v: int) -> int:
        """Label of the edge {u, v} (endpoint order irrelevant)."""
        order = self.order
        if u > v:
            u, v = v, u
        if not (0 <= u < v < order):
            raise InvalidPairError(f"need 0 <= u < v < order, got u={u}, v={v}, order={order}")
        return self.signs[pair_row_offset(u, order) + v]


@dataclass(frozen=True)
class PerfectMatching:
    """A partition of {0, ..., 2m-1} into m pairs, held in canonical form.

    Canonical form: each pair is (a, b) with a < b, and pairs are sorted
    ascending by first endpoint.  Canonical form is unique per matching, so
    equality and hashing work out of the box.
    """

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev = -1
        for a, b in self.pairs:
            if a >= b:
                raise MatchingError(f"pair ({a},{b}) must satisfy a < b")
            if a < prev:
                raise MatchingError("pairs must be sorted ascending by first endpoint")
            prev = a
            seen.add(a)
            seen.add(b)
        if seen != set(range(2 * len(self.pairs))):
            raise MatchingError(
                f"pairs must cover every vertex of {{0,...,{2 * len(self.pairs) - 1}}} exactly once"
            )

    @classmethod
    def from_pairs(cls, pairs) -> "PerfectMatching":
        """Canonicalize arbitrary pair order/orientation, then validate."""
        return cls(tuple(sorted(tuple(sorted(p)) for p in pairs)))

    @property
    def order(self) -> int:
        return 2 * len(self.pairs)


@dataclass(frozen=True)
class SimpleGraph:
    """An unlabeled graph on {0, ..., order-1} as neighbour bitsets.

    Bit v of ``rows[u]`` is set iff {u, v} is an edge.  A plain record:
    lowpm builds every one symmetric and loop-free from canonical pairs, and
    outside edge lists come in through :meth:`from_edges`, which range-checks
    them.
    """

    order: int
    rows: tuple[int, ...]

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[Pair]) -> "SimpleGraph":
        """The graph of an edge list; each edge (u, v) needs 0 <= u < v < order."""
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < v < order):
                raise InvalidPairError(f"edge ({u},{v}) out of range for order {order}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    @property
    def edges(self) -> tuple[Pair, ...]:
        """The edges as canonical pairs, in canonical pair order."""
        rows = self.rows
        return tuple((u, v) for u, v in combinations(range(self.order), 2) if rows[u] >> v & 1)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pair_subgraph(order: int, picked: bytes) -> SimpleGraph:
    """The graph of the canonical pairs of K_order whose byte in ``picked``,
    one 0/1 byte per pair, is 1.

    The pairs are laid out as the upper triangle of an order x order digit
    square: row u holds pair (u, v) at column v > u, so column u above the
    diagonal, ``square[u::order][:u]``, holds the pairs (v, u), v < u.  Row u
    of the graph is that column followed by row u from the diagonal on,
    read as a binary numeral with column v as bit v.
    """
    digits = picked.translate(_DIGITS)
    square = bytearray(b"0") * (order * order)
    start = 0
    for u in range(order - 1):
        end = start + order - 1 - u
        square[u * order + u + 1:(u + 1) * order] = digits[start:end]
        start = end
    return SimpleGraph(order, tuple(
        int((square[u::order][:u] + square[u * order + u:(u + 1) * order])[::-1], 2)
        for u in range(order)))


def sign_subgraph(g: SignedCompleteGraph, sign: int) -> SimpleGraph:
    """The spanning subgraph of edges carrying the given sign."""
    if sign not in (-1, 1):
        raise ParameterError(f"sign must be -1 or +1, got {sign}")
    return _pair_subgraph(g.order, bytes(map(eq, g.signs, repeat(sign))))


def sigma_total(g: SignedCompleteGraph) -> int:
    """Sum of all edge labels, (# plus) - (# minus): the imbalance."""
    return 2 * g.signs.count(1) - len(g.signs)


def sigma_matching(g: SignedCompleteGraph, m: PerfectMatching) -> int:
    """Weight of a perfect matching: the sum of its edge labels.

    Equals ``order/2 - 2 * (number of minus edges in m)``, so its parity is
    fixed by the order: even whenever order/2 is even (e.g. order 4n).  The
    lookup past the order check is unchecked: m's pairs are canonical and
    cover 0..order-1, so every pair has 0 <= a < b < order.
    """
    if m.order != g.order:
        raise MatchingError(f"matching covers {m.order} vertices, graph has order {g.order}")
    return sum(g.signs[pair_row_offset(a, g.order) + b] for a, b in m.pairs)


# ---------------------------------------------------------------------------
# Text formats


def _decimal(text: str) -> int | None:
    """The value of a numeral of ASCII digits, else None.

    ``str.isdigit`` alone also accepts digits such as ``'²'`` that ``int``
    rejects, and ``int`` refuses numerals past the interpreter's
    digit limit; both are malformed input here, not a crash.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


_SIGN_CHARS = {1: "+", -1: "-"}


def serialize_instance(g: SignedCompleteGraph) -> str:
    """Three-line signed-k text form, bit-exact (trailing newline included)."""
    body = "".join(map(_SIGN_CHARS.__getitem__, g.signs))
    return f"{FORMAT_HEADER}\norder {g.order}\nsigns {body}\n"


def parse_instance(text: str) -> SignedCompleteGraph:
    """Parse signed-k text; inverse of :func:`serialize_instance`.

    Whitespace inside the sign block is ignored.  Raises
    :class:`InstanceFormatError` with line/column on malformed input.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise InstanceFormatError(f"expected header {FORMAT_HEADER!r}", line=1, column=1)
    if len(lines) < 2:
        raise InstanceFormatError("missing 'order <N>' line", line=2, column=1)
    fields = lines[1].split()
    order = _decimal(fields[1]) if len(fields) == 2 and fields[0] == "order" else None
    if order is None:
        raise InstanceFormatError("expected 'order <N>'", line=2, column=1)
    if order < 2 or order % 2:
        raise InstanceFormatError(f"order must be an even integer >= 2, got {order}", line=2, column=7)
    if len(lines) < 3 or not (lines[2] == "signs" or lines[2].startswith(("signs ", "signs\t"))):
        raise InstanceFormatError("expected 'signs <+/- string>'", line=3, column=1)

    signs: list[int] = []
    chunks = [(3, 7, lines[2][6:])] + [(i, 1, line) for i, line in enumerate(lines[3:], start=4)]
    for line_no, col0, chunk in chunks:
        for offset, ch in enumerate(chunk):
            if ch in " \t":
                continue
            if ch == "+":
                signs.append(1)
            elif ch == "-":
                signs.append(-1)
            else:
                raise InstanceFormatError(
                    f"illegal sign character {ch!r}", line=line_no, column=col0 + offset
                )
    expected = pair_count(order)
    if len(signs) != expected:
        raise InstanceFormatError(
            f"sign string has length {len(signs)}, expected C({order},2)={expected}",
            line=3,
            column=7,
        )
    return SignedCompleteGraph(order, tuple(signs))


def serialize_matching(pairs: tuple[Pair, ...]) -> str:
    """One-line matching form, e.g. ``matching 0-3 1-2``."""
    return "matching " + " ".join(f"{a}-{b}" for a, b in pairs) if pairs else "matching"

