"""Core types for +/-1 edge-labeled complete graphs and their perfect matchings.

An instance is the complete graph on vertices ``{0, ..., order-1}`` together
with a label in ``{-1, +1}`` for every unordered vertex pair.  Labels live in
a flat tuple indexed by the row-major upper-triangle pair index (see
:func:`canonical_pair_index`), so sign lookup is O(1) and instances are
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
from functools import cached_property
from itertools import combinations, compress, repeat
from operator import eq
from typing import Callable, Iterable, Iterator

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


def canonical_pair_index(u: int, v: int, order: int) -> int:
    """Row-major upper-triangle index of the pair ``(u, v)`` with ``u < v``.

    The pairs (0,1), (0,2), ..., (0,order-1), (1,2), ... are numbered
    0, 1, ..., C(order,2)-1; the closed form is::

        index = u*order - u*(u+1)//2 + (v - u - 1)

    Raises :class:`InvalidPairError` unless ``0 <= u < v < order``.
    """
    if not (0 <= u < v < order):
        raise InvalidPairError(f"need 0 <= u < v < order, got u={u}, v={v}, order={order}")
    return pair_row_offset(u, order) + v


def pair_row_offset(u: int, order: int) -> int:
    """``canonical_pair_index(u, v, order) - v`` for every v > u.

    Hot loops precompute this per row and then read the sign of a pair
    (u, v), u < v, as ``signs[offset[u] + v]`` without a bounds check.
    """
    return u * (2 * order - u - 3) // 2 - 1


def iter_pairs(order: int) -> Iterator[Pair]:
    """Yield all pairs (u, v), u < v, in canonical index order."""
    return combinations(range(order), 2)


@dataclass(frozen=True)
class SignedCompleteGraph:
    """Complete graph of even order with a +/-1 sign on every edge.

    ``signs[i]`` is the label of the pair with canonical index ``i``.  The
    instance is immutable; all derived quantities are cached.
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
    def from_edge_sign(cls, order: int, sign_of: Callable[[int, int], int]) -> "SignedCompleteGraph":
        """Build an instance by evaluating ``sign_of(u, v)`` on every pair u < v."""
        return cls(order, tuple(sign_of(u, v) for u, v in iter_pairs(order)))

    @cached_property
    def plus_count(self) -> int:
        return self.signs.count(1)

    @cached_property
    def minus_count(self) -> int:
        return len(self.signs) - self.plus_count

    def sign(self, u: int, v: int) -> int:
        """Label of the edge {u, v} (endpoint order irrelevant)."""
        if u > v:
            u, v = v, u
        return self.signs[canonical_pair_index(u, v, self.order)]


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
    """An unlabeled graph on {0, ..., order-1}; edges in canonical form."""

    order: int
    edges: tuple[Pair, ...]

    def __post_init__(self) -> None:
        prev: Pair = (-1, -1)
        for a, b in self.edges:
            if not (0 <= a < b < self.order):
                raise InvalidPairError(f"edge ({a},{b}) out of range for order {self.order}")
            if (a, b) <= prev:
                raise ParameterError("edges must be strictly sorted canonical pairs")
            prev = (a, b)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _pair_subgraph(order: int, selectors: Iterable) -> SimpleGraph:
    """The graph of the canonical pairs of K_order that ``selectors`` picks.

    Its edges are canonical by construction, so ``SimpleGraph``'s per-edge
    check, which costs as much as building them, is skipped.
    """
    graph = object.__new__(SimpleGraph)
    object.__setattr__(graph, "order", order)
    object.__setattr__(graph, "edges", tuple(compress(iter_pairs(order), selectors)))
    return graph


def sign_subgraph(g: SignedCompleteGraph, sign: int) -> SimpleGraph:
    """The spanning subgraph of edges carrying the given sign."""
    if sign not in (-1, 1):
        raise ParameterError(f"sign must be -1 or +1, got {sign}")
    return _pair_subgraph(g.order, map(eq, g.signs, repeat(sign)))


def sigma_total(g: SignedCompleteGraph) -> int:
    """Sum of all edge labels = plus_count - minus_count (the imbalance)."""
    return g.plus_count - g.minus_count


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

