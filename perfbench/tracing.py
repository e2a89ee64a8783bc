"""In-process spans around the public functions of each lowpm layer.

The program is not modified: :meth:`Tracer.installed` swaps each public
function for a timing wrapper under the names that ``lowpm.cli``,
``lowpm.verifier``, ``lowpm.solver`` and ``lowpm.blossom`` look up at call
time, and puts the originals back afterwards.  ``blossom.maximum_matching``
also covers ``matching_number``, which calls it through the module.  rng is
timed only inside constructions: a span per 64-bit draw would swamp it.

Spans are kept in memory as ``[name, start, end, parent, command]`` and
written out as JSON lines when the run ends.  A layer's self time is its
spans' time minus the time of their child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

_VERIFY = ("verify_theorem1", "verify_prop2", "verify_theorem2", "verify_tightness",
           "verify_erdos_gallai")
_FAMILIES = ("clique_instance", "proposition2_instance", "random_with_imbalance")


def _count_verifier(tracer, args, result):
    tracer.counts["verifier.instances"] += result.tested


def _count_search(tracer, args, result):
    graph, (_, report) = args[0], result
    counts = tracer.counts
    counts["solver.search.moves"] += sum(report.moves_applied.values())
    counts["solver.search.sideways"] += report.sideways_moves
    counts["solver.search.restarts"] += report.restarts
    minimum = tracer.oracle_min.get(graph.signs, tracer.known_min)
    if minimum is not None and abs(report.final_weight) == minimum:
        counts["solver.search.optimal"] += 1


def _count_oracle(tracer, args, result):
    graph = args[0]
    tracer.oracle_min[graph.signs] = result[0]
    tracer.counts["solver.oracle.max_order"] = max(
        tracer.counts["solver.oracle.max_order"], graph.order)


def _count_pairs(tracer, args, result):
    tracer.counts["constructions.pairs"] += result.order * (result.order - 1) // 2


def _count_serialized(tracer, args, result):
    tracer.counts["core.serialize.bytes"] += len(result.encode())


def _count_parsed(tracer, args, result):
    tracer.counts["core.parse.bytes"] += len(args[0].encode())


def _count_edges(tracer, args, result):
    tracer.counts["blossom.edges"] += len(args[1])


# (layer, [(module, attribute), ...], counter called with the wrapped call's args and result)
LAYERS = (
    ("cli", [("cli", "main")], None),
    ("verifier", [("cli", name) for name in _VERIFY], _count_verifier),
    ("solver.search", [("cli", "local_search_min_weight"),
                       ("verifier", "local_search_min_weight")], _count_search),
    ("solver.oracle", [("cli", "oracle_min_weight"), ("verifier", "oracle_min_weight")],
     _count_oracle),
    ("solver.signmatch", [("verifier", "pm_from_sign_max_matching")], None),
    ("constructions", [("cli", name) for name in _FAMILIES]
     + [("verifier", name) for name in _FAMILIES + ("random_graph", "eg_extremal_graph")],
     _count_pairs),
    ("core.serialize", [("cli", "serialize_instance"), ("verifier", "serialize_instance")],
     _count_serialized),
    ("core.parse", [("cli", "parse_instance")], _count_parsed),
    ("core.sign_subgraph", [("verifier", "sign_subgraph"), ("solver", "sign_subgraph")], None),
    ("blossom", [("blossom", "maximum_matching")], _count_edges),
)


class Tracer:
    """Spans and counts of the calls into lowpm's layers, in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.oracle_min: dict[tuple, int] = {}
        self.known_min: int | None = None
        self.command = 0
        self._stack: list[int] = []

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(
            ("verifier.instances", "solver.search.moves", "solver.search.sideways",
             "solver.search.restarts", "solver.search.optimal", "solver.oracle.max_order",
             "constructions.pairs", "core.serialize.bytes", "core.parse.bytes",
             "blossom.edges"), 0)
        self.oracle_min.clear()

    def _wrap(self, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every layer function in ``modules`` (short name -> module) for the block."""
        saved = []
        try:
            for layer, targets, counter in LAYERS:
                for module_name, attr in targets:
                    module = modules[module_name]
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self, first_span: int) -> dict[str, tuple[float, int]]:
        """(self seconds, calls) per layer over the spans from ``first_span`` on."""
        own: dict[str, float] = {layer: 0.0 for layer, _, _ in LAYERS}
        calls: dict[str, int] = {layer: 0 for layer, _, _ in LAYERS}
        for name, start, end, parent, _ in self.spans[first_span:]:
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return {layer: (own[layer], calls[layer]) for layer in own}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
