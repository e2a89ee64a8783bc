"""The benchmark tracer's contract with the program.

``perfbench/tracing.py`` swaps named functions of ``lowpm.cli``,
``lowpm.verifier``, ``lowpm.solver`` and ``lowpm.blossom`` for timing
wrappers and reads fields of the solver's report.  A rename on either side
fails here, not first in a benchmark run.  The tracer is loaded by path and
not modified.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from lowpm import blossom, cli, clique_instance, serialize_instance, solver, verifier

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = {"cli": cli, "verifier": verifier, "solver": solver, "blossom": blossom}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(tracing):
    missing = [f"{module}.{attr}" for _, targets, _ in tracing.LAYERS
               for module, attr in targets if not callable(getattr(MODULES[module], attr, None))]
    assert not missing


def test_traced_solve_and_verify(tracing, tmp_path):
    path = tmp_path / "clique.sk"
    path.write_text(serialize_instance(clique_instance(2, 2)))
    tracer = tracing.Tracer()
    tracer.reset_counts()
    with tracer.installed(MODULES), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", str(path), "--format", "json"]) == 0
        assert cli.main(["verify", "tight", "--n", "2", "--k", "2"]) == 0
    assert cli.local_search_min_weight is solver.local_search_min_weight  # restored
    layers = {span[0] for span in tracer.spans}
    assert {"cli", "solver.search", "blossom", "verifier"} <= layers
    assert tracer.counts["solver.search.sideways"] == 0
    assert tracer.counts["solver.search.restarts"] == 0


def test_certify_adds_no_signmatch_span(tracing):
    # certify builds M- and M+ through pm_from_sign_max_matching too, but under
    # solver's name, which the tracer leaves alone: solver.signmatch counts
    # only the verifier's constructive route, one call per thm2 instance
    tracer = tracing.Tracer()
    tracer.reset_counts()
    calls = []
    with tracer.installed(MODULES), contextlib.redirect_stdout(io.StringIO()):
        for argv in (["verify", "thm2", "--n", "2", "--k", "2", "--samples", "3"],
                     ["verify", "tight", "--n", "2", "--k", "2"]):
            first = len(tracer.spans)
            assert cli.main(argv) == 0
            calls.append({layer: n for layer, (_, n) in tracer.layer_times(first).items()})
    thm2, tight = calls
    assert (thm2["solver.signmatch"], thm2["blossom"]) == (3, 3)
    # the plus clique has lo = 2k > 0: one blossom call for M-, no M+
    assert (tight["solver.signmatch"], tight["blossom"]) == (0, 1)
