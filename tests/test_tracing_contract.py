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
