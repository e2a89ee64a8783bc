"""Determinism contract: the same argv and seed give byte-identical output.

Each case's stdout (``elapsed_ms`` removed from JSON reports) is pinned by
its sha256 digest.  A change to the RNG stream, a generator, the blossom
matching sizes, the solver's descent or a report's layout fails here.  When
such a change is intended, record the new digests and say why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from lowpm import solver
from lowpm.cli import main

GOLDEN = {
    ("gen", "random", "--order", "40", "--imbalance", "-6", "--seed", "11"):
        "024ae00306d7f23f1855862a1496f9d44626e1c9f32c77f293957c6fda5bd77a",
    ("verify", "thm1", "--n", "10", "--mode", "solver", "--samples", "30", "--seed", "5",
     "--format", "json"):
        "573044e5104378f440ab84fd78fada43380eb5637bf3214bb4eeae2e28951a3b",
    ("verify", "eg", "--n", "12", "--k", "1", "--samples", "60", "--seed", "5",
     "--format", "csv"):
        "a2b961783511cb5a6c522b52182b11664ad011277737395ec1fbc507b9ff2052",
    ("sweep", "tight", "--n-min", "4", "--n-max", "5", "--k-min", "2", "--k-max", "3"):
        "bc1e689ba9a73f41dc10835eaa05eff62bdb2f5d6e6357c5bb4571bd53478901",
    ("verify", "thm2", "--n", "3", "--k", "2", "--samples", "20", "--seed", "5",
     "--format", "json"):
        "b0f10301fc5cb829787074dbbb53c73254885c5a34e0a1b904c1b9e51bfa2f3b",
    ("verify", "prop2", "--k", "8", "--format", "json"):
        "e594b3b3021901165265586638227bebfd2b0ece0118da6be03a753993b404ff",
}


def stdout_digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    out = buf.getvalue()
    if "json" in argv:
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        out = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv[:2]))
def test_stdout_digest(argv):
    assert stdout_digest(argv) == GOLDEN[argv]


# thm2's JSON report has no rows; these pin its rows' minimum weights and verdicts,
# which certify's witness decides at every order.
THM2_ROWS_GOLDEN = {
    ("verify", "thm2", "--n", "5", "--k", "2", "--samples", "20", "--seed", "1000",
     "--format", "csv"):
        "9ce555774519bd4d129cb234e06e94787847cd963dc32bd391f5787d5de9b460",
    ("sweep", "thm2", "--n-min", "1", "--n-max", "5", "--k-min", "2", "--k-max", "4",
     "--samples", "10", "--seed", "3"):
        "dfe83785c38e76f8e689b137c1d149e34dae02f557d9e49d72ee2deac4e361b7",
}


@pytest.mark.parametrize("argv", list(THM2_ROWS_GOLDEN), ids=lambda argv: argv[0])
def test_thm2_rows_digest(argv):
    assert stdout_digest(argv) == THM2_ROWS_GOLDEN[argv]


# Each case above draws at most 1,128 words per instance, less than one chunk of
# rng's packed draw; these draw 9,950 sampled words and 19,900 words per graph.
LONG_STREAM_GOLDEN = {
    ("gen", "random", "--order", "200", "--imbalance", "0", "--seed", "7"):
        "3c54f653131699e52c9dd26839e37a3b9667f4120b7bd1320d518a370a25749d",
    ("verify", "eg", "--n", "50", "--k", "1", "--samples", "3", "--seed", "5",
     "--format", "csv"):
        "737687b673c6d533243b941293c20ab5b1019c2bbfb111ea4062d170d4a8dae3",
}


@pytest.mark.parametrize("argv", list(LONG_STREAM_GOLDEN), ids=lambda argv: " ".join(argv[:2]))
def test_long_stream_stdout_digest(argv):
    assert stdout_digest(argv) == LONG_STREAM_GOLDEN[argv]


# solve reads its instance from a file, so each case names the ``gen`` arguments
# that write it; the path never reaches stdout.  In the ``walk`` case the r = 2
# descent stalls above the bound, so its matching comes from the walk.
SOLVE_GOLDEN = {
    "clique": (("clique", "--n", "3", "--k", "2"),
               "13de023d2892bf8320077078c5a29469559fa32eb4f5c8767bc65cacc622c664"),
    "random": (("random", "--order", "40", "--imbalance", "-6", "--seed", "11"),
               "f1f30494992effb0e2706ba70341255917f0070d0964fa60c852311d1afd8e3c"),
    "walk": (("random", "--order", "12", "--imbalance", "-60", "--seed", "0"),
             "e01ff5ad3dd1763b279fb125b9e4fa6231e95d6fdf0ce4043bc526f3187f053e"),
}


@pytest.mark.parametrize("name", list(SOLVE_GOLDEN))
def test_solve_stdout_digest(name, tmp_path, monkeypatch):
    family, digest = SOLVE_GOLDEN[name]
    path = tmp_path / "instance.sk"
    assert main(["gen", *family, "-o", str(path)]) == 0
    walks = []
    walk = solver._interpolation_walk
    monkeypatch.setattr(solver, "_interpolation_walk",
                        lambda *args: walks.append(args) or walk(*args))
    argv = ("solve", str(path), "--seed", "3", "--format", "json")
    assert stdout_digest(argv) == digest
    assert bool(walks) == (name == "walk")
