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

from lowpm.cli import main

GOLDEN = {
    ("gen", "random", "--order", "40", "--imbalance", "-6", "--seed", "11"):
        "340a2e8597fd8863d0800107a5bdd9bec50cc3817f1e1027242e87f25ae2a87b",
    ("verify", "thm1", "--n", "10", "--mode", "solver", "--samples", "30", "--seed", "5",
     "--format", "json"):
        "573044e5104378f440ab84fd78fada43380eb5637bf3214bb4eeae2e28951a3b",
    ("verify", "eg", "--n", "12", "--k", "1", "--samples", "60", "--seed", "5",
     "--format", "csv"):
        "d612ac157727d4fb9d06e58de489714da572a0c3f5856991ea4f4648ccb07164",
    ("sweep", "tight", "--n-min", "4", "--n-max", "5", "--k-min", "2", "--k-max", "3"):
        "bc1e689ba9a73f41dc10835eaa05eff62bdb2f5d6e6357c5bb4571bd53478901",
    ("verify", "thm2", "--n", "3", "--k", "2", "--samples", "20", "--seed", "5",
     "--format", "json"):
        "966ff07a7e681af39cb07cb9e60e56d004cb6cb093a2ae93ee84877531880a88",
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
        "01629a77ae2ab4589f95244cfc43bc7b0860f801e014b4acc6fa5e44b16adf77",
}


@pytest.mark.parametrize("argv", list(THM2_ROWS_GOLDEN), ids=lambda argv: argv[0])
def test_thm2_rows_digest(argv):
    assert stdout_digest(argv) == THM2_ROWS_GOLDEN[argv]


# Each case above draws at most 1,128 words per instance, less than one chunk of
# rng's packed draw; these draw 9,950 sampled words and 19,900 words per graph.
LONG_STREAM_GOLDEN = {
    ("gen", "random", "--order", "200", "--imbalance", "0", "--seed", "7"):
        "1301148d5fe33958874d619a8ed0bce3f243801b1a2feb228cc5a03641188158",
    ("verify", "eg", "--n", "50", "--k", "1", "--samples", "3", "--seed", "5",
     "--format", "csv"):
        "5d62d9953a0f5053a3348e75ef36c42c4c13053227d0109a1c5a07c409084580",
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
               "75043ea1e2b4e2b49bcc71e825d7494cacc3d7ac5b2b589fdb2db7d461828d26"),
    "walk": (("random", "--order", "12", "--imbalance", "-60", "--seed", "0"),
             "c46533579a286dfbe8ded56a4297b4afdadca0024fec17798507b7b760a55345"),
}


@pytest.mark.parametrize("name", list(SOLVE_GOLDEN))
def test_solve_stdout_digest(name, tmp_path):
    family, digest = SOLVE_GOLDEN[name]
    path = tmp_path / "instance.sk"
    assert main(["gen", *family, "-o", str(path)]) == 0
    argv = ("solve", str(path), "--seed", "3", "--format", "json")
    assert stdout_digest(argv) == digest
