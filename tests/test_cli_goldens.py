"""Pinned stdout and exit codes of seeded `ladderlab` invocations.

Each case is an argv, run in-process through `cli.main`; the exit code
and the exact stdout must match data/cli_goldens.json.  The cases cover
the README examples, `ecc --trace` for every scalar ladder, `exp --trace
--count-ops` for every exponentiation variant, and a seeded `attack` on
every target under each model.  Regenerate only on a deliberate change of
behaviour:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import io
import json
import os

import pytest

from ladderlab.cli import main

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "cli_goldens.json")

CURVE = ["--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--Ay", "99", "--order", "97"]
EXP = ["--a", "7", "--k", "0xbeef", "--n", "1000003"]
TARGETS = ("sma", "montgomery", "semi", "fully", "ecc-semi", "ecc-fully")


def _cases():
    yield "readme-exp-montgomery", ["exp", "--algo", "montgomery", "--a", "2", "--k", "5", "--n", "1000"]
    yield "readme-exp-fully", ["exp", "--algo", "fully", "--a", "2", "--k", "5", "--n", "7", "--ell", "3",
                               "--count-ops"]
    for model, target in ((2, "montgomery"), (3, "fully")):
        yield f"readme-attack-m{model}-{target}", [
            "--seed", "7", "attack", "--model", str(model), "--target", target, "--bits", "16", "--trials", "10"]
    yield "readme-prob-dsa-exact", ["prob", "--mode", "dsa-exact", "--n", "13"]
    yield "readme-prob-gauss", ["prob", "--mode", "gauss", "--p", "13", "--r", "3"]
    yield "readme-prob-rsa-sample", ["prob", "--mode", "rsa-sample", "--p", "65537", "--q", "65539",
                                     "--samples", "10000"]
    yield "readme-ecc-fully", ["ecc", *CURVE, "--algo", "fully", "--cP", "3", "--k", "29"]
    for algo in ("daa", "montgomery", "semi", "fully"):
        yield f"ecc-trace-{algo}", ["--seed", "5", "ecc", *CURVE, "--algo", algo, "--k", "0xbeef", "--trace"]
    yield "ecc-trace-semi-fresh", ["--seed", "5", "ecc", *CURVE, "--algo", "semi", "--fresh-cP",
                                   "--k", "0xbeef", "--trace"]
    for algo in ("sm", "sma", "montgomery", "semi", "fully"):
        yield f"exp-trace-{algo}", ["--seed", "5", "exp", "--algo", algo, *EXP, "--trace", "--count-ops"]
    yield "exp-trace-semi-fresh", ["--seed", "5", "exp", "--algo", "semi", *EXP, "--mask", "fresh",
                                   "--trace", "--count-ops"]
    for target in TARGETS:
        for model in (1, 2, 3):
            yield f"attack-m{model}-{target}", [
                "--seed", "3", "attack", "--model", str(model), "--target", target,
                "--bits", "8", "--trials", "2"]
    yield "ecc-montgomery-fresh-refused", ["ecc", *CURVE, "--algo", "montgomery", "--fresh-cP", "--k", "29"]
    yield "exp-fully-bad-constant", ["exp", "--algo", "fully", "--a", "5", "--k", "3", "--n", "13", "--ell", "7"]


CASES = dict(_cases())


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    assert _invoke(CASES[name]) == _load()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(_invoke(argv))}" for name, argv in sorted(CASES.items())]
    with open(GOLDENS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
