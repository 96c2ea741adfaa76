"""Pinned results of the three attack protocols against the exp and ECC targets.

Every case draws its key and seeds the way `ladderlab attack` does, runs
one protocol on one target, and records the recovered bits, the oracle
call count and a sha256 over every output the oracle returned, in call
order.  The hash pins the oracle's behaviour call by call, so a change in
how it runs (resumed from a checkpoint or not) must leave each output,
and the oracle's own RNG stream that semi's fresh masks or coefficients
draw from, untouched.  Regenerate only on a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_attack_goldens.py
"""

import hashlib
import json
import os
import random

import pytest

from ladderlab.attacks import (
    ECC_TARGETS,
    EXP_TARGETS,
    make_ecc_oracle,
    make_oracle_for_target,
    run_attack,
)
from ladderlab.ecc import Curve, Point, find_small_curve, semi_params
from ladderlab.ladders import KeyBits

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "attack_goldens.json")

# (bits, seed) pairs: a short and a long key, each at its own fixed seed
KEYS = ((16, 3), (48, 5))
N = 1_000_003  # the CLI's attack modulus
SMALL_CURVE = find_small_curve()  # the CLI's attack curve
# a base point of order 16, where squaring collides as it does mod 17
ORDER16 = (Curve(101, 2, 3, subgroup_order=16), Point(23, 46), 16)


def _cases():
    for target in EXP_TARGETS:
        for model in (1, 2, 3):
            for bits, seed in KEYS:
                yield f"m{model}-{target}-{bits}", (model, target, bits, seed, "both", N)
    # one readable register: model 1 scans one view, model 3 compares what it can read
    for target in ("semi", "fully"):
        for readable in ("x", "y"):
            for model in (1, 3):
                yield f"m{model}-{target}-16-{readable}", (model, target, 16, 7, readable, N)
    # Fermat-prime moduli, where squaring collides: model 3 swaps in pool inputs;
    # semi's keep the link y = a*x, so its fresh masks still cancel
    for n in (17, 257):
        for target in EXP_TARGETS:
            yield f"m3-{target}-16-n{n}", (3, target, 16, 3, "both", n)
    for target in ECC_TARGETS:
        for model in (1, 2, 3):
            for bits, seed in KEYS:
                yield f"m{model}-{target}-{bits}", (model, target, bits, seed, "both", None)
        for readable in ("x", "y"):
            for model in (1, 3):
                yield f"m{model}-{target}-16-{readable}", (model, target, 16, 7, readable, None)
    # fresh coefficients on the order-16 point: model 3 swaps in pool inputs,
    # which keep the link Q = -(P + A), so the coefficients cancel
    for model in (1, 2, 3):
        yield f"m{model}-ecc-semi-16-fresh", (model, "ecc-semi", 16, 3, "both", "fresh")


CASES = dict(_cases())


def _record(case):
    model, target, bits, seed, readable, n = case
    rng = random.Random(seed)
    key = KeyBits.from_int(rng.getrandbits(bits), width=bits)
    kw = dict(seed=rng.getrandbits(64), readable=("x", "y") if readable == "both" else (readable,))
    if n == "fresh":
        curve, A, order = ORDER16
        params = semi_params(3, order)
        oracle = make_ecc_oracle("semi", curve, A, key, params=params, fresh_coef=True, **kw)
    elif n is None:
        oracle = make_oracle_for_target(target, key, curve_bundle=SMALL_CURVE, **kw)
    else:
        oracle = make_oracle_for_target(target, key, n=n, **kw)
    digest = hashlib.sha256()
    exe = oracle.exe

    def recording(x_init=None, y_init=None, plan=None):
        out = exe(x_init, y_init, plan)
        digest.update(repr(out).encode())
        return out

    oracle.exe = recording
    report = run_attack(model, target, oracle, random.Random(rng.getrandbits(64)), readable)
    return {
        "key": "".join(str(b) for b in key.bits),
        "recovered": "".join("?" if b is None else str(b) for b in report.recovered),
        "oracle_calls": report.oracle_calls,
        "outputs_sha256": digest.hexdigest(),
    }


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_attack_matches_golden(name):
    assert _record(CASES[name]) == _load()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(_record(case))}" for name, case in sorted(CASES.items())]
    with open(GOLDENS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
