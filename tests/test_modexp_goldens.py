"""Pinned outputs of the five exponentiation runners.

Every case records the final registers, every boundary snapshot and the
per-iteration op tallies.  The values in data/modexp_goldens.json were
produced by the runners before they shared one loop driver; each case is
run with no trace, with a trace, and with a trace plus tallies, and all
three must reproduce them.  Regenerate only on a deliberate change of
behaviour:

    PYTHONPATH=src python tests/test_modexp_goldens.py
"""

import json
import os
import random

import pytest

from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace, run_fully_ladder, run_semi_ladder
from ladderlab.modarith import Ring
from ladderlab.modexp import (
    MaskPolicy,
    find_ladder_constant,
    fully_ladder_spec,
    masked_semi_spec,
    run_exp_algorithm,
)

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "modexp_goldens.json")

# (n, a, key): a 12-bit key mod a small prime and a 16-bit key at the CLI's attack modulus
SETTINGS = {
    "n101": (101, 7, KeyBits.from_int(0b101100111010, width=12)),
    "n1000003": (1_000_003, 7, KeyBits.from_int(0b0110100111011001, width=16)),
}

PLANS = {
    "none": None,
    "stuck0": FaultPlan(key_stuckat=(5, 0)),
    "stuck1": FaultPlan(key_stuckat=(5, 1)),
    "stuck1-all": FaultPlan(key_stuckat=(0, 1)),
    "x-seeded": FaultPlan((RegisterFault("x", 3, seed=11),)),
    "x-value": FaultPlan((RegisterFault("x", 7, value=5),)),
    "y-seeded": FaultPlan((RegisterFault("y", 4, seed=12),)),
    "y-value": FaultPlan((RegisterFault("y", 9, value=6),)),
    "y-value-last": FaultPlan((RegisterFault("y", 12, value=2),)),
    "xy-seeded-stuck1": FaultPlan(
        (RegisterFault("x", 6, seed=21), RegisterFault("y", 6, seed=22), RegisterFault("y", 2, seed=23)),
        key_stuckat=(8, 1),
    ),
    "xy-value-stuck0": FaultPlan(
        (RegisterFault("x", 2, value=0), RegisterFault("y", 10, value=3)),
        key_stuckat=(3, 0),
    ),
}

MASKS = ("zero", "fixed:3", "fresh")


def _constants(n, a):
    return find_ladder_constant(a, n, random.Random(n))


def _cases():
    for setting in SETTINGS:
        yield f"sm-{setting}-none", ("sm", setting, None, "none", None)
        yield f"sm-{setting}-start", ("sm", setting, None, "none", (9, None))
        for algo in ("sma", "montgomery", "fully"):
            for plan in PLANS:
                yield f"{algo}-{setting}-{plan}", (algo, setting, None, plan, None)
            yield f"{algo}-{setting}-start", (algo, setting, None, "none", (9, 4))
        for mask in MASKS:
            for plan in PLANS:
                yield f"semi:{mask}-{setting}-{plan}", ("semi", setting, mask, plan, None)
            yield f"semi:{mask}-{setting}-start", ("semi", setting, mask, "none", (9, 4))


CASES = dict(_cases())


def _run(case, trace=None, per_iter=None):
    algo, setting, mask, plan, start = case
    n, a, key = SETTINGS[setting]
    x0, y0 = start or (None, None)
    return run_exp_algorithm(
        algo, a, key, n,
        x0=x0, y0=y0,
        plan=PLANS[plan],
        constants=_constants(n, a) if algo == "fully" else None,
        mask=MaskPolicy.parse(mask) if mask else None,
        rng=random.Random(1234),
        trace=trace,
        per_iter=per_iter,
    )


def _record(case):
    trace, per_iter = Trace(), []
    x, y = _run(case, trace, per_iter)
    return {
        "x": x,
        "y": y,
        "xs": trace.xs,
        "ys": trace.ys,
        "per_iter": [list(c.as_tuple()) for c in per_iter],
    }


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runner_matches_golden(name):
    want = _load()[name]
    case = CASES[name]
    assert list(_run(case)) == [want["x"], want["y"]]
    trace = Trace()
    assert list(_run(case, trace)) == [want["x"], want["y"]]
    assert trace.xs == want["xs"]
    assert trace.ys == want["ys"]
    assert _record(case) == want


def test_sm_rejects_fault_plan():
    with pytest.raises(ValueError):
        run_exp_algorithm("sm", 7, 5, 101, plan=FaultPlan(key_stuckat=(1, 0)))


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("algo, mask", [("montgomery", 0), ("semi", 3), ("fully", None)])
def test_concrete_runner_matches_generic_ladder(algo, mask, plan, setting):
    """The concrete runners trace exactly what the generic spec runners trace."""
    n, a, key = SETTINGS[setting]
    ring = Ring(n)
    trace = Trace()
    if algo == "fully":
        constants = _constants(n, a)
        run_exp_algorithm(algo, a, key, n, plan=PLANS[plan], constants=constants, trace=trace)
        want = run_fully_ladder(ring, fully_ladder_spec(ring, constants), key, 1, PLANS[plan])
    else:
        run_exp_algorithm(algo, a, key, n, plan=PLANS[plan], mask=MaskPolicy.fixed(mask), trace=trace)
        want = run_semi_ladder(ring, masked_semi_spec(ring, a, mask), key, 1, PLANS[plan])
    assert trace.xs == want.xs
    assert trace.ys == want.ys


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(_record(case))}" for name, case in sorted(CASES.items())]
    with open(GOLDENS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
