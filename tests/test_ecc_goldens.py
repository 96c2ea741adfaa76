"""Pinned outputs of the ECC scalar-multiplication runners.

Every case records the final registers, every boundary snapshot and the
point-operation tallies of `run_ecc_algorithm` on the generated small
curve.  The values in data/ecc_goldens.json were produced while the group
law still checked every operand; each case is run without a trace or an
ops object, with a trace, and with a trace plus a `PointOps`, and all
three must reproduce them.  Regenerate only on a deliberate change of
behaviour:

    PYTHONPATH=src python tests/test_ecc_goldens.py
"""

import json
import os
import random

import pytest

from ladderlab.ecc import (
    Point,
    PointOps,
    curve_points,
    find_small_curve,
    fully_params,
    run_ecc_algorithm,
    semi_params,
)
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "ecc_goldens.json")

CURVE, A, ORDER = find_small_curve()
POINTS = curve_points(CURVE)

KEYS = {
    "k12": KeyBits.from_int(0b101100111010, width=12),
    "k16": KeyBits.from_int(0b0110100111011001, width=16),
}

PLANS = {
    "none": None,
    "stuck0": FaultPlan(key_stuckat=(5, 0)),
    "stuck1": FaultPlan(key_stuckat=(5, 1)),
    "stuck1-all": FaultPlan(key_stuckat=(0, 1)),
    "x-seeded": FaultPlan((RegisterFault("x", 3, seed=11),)),
    "y-seeded": FaultPlan((RegisterFault("y", 4, seed=12),)),
    "x-value": FaultPlan((RegisterFault("x", 7, value=POINTS[5]),)),
    "y-value-last": FaultPlan((RegisterFault("y", 12, value=POINTS[17]),)),
    "xy-seeded-stuck1": FaultPlan(
        (RegisterFault("x", 6, seed=21), RegisterFault("y", 6, seed=22), RegisterFault("y", 2, seed=23)),
        key_stuckat=(8, 1),
    ),
    "xy-value-stuck0": FaultPlan(
        (RegisterFault("x", 2, value=POINTS[40]), RegisterFault("y", 10, value=POINTS[3])),
        key_stuckat=(3, 0),
    ),
}

# (x0, y0): both registers given, or only x0 with y0 taken from the ladder's link
STARTS = {
    "start": (POINTS[9], POINTS[60]),
    "start-x": (POINTS[33], None),
}

# algorithm name -> (run_ecc_algorithm algo, keyword arguments)
ALGOS = {
    "montgomery": ("montgomery", {}),
    "semi": ("semi", {"params": semi_params(3, ORDER)}),
    "semi-fresh": ("semi", {"params": semi_params(3, ORDER), "fresh_coef": True}),
    "fully": ("fully", {"params": fully_params(3, ORDER)}),
}


def _cases():
    for key in KEYS:
        yield f"daa-{key}-none", ("daa", key, "none", None)
        yield f"daa-{key}-start-x", ("daa", key, "none", "start-x")
        for algo in ALGOS:
            for plan in PLANS:
                yield f"{algo}-{key}-{plan}", (algo, key, plan, None)
            for start in STARTS:
                yield f"{algo}-{key}-{start}", (algo, key, "none", start)


CASES = dict(_cases())


def _run(case, trace=None, ops=None):
    algo, key, plan, start = case
    name, kwargs = ALGOS.get(algo, (algo, {}))
    x0, y0 = STARTS[start] if start else (None, None)
    return run_ecc_algorithm(
        name, CURVE, A, KEYS[key],
        rng=random.Random(1234), x0=x0, y0=y0, plan=PLANS[plan], trace=trace, ops=ops,
        **kwargs,
    )


def _point(P):
    if P is None:
        return None
    return "infinity" if P.is_infinity else [P.x, P.y]


def _points(Ps):
    return None if Ps is None else [_point(P) for P in Ps]


def _record(case):
    trace, ops = Trace(), PointOps(CURVE)
    P, Q = _run(case, trace, ops)
    return {
        "P": _point(P),
        "Q": _point(Q),
        "xs": _points(trace.xs),
        "ys": _points(trace.ys),
        "adds": ops.adds,
        "doubles": ops.doubles,
    }


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_load()) == sorted(CASES)


def test_golden_curve_is_the_generated_one():
    assert (CURVE.p, CURVE.a, CURVE.b, A, ORDER) == (101, 7, 4, Point(0, 99), 97)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runner_matches_golden(name):
    want = _load()[name]
    case = CASES[name]
    P, Q = _run(case)
    assert [_point(P), _point(Q)] == [want["P"], want["Q"]]
    trace = Trace()
    P, Q = _run(case, trace)
    assert [_point(P), _point(Q)] == [want["P"], want["Q"]]
    assert _points(trace.xs) == want["xs"]
    assert _points(trace.ys) == want["ys"]
    assert _record(case) == want


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(_record(case))}" for name, case in sorted(CASES.items())]
    with open(GOLDENS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
