"""Pinned outputs of the generic spec runners in `ladders`.

Every case records each boundary snapshot and the per-iteration op
tallies (`trace.ops`) of `run_branching`, `run_semi_ladder` or
`run_fully_ladder` on the classic, masked half-coupled and fully-coupled
exponentiation specs, under the fault plans of test_modexp_goldens.py and
with the companion register started off its link.  The values in
data/ladders_goldens.json were produced while each runner still had its
own loop.  Regenerate only on a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_ladders_goldens.py
"""

import json
import os

import pytest

from ladderlab.ladders import lift_semi_to_fully, run_branching, run_fully_ladder, run_semi_ladder
from ladderlab.modarith import Ring
from ladderlab.modexp import fully_ladder_spec, masked_semi_spec
from test_modexp_goldens import PLANS, SETTINGS, _constants

GOLDENS = os.path.join(os.path.dirname(__file__), "data", "ladders_goldens.json")

# spec name -> (runner, spec builder over (ring, n, a))
SPECS = {
    "montgomery": (run_semi_ladder, lambda ring, n, a: masked_semi_spec(ring, a, 0)),
    "semi": (run_semi_ladder, lambda ring, n, a: masked_semi_spec(ring, a, 3)),
    "fully": (run_fully_ladder, lambda ring, n, a: fully_ladder_spec(ring, _constants(n, a))),
    "lifted": (run_fully_ladder, lambda ring, n, a: lift_semi_to_fully(masked_semi_spec(ring, a, 3))),
}

# (x_init, y_init): the default start, and registers that break the link
INITS = {"x1": (1, None), "x9-y4": (9, 4)}
UNLINKED_PLANS = ("none", "xy-seeded-stuck1", "xy-value-stuck0")


def _cases():
    for setting in SETTINGS:
        for x_init in (1, 9):
            yield f"branching-{setting}-x{x_init}", ("branching", setting, "none", (x_init, None))
        for spec in SPECS:
            for plan in PLANS:
                yield f"{spec}-{setting}-{plan}", (spec, setting, plan, INITS["x1"])
            for plan in UNLINKED_PLANS:
                yield f"{spec}-{setting}-x9-y4-{plan}", (spec, setting, plan, INITS["x9-y4"])


CASES = dict(_cases())


def _run(case):
    spec_name, setting, plan, (x_init, y_init) = case
    n, a, key = SETTINGS[setting]
    ring = Ring(n)
    if spec_name == "branching":
        return run_branching(ring, masked_semi_spec(ring, a, 0), key, x_init)
    runner, build = SPECS[spec_name]
    return runner(ring, build(ring, n, a), key, x_init, PLANS[plan], y_init)


def _record(case):
    trace = _run(case)
    return {"xs": trace.xs, "ys": trace.ys, "ops": [list(c.as_tuple()) for c in trace.ops]}


def _load():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_case():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runner_matches_golden(name):
    assert _record(CASES[name]) == _load()[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(_record(case))}" for name, case in sorted(CASES.items())]
    with open(GOLDENS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
