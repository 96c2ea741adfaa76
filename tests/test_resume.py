"""A checkpointed exp oracle gives what full runs give, call by call.

The oracle resumes each run at the first iteration its fault plan
touches, from snapshots of the clean run it keeps per input, and under
semi's fresh masks replays the mask draws it skips.  A property test and
a fixed sequence drive `attacks._resuming_run` and plain
`run_exp_algorithm` with equally seeded RNGs through one call sequence
(inputs linked, unlinked or left to the default, plans with register
faults and a stuck-at) and require equal outputs and equal RNG states at
the end.  The `start` point of `run_exp_algorithm` is also checked on
its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.attacks import _resuming_run
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace
from ladderlab.modexp import MaskPolicy, find_ladder_constant, run_exp_algorithm

ALGOS = [("sma", None), ("montgomery", None), ("fully", None),
         ("semi", "zero"), ("semi", "fixed:3"), ("semi", "fresh")]


@st.composite
def _plan(draw, nbits, n):
    iterations = draw(st.lists(st.integers(1, nbits), unique=True, max_size=min(3, nbits)))
    faults = []
    for i in iterations:
        target = draw(st.sampled_from("xy"))
        if draw(st.booleans()):
            faults.append(RegisterFault(target, i, seed=draw(st.integers(0, 2**32))))
        else:
            faults.append(RegisterFault(target, i, value=draw(st.integers(0, n - 1))))
    stuck = draw(st.none() | st.tuples(st.integers(0, nbits), st.integers(0, 1)))
    if not faults and stuck is None and draw(st.booleans()):
        return None
    return FaultPlan(tuple(faults), stuck)


@st.composite
def _case(draw):
    algo, mask = draw(st.sampled_from(ALGOS))
    n = draw(st.sampled_from([17, 101, 1_000_003]))
    a = draw(st.integers(2, n - 2))
    nbits = draw(st.integers(1, 20))
    key = KeyBits(tuple(draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))))
    starts = draw(st.lists(st.sampled_from(["default", "linked", "unlinked"]), min_size=1, max_size=3))
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(starts) - 1), _plan(nbits, n)), min_size=1, max_size=8,
    ))
    return algo, mask, n, a, key, starts, calls, draw(st.integers(0, 2**32))


def _inputs(starts, scale, n, rng):
    out = []
    for kind in starts:
        if kind == "default":
            out.append((None, None))
            continue
        x = rng.randrange(1, n)
        y = scale * x % n
        if kind == "unlinked":
            y = (y + rng.randrange(1, n)) % n
        out.append((x, y))
    return out


def _check(algo, mask, n, a, key, starts, calls, seed):
    mask = MaskPolicy.parse(mask) if mask else None
    rng, ref_rng = random.Random(seed), random.Random(seed)
    constants = find_ladder_constant(a, n, random.Random(seed)) if algo == "fully" else None
    scale = constants.constant if constants else a
    inputs = _inputs(starts, scale, n, random.Random(seed))
    run = _resuming_run(algo, a, n, key, constants, mask, rng)
    for index, plan in calls:
        x0, y0 = inputs[index]
        want = run_exp_algorithm(
            algo, a, key, n, x0=x0, y0=y0, plan=plan, constants=constants, mask=mask, rng=ref_rng,
        )
        assert run(x0, y0, plan) == want
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=60, deadline=None)
@given(_case())
def test_checkpointed_oracle_equals_full_runs(case):
    _check(*case)


FIXED_PLANS = (
    None,
    FaultPlan(key_stuckat=(3, 0)),
    FaultPlan((RegisterFault("x", 5, seed=1),)),
    FaultPlan(key_stuckat=(12, 1)),
    FaultPlan((RegisterFault("y", 2, value=4), RegisterFault("x", 9, seed=2)), key_stuckat=(6, 1)),
    FaultPlan((RegisterFault("y", 12, seed=3),)),
    FaultPlan(key_stuckat=(0, 1)),
)


@pytest.mark.parametrize("start", ["default", "linked", "unlinked"])
@pytest.mark.parametrize("algo, mask", ALGOS)
def test_fixed_sequence_equals_full_runs(algo, mask, start):
    """Every plan twice on one input, the second time from the kept snapshots."""
    key = KeyBits.from_int(0b101100111010, width=12)
    calls = [(0, plan) for plan in FIXED_PLANS * 2]
    _check(algo, mask, 1_000_003, 7, key, [start], calls, 99)


PLAN = FaultPlan((RegisterFault("y", 9, seed=4), RegisterFault("x", 11, value=5)), key_stuckat=(10, 1))


@pytest.mark.parametrize("algo, mask", [("sm", None)] + ALGOS)
def test_start_point_continues_the_run(algo, mask):
    """From any snapshot before the plan acts, a resumed run traces the rest of the full one."""
    n, key = 1_000_003, KeyBits.from_int(0b101100111010, width=12)
    mask = MaskPolicy.parse(mask) if mask else None
    plan = None if algo == "sm" else PLAN
    constants = find_ladder_constant(7, n, random.Random(0)) if algo == "fully" else None
    kw = dict(plan=plan, constants=constants, mask=mask)
    full, tallies = Trace(), []
    want = run_exp_algorithm(algo, 7, key, n, rng=random.Random(1), trace=full, per_iter=tallies, **kw)
    for i in range(8):  # the fault at iteration 9 rewrites snapshot 8
        rng = random.Random(1)
        for _ in range(i if mask and mask.mode == "fresh" else 0):
            rng.randrange(n)
        ys = full.ys[i] if full.ys is not None else None
        trace, per_iter = Trace(), []
        got = run_exp_algorithm(
            algo, 7, key, n, rng=rng, trace=trace, per_iter=per_iter, start=(i, full.xs[i], ys), **kw,
        )
        assert got == want
        assert trace.xs == full.xs[i:]
        assert trace.ys == (None if full.ys is None else full.ys[i:])
        assert per_iter == tallies[i:]


def test_start_point_is_checked():
    with pytest.raises(ValueError):
        run_exp_algorithm("montgomery", 7, 5, 101, start=(4, 1, 7))  # the key has 3 bits
    with pytest.raises(ValueError):
        run_exp_algorithm("montgomery", 7, 5, 101, start=(-1, 1, 7))
    with pytest.raises(ValueError):
        run_exp_algorithm("montgomery", 7, 5, 101, x0=1, start=(1, 1, 7))
