"""A checkpointed oracle gives what full runs give, call by call, for exp and ECC.

Both oracles resume each run at the first iteration its fault plan
touches, from snapshots of the clean run they keep per input; under
semi's fresh masks (exp) or fresh coefficients (ECC) a linked input
replays the draws it skips.  Property tests and a fixed sequence drive
`attacks._exp_run` / `_ecc_run` and plain `run_exp_algorithm` /
`run_ecc_algorithm` with equally seeded RNGs through one call sequence
(inputs linked, unlinked or left to the default, plans with register
faults and a stuck-at) and require equal outputs, equal RNG states at
the end and one counted oracle call per `exe`.  Calls that repeat a plan
without register faults, which the oracle answers from memory, replay
their draws like any other; register faults and unlinked inputs under
fresh randomness, whose outputs change between calls, are never kept.
The `start` point of both runners is also checked on its own.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.attacks import ExecutionOracle, _ecc_run, _exp_run, make_ecc_oracle
from ladderlab.ecc import (
    Curve,
    Point,
    PointOps,
    _draw_semi_coef,
    find_small_curve,
    fully_params,
    ladder_link,
    random_point,
    run_ecc_algorithm,
    semi_params,
)
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace
from ladderlab.modexp import MaskPolicy, find_ladder_constant, run_exp_algorithm

ALGOS = [("sma", None), ("montgomery", None), ("fully", None),
         ("semi", "zero"), ("semi", "fixed:3"), ("semi", "fresh")]


@st.composite
def _plan(draw, nbits, values):
    """None or a plan: 0-3 register faults, seeded or valued from `values`, and an optional stuck-at."""
    iterations = draw(st.lists(st.integers(1, nbits), unique=True, max_size=min(3, nbits)))
    faults = []
    for i in iterations:
        target = draw(st.sampled_from("xy"))
        if draw(st.booleans()):
            faults.append(RegisterFault(target, i, seed=draw(st.integers(0, 2**32))))
        else:
            faults.append(RegisterFault(target, i, value=draw(values)))
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
    plans = _plan(nbits, st.integers(0, n - 1))
    calls = draw(st.lists(st.tuples(st.integers(0, len(starts) - 1), plans), min_size=1, max_size=8))
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
    oracle = ExecutionOracle(_exp_run(algo, a, n, key, constants, mask, rng), len(key), None)
    outputs = []
    for index, plan in calls:
        x0, y0 = inputs[index]
        outputs.append(run_exp_algorithm(
            algo, a, key, n, x0=x0, y0=y0, plan=plan, constants=constants, mask=mask, rng=ref_rng,
        ))
        assert oracle.exe(x0, y0, plan) == outputs[-1]
    assert rng.getstate() == ref_rng.getstate()
    assert oracle.calls == len(calls)
    return outputs


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
    # a plan that acts at or before the start iteration would be dropped
    for algo, plan in [
        ("montgomery", FaultPlan((RegisterFault("x", 2, value=5),))),
        ("sma", FaultPlan((RegisterFault("y", 2, value=5),))),  # sma's product fault
        ("montgomery", FaultPlan(key_stuckat=(2, 0))),
    ]:
        with pytest.raises(ValueError):
            run_exp_algorithm(algo, 7, 0b1011011, 101, start=(4, 3, 21), plan=plan)


ECC_ALGOS = [("montgomery", False), ("semi", False), ("semi", True), ("fully", False)]
# the generated curve (table group law) and a base point of order 16 (affine law)
CURVES = [find_small_curve(), (Curve(101, 2, 3, subgroup_order=16), Point(23, 46), 16)]


def _ecc_params(algo, order):
    if algo == "semi":
        return semi_params(3, order)
    if algo == "fully":
        return fully_params(3, order)
    return None


def _ecc_inputs(starts, curve, link, rng):
    out = []
    for kind in starts:
        if kind == "default":
            out.append((None, None))
            continue
        P = random_point(curve, rng)
        Q = link(P)
        while kind == "unlinked" and Q == link(P):
            Q = random_point(curve, rng)
        out.append((P, Q))
    return out


@st.composite
def _ecc_case(draw):
    algo, fresh = draw(st.sampled_from(ECC_ALGOS))
    curve, A, order = draw(st.sampled_from(CURVES))
    nbits = draw(st.integers(1, 16))
    key = KeyBits(tuple(draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))))
    starts = draw(st.lists(st.sampled_from(["default", "linked", "unlinked"]), min_size=1, max_size=3))
    points = st.integers(0, 2**32).map(lambda s: random_point(curve, random.Random(s)))
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(starts) - 1), _plan(nbits, points)), min_size=1, max_size=8,
    ))
    return algo, fresh, curve, A, order, key, starts, calls, draw(st.integers(0, 2**32))


def _ecc_check(algo, fresh, curve, A, order, key, starts, calls, seed):
    params = _ecc_params(algo, order)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    link, _ = ladder_link(algo, PointOps(curve), A, params)
    inputs = _ecc_inputs(starts, curve, link, random.Random(seed))
    oracle = ExecutionOracle(_ecc_run(algo, curve, A, key, params, fresh, rng), len(key), None)
    outputs = []
    for index, plan in calls:
        x0, y0 = inputs[index]
        outputs.append(run_ecc_algorithm(
            algo, curve, A, key, params=params, fresh_coef=fresh, rng=ref_rng, x0=x0, y0=y0, plan=plan,
        ))
        assert oracle.exe(x0, y0, plan) == outputs[-1]
    assert rng.getstate() == ref_rng.getstate()
    assert oracle.calls == len(calls)
    return outputs


@settings(max_examples=60, deadline=None)
@given(_ecc_case())
def test_checkpointed_ecc_oracle_equals_full_runs(case):
    _ecc_check(*case)


ECC_PLANS = (
    None,
    FaultPlan(key_stuckat=(3, 0)),
    FaultPlan((RegisterFault("x", 5, seed=1),)),
    FaultPlan(key_stuckat=(12, 1)),
    FaultPlan((RegisterFault("y", 2, seed=5), RegisterFault("x", 9, seed=2)), key_stuckat=(6, 1)),
    FaultPlan((RegisterFault("y", 12, seed=3),)),
    FaultPlan(key_stuckat=(0, 1)),
)


@pytest.mark.parametrize("start", ["default", "linked", "unlinked"])
@pytest.mark.parametrize("bundle", CURVES, ids=["table", "affine"])
@pytest.mark.parametrize("algo, fresh", ECC_ALGOS)
def test_fixed_ecc_sequence_equals_full_runs(algo, fresh, bundle, start):
    """Every plan twice on one input, the second time from the kept snapshots."""
    key = KeyBits.from_int(0b101100111010, width=12)
    calls = [(0, plan) for plan in ECC_PLANS * 2]
    _ecc_check(algo, fresh, *bundle, key, [start], calls, 99)


# plans without register faults, whose outputs each oracle keeps per input
KEPT_PLANS = (None, FaultPlan(), FaultPlan(key_stuckat=(3, 0)), FaultPlan(key_stuckat=(12, 1)),
              FaultPlan(key_stuckat=(0, 1)))
REGISTER = FaultPlan((RegisterFault("y", 7, seed=6),))
STARTS = ["default", "linked", "unlinked"]
# every kept plan on every input twice, each call followed by a register fault on that input
REPEATS = [(index, p) for _ in range(2) for plan in KEPT_PLANS for index in range(len(STARTS))
           for p in (plan, REGISTER)]


@pytest.mark.parametrize("algo, mask", ALGOS)
def test_repeated_calls_equal_full_runs(algo, mask):
    key = KeyBits.from_int(0b101100111010, width=12)
    _check(algo, mask, 1_000_003, 7, key, STARTS, REPEATS, 5)


def test_repeated_ecc_calls_equal_full_runs():
    """Semi with fresh coefficients on the order-16 base point, where a lost draw shows."""
    key = KeyBits.from_int(0b101100111010, width=12)
    _ecc_check("semi", True, *CURVES[1], key, STARTS, REPEATS, 5)


@pytest.mark.parametrize("start, plan", [("default", REGISTER), ("linked", REGISTER),
                                         ("unlinked", KEPT_PLANS[2]), ("unlinked", None)])
def test_calls_under_fresh_randomness_are_not_kept(start, plan):
    """A register fault, or an unlinked input, lets the fresh draws reach the outputs.

    Two identical calls must then give what two successive full runs give,
    and those differ, so an output kept from the first call would fail.
    """
    key = KeyBits.from_int(0b101100111010, width=12)
    first, second = _check("semi", "fresh", 1_000_003, 7, key, [start], [(0, plan)] * 2, 5)
    assert first != second
    first, second = _ecc_check("semi", True, *CURVES[1], key, [start], [(0, plan)] * 2, 5)
    assert first != second


@pytest.mark.parametrize("algo, fresh", [("daa", False)] + ECC_ALGOS)
def test_ecc_start_point_continues_the_run(algo, fresh):
    """From any snapshot before the plan acts, a resumed ECC run traces the rest of the full one."""
    curve, A, order = CURVES[0]
    key = KeyBits.from_int(0b101100111010, width=12)
    plan = FaultPlan((RegisterFault("y", 9, seed=4), RegisterFault("x", 11, value=A)), key_stuckat=(10, 1))
    kw = dict(params=_ecc_params(algo, order), fresh_coef=fresh, plan=None if algo == "daa" else plan)
    full = Trace()
    want = run_ecc_algorithm(algo, curve, A, key, rng=random.Random(1), trace=full, **kw)
    for i in range(8):  # the fault at iteration 9 rewrites snapshot 8
        rng = random.Random(1)
        for _ in range(i if fresh else 0):
            _draw_semi_coef(order, rng)
        ys = full.ys[i] if full.ys is not None else None
        trace = Trace()
        got = run_ecc_algorithm(algo, curve, A, key, rng=rng, trace=trace, start=(i, full.xs[i], ys), **kw)
        assert got == want
        assert trace.xs == full.xs[i:]
        assert trace.ys == (None if full.ys is None else full.ys[i:])


def test_ecc_start_point_is_checked():
    curve, A, order = CURVES[0]
    params = semi_params(3, order)
    P, Q = run_ecc_algorithm("semi", curve, A, 1, params=params)  # snapshot 1 of a run
    with pytest.raises(ValueError):
        run_ecc_algorithm("semi", curve, A, 5, params=params, start=(4, P, Q))  # the key has 3 bits
    with pytest.raises(ValueError):
        run_ecc_algorithm("semi", curve, A, 5, params=params, start=(-1, P, Q))
    with pytest.raises(ValueError):
        run_ecc_algorithm("semi", curve, A, 5, params=params, x0=P, start=(1, P, Q))
    with pytest.raises(ValueError):
        run_ecc_algorithm("semi", curve, A, 5, params=params, y0=Q, start=(1, P, Q))
    # a plan that acts at or before the start iteration would be dropped
    for plan in [
        FaultPlan((RegisterFault("x", 2, value=A),)),
        FaultPlan((RegisterFault("y", 4, seed=1),)),
        FaultPlan(key_stuckat=(3, 0)),
    ]:
        with pytest.raises(ValueError):
            run_ecc_algorithm("semi", curve, A, 0b1011011, params=params, start=(4, P, Q), plan=plan)


@pytest.mark.parametrize("algo", ["montgomery", "fully"])
def test_ecc_oracle_refuses_fresh_coefficients_off_semi(algo):
    curve, A, _ = CURVES[0]
    with pytest.raises(ValueError, match="half-coupled"):
        make_ecc_oracle(algo, curve, A, 0b1011, fresh_coef=True).exe()
