"""A checkpointed oracle gives what full runs give, call by call, for exp and ECC.

Both oracles resume each run at its first register fault or the first
key bit its stuck-at changes, from snapshots of the clean run they keep
per input, and the exp oracle drops, unpicked, each y fault that sma's
next 0 bit overwrites; the tests that count the steps `attacks.drive`
runs and the fault values picked pin both down.  A stuck-at's pinned
tail is answered without `drive` (`Target.tail`) by the exp oracle, and
by the ECC oracle on discrete logs: in closed form, or for semi and
fully off their link by a loop of their own.  Each tail is checked against `drive`
directly, from linked and unlinked starts, and by those step counts.
Under semi's fresh masks (exp) or fresh coefficients (ECC) a linked
input replays the draws it skips, the draws of a tail's iterations
included.  Property tests and fixed sequences drive `attacks._exp_run` /
`_ecc_run` and plain `run_exp_algorithm` / `run_ecc_algorithm` with
equally seeded RNGs through one call sequence (inputs linked, unlinked
or left to the default, plans with register faults and a stuck-at) and
require equal outputs, equal RNG states at the end and one counted
oracle call per `exe`.  The ECC cases also take an unreduced x0 and
explicit point fault values, unreduced ones and ones equal to the clean
register they overwrite, which the oracle enters as discrete logs on the
attack curve: its outputs must still be `Point`s.  Calls that repeat
a plan without register faults, which the oracle answers from memory,
replay their draws like any other; register faults and unlinked inputs
under fresh randomness, whose outputs change between calls, are never
kept.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderlab import attacks
from ladderlab.attacks import ExecutionOracle, _ecc_run, _exp_run, make_ecc_oracle, make_exp_oracle
from ladderlab.ecc import (
    INFINITY,
    AffineOps,
    Curve,
    Point,
    PointOps,
    ecc_step,
    find_small_curve,
    fully_params,
    ladder_link,
    oracle_ops,
    random_point,
    run_ecc_algorithm,
    semi_params,
)
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import CountingRing, KeyBits, Trace, drive
from ladderlab.modexp import MaskPolicy, exp_step, find_ladder_constant, run_exp_algorithm

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


KEY = KeyBits.from_int(0b101100111010, width=12)


# under fresh masks, a stuck-at the tail answers on the link and then a register-faulted call,
# whose masks show a draw the tail failed to replay
@example(("semi", "fresh", 1_000_003, 7, KEY, ["default"],
          [(0, FaultPlan(key_stuckat=(6, 1))), (0, FaultPlan((RegisterFault("x", 3, seed=1),)))], 5))
@example(("semi", "fresh", 1_000_003, 7, KEY, ["linked"],
          [(0, FaultPlan(key_stuckat=(2, 0))),
           (0, FaultPlan((RegisterFault("y", 4, seed=2),), key_stuckat=(8, 0)))], 5))
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


ECC_ALGOS = [("montgomery", False), ("semi", False), ("semi", True), ("fully", False)]
ECC_STARTS = ["default", "linked", "unlinked", "unreduced"]
# the attack curve (table group law) and a base point of order 16 (affine law)
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
        if kind == "unreduced":  # a linked input whose x0 has x + p for x
            P = Point(P.x + curve.p, P.y)
        out.append((P, Q))
    return out


def _points(curve, A):
    """Explicit fault values: random points, some with x + p or y - p, and infinity, A and -A."""
    p = curve.p

    def point(seed, shift):
        P = random_point(curve, random.Random(seed))
        return (P, Point(P.x + p, P.y), Point(P.x, P.y - p))[shift]

    return (st.builds(point, st.integers(0, 2**32), st.integers(0, 2))
            | st.sampled_from([INFINITY, A, Point(A.x, (-A.y) % p)]))


@st.composite
def _ecc_case(draw):
    algo, fresh = draw(st.sampled_from(ECC_ALGOS))
    curve, A, order = draw(st.sampled_from(CURVES))
    nbits = draw(st.integers(1, 16))
    key = KeyBits(tuple(draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))))
    starts = draw(st.lists(st.sampled_from(ECC_STARTS), min_size=1, max_size=3))
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(starts) - 1), _plan(nbits, _points(curve, A))),
        min_size=1, max_size=8,
    ))
    return algo, fresh, curve, A, order, key, starts, calls, draw(st.integers(0, 2**32))


def _ecc_check(algo, fresh, curve, A, order, key, starts, calls, seed):
    params = _ecc_params(algo, order)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    link, _ = ladder_link(algo, AffineOps(curve), A, params)
    inputs = _ecc_inputs(starts, curve, link, random.Random(seed))
    oracle = ExecutionOracle(_ecc_run(algo, curve, A, key, params, fresh, rng), len(key), None)
    outputs = []
    for index, plan in calls:
        x0, y0 = inputs[index]
        outputs.append(run_ecc_algorithm(
            algo, curve, A, key, params=params, fresh_coef=fresh, rng=ref_rng, x0=x0, y0=y0, plan=plan,
        ))
        out = oracle.exe(x0, y0, plan)
        assert out == outputs[-1]
        assert all(type(R) is Point for R in out)
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
    # a fault at the last iteration under a stuck-at leaves a closed-form tail of 0 steps,
    # and one at iteration 1 under (0, 0) the longest, 11 steps
    FaultPlan((RegisterFault("x", 12, seed=7),), key_stuckat=(10, 0)),
    FaultPlan((RegisterFault("y", 1, seed=8),), key_stuckat=(0, 0)),
)


def _valued_plans(algo, fresh, curve, A, order, key, start, seed):
    """Plans with explicit point values: a drawn point, an unreduced one, and the clean x they overwrite.

    The clean registers are those of a full run on the input `_ecc_check`
    draws from `seed`, so the last plan's fault rewrites x with its own value.
    """
    params = _ecc_params(algo, order)
    link, _ = ladder_link(algo, AffineOps(curve), A, params)
    (x0, y0), = _ecc_inputs([start], curve, link, random.Random(seed))
    trace = Trace()
    run_ecc_algorithm(algo, curve, A, key, params=params, fresh_coef=fresh, rng=random.Random(seed),
                      x0=x0, y0=y0, trace=trace)
    P = random_point(curve, random.Random(seed))
    return (
        FaultPlan((RegisterFault("x", 4, value=P),)),
        FaultPlan((RegisterFault("y", 3, value=Point(P.x + curve.p, P.y - curve.p)),
                   RegisterFault("x", 8, seed=4))),
        FaultPlan((RegisterFault("x", 6, value=trace.xs[5]),)),
    )


@pytest.mark.parametrize("start", ECC_STARTS)
@pytest.mark.parametrize("bundle", CURVES, ids=["table", "affine"])
@pytest.mark.parametrize("algo, fresh", ECC_ALGOS)
def test_fixed_ecc_sequence_equals_full_runs(algo, fresh, bundle, start):
    """Every plan twice on one input, the second time from the kept snapshots."""
    key = KeyBits.from_int(0b101100111010, width=12)
    plans = ECC_PLANS + _valued_plans(algo, fresh, *bundle, key, start, 99)
    _ecc_check(algo, fresh, *bundle, key, [start], [(0, plan) for plan in plans * 2], 99)


# plans without register faults, whose outputs each oracle keeps per input; the key
# 0b101100111010 has 0s at iterations 5-6 and 1s at 7-9, so the thresholds 4 and 5
# pinning 0 share one run, as do 7 and 8 pinning 1, and (11, 0) pins the key's own tail
KEPT_PLANS = (None, FaultPlan(), FaultPlan(key_stuckat=(3, 0)), FaultPlan(key_stuckat=(12, 1)),
              FaultPlan(key_stuckat=(0, 1)), FaultPlan(key_stuckat=(4, 0)),
              FaultPlan(key_stuckat=(5, 0)), FaultPlan(key_stuckat=(7, 1)),
              FaultPlan(key_stuckat=(8, 1)), FaultPlan(key_stuckat=(11, 0)))
REGISTER = FaultPlan((RegisterFault("y", 7, seed=6),))
# y faults on 0 bits, which sma's next 0 bit overwrites: at 5 (next 0 bit at 6), at 10
# under a stuck-at that never diverges, at 5 under one that diverges at 9, and at 12 (none)
REGISTERS = (REGISTER, FaultPlan((RegisterFault("y", 5, seed=7),)),
             FaultPlan((RegisterFault("y", 10, seed=3),), key_stuckat=(11, 0)),
             FaultPlan((RegisterFault("y", 5, seed=8),), key_stuckat=(8, 0)),
             FaultPlan((RegisterFault("y", 12, seed=9),)))
STARTS = ["default", "linked", "unlinked"]
# every kept plan on every input twice, each call followed by the register faults on that input
REPEATS = [(index, p) for _ in range(2) for plan in KEPT_PLANS for index in range(len(STARTS))
           for p in (plan, *REGISTERS)]


@pytest.mark.parametrize("algo, mask", ALGOS)
def test_repeated_calls_equal_full_runs(algo, mask):
    key = KeyBits.from_int(0b101100111010, width=12)
    _check(algo, mask, 1_000_003, 7, key, STARTS, REPEATS, 5)


def test_repeated_ecc_calls_equal_full_runs():
    """Semi with fresh coefficients on the order-16 base point, where a lost draw shows."""
    key = KeyBits.from_int(0b101100111010, width=12)
    _ecc_check("semi", True, *CURVES[1], key, STARTS, REPEATS, 5)


@pytest.fixture
def driven(monkeypatch):
    """The steps each `drive` call of the oracles runs, one count per resumed call.

    A call with a `trace` is an input's clean run, which passes uncounted.
    """
    counts, drive = [], attacks.drive

    def counting(bits, x, y, step, **kw):
        if kw.get("trace") is not None:
            return drive(bits, x, y, step, **kw)
        counts.append(0)

        def counted(bit, x, y):
            counts[-1] += 1
            return step(bit, x, y)

        return drive(bits, x, y, counted, **kw)

    monkeypatch.setattr("ladderlab.attacks.drive", counting)
    return counts


@pytest.mark.parametrize("algo", ["sma", "montgomery", "semi", "fully"])
def test_resumed_calls_start_where_the_key_diverges(algo, driven):
    """A stuck-at pinning the key's own tail drives no step; thresholds in one run share one."""
    key = KeyBits.from_int(0b101100111010, width=12)
    oracle, rng = make_exp_oracle(algo, 7, 1_000_003, key, seed=3), random.Random(3)
    constants = find_ladder_constant(7, 1_000_003, rng) if algo == "fully" else None
    mask = MaskPolicy.fresh() if algo == "semi" else None
    for plan in (FaultPlan(key_stuckat=(11, 0)), FaultPlan(key_stuckat=(7, 1)),
                 FaultPlan(key_stuckat=(8, 1)), FaultPlan(key_stuckat=(6, 1))):
        full = run_exp_algorithm(algo, 7, key, 1_000_003, plan=plan, constants=constants,
                                 mask=mask, rng=rng)
        assert oracle.exe(plan=plan) == full
    # (11, 0) never diverges; 6, 7 and 8 pinning 1 all first differ at iteration 10, from
    # which the tail answers the last 3 iterations
    assert driven == [0]


STUCKAT_PLANS = tuple(FaultPlan(key_stuckat=s) for s in ((11, 0), (7, 1), (8, 1), (6, 1), (3, 0),
                                                         (0, 1), (0, 0), (12, 1)))


@pytest.mark.parametrize("algo", ["sma", "montgomery", "semi", "fully"])
def test_a_fault_at_the_threshold_drives_one_step_then_the_link_decides(algo, driven):
    """After a fault at the stuck-at's threshold the tail answers, on the link or off it."""
    oracle, rng = make_exp_oracle(algo, 7, 1_000_003, KEY, seed=3), random.Random(3)
    constants = find_ladder_constant(7, 1_000_003, rng) if algo == "fully" else None
    mask = MaskPolicy.fresh() if algo == "semi" else None
    for i, b, register in ((1, 0, "x"), (5, 1, "y"), (9, 0, "x"), (12, 1, "y"), (12, 0, "x")):
        plan = FaultPlan((RegisterFault(register, i, seed=i),), key_stuckat=(i, b))
        full = run_exp_algorithm(algo, 7, KEY, 1_000_003, plan=plan, constants=constants,
                                 mask=mask, rng=rng)
        calls = len(driven)
        assert oracle.exe(plan=plan) == full
        # the fault moves semi's and fully's registers off the link, where their tail loops
        assert driven[calls:] == [1]


@pytest.mark.parametrize("algo", ["montgomery", "semi", "fully"])
def test_resumed_ecc_calls_answer_pinned_tails_in_closed_form(algo, driven):
    """On discrete logs a stuck-at-only call drives no step, and a fault at its threshold one."""
    key = KeyBits.from_int(0b101100111010, width=12)
    curve, A, order = CURVES[0]
    oracle, params = make_ecc_oracle(algo, curve, A, key, seed=3), _ecc_params(algo, order)
    for plan in STUCKAT_PLANS:
        assert oracle.exe(plan=plan) == run_ecc_algorithm(algo, curve, A, key, params=params, plan=plan)
    assert not any(driven)
    for i, b, register in ((1, 0, "x"), (5, 1, "y"), (9, 0, "x"), (12, 1, "y"), (12, 0, "x")):
        plan = FaultPlan((RegisterFault(register, i, seed=i),), key_stuckat=(i, b))
        assert oracle.exe(plan=plan) == run_ecc_algorithm(algo, curve, A, key, params=params, plan=plan)
        assert driven[-1] == 1


@pytest.mark.parametrize("bundle, fresh", [(CURVES[1], False), (CURVES[0], True)],
                         ids=["affine", "fresh"])
def test_ecc_tails_off_logs_are_driven(bundle, fresh, driven):
    """Without a closed form (`AffineOps`, or draws to replay) a pinned tail is driven step by step."""
    key = KeyBits.from_int(0b101100111010, width=12)
    curve, A, _ = bundle
    oracle, rng = make_ecc_oracle("semi", curve, A, key, seed=3, fresh_coef=fresh), random.Random(3)
    for plan in STUCKAT_PLANS[:4]:
        full = run_ecc_algorithm("semi", curve, A, key, fresh_coef=fresh, rng=rng, plan=plan)
        assert oracle.exe(plan=plan) == full
    # (11, 0) never diverges; 6, 7 and 8 pinning 1 all first differ at iteration 10
    assert driven == [3]


@pytest.mark.parametrize("algo", ["montgomery", "semi", "fully"])
def test_tail_equals_driven_steps(algo):
    """`Target.tail` on logs equals `drive` over k steps of one bit, every k in 0..64."""
    curve, A, order = CURVES[0]
    ops = oracle_ops(curve)
    A = ops.enter(A)
    target = ecc_step(algo, ops, A, _ecc_params(algo, order))
    rng = random.Random(21)
    starts = [(0, 0), (A, 0), (0, A), (A, A), (ops.order - A, A)]
    starts += [(rng.randrange(ops.order), rng.randrange(ops.order)) for _ in range(4)]
    for bit in (0, 1):
        for x, y in starts:
            trace = Trace()
            drive((bit,) * 64, x, y, target.step, trace=trace)
            # longest first, so the first start builds all 64 powers at once
            assert [target.tail(bit, k, x, y) for k in reversed(range(65))][::-1] == trace.snapshots()


@pytest.mark.parametrize("algo, mask", ALGOS)
def test_exp_tail_equals_driven_steps(algo, mask):
    """`Target.tail` of an exp step equals `drive` over k steps of one bit, every k in 0..64.

    Every start must agree, on semi's and fully's link y = s*x and off it.
    The tail and the driven steps each build their step on an RNG seeded
    with k, and must leave the two RNGs in equal states: under fresh masks
    the tail draws what the steps draw.
    """
    n, a, rng = 1_000_003, 7, random.Random(21)
    constants = find_ladder_constant(a, n, rng) if algo == "fully" else None
    mask = mask and MaskPolicy.parse(mask)
    s = constants.constant if constants else a
    xs = [0, 1, a, n - 1] + [rng.randrange(n) for _ in range(4)]
    linked = [(x, s * x % n) for x in xs]
    unlinked = [(x, (s * x + rng.randrange(1, n)) % n) for x in xs]
    for bit in (0, 1):
        for x, y in linked + unlinked:
            for k in range(65):
                rngs = random.Random(k), random.Random(k)
                tail, steps = (exp_step(algo, a, n, None, constants=constants, mask=mask, rng=r)
                               for r in rngs)
                assert tail.tail(bit, k, x, y) == drive((bit,) * k, x, y, steps.step)
                assert rngs[0].getstate() == rngs[1].getstate()


def test_exp_tail_is_set_only_on_straight_line_two_register_steps():
    n = 1_000_003
    constants = find_ladder_constant(7, n, random.Random(0))
    for algo, mask in ALGOS:
        kw = dict(constants=constants, mask=mask and MaskPolicy.parse(mask), rng=random.Random(0))
        assert exp_step(algo, 7, n, None, **kw).tail is not None
        # a counted run drives every step
        assert exp_step(algo, 7, n, CountingRing(n), **kw).tail is None
    assert exp_step("sm", 7, n, None).tail is None


def test_tail_is_set_only_on_logs_without_fresh_coefficients():
    (curve, A, order), (affine, B, _) = CURVES
    ops = oracle_ops(curve)
    assert ecc_step("semi", ops, ops.enter(A), semi_params(3, order)).tail is not None
    assert ecc_step("semi", ops, ops.enter(A), semi_params(3, order), True, random.Random(0)).tail is None
    # a counted run tallies over the same logs, but drives every step
    counted = PointOps(curve)
    assert ecc_step("semi", counted, counted.enter(A), semi_params(3, order)).tail is None
    assert type(oracle_ops(affine)) is AffineOps
    assert ecc_step("semi", oracle_ops(affine), B, semi_params(3, 16)).tail is None
    assert ecc_step("daa", ops, ops.enter(A)).tail is None


@pytest.fixture
def picked(monkeypatch):
    """A one-item list that counts the fault values `RegisterFault.pick` resolves."""
    count, pick = [0], RegisterFault.pick

    def counting(fault, current, draw):
        count[0] += 1
        return pick(fault, current, draw)

    monkeypatch.setattr(RegisterFault, "pick", counting)
    return count


def _y(*iterations):
    return tuple(RegisterFault("y", i, seed=i) for i in iterations)


# KEY reads 0 at iterations 2, 5, 6, 10 and 12; KEY_ONES is KEY with 1s at 11 and 12
KEY_ONES = KeyBits.from_int(0b101100111011, width=12)
OVERWRITES = (
    # (key, plan, steps driven, faults picked): y faults at 5 and 10, each followed by a 0 bit,
    # and at 12, the last 0 bit, and at the 1 bit 9, whose fault lands in x
    (KEY, FaultPlan(_y(5)), 0, 0),
    (KEY, FaultPlan(_y(10)), 0, 0),
    (KEY, FaultPlan(_y(12)), 1, 1),
    (KEY, FaultPlan(_y(9)), 4, 1),
    # 10 is KEY_ONES' last 0 bit, until a stuck-at pinning 0 supplies a later one
    (KEY_ONES, FaultPlan(_y(10)), 3, 1),
    (KEY_ONES, FaultPlan(_y(10), key_stuckat=(11, 0)), 0, 0),
    # pinning 1 from 11 on removes KEY's later 0 bit 12; the tail answers iteration 12
    (KEY, FaultPlan(_y(10), key_stuckat=(11, 1)), 2, 1),
    # two y faults: both overwritten, or one of them, from which the run resumes
    (KEY, FaultPlan(_y(2, 6)), 0, 0),
    (KEY, FaultPlan(_y(5, 12)), 1, 1),
    # an x fault is always seen; the y fault beside it is still dropped
    (KEY, FaultPlan((RegisterFault("x", 8, seed=8), *_y(5))), 5, 1),
)


def test_sma_fault_stops_at_the_next_zero_bit(driven, picked):
    """A y fault on a 0 bit that a later 0 bit overwrites is dropped unpicked, and drives nothing.

    The bits are those the run reads, a stuck-at's included.  Each output
    equals a full run's, which picks every fault.
    """
    for key, plan, steps, picks in OVERWRITES:
        oracle = make_exp_oracle("sma", 7, 1_000_003, key)
        full = run_exp_algorithm("sma", 7, key, 1_000_003, plan=plan)
        assert picked[0] == len(plan.register_faults)  # a full run picks every fault
        picked[0], calls = 0, len(driven)
        assert oracle.exe(plan=plan) == full
        assert (sum(driven[calls:]), picked[0]) == (steps, picks)
        picked[0] = 0
    # a fault on the 1 bit 9 lands in x, which it never leaves
    oracle = make_exp_oracle("sma", 7, 1_000_003, KEY)
    assert oracle.exe() != oracle.exe(plan=OVERWRITES[3][1])


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


@pytest.mark.parametrize("algo", ["montgomery", "fully"])
def test_ecc_oracle_refuses_fresh_coefficients_off_semi(algo):
    curve, A, _ = CURVES[0]
    with pytest.raises(ValueError, match="half-coupled"):
        make_ecc_oracle(algo, curve, A, 0b1011, fresh_coef=True).exe()


@pytest.mark.parametrize("algo", ["semi", "fully"])
def test_ecc_oracle_without_params_needs_the_subgroup_order(algo):
    """Both coupled ladders take their default coefficient mod the curve's recorded order."""
    with pytest.raises(ValueError, match="no recorded subgroup order"):
        make_ecc_oracle(algo, Curve(101, 2, 3), Point(23, 46), 0b1011)


def test_oracles_refuse_the_plan_less_ladders():
    """Square-and-multiply and double-and-add take no fault plan, so no oracle is built for them."""
    curve, A, _ = CURVES[0]
    with pytest.raises(ValueError, match="one-register variant takes no fault plan"):
        make_exp_oracle("sm", 7, 101, 0b1011)
    with pytest.raises(ValueError, match="double-and-add takes no fault plan"):
        make_ecc_oracle("daa", curve, A, 0b1011)
