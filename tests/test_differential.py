"""Independent routes to each ladder's snapshots agree under random fault plans.

Exp half: hypothesis draws a prime modulus, a base, a key and a fault
plan (0-3 seeded or explicit register faults and an optional stuck-at,
from the strategy the resume tests use).  The concrete montgomery, semi
(zero and fixed mask) and fully runners must give the snapshots that
`ladders.run_semi_ladder` / `run_fully_ladder` give on the matching specs,
and with no plan x must end at pow(a, k, n).  Each of the five exp steps
also has a counted form, run when `per_iter` is asked for, one `% n` per
tallied operation, and a straight-line form, run otherwise, one reduction
per register write or value multiplied again.  On the same cases, plus a
2,048-bit odd modulus and drawn start registers, both must give equal
outputs, snapshots and RNG state (semi under zero, fixed and fresh masks;
sm only without a plan), and every straight-line snapshot must lie in
[0, n).  Pinned examples at both sizes make the unreduced intermediates
widest: registers, mask and fault values of n - 1 with a = n - 2, and
start registers (1, n - 1), where semi's lazy numerator is negative.

ECC half: hypothesis draws the generated small curve (whose own group,
`oracle_ops`, is `LogOps`, discrete logs in a table) or a prime-order
curve above `ecc.TABLE_MAX_P` (affine law only), a base point, a scalar,
ladder coefficients and a plan of the same shape with point-valued
faults.  The montgomery, semi (fixed and fresh coefficients) and fully
ladders must give the same outputs, snapshots (as points) and RNG end
state on the default route (no `ops`: the curve's own group) as on the
counted route (`PointOps`, the affine law), and with no plan x must equal
`double_and_add`.  The counted route's add/double tallies must be those
of a clean run on the complemented key: the ladders are regular, so
neither the key bits nor the faults change the operations they run.

In both halves each ladder's link holds at every snapshot a plan leaves
untouched.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_resume import _plan

from ladderlab.ecc import (
    Curve,
    LogOps,
    Point,
    PointOps,
    double_and_add,
    find_small_curve,
    fully_params,
    ladder_link,
    oracle_ops,
    random_point,
    run_ecc_algorithm,
    semi_params,
)
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace, run_fully_ladder, run_semi_ladder
from ladderlab.modarith import Ring, is_probable_prime
from ladderlab.modexp import (
    MaskPolicy,
    find_ladder_constant,
    fully_ladder_spec,
    masked_semi_spec,
    run_exp_algorithm,
)

PRIMES = [p for p in range(7, 400) if is_probable_prime(p)] + [65537, 1_000_003]
BIG = 2**2047 + 3  # 2,048-bit and odd; a factor 3 or 5 could leave no ladder constant, and it has neither


def _untouched(plan, nbits):
    """How many leading snapshots a plan leaves as a clean run has them.

    Snapshot i follows iteration i, and a register fault at iteration d
    rewrites snapshot d - 1, which the trace shows as iteration d reads it.
    """
    if plan is None:
        return nbits + 1
    stuck = nbits + 1 if plan.key_stuckat is None else plan.key_stuckat[0] + 1
    return min([stuck, *(f.iteration - 1 for f in plan.register_faults)])


def _key(draw, max_bits):
    nbits = draw(st.integers(1, max_bits))
    return KeyBits(tuple(draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))))


@st.composite
def _case(draw, moduli=st.sampled_from(PRIMES)):
    n = draw(moduli)
    key = _key(draw, 24)
    a, mask, seed = draw(st.integers(2, n - 2)), draw(st.integers(1, n - 1)), draw(st.integers(0, 2**32))
    return n, a, key, draw(_plan(len(key.bits), st.integers(0, n - 1))), mask, seed


@settings(max_examples=40, deadline=None)
@given(_case())
def test_concrete_runners_equal_generic_ladders(case):
    n, a, key, plan, m, seed = case
    ring = Ring(n)
    constants = find_ladder_constant(a, n, random.Random(seed))
    semi_zero = masked_semi_spec(ring, a, 0)
    runs = [
        ("montgomery", {}, run_semi_ladder, semi_zero, a),
        ("semi", {"mask": MaskPolicy.zero()}, run_semi_ladder, semi_zero, a),
        ("semi", {"mask": MaskPolicy.fixed(m)}, run_semi_ladder, masked_semi_spec(ring, a, m), a),
        ("fully", {"constants": constants}, run_fully_ladder, fully_ladder_spec(ring, constants),
         constants.constant),
    ]
    clean = _untouched(plan, len(key.bits))
    for algo, kw, generic, spec, scale in runs:
        trace = Trace()
        x, _ = run_exp_algorithm(algo, a, key, n, plan=plan, trace=trace, **kw)
        want = generic(ring, spec, key, 1, plan)
        assert (trace.xs, trace.ys) == (want.xs, want.ys), (algo, kw)
        for xi, yi in zip(trace.xs[:clean], trace.ys[:clean]):
            assert yi == scale * xi % n, algo
        if plan is None:
            assert x == pow(a, key.to_int(), n), algo


def _both_forms(algo, a, key, n, seed, **kw):
    """Outputs, snapshots and RNG state of the counted run, then of the straight-line run."""
    runs = []
    for per_iter in ([], None):
        trace, rng = Trace(), random.Random(seed)
        out = run_exp_algorithm(algo, a, key, n, trace=trace, per_iter=per_iter, rng=rng, **kw)
        runs.append((out, trace.xs, trace.ys, rng.getstate()))
        assert per_iter is None or len(per_iter) == len(key.bits)
    return runs


@st.composite
def _started(draw, cases):
    """A case and its start registers (x0, y0), or None for each ladder's own."""
    case = draw(cases)
    n = case[0]
    return case, draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))


def _widest(n):
    """Registers, mask and fault values of n - 1 at a = n - 2, then the start (1, n - 1)."""
    key = KeyBits((1, 0, 1, 1, 0, 0, 1, 0))
    plan = FaultPlan((RegisterFault("x", 3, value=n - 1), RegisterFault("y", 5, value=n - 1)))
    return [((n, n - 2, key, plan, n - 1, 11), (n - 1, n - 1)),
            ((n, n - 2, key, None, n - 1, 11), (1, n - 1))]


@settings(max_examples=40, deadline=None)
@given(_started(_case(st.sampled_from(PRIMES) | st.just(BIG))))
@example(((BIG, 5, KeyBits((1, 0, 0, 1, 1, 0, 1)), FaultPlan((RegisterFault("y", 2, seed=1),
          RegisterFault("x", 4, value=BIG - 1)), (5, 0)), 12345, 7), None))
@example(_widest(BIG)[0])
@example(_widest(BIG)[1])
@example(_widest(65537)[0])
@example(_widest(65537)[1])
def test_counted_and_straight_line_steps_agree(started):
    (n, a, key, plan, m, seed), (x0, y0) = started[0], started[1] or (None, None)
    constants = find_ladder_constant(a, n, random.Random(seed))
    runs = [("sm", {})] + [(algo, {"plan": plan, **kw}) for algo, kw in (
        ("sma", {}),
        ("montgomery", {}),
        ("semi", {"mask": MaskPolicy.zero()}),
        ("semi", {"mask": MaskPolicy.fixed(m)}),
        ("semi", {"mask": MaskPolicy.fresh()}),
        ("fully", {"constants": constants}),
    )]
    for algo, kw in runs:
        counted, straight = _both_forms(algo, a, key, n, seed, x0=x0, y0=y0, **kw)
        assert counted == straight, (algo, kw)
        _, xs, ys, _ = straight
        assert all(0 <= v < n for v in xs + (ys or [])), (algo, kw)


SMALL = find_small_curve()
# prime group order 971 at p = 1031 > TABLE_MAX_P: both routes take the affine law
LARGE = (Curve(1031, 2, 2, subgroup_order=971), Point(0, 473), 971)


def test_both_group_law_routes_are_drawn():
    for (curve, A, order), tabled in ((SMALL, True), (LARGE, False)):
        assert (type(oracle_ops(curve)) is LogOps) == tabled
        assert double_and_add(curve, order, A).is_infinity


@st.composite
def _ecc_case(draw):
    curve, G, order = draw(st.sampled_from([SMALL, LARGE]))
    A = double_and_add(curve, draw(st.integers(1, order - 1)), G)
    key = _key(draw, 16)
    points = st.integers(0, 2**32).map(lambda s: random_point(curve, random.Random(s)))
    semi_coef = draw(st.integers(1, order - 1).filter(lambda c: c != 2))
    fully_coef = draw(st.integers(3, order - 1).filter(lambda c: (3 - 2 * c) % order))
    plan, seed = draw(_plan(len(key.bits), points)), draw(st.integers(0, 2**32))
    return curve, A, key, plan, semi_params(semi_coef, order), fully_params(fully_coef, order), seed


def _traced(algo, curve, A, key, plan, seed, ops=None, **kw):
    """Outputs, snapshots and RNG end state of a run on `ops` (default: the curve's own group)."""
    trace, rng = Trace(), random.Random(seed)
    out = run_ecc_algorithm(algo, curve, A, key, plan=plan, ops=ops, trace=trace, rng=rng, **kw)
    return out, trace.xs, trace.ys, rng.getstate()


# a seeded x fault whose RNG first draws x = p - 1 on SMALL, a table entry a narrower draw misses
@example((*SMALL[:2], KeyBits((1, 0, 1, 1)), FaultPlan((RegisterFault("x", 2, seed=170),)),
          semi_params(3, SMALL[2]), fully_params(3, SMALL[2]), 5))
@settings(max_examples=40, deadline=None)
@given(_ecc_case())
def test_ecc_ladders_agree_across_group_law_routes(case):
    curve, A, key, plan, semi, fully, seed = case
    runs = [
        ("montgomery", {}),
        ("semi", {"params": semi}),
        ("semi", {"params": semi, "fresh_coef": True}),
        ("fully", {"params": fully}),
    ]
    clean = _untouched(plan, len(key.bits))
    want = double_and_add(curve, key, A)
    flipped = KeyBits(tuple(1 - b for b in key.bits))
    for algo, kw in runs:
        ops, regular = PointOps(curve), PointOps(curve)
        got = _traced(algo, curve, A, key, plan, seed, **kw)
        assert got == _traced(algo, curve, A, key, plan, seed, ops, **kw), (algo, kw)
        _traced(algo, curve, A, flipped, None, seed, regular, **kw)
        assert (ops.adds, ops.doubles) == (regular.adds, regular.doubles), (algo, kw)
        (x, _), xs, ys, _ = got
        assert all(type(P) is Point for P in xs + ys), (algo, kw)
        link, _ = ladder_link(algo, PointOps(curve), A, kw.get("params"))
        for P, Q in zip(xs[:clean], ys[:clean]):
            assert Q == link(P), (algo, kw)
        if plan is None:
            assert x == want, (algo, kw)
    if plan is None:
        assert run_ecc_algorithm("daa", curve, A, key)[0] == want
