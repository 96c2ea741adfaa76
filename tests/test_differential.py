"""The concrete exp runners trace what the generic spec runners trace, under random fault plans.

Hypothesis draws a prime modulus, a base, a key and a fault plan (0-3
seeded or explicit register faults and an optional stuck-at, from the
strategy the resume tests use).  The concrete montgomery, semi (zero and
fixed mask) and fully runners must give the snapshots that
`ladders.run_semi_ladder` / `run_fully_ladder` give on the matching specs,
and with no plan x must end at pow(a, k, n).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_resume import _plan

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


@st.composite
def _case(draw):
    n = draw(st.sampled_from(PRIMES))
    nbits = draw(st.integers(1, 24))
    key = KeyBits(tuple(draw(st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits))))
    a, mask, seed = draw(st.integers(2, n - 2)), draw(st.integers(1, n - 1)), draw(st.integers(0, 2**32))
    return n, a, key, draw(_plan(nbits, n)), mask, seed


@settings(max_examples=40, deadline=None)
@given(_case())
def test_concrete_runners_equal_generic_ladders(case):
    n, a, key, plan, m, seed = case
    ring = Ring(n)
    constants = find_ladder_constant(a, n, random.Random(seed))
    semi_zero = masked_semi_spec(ring, a, 0)
    runs = [
        ("montgomery", {}, run_semi_ladder, semi_zero),
        ("semi", {"mask": MaskPolicy.zero()}, run_semi_ladder, semi_zero),
        ("semi", {"mask": MaskPolicy.fixed(m)}, run_semi_ladder, masked_semi_spec(ring, a, m)),
        ("fully", {"constants": constants}, run_fully_ladder, fully_ladder_spec(ring, constants)),
    ]
    for algo, kw, generic, spec in runs:
        trace = Trace()
        x, _ = run_exp_algorithm(algo, a, key, n, plan=plan, trace=trace, **kw)
        want = generic(ring, spec, key, 1, plan)
        assert (trace.xs, trace.ys) == (want.xs, want.ys), (algo, kw)
        if plan is None:
            assert x == pow(a, key.to_int(), n), algo
