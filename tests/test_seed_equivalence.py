"""The exp runners and the constant draw agree with the frozen seed copy.

`bench/ladderlab_seed/` is the package as the benchmark first measured
it, kept byte-identical in CI: a second implementation of every exp
runner that shares no code with this one.  It is imported as
`bench/workloads.py` imports it, from the `bench/` folder.

Hypothesis draws a modulus, a base, a key, start registers, a fault plan
(0-3 seeded or valued register faults and an optional stuck-at), a mask
and an RNG seed as plain values.  Each side builds its own `KeyBits`,
`FaultPlan`, `MaskPolicy` and `LadderConstants` from them with its own
modules.  For each of the five exp runners (semi under zero, fixed and
fresh masks) the seed copy's run, which always counts, and this
package's counted run must give the same output, every snapshot, the
per-iteration tallies as (mul, sq, add) and the same RNG end state; this
package's uncounted run must give the same output, snapshots and RNG
state.  A draw of `find_ladder_constant` must give the same constant,
draw count and four coefficients on both sides, or fail on both.
Neither route has a recorded divergence from the seed copy.
"""

import importlib
import os
import random
import sys
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
# this package, then the seed copy: each side's modules, as `bench/workloads.py:load_lib` gives them
NOW, SEED = (SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                                for name in ("errors", "faults", "ladders", "modexp")})
             for package in ("ladderlab", "ladderlab_seed"))

PRIMES = [7, 11, 13, 101, 257, 1009, 65537, 1_000_003]
BIG = 2**2047 + 3  # 2,048-bit and coprime to 6, so a ladder constant exists


@st.composite
def _case(draw, moduli=st.sampled_from(PRIMES) | st.just(BIG)):
    n = draw(moduli)
    nbits = draw(st.integers(1, 24))
    key = draw(st.integers(0, 2**nbits - 1))
    starts = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    iterations = draw(st.lists(st.integers(1, nbits), unique=True, max_size=min(3, nbits)))
    plan = [(draw(st.sampled_from("xy")), i, draw(st.integers(0, 2**32)),
             draw(st.none() | st.integers(0, n - 1))) for i in iterations]
    stuck = draw(st.none() | st.tuples(st.integers(0, nbits), st.integers(0, 1)))
    a, m, seed = draw(st.integers(2, n - 2)), draw(st.integers(1, n - 1)), draw(st.integers(0, 2**32))
    return n, a, (key, nbits), starts, (plan, stuck), m, seed


def _runs(side, n, a, key, plan, m, seed):
    """(algo, keywords) of each runner, from one side's own key, plan, masks and constants."""
    faults, stuck = plan
    fault = side.faults.RegisterFault
    plan = side.faults.FaultPlan(tuple(fault(t, i, value=v, seed=None if v is not None else s)
                                       for t, i, s, v in faults), stuck)
    constants = side.modexp.find_ladder_constant(a, n, random.Random(seed))
    policy = side.modexp.MaskPolicy
    runs = [("sm", {})] + [(algo, {"plan": plan, **kw}) for algo, kw in (
        ("sma", {}),
        ("montgomery", {}),
        ("semi", {"mask": policy.zero()}),
        ("semi", {"mask": policy.fixed(m)}),
        ("semi", {"mask": policy.fresh()}),
        ("fully", {"constants": constants}),
    )]
    return side.ladders.KeyBits.from_int(*key), runs


def _run(side, algo, a, key, n, starts, seed, per_iter, kw):
    """Output, snapshots, (mul, sq, add) per iteration or None, and RNG end state of one run."""
    trace, rng = side.ladders.Trace(), random.Random(seed)
    x0, y0 = starts or (None, None)
    out = side.modexp.run_exp_algorithm(algo, a, key, n, x0=x0, y0=y0, rng=rng, trace=trace,
                                         per_iter=per_iter, **kw)
    tallies = None if per_iter is None else [(c.mul, c.sq, c.add) for c in per_iter]
    return out, trace.xs, trace.ys, tallies, rng.getstate()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_case())
@example((BIG, 5, (0b1001101, 7), None, ([("y", 2, 1, None), ("x", 4, 0, BIG - 1)], (5, 0)), 12345, 7))
@example((BIG, BIG - 2, (0b10110010, 8), (1, BIG - 1), ([("x", 3, 0, BIG - 1)], None), BIG - 1, 11))
@example((65537, 65535, (0b10110010, 8), (65536, 65536),
          ([("x", 3, 0, 65536), ("y", 5, 0, 65536)], None), 65536, 11))
def test_exp_runners_equal_the_seed_copy(case):
    n, a, key, starts, plan, m, seed = case
    (key_now, now), (key_then, then) = (_runs(side, n, a, key, plan, m, seed) for side in (NOW, SEED))
    for (algo, kw_now), (_, kw_then) in zip(now, then):
        counted = _run(NOW, algo, a, key_now, n, starts, seed, [], kw_now)
        assert counted == _run(SEED, algo, a, key_then, n, starts, seed, [], kw_then), (algo, kw_now)
        out, xs, ys, _, state = _run(NOW, algo, a, key_now, n, starts, seed, None, kw_now)
        assert (out, xs, ys, state) == counted[:3] + counted[4:], (algo, kw_now)


def _draw(side, a, n, seed):
    try:
        c = side.modexp.find_ladder_constant(a, n, random.Random(seed))
    except side.errors.NoConstantExists:
        return None
    return c.constant, c.draws, c.xy_coef, c.sq_coef, c.sync_sq_coef, c.sync_x_coef


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(7, 2500).flatmap(lambda n: st.tuples(st.integers(2, n - 2), st.just(n))),
       st.integers(0, 2**32))
@example((8, 2275), 1)  # all 64 draws miss; the scan gives l = 3
@example((5, BIG), 7)
@example((7, 1_000_003), 0)
@example((2, 21), 0)  # 3 | 21: no constant on either side
def test_constant_draws_equal_the_seed_copy(an, seed):
    a, n = an
    assert _draw(NOW, a, n, seed) == _draw(SEED, a, n, seed)
