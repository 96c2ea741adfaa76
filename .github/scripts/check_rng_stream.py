"""Fail unless the package's seeded draws are CPython's `randrange` stream,
and the two forms of the semi and fully exp steps agree.

    python .github/scripts/check_rng_stream.py

Semi's fresh masks come from `modarith._below(n, rng)`, ECC semi's fresh
coefficients from `ecc._semi_coef(order, rng)` and seeded exp fault values
from `modarith._mod_draw(n)`, which run the loop of CPython's
`Random._randbelow_with_getrandbits` without its frames.  On twin
`random.Random` instances with equal seeds, each must give the values
`rng.randrange(n)` gives (for a coefficient, redrawn while it is 0 or 2),
draw for draw, and leave the RNG in the same state.  Seeded ECC fault
values and attack inputs on a curve with a log table come from the
table's logs of each x (`LogOps.draw`, the draw of the curve's own group
`oracle_ops`), attack inputs leaving it as points (`LogOps.leave`); a
counted run (`PointOps`, a tally over that same group) draws its seeded
faults there too.  On `find_small_curve()` the log drawn and the points
that leave either group must be the log of, and the point, that
`ecc.random_point`'s Tonelli-Shanks draw gives, under the same rule.
`random_point` itself, the draw of a curve without a log table, must give
the points its `randrange` form gives, on curves with p > `TABLE_MAX_P`.
The attack goldens pin outputs that depend on every value drawn, so a
Python whose `randrange` ran another loop would change them.

A seeded fault value is drawn from CPython's C generator (`faults.Random`,
the class `random.Random` subclasses), seeded with the fault's seed.  For
seeds of one and two 32-bit words it must give the `getrandbits` draws of
`random.Random(seed)`, draw for draw, end in the same state, and make
`RegisterFault.pick` resolve what the `randrange` form resolves.

Semi under fresh masks and fully also run at a 2,048-bit modulus in both
step forms: counted (`per_iter=[]`, one `% n` per tallied operation) and
straight-line (one reduction per register write, its wider numerators
reduced by Python's `%`, negative ones included).  Both must give the same
output and leave the RNG in the same state.  Standard library only, so
that it runs on every Python the package supports; tests/test_rng_stream.py
runs the same cases under pytest.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from ladderlab import faults
from ladderlab.ecc import (
    Curve, Point, PointOps, _semi_coef, find_small_curve, oracle_ops, random_point, sqrt_mod_prime,
)
from ladderlab.modarith import _below, _mod_draw
from ladderlab.modexp import MaskPolicy, find_ladder_constant, run_exp_algorithm

DRAWS = 2000
MODULI = (1, 2, 3, 97, 2**16 - 1, 2**16, 2**16 + 1, 2**64 - 1, 2**64, 2**64 + 1, 1_000_003,
          2**2047 + 2**1023 + 1)
# the 256-bit order is that of the secp256k1 base point
ORDERS = (3, 16, 97, 971, 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141)
FORMS_MODULUS = 2**2047 + 3  # odd, and neither 3 nor 5 divides it, so a ladder constant exists
# curves without a log table: the first prime past TABLE_MAX_P, and a Mersenne prime
UNTABLED = (Curve(1031, 2, 3), Curve(2**127 - 1, 2, 3))
FAULT_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)  # keys of one and two 32-bit words
FAULT_WIDTHS = (1, 7, 20, 32, 33, 64, 65, 2048)  # getrandbits widths, cycled


def _randrange_coef(order, rng):
    c = rng.randrange(order)
    while c in (0, 2):
        c = rng.randrange(order)
    return c


def _randrange_point(curve, rng):
    """`random_point` with its x drawn by `rng.randrange(p)`."""
    p = curve.p
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + curve.a * x + curve.b) % p
        if rhs == 0:
            return Point(x, 0)
        y = sqrt_mod_prime(rhs, p)
        if y is not None:
            return Point(x, y if rng.getrandbits(1) else p - y)


def _label(n):
    if n < 10**7:
        return str(n)
    near = [(n - p, p.bit_length() - 1) for p in (1 << n.bit_length() - 1, 1 << n.bit_length())]
    return next((f"2^{k}{d:+d}" for d, k in near if abs(d) < 10**7), f"{n.bit_length()}-bit")


def cases():
    """(name, build(rng) -> draw, reference(rng) -> value) for every checked n, order and curve."""
    out = [(f"_below({_label(n)})", lambda rng, n=n: _below(n, rng),
            lambda rng, n=n: rng.randrange(n)) for n in MODULI]
    out += [(f"_mod_draw({_label(n)})", lambda rng, draw=_mod_draw(n): lambda: draw(rng),
             lambda rng, n=n: rng.randrange(n)) for n in MODULI]
    out += [(f"_semi_coef({_label(order)})", lambda rng, order=order: _semi_coef(order, rng),
             lambda rng, order=order: _randrange_coef(order, rng)) for order in ORDERS]
    curve = find_small_curve()[0]
    logs, counted = oracle_ops(curve), PointOps(curve)
    out += [("LogOps.draw(find_small_curve())", lambda rng: lambda: logs.draw(rng),
             lambda rng: logs.log[random_point(curve, rng)]),
            ("LogOps.leave(draw)(find_small_curve())", lambda rng: lambda: logs.leave(logs.draw(rng)),
             lambda rng: random_point(curve, rng)),
            ("PointOps.leave(draw)(find_small_curve())",
             lambda rng: lambda: counted.leave(counted.draw(rng)), lambda rng: random_point(curve, rng))]
    out += [(f"random_point({_label(c.p)})", lambda rng, c=c: lambda: random_point(c, rng),
             lambda rng, c=c: _randrange_point(c, rng)) for c in UNTABLED]
    return out


def fault_mismatch(seed, generator=faults.Random):
    """None if `generator(seed)` draws what `random.Random(seed)` does, and a seeded fault
    picks what the `randrange` form picks, else why not."""
    ours, theirs = generator(seed), random.Random(seed)
    for i in range(DRAWS):
        k = FAULT_WIDTHS[i % len(FAULT_WIDTHS)]
        got, want = ours.getrandbits(k), theirs.getrandbits(k)
        if got != want:
            return f"draw {i} of {k} bits gave {got}, random.Random gave {want}"
    if faults.Random.getstate(ours) != faults.Random.getstate(theirs):
        return f"values agree over {DRAWS} draws, but the generator states differ"
    n = 1_000_003
    first = random.Random(seed).randrange(n)  # the fault must redraw a value equal to the register
    reference = random.Random(seed)
    want = reference.randrange(n)
    while want == first:
        want = reference.randrange(n)
    got = faults.RegisterFault("x", 1, seed=seed).pick(first, _mod_draw(n))
    return None if got == want else f"a fault picked {got}, the randrange form {want}"


def form_cases():
    """(name, run(per_iter) -> (output, RNG state)) for each exp step checked in both forms."""
    n, rng = FORMS_MODULUS, random.Random(7)
    a, key = rng.randrange(2, n - 1), rng.getrandbits(256)
    # unlinked start registers: on linked ones semi's masked term is a multiple of n, so the
    # sign of its lazy numerator never shows in the output
    x0, y0 = rng.randrange(n), rng.randrange(n)
    constants = find_ladder_constant(a, n, random.Random(7))

    def runner(algo, **kw):
        def run(per_iter):
            rng = random.Random(2024)
            out = run_exp_algorithm(algo, a, key, n, x0=x0, y0=y0, rng=rng, per_iter=per_iter, **kw)
            return out, rng.getstate()

        return run

    return [("semi under fresh masks", runner("semi", mask=MaskPolicy.fresh())),
            ("fully", runner("fully", constants=constants))]


def form_mismatch(run):
    """None if the counted and straight-line runs agree in output and RNG state, else why not."""
    (counted, counted_state), (straight, straight_state) = run([]), run(None)
    if counted != straight:
        return "the counted and straight-line forms give different outputs"
    if counted_state != straight_state:
        return "outputs agree, but the counted and straight-line forms leave different RNG states"
    return None


def mismatch(build, reference, seed=2024):
    """None if `build(rng)` draws what `reference(rng)` does and ends in its state, else why not."""
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = build(ours)
    for i in range(DRAWS):
        got, want = draw(), reference(theirs)
        if got != want:
            return f"draw {i} gave {got}, the reference gave {want}"
    if ours.getstate() != theirs.getstate():
        return f"values agree over {DRAWS} draws, but the RNG states differ"
    return None


def main():
    failures = [f"{name}: {why}" for name, build, reference in cases()
                if (why := mismatch(build, reference)) is not None]
    failures += [f"fault seed {seed}: {why}" for seed in FAULT_SEEDS
                 if (why := fault_mismatch(seed)) is not None]
    failures += [f"{name}: {why}" for name, run in form_cases()
                 if (why := form_mismatch(run)) is not None]
    print("\n".join(failures) or f"{len(cases())} draws match their references over {DRAWS} values, "
          f"{len(FAULT_SEEDS)} fault seeds give random.Random's stream, and {len(form_cases())} exp "
          f"steps agree in both forms, on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
