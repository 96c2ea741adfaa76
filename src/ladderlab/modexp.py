"""Concrete modular-exponentiation algorithms with per-bit operation accounting.

Five left-to-right variants of a**k mod n: the plain square-and-multiply,
its always-multiply sibling, the classic two-register ladder keeping
y = a*x, a masked half-coupled ladder whose mask may be redrawn every
iteration, and a fully-coupled ladder parameterized by a ladder constant.
Each variant is one loop step, built by `exp_step` and run by
`ladders.drive`, the driver every ladder shares, which optionally
consumes a fault plan and records register snapshots.  Modular
multiplications / squarings / additions are tallied per iteration only
when a caller asks for them (`per_iter`, `cost_per_bit`, and through it
the CLI's `--count-ops`), by running the step on a
`ladders.CountingRing`; otherwise it runs on the plain `Ring`.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from math import gcd
from typing import NamedTuple

from .errors import InvalidCoefficient, NoConstantExists
from .faults import FaultPlan
from .ladders import (
    DEFAULT_SWEEP_LIMIT, Affine1, CountingRing, LadderSpec, OpCounts, Quad2, Trace, as_key, drive,
    start_point,
)
from .modarith import Ring

ALGORITHMS = ("sm", "sma", "montgomery", "semi", "fully")
MAX_DRAWS = 64  # random draws of `find_ladder_constant` before its exhaustive scan


@dataclass(frozen=True)
class MaskPolicy:
    """How the per-iteration mask of the half-coupled ladder is chosen."""

    mode: str = "zero"  # "zero" | "fixed" | "fresh"
    value: int | None = None

    @classmethod
    def zero(cls) -> "MaskPolicy":
        return cls("zero")

    @classmethod
    def fixed(cls, m: int) -> "MaskPolicy":
        if m < 0:
            raise ValueError("fixed mask must be non-negative")
        return cls("fixed", m)

    @classmethod
    def fresh(cls) -> "MaskPolicy":
        return cls("fresh")

    @classmethod
    def parse(cls, text: str) -> "MaskPolicy":
        if text == "zero":
            return cls.zero()
        if text == "fresh":
            return cls.fresh()
        if text.startswith("fixed:"):
            return cls.fixed(int(text.split(":", 1)[1], 0))
        raise ValueError(f"unknown mask policy {text!r}")

    def draw(self, n: int, rng: random.Random | None) -> int:
        if self.mode == "zero":
            return 0
        if self.mode == "fixed":
            return self.value % n
        if rng is None:
            raise ValueError("fresh mask policy needs an RNG")
        return rng.randrange(n)


@dataclass(frozen=True)
class LadderConstants:
    """A valid ladder constant plus everything precomputed from it.

    The loop then runs x <- xy_coef*x*y + sq_coef*y^2 and
    y <- sync_sq_coef*y^2 + sync_x_coef*x (arguments swapped on 0 bits),
    keeping y = constant * x throughout.
    """

    base: int
    modulus: int
    constant: int
    xy_coef: int
    sq_coef: int
    sync_sq_coef: int
    sync_x_coef: int
    draws: int


def _suits(a: int, ell: int, n: int) -> bool:
    """The four constant constraints: ell != a, and ell, ell^2 - 1 and ell^3 - a units mod n."""
    return (
        (ell - a) % n != 0
        and gcd(ell, n) == 1
        and gcd((ell * ell - 1) % n, n) == 1
        and gcd((ell * ell % n * ell - a) % n, n) == 1
    )


def _constants_for(a: int, ell: int, n: int, draws: int) -> LadderConstants | None:
    """The coefficients of `ell` when it meets the four constraints, else None."""
    if not _suits(a, ell, n):
        return None
    v0 = (ell - a) % n  # nonzero
    v2 = (ell * ell - 1) % n  # a unit, as are ell and v3
    v3 = (ell * ell % n * ell - a) % n
    u1, u2, u3 = pow(ell, -1, n), pow(v2, -1, n), pow(v3, -1, n)
    return LadderConstants(
        base=a % n,
        modulus=n,
        constant=ell % n,
        xy_coef=u1 * u2 % n * v3 % n,
        sq_coef=-v0 * u2 % n,
        sync_sq_coef=a * v2 % n * u3 % n,
        sync_x_coef=ell * v0 % n * u3 % n,
        draws=draws,
    )


def _check_modulus(n: int) -> None:
    if n < 7:
        raise ValueError("need n >= 7 for a nontrivial constant interval")


def ladder_constants(a: int, ell: int, n: int) -> LadderConstants:
    """Build constants for an explicitly chosen ladder constant, or reject it."""
    _check_modulus(n)
    c = _constants_for(a % n, ell % n, n, 0)
    if c is None:
        raise InvalidCoefficient(f"ell={ell} violates the constant constraints for (a={a}, n={n})")
    return c


def find_ladder_constant(a: int, n: int, rng: random.Random) -> LadderConstants:
    """Sample a ladder constant from [2, n-2] minus {a} until all constraints hold.

    After `MAX_DRAWS` failed samples, falls back to an exhaustive scan when n
    is at most `DEFAULT_SWEEP_LIMIT`; raises NoConstantExists when nothing
    qualifies.
    """
    _check_modulus(n)
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    for attempt in range(1, MAX_DRAWS + 1):
        idx = rng.randrange(n - 4)
        ell = 2 + idx
        if ell >= a:
            ell += 1
        c = _constants_for(a, ell, n, attempt)
        if c is not None:
            return c
    if n <= DEFAULT_SWEEP_LIMIT:
        for ell in range(2, n - 1):
            if ell == a:
                continue
            c = _constants_for(a, ell, n, MAX_DRAWS)
            if c is not None:
                return c
    raise NoConstantExists(f"no suitable ladder constant for a={a}, n={n}")


def _start(n, x0, y0, link_scale):
    x = 1 if x0 is None else x0 % n
    y = link_scale * x % n if y0 is None else y0 % n
    return x, y


def _mod_draw(n: int):
    return lambda rng: rng.randrange(n)


# Each variant below is its per-bit step over `sq/mul/add/sub` bound from
# `ops`, returned with its start registers; `exp_step` picks one.


def _sm(a, n, x0, y0, ops):
    sq, mul = ops.sq, ops.mul

    def step(bit, x, y):
        x = sq(x)
        return (mul(a, x) if bit else x), None

    return step, 1 if x0 is None else x0 % n, None


def _sma(a, n, x0, y0, ops, plan, i0):
    """The step, its start registers, and the plan left for the driver."""
    sq, mul = ops.sq, ops.mul
    draw = _mod_draw(n)
    # the y register receives the multiplier output on 0 bits, so a fault
    # aimed at y lands on that product, whichever register then takes it
    products = {}
    if plan is not None:
        products = {f.iteration: f for f in plan.register_faults if f.target == "y"}
        plan = replace(plan, register_faults=tuple(f for f in plan.register_faults if f.target == "x"))
    iteration = count(i0 + 1)

    def step(bit, x, y):
        x = sq(x)
        t = mul(a, x)
        f = products.get(next(iteration)) if products else None
        if f is not None:
            t = f.pick(t, draw)
        return (t, y) if bit else (x, t)

    x = 1 if x0 is None else x0 % n
    y = a if y0 is None else y0 % n  # sentinel until the first 0 bit writes it
    return step, x, y, plan


def _montgomery(a, n, x0, y0, ops):
    sq, mul = ops.sq, ops.mul

    def step(bit, x, y):
        if bit:
            return mul(x, y), sq(y)
        return sq(x), mul(y, x)

    return step, *_start(n, x0, y0, a)


def _semi(a, n, x0, y0, ops, mask, rng):
    sq, mul, add, sub = ops.sq, ops.mul, ops.add, ops.sub
    c = (a * a + 1) % n  # precomputed, excluded from per-bit accounting
    mask = mask or MaskPolicy.zero()

    def step(bit, x, y):
        m = mask.draw(n, rng)
        if not bit:  # a 0 bit runs the same body with the registers' roles swapped
            x, y = y, x
        z = sq(y)
        s = add(sq(x), z)
        t = mul(mul(m, a), s)
        w = sub(1, mul(m, c))
        x = add(t, mul(w, mul(x, y)))
        return (x, z) if bit else (z, x)

    return step, *_start(n, x0, y0, a)


def _fully(a, n, x0, y0, ops, constants):
    if constants is None:
        raise ValueError("fully-coupled runner needs LadderConstants")
    if constants.modulus != n or constants.base != a:
        raise ValueError("constants were built for a different (a, n)")
    sq, mul, add = ops.sq, ops.mul, ops.add
    k0, k1 = constants.xy_coef, constants.sq_coef
    k2, k3 = constants.sync_sq_coef, constants.sync_x_coef

    def step(bit, x, y):
        if not bit:  # a 0 bit runs the same body with the registers' roles swapped
            x, y = y, x
        z = sq(y)  # shared by both update lines
        x = add(mul(k0, mul(x, y)), mul(k1, z))
        y = add(mul(k2, z), mul(k3, x))
        return (x, y) if bit else (y, x)

    return step, *_start(n, x0, y0, constants.constant)


def run_exp_algorithm(
    algo: str,
    a: int,
    key,
    n: int,
    *,
    x0: int | None = None,
    y0: int | None = None,
    plan: FaultPlan | None = None,
    constants: LadderConstants | None = None,
    mask: MaskPolicy | None = None,
    rng: random.Random | None = None,
    trace: Trace | None = None,
    per_iter: list | None = None,
    start: tuple | None = None,
) -> tuple[int, int | None]:
    """Uniform entry point over the five variants; used by the CLI and oracles.

    It drives the step built by `exp_step`, which the exp oracle shares.
    `start=(i, x, y)` resumes a run after iteration i with registers
    (x, y) (y is None for sm), in place of `x0`/`y0`.  Fault iterations
    and stuck-at thresholds stay absolute, a trace begins at snapshot i,
    and semi draws masks only for the iterations it runs.  A plan that
    acts at or before iteration i is refused with ValueError.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    bits = as_key(key).bits
    if plan is not None:
        plan.validate(len(bits))
    i0, x0, y0 = start_point(start, x0, y0, plan, len(bits))
    if trace is not None and trace.ys is None and algo != "sm":
        trace.ys = []
    ops = Ring(n) if per_iter is None else CountingRing(n)
    step, x, y, plan = exp_step(algo, a, n, ops, x0=x0, y0=y0, plan=plan, i0=i0,
                                constants=constants, mask=mask, rng=rng)
    return drive(
        bits, x, y, step, plan=plan, draw=_mod_draw(n), trace=trace,
        per_iter=per_iter, counts=None if per_iter is None else ops.counts, i0=i0,
    )


def exp_step(algo, a, n, ops, *, x0=None, y0=None, plan=None, i0=0, constants=None, mask=None,
             rng=None):
    """`(step, x, y, plan)`: `algo`'s step on `ops`, start registers and plan left for `drive`.

    The one builder of exp steps, for `run_exp_algorithm` and for the exp
    oracle, which keeps one step per oracle.  Only sma's step depends on
    the plan: it takes the y faults, which land on the multiplier output.
    """
    args = (a % n, n, x0, y0, ops)
    if algo == "sm":
        if plan is not None:
            raise ValueError("the one-register variant takes no fault plan")
        return *_sm(*args), None
    if algo == "sma":
        return _sma(*args, plan, i0)
    if algo == "montgomery":
        return *_montgomery(*args), plan
    if algo == "semi":
        return *_semi(*args, mask, rng), plan
    if algo == "fully":
        return *_fully(*args, constants), plan
    raise ValueError(f"unknown algorithm {algo!r}")


def square_and_multiply(a: int, k, n: int) -> int:
    """Left-to-right binary exponentiation, one register, no dummy work."""
    return run_exp_algorithm("sm", a, k, n)[0]


def square_and_multiply_always(a: int, k, n: int) -> tuple[int, int]:
    """Binary exponentiation with a dummy multiply on 0 bits; returns (x, y)."""
    return run_exp_algorithm("sma", a, k, n)


def montgomery_ladder(a: int, k, n: int) -> tuple[int, int]:
    """Two-register ladder keeping y = a*x at every snapshot; returns (x, y)."""
    return run_exp_algorithm("montgomery", a, k, n)


def semi_interleaved_exp(
    a: int, k, n: int, mask: MaskPolicy | None = None, rng: random.Random | None = None
) -> tuple[int, int]:
    """Masked half-coupled ladder; x = a**k mod n for every mask policy."""
    return run_exp_algorithm("semi", a, k, n, mask=mask, rng=rng)


def fully_interleaved_exp(a: int, k, n: int, constants: LadderConstants) -> tuple[int, int]:
    """Fully-coupled ladder; keeps y = constant * x at every snapshot."""
    return run_exp_algorithm("fully", a, k, n, constants=constants)


class CostPerBit(NamedTuple):
    mul: Fraction
    sq: Fraction
    add: Fraction


def cost_per_bit(
    algo: str,
    a: int,
    k,
    n: int,
    *,
    mask: MaskPolicy | None = None,
    constants: LadderConstants | None = None,
    rng: random.Random | None = None,
) -> CostPerBit:
    """Measured loop operation counts divided by key length, precomputation excluded."""
    bits = as_key(k)
    per_iter: list[OpCounts] = []
    run_exp_algorithm(
        algo, a, bits, n, constants=constants, mask=mask, rng=rng, per_iter=per_iter
    )
    total = OpCounts()
    for c in per_iter:
        total = total + c
    d = len(bits)
    return CostPerBit(Fraction(total.mul, d), Fraction(total.sq, d), Fraction(total.add, d))


def masked_semi_spec(ring: Ring, a: int, m: int) -> LadderSpec:
    """Half-coupled spec for exponentiation with mask m (m = 0 is the classic ladder)."""
    a = ring.reduce(a)
    if a == 0:
        raise ValueError("base must be nonzero in the ring")
    ma = ring.mul(m, a)
    return LadderSpec(
        bit1_step=Quad2(c20=a),
        bit0_step=Quad2(c20=1),
        link=Affine1(a),
        main_step=Quad2(c20=ma, c02=ma, c11=ring.sub(1, ring.mul(m, ring.add(ring.mul(a, a), 1)))),
    )


def fully_ladder_spec(ring: Ring, constants: LadderConstants) -> LadderSpec:
    """Fully-coupled spec for exponentiation built from precomputed constants."""
    if constants.modulus != ring.n:
        raise ValueError("constants were built for a different modulus")
    return LadderSpec(
        bit1_step=Quad2(c20=constants.base),
        bit0_step=Quad2(c20=1),
        link=Affine1(constants.constant),
        main_step=Quad2(c11=constants.xy_coef, c02=constants.sq_coef),
        sync_step=Quad2(c02=constants.sync_sq_coef, c10=constants.sync_x_coef),
    )
