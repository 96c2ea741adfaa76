"""Concrete modular-exponentiation algorithms with per-bit operation accounting.

Five left-to-right variants of a**k mod n: square-and-multiply, its
always-multiply sibling, the classic two-register ladder keeping y = a*x,
a masked half-coupled ladder whose mask may be redrawn every iteration,
and a fully-coupled ladder built on a ladder constant.  Each leaves a**k
mod n in x, whatever its mask or constant.

A run that counts its ring operations (`per_iter`, `cost_per_bit`, the
CLI's `--count-ops`) evaluates each step on a `ladders.CountingRing`,
every other run on a plain `modarith.Ring`; semi and fully run a
straight-line form of their step instead, which tests hold equal to the
counted one (`exp_step`).
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import NamedTuple

from .errors import InvalidCoefficient, NoConstantExists
from .faults import FaultPlan
from .ladders import (
    DEFAULT_SWEEP_LIMIT, Affine1, CountingRing, LadderSpec, OpCounts, Quad2, Target, Trace, as_key,
    drive,
)
from .modarith import Ring, _below, _mod_draw

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

    def per_iteration(self, n: int, rng: random.Random | None):
        """The zero-argument draw of each iteration's mask: a constant, or `modarith._below`."""
        if self.mode == "fresh":
            if rng is None:
                raise ValueError("fresh mask policy needs an RNG")
            return _below(n, rng)
        m = 0 if self.mode == "zero" else self.value % n
        return lambda: m


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

    After `MAX_DRAWS` failed samples it raises NoConstantExists at once when
    gcd(n, 6) > 1: every unit l then makes l^2 - 1 even (2 | n) or a multiple
    of 3 (3 | n), so no constant exists.  Otherwise it scans every constant
    when n is at most `DEFAULT_SWEEP_LIMIT`, and NoConstantExists means that
    none qualifies; above that limit it means only that every draw failed.
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
    absent = f"no suitable ladder constant for a={a}, n={n}"
    if gcd(n, 6) > 1:
        raise NoConstantExists(absent)
    if n <= DEFAULT_SWEEP_LIMIT:
        for ell in range(2, n - 1):
            c = _constants_for(a, ell, n, MAX_DRAWS)
            if c is not None:
                return c
        raise NoConstantExists(absent)
    raise NoConstantExists(f"{absent} found in {MAX_DRAWS} draws")


def _start(n, x0, y0, link_scale):
    x = 1 if x0 is None else x0 % n
    y = link_scale * x % n if y0 is None else y0 % n
    return x, y


# Each two-register variant below also gives its `Target.tail`: k iterations on one bit
# without `drive`, which `exp_step` hands to uncounted runs only.


def _squarings(a, n, bit, k, x):
    """x after k iterations on `bit` that each square x, then multiply it by a on a 1 bit."""
    e = 1 << k
    x = pow(x, e, n)
    return x * pow(a, e - 1, n) % n if bit else x


def _linked_tail(a, s, n, unlinked, fresh=None):
    """The tail of semi (s = a) and fully (s = the ladder constant).

    On the link y = s*x each step squares x (times a on a 1 bit) and keeps
    the link: semi's mask multiplies (a*x - y)(x - a*y) = 0, and fully's
    step is a homogeneous quadratic that keeps y = s*x.  There `fresh`,
    semi's fresh mask draw, is replayed once per iteration.  Off the link
    `unlinked(bit, k, x, y)` runs the k iterations one by one, the step's
    draws included: fully's loops its step, semi's inlines its arithmetic.
    """
    def tail(bit, k, x, y):
        if (y - s * x) % n:
            return unlinked(bit, k, x, y)
        if fresh is not None:
            for _ in range(k):
                fresh()
        x = _squarings(a, n, bit, k, x)
        return x, s * x % n

    return tail


def _sm(a, n, x0, y0, ring):
    sq, mul = ring.sq, ring.mul

    def step(bit, x, y):
        x = sq(x)
        return (mul(a, x) if bit else x), None

    return step, 1 if x0 is None else x0 % n, None


def _sma(a, n, x0, y0, ring):
    """The step, its start registers, `takes`, which adds a plan's y faults to the step, and a tail."""
    sq, mul = ring.sq, ring.mul

    def step(bit, x, y):
        x = sq(x)
        t = mul(a, x)
        return (t, y) if bit else (x, t)

    def tail(bit, k, x, y):  # a 1 bit leaves y alone, a 0 bit writes a*x there
        x = _squarings(a, n, bit, k, x)
        return x, (y if bit or not k else a * x % n)

    def takes(plan, i0):
        # the y register receives the multiplier output on 0 bits, so a fault
        # aimed at y lands on that product, whichever register then takes it
        products = {f.iteration: f for f in plan.register_faults if f.target == "y"}
        if not products:
            return step, plan
        draw, iteration = _mod_draw(n), count(i0 + 1)

        def faulted(bit, x, y):
            x, y = step(bit, x, y)
            f = products.get(next(iteration))
            if f is None:
                return x, y
            return (f.pick(x, draw), y) if bit else (x, f.pick(y, draw))

        return faulted, FaultPlan(tuple(f for f in plan.register_faults if f.target == "x"),
                                  plan.key_stuckat)

    x = 1 if x0 is None else x0 % n
    y = a if y0 is None else y0 % n  # sentinel until the first 0 bit writes it
    return step, x, y, takes, tail


def _montgomery(a, n, x0, y0, ring):
    sq, mul = ring.sq, ring.mul

    def step(bit, x, y):
        return (mul(x, y), sq(y)) if bit else (sq(x), mul(y, x))

    def tail(bit, k, x, y):  # bit 1 gives (x*y^(2^k - 1), y^(2^k)); bit 0 swaps the roles
        if not bit:
            x, y = y, x
        p = pow(y, (1 << k) - 1, n)
        x, y = x * p % n, y * p % n
        return (x, y) if bit else (y, x)

    return step, *_start(n, x0, y0, a), tail


def _semi(a, n, x0, y0, ops, policy, rng):
    c = (a * a + 1) % n  # precomputed, excluded from per-bit accounting
    policy = policy or MaskPolicy.zero()
    mask = policy.per_iteration(n, rng)
    fresh = mask if policy.mode == "fresh" else None
    # a 0 bit runs the same body with the registers' roles swapped
    if ops is None:
        def step(bit, x, y):
            m = mask()
            if not bit:
                x, y = y, x
            z = y * y % n
            xy = x * y % n
            # m*a*s + (1 - m*c)*xy == xy + m*(a*s - c*xy), s = x^2 + z: m multiplies once
            u = (a * ((x * x + z) % n) - c * xy) % n
            x = (m * u + xy) % n
            return (x, z) if bit else (z, x)
    else:
        sq, mul, add, sub = ops.sq, ops.mul, ops.add, ops.sub

        def step(bit, x, y):
            m = mask()
            if not bit:
                x, y = y, x
            z = sq(y)
            s = add(sq(x), z)
            t = mul(mul(m, a), s)
            w = sub(1, mul(m, c))
            x = add(t, mul(w, mul(x, y)))
            return (x, z) if bit else (z, x)

    def unlinked(bit, k, x, y):
        # on a 1 bit y squares and x takes x*y + m*(a*(x^2 + y^2) - c*x*y), whose mask
        # term factors as m*(a*x - y)*(x - a*y); inlined, not a loop of `step`, since
        # the exp oracle runs most of its semi iterations here
        if not bit:
            x, y = y, x
        for _ in range(k):
            m = mask()
            x, y = (x * y + m * ((a * x - y) * (x - a * y) % n)) % n, y * y % n
        return (x, y) if bit else (y, x)

    return step, *_start(n, x0, y0, a), fresh, _linked_tail(a, a, n, unlinked, fresh)


def _fully(a, n, x0, y0, ops, constants):
    if constants is None:
        raise ValueError("fully-coupled runner needs LadderConstants")
    if constants.modulus != n or constants.base != a:
        raise ValueError("constants were built for a different (a, n)")
    k0, k1 = constants.xy_coef, constants.sq_coef
    k2, k3 = constants.sync_sq_coef, constants.sync_x_coef
    # a 0 bit runs the same body with the registers' roles swapped; z serves both lines
    if ops is None:
        def step(bit, x, y):
            if not bit:
                x, y = y, x
            z = y * y % n
            x = (k0 * (x * y % n) + k1 * z) % n
            y = (k2 * z + k3 * x) % n
            return (x, y) if bit else (y, x)
    else:
        sq, mul, add = ops.sq, ops.mul, ops.add

        def step(bit, x, y):
            if not bit:
                x, y = y, x
            z = sq(y)
            x = add(mul(k0, mul(x, y)), mul(k1, z))
            y = add(mul(k2, z), mul(k3, x))
            return (x, y) if bit else (y, x)

    def unlinked(bit, k, x, y):
        for _ in range(k):
            x, y = step(bit, x, y)
        return x, y

    return step, *_start(n, x0, y0, constants.constant), _linked_tail(a, constants.constant, n, unlinked)


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
) -> tuple[int, int | None]:
    """Uniform entry point over the five variants; drives the `Target` of `exp_step`."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    bits = as_key(key).bits
    if plan is not None:
        plan.validate(len(bits))
    ops = None if per_iter is None else CountingRing(n)
    t = exp_step(algo, a, n, ops, x0=x0, y0=y0, plan=plan, constants=constants, mask=mask, rng=rng)
    step = t.step if ops is None else ops.tallied(t.step, per_iter)
    return drive(bits, t.x, t.y, step, plan=t.plan, draw=t.draw, trace=trace)


def exp_step(algo, a, n, ops, *, x0=None, y0=None, plan=None, constants=None, mask=None,
             rng=None) -> Target:
    """`algo`'s step, start registers and the plan left for `drive`, as one `Target`.

    The one builder of exp steps, for `run_exp_algorithm` and the exp
    oracle.  Sm, sma and montgomery evaluate their step on `ops`, or on a
    plain `Ring(n)` when `ops` is None.  Semi and fully have a second,
    straight-line step for `ops=None`: a value is reduced once, before it
    is written to a register or multiplied again, and a product that only
    feeds a sum is left unreduced.  Semi under fresh masks sets `fresh` to
    its mask draw.  Only sma's step depends on the plan: with one it comes
    wrapped by `takes`.  Every two-register step has a `tail`, which
    answers from any registers and replays the draws of the iterations it
    answers; only an uncounted run gets it, since a counted run drives
    every step.
    """
    args, fresh, takes, tail = (a % n, n, x0, y0), None, None, None
    ring = ops or Ring(n)  # what sm, sma and montgomery evaluate their one step on
    if algo == "sm":
        if plan is not None:
            raise ValueError("the one-register variant takes no fault plan")
        step, x, y = _sm(*args, ring)
    elif algo == "sma":
        step, x, y, takes, tail = _sma(*args, ring)
        if plan is not None:
            step, plan = takes(plan, 0)
    elif algo == "montgomery":
        step, x, y, tail = _montgomery(*args, ring)
    elif algo == "semi":
        step, x, y, fresh, tail = _semi(*args, ops, mask, rng)
    elif algo == "fully":
        step, x, y, tail = _fully(*args, ops, constants)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return Target(step, x, y, plan, _mod_draw(n), fresh=fresh, takes=takes,
                  tail=tail if ops is None else None)


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
    """Masked half-coupled ladder; returns (x, y)."""
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
