"""Generic two-register ladders over a modular ring.

A secret-dependent loop updates one register x through a unary step per
branch (`bit1_step` on a 1 bit, `bit0_step` on a 0).  The two-register
rewrites keep a companion register y == link(x) between any two
iterations: the half-coupled form updates one register from both values
and the other from itself, the fully-coupled form both from both.  A
spec whose equations hold (`check_semi_equations`, `check_fully_equations`)
gives a faithful rewrite for every ring element.

`drive` is the one loop driver of every ladder runner, here and in
`modexp` and `ecc`, which supply only a per-bit step.  Ring operations are
counted one way only, on a `CountingRing`.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NamedTuple

from .errors import DomainTooLarge
from .faults import FaultPlan
from .modarith import Ring, _mod_draw

DEFAULT_SWEEP_LIMIT = 2**20
INT64_SWEEP_LIMIT = 2**31
SWEEP_CHUNK = 2**14
COUNTEREXAMPLE_CAP = 16


@dataclass
class OpCounts:
    """Tally of ring operations: multiplications, squarings, additions/subtractions."""

    mul: int = 0
    sq: int = 0
    add: int = 0

    def copy(self) -> "OpCounts":
        return OpCounts(self.mul, self.sq, self.add)

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.mul + other.mul, self.sq + other.sq, self.add + other.add)

    def __sub__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(self.mul - other.mul, self.sq - other.sq, self.add - other.add)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.mul, self.sq, self.add)


class CountingRing:
    """Mod-n arithmetic that tallies every operation in `counts`; a stand-in for `Ring`."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int):
        self.n = n
        self.counts = OpCounts()

    def mul(self, x, y):
        self.counts.mul += 1
        return x * y % self.n

    def sq(self, x):
        self.counts.sq += 1
        return x * x % self.n

    def add(self, x, y):
        self.counts.add += 1
        return (x + y) % self.n

    def sub(self, x, y):
        self.counts.add += 1
        return (x - y) % self.n

    def tallied(self, step, per_iter: list):
        """`step`, appending to `per_iter` the `OpCounts` each call of it adds to `counts`."""
        counts = self.counts

        def counted(bit, x, y):
            before = counts.copy()
            x, y = step(bit, x, y)
            per_iter.append(counts - before)
            return x, y

        return counted


@dataclass(frozen=True)
class Quad2:
    """Quadratic form c20*x^2 + c11*x*y + c02*y^2 + c10*x + c01*y + c00 over a ring."""

    c20: int = 0
    c11: int = 0
    c02: int = 0
    c10: int = 0
    c01: int = 0
    c00: int = 0

    def eval2(self, ring: Ring, x: int, y: int) -> int:
        # fixed operation pattern regardless of zero coefficients, so that
        # both branches of a ladder cost exactly the same
        x2 = ring.sq(x)
        y2 = ring.sq(y)
        xy = ring.mul(x, y)
        acc = ring.mul(self.c20, x2)
        acc = ring.add(acc, ring.mul(self.c11, xy))
        acc = ring.add(acc, ring.mul(self.c02, y2))
        acc = ring.add(acc, ring.mul(self.c10, x))
        acc = ring.add(acc, ring.mul(self.c01, y))
        return ring.add(acc, self.c00)

    def eval1(self, ring: Ring, x: int) -> int:
        """Evaluate at (x, 0); the univariate view used for the branch steps."""
        x2 = ring.sq(x)
        acc = ring.add(ring.mul(self.c20, x2), ring.mul(self.c10, x))
        return ring.add(acc, self.c00)

    def depends_on_x(self, ring: Ring) -> bool:
        return ring.reduce(self.c20) != 0 or ring.reduce(self.c10) != 0

    def is_univariate(self, ring: Ring) -> bool:
        return all(ring.reduce(c) == 0 for c in (self.c11, self.c02, self.c01))


@dataclass(frozen=True)
class Affine1:
    """Affine map l1*x + l0; the register relation maintained by a ladder."""

    l1: int
    l0: int = 0

    def eval(self, ring: Ring, x: int) -> int:
        return ring.add(ring.mul(self.l1, x), self.l0)


@dataclass(frozen=True)
class LadderSpec:
    """Step bundle: unary branch steps, the link map, and the coupled steps.

    `main_step` produces the register owned by the taken branch from both
    previous values; `sync_step` (absent for the half-coupled form)
    recomputes the other register, again from both values.
    """

    bit1_step: Quad2
    bit0_step: Quad2
    link: Affine1
    main_step: Quad2
    sync_step: Quad2 | None = None

    def validate(self, ring: Ring) -> None:
        if ring.reduce(self.link.l1) == 0:
            raise ValueError("link slope must be nonzero in the ring")
        if not self.bit1_step.depends_on_x(ring):
            raise ValueError("bit1_step must depend on x")
        for name in ("bit1_step", "bit0_step"):
            if not getattr(self, name).is_univariate(ring):
                raise ValueError(f"{name} must be univariate")


@dataclass(frozen=True)
class KeyBits:
    """Secret key as the bit sequence consumed by the loop, bits[0] first: the top bit."""

    bits: tuple

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("key must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("key bits must be 0 or 1")

    @classmethod
    def from_int(cls, k: int, width: int | None = None) -> "KeyBits":
        if k < 0:
            raise ValueError("key must be non-negative")
        if width is None:
            width = max(k.bit_length(), 1)
        elif k.bit_length() > width:
            raise ValueError("key does not fit in width")
        return cls(tuple((k >> (width - 1 - j)) & 1 for j in range(width)))

    def to_int(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def __len__(self) -> int:
        return len(self.bits)


def as_key(k) -> KeyBits:
    return k if isinstance(k, KeyBits) else KeyBits.from_int(k)


@dataclass
class Trace:
    """Register snapshots taken between iterations, plus per-iteration op tallies.

    snapshot j holds the register values after j iterations, so there is
    one more snapshot than iterations.
    """

    xs: list = field(default_factory=list)
    ys: list | None = None
    ops: list = field(default_factory=list)

    @property
    def x_final(self):
        return self.xs[-1]

    @property
    def y_final(self):
        return self.ys[-1] if self.ys is not None else None

    def snapshots(self):
        return list(zip(self.xs, self.ys))


def _record(trace, x, y):
    trace.xs.append(x)
    if y is not None:  # a one-register loop keeps trace.ys as None
        trace.ys.append(y)


class Target(NamedTuple):
    """One ladder run as `drive` takes it, built by `modexp.exp_step` or `ecc.ecc_step`.

    `step` starts from registers (x, y) and `plan` is what is left of the
    fault plan for `drive`, with `draw` giving a seeded fault's value.  The
    optional fields are None when unused: `fresh()`, the step's draw per
    iteration; `takes(plan, i0) -> (step, plan)` (`modexp._sma`); and
    `tail(b, k, x, y)`, what `drive` gives over k more iterations that all
    read bit b, the step's draws included (`modexp._linked_tail` for semi
    and fully, `ecc._affine_tail` for ECC on discrete logs).
    """

    step: Callable
    x: object
    y: object
    plan: FaultPlan | None
    draw: Callable
    fresh: Callable | None = None
    takes: Callable | None = None
    tail: Callable | None = None


def drive(bits, x, y, step, *, plan=None, draw=None, trace=None, i0=0, stop=None, rejoin=None):
    """Run `step(bit, x, y) -> (x, y)` once per key bit after iteration `i0`.

    (x, y) are the registers after iteration i0 (0 for a whole run; y is
    None for a one-register loop, whose `trace` keeps ys None).  Iteration
    numbers stay absolute: register faults are applied just before the
    iterations they name, `draw(rng)` giving a seeded fault's value, and
    iterations past a stuck-at's threshold read its bit; the key is never
    copied.  With `stop`, the run ends after iteration `stop`.
    `rejoin=states` runs on from there, for an untraced run with no later
    fault that then reads the bits of a clean run with snapshots `states`:
    once the registers after an iteration i >= stop equal `states[i]`, it
    returns that run's output.
    """
    consumed, faulted = islice, ()  # consumed(bits, i, j): the bits iterations i + 1 .. j read
    if plan is not None:
        faulted = {f.iteration for f in plan.register_faults}
        consumed = islice if plan.key_stuckat is None else plan.effective_bits
    if trace is not None:
        if y is not None and trace.ys is None:
            trace.ys = []
        _record(trace, x, y)
    for i, bit in enumerate(consumed(bits, i0, stop), i0 + 1):
        if i in faulted:
            x, y = plan.apply(i, x, y, draw)
            if trace is not None:
                # the boundary snapshot must show what this iteration reads
                trace.xs[-1], trace.ys[-1] = x, y
        x, y = step(bit, x, y)
        if trace is not None:
            _record(trace, x, y)
    if rejoin is not None:
        for i, bit in enumerate(consumed(bits, stop, None), stop):
            if (x, y) == rejoin[i]:
                return rejoin[-1]
            x, y = step(bit, x, y)
    return x, y


def run_branching(ring: Ring, spec: LadderSpec, key, x_init: int) -> Trace:
    """Run the plain one-register conditional branching; trace of x only."""
    spec.validate(ring)
    ops = CountingRing(ring.n)
    bit1, bit0 = spec.bit1_step, spec.bit0_step

    def step(bit, x, _):
        return (bit1 if bit else bit0).eval1(ops, x), None

    trace = Trace()
    drive(as_key(key).bits, ring.reduce(x_init), None, ops.tallied(step, trace.ops), trace=trace)
    return trace


def _run_two_register(ring, spec, key, x_init, plan, y_init, other) -> Trace:
    """The body both two-register forms share; they differ only in `other`.

    The taken branch's register gets `main_step` of both values, then the
    other register gets `other(ops, t, y)` of that new value t and its own
    old value y, both evaluated on the counting ring `ops`.
    """
    bits = as_key(key).bits
    if plan is not None:
        plan.validate(len(bits))
    ops = CountingRing(ring.n)
    main = spec.main_step

    def step(bit, x, y):
        if bit:
            x = main.eval2(ops, x, y)
            return x, other(ops, x, y)
        y = main.eval2(ops, y, x)
        return other(ops, y, x), y

    x = ring.reduce(x_init)
    y = spec.link.eval(ring, x) if y_init is None else ring.reduce(y_init)
    trace = Trace()
    drive(bits, x, y, ops.tallied(step, trace.ops), plan=plan, draw=_mod_draw(ring.n), trace=trace)
    return trace


def run_semi_ladder(
    ring: Ring,
    spec: LadderSpec,
    key,
    x_init: int,
    plan: FaultPlan | None = None,
    y_init: int | None = None,
) -> Trace:
    """Run the half-coupled two-register ladder, honoring an optional fault plan."""
    spec.validate(ring)
    if spec.sync_step is not None:
        raise ValueError("semi runner requires a spec without sync_step")
    bit0 = spec.bit0_step
    return _run_two_register(
        ring, spec, key, x_init, plan, y_init, lambda ops, t, y: bit0.eval1(ops, y)
    )


def run_fully_ladder(
    ring: Ring,
    spec: LadderSpec,
    key,
    x_init: int,
    plan: FaultPlan | None = None,
    y_init: int | None = None,
) -> Trace:
    """Run the fully-coupled ladder: both registers recomputed from both values."""
    spec.validate(ring)
    if spec.sync_step is None:
        raise ValueError("fully runner requires a spec with sync_step")
    sync = spec.sync_step
    return _run_two_register(
        ring, spec, key, x_init, plan, y_init, lambda ops, t, y: sync.eval2(ops, t, y)
    )


@dataclass
class SweepResult:
    ok: bool
    counterexamples: list  # (x, equation index) pairs, first COUNTEREXAMPLE_CAP only

    def __bool__(self) -> bool:
        return self.ok


def _sweep(ring: Ring, spec: LadderSpec, equations, limit: int) -> SweepResult:
    """Decide `equations` (pairs of sides) at every x in [0, n).

    Each side has degree <= 4 in x, so x = 0..4 decide a passing spec at
    any n; a failing one is enumerated over int64 chunks of x to list its
    first counterexamples, and only that enumeration is refused above
    `limit`.  n above `INT64_SWEEP_LIMIT` is refused whatever `limit` is.
    """
    import numpy as np

    if ring.n > INT64_SWEEP_LIMIT:
        raise DomainTooLarge(f"sweep over n={ring.n} exceeds guard {INT64_SWEEP_LIMIT}")
    # canonical coefficients keep every product below (n-1)**2 < 2**62
    ring, spec = spec_from_json(spec_to_json(ring, spec))
    # lhs - rhs = sum_k C(x, k) * D^k(0) over k <= 4 (forward differences, integer combinations
    # of its values at 0..4): zero mod n there is zero at every x
    if all((lhs == rhs).all() for lhs, rhs in equations(ring, spec, np.arange(5, dtype=np.int64))):
        return SweepResult(True, [])
    if ring.n > limit:
        raise DomainTooLarge(f"spec fails; listing its counterexamples over n={ring.n} "
                             f"exceeds limit {limit}")
    bad = []
    for start in range(0, ring.n, SWEEP_CHUNK):
        xs = np.arange(start, min(start + SWEEP_CHUNK, ring.n), dtype=np.int64)
        failed = np.stack([lhs != rhs for lhs, rhs in equations(ring, spec, xs)], axis=1)
        for x, idx in zip(*np.nonzero(failed)):  # x ascending, then equation index
            bad.append((start + int(x), int(idx) + 1))
            if len(bad) >= COUNTEREXAMPLE_CAP:
                return SweepResult(False, bad)
    return SweepResult(not bad, bad)


def _semi_equations(ring: Ring, spec: LadderSpec, x):
    lx = spec.link.eval(ring, x)
    yield spec.bit0_step.eval1(ring, lx), spec.link.eval(ring, spec.bit1_step.eval1(ring, x))
    yield spec.main_step.eval2(ring, x, lx), spec.bit1_step.eval1(ring, x)
    yield spec.main_step.eval2(ring, lx, x), spec.link.eval(ring, spec.bit0_step.eval1(ring, x))


def check_semi_equations(
    spec: LadderSpec, ring: Ring, limit: int = DEFAULT_SWEEP_LIMIT
) -> SweepResult:
    """Verify the three half-coupled ladder equations at every x of the ring.

    For every x: the link commutes with the taken branch, the coupled step
    reproduces the bit-1 update, and the swapped coupled step lands on the
    link of the bit-0 update.  Decided by `_sweep`.
    """
    spec.validate(ring)
    return _sweep(ring, spec, _semi_equations, limit)


def _fully_equations(ring: Ring, spec: LadderSpec, x):
    lx = spec.link.eval(ring, x)
    tx = spec.bit1_step.eval1(ring, x)
    yield spec.sync_step.eval2(ring, tx, lx), spec.link.eval(ring, tx)
    yield spec.main_step.eval2(ring, x, lx), tx
    swapped = spec.main_step.eval2(ring, lx, x)
    ex = spec.bit0_step.eval1(ring, x)
    yield swapped, spec.link.eval(ring, ex)
    yield spec.sync_step.eval2(ring, swapped, x), ex


def check_fully_equations(
    spec: LadderSpec, ring: Ring, limit: int = DEFAULT_SWEEP_LIMIT
) -> SweepResult:
    """Verify the four fully-coupled ladder equations at every x; decided by `_sweep`."""
    spec.validate(ring)
    if spec.sync_step is None:
        raise ValueError("fully check requires a spec with sync_step")
    return _sweep(ring, spec, _fully_equations, limit)


def lift_semi_to_fully(spec: LadderSpec) -> LadderSpec:
    """Embed a half-coupled spec as a fully-coupled one via sync(x, y) = bit0_step(y)."""
    if spec.sync_step is not None:
        raise ValueError("spec already has a sync_step")
    b0 = spec.bit0_step
    sync = Quad2(c02=b0.c20, c01=b0.c10, c00=b0.c00)
    return LadderSpec(spec.bit1_step, spec.bit0_step, spec.link, spec.main_step, sync)


_QUAD_KEYS = ("c20", "c11", "c02", "c10", "c01", "c00")


def spec_to_json(ring: Ring, spec: LadderSpec) -> dict:
    """Flat JSON object of decimal-string coefficients, as consumed by `verify`."""

    def quad(q: Quad2) -> dict:
        return {k: str(ring.reduce(getattr(q, k))) for k in _QUAD_KEYS}

    doc = {
        "n": str(ring.n),
        "theta": quad(spec.bit1_step),
        "eps": quad(spec.bit0_step),
        "ell": {"l1": str(ring.reduce(spec.link.l1)), "l0": str(ring.reduce(spec.link.l0))},
        "f": quad(spec.main_step),
    }
    if spec.sync_step is not None:
        doc["g"] = quad(spec.sync_step)
    return doc


def spec_from_json(doc: dict) -> tuple[Ring, LadderSpec]:
    """Inverse of `spec_to_json`; ValueError naming the field of a malformed document."""

    def num(*path, default=None):
        # a JSON integer or a base-10 string at `path`; quad coefficients and l0 default to 0
        value = doc
        for depth, key in enumerate(path):
            if not isinstance(value, dict):
                raise ValueError(f"spec {'.'.join(path[:depth]) or 'document'} must be an object")
            value = value.get(key, default if depth == len(path) - 1 else None)
        if type(value) is int or isinstance(value, str) and value.removeprefix("-").isdecimal():
            return int(value)
        raise ValueError(f"spec field {'.'.join(path)} must be a base-10 integer, got {value!r}")

    def quad(key):
        return Quad2(**{k: num(key, k, default="0") for k in _QUAD_KEYS})

    return Ring(num("n")), LadderSpec(
        bit1_step=quad("theta"),
        bit0_step=quad("eps"),
        link=Affine1(num("ell", "l1"), num("ell", "l0", default="0")),
        main_step=quad("f"),
        sync_step=quad("g") if "g" in doc else None,
    )
