"""Generic two-register ladders over a modular ring.

A secret-dependent loop updates one register x through a unary step per
branch (`bit1_step` when the key bit is 1, `bit0_step` otherwise).  The
two-register rewrites keep a companion register y tied to x through the
affine `link` map: y == link(x) between any two iterations.  In the
half-coupled form each branch updates one register from both values and
the other from itself alone; in the fully-coupled form both registers are
recomputed from both previous values.  `check_semi_equations` and
`check_fully_equations` verify the equation systems that make those
rewrites faithful for every ring element, evaluating the spec's own
polynomials over int64 chunks of x; they refuse any n above 2**31, where a
product of two canonical values could overflow int64, whatever `limit` is.

`drive` is the one loop driver behind every ladder runner: the generic
spec runners here, the five `modexp` variants and the `ecc` ladders each
supply only a per-bit step, and `drive` applies the fault plan, records
snapshots and tallies each iteration's operations.  Ring operations are
counted one way only: the step runs on a `CountingRing`, whose `counts`
the runner hands to `drive`.
"""

from dataclasses import dataclass, field
from itertools import islice

from .errors import DomainTooLarge
from .faults import FaultPlan
from .modarith import Ring

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
    """Secret key as the bit sequence consumed by the loop, bits[0] first.

    `msb_first` records how the sequence maps back to an integer: True
    means bits[0] is the top bit (the order used by all left-to-right
    exponentiation loops here); False means bits are indexed 1..n
    ascending from the low end.
    """

    bits: tuple
    msb_first: bool = True

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
        seq = self.bits if self.msb_first else tuple(reversed(self.bits))
        v = 0
        for b in seq:
            v = (v << 1) | b
        return v

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)


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
        if self.ys is None:
            return [(x, None) for x in self.xs]
        return list(zip(self.xs, self.ys))


def _record(trace, x, y):
    trace.xs.append(x)
    if y is not None:  # a one-register loop keeps trace.ys as None
        trace.ys.append(y)


def drive(bits, x, y, step, *, plan=None, draw=None, check=None, trace=None,
          per_iter=None, counts=None, i0=0):
    """Run `step(bit, x, y) -> (x, y)` once per key bit after iteration `i0`.

    The loop every ladder here shares, exp and ECC alike.  (x, y) are the
    registers after iteration i0 (0 for a whole run; y is None for a
    one-register loop).  Iteration numbers stay absolute: register faults
    are applied just before the iterations they name, `draw(rng)` giving a
    seeded fault's value, and `check(x, y)` sees the registers after them;
    stuck-at faults change the bits the loop consumes, never the key.  With
    `per_iter`, each iteration appends what it added to `counts`, the
    `OpCounts` the step tallies on.
    """
    faulted = ()
    if plan is not None:
        faulted = {f.iteration for f in plan.register_faults}
        bits = plan.effective_bits(bits)
    if trace is not None:
        _record(trace, x, y)
    for i, bit in enumerate(islice(bits, i0, None), i0 + 1):
        if i in faulted:
            x, y = plan.apply(i, x, y, draw)
            if check is not None:
                check(x, y)
            if trace is not None:
                # the boundary snapshot must show what this iteration reads
                trace.xs[-1], trace.ys[-1] = x, y
        if per_iter is None:
            x, y = step(bit, x, y)
        else:
            before = counts.copy()
            x, y = step(bit, x, y)
            per_iter.append(counts - before)
        if trace is not None:
            _record(trace, x, y)
    return x, y


def run_branching(ring: Ring, spec: LadderSpec, key, x_init: int) -> Trace:
    """Run the plain one-register conditional branching; trace of x only."""
    spec.validate(ring)
    ops = CountingRing(ring.n)
    bit1, bit0 = spec.bit1_step, spec.bit0_step

    def step(bit, x, _):
        return (bit1 if bit else bit0).eval1(ops, x), None

    trace = Trace()
    drive(as_key(key).bits, ring.reduce(x_init), None, step, trace=trace, per_iter=trace.ops, counts=ops.counts)
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
    trace = Trace(ys=[])
    drive(bits, x, y, step, plan=plan, draw=lambda rng: rng.randrange(ring.n),
          trace=trace, per_iter=trace.ops, counts=ops.counts)
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
    import numpy as np

    guard = min(limit, INT64_SWEEP_LIMIT)
    if ring.n > guard:
        raise DomainTooLarge(f"sweep over n={ring.n} exceeds guard {guard}")
    # canonical coefficients keep every product below (n-1)**2 < 2**62
    ring, spec = spec_from_json(spec_to_json(ring, spec))
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
    """Exhaustively verify the three half-coupled ladder equations over the ring.

    For every x: the link commutes with the taken branch, the coupled step
    reproduces the bit-1 update, and the swapped coupled step lands on the
    link of the bit-0 update.
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
    """Exhaustively verify the four fully-coupled ladder equations over the ring."""
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
    ring = Ring(int(doc["n"]))

    def quad(block: dict) -> Quad2:
        return Quad2(**{k: int(block.get(k, "0")) for k in _QUAD_KEYS})

    spec = LadderSpec(
        bit1_step=quad(doc["theta"]),
        bit0_step=quad(doc["eps"]),
        link=Affine1(int(doc["ell"]["l1"]), int(doc["ell"].get("l0", "0"))),
        main_step=quad(doc["f"]),
        sync_step=quad(doc["g"]) if "g" in doc else None,
    )
    return ring, spec
