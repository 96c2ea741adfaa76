"""Short-Weierstrass curves, the affine group law, and scalar-multiplication ladders.

Everything runs on desk-scale curves: affine coordinates, points enumerable
for test oracles, ladder coefficients modulo the working subgroup's order.
`double_and_add` and the public `point_add`/`point_double`/`point_neg`
check their points and run the affine law.  Inside a ladder run no point
is checked, and its outputs and trace snapshots leave it as points.

One rule picks the group a ladder run takes: the curve's own group,
`oracle_ops(curve)`, counted or not; a counted run passes a `PointOps`
tally over it.
"""

import functools
import math
import random
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import InvalidCoefficient, NotOnCurve
from .faults import FaultPlan
from .ladders import Target, Trace, as_key, drive
from .modarith import _below, is_probable_prime


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b over the prime field F_p, p > 3."""

    p: int
    a: int
    b: int
    subgroup_order: int | None = None

    def __post_init__(self):
        if self.p <= 3 or not is_probable_prime(self.p):
            raise ValueError("field characteristic must be a prime > 3")
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")


class Point(NamedTuple):
    """An affine point, or the point at infinity when x is None."""

    x: int | None = None
    y: int | None = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point()


def is_on_curve(curve: Curve, P: Point) -> bool:
    if P.is_infinity:
        return True
    p = curve.p
    return (P.y * P.y - (P.x * P.x % p * P.x + curve.a * P.x + curve.b)) % p == 0


def _require_on_curve(curve: Curve, P: Point) -> None:
    if not is_on_curve(curve, P):
        raise NotOnCurve(f"{P} is not on the curve")


def _reduced(curve: Curve, P: Point) -> Point:
    """P checked on the curve, with its coordinates reduced mod p."""
    _require_on_curve(curve, P)
    return P if P.is_infinity else Point(P.x % curve.p, P.y % curve.p)


def _neg(curve: Curve, P: Point) -> Point:
    if P.is_infinity:
        return P
    return Point(P.x, (-P.y) % curve.p)


def _add(curve: Curve, P: Point, Q: Point) -> Point:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    p = curve.p
    if (P.x - Q.x) % p == 0:
        if (P.y + Q.y) % p == 0:
            return INFINITY
        return _dbl(curve, P)
    lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - P.x - Q.x) % p
    return Point(x3, (lam * (P.x - x3) - P.y) % p)


def _dbl(curve: Curve, P: Point) -> Point:
    p = curve.p
    if P.is_infinity or P.y % p == 0:
        return INFINITY
    lam = (3 * P.x * P.x + curve.a) * pow(2 * P.y, -1, p) % p
    x3 = (lam * lam - 2 * P.x) % p
    return Point(x3, (lam * (P.x - x3) - P.y) % p)


def point_neg(curve: Curve, P: Point) -> Point:
    _require_on_curve(curve, P)
    return _neg(curve, P)


def point_add(curve: Curve, P: Point, Q: Point) -> Point:
    _require_on_curve(curve, P)
    _require_on_curve(curve, Q)
    return _add(curve, P, Q)


def point_double(curve: Curve, P: Point) -> Point:
    _require_on_curve(curve, P)
    return _dbl(curve, P)


def double_and_add(curve: Curve, k, A: Point) -> Point:
    """Left-to-right scalar multiplication k*A; the oracle for every ladder here."""
    _require_on_curve(curve, A)
    if isinstance(k, int) and k < 0:
        k, A = -k, _neg(curve, A)
    P = INFINITY
    for b in as_key(k).bits:
        P = _dbl(curve, P)
        if b:
            P = _add(curve, A, P)
    return P


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root modulo an odd prime; None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def curve_points(curve: Curve) -> list[Point]:
    """All affine points; the group order is len(result) + 1."""
    pts = []
    p = curve.p
    for x in range(p):
        rhs = (x * x % p * x + curve.a * x + curve.b) % p
        if rhs == 0:
            pts.append(Point(x, 0))
            continue
        y = sqrt_mod_prime(rhs, p)
        if y is not None:
            pts.append(Point(x, y))
            pts.append(Point(x, p - y))
    return pts


def random_point(curve: Curve, rng: random.Random) -> Point:
    """A uniformly-sampled x with a valid y, by Tonelli-Shanks; a seeded fault's value."""
    p = curve.p
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + curve.a * x + curve.b) % p
        if rhs == 0:
            return Point(x, 0)
        y = sqrt_mod_prime(rhs, p)
        if y is not None:
            return Point(x, y if rng.getrandbits(1) else p - y)


def find_small_curve() -> tuple[Curve, Point, int]:
    """The attack curve, its generator and their order: y^2 = x^3 + 7x + 4 over F_101.

    The group has prime order 97, so every affine point, (0, 99) among them,
    generates it; the tests check the order by enumerating the points.
    """
    return Curve(101, 7, 4, subgroup_order=97), Point(0, 99), 97


TABLE_MAX_P = 2**10


@functools.lru_cache(maxsize=8)
def _log_table(curve: Curve) -> "LogOps | None":
    """The curve's `LogOps` (O(N) points), built on the first `oracle_ops` of the curve.

    None unless p <= TABLE_MAX_P and the group order N is an odd prime: then
    any affine point generates the group and no point has order 2 (y = 0),
    so each x on the curve has two points.  One `LogOps` serves every run
    on the curve; it holds no per-run state.
    """
    if curve.p > TABLE_MAX_P:
        return None
    points = curve_points(curve)
    N = len(points) + 1
    if N == 2 or not is_probable_prime(N):
        return None
    return LogOps(curve, points)


class AffineOps:
    """The affine group law on points: the group of a curve without a log table."""

    def __init__(self, curve: Curve):
        self.curve = curve

    def enter(self, P: Point) -> Point:
        return _reduced(self.curve, P)

    def draw(self, rng: random.Random) -> Point:
        return random_point(self.curve, rng)

    def leave(self, P: Point) -> Point:
        return P

    def add(self, P: Point, Q: Point) -> Point:
        return _add(self.curve, P, Q)

    def dbl(self, P: Point) -> Point:
        return _dbl(self.curve, P)

    def neg(self, P: Point) -> Point:
        return _neg(self.curve, P)

    def cmul(self, c: int, P: Point) -> Point:
        if c < 0:
            c, P = -c, self.neg(P)
        R = INFINITY
        for b in bin(c)[2:]:
            R = self.dbl(R)
            if b == "1":
                R = self.add(P, R)
        return R


class LogOps:
    """The group of a curve with a log table as discrete logs: the int i stands for i*G.

    G is the curve's first affine point, `mults[i]` is i*G and `log` its
    inverse.  Each operation is one integer operation mod N.  `enter`
    checks a point as `AffineOps.enter` does and gives its log.
    """

    def __init__(self, curve: Curve, points: list[Point]):
        self.curve = curve
        G = points[0]
        self.mults = mults = [INFINITY, G]
        for _ in range(len(points) - 1):
            mults.append(_add(curve, mults[-1], G))
        self.log = log = {P: i for i, P in enumerate(mults)}
        self.order = len(mults)
        self.leave = mults.__getitem__  # a log back to its point
        self.bits = curve.p.bit_length()
        # by_x[x]: the logs of (x, y) and (x, p - y), y as sqrt_mod_prime's root; curve_points
        # gives them in that order
        self.by_x = by_x = [()] * (1 << self.bits)
        for P, Q in zip(points[::2], points[1::2]):
            by_x[P.x] = log[P], log[Q]

    def draw(self, rng: random.Random) -> int:
        """The log of `random_point(curve, rng)`, by the same calls on rng and no square root.

        `getrandbits(k)`, k = p.bit_length(), redrawn where `by_x` is empty
        (at x >= p, as `randrange(p)` redraws, and at x with no point),
        then `getrandbits(1)` for the sign.
        """
        by_x, k, getrandbits = self.by_x, self.bits, rng.getrandbits
        while True:
            logs = by_x[getrandbits(k)]
            if logs:
                return logs[0] if getrandbits(1) else logs[1]

    def enter(self, P: Point) -> int:
        # the table holds exactly the reduced curve points, so a hit is the on-curve check
        log = self.log.get(P)
        return self.log[_reduced(self.curve, P)] if log is None else log

    def add(self, P: int, Q: int) -> int:
        return (P + Q) % self.order

    def dbl(self, P: int) -> int:
        return 2 * P % self.order

    def neg(self, P: int) -> int:
        return -P % self.order

    def cmul(self, c: int, P: int) -> int:
        return c * P % self.order


def oracle_ops(curve: Curve) -> LogOps | AffineOps:
    """The curve's own group: `LogOps` with a log table, else `AffineOps`."""
    return _log_table(curve) or AffineOps(curve)


class PointOps:
    """Counts `adds` and `doubles` while `oracle_ops(curve)` does each operation.

    `cmul(c, P)` counts what the double-and-add loop over abs(c) runs.
    """

    def __init__(self, curve: Curve):
        self.curve = curve
        self.adds = 0
        self.doubles = 0
        self.group = group = oracle_ops(curve)
        self.enter, self.draw, self.leave, self.neg = group.enter, group.draw, group.leave, group.neg

    def add(self, P, Q):
        self.adds += 1
        return self.group.add(P, Q)

    def dbl(self, P):
        self.doubles += 1
        return self.group.dbl(P)

    def cmul(self, c: int, P):
        self.doubles += abs(c).bit_length()
        self.adds += abs(c).bit_count()
        return self.group.cmul(c, P)


def enter_run(ops, x0: Point | None, y0: Point | None, plan: FaultPlan | None):
    """(x0, y0, plan) as `ops` holds points, each entered once by `ops.enter`.

    Both ECC routes, `run_ecc_algorithm` and the oracle, enter the start
    registers and every explicit fault value here, before the run: each
    is checked on the curve (`NotOnCurve`) and becomes a reduced point, or
    its log.  None stays None, and a seeded fault stays seeded.
    """
    enter = ops.enter
    if plan is not None and any(f.value is not None for f in plan.register_faults):
        plan = replace(plan, register_faults=tuple(
            f if f.value is None else replace(f, value=enter(f.value)) for f in plan.register_faults
        ))
    return None if x0 is None else enter(x0), None if y0 is None else enter(y0), plan


@dataclass(frozen=True)
class EccLadderParams:
    """Ladder coefficient and its derived scalars, all modulo the subgroup order."""

    coef: int
    order: int
    link_scale: int | None = None  # (3 - 2*coef)^-1, fully-coupled case only
    coef_inv: int | None = None


def semi_params(coef: int, order: int) -> EccLadderParams:
    c = coef % order
    if c in (0, 2):
        raise InvalidCoefficient("coefficient must avoid 0 and 2 modulo the order")
    return EccLadderParams(coef=c, order=order)


def fully_params(coef: int, order: int) -> EccLadderParams:
    c = coef % order
    if c in (0, 1, 2):
        raise InvalidCoefficient("coefficient must avoid 0, 1 and 2 modulo the order")
    if math.gcd(c, order) != 1:
        raise InvalidCoefficient("coefficient must be invertible modulo the order")
    d = (3 - 2 * c) % order
    if math.gcd(d, order) != 1:
        raise InvalidCoefficient("3 - 2*coef must be invertible modulo the order")
    return EccLadderParams(
        coef=c, order=order, link_scale=pow(d, -1, order), coef_inv=pow(c, -1, order)
    )


def _semi_coef(order: int, rng: random.Random):
    """Semi's fresh-coefficient draw: `rng.randrange(order)` redrawn on 0 and 2."""
    below = _below(order, rng)

    def coef():
        c = below()
        while c == 0 or c == 2:
            c = below()
        return c

    return coef


def ladder_link(algo: str, ops: AffineOps | LogOps | PointOps, A, params: EccLadderParams | None = None):
    """(link, B): the map Q = link(P) a ladder keeps between its registers, and its offset B.

    B is A for montgomery (Q = P + A) and semi (Q = -(P + A)), and
    link_scale*A for fully (Q = P + B), computed once with `ops.cmul`.
    A, P and B are elements of `ops`.
    """
    if algo == "montgomery":
        return (lambda P: ops.add(P, A)), A
    if algo == "semi":
        return (lambda P: ops.neg(ops.add(P, A))), A
    if algo == "fully":
        if params is None or params.link_scale is None:
            raise InvalidCoefficient("fully-coupled ladder needs fully_params(...)")
        B = ops.cmul(params.link_scale, A)
        return (lambda P: ops.add(P, B)), B
    raise ValueError(f"unknown algorithm {algo!r}")


def run_ecc_algorithm(
    algo: str,
    curve: Curve,
    A: Point,
    key,
    *,
    params: EccLadderParams | None = None,
    fresh_coef: bool = False,
    rng: random.Random | None = None,
    x0: Point | None = None,
    y0: Point | None = None,
    plan: FaultPlan | None = None,
    trace: Trace | None = None,
    ops: AffineOps | LogOps | PointOps | None = None,
) -> tuple[Point, Point | None]:
    """Uniform entry point; NotOnCurve for an off-curve base, start or fault point.

    `ops` defaults to `oracle_ops(curve)`.
    """
    bits = as_key(key).bits
    ops = ops or oracle_ops(curve)
    x0, y0, plan = enter_run(ops, x0, y0, plan)
    if plan is not None:  # after the points, as in the oracle
        plan.validate(len(bits))
    t = ecc_step(algo, ops, ops.enter(A), params, fresh_coef, rng, x0=x0, y0=y0, plan=plan)
    x, y = drive(bits, t.x, t.y, t.step, plan=t.plan, draw=t.draw, trace=trace)
    leave = ops.leave
    if trace is not None:
        trace.xs[:] = map(leave, trace.xs)
        if y is not None:
            trace.ys[:] = map(leave, trace.ys)
    return leave(x), None if y is None else leave(y)


def ecc_step(algo: str, ops, A, params: EccLadderParams | None = None,
             fresh_coef: bool = False, rng: random.Random | None = None, *,
             x0=None, y0=None, plan: FaultPlan | None = None) -> Target:
    """`algo`'s per-bit step over the group `ops`, its start registers and `plan`, as one `Target`.

    The one builder of ECC ladder steps, for `run_ecc_algorithm` and the
    ECC oracle.  A, x0, y0 and the plan's explicit fault values are already
    elements of `ops` (`enter_run`).  y0 defaults to the ladder's link of
    x0 (the point at infinity by default).  Semi's coefficient defaults to
    3; with `fresh_coef` it is drawn from `rng` on every iteration, and
    that draw is `fresh`.  Only a fixed-coefficient step on a `LogOps`
    itself gets a `tail` (`_affine_tail`), so a counted run drives every step.
    """
    curve = ops.curve
    if fresh_coef:
        if algo != "semi":
            raise ValueError("fresh coefficients only apply to the half-coupled ladder")
        if rng is None:
            raise ValueError("fresh coefficients need an RNG")
    P = ops.enter(INFINITY) if x0 is None else x0
    add, dbl, neg, cmul = ops.add, ops.dbl, ops.neg, ops.cmul
    if algo == "daa":
        if plan is not None:
            raise ValueError("the reference double-and-add takes no fault plan")

        def step(bit, P, _):
            P = dbl(P)
            return (add(A, P) if bit else P), None

        return Target(step, P, None, None, None)
    if algo == "semi" and params is None:
        if curve.subgroup_order is None:
            raise ValueError("curve has no recorded subgroup order")
        params = semi_params(3, curve.subgroup_order)
    link, B = ladder_link(algo, ops, A, params)
    coef = _semi_coef(params.order, rng) if fresh_coef else None
    if algo == "montgomery":
        def step(bit, P, Q):
            if bit:
                return add(P, Q), dbl(Q)
            Q = add(Q, P)
            return dbl(P), Q
    elif algo == "semi":
        c0 = params.coef

        def step(bit, P, Q):
            c = coef() if fresh_coef else c0
            if not bit:  # a 0 bit runs the same body with the registers' roles swapped
                P, Q = Q, P
            t = cmul(c, add(add(P, Q), A))
            P = add(t, neg(add(dbl(Q), A)))
            Q = dbl(Q)
            return (P, Q) if bit else (Q, P)
    else:
        c0, c1 = params.coef, params.coef_inv

        def step(bit, P, Q):
            if not bit:  # a 0 bit runs the same body with the registers' roles swapped
                P, Q = Q, P
            t = cmul(c0, add(add(P, neg(Q)), neg(B)))
            P = add(add(t, dbl(Q)), B)
            s = cmul(c1, add(add(neg(P), dbl(Q)), B))
            Q = add(add(P, s), neg(B))
            return (P, Q) if bit else (Q, P)

    # on logs every step is affine in (P, Q); a fresh coefficient would have to replay its draws
    tail = _affine_tail(step, ops.order) if isinstance(ops, LogOps) and not fresh_coef else None
    return Target(step, P, link(P) if y0 is None else y0, plan, ops.draw, fresh=coef, tail=tail)


def _affine_tail(step, N: int):
    """`Target.tail` of a step on logs mod N: k steps on one bit as one affine map.

    Each step is `add`, `dbl`, `neg` and `cmul` mod N of P, Q and the
    constant A (or B), so bit b's step is (P, Q) -> M_b (P, Q) + v_b.  It
    is read off the step itself at (0, 0), (1, 0) and (0, 1); the maps of
    k steps, as (m11, m12, m21, m22, v1, v2), are composed on first use.
    """
    powers = ([], [])

    def tail(bit, k, x, y):
        maps = powers[bit]
        if not maps:
            v1, v2 = step(bit, 0, 0)
            p1, q1 = step(bit, 1, 0)
            p2, q2 = step(bit, 0, 1)
            maps += [(1, 0, 0, 1, 0, 0),
                     ((p1 - v1) % N, (p2 - v1) % N, (q1 - v2) % N, (q2 - v2) % N, v1, v2)]
        while len(maps) <= k:  # one more step after the last map
            a, b, c, d, e, f = maps[1]
            m11, m12, m21, m22, v1, v2 = maps[-1]
            maps.append(((a * m11 + b * m21) % N, (a * m12 + b * m22) % N,
                         (c * m11 + d * m21) % N, (c * m12 + d * m22) % N,
                         (a * v1 + b * v2 + e) % N, (c * v1 + d * v2 + f) % N))
        m11, m12, m21, m22, v1, v2 = maps[k]
        return (m11 * x + m12 * y + v1) % N, (m21 * x + m22 * y + v2) % N

    return tail


def ecc_montgomery(curve: Curve, k, A: Point) -> tuple[Point, Point]:
    """Two-register ladder with Q - P = A at every snapshot; returns (kA, kA + A)."""
    return run_ecc_algorithm("montgomery", curve, A, k)


def ecc_semi_interleaved(
    curve: Curve,
    k,
    A: Point,
    params: EccLadderParams,
    fresh_coef: bool = False,
    rng: random.Random | None = None,
) -> tuple[Point, Point]:
    """Half-coupled ladder with Q = -(P + A); the coefficient may be redrawn per iteration."""
    return run_ecc_algorithm(
        "semi", curve, A, k, params=params, fresh_coef=fresh_coef, rng=rng
    )


def ecc_fully_interleaved(
    curve: Curve, k, A: Point, params: EccLadderParams
) -> tuple[Point, Point]:
    """Fully-coupled ladder with Q = P + link_scale*A at every snapshot."""
    return run_ecc_algorithm("fully", curve, A, k, params=params)
