"""Short-Weierstrass curves, the affine group law, and scalar-multiplication ladders.

Everything runs on desk-scale curves: affine coordinates, one field
inversion per addition, points enumerable for test oracles.  The ladder
coefficients act on scalars modulo the order of the working subgroup.

`ecc_step` turns each two-register ladder into a per-bit step for
`ladders.drive`, the loop driver the exp ladders share, and
`run_ecc_algorithm` drives it; `ladder_link` defines each ladder's link
map once, for the runner and the CLI.

The public `point_add`/`point_double`/`point_neg` reject points off the
curve.  A runner checks each point where it enters: the base point, the
start registers and every injected fault value (the driver's post-fault
`check`).  The group law inside a run is unchecked, since it maps curve
points to curve points.

`PointOps`, the group law the runners use, looks results up in a
discrete-log table when the whole group has prime order N and p is at
most `TABLE_MAX_P`: every point is then i*G for one generator G, so an
addition is an addition of logs modulo N.  It tallies additions and
doublings exactly as the affine law would, and takes the affine law for
any point outside the table (unreduced coordinates).  `double_and_add`
and `point_add`/`point_double`/`point_neg` always run the affine law, the
independent reference every ladder result is checked against.
"""

import functools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidCoefficient, NotOnCurve
from .faults import FaultPlan
from .ladders import Trace, as_key, drive, start_point
from .modarith import is_probable_prime


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
    if P.x == Q.x:
        if (P.y + Q.y) % p == 0:
            return INFINITY
        return _dbl(curve, P)
    lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - P.x - Q.x) % p
    return Point(x3, (lam * (P.x - x3) - P.y) % p)


def _dbl(curve: Curve, P: Point) -> Point:
    if P.is_infinity or P.y == 0:
        return INFINITY
    p = curve.p
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


def curve_order(curve: Curve) -> int:
    p = curve.p
    count = 1
    for x in range(p):
        rhs = (x * x % p * x + curve.a * x + curve.b) % p
        if rhs == 0:
            count += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            count += 2
    return count


def random_point(curve: Curve, rng: random.Random) -> Point:
    """A uniformly-sampled x with a valid y; used as the fault value for registers."""
    p = curve.p
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + curve.a * x + curve.b) % p
        if rhs == 0:
            return Point(x, 0)
        y = sqrt_mod_prime(rhs, p)
        if y is not None:
            return Point(x, y if rng.getrandbits(1) else p - y)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_small_curve() -> tuple[Curve, Point, int]:
    """Scan for a small curve, from p = 101 up, with a prime-order subgroup in [80, 200].

    Deterministic: returns the first (curve, generator, order) found, verified
    by exhaustive enumeration rather than taken on faith.
    """
    p = 101
    while p < 2000:
        if is_probable_prime(p):
            for b in range(1, 20):
                for a in range(0, 8):
                    if (4 * a**3 + 27 * b**2) % p == 0:
                        continue
                    curve = Curve(p, a, b)
                    order = curve_order(curve)
                    primes = [q for q in _prime_factors(order) if 80 <= q <= 200]
                    if not primes:
                        continue
                    n_sub = max(primes)
                    cofactor = order // n_sub
                    for pt in curve_points(curve):
                        gen = double_and_add(curve, cofactor, pt)
                        if gen.is_infinity:
                            continue
                        if double_and_add(curve, n_sub, gen).is_infinity:
                            return Curve(p, a, b, subgroup_order=n_sub), gen, n_sub
        p += 2
    raise RuntimeError("no suitable small curve found in scan range")


TABLE_MAX_P = 2**10


@functools.lru_cache(maxsize=8)
def _log_table(curve: Curve) -> tuple[list[Point], dict[Point, int]] | None:
    """(mults, log) with mults[i] = i*G and log[mults[i]] = i, G the first affine point.

    None unless p <= TABLE_MAX_P and the group order N is prime, which makes
    G a generator.  O(N) points, built on the first `PointOps` of a curve.
    """
    if curve.p > TABLE_MAX_P:
        return None
    points = curve_points(curve)
    if not is_probable_prime(len(points) + 1):
        return None
    G = points[0]
    mults = [INFINITY, G]
    for _ in range(len(points) - 1):
        mults.append(_add(curve, mults[-1], G))
    return mults, {P: i for i, P in enumerate(mults)}


class PointOps:
    """Point-operation tally used by the runners (adds, doublings).

    The operations do not check their operands: the runner validates the
    points that enter a run, and the group law keeps them on the curve.
    On a curve with a discrete-log table (prime group order, p <= TABLE_MAX_P)
    each operation is one lookup; a point missing from the table, such as
    one with unreduced coordinates, takes the affine law.  The tallies are
    those of the affine law either way: `cmul(c, P)` counts the
    `abs(c).bit_length()` doublings and `abs(c).bit_count()` additions of
    its double-and-add loop.
    """

    def __init__(self, curve: Curve):
        self.curve = curve
        self.adds = 0
        self.doubles = 0
        self._mults, self._log = _log_table(curve) or (None, None)
        self._order = len(self._mults) if self._mults else 0

    def add(self, P: Point, Q: Point) -> Point:
        self.adds += 1
        log = self._log
        if log is not None:
            try:
                return self._mults[(log[P] + log[Q]) % self._order]
            except KeyError:
                pass
        return _add(self.curve, P, Q)

    def dbl(self, P: Point) -> Point:
        self.doubles += 1
        log = self._log
        if log is not None:
            try:
                return self._mults[2 * log[P] % self._order]
            except KeyError:
                pass
        return _dbl(self.curve, P)

    def neg(self, P: Point) -> Point:
        log = self._log
        if log is not None:
            try:
                return self._mults[-log[P] % self._order]
            except KeyError:
                pass
        return _neg(self.curve, P)

    def cmul(self, c: int, P: Point) -> Point:
        """c*P, tallied as the double-and-add loop over the bits of abs(c)."""
        log = self._log
        if log is not None:
            try:
                R = self._mults[c * log[P] % self._order]
            except KeyError:
                pass
            else:
                self.adds += abs(c).bit_count()
                self.doubles += abs(c).bit_length()
                return R
        if c < 0:
            return self.cmul(-c, self.neg(P))
        R = INFINITY
        if c == 0:
            return R
        for b in bin(c)[2:]:
            R = self.dbl(R)
            if b == "1":
                R = self.add(P, R)
        return R


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


def _draw_semi_coef(order: int, rng: random.Random) -> int:
    c = rng.randrange(order)
    while c in (0, 2):
        c = rng.randrange(order)
    return c


def ladder_link(algo: str, ops: PointOps, A: Point, params: EccLadderParams | None = None):
    """(link, B): the map Q = link(P) a ladder keeps between its registers, and its offset B.

    B is A for montgomery (Q = P + A) and semi (Q = -(P + A)), and
    link_scale*A for fully (Q = P + B), computed once with `ops.cmul`.
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
    ops: PointOps | None = None,
    start: tuple | None = None,
) -> tuple[Point, Point | None]:
    """Uniform entry point; NotOnCurve for an off-curve base, start or fault point.

    `start=(i, P, Q)` resumes a run after iteration i with registers
    (P, Q) (Q is None for daa), in place of `x0`/`y0`.  Fault iterations
    and stuck-at thresholds stay absolute, a trace begins at snapshot i,
    and fresh coefficients are drawn only for the iterations that run.
    A plan that acts at or before iteration i is refused with ValueError.
    """
    bits = as_key(key).bits
    i0, x0, y0 = start_point(start, x0, y0, plan, len(bits))
    for R in (A, x0, y0):
        if R is not None:
            _require_on_curve(curve, R)
    if fresh_coef:
        if algo != "semi":
            raise ValueError("fresh coefficients only apply to the half-coupled ladder")
        if rng is None:
            raise ValueError("fresh coefficients need an RNG")
    if plan is not None:
        plan.validate(len(bits))
    ops = ops or PointOps(curve)
    if algo == "daa":
        if plan is not None:
            raise ValueError("the reference double-and-add takes no fault plan")
        add, dbl = ops.add, ops.dbl

        def step(bit, P, _):
            P = dbl(P)
            return (add(A, P) if bit else P), None

        return drive(bits, INFINITY if x0 is None else x0, None, step, trace=trace, i0=i0)

    if algo == "semi" and params is None:
        params = semi_params(3, _need_order(curve))
    step, link = ecc_step(algo, ops, A, params, fresh_coef, rng)
    P = INFINITY if x0 is None else x0
    Q = link(P) if y0 is None else y0
    if trace is not None and trace.ys is None:
        trace.ys = []
    draw, check = _fault_hooks(curve)
    return drive(bits, P, Q, step, plan=plan, draw=draw, check=check, trace=trace, i0=i0)


def ecc_step(algo: str, ops: PointOps, A: Point, params: EccLadderParams | None,
             fresh_coef: bool = False, rng: random.Random | None = None):
    """`(step, link)`: the per-bit step of a two-register ladder on `ops`, and its link map.

    The one builder of ECC ladder steps, for `run_ecc_algorithm` and for the
    ECC oracle, which keeps one step per oracle.  Semi with `fresh_coef`
    draws its coefficient from `rng` on every iteration.
    """
    link, B = ladder_link(algo, ops, A, params)
    add, dbl, neg, cmul = ops.add, ops.dbl, ops.neg, ops.cmul
    if algo == "montgomery":
        def step(bit, P, Q):
            if bit:
                return add(P, Q), dbl(Q)
            Q = add(Q, P)
            return dbl(P), Q
    elif algo == "semi":
        c0, order = params.coef, params.order

        def step(bit, P, Q):
            c = _draw_semi_coef(order, rng) if fresh_coef else c0
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
    return step, link


def _fault_hooks(curve: Curve):
    """`drive`'s `draw` and `check`: a seeded fault's point, and NotOnCurve off the curve."""

    def check(P, Q):
        _require_on_curve(curve, P)
        _require_on_curve(curve, Q)

    return (lambda r: random_point(curve, r)), check


def _need_order(curve: Curve) -> int:
    if curve.subgroup_order is None:
        raise ValueError("curve has no recorded subgroup order")
    return curve.subgroup_order


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
