import os
import random
import subprocess
import sys

import pytest

from ladderlab.attacks import make_ecc_oracle
from ladderlab.errors import InvalidCoefficient, NotOnCurve
from ladderlab import ecc
from ladderlab.ecc import (
    INFINITY,
    TABLE_MAX_P,
    AffineOps,
    Curve,
    Point,
    PointOps,
    curve_order,
    curve_points,
    double_and_add,
    ecc_fully_interleaved,
    ecc_montgomery,
    ecc_semi_interleaved,
    fully_params,
    is_on_curve,
    oracle_ops,
    point_add,
    point_double,
    point_neg,
    random_point,
    run_ecc_algorithm,
    semi_params,
    sqrt_mod_prime,
    _add,
    _dbl,
    _log_table,
    _neg,
)
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace
from ladderlab.modarith import is_probable_prime


class TestGroupLaw:
    def test_identity_and_inverse(self, small_curve):
        curve, A, _ = small_curve
        assert point_add(curve, A, INFINITY) == A
        assert point_add(curve, INFINITY, A) == A
        assert point_add(curve, A, point_neg(curve, A)) == INFINITY

    def test_not_on_curve_rejected(self, small_curve):
        curve, A, _ = small_curve
        bogus = Point(A.x, (A.y + 1) % curve.p)
        if not is_on_curve(curve, bogus):
            with pytest.raises(NotOnCurve):
                point_add(curve, A, bogus)

    def test_results_stay_on_curve(self, small_curve):
        curve, A, _ = small_curve
        rng = random.Random(0)
        P = A
        for _ in range(200):
            Q = random_point(curve, rng)
            P = point_add(curve, P, Q)
            assert is_on_curve(curve, P)

    def test_associativity_spot_check(self, small_curve):
        curve, _, _ = small_curve
        rng = random.Random(1)
        pts = curve_points(curve)
        for _ in range(100):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            lhs = point_add(curve, point_add(curve, P, Q), R)
            rhs = point_add(curve, P, point_add(curve, Q, R))
            assert lhs == rhs

    def test_order_two_points_double_to_infinity(self):
        # y = 0 points exist on curves where x^3+ax+b has a root
        curve = Curve(11, 0, 4)  # x=? 3^3+4 = 31 = 9, try all
        for P in curve_points(curve):
            if P.y == 0:
                assert point_double(curve, P) == INFINITY
                assert point_double(curve, Point(P.x, curve.p)) == INFINITY

    def test_unreduced_twin_is_the_point_it_stands_for(self, small_curve):
        """U = (P.x + p, P.y) adds to P as P does: to 2P, and to -P to give infinity."""
        curve, A, _ = small_curve
        P = double_and_add(curve, 5, A)
        U = Point(P.x + curve.p, P.y)
        assert point_add(curve, U, P) == point_add(curve, P, U) == point_double(curve, P)
        assert point_add(curve, U, point_neg(curve, P)) == INFINITY

    def test_runner_reduces_an_unreduced_start(self, small_curve):
        curve, A, _ = small_curve
        P = double_and_add(curve, 5, A)
        U = Point(P.x + curve.p, P.y)
        trace = Trace()
        out = run_ecc_algorithm("montgomery", curve, A, 0b1011, x0=U, y0=P, trace=trace)
        assert out == run_ecc_algorithm("montgomery", curve, A, 0b1011, x0=P, y0=P)
        assert trace.xs[0] == P


class TestDoubleAndAdd:
    def test_small_scalars(self, small_curve):
        curve, A, _ = small_curve
        assert double_and_add(curve, 0, A) == INFINITY
        assert double_and_add(curve, 1, A) == A
        assert double_and_add(curve, 2, A) == point_double(curve, A)

    def test_against_repeated_addition(self, small_curve):
        curve, A, N = small_curve
        acc = INFINITY
        for k in range(min(N, 60)):
            assert double_and_add(curve, k, A) == acc
            acc = point_add(curve, acc, A)

    def test_generator_order(self, small_curve):
        curve, A, N = small_curve
        assert is_probable_prime(N)
        assert double_and_add(curve, N, A) == INFINITY

    def test_negative_scalar_gives_the_negation(self, small_curve):
        curve, A, N = small_curve
        for k in (1, 2, 7, N - 1, N, N + 3):
            assert double_and_add(curve, -k, A) == point_neg(curve, double_and_add(curve, k, A))


class TestCurveSearch:
    def test_generated_curve_is_verified(self, small_curve):
        curve, A, N = small_curve
        assert curve.subgroup_order == N
        assert 80 <= N <= 200
        assert is_on_curve(curve, A)
        assert curve_order(curve) % N == 0
        assert len(curve_points(curve)) + 1 == curve_order(curve)


class TestSqrt:
    def test_against_brute_force(self):
        for p in (11, 13, 17, 97, 101, 103):
            squares = {}
            for y in range(p):
                squares.setdefault(y * y % p, set()).add(y)
            for a in range(p):
                r = sqrt_mod_prime(a, p)
                if a in squares:
                    assert r in squares[a]
                else:
                    assert r is None


class TestMontgomeryLadder:
    def test_zero_key(self, small_curve):
        curve, A, _ = small_curve
        P, Q = ecc_montgomery(curve, KeyBits((0, 0, 0)), A)
        assert P == INFINITY
        assert Q == A

    def test_against_oracle_with_invariant(self, small_curve):
        curve, A, _ = small_curve
        rng = random.Random(2)
        for _ in range(30):
            k = rng.getrandbits(16)
            trace = Trace()
            P, Q = run_ecc_algorithm("montgomery", curve, A, KeyBits.from_int(k), trace=trace)
            assert P == double_and_add(curve, k, A)
            for px, py in zip(trace.xs, trace.ys):
                assert point_add(curve, py, point_neg(curve, px)) == A


class TestSemiLadder:
    def test_coef_one_is_subtractive_ladder(self, small_curve):
        curve, A, N = small_curve
        params = semi_params(1, N)
        for k in (0, 1, 7, 100):
            assert ecc_semi_interleaved(curve, k, A, params)[0] == double_and_add(curve, k, A)

    def test_fixed_coef_against_oracle(self, small_curve):
        curve, A, N = small_curve
        params = semi_params(3, N)
        rng = random.Random(3)
        for _ in range(25):
            k = rng.getrandbits(12)
            trace = Trace()
            P, Q = run_ecc_algorithm("semi", curve, A, KeyBits.from_int(k),
                                     params=params, trace=trace)
            assert P == double_and_add(curve, k, A)
            for px, py in zip(trace.xs, trace.ys):
                assert py == point_neg(curve, point_add(curve, px, A))

    def test_fresh_coef_against_oracle(self, small_curve):
        curve, A, N = small_curve
        params = semi_params(3, N)
        rng = random.Random(4)
        for _ in range(25):
            k = rng.getrandbits(12)
            P, _ = ecc_semi_interleaved(curve, k, A, params, fresh_coef=True, rng=rng)
            assert P == double_and_add(curve, k, A)

    def test_degenerate_coefs_rejected(self, small_curve):
        _, _, N = small_curve
        for bad in (0, 2, N, N + 2):
            with pytest.raises(InvalidCoefficient):
                semi_params(bad, N)


class TestFullyLadder:
    def test_degenerate_coefs_rejected(self, small_curve):
        _, _, N = small_curve
        for bad in (0, 1, 2):
            with pytest.raises(InvalidCoefficient):
                fully_params(bad, N)

    def test_against_oracle_with_invariant(self, small_curve):
        curve, A, N = small_curve
        params = fully_params(3, N)
        wA = double_and_add(curve, params.link_scale, A)
        rng = random.Random(5)
        for _ in range(25):
            k = rng.getrandbits(12)
            trace = Trace()
            P, Q = run_ecc_algorithm("fully", curve, A, KeyBits.from_int(k),
                                     params=params, trace=trace)
            assert P == double_and_add(curve, k, A)
            for px, py in zip(trace.xs, trace.ys):
                assert point_add(curve, py, point_neg(curve, px)) == wA

    def test_various_coefficients(self, small_curve):
        curve, A, N = small_curve
        for coef in (3, 5, 7, N - 3):
            try:
                params = fully_params(coef, N)
            except InvalidCoefficient:
                continue
            for k in (0, 1, 13, 255):
                assert ecc_fully_interleaved(curve, k, A, params)[0] == double_and_add(curve, k, A)


ALGOS = ("daa", "montgomery", "semi", "fully")


def _params(algo, N):
    return {"semi": semi_params(3, N), "fully": fully_params(3, N)}.get(algo)


def _off_curve(curve, A):
    bogus = Point(A.x, (A.y + 1) % curve.p)
    assert not is_on_curve(curve, bogus)
    return bogus


class TestBoundaryValidation:
    """Every point entering a run is checked, on every algorithm."""

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("where", ("A", "x0", "y0"))
    def test_off_curve_entry_point_rejected(self, small_curve, algo, where):
        curve, A, N = small_curve
        bad = _off_curve(curve, A)
        starts = {} if where == "A" else {where: bad}
        with pytest.raises(NotOnCurve):
            run_ecc_algorithm(algo, curve, bad if where == "A" else A, KeyBits.from_int(0b1011),
                              params=_params(algo, N), **starts)

    @pytest.mark.parametrize("algo", ALGOS[1:])
    @pytest.mark.parametrize("target", ("x", "y"))
    @pytest.mark.parametrize("iteration", (1, 4))
    def test_off_curve_fault_value_rejected(self, small_curve, algo, target, iteration):
        curve, A, N = small_curve
        plan = FaultPlan((RegisterFault(target, iteration, value=_off_curve(curve, A)),))
        with pytest.raises(NotOnCurve):
            run_ecc_algorithm(algo, curve, A, KeyBits.from_int(0b1011),
                              params=_params(algo, N), plan=plan)

    @pytest.mark.parametrize("algo, fresh", [("montgomery", False), ("semi", False),
                                             ("semi", True), ("fully", False)])
    @pytest.mark.parametrize("where", ("A", "x0", "y0", "fault"))
    def test_oracle_rejects_off_curve_points_as_the_runner_does(self, small_curve, algo, fresh,
                                                                 where):
        """The ECC oracle's builds and resumed runs check the points that enter them."""
        curve, A, _ = small_curve
        bad = _off_curve(curve, A)
        if where == "A":
            with pytest.raises(NotOnCurve):
                make_ecc_oracle(algo, curve, bad, 0b1011, fresh_coef=fresh)
            return
        oracle = make_ecc_oracle(algo, curve, A, 0b1011, fresh_coef=fresh)
        oracle.exe()  # keeps the default input's clean run, so a fault resumes from it
        call = {"x0": (bad, None), "y0": (A, bad),
                "fault": (None, None, FaultPlan((RegisterFault("x", 2, value=bad),)))}[where]
        with pytest.raises(NotOnCurve):
            oracle.exe(*call)

    def test_points_are_checked_before_the_run(self, small_curve):
        """An off-curve fault value fails before any coefficient is drawn or the plan validated."""
        curve, A, N = small_curve
        bad = _off_curve(curve, A)
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(NotOnCurve):
            run_ecc_algorithm("semi", curve, A, 0b1011, params=semi_params(3, N), fresh_coef=True,
                              rng=rng, plan=FaultPlan((RegisterFault("x", 3, value=bad),)))
        assert rng.getstate() == state
        past_the_key = FaultPlan((RegisterFault("x", 9, value=bad),))
        with pytest.raises(NotOnCurve):
            run_ecc_algorithm("montgomery", curve, A, 0b1011, plan=past_the_key)
        with pytest.raises(NotOnCurve):
            make_ecc_oracle("montgomery", curve, A, 0b1011).exe(plan=past_the_key)


def test_point_ops_counter(small_curve):
    curve, A, _ = small_curve
    ops = PointOps(curve)
    run_ecc_algorithm("montgomery", curve, A, KeyBits.from_int(0b101), ops=ops)
    # initialization adds once (link), then one add + one double per iteration
    assert ops.doubles == 3
    assert ops.adds == 4
    # a counted run takes the curve's own group: discrete logs on the generated curve
    assert type(ops.enter(A)) is int


def test_random_point_is_on_curve(small_curve):
    curve, _, _ = small_curve
    rng = random.Random(6)
    for _ in range(100):
        assert is_on_curve(curve, random_point(curve, rng))


def _bit_loop(curve, c, P):
    """c*P by the affine double-and-add loop over abs(c), with its (adds, doubles)."""
    if c < 0:
        c, P = -c, _neg(curve, P)
    R, adds, doubles = INFINITY, 0, 0
    for b in bin(c)[2:] if c else "":
        R, doubles = _dbl(curve, R), doubles + 1
        if b == "1":
            R, adds = _add(curve, P, R), adds + 1
    return R, adds, doubles


def _assert_matches_affine(curve, pairs, points, coefs):
    """The curve's own group, `AffineOps` and `PointOps`, each entered and left as points, give
    the affine law's results; `PointOps` tallies each operation, and `cmul` as `_bit_loop` does."""
    ops = PointOps(curve)
    groups = (oracle_ops(curve), AffineOps(curve), ops)
    for P, Q in pairs:
        for g in groups:
            assert g.leave(g.add(g.enter(P), g.enter(Q))) == _add(curve, P, Q), (g, P, Q)
    for P in points:
        for g in groups:
            assert g.leave(g.dbl(g.enter(P))) == _dbl(curve, P), (g, P)
            assert g.leave(g.neg(g.enter(P))) == _neg(curve, P), (g, P)
    assert (ops.adds, ops.doubles) == (len(pairs), len(points))
    for c in coefs:
        for P in points:
            ops.adds = ops.doubles = 0
            R, adds, doubles = _bit_loop(curve, c, P)
            for g in groups:
                assert g.leave(g.cmul(c, g.enter(P))) == R, (g, c, P)
            assert (ops.adds, ops.doubles) == (adds, doubles), (c, P)


class TestLogTable:
    """`LogOps` on a prime-order curve computes on logs; its results must be the affine law's."""

    def test_generated_curve_has_a_table(self, small_curve):
        curve, _, N = small_curve
        table = _log_table(curve)
        mults, log = table.mults, table.log
        assert len(mults) == len(log) == N == len(curve_points(curve)) + 1
        assert set(mults) == set(curve_points(curve)) | {INFINITY}

    def test_every_pair(self, small_curve):
        curve, _, _ = small_curve
        points = [INFINITY] + curve_points(curve)
        _assert_matches_affine(curve, [(P, Q) for P in points for Q in points], points, ())

    def test_every_coefficient(self, small_curve):
        curve, _, N = small_curve
        points = [INFINITY] + curve_points(curve)
        _assert_matches_affine(curve, (), points, range(-2 * N, 2 * N + 1))

    def test_largest_tabulated_field(self):
        curve = Curve(1013, 3, 5)  # group order 1033, prime
        assert curve.p <= TABLE_MAX_P and _log_table(curve) is not None
        rng = random.Random(7)
        points = [INFINITY] + rng.sample(curve_points(curve), 40)
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(400)]
        _assert_matches_affine(curve, pairs, points, (-2067, -1033, -5, 0, 1, 3, 1032, 1034, 4096))

    @pytest.mark.parametrize("curve", [
        Curve(101, 3, 5),  # group order 115 = 5 * 23
        Curve(1033, 1, 1),  # group order 1061, prime, but p > TABLE_MAX_P
    ])
    def test_other_curves_take_the_affine_law(self, curve):
        assert _log_table(curve) is None and type(oracle_ops(curve)) is AffineOps
        rng = random.Random(8)
        points = [INFINITY] + rng.sample(curve_points(curve), 40)
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(400)]
        _assert_matches_affine(curve, pairs, points, (-230, -23, -5, 0, 1, 3, 22, 24, 4096))

    @pytest.mark.parametrize("shift", [(1, 0), (0, -1)])
    def test_unreduced_points_take_the_affine_law(self, small_curve, shift):
        curve, _, _ = small_curve
        p = curve.p
        points = curve_points(curve)
        unreduced = [Point(P.x + shift[0] * p, P.y + shift[1] * p) for P in points]
        assert all(is_on_curve(curve, U) for U in unreduced)
        group = oracle_ops(curve)
        for U, P in zip(unreduced, points):
            # an unreduced point meets the point it stands for and that point's negative
            assert _add(curve, U, P) == _dbl(curve, P) and _add(curve, U, _neg(curve, P)) == INFINITY
            # and enters a run as that point
            assert group.leave(group.enter(U)) == P

    @pytest.mark.parametrize("curve", [
        None,  # find_small_curve(): p = 101, 27 entries past p
        Curve(1013, 3, 5),  # group order 1033, prime; 11 entries past p
    ])
    def test_logs_of_each_x(self, small_curve, curve):
        curve = curve or small_curve[0]
        p, table = curve.p, _log_table(curve)
        assert len(table.by_x) == 1 << p.bit_length()
        for x, logs in enumerate(table.by_x):
            y = sqrt_mod_prime(x**3 + curve.a * x + curve.b, p) if x < p else None
            want = () if y is None else (table.log[Point(x, y)], table.log[Point(x, p - y)])
            assert logs == want, x
        # in curve_points' order, which random_point's root and sign follow
        assert [i for logs in table.by_x for i in logs] == [table.log[P] for P in curve_points(curve)]

    @pytest.mark.parametrize("curve", [None, Curve(1013, 3, 5)])
    def test_draws_are_random_points(self, small_curve, curve):
        curve = curve or small_curve[0]
        table, ours, theirs = _log_table(curve), random.Random(9), random.Random(9)
        for _ in range(500):
            assert table.mults[table.draw(ours)] == random_point(curve, theirs)
        ops = oracle_ops(curve)
        for _ in range(500):
            assert ops.leave(ops.draw(ours)) == random_point(curve, theirs)
        assert ours.getstate() == theirs.getstate()

    def test_no_table_curve_has_a_point_of_order_2(self, small_curve):
        # an odd prime group order has no 2-torsion, so every x on a table curve has two points;
        # Curve(5, 2, 0) has group order 2, its one affine point (0, 0), and no table
        curves = [small_curve[0], Curve(1013, 3, 5)]
        curves += [Curve(p, a, b) for p in (5, 7, 11, 13) for a in range(p) for b in range(p)
                   if (4 * a**3 + 27 * b**2) % p]
        tabulated = [c for c in curves if _log_table(c) is not None]
        assert len(tabulated) == 74 and Curve(5, 2, 0) in curves and Curve(5, 2, 0) not in tabulated
        for curve in tabulated:
            assert all(P.y != 0 for P in curve_points(curve)), curve

    def test_built_on_first_use(self):
        # neither the import nor the curve search pays for a table
        src = os.path.dirname(os.path.dirname(os.path.abspath(ecc.__file__)))
        code = ("import ladderlab.ecc as e; e.find_small_curve(); "
                "print(e._log_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "0"
