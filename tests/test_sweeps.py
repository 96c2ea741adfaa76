import math
import random

from ladderlab.ladders import check_fully_equations, check_semi_equations
from ladderlab.modarith import Ring
from ladderlab.modexp import _constants_for, fully_ladder_spec, ladder_constants, masked_semi_spec
from ladderlab.sweeps import (
    ConstantTables,
    _valid_constants,
    sweep_fully_constants,
    sweep_masked_semi,
)


def test_small_families_verify():
    assert sweep_masked_semi(40) == []
    assert sweep_fully_constants(40) == []


def test_bulk_sweep_agrees_with_scalar_checker():
    # the vectorized path and the generic per-instance checker are
    # independent routes over the same equations; they must agree
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(2, 80)
        a = rng.randrange(1, n)
        m = rng.randrange(n)
        ring = Ring(n)
        assert check_semi_equations(masked_semi_spec(ring, a, m), ring).ok
    for n in (7, 11, 13, 23):
        ring = Ring(n)
        for a in range(2, n - 1):
            for ell in range(2, n - 1):
                if ell == a:
                    continue
                try:
                    consts = ladder_constants(a, ell, n)
                except Exception:
                    continue
                assert check_fully_equations(fully_ladder_spec(ring, consts), ring).ok


def test_sweep_ranges_are_inclusive():
    # n_min == n_max runs exactly one modulus
    assert sweep_masked_semi(7, n_min=7) == []
    assert sweep_fully_constants(7, n_min=7) == []


def test_constant_tables_match_scalar_predicate():
    # ConstantTables and modexp._constants_for are the two forms of one
    # predicate: same constants, same loop coefficients, for every (n, a)
    for n in range(5, 61):
        tables = ConstantTables(n)
        assert tables.inverse.tolist() == [
            pow(v, -1, n) if math.gcd(v, n) == 1 else 0 for v in range(n)
        ]
        for a in range(2, n - 1):
            want = [c for ell in range(2, n - 1) if (c := _constants_for(a, ell, n, 0)) is not None]
            got = [col.tolist() for col in _valid_constants(tables, a)]
            assert got == [
                [c.constant for c in want],
                [c.xy_coef for c in want],
                [c.sq_coef for c in want],
                [c.sync_sq_coef for c in want],
                [c.sync_x_coef for c in want],
            ], (n, a)


def test_count_suitable_matches_scalar_predicate_across_chunks():
    # n = 139 splits its 136 bases over two chunks of at most 2**14 cells
    for n in (7, 12, 35, 60, 139):
        suitable = sum(
            _constants_for(a, ell, n, 0) is not None
            for a in range(2, n - 1)
            for ell in range(2, n - 1)
            if ell != a
        )
        assert ConstantTables(n).count_suitable() == (suitable, (n - 3) * (n - 4))
