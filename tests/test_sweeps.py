import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderlab import sweeps
from ladderlab.ladders import DEFAULT_SWEEP_LIMIT, check_fully_equations, check_semi_equations
from ladderlab.modarith import Ring
from ladderlab.modexp import _constants_for, fully_ladder_spec, ladder_constants, masked_semi_spec
from ladderlab.sweeps import (
    ConstantTables,
    _fully_grids,
    _fully_violations,
    _semi_grids,
    _semi_violations,
    _valid_constants,
    sweep_fully_constants,
    sweep_masked_semi,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2**62 - 1), st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=16))
@example(DEFAULT_SWEEP_LIMIT, [-1])
@example(DEFAULT_SWEEP_LIMIT, [-DEFAULT_SWEEP_LIMIT])
@example(DEFAULT_SWEEP_LIMIT, [DEFAULT_SWEEP_LIMIT**2 - 1])
def test_mod_is_the_canonical_residue(n, values):
    # the kernels reduce negative entries (l - a, -v0 * u2, 1 - m * ...) and int64 products
    # below n^2; x = 1 reaches them as a Python int
    v = np.array(values, dtype=np.int64)
    assert sweeps._mod(v, n).tolist() == np.remainder(v, n).tolist()
    assert [sweeps._mod(x, n) for x in values] == [x % n for x in values]


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
            got = [col.tolist() for col in _valid_constants(tables, a)[1:]]
            assert got == [
                [c.constant for c in want],
                [c.xy_coef for c in want],
                [c.sq_coef for c in want],
                [c.sync_sq_coef for c in want],
                [c.sync_x_coef for c in want],
            ], (n, a)
        # a column of bases gives the same cells, base-major
        column = _valid_constants(tables, np.arange(2, n - 1, dtype=np.int64)[:, None])
        per_base = [_valid_constants(tables, a) for a in range(2, n - 1)]
        for j, col in enumerate(column):
            assert col.tolist() == [v for cells in per_base for v in cells[j].tolist()], (n, j)


def test_count_suitable_matches_scalar_predicate_across_chunks():
    # the census counts per l in closed form; n = 12, 35 and 60 are composite, where
    # l^3 - 1 and l^3 + 1 can miss being units through one prime factor alone
    for n in (7, 12, 35, 60, 139):
        suitable = sum(
            _constants_for(a, ell, n, 0) is not None
            for a in range(2, n - 1)
            for ell in range(2, n - 1)
            if ell != a
        )
        assert ConstantTables(n).count_suitable() == (suitable, (n - 3) * (n - 4))


def _enumerated_count(n):
    """(suitable, total) by evaluating every (a, l) cell, base chunk by base chunk."""
    tables = ConstantTables(n)
    suitable = 0
    for bases in sweeps._base_chunks(2, n - 1, n - 3):
        c0, c1, c2, c3 = tables.constraints(bases)
        suitable += int(np.count_nonzero(c0 & c1 & c2 & c3))
    return suitable, (n - 3) * (n - 4)


def test_count_suitable_equals_cell_enumeration():
    # the closed form drops a = 0, l, 1 and -1 from the phi(n) bases of each l;
    # enumeration checks it on every small n and every modulus pq of criterion 6
    primes = [p for p in range(2, 48) if all(p % d for d in range(2, p))]
    moduli = [p * q for i, p in enumerate(primes) for q in primes[i + 1:] if p * q >= 35]
    assert len(moduli) == 96 and max(moduli) == 43 * 47
    for n in [*range(7, 400), *moduli]:
        assert ConstantTables(n).count_suitable() == _enumerated_count(n), n


def _full_grid_sweeps(n_max, semi_min=2, fully_min=7):
    """The two sweeps' results, read off the full x grid of every (n, a) in turn."""
    semi = ((n, a) for n in range(semi_min, n_max + 1) for a in range(1, n))
    fully = ((tables, a) for tables in map(ConstantTables, range(fully_min, n_max + 1))
             for a in range(2, tables.n - 1))
    return (next(filter(None, (_semi_violations(*case) for case in semi)), []),
            next(filter(None, (_fully_violations(*case) for case in fully)), []))


@pytest.fixture(params=[
    (60, None, None),
    # equation 2 fails first
    (30, lambda n, a, ell, k0, k1, k2, k3: (k0, (k1 + 1) % n, k2, k3), {2}),
    # equation 1 still holds; equation 4 moves by l^3 - a, a unit
    (30, lambda n, a, ell, k0, k1, k2, k3: (k0, k1, (k2 - a) % n, (k3 + ell * ell) % n), {4}),
], ids=["clean", "broken-sq-coef", "broken-sync-coefs"])
def coefficients(request, monkeypatch):
    """(n_max, equations the fully sweep fails on) with the case's coefficient helpers installed.

    Both routes read their loop coefficients from one helper each, so a
    broken formula reaches both.
    """
    n_max, break_fully, failing = request.param
    if break_fully:
        semi_coefficients, valid_constants = sweeps._semi_coefficients, sweeps._valid_constants

        def broken_semi(n, a, m):
            ma, f11 = semi_coefficients(n, a, m)
            return ma, (f11 + m) % n

        def broken_fully(tables, bases):
            a, ell, *coefs = valid_constants(tables, bases)
            return a, ell, *break_fully(tables.n, a, ell, *coefs)

        monkeypatch.setattr(sweeps, "_semi_coefficients", broken_semi)
        monkeypatch.setattr(sweeps, "_valid_constants", broken_fully)
    return n_max, failing


def test_unit_column_decides_every_base(coefficients):
    # every entry is x^2 times its x = 1 value, so the x = 1 verdict of each
    # (n, a, equation) is its full grid's verdict
    n_max, _ = coefficients
    for n in range(2, n_max + 1):
        xs = np.arange(n, dtype=np.int64)
        bases = np.arange(1, n, dtype=np.int64)[:, None]
        column = [g.reshape(n - 1, -1).any(axis=1) for g in _semi_grids(n, bases, xs, 1)]
        for a in range(1, n):
            full = [g.any() for g in _semi_grids(n, a, xs[:, None], xs)]
            assert [bool(c[a - 1]) for c in column] == full, (n, a)
        if n < 5:
            continue
        tables = ConstantTables(n)
        owner, *cells = sweeps._valid_constants(tables, bases[1:-1])
        column = _fully_grids(n, owner, *cells, 1)
        for a in range(2, n - 1):
            _, *consts = sweeps._valid_constants(tables, a)
            full = [g.any() for g in _fully_grids(n, a, *(c[:, None] for c in consts), xs)]
            assert [bool(c[owner == a].any()) for c in column] == full, (n, a)


def test_unit_column_and_full_grid_give_the_same_lists(coefficients):
    n_max, failing = coefficients
    for n in range(2, n_max + 1):
        assert (sweep_masked_semi(n, n), sweep_fully_constants(n, n)) == _full_grid_sweeps(n, n, n)
    if failing:
        semi, fully = _full_grid_sweeps(n_max)
        assert semi and {v[4] for v in fully} == failing
        assert (sweep_masked_semi(n_max), sweep_fully_constants(n_max)) == (semi, fully)
