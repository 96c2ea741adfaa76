"""Bulk exhaustive verification of the exponentiation ladder families.

These sweeps cover every modulus up to a bound, every base, every mask or
every valid ladder constant, and every ring element, in closed form on
int64 grids (values are reduced after each product, so the widest
intermediate is below n**2); `ladders.check_*_equations` evaluate one spec's
own polynomials over int64 chunks of x, for n up to 2**31, and the tests
cross-check the two routes.  `ConstantTables` is `modexp._suits`'s
predicate in numpy.
"""

from functools import cached_property

import numpy as np

from .ladders import SWEEP_CHUNK


class ConstantTables:
    """The four ladder-constant constraints over every l in [2, n-2], for one n.

    l suits the base a when l != a and l, l^2 - 1 and l^3 - a are units mod n.
    `bases` is an int or an int64 column, broadcast against the row of l.
    """

    def __init__(self, n: int):
        self.n = n
        self.unit = np.gcd(np.arange(n, dtype=np.int64), n) == 1  # indexed by residue
        self.ells = np.arange(2, n - 1, dtype=np.int64)
        self.square = (self.ells * self.ells - 1) % n
        self.cube = self.ells * self.ells % n * self.ells % n

    def constraints(self, bases):
        """Masks of the four constraints, in `residues.REJECTIONS` order."""
        n, ells, unit = self.n, self.ells, self.unit
        return ((ells - bases) % n != 0, unit[ells], unit[self.square],
                unit[(self.cube - bases) % n])

    def suitable(self, bases):
        c0, c1, c2, c3 = self.constraints(bases)
        return c0 & c1 & c2 & c3

    @cached_property
    def inverse(self):
        """pow(v, -1, n) for every unit v, 0 for every other residue."""
        return np.array([pow(v, -1, self.n) if u else 0 for v, u in enumerate(self.unit.tolist())])

    def count_suitable(self) -> tuple[int, int]:
        """(suitable, total) over every base a in [2, n-2] and every l != a in that range."""
        n = self.n
        rows = max(1, SWEEP_CHUNK // (n - 3))
        suitable = 0
        for lo in range(2, n - 1, rows):
            bases = np.arange(lo, min(lo + rows, n - 1), dtype=np.int64)[:, None]
            suitable += int(np.count_nonzero(self.suitable(bases)))
        return suitable, (n - 3) * (n - 4)


def _mod(v, n: int):
    """v % n; int64 floor division by a scalar is about three times faster than np.remainder."""
    return v - v // n * n


def sweep_masked_semi(n_max: int = 200, n_min: int = 2, stop_early: bool = True) -> list:
    """Check the three half-coupled equations for every (n, a, m, x) in range.

    Returns a list of (n, a, m, x, equation) violations, empty when the
    whole family verifies.  The base a runs over nonzero ring elements
    (a = 0 gives a degenerate link and is outside the family).
    """
    failures = []
    for n in range(n_min, n_max + 1):
        xs = np.arange(n, dtype=np.int64)
        ms = np.arange(n, dtype=np.int64)[:, None]
        x2 = xs * xs % n
        for a in range(1, n):
            lx = a * xs % n  # link values
            theta = a * x2 % n
            # equation 1 is mask-free: bit0(link(x)) == link(bit1(x))
            e1 = (lx * lx - a * theta) % n
            if e1.any():
                for x in np.nonzero(e1)[0]:
                    failures.append((n, a, None, int(x), 1))
                if stop_early:
                    return failures
            ma = ms * a % n
            f11 = (1 - ms * ((a * a + 1) % n)) % n
            xy = xs * lx % n  # x * link(x)
            sq_sum = (x2 + lx * lx) % n
            # f(x, lx) and f(lx, x) coincide termwise: both quadratic terms
            # are symmetric, so one grid serves equations 2 and 3
            fval = _mod(ma * sq_sum + f11 * xy, n)
            for eq, grid in ((2, fval != theta), (3, fval != a * x2 % n)):
                if grid.any():
                    for m, x in zip(*np.nonzero(grid)):
                        failures.append((n, a, int(m), int(x), eq))
                    if stop_early:
                        return failures
    return failures


def _valid_constants(tables: ConstantTables, a: int):
    """All valid ladder constants for (a, n) with their four loop coefficients."""
    n, inv = tables.n, tables.inverse
    ok = tables.suitable(a)
    ell, v2 = tables.ells[ok], tables.square[ok]
    v0 = (ell - a) % n
    v3 = (tables.cube[ok] - a) % n
    u2, u3 = inv[v2], inv[v3]
    return (ell, inv[ell] * u2 % n * v3 % n, -v0 * u2 % n,
            a * v2 % n * u3 % n, ell * v0 % n * u3 % n)


def sweep_fully_constants(n_max: int = 200, n_min: int = 7, stop_early: bool = True) -> list:
    """Check the four fully-coupled equations for every (n, a, constant, x) in range.

    Bases run over [2, n-2]; constants over every value passing the four
    suitability constraints.  Returns (n, a, ell, x, equation) violations.
    """
    failures = []
    for n in range(n_min, n_max + 1):
        xs = np.arange(n, dtype=np.int64)
        x2 = xs * xs % n
        tables = ConstantTables(n)
        for a in range(2, n - 1):
            ells, *coefs = _valid_constants(tables, a)
            if not ells.size:
                continue
            L, K0, K1, K2, K3 = (c[:, None] for c in (ells, *coefs))
            theta = a * x2 % n
            lx = _mod(L * xs, n)
            lx2 = _mod(lx * lx, n)
            uv = _mod(xs * lx, n)  # x * link(x), symmetric in the two eval orders
            main_fwd = _mod(K0 * uv + K1 * lx2, n)  # f(x, link(x))
            main_rev = _mod(K0 * uv + K1 * x2, n)  # f(link(x), x)
            e1 = _mod(K2 * lx2 + (K3 - L) * theta, n)
            e2 = main_fwd != theta
            e3 = main_rev != _mod(L * x2, n)
            e4 = _mod(K2 * x2 + K3 * main_rev - x2, n)
            for eq, grid in ((1, e1), (2, e2), (3, e3), (4, e4)):
                if grid.any():
                    for j, x in zip(*np.nonzero(grid)):
                        failures.append((n, a, int(ells[j]), int(x), eq))
                    if stop_early:
                        return failures
    return failures
