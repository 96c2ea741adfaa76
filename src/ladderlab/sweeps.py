"""Bulk exhaustive verification of the exponentiation ladder families.

Both sweeps run on int64 arrays reduced by `_mod` after each product, so
the widest intermediate is below n**2.  x is discharged, not enumerated:
the link is a*x or l*x, so every equation entry is x**2 times its value at
x = 1 mod n, prime or composite, and the x = 1 column decides each (n, a);
the full x grid only lists the violations of the first failing (n, a).
`ladders.check_*_equations` decide a spec by a degree bound instead; the
tests cross-check both routes.
"""

from functools import cached_property

import numpy as np

from .ladders import SWEEP_CHUNK


def _mod(v, n: int):
    """The canonical residue of v in [0, n), for either sign of v, an int64 array or an int.

    n is a scalar, n > 0, and |v| < 2**63 - n; equals np.remainder(v, n) elementwise.
    """
    return v - v // n * n


class ConstantTables:
    """`modexp._suits`'s four ladder-constant constraints over every l in [2, n-2], for one n.

    l suits the base a when l != a and l, l^2 - 1 and l^3 - a are units mod n.
    `bases` is an int or an int64 column, broadcast against the row of l.
    """

    def __init__(self, n: int):
        self.n = n
        self.unit = np.gcd(np.arange(n, dtype=np.int64), n) == 1  # indexed by residue
        self.ells = np.arange(2, n - 1, dtype=np.int64)
        self.square = _mod(self.ells * self.ells - 1, n)
        self.cube = _mod(_mod(self.ells * self.ells, n) * self.ells, n)

    def constraints(self, bases):
        """Masks of the four constraints, in `residues.REJECTIONS` order."""
        n, ells, unit = self.n, self.ells, self.unit
        return (_mod(ells - bases, n) != 0, unit[ells], unit[self.square],
                unit[_mod(self.cube - bases, n)])

    @cached_property
    def inverse(self):
        """pow(v, -1, n) for every unit v, 0 for every other residue."""
        return np.array([pow(v, -1, self.n) if u else 0 for v, u in enumerate(self.unit.tolist())])

    def count_suitable(self) -> tuple[int, int]:
        """(suitable, total) over every base a in [2, n-2] and every l != a in that range.

        Counted per l in W (l, l^2 - 1 units): phi(n) residues a make l^3 - a a unit, less a = 0 and
        a = l always, and a = 1, -1 when l^3 - 1, l^3 + 1 are units; a is never enumerated.
        """
        n, unit = self.n, self.unit
        cubes = self.cube[unit[self.ells] & unit[self.square]]  # l^3 for every l in W
        dropped = np.count_nonzero(unit[_mod(cubes - 1, n)]) + np.count_nonzero(unit[_mod(cubes + 1, n)])
        return cubes.size * (int(np.count_nonzero(unit)) - 2) - int(dropped), (n - 3) * (n - 4)


def _base_chunks(lo: int, hi: int, width: int):
    """int64 columns of the bases in [lo, hi), max(1, SWEEP_CHUNK // width) rows each."""
    rows = max(1, SWEEP_CHUNK // max(1, width))
    return (np.arange(s, min(s + rows, hi), dtype=np.int64)[:, None] for s in range(lo, hi, rows))


def _first_violations(n: int, a: int, grids, rows) -> list:
    """(n, a, row, x, equation) of each failing cell of the first failing grid; rows name its rows."""
    for eq, (grid, names) in enumerate(zip(grids, rows), 1):
        if grid.any():
            return [(n, a, names[j], int(x), eq) for j, x in zip(*np.nonzero(np.atleast_2d(grid)))]
    return []


def _semi_coefficients(n: int, a, m):
    """The mask's loop coefficients (m*a, 1 - m*(a^2 + 1)) mod n."""
    return _mod(m * a, n), _mod(1 - m * _mod(a * a + 1, n), n)


def _semi_grids(n: int, a, m, x):
    """Failure masks of equation 1 and of equations 2 and 3 (one grid), broadcasting a, m and x."""
    x2 = _mod(x * x, n)
    lx = _mod(a * x, n)  # link values
    theta = _mod(a * x2, n)
    # equation 1 is mask-free: bit0(link(x)) == link(bit1(x))
    e1 = _mod(lx * lx - a * theta, n) != 0
    ma, f11 = _semi_coefficients(n, a, m)
    # f(x, lx) and f(lx, x) coincide termwise: both quadratic terms are symmetric, and both right
    # sides are theta (bit1(x) = a*x^2, link(bit0(x)) = a*x^2), so one grid serves equations 2 and 3
    fval = _mod(ma * _mod(x2 + lx * lx, n) + f11 * _mod(x * lx, n), n)
    return e1, fval != theta


def _semi_violations(n: int, a: int) -> list:
    xs = np.arange(n, dtype=np.int64)
    return _first_violations(n, a, _semi_grids(n, a, xs[:, None], xs), ([None], range(n)))


def sweep_masked_semi(n_max: int = 200, n_min: int = 2) -> list:
    """Check the three half-coupled equations for every (n, a, m, x) in range.

    Returns the (n, a, m, x, equation) violations of the first (n, a,
    equation) that fails, empty when the whole family verifies.  The base a
    runs over nonzero ring elements (a = 0 gives a degenerate link and is
    outside the family).
    """
    for n in range(n_min, n_max + 1):
        for bases in _base_chunks(1, n, n):
            e1, e2 = _semi_grids(n, bases, np.arange(n, dtype=np.int64), 1)
            failed = (e1 | e2).any(axis=1)
            if failed.any():
                return _semi_violations(n, int(bases[failed.argmax(), 0]))
    return []


def _valid_constants(tables: ConstantTables, bases):
    """(a, l, loop coefficients) of every valid l of each base (int or int64 column), base-major."""
    n, inv = tables.n, tables.inverse
    c0, c1, c2, c3 = tables.constraints(bases)
    ok = c0 & c1 & c2 & c3
    a, ell, v2, cube = (np.broadcast_to(c, ok.shape)[ok]
                        for c in (bases, tables.ells, tables.square, tables.cube))
    v0, v3 = _mod(ell - a, n), _mod(cube - a, n)
    u2, u3 = inv[v2], inv[v3]
    return (a, ell, _mod(_mod(inv[ell] * u2, n) * v3, n), _mod(-v0 * u2, n),
            _mod(_mod(a * v2, n) * u3, n), _mod(_mod(ell * v0, n) * u3, n))


def _fully_grids(n: int, a, L, K0, K1, K2, K3, x):
    """Failure masks of the four fully-coupled equations, broadcasting a, l, coefficients and x."""
    x2 = _mod(x * x, n)
    theta = _mod(a * x2, n)
    lx = _mod(L * x, n)
    lx2 = _mod(lx * lx, n)
    uv = _mod(x * lx, n)  # x * link(x), symmetric in the two eval orders
    main_fwd = _mod(K0 * uv + K1 * lx2, n)  # f(x, link(x))
    main_rev = _mod(K0 * uv + K1 * x2, n)  # f(link(x), x)
    return (_mod(K2 * lx2 + (K3 - L) * theta, n) != 0, main_fwd != theta,
            main_rev != _mod(L * x2, n), _mod(K2 * x2 + K3 * main_rev - x2, n) != 0)


def _fully_violations(tables: ConstantTables, a: int) -> list:
    _, ells, *coefs = _valid_constants(tables, a)
    xs = np.arange(tables.n, dtype=np.int64)
    grids = _fully_grids(tables.n, a, *(c[:, None] for c in (ells, *coefs)), xs)
    return _first_violations(tables.n, a, grids, [ells.tolist()] * 4)


def sweep_fully_constants(n_max: int = 200, n_min: int = 7) -> list:
    """Check the four fully-coupled equations for every (n, a, constant, x) in range.

    Bases run over [2, n-2]; constants over every value passing the four
    suitability constraints.  Returns the (n, a, ell, x, equation)
    violations of the first (n, a, equation) that fails, empty when the
    whole family verifies.
    """
    for n in range(n_min, n_max + 1):
        tables = ConstantTables(n)
        for bases in _base_chunks(2, n - 1, n - 3):
            a, *cells = _valid_constants(tables, bases)
            failed = np.logical_or.reduce(_fully_grids(n, a, *cells, 1))
            if failed.any():
                return _fully_violations(tables, int(a[failed.argmax()]))
    return []
