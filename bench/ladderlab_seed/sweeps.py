"""Bulk exhaustive verification of the exponentiation ladder families.

These sweeps cover every modulus up to a bound, every base, every mask or
every valid ladder constant, and every ring element, which is far too many
evaluations for the scalar checker.  They vectorize the same equations
with int64 arrays (values are reduced after each product, so the widest
intermediate is below n**2) and are cross-checked against the scalar
checker in the test suite.
"""

import math

import numpy as np

from .modarith import eea


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
            fval = (ma * sq_sum + f11 * xy) % n
            e2 = (fval - theta) % n
            e3 = (fval - a * x2 % n) % n
            for eq, grid in ((2, e2), (3, e3)):
                if grid.any():
                    for m, x in zip(*np.nonzero(grid)):
                        failures.append((n, a, int(m), int(x), eq))
                    if stop_early:
                        return failures
    return failures


def _valid_constants(a: int, n: int):
    """All valid ladder constants for (a, n) with their four loop coefficients."""
    ells, k0s, k1s, k2s, k3s = [], [], [], [], []
    for ell in range(2, n - 1):
        if ell == a:
            continue
        v0 = (ell - a) % n
        if v0 == 0 or math.gcd(ell, n) != 1:
            continue
        v2 = (ell * ell - 1) % n
        if math.gcd(v2, n) != 1:
            continue
        v3 = (ell * ell * ell - a) % n
        if math.gcd(v3, n) != 1:
            continue
        u1 = eea(ell % n, n)[1]
        u2 = eea(v2, n)[1]
        u3 = eea(v3, n)[1]
        ells.append(ell)
        k0s.append(u1 * u2 % n * v3 % n)
        k1s.append(-v0 * u2 % n)
        k2s.append(a * v2 % n * u3 % n)
        k3s.append(ell * v0 % n * u3 % n)
    return ells, k0s, k1s, k2s, k3s


def sweep_fully_constants(n_max: int = 200, n_min: int = 7, stop_early: bool = True) -> list:
    """Check the four fully-coupled equations for every (n, a, constant, x) in range.

    Bases run over [2, n-2]; constants over every value passing the four
    suitability constraints.  Returns (n, a, ell, x, equation) violations.
    """
    failures = []
    for n in range(n_min, n_max + 1):
        xs = np.arange(n, dtype=np.int64)
        x2 = xs * xs % n
        for a in range(2, n - 1):
            ells, k0s, k1s, k2s, k3s = _valid_constants(a, n)
            if not ells:
                continue
            L = np.array(ells, dtype=np.int64)[:, None]
            K0 = np.array(k0s, dtype=np.int64)[:, None]
            K1 = np.array(k1s, dtype=np.int64)[:, None]
            K2 = np.array(k2s, dtype=np.int64)[:, None]
            K3 = np.array(k3s, dtype=np.int64)[:, None]
            theta = a * x2 % n
            lx = L * xs % n
            lx2 = lx * lx % n
            uv = xs * lx % n  # x * link(x), symmetric in the two eval orders
            main_fwd = (K0 * uv + K1 * lx2) % n  # f(x, link(x))
            main_rev = (K0 * uv + K1 * x2) % n  # f(link(x), x)
            e1 = (K2 * lx2 + K3 * theta - L * theta) % n
            e2 = (main_fwd - theta) % n
            e3 = (main_rev - L * x2) % n
            e4 = (K2 * x2 + K3 * main_rev - x2) % n
            for eq, grid in ((1, e1), (2, e2), (3, e3), (4, e4)):
                if grid.any():
                    for j, x in zip(*np.nonzero(grid)):
                        failures.append((n, a, ells[int(j)], int(x), eq))
                    if stop_early:
                        return failures
    return failures
