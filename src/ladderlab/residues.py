"""Counting suitable ladder constants and r-th power residues, exactly.

All probabilities are exact rationals; nothing here goes through floats.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainTooLarge, NotCoprime
from .modarith import is_probable_prime

SWEEP_LIMIT = 2**20


def _require_prime(p: int, who: str) -> None:
    if not is_probable_prime(p):
        raise ValueError(f"{who} must be prime, got {p}")


def is_rth_residue(a: int, p: int, r: int = 3) -> bool:
    """Whether a is an r-th power modulo the prime p, by the Euler-style criterion."""
    _require_prime(p, "p")
    a = a % p
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"{a} is not a unit modulo {p}")
    b = math.gcd(p - 1, r)
    return pow(a, (p - 1) // b, p) == 1


@dataclass(frozen=True)
class GaussCensus:
    p: int
    r: int
    b: int  # gcd(p-1, r)
    residue_count: int
    roots_per_residue: dict  # residue -> number of r-th roots


def gauss_residue_census(p: int, r: int = 3, limit: int = SWEEP_LIMIT) -> GaussCensus:
    """Exhaustive census of r-th power residues modulo p and their root counts."""
    _require_prime(p, "p")
    if p > limit:
        raise DomainTooLarge(f"census over p={p} exceeds guard {limit}")
    roots: dict[int, int] = {}
    for ell in range(1, p):
        roots[pow(ell, r, p)] = roots.get(pow(ell, r, p), 0) + 1
    return GaussCensus(p, r, math.gcd(p - 1, r), len(roots), roots)


REJECTIONS = ("equals_base", "not_unit", "square_not_unit", "cube_not_unit")


@dataclass(frozen=True)
class ConstantCensus:
    """Exact suitability counts for ladder constants in [2, n-2] minus {a}."""

    n: int
    a: int
    total: int
    suitable: int
    rejected: dict  # reason -> count, mutually exclusive in REJECTIONS order

    def frequency(self) -> Fraction:
        return Fraction(self.suitable, self.total)


def census_suitable_constants(a: int, n: int, limit: int = SWEEP_LIMIT) -> ConstantCensus:
    """Sweep every candidate constant and classify it by the first failed constraint."""
    if n < 7:
        raise ValueError("need n >= 7")
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    if n > limit:
        raise DomainTooLarge(f"census over n={n} exceeds guard {limit}")
    rejected = dict.fromkeys(REJECTIONS, 0)
    suitable = 0
    for ell in range(2, n - 1):
        if ell == a:
            continue
        if (ell - a) % n == 0:
            rejected["equals_base"] += 1
        elif math.gcd(ell, n) != 1:
            rejected["not_unit"] += 1
        elif math.gcd(ell * ell - 1, n) != 1:
            rejected["square_not_unit"] += 1
        elif math.gcd(ell * ell * ell - a, n) != 1:
            rejected["cube_not_unit"] += 1
        else:
            suitable += 1
    return ConstantCensus(n=n, a=a, total=n - 4, suitable=suitable, rejected=rejected)


def dsa_probability_formula(n: int) -> Fraction:
    """Exact probability that a random constant suits a random base, prime modulus.

    Equals 1 - 1/(n-4) + 2(b-1)/((n-3)(n-4)) with b = gcd(n-1, 3).
    """
    _require_prime(n, "n")
    if n < 7:
        raise ValueError("need a prime n >= 7")
    b = math.gcd(n - 1, 3)
    return Fraction(1) - Fraction(1, n - 4) + Fraction(2 * (b - 1), (n - 3) * (n - 4))


def dsa_exhaustive_counts(n: int, limit: int = SWEEP_LIMIT) -> tuple[int, int]:
    """(suitable, total) census sums over every base a in [2, n-2], unreduced."""
    _require_prime(n, "n")
    if n < 7:
        raise ValueError("need a prime n >= 7")
    suitable = 0
    total = 0
    for a in range(2, n - 1):
        c = census_suitable_constants(a, n, limit)
        suitable += c.suitable
        total += c.total
    return suitable, total


def dsa_exhaustive_ratio(n: int, limit: int = SWEEP_LIMIT) -> Fraction:
    """Census ratio over every base a in [2, n-2]; must equal the closed formula."""
    suitable, total = dsa_exhaustive_counts(n, limit)
    return Fraction(suitable, total)


def rsa_probability_bound(p: int, q: int) -> Fraction:
    """Lower bound 1 - (p+q+9)/(n-4) on the suitable-constant probability, n = pq."""
    _require_prime(p, "p")
    _require_prime(q, "q")
    if p == q:
        raise ValueError("p and q must be distinct")
    n = p * q
    if n < 11:
        raise ValueError("need pq >= 11")
    return Fraction(1) - Fraction(p + q + 9, n - 4)


def rsa_exhaustive_frequency(p: int, q: int, limit: int = SWEEP_LIMIT) -> Fraction:
    """Exact aggregate suitable-constant frequency over all (a, ell) pairs, n = pq.

    Same predicate as census_suitable_constants, vectorized per base so that
    sweeping all bases of a desk-scale semiprime stays fast.
    """
    import numpy as np

    _require_prime(p, "p")
    _require_prime(q, "q")
    if p == q:
        raise ValueError("p and q must be distinct")
    n = p * q
    if n < 11:
        raise ValueError("need pq >= 11")
    if n > limit:
        raise DomainTooLarge(f"census over n={n} exceeds guard {limit}")

    ells = np.arange(2, n - 1, dtype=np.int64)
    unit = (ells % p != 0) & (ells % q != 0)
    sq = ells * ells % n
    sq_unit = ((sq - 1) % p != 0) & ((sq - 1) % q != 0)
    cube = sq * ells % n
    base_ok = unit & sq_unit

    suitable = 0
    total = 0
    for a in range(2, n - 1):
        ok = base_ok & ((cube - a) % p != 0) & ((cube - a) % q != 0)
        good = int(np.count_nonzero(ok))
        # drop ell == a from the candidate interval
        if ok[a - 2]:
            good -= 1
        suitable += good
        total += n - 4
    return Fraction(suitable, total)


def rsa_sampled_frequency(
    p: int, q: int, samples: int, rng: random.Random
) -> tuple[Fraction, Fraction]:
    """Monte Carlo estimate of the suitable frequency over random (a, ell) pairs.

    Returns (frequency, bound) so callers can compare against the lower bound.
    """
    _require_prime(p, "p")
    _require_prime(q, "q")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = p * q
    hits = 0
    for _ in range(samples):
        a = rng.randrange(2, n - 1)
        ell = rng.randrange(2, n - 1)
        while ell == a:
            ell = rng.randrange(2, n - 1)
        if (
            math.gcd(ell, n) == 1
            and math.gcd(ell * ell - 1, n) == 1
            and math.gcd(ell * ell * ell - a, n) == 1
        ):
            hits += 1
    return Fraction(hits, samples), rsa_probability_bound(p, q)
