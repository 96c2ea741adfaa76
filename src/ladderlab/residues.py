"""Counting suitable ladder constants and r-th power residues, exactly.

All probabilities are exact rationals; nothing here goes through floats.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainTooLarge, NotCoprime
from .ladders import DEFAULT_SWEEP_LIMIT, SWEEP_CHUNK
from .modarith import is_probable_prime
from .modexp import _suits


def _require_prime(p: int, who: str) -> None:
    if not is_probable_prime(p):
        raise ValueError(f"{who} must be prime, got {p}")


def _semiprime(p: int, q: int) -> int:
    _require_prime(p, "p")
    _require_prime(q, "q")
    if p == q:
        raise ValueError("p and q must be distinct")
    if p * q < 11:
        raise ValueError("need pq >= 11")
    return p * q


def _tables(n: int):
    """The suitability tables of every constant for n, O(n) work, once n passes the guard.

    The guard runs before any work; the aggregate censuses count per l, so it bounds them too.
    """
    if n > DEFAULT_SWEEP_LIMIT:
        raise DomainTooLarge(f"census over n={n} exceeds guard {DEFAULT_SWEEP_LIMIT}")
    from .sweeps import ConstantTables  # numpy, which `import ladderlab` leaves unloaded

    return ConstantTables(n)


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


def gauss_residue_census(p: int, r: int = 3) -> GaussCensus:
    """Exhaustive census of r-th power residues modulo p and their root counts."""
    _require_prime(p, "p")
    if p > DEFAULT_SWEEP_LIMIT:
        raise DomainTooLarge(f"census over p={p} exceeds guard {DEFAULT_SWEEP_LIMIT}")
    import numpy as np  # which `import ladderlab` leaves unloaded

    from .sweeps import _mod

    e, counts = r % (p - 1), np.zeros(p, dtype=np.int64)  # ell^(p-1) = 1: pow's ell^r is ell^e
    for start in range(1, p, SWEEP_CHUNK):  # square-and-multiply, products below p**2 <= 2**40
        ells = np.arange(start, min(start + SWEEP_CHUNK, p), dtype=np.int64)
        powers = np.ones_like(ells)
        for bit in bin(e)[2:]:
            powers = _mod(_mod(powers * powers, p) * (ells if bit == "1" else 1), p)
        counts += np.bincount(powers, minlength=p)
    roots = Counter()
    for start in range(0, p, SWEEP_CHUNK):  # slices of distinct residues: plain dict updates
        found = start + np.flatnonzero(counts[start:start + SWEEP_CHUNK])
        dict.update(roots, zip(found.tolist(), counts[found].tolist()))
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


def census_suitable_constants(a: int, n: int) -> ConstantCensus:
    """Sweep every candidate constant and classify it by the first failed constraint."""
    if n < 7:
        raise ValueError("need n >= 7")
    if not 2 <= a <= n - 2:
        raise ValueError("base must satisfy 2 <= a <= n-2")
    tables = _tables(n)
    rest = tables.ells != a
    rejected = {}
    for reason, ok in zip(REJECTIONS, tables.constraints(a)):
        rejected[reason] = int((rest & ~ok).sum())
        rest &= ok
    return ConstantCensus(n=n, a=a, total=n - 4, suitable=int(rest.sum()), rejected=rejected)


def dsa_probability_formula(n: int) -> Fraction:
    """Exact probability that a random constant suits a random base, prime modulus.

    Equals 1 - 1/(n-4) + 2(b-1)/((n-3)(n-4)) with b = gcd(n-1, 3).
    """
    _require_prime(n, "n")
    if n < 7:
        raise ValueError("need a prime n >= 7")
    b = math.gcd(n - 1, 3)
    return Fraction(1) - Fraction(1, n - 4) + Fraction(2 * (b - 1), (n - 3) * (n - 4))


def dsa_exhaustive_counts(n: int) -> tuple[int, int]:
    """(suitable, total) census sums over every base a in [2, n-2], unreduced."""
    _require_prime(n, "n")
    if n < 7:
        raise ValueError("need a prime n >= 7")
    return _tables(n).count_suitable()


def dsa_exhaustive_ratio(n: int) -> Fraction:
    """Census ratio over every base a in [2, n-2]; must equal the closed formula."""
    return Fraction(*dsa_exhaustive_counts(n))


def rsa_probability_bound(p: int, q: int) -> Fraction:
    """Lower bound 1 - (p+q+9)/(n-4) on the suitable-constant probability, n = pq."""
    n = _semiprime(p, q)
    return Fraction(1) - Fraction(p + q + 9, n - 4)


def rsa_exhaustive_frequency(p: int, q: int) -> Fraction:
    """Exact aggregate suitable-constant frequency over all (a, ell) pairs, n = pq.

    Same predicate and count as `dsa_exhaustive_counts`, over a composite modulus.
    """
    n = _semiprime(p, q)
    return Fraction(*_tables(n).count_suitable())


def rsa_sampled_frequency(
    p: int, q: int, samples: int, rng: random.Random
) -> tuple[Fraction, Fraction]:
    """Monte Carlo estimate of the suitable frequency over random (a, ell) pairs.

    Returns (frequency, bound) so callers can compare against the lower bound.
    """
    n = _semiprime(p, q)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    for _ in range(samples):
        a = rng.randrange(2, n - 1)
        ell = rng.randrange(2, n - 1)
        while ell == a:
            ell = rng.randrange(2, n - 1)
        hits += _suits(a, ell, n)
    return Fraction(hits, samples), rsa_probability_bound(p, q)
