"""Arbitrary-precision modular arithmetic substrate used by every other module."""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Ring:
    """Integers modulo n, with every result reduced to a canonical value in [0, n-1]."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")

    def reduce(self, v: int) -> int:
        return v % self.n

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.n

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.n

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.n

    def sq(self, x: int) -> int:
        return (x * x) % self.n

    def neg(self, x: int) -> int:
        return (-x) % self.n


def eea(v: int, n: int) -> tuple[int, int]:
    """Extended Euclid on (v, n): returns (d, u) with d = gcd(v, n) and u*v = d mod n.

    u is canonical in [0, n-1].  If d = 1 then u is the inverse of v modulo n.
    eea(0, n) returns (n, 0), so "not a unit" is always signalled by d != 1.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 <= v < n:
        raise ValueError("v must be canonical in [0, n-1]")
    if v == 0:
        return n, 0
    old_r, r = v, n
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s % n


def modpow_reference(a: int, k: int, n: int) -> int:
    """Oracle for a**k mod n, independent of every ladder code path in this package."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    return pow(a % n, k, n)


def _below(n: int, rng: random.Random):
    """`rng.randrange(n)` as a zero-argument draw: CPython's own `getrandbits` loop, same stream."""
    getrandbits, k = rng.getrandbits, n.bit_length()

    def below():
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _mod_draw(n: int):
    """`rng.randrange(n)` as a draw that takes the RNG: `_below`'s loop, for a seeded fault.

    A fault draws once or twice from an RNG of its own, and a `_below` built
    per fault would cost more than `randrange` itself.
    """
    k = n.bit_length()

    def draw(rng):
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    return draw


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # deterministic below 3.3e24


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, plus 16 random rounds above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def composite_witness(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    witnesses = list(_MR_WITNESSES)
    if n >= 3317044064679887385961981:
        rng = random.Random(0xDA7A)
        witnesses += [rng.randrange(2, n - 1) for _ in range(16)]
    return not any(composite_witness(a) for a in witnesses)


def random_prime(rng: random.Random, bits: int) -> int:
    """Draw a uniform prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(c):
            return c
