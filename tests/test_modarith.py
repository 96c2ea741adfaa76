import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab.modarith import Ring, eea, is_probable_prime, modpow_reference, random_prime


def test_ring_ops_small():
    r = Ring(7)
    assert r.add(3, 5) == 1
    assert r.mul(3, 5) == 1
    assert r.sq(3) == 2
    assert r.neg(0) == 0
    assert r.sub(2, 5) == 4


def test_ring_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        Ring(1)


@given(st.integers(min_value=2, max_value=10**30), st.integers(), st.integers())
def test_ring_canonicity_fuzz(n, x, y):
    r = Ring(n)
    x, y = x % n, y % n
    for v in (r.add(x, y), r.sub(x, y), r.mul(x, y), r.sq(x), r.neg(x)):
        assert 0 <= v < n


def test_eea_examples():
    assert eea(3, 7) == (1, 5)
    assert 3 * 5 % 7 == 1
    assert eea(1, 11) == (1, 1)
    d, u = eea(6, 9)
    assert d == 3
    # exhaustive oracle: every valid u satisfies 6u = 3 mod 9
    assert u in [v for v in range(9) if 6 * v % 9 == 3]
    assert eea(0, 9) == (9, 0)


def test_eea_rejects_noncanonical():
    with pytest.raises(ValueError):
        eea(7, 7)
    with pytest.raises(ValueError):
        eea(-1, 7)


@given(st.integers(min_value=2, max_value=10**18), st.integers(min_value=0))
def test_eea_matches_gcd_and_inverts(n, v_raw):
    v = v_raw % n
    d, u = eea(v, n)
    assert d == math.gcd(v, n) or (v == 0 and d == n)
    assert u * v % n == d % n
    if d == 1:
        assert u * v % n == 1


def test_modpow_examples():
    assert modpow_reference(5, 0, 13) == 1
    assert modpow_reference(2, 10, 1000) == 24
    with pytest.raises(ValueError):
        modpow_reference(2, -1, 5)


def test_modpow_against_repeated_multiplication():
    # brute-force oracle: literal product of k copies of a
    for n in range(2, 50, 7):
        for a in range(20):
            for k in range(20):
                acc = 1
                for _ in range(k):
                    acc = acc * a % n
                assert modpow_reference(a, k, n) == acc


@given(
    st.integers(min_value=2, max_value=10**12),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0),
)
@settings(max_examples=50)
def test_modpow_additive_in_exponent(n, k1, k2, a):
    r = Ring(n)
    lhs = modpow_reference(a, k1 + k2, n)
    rhs = r.mul(modpow_reference(a, k1, n), modpow_reference(a, k2, n))
    assert lhs == rhs


def test_is_probable_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_probable_prime(n) == sieve[n], n


def test_random_prime_has_requested_size():
    rng = random.Random(0)
    for bits in (8, 16, 24):
        p = random_prime(rng, bits)
        assert p.bit_length() == bits
        assert is_probable_prime(p)
