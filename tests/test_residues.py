import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ladderlab.errors import DomainTooLarge, NotCoprime
from ladderlab.residues import (
    REJECTIONS,
    census_suitable_constants,
    dsa_exhaustive_counts,
    dsa_exhaustive_ratio,
    dsa_probability_formula,
    gauss_residue_census,
    is_rth_residue,
    rsa_exhaustive_frequency,
    rsa_probability_bound,
    rsa_sampled_frequency,
)

PRIMES_TO_120 = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


class TestIsRthResidue:
    def test_examples(self):
        assert is_rth_residue(1, 7, 3)
        assert is_rth_residue(5, 13, 3)  # 7**3 = 343 = 5 mod 13
        assert pow(7, 3, 13) == 5
        assert not is_rth_residue(2, 13, 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            is_rth_residue(13, 13, 3)

    def test_matches_exhaustive_root_search(self):
        for p in PRIMES_TO_120:
            cubes = {pow(x, 3, p) for x in range(1, p)}
            for a in range(1, p):
                assert is_rth_residue(a, p, 3) == (a in cubes)


class TestGaussCensus:
    def test_examples(self):
        g = gauss_residue_census(7, 3)
        assert g.residue_count == 2
        assert set(g.roots_per_residue) == {1, 6}
        assert set(g.roots_per_residue.values()) == {3}

        g = gauss_residue_census(13, 3)
        assert g.residue_count == 4
        assert set(g.roots_per_residue) == {1, 5, 8, 12}

        g = gauss_residue_census(5, 3)  # b = 1: cubing is a bijection
        assert g.residue_count == 4
        assert set(g.roots_per_residue.values()) == {1}

    def test_counts_divide_group_order_for_small_primes(self):
        for p in PRIMES_TO_120:
            g = gauss_residue_census(p, 3)
            assert g.residue_count == (p - 1) // g.b
            assert all(v == g.b for v in g.roots_per_residue.values())

    @pytest.mark.parametrize("p", [5, 7, 13, 101, 1009, 49999, 65537])
    def test_matches_the_pow_counter(self, p):
        """The int64 square-and-multiply route against Python's pow, exponents past 2**40 and <= 0 too."""
        for r in (*range(1, 8), 12, 1000003, 2**40 + 1, 2**200 + 3, 0, -5):
            roots = gauss_residue_census(p, r).roots_per_residue
            assert isinstance(roots, Counter)
            assert roots == Counter(pow(ell, r, p) for ell in range(1, p)), r

    def test_guard(self):
        with pytest.raises(DomainTooLarge):
            gauss_residue_census(2**20 + 7, 3)


class TestConstantCensus:
    def test_examples(self):
        c = census_suitable_constants(2, 7)
        assert (c.total, c.suitable) == (3, 3)
        c = census_suitable_constants(5, 13)
        assert (c.total, c.suitable) == (9, 6)
        assert c.rejected["cube_not_unit"] == 3

    def test_base_precondition(self):
        with pytest.raises(ValueError):
            census_suitable_constants(1, 13)
        with pytest.raises(ValueError):
            census_suitable_constants(12, 13)

    def test_accounting_identity(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(7, 500)
            a = rng.randrange(2, n - 1)
            c = census_suitable_constants(a, n)
            assert c.suitable + sum(c.rejected.values()) == c.total == n - 4

    def test_rejections_match_scalar_classification(self):
        for n in list(range(7, 61)) + [221, 499]:
            for a in range(2, n - 1):
                want = dict.fromkeys(REJECTIONS, 0)
                for ell in range(2, n - 1):
                    if ell == a:
                        continue
                    failed = ((ell - a) % n == 0, math.gcd(ell, n) != 1,
                              math.gcd(ell * ell - 1, n) != 1, math.gcd(ell**3 - a, n) != 1)
                    for reason, bad in zip(REJECTIONS, failed):
                        if bad:
                            want[reason] += 1
                            break
                c = census_suitable_constants(a, n)
                assert list(c.rejected.items()) == list(want.items()), (n, a)
                assert c.suitable == n - 4 - sum(want.values())

    def test_census_matches_constant_builder(self):
        # a constant is suitable exactly when the ladder constants build
        from ladderlab.modexp import ladder_constants
        from ladderlab.errors import InvalidCoefficient

        for n, a in ((13, 5), (15, 2), (21, 2), (35, 4)):
            suitable = 0
            for ell in range(2, n - 1):
                if ell == a:
                    continue
                try:
                    ladder_constants(a, ell, n)
                    suitable += 1
                except InvalidCoefficient:
                    pass
            assert suitable == census_suitable_constants(a, n).suitable


class TestDsaProbability:
    def test_formula_examples(self):
        assert dsa_probability_formula(7) == 1
        assert dsa_probability_formula(13) == Fraction(14, 15)
        assert dsa_probability_formula(17) == 1 - Fraction(1, 13)

    def test_hand_verified_census_13(self):
        assert dsa_exhaustive_counts(13) == (84, 90)
        assert Fraction(84, 90) == dsa_probability_formula(13)

    def test_census_equals_formula_small_primes(self):
        for n in PRIMES_TO_120[:14]:
            assert dsa_exhaustive_ratio(n) == dsa_probability_formula(n), n

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            dsa_probability_formula(15)

    def test_large_censuses_run_below_the_n_guard(self):
        # the aggregate censuses count per l, O(n): only n itself is guarded
        for n in (16411, 65537):
            assert dsa_exhaustive_ratio(n) == dsa_probability_formula(n), n
        p, q = 127, 131
        b_p, b_q = math.gcd(p - 1, 3), math.gcd(q - 1, 3)  # by CRT, as the census must count
        suitable = ((p - 1) * (p - 3) * (q - 1) * (q - 3) - 2 * (p - 3) * (q - 3)
                    - 2 * (p - 2 - b_p) * (q - 2 - b_q))
        assert rsa_exhaustive_frequency(p, q) == Fraction(suitable, (p * q - 3) * (p * q - 4))
        assert census_suitable_constants(2, 65537).total == 65533


class TestRsaProbability:
    def test_bound_examples(self):
        assert rsa_probability_bound(3, 5) == 1 - Fraction(17, 11)
        assert rsa_probability_bound(3, 5) < 0  # vacuous at toy scale
        assert rsa_probability_bound(11, 13) == 1 - Fraction(33, 139)

    def test_bound_preconditions(self):
        with pytest.raises(ValueError):
            rsa_probability_bound(7, 7)
        with pytest.raises(ValueError):
            rsa_probability_bound(4, 5)

    def test_sampled_frequency_needs_a_sample(self):
        for samples in (0, -1):
            with pytest.raises(ValueError):
                rsa_sampled_frequency(5, 7, samples, random.Random(0))

    def test_sampled_frequency_redraws_a_constant_equal_to_the_base(self):
        # at n = 35 the sixth sample draws a = ell = 32 and redraws ell; without the redraw
        # every later sample shifts by one draw and the frequency reads 1/4
        # (n = 15 would not show it: gcd(15, 6) > 1, so no constant suits and it reads 0 either way)
        assert rsa_sampled_frequency(5, 7, 12, random.Random(3)) == (Fraction(1, 3), Fraction(10, 31))

    def test_exhaustive_matches_per_base_census(self):
        n = 11 * 13
        agg_s = sum(census_suitable_constants(a, n).suitable for a in range(2, n - 1))
        agg_t = sum(census_suitable_constants(a, n).total for a in range(2, n - 1))
        assert rsa_exhaustive_frequency(11, 13) == Fraction(agg_s, agg_t)

    def test_sampled_frequency_near_one_at_scale(self):
        # true failure rate at 16-bit primes is ~1e-4 per draw
        freq, bound = rsa_sampled_frequency(65537, 65539, 10000, random.Random(3))
        assert freq >= Fraction(999, 1000)
        assert 0 < bound < 1
