import random
from fractions import Fraction

import pytest

from ladderlab import modexp
from ladderlab.errors import InvalidCoefficient, NoConstantExists
from ladderlab.ladders import (
    DEFAULT_SWEEP_LIMIT, KeyBits, Trace, check_fully_equations, check_semi_equations,
)
from ladderlab.modarith import Ring, modpow_reference
from ladderlab.modexp import (
    MaskPolicy,
    cost_per_bit,
    find_ladder_constant,
    fully_interleaved_exp,
    fully_ladder_spec,
    ladder_constants,
    masked_semi_spec,
    montgomery_ladder,
    run_exp_algorithm,
    semi_interleaved_exp,
    square_and_multiply,
    square_and_multiply_always,
)


def random_cases(seed, count, nbits=24):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(7, 2**32) | 1
        a = rng.randrange(2, n - 1)
        k = rng.getrandbits(nbits)
        yield a, k, n


class TestSquareAndMultiply:
    def test_examples(self):
        assert square_and_multiply(2, 5, 1000) == 32
        assert square_and_multiply(123, 1, 1000) == 123
        assert square_and_multiply(7, 0, 13) == 1

    def test_against_oracle(self):
        for a, k, n in random_cases(11, 300):
            assert square_and_multiply(a, k, n) == modpow_reference(a, k, n)


class TestSquareAndMultiplyAlways:
    def test_x_matches_plain_variant(self):
        for a, k, n in random_cases(12, 300):
            assert square_and_multiply_always(a, k, n)[0] == square_and_multiply(a, k, n)

    def test_all_ones_key_leaves_sentinel(self):
        x, y = run_exp_algorithm("sma", 9, KeyBits((1, 1, 1, 1)), 1009)
        assert x == modpow_reference(9, 0b1111, 1009)
        assert y == 9  # never written, keeps its initial copy of the base

    def test_per_iteration_ops_bit_independent(self):
        ops1, ops0 = [], []
        run_exp_algorithm("sma", 7, KeyBits((1,)), 101, per_iter=ops1)
        run_exp_algorithm("sma", 7, KeyBits((0,)), 101, per_iter=ops0)
        assert ops1[0].as_tuple() == ops0[0].as_tuple() == (1, 1, 0)


class TestMontgomeryLadder:
    def test_examples(self):
        assert montgomery_ladder(2, 5, 1000) == (32, 64)
        assert montgomery_ladder(9, KeyBits((0, 0, 0)), 1009) == (1, 9)

    def test_against_oracle_with_invariant(self):
        for a, k, n in random_cases(13, 200):
            trace = Trace()
            x, y = run_exp_algorithm("montgomery", a, k, n, trace=trace)
            assert x == modpow_reference(a, k, n)
            assert all(py == a * px % n for px, py in zip(trace.xs, trace.ys))

    def test_per_iteration_ops_bit_independent(self):
        ops1, ops0 = [], []
        run_exp_algorithm("montgomery", 7, KeyBits((1,)), 101, per_iter=ops1)
        run_exp_algorithm("montgomery", 7, KeyBits((0,)), 101, per_iter=ops0)
        assert ops1[0].as_tuple() == ops0[0].as_tuple() == (1, 1, 0)


class TestSemiInterleaved:
    def test_zero_mask_reduces_to_montgomery(self):
        for a, k, n in random_cases(14, 50):
            t_semi, t_mont = Trace(), Trace()
            run_exp_algorithm("semi", a, k, n, mask=MaskPolicy.zero(), trace=t_semi)
            run_exp_algorithm("montgomery", a, k, n, trace=t_mont)
            assert t_semi.xs == t_mont.xs
            assert t_semi.ys == t_mont.ys

    def test_fresh_mask_against_oracle(self):
        rng = random.Random(15)
        for a, k, n in random_cases(16, 200):
            x, y = semi_interleaved_exp(a, k, n, MaskPolicy.fresh(), rng)
            assert x == modpow_reference(a, k, n)
            assert y == a * x % n

    def test_fixed_vs_fresh_same_final_x(self):
        for a, k, n in random_cases(17, 50):
            m = random.Random(a).randrange(n)
            xf, _ = semi_interleaved_exp(a, k, n, MaskPolicy.fixed(m))
            xr, _ = semi_interleaved_exp(a, k, n, MaskPolicy.fresh(), random.Random(k))
            assert xf == xr

    def test_fresh_mask_requires_rng(self):
        with pytest.raises(ValueError):
            semi_interleaved_exp(2, 5, 101, MaskPolicy.fresh())
        trace = Trace()
        with pytest.raises(ValueError, match="fresh mask policy needs an RNG"):
            run_exp_algorithm("semi", 7, KeyBits((1, 0, 1)), 101, mask=MaskPolicy.fresh(),
                              rng=None, trace=trace)
        assert trace.xs == []  # raised while the step was built: no snapshot was taken

    def test_mask_parse(self):
        assert MaskPolicy.parse("zero").mode == "zero"
        assert MaskPolicy.parse("fixed:0x10").value == 16
        assert MaskPolicy.parse("fresh").mode == "fresh"
        with pytest.raises(ValueError):
            MaskPolicy.parse("bogus")

    def test_per_iteration_ops_bit_independent(self):
        ops1, ops0 = [], []
        run_exp_algorithm("semi", 7, KeyBits((1,)), 101, mask=MaskPolicy.fixed(3), per_iter=ops1)
        run_exp_algorithm("semi", 7, KeyBits((0,)), 101, mask=MaskPolicy.fixed(3), per_iter=ops0)
        assert ops1[0].as_tuple() == ops0[0].as_tuple() == (5, 2, 3)


class TestFindLadderConstant:
    def test_small_example_coefficients(self):
        c = ladder_constants(2, 3, 7)
        assert (c.xy_coef, c.sq_coef, c.sync_sq_coef, c.sync_x_coef) == (6, 6, 4, 6)
        ring = Ring(7)
        assert check_fully_equations(fully_ladder_spec(ring, c), ring).ok

    def test_cubic_roots_rejected(self):
        # cube roots of 5 modulo 13, found exhaustively
        roots = {ell for ell in range(13) if pow(ell, 3, 13) == 5}
        assert roots == {7, 8, 11}
        for ell in range(2, 12):
            if ell == 5:
                continue
            if ell in roots:
                with pytest.raises(InvalidCoefficient):
                    ladder_constants(5, ell, 13)
            else:
                ladder_constants(5, ell, 13)

    def test_sampling_counts_draws(self):
        c = find_ladder_constant(2, 7, random.Random(0))
        assert c.draws >= 1
        assert c.constant in {3, 4, 5}

    def test_no_constant_for_multiple_of_three(self):
        # every residue class mod 3 violates a constraint, so nothing qualifies
        with pytest.raises(NoConstantExists):
            find_ladder_constant(2, 21, random.Random(0))

    def test_failed_draws_above_the_scan_limit_claim_no_absence(self, monkeypatch):
        # above DEFAULT_SWEEP_LIMIT no scan follows the draws, so a miss proves nothing
        monkeypatch.setattr(modexp, "MAX_DRAWS", 0)
        with pytest.raises(NoConstantExists, match="found in 0 draws"):
            find_ladder_constant(7, 1_000_003 * 5, random.Random(0))
        with pytest.raises(NoConstantExists) as caught:
            find_ladder_constant(2, 21, random.Random(0))
        assert "draws" not in str(caught.value)
        # gcd(n, 6) > 1 proves absence on either side of the limit
        with pytest.raises(NoConstantExists) as caught:
            find_ladder_constant(7, DEFAULT_SWEEP_LIMIT + 2, random.Random(0))
        assert "draws" not in str(caught.value)

    def test_failed_draws_below_the_scan_limit_fall_back_to_the_scan(self):
        # at n = 2275 = 5^2*7*13 only 70 of the 2,271 candidates suit a = 8, and all 64 draws
        # of seed 1 miss them, so the scan returns the smallest suitable constant
        c = find_ladder_constant(8, 2275, random.Random(1))
        assert c == modexp._constants_for(8, 3, 2275, modexp.MAX_DRAWS)
        assert not modexp._suits(8, 2, 2275)

    @pytest.mark.parametrize("n", [DEFAULT_SWEEP_LIMIT, DEFAULT_SWEEP_LIMIT - 1])
    def test_no_scan_when_gcd_with_six_exceeds_one(self, monkeypatch, n):
        # 2 | n or 3 | n leaves no constant, so only the draws run before NoConstantExists
        calls = []
        real = modexp._constants_for

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(modexp, "_constants_for", counted)
        with pytest.raises(NoConstantExists):
            find_ladder_constant(7, n, random.Random(0))
        assert len(calls) <= modexp.MAX_DRAWS

    def test_preconditions(self):
        with pytest.raises(ValueError):
            find_ladder_constant(1, 13, random.Random(0))
        with pytest.raises(ValueError):
            find_ladder_constant(2, 6, random.Random(0))

    def test_first_draw_usually_succeeds_for_semiprimes(self):
        from ladderlab.modarith import random_prime

        rng = random.Random(20)
        first = 0
        trials = 300
        for _ in range(trials):
            p = random_prime(rng, 16)
            q = random_prime(rng, 16)
            while q == p:
                q = random_prime(rng, 16)
            n = p * q
            a = rng.randrange(2, n - 1)
            first += find_ladder_constant(a, n, rng).draws == 1
        assert first >= 0.99 * trials


class TestFullyInterleaved:
    def test_small_example(self):
        c = ladder_constants(2, 3, 7)
        assert fully_interleaved_exp(2, 5, 7, c) == (4, 5)
        assert fully_interleaved_exp(2, KeyBits((1,)), 7, c) == (2, 6)

    def test_against_oracle_with_invariant(self):
        rng = random.Random(21)
        done = 0
        while done < 200:
            n = rng.randrange(7, 2**32) | 1
            a = rng.randrange(2, n - 1)
            k = rng.getrandbits(24)
            try:
                c = find_ladder_constant(a, n, rng)
            except NoConstantExists:
                continue
            trace = Trace()
            x, y = run_exp_algorithm("fully", a, k, n, constants=c, trace=trace)
            assert x == modpow_reference(a, k, n)
            assert all(py == c.constant * px % n for px, py in zip(trace.xs, trace.ys))
            done += 1

    def test_constants_bound_to_modulus(self):
        c = ladder_constants(2, 3, 7)
        with pytest.raises(ValueError):
            fully_interleaved_exp(2, 5, 11, c)

    def test_per_iteration_ops_bit_independent(self):
        c = ladder_constants(2, 3, 7)
        ops1, ops0 = [], []
        run_exp_algorithm("fully", 2, KeyBits((1,)), 7, constants=c, per_iter=ops1)
        run_exp_algorithm("fully", 2, KeyBits((0,)), 7, constants=c, per_iter=ops0)
        assert ops1[0].as_tuple() == ops0[0].as_tuple() == (5, 1, 2)


class TestCostPerBit:
    def test_reference_costs(self):
        assert cost_per_bit("montgomery", 7, 1000, 99991) == (1, 1, 0)
        for mask in (MaskPolicy.fresh(), MaskPolicy.fixed(12), MaskPolicy.zero()):
            cost = cost_per_bit("semi", 7, 1000, 99991, mask=mask, rng=random.Random(0))
            assert cost == (5, 2, 3)
        c = find_ladder_constant(7, 99991, random.Random(0))
        assert cost_per_bit("fully", 7, 1000, 99991, constants=c) == (5, 1, 2)

    def test_costs_are_exact_fractions(self):
        cost = cost_per_bit("sm", 7, 0b101, 99991)
        assert cost.mul == Fraction(2, 3)  # two multiplies over three bits
        assert cost.sq == 1


class TestInstanceSpecs:
    def test_masked_specs_verify_for_all_masks_small(self):
        for n in (7, 12, 31):
            ring = Ring(n)
            for a in range(1, n):
                for m in range(n):
                    assert check_semi_equations(masked_semi_spec(ring, a, m), ring).ok

    def test_fully_specs_verify_for_all_valid_constants_small(self):
        for n in (7, 11, 13):
            ring = Ring(n)
            for a in range(2, n - 1):
                for ell in range(2, n - 1):
                    if ell == a:
                        continue
                    try:
                        c = ladder_constants(a, ell, n)
                    except InvalidCoefficient:
                        continue
                    assert check_fully_equations(fully_ladder_spec(ring, c), ring).ok
