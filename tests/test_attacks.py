import random

import pytest

from ladderlab.attacks import (
    AttackReport,
    ExecutionOracle,
    attack1_safe_error_nonladder,
    attack1_trailing_bits,
    attack2_semi,
    attack3_stuckat,
    evaluate_report,
    make_ecc_oracle,
    make_exp_oracle,
    make_oracle_for_target,
    run_attack,
)
from ladderlab.ecc import INFINITY, Curve, Point, double_and_add, semi_params
from ladderlab.ladders import KeyBits

A_BASE = 7
N_MOD = 1_000_003


def expected_trailing(bits):
    """Bits from the end through the first value change, everything earlier unknown."""
    out = [None] * len(bits)
    last = bits[-1]
    for i in range(len(bits), 0, -1):
        out[i - 1] = bits[i - 1]
        if bits[i - 1] != last:
            break
    return tuple(out)


def random_key(rng, bits=16):
    return KeyBits.from_int(rng.getrandbits(bits), width=bits)


class TestOracle:
    def test_readability_masks_outputs(self):
        key = KeyBits.from_int(0b1011)
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, readable=("x",))
        x, y = o.exe()
        assert x is not None and y is None

    def test_call_counter(self):
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, KeyBits.from_int(5))
        o.exe()
        o.exe()
        assert o.calls == 2

    def test_attacker_boundary(self):
        key = random_key(random.Random(0))
        o = make_exp_oracle("sma", A_BASE, N_MOD, key, seed=1)
        report = attack1_safe_error_nonladder(o, random.Random(2))
        assert report.matches_true_key is None  # attacks never score themselves
        scored = evaluate_report(report, key)
        assert scored.matches_true_key is not None
        assert len(scored.matches_true_key) == len(key)


class TestAttack1NonLadder:
    def test_recovers_all_bits(self):
        rng = random.Random(100)
        for _ in range(10):
            key = random_key(rng)
            o = make_exp_oracle("sma", A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack1_safe_error_nonladder(o, random.Random(rng.getrandbits(32)))
            assert report.recovered == key.bits

    def test_zero_key(self):
        key = KeyBits.from_int(0, width=8)
        o = make_exp_oracle("sma", A_BASE, N_MOD, key, seed=3)
        report = attack1_safe_error_nonladder(o, random.Random(4))
        assert report.recovered == (0,) * 8

    def test_requires_x_readable(self):
        o = make_exp_oracle("sma", A_BASE, N_MOD, KeyBits.from_int(5), readable=("y",))
        with pytest.raises(ValueError):
            attack1_safe_error_nonladder(o)


class TestAttack1Trailing:
    @pytest.mark.parametrize("target", ["montgomery", "semi"])
    def test_recovers_exact_trailing_pattern(self, target):
        rng = random.Random(200)
        for _ in range(15):
            key = random_key(rng, 12)
            o = make_exp_oracle(target, A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack1_trailing_bits(o, "both", random.Random(rng.getrandbits(32)))
            assert report.recovered == expected_trailing(key.bits)

    def test_all_zero_key_fully_recovered_from_x(self):
        key = KeyBits.from_int(0, width=10)
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, seed=5)
        report = attack1_trailing_bits(o, "x", random.Random(6))
        assert report.recovered == (0,) * 10

    def test_x_view_stops_at_first_one(self):
        key = KeyBits((1, 1, 0, 1, 0, 0))  # ends 1 0 0
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, seed=7)
        report = attack1_trailing_bits(o, "x", random.Random(8))
        assert report.recovered == (None, None, None, 1, 0, 0)

    def test_y_view_scans_trailing_ones(self):
        key = KeyBits((1, 0, 0, 1, 1, 1))
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, seed=9)
        report = attack1_trailing_bits(o, "y", random.Random(10))
        assert report.recovered == (None, None, 0, 1, 1, 1)

    def test_fully_target_yields_nothing(self):
        rng = random.Random(300)
        for _ in range(10):
            key = random_key(rng)
            o = make_exp_oracle("fully", A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack1_trailing_bits(o, "both", random.Random(rng.getrandbits(32)))
            assert report.claimed() == 0

    def test_ecc_semi_trailing(self, small_curve):
        rng = random.Random(400)
        for _ in range(6):
            key = random_key(rng, 10)
            o = make_oracle_for_target("ecc-semi", key, seed=rng.getrandbits(32),
                                       curve_bundle=small_curve)
            report = attack1_trailing_bits(o, "both", random.Random(rng.getrandbits(32)))
            assert report.recovered == expected_trailing(key.bits)


class TestAttack2:
    @pytest.mark.parametrize("target", ["montgomery", "semi"])
    def test_full_recovery(self, target):
        rng = random.Random(500)
        for _ in range(10):
            key = random_key(rng)
            o = make_exp_oracle(target, A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack2_semi(o, random.Random(rng.getrandbits(32)))
            assert report.recovered == key.bits

    def test_ecc_semi_full_recovery(self, small_curve):
        rng = random.Random(600)
        for _ in range(5):
            key = random_key(rng, 10)
            o = make_oracle_for_target("ecc-semi", key, seed=rng.getrandbits(32),
                                       curve_bundle=small_curve)
            report = attack2_semi(o, random.Random(rng.getrandbits(32)))
            assert report.recovered == key.bits

    def test_fully_target_yields_noise(self):
        rng = random.Random(700)
        correct = claimed = 0
        for _ in range(25):
            key = random_key(rng)
            o = make_exp_oracle("fully", A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack2_semi(o, random.Random(rng.getrandbits(32)))
            scored = evaluate_report(report, key)
            claimed += report.claimed()
            correct += sum(1 for m in scored.matches_true_key if m)
        assert claimed == 25 * 16
        assert 0.3 < correct / claimed < 0.7  # loose sanity band; tight one in acceptance

    def test_requires_both_outputs(self):
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, KeyBits.from_int(5), readable=("x",))
        with pytest.raises(ValueError):
            attack2_semi(o)


class TestAttack3:
    @pytest.mark.parametrize("target", ["sma", "montgomery", "semi", "fully"])
    def test_full_recovery(self, target):
        rng = random.Random(800)
        for _ in range(8):
            key = random_key(rng)
            o = make_exp_oracle(target, A_BASE, N_MOD, key, seed=rng.getrandbits(32))
            report = attack3_stuckat(o, random.Random(rng.getrandbits(32)))
            assert report.recovered == key.bits

    @pytest.mark.parametrize("target", ["ecc-semi", "ecc-fully"])
    def test_ecc_targets(self, target, small_curve):
        rng = random.Random(900)
        for _ in range(4):
            key = random_key(rng, 10)
            o = make_oracle_for_target(target, key, seed=rng.getrandbits(32),
                                       curve_bundle=small_curve)
            report = attack3_stuckat(o, random.Random(rng.getrandbits(32)))
            assert report.recovered == key.bits

    @staticmethod
    def _wrong_claims(make_oracle, seed, keys=10):
        rng = random.Random(seed)
        wrong = claimed = 0
        for _ in range(keys):
            key = random_key(rng)
            report = attack3_stuckat(make_oracle(key, rng.getrandbits(64)),
                                     random.Random(rng.getrandbits(64)))
            wrong += sum(b is not None and b != k for b, k in zip(report.recovered, key.bits))
            claimed += report.claimed()
        return wrong, claimed

    @pytest.mark.parametrize("n", [17, 257])
    def test_semi_fresh_masks_claim_no_wrong_bit(self, n):
        # squaring collides mod a Fermat prime, so attack 3 swaps in pool
        # inputs; they keep the link y = a*x, or the fresh masks would reach
        # the outputs and make every comparison differ
        wrong, claimed = self._wrong_claims(
            lambda key, seed: make_oracle_for_target("semi", key, seed=seed, n=n), n)
        assert wrong == 0 and claimed > 0

    def test_ecc_semi_fresh_coefficients_claim_no_wrong_bit(self):
        # a base point of order 16 collides as 17 does for exp
        curve, A = Curve(101, 2, 3, subgroup_order=16), Point(23, 46)
        assert double_and_add(curve, 16, A) == INFINITY != double_and_add(curve, 8, A)
        wrong, claimed = self._wrong_claims(
            lambda key, seed: make_ecc_oracle("semi", curve, A, key, params=semi_params(3, 16),
                                              seed=seed, fresh_coef=True), 16, keys=4)
        assert wrong == 0 and claimed > 0

    def test_single_bit_key(self):
        for bit in (0, 1):
            key = KeyBits((bit,))
            o = make_exp_oracle("fully", A_BASE, N_MOD, key, seed=10 + bit)
            report = attack3_stuckat(o, random.Random(11))
            assert report.recovered == (bit,)

    def test_irrelevant_bits_marked_unknown(self):
        # a device whose output never depends on the key: the pool runs out
        # and every bit is left unknown rather than guessed
        def run(x_init, y_init, plan):
            return 17, 23

        o = ExecutionOracle(run, 4, lambda rng: (rng.randrange(100), rng.randrange(100)))
        report = attack3_stuckat(o, random.Random(12), pool_size=5)
        assert report.recovered == (None,) * 4
        assert report.oracle_calls == 4 * 5 * 4  # every input tried both hypotheses


class TestHarness:
    def test_determinism(self):
        key = KeyBits.from_int(0xBEEF, width=16)
        reports = []
        for _ in range(2):
            o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, seed=42)
            reports.append(attack2_semi(o, random.Random(43)))
        assert reports[0] == reports[1]

    def test_run_attack_dispatch(self):
        key = KeyBits.from_int(0b1010)
        o = make_exp_oracle("sma", A_BASE, N_MOD, key, seed=1)
        assert run_attack(1, "sma", o, random.Random(2)).recovered == key.bits
        o = make_exp_oracle("montgomery", A_BASE, N_MOD, key, seed=1)
        assert run_attack(1, "montgomery", o, random.Random(2)).recovered == expected_trailing(key.bits)
        with pytest.raises(ValueError):
            run_attack(4, "sma", o, random.Random(0))

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            make_oracle_for_target("rot13", KeyBits.from_int(5))

    def test_report_shape(self):
        key = KeyBits.from_int(0b110)
        o = make_exp_oracle("sma", A_BASE, N_MOD, key, seed=2)
        report = attack1_safe_error_nonladder(o, random.Random(3))
        assert isinstance(report, AttackReport)
        assert len(report.recovered) == len(key)
        assert report.oracle_calls == o.calls
