import random

import pytest

from ladderlab.attacks import fault_propagation_probe
from ladderlab.errors import Coincidence
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import KeyBits, Trace
from ladderlab.modexp import MaskPolicy, find_ladder_constant, run_exp_algorithm

N_MOD = 1_000_003


class TestFaultPlanValidation:
    def test_target_and_mode(self):
        with pytest.raises(ValueError):
            RegisterFault("z", 1, seed=0)
        with pytest.raises(ValueError):
            RegisterFault("x", 1)  # neither value nor seed

    def test_iteration_bounds(self):
        plan = FaultPlan(register_faults=(RegisterFault("x", 5, seed=0),))
        with pytest.raises(ValueError):
            plan.validate(4)
        plan.validate(5)

    def test_duplicate_fault_rejected(self):
        plan = FaultPlan(register_faults=(
            RegisterFault("x", 2, seed=0), RegisterFault("x", 2, seed=1)))
        with pytest.raises(ValueError):
            plan.validate(4)

    def test_stuckat_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(key_stuckat=(2, 7))
        with pytest.raises(ValueError):
            FaultPlan(key_stuckat=(-1, 0))
        with pytest.raises(ValueError):
            FaultPlan(key_stuckat=(9, 1)).validate(8)


class TestFaultSemantics:
    def test_stuckat_bit_view(self):
        plan = FaultPlan(key_stuckat=(2, 1))
        bits = (0, 0, 0, 0)
        assert [plan.bit(i, bits) for i in (1, 2, 3, 4)] == [0, 0, 1, 1]

    def test_set_value_fault(self):
        plan = FaultPlan(register_faults=(RegisterFault("y", 1, value=42),))
        trace = Trace()
        run_exp_algorithm("montgomery", 3, KeyBits((0, 0)), 101, plan=plan, trace=trace)
        assert trace.ys[0] == 42

    def test_seeded_fault_deterministic_and_distinct(self):
        out = []
        for _ in range(2):
            plan = FaultPlan(register_faults=(RegisterFault("x", 2, seed=77),))
            trace = Trace()
            run_exp_algorithm("montgomery", 3, KeyBits((1, 0, 1)), N_MOD, plan=plan, trace=trace)
            out.append(tuple(trace.xs))
        assert out[0] == out[1]
        clean = Trace()
        run_exp_algorithm("montgomery", 3, KeyBits((1, 0, 1)), N_MOD, trace=clean)
        assert out[0][1] != clean.xs[1]  # injected value differs from the real one

    def test_fault_before_target_iteration_leaves_prefix(self):
        plan = FaultPlan(register_faults=(RegisterFault("x", 3, seed=5),))
        faulted, clean = Trace(), Trace()
        key = KeyBits.from_int(0b11010)
        run_exp_algorithm("montgomery", 7, key, N_MOD, plan=plan, trace=faulted)
        run_exp_algorithm("montgomery", 7, key, N_MOD, trace=clean)
        assert faulted.xs[:2] == clean.xs[:2]
        assert faulted.xs[2] != clean.xs[2]


class TestPlanShortcuts:
    """`effective_bits`, the form the exp loop uses, and what a plan leaves untouched."""

    def test_effective_bits_match_bit(self):
        bits = (1, 0, 0, 1, 1, 0)
        for stuck in [None] + [(t, b) for t in range(7) for b in (0, 1)]:
            plan = FaultPlan(key_stuckat=stuck)
            assert list(plan.effective_bits(bits)) == [plan.bit(i, bits) for i in range(1, 7)]
            for start in range(7):  # iterations start + 1 .. stop, as a resumed `drive` reads them
                for stop in range(start, 7):
                    want = [plan.bit(i, bits) for i in range(start + 1, stop + 1)]
                    assert list(plan.effective_bits(bits, start, stop)) == want, (start, stop)

    def test_nothing_changes_before_first_divergent(self):
        rng = random.Random(5)
        for _ in range(60):
            key = KeyBits(tuple(rng.getrandbits(1) for _ in range(10)))
            faults = tuple(
                RegisterFault(rng.choice("xy"), i, seed=rng.getrandbits(32))
                for i in rng.sample(range(1, 11), rng.randrange(3))
            )
            stuck = (rng.randrange(11), rng.getrandbits(1)) if rng.getrandbits(1) else None
            plan = FaultPlan(faults, stuck)
            # the first iteration the plan touches: its earliest fault or its threshold + 1
            d = min([11 if stuck is None else stuck[0] + 1, *(f.iteration for f in faults)])
            assert list(plan.effective_bits(key.bits))[:d - 1] == list(key.bits[:d - 1])
            clean, faulted = Trace(), Trace()
            run_exp_algorithm("montgomery", 7, key, N_MOD, trace=clean)
            run_exp_algorithm("montgomery", 7, key, N_MOD, plan=plan, trace=faulted)
            # snapshot d - 1 shows what iteration d reads, a fault there included
            assert faulted.xs[:d - 1] == clean.xs[:d - 1]
            assert faulted.ys[:d - 1] == clean.ys[:d - 1]


def traced_exp(algo, a, n, key, seed=0, **kw):
    def run(plan):
        trace = Trace()
        run_exp_algorithm(algo, a, key, n, plan=plan, trace=trace,
                          rng=random.Random(seed), **kw)
        return trace
    return run


def _probe_cells(algo, rng, trials=20, **kw):
    """Assert the text-book propagation pattern per (register, bit value)."""
    for reg in ("x", "y"):
        for bitval in (0, 1):
            for _ in range(trials):
                bits = [rng.getrandbits(1) for _ in range(8)]
                i = rng.randrange(1, 9)
                bits[i - 1] = bitval
                run = traced_exp(algo, 7, N_MOD, KeyBits(tuple(bits)), seed=rng.getrandbits(32), **kw)
                got = fault_propagation_probe(run, reg, i, random.Random(rng.getrandbits(64)))
                if algo == "fully":
                    want = {"x", "y"}
                elif reg == "x":
                    want = {"x"} | ({"y"} if bitval == 0 else set())
                else:
                    want = {"y"} | ({"x"} if bitval == 1 else set())
                assert got == want, (algo, reg, bitval, got)


class TestPropagationPatterns:
    def test_montgomery(self):
        _probe_cells("montgomery", random.Random(10))

    def test_masked_semi(self):
        _probe_cells("semi", random.Random(11), mask=MaskPolicy.fresh())

    def test_fully(self):
        consts = find_ladder_constant(7, N_MOD, random.Random(0))
        _probe_cells("fully", random.Random(12), constants=consts)

    def test_sma_product_register(self):
        # dummy-register fault reaches x exactly when the bit is 1
        rng = random.Random(13)
        for bitval, want in ((0, {"y"}), (1, {"x"})):
            bits = [1, 0, 1, 1, 0, 1]
            i = 3
            bits[i - 1] = bitval
            run = traced_exp("sma", 7, N_MOD, KeyBits(tuple(bits)))
            got = fault_propagation_probe(run, "y", i, rng)
            assert got == want

    def test_coincidence_raised_for_inert_target(self):
        class FrozenTrace:
            xs = [1, 1]
            ys = [1, 1]

        def run(plan):
            return FrozenTrace()

        with pytest.raises(Coincidence):
            fault_propagation_probe(run, "x", 1, random.Random(0))
