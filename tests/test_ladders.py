import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import ladders
from ladderlab.errors import DomainTooLarge, NoConstantExists
from ladderlab.faults import FaultPlan, RegisterFault
from ladderlab.ladders import (
    COUNTEREXAMPLE_CAP,
    SWEEP_CHUNK,
    Affine1,
    KeyBits,
    LadderSpec,
    Quad2,
    check_fully_equations,
    check_semi_equations,
    lift_semi_to_fully,
    run_branching,
    run_fully_ladder,
    run_semi_ladder,
    spec_from_json,
    spec_to_json,
)
from ladderlab.modarith import Ring, modpow_reference
from ladderlab.modexp import (
    find_ladder_constant,
    fully_ladder_spec,
    ladder_constants,
    masked_semi_spec,
)


def montgomery_spec(ring, a):
    return masked_semi_spec(ring, a, 0)


class TestKeyBits:
    def test_from_int_msb_first(self):
        assert KeyBits.from_int(5).bits == (1, 0, 1)
        assert KeyBits.from_int(5, width=6).bits == (0, 0, 0, 1, 0, 1)
        assert KeyBits.from_int(0).bits == (0,)

    def test_roundtrip(self):
        for k in (0, 1, 5, 100, 2**20 + 7):
            assert KeyBits.from_int(k).to_int() == k

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KeyBits(())
        with pytest.raises(ValueError):
            KeyBits((0, 2))
        with pytest.raises(ValueError):
            KeyBits.from_int(8, width=3)
        with pytest.raises(ValueError):
            KeyBits.from_int(-1)


class TestRunBranching:
    def test_square_multiply_pair_example(self):
        ring = Ring(1000)
        trace = run_branching(ring, montgomery_spec(ring, 2), KeyBits.from_int(5), 1)
        assert trace.x_final == 32
        assert trace.xs == [1, 2, 4, 32]

    def test_all_zero_key_folds_bit0_step(self):
        ring = Ring(97)
        trace = run_branching(ring, montgomery_spec(ring, 13), KeyBits((0, 0, 0)), 3)
        x = 3
        for _ in range(3):
            x = x * x % 97
        assert trace.x_final == x

    def test_matches_modpow_oracle(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randrange(3, 5000)
            a = rng.randrange(1, n)
            k = rng.getrandbits(10)
            ring = Ring(n)
            trace = run_branching(ring, montgomery_spec(ring, a), KeyBits.from_int(k), 1)
            assert trace.x_final == modpow_reference(a, k, n)

    def test_snapshot_count(self):
        ring = Ring(11)
        trace = run_branching(ring, montgomery_spec(ring, 2), KeyBits.from_int(0b1011), 1)
        assert len(trace.xs) == 5
        assert len(trace.ops) == 4


class TestRunSemiLadder:
    def test_montgomery_instance_example(self):
        ring = Ring(1000)
        trace = run_semi_ladder(ring, montgomery_spec(ring, 2), KeyBits.from_int(5), 1)
        assert (trace.x_final, trace.y_final) == (32, 64)

    def test_link_invariant_and_x_projection(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randrange(3, 3000)
            a = rng.randrange(1, n)
            m = rng.randrange(n)
            k = rng.getrandbits(8)
            ring = Ring(n)
            spec = masked_semi_spec(ring, a, m)
            semi = run_semi_ladder(ring, spec, KeyBits.from_int(k), 1)
            branch = run_branching(ring, spec, KeyBits.from_int(k), 1)
            assert semi.xs == branch.xs
            assert all(spec.link.eval(ring, x) == y for x, y in zip(semi.xs, semi.ys))

    def test_branch_op_counts_are_bit_independent(self):
        ring = Ring(101)
        spec = masked_semi_spec(ring, 5, 17)
        one = run_semi_ladder(ring, spec, KeyBits((1,)), 4)
        zero = run_semi_ladder(ring, spec, KeyBits((0,)), 4)
        assert one.ops[0].as_tuple() == zero.ops[0].as_tuple()

    def test_rejects_fully_spec(self):
        ring = Ring(7)
        spec = fully_ladder_spec(ring, ladder_constants(2, 3, 7))
        with pytest.raises(ValueError):
            run_semi_ladder(ring, spec, KeyBits((1,)), 1)


class TestRunFullyLadder:
    def test_hand_checked_first_iteration(self):
        # f(1,3) = 6*3 + 6*9 = 72 = 2 mod 7, then the sync step gives 6 = link(2)
        ring = Ring(7)
        spec = fully_ladder_spec(ring, ladder_constants(2, 3, 7))
        trace = run_fully_ladder(ring, spec, KeyBits((1,)), 1)
        assert trace.xs == [1, 2]
        assert trace.ys == [3, 6]

    def test_final_matches_modpow_and_link(self):
        rng = random.Random(3)
        done = 0
        while done < 30:
            n = rng.randrange(7, 3000)
            a = rng.randrange(2, n - 1)
            try:
                consts = ladder_constants(a, rng.randrange(2, n - 1), n)
            except Exception:
                continue
            ring = Ring(n)
            spec = fully_ladder_spec(ring, consts)
            k = rng.getrandbits(8)
            trace = run_fully_ladder(ring, spec, KeyBits.from_int(k), 1)
            assert trace.x_final == modpow_reference(a, k, n)
            assert all(spec.link.eval(ring, x) == y for x, y in zip(trace.xs, trace.ys))
            assert trace.xs == run_branching(ring, spec, KeyBits.from_int(k), 1).xs
            done += 1

    def test_branch_op_counts_are_bit_independent(self):
        ring = Ring(7)
        spec = fully_ladder_spec(ring, ladder_constants(2, 3, 7))
        one = run_fully_ladder(ring, spec, KeyBits((1,)), 1)
        zero = run_fully_ladder(ring, spec, KeyBits((0,)), 1)
        assert one.ops[0].as_tuple() == zero.ops[0].as_tuple()


class TestCheckSemiEquations:
    def test_montgomery_instance_passes(self):
        for n in (7, 10, 97, 323):
            ring = Ring(n)
            for a in (1, 2, n - 1):
                assert check_semi_equations(montgomery_spec(ring, a), ring).ok

    def test_masked_instances_pass(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randrange(2, 1000)
            a = rng.randrange(1, n)
            m = rng.randrange(n)
            ring = Ring(n)
            assert check_semi_equations(masked_semi_spec(ring, a, m), ring).ok

    def test_perturbed_instance_fails_with_counterexamples(self):
        ring = Ring(101)
        spec = masked_semi_spec(ring, 5, 17)
        bad = LadderSpec(
            spec.bit1_step,
            spec.bit0_step,
            spec.link,
            Quad2(
                c20=spec.main_step.c20,
                c11=(spec.main_step.c11 + 1) % 101,
                c02=spec.main_step.c02,
            ),
        )
        result = check_semi_equations(bad, ring)
        assert not result.ok
        assert 0 < len(result.counterexamples) <= 16
        assert any(eq == 2 for _, eq in result.counterexamples)

    def test_limit_spares_a_passing_spec(self):
        # five points decide a passing spec, so `limit` never refuses one
        ring = Ring(2**20 + 7)
        assert check_semi_equations(masked_semi_spec(ring, 5, 3), ring).ok
        assert check_fully_equations(lift_semi_to_fully(masked_semi_spec(ring, 5, 3)), ring).ok

    def test_limit_refuses_enumerating_a_failing_spec(self):
        ring = Ring(2**20 + 7)
        spec = masked_semi_spec(ring, 5, 3)
        broken = replace(spec, main_step=replace(spec.main_step, c11=spec.main_step.c11 + 1))
        with pytest.raises(DomainTooLarge, match="limit"):
            check_semi_equations(broken, ring)
        assert not check_semi_equations(broken, ring, limit=ring.n)

    def test_int64_guard_holds_whatever_the_limit(self):
        # above 2**31 a product of two canonical values no longer fits in int64
        ring = Ring(2**31 + 11)
        spec = montgomery_spec(ring, 2)
        with pytest.raises(DomainTooLarge):
            check_semi_equations(spec, ring, limit=2**64)
        with pytest.raises(DomainTooLarge):
            check_fully_equations(lift_semi_to_fully(spec), ring, limit=2**64)


class TestCheckFullyEquations:
    def test_small_instance_passes(self):
        ring = Ring(7)
        assert check_fully_equations(fully_ladder_spec(ring, ladder_constants(2, 3, 7)), ring).ok

    def test_subsumption_of_semi_specs(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 500)
            a = rng.randrange(1, n)
            m = rng.randrange(n)
            ring = Ring(n)
            spec = masked_semi_spec(ring, a, m)
            assert check_semi_equations(spec, ring).ok
            assert check_fully_equations(lift_semi_to_fully(spec), ring).ok

    def test_forced_invalid_constant_fails(self):
        # constant violating the cube constraint, coefficients forced through anyway
        ring = Ring(13)
        good = ladder_constants(5, 4, 13)
        forced = fully_ladder_spec(ring, good)
        # cube roots of 5 mod 13 are {7, 8, 11}; swap the link slope to one of them
        bad = LadderSpec(
            forced.bit1_step, forced.bit0_step, Affine1(7), forced.main_step, forced.sync_step
        )
        assert not check_fully_equations(bad, ring).ok


def reference_counterexamples(spec, ring, cap=COUNTEREXAMPLE_CAP):
    """The equations of both checks, evaluated per x on Python ints; (x, equation) failures."""
    bad = []
    for x in range(ring.n):
        lx = spec.link.eval(ring, x)
        tx = spec.bit1_step.eval1(ring, x)
        ex = spec.bit0_step.eval1(ring, x)
        swapped = spec.main_step.eval2(ring, lx, x)
        if spec.sync_step is None:
            pairs = [
                (spec.bit0_step.eval1(ring, lx), spec.link.eval(ring, tx)),
                (spec.main_step.eval2(ring, x, lx), tx),
                (swapped, spec.link.eval(ring, ex)),
            ]
        else:
            pairs = [
                (spec.sync_step.eval2(ring, tx, lx), spec.link.eval(ring, tx)),
                (spec.main_step.eval2(ring, x, lx), tx),
                (swapped, spec.link.eval(ring, ex)),
                (spec.sync_step.eval2(ring, swapped, x), ex),
            ]
        bad += [(x, idx) for idx, (lhs, rhs) in enumerate(pairs, start=1) if lhs != rhs]
        if len(bad) >= cap:
            return bad[:cap]
    return bad


QUAD_KEYS = ("c20", "c11", "c02", "c10", "c01", "c00")


def _disguise(q, n, rng):
    """The same map, each coefficient shifted by a small, negative or ~80-bit multiple of n."""
    keys = ("l1", "l0") if isinstance(q, Affine1) else QUAD_KEYS
    return replace(q, **{
        k: getattr(q, k) + n * rng.choice((0, rng.randrange(-3, 4), rng.randrange(-(2**80), 2**80)))
        for k in keys
    })


def _perturb(q, n, rng):
    k = rng.choice(QUAD_KEYS)
    return replace(q, **{k: getattr(q, k) + rng.randrange(1, n)})


def random_spec(rng, n, fully, perturb):
    ring = Ring(n)
    spec = masked_semi_spec(ring, rng.randrange(1, n), rng.randrange(n))
    if fully:
        try:
            a = rng.randrange(2, n - 1)
            spec = fully_ladder_spec(ring, find_ladder_constant(a, n, rng))
        except (ValueError, NoConstantExists):
            spec = lift_semi_to_fully(spec)
    main, sync = spec.main_step, spec.sync_step
    if perturb:
        if sync is None or rng.random() < 0.5:
            main = _perturb(main, n, rng)
        else:
            sync = _perturb(sync, n, rng)
    return ring, LadderSpec(
        _disguise(spec.bit1_step, n, rng),
        _disguise(spec.bit0_step, n, rng),
        _disguise(spec.link, n, rng),
        _disguise(main, n, rng),
        None if sync is None else _disguise(sync, n, rng),
    )


def _check(spec, ring):
    check = check_semi_equations if spec.sync_step is None else check_fully_equations
    return check(spec, ring)


class TestChunkedCheckMatchesScalarReference:
    """The checks evaluate whole chunks of x on int64 arrays; a per-x loop on Python ints
    must give the same verdict and the same counterexamples, in the same order."""

    def test_random_specs(self):
        rng = random.Random(11)
        for i in range(80):
            n = rng.choice((rng.randrange(2, 64), rng.randrange(64, 700)))
            ring, spec = random_spec(rng, n, fully=i % 2 == 1, perturb=rng.random() < 0.6)
            result = _check(spec, ring)
            want = reference_counterexamples(spec, ring)
            assert result.counterexamples == want, (n, spec)
            assert result.ok == (want == [])

    @pytest.mark.parametrize("fully", [False, True])
    def test_failures_on_both_sides_of_a_chunk_boundary(self, monkeypatch, fully):
        n = SWEEP_CHUNK + 7
        rng = random.Random(12 + fully)
        ring, spec = random_spec(rng, n, fully=fully, perturb=True)
        capped = _check(spec, ring)
        assert capped.counterexamples == reference_counterexamples(spec, ring)
        # without the cap, every failure in both chunks must come out, in order
        monkeypatch.setattr(ladders, "COUNTEREXAMPLE_CAP", 4 * n)
        everything = _check(spec, ring)
        want = reference_counterexamples(spec, ring, cap=4 * n)
        assert everything.counterexamples == want
        xs = [x for x, _ in want]
        assert xs[0] < SWEEP_CHUNK <= xs[-1]


def _quartic_miss(n, delta):
    """a = 1's fully spec with sync moved so that equations 1 and 4 are off by
    delta * x(x-1)(x-2)(x-3) = 24 * delta * C(x, 4): zero at x = 0..3, and at every x
    iff n | 24 * delta."""
    spec = lift_semi_to_fully(masked_semi_spec(Ring(n), 1, 0))
    g = spec.sync_step  # sync(x^2, x) is g20 x^4 + g11 x^3 + g02 x^2 + g01 x in both equations
    moved = replace(g, c20=delta, c11=-6 * delta, c02=g.c02 + 11 * delta, c01=-6 * delta)
    return replace(spec, sync_step=moved)


def _moved_specs(n, rng):
    """Valid specs at n, then for every divisor d > 1 each with one coefficient moved by k * n/d,
    and `_quartic_miss` at delta = k * n/d."""
    ring = Ring(n)
    semi = masked_semi_spec(ring, rng.randrange(1, n), rng.randrange(n))
    valid = [semi, lift_semi_to_fully(semi)]
    if n >= 7:
        try:
            valid.append(fully_ladder_spec(ring, find_ladder_constant(rng.randrange(2, n - 1), n, rng)))
        except NoConstantExists:
            pass
    yield from valid
    for d in (d for d in range(2, n + 1) if n % d == 0):
        for spec in valid:
            step = rng.choice(["main_step", "link"] + (["sync_step"] if spec.sync_step else []))
            q = getattr(spec, step)
            key = "l0" if step == "link" else rng.choice(QUAD_KEYS)
            moved = replace(q, **{key: getattr(q, key) + rng.randrange(1, d) * (n // d)})
            yield replace(spec, **{step: moved})
        yield _quartic_miss(n, rng.randrange(1, d) * (n // d))


class TestFivePointVerdict:
    """Five values of x decide a passing spec at every n, prime or not, n < 5 included; a failing
    spec is still enumerated.  A per-x loop on Python ints must give the same SweepResult."""

    def test_matches_the_scalar_loop_for_every_small_n(self):
        rng = random.Random(19)
        verdicts = set()
        for n in range(2, 81):  # every multiple of 2, 3, 4, 6 and 9 and every prime power to 80
            ring = Ring(n)
            for spec in _moved_specs(n, rng):
                want = reference_counterexamples(spec, ring)
                assert _check(spec, ring) == ladders.SweepResult(want == [], want), (n, spec)
                verdicts.add(want == [])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("fully", [False, True])
    def test_a_passing_spec_costs_five_points_at_any_n(self, monkeypatch, fully):
        n = 1_000_003
        ring = Ring(n)
        if fully:
            name = "_fully_equations"
            spec = fully_ladder_spec(ring, find_ladder_constant(7, n, random.Random(0)))
        else:
            name, spec = "_semi_equations", masked_semi_spec(ring, 7, 5)
        equations, seen = getattr(ladders, name), []

        def recording(ring, spec, xs):
            seen.append(xs.tolist())
            return equations(ring, spec, xs)

        monkeypatch.setattr(ladders, name, recording)
        assert _check(spec, ring) == ladders.SweepResult(True, [])
        assert seen == [[0, 1, 2, 3, 4]]
        bad = replace(spec, main_step=replace(spec.main_step, c11=spec.main_step.c11 + 1))
        result = _check(bad, ring)
        assert len(result.counterexamples) == COUNTEREXAMPLE_CAP
        assert result.counterexamples == reference_counterexamples(bad, ring)


class TestFaultHooksOnGenericRunners:
    def test_fault_changes_targeted_snapshot_only_before_propagation(self):
        ring = Ring(1009)
        spec = montgomery_spec(ring, 3)
        key = KeyBits.from_int(0b10110)
        clean = run_semi_ladder(ring, spec, key, 1)
        plan = FaultPlan(register_faults=(RegisterFault("x", 3, seed=8),))
        faulted = run_semi_ladder(ring, spec, key, 1, plan=plan)
        assert faulted.xs[:2] == clean.xs[:2]
        assert faulted.xs[2] != clean.xs[2]

    def test_stuckat_key_view(self):
        ring = Ring(1009)
        spec = montgomery_spec(ring, 3)
        plan = FaultPlan(key_stuckat=(2, 1))
        forced = run_semi_ladder(ring, spec, KeyBits((0, 0, 0, 0)), 1, plan=plan)
        reference = run_semi_ladder(ring, spec, KeyBits((0, 0, 1, 1)), 1)
        assert forced.xs == reference.xs


@given(
    st.integers(min_value=2, max_value=4000),
    st.integers(min_value=1),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=2**12 - 1),
    st.integers(min_value=0),
)
@settings(max_examples=60)
def test_link_invariant_property(n, a_raw, m_raw, k, x0):
    """Any masked instance keeps y = link(x) at every boundary and mirrors the branching."""
    a = a_raw % n
    if a == 0:
        a = 1
    ring = Ring(n)
    spec = masked_semi_spec(ring, a, m_raw % n)
    key = KeyBits.from_int(k, width=12)
    semi = run_semi_ladder(ring, spec, key, x0 % n)
    assert all(spec.link.eval(ring, x) == y for x, y in zip(semi.xs, semi.ys))
    assert semi.xs == run_branching(ring, spec, key, x0 % n).xs


def test_spec_json_roundtrip():
    ring = Ring(101)
    spec = masked_semi_spec(ring, 5, 17)
    doc = spec_to_json(ring, spec)
    assert doc["n"] == "101"
    assert "g" not in doc
    ring2, spec2 = spec_from_json(doc)
    assert ring2.n == 101
    assert check_semi_equations(spec2, ring2).ok

    full = fully_ladder_spec(Ring(7), ladder_constants(2, 3, 7))
    doc = spec_to_json(Ring(7), full)
    assert "g" in doc
    ring3, spec3 = spec_from_json(doc)
    assert check_fully_equations(spec3, ring3).ok
