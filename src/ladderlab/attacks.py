"""Fault-injection attack protocols against the exponentiation and ECC ladders.

Three attacker capabilities are modeled: register faults alone (safe-error
probing, `attack1_*`), register faults plus key stuck-at faults
(`attack2_semi`), and stuck-at faults alone (`attack3_stuckat`).  Attack
code sees the secret only through an `ExecutionOracle`.

An oracle call's outputs, `calls` and RNG stream are those of a full run,
however much of it `_resuming_run` skips.  Only the two-register targets
have oracles: building one for square-and-multiply or double-and-add
raises ValueError.  Both oracles build their runs with `modexp.exp_step`
or `ecc.ecc_step`; the ECC oracle runs on `ecc.oracle_ops(curve)`.
"""

import random
from dataclasses import dataclass, replace
from itertools import product

from .ecc import (
    Curve, EccLadderParams, Point, ecc_step, enter_run, find_small_curve, fully_params, oracle_ops,
)
from .errors import Coincidence
from .faults import FaultPlan, RegisterFault
from .ladders import Trace, as_key, drive
from .modexp import LadderConstants, MaskPolicy, exp_step, find_ladder_constant

RETRY_BUDGET = 8
INPUT_POOL = 16


class ExecutionOracle:
    """Runs the target with attacker-chosen inputs and fault plan.

    Readability of the two outputs is an explicit capability: an
    unreadable register comes back as None.
    """

    def __init__(self, run, nbits, sample_input, readable=("x", "y")):
        self._run = run
        self.nbits = nbits
        self.readable = frozenset(readable)
        self.sample_input = sample_input
        self.calls = 0

    def exe(self, x_init=None, y_init=None, plan: FaultPlan | None = None):
        self.calls += 1
        x, y = self._run(x_init, y_init, plan)
        return (
            x if "x" in self.readable else None,
            y if "y" in self.readable else None,
        )


def make_exp_oracle(
    algo: str,
    a: int,
    n: int,
    key,
    *,
    seed: int = 0,
    readable=("x", "y"),
    mask: MaskPolicy | None = None,
    constants: LadderConstants | None = None,
) -> ExecutionOracle:
    """Oracle around one of the exponentiation variants, key captured inside; runs resume."""
    bits = as_key(key)
    rng = random.Random(seed)
    if algo == "fully" and constants is None:
        constants = find_ladder_constant(a, n, rng)
    if algo == "semi" and mask is None:
        mask = MaskPolicy.fresh()

    fresh = algo == "semi" and mask.mode == "fresh"

    def sample_input(r):
        # under fresh masks y0 is left to the link y = a*x, so the masks cancel
        return r.randrange(1, n), (None if fresh else r.randrange(1, n))

    run = _exp_run(algo, a, n, bits, constants, mask, rng)
    return ExecutionOracle(run, len(bits), sample_input, readable)


def _exp_run(algo, a, n, bits, constants, mask, rng):
    """The exp oracle's `run`; zero-mask clean runs equal fresh-mask ones while y = a*x."""
    clean_mask = MaskPolicy.zero() if mask is not None and mask.mode == "fresh" else mask

    def build(plan, x0=None, y0=None, clean=False):
        return exp_step(algo, a, n, None, x0=x0, y0=y0, plan=plan, constants=constants,
                        mask=clean_mask if clean else mask, rng=rng)

    return _resuming_run(as_key(bits).bits, build)


def _resuming_run(key, build):
    """The oracle's `run(x_init, y_init, plan)`, resumed from kept clean runs.

    `build(plan, x0=, y0=, clean=)` gives the `ladders.Target` of a run on
    the key bits `key`; `clean=True` swaps a fresh draw for the constant
    that cancels from every clean step.  `kept`, built once, drives every
    resumed call (through `kept.takes` for a plan with register faults).

    The first call for an input keeps the snapshots of its clean run, which
    is not counted.  A call first drops, unpicked, the register faults that
    no output can see (`kept.seen`: a y fault that sma's next 0 bit
    overwrites).  It resumes from snapshot d - 1: d is its first register
    fault or, for a stuck-at (t, b), the first iteration j > t whose key
    bit is not b.  A plan without register faults keeps the link and reads
    bits fixed by (j, b), so its outputs are kept per input under (j, b);
    register faults are seeded anew per call and never kept.  With
    `kept.tail`, a stuck-at (t, b) call drives up to max(t, last register
    fault) only and gives `kept.tail` the rest, which replays the draws of
    the iterations it answers.

    With `kept.fresh`, each call replays the draws of the iterations before
    its resume point, or of all of them when answered from memory.  Semi's
    fresh draw cancels from a step while y = a*x or Q = -(P + A): a mask
    multiplies (a*x - y)(x - a*y), a coefficient P + Q + A = infinity.  So
    only an input whose y0 is that link (None, or the clean run's y0 for
    y0=None) resumes; any other runs in full.
    """
    kept, nbits = build(FaultPlan()), len(key)
    fresh = kept.fresh
    # diverge[b][t]: the first iteration after t whose key bit is not b, nbits + 1 if none
    diverge = ([nbits + 1] * (nbits + 1), [nbits + 1] * (nbits + 1))
    for t in reversed(range(nbits)):
        bit = key[t]
        diverge[bit][t], diverge[1 - bit][t] = diverge[bit][t + 1], t + 1
    inputs = {}

    def run(target, trace=None):
        return drive(key, target.x, target.y, target.step, plan=target.plan, draw=target.draw,
                     trace=trace)

    def skip(k):  # the draws of k skipped iterations
        for _ in range(k):
            fresh()

    def resumed(x_init, y_init, plan):
        if plan is not None:
            plan.validate(nbits)
            if plan.register_faults and kept.seen is not None:
                plan = kept.seen(plan, key)
        start = (x_init, y_init)
        if start not in inputs:
            trace = Trace()
            run(build(None, x0=x_init, y0=None if fresh else y_init, clean=True), trace)
            linked = fresh is None or y_init is None or y_init == trace.ys[0]
            inputs[start] = (trace.snapshots(), {}) if linked else None
        kept_input = inputs[start]
        if kept_input is None:
            return run(build(plan, x0=x_init, y0=y_init))
        states, outputs = kept_input
        j, b, faults = nbits + 1, None, ()
        if plan is not None:
            # sma applies its y faults inside the step, so they come from the plan as given
            if plan.register_faults:
                faults = [f.iteration for f in plan.register_faults]
            if plan.key_stuckat is not None:
                t, b = plan.key_stuckat
                j = diverge[b][t]
        if not faults and (j > nbits or (j, b) in outputs):
            if fresh is not None:
                skip(nbits)
            return states[nbits] if j > nbits else outputs[j, b]
        d = min([j, *faults])
        if fresh is not None:
            skip(d - 1)
        step, rest = kept.step, plan
        if faults and kept.takes is not None:
            step, rest = kept.takes(plan, d - 1)
        if b is not None and kept.tail is not None:
            last = max(d - 1, t, *faults)  # every later iteration reads b and takes no fault
            x, y = drive(key, *states[d - 1], step, plan=rest, draw=kept.draw, i0=d - 1, stop=last)
            out = kept.tail(b, nbits - last, x, y)
        else:
            out = drive(key, *states[d - 1], step, plan=rest, draw=kept.draw, i0=d - 1)
        if not faults:  # a register fault is seeded anew per call
            outputs[j, b] = out
        return out

    return resumed


def make_ecc_oracle(
    algo: str,
    curve: Curve,
    A: Point,
    key,
    *,
    params: EccLadderParams | None = None,
    seed: int = 0,
    readable=("x", "y"),
    fresh_coef: bool = False,
) -> ExecutionOracle:
    """Oracle around one of the scalar-multiplication ladders; runs resume."""
    bits = as_key(key)
    rng = random.Random(seed)
    if params is None and algo == "fully":
        if curve.subgroup_order is None:
            raise ValueError("curve has no recorded subgroup order")
        params = fully_params(3, curve.subgroup_order)

    ops = oracle_ops(curve)

    def draw(r):  # `random_point`'s point, drawn in the oracle's group
        return ops.leave(ops.draw(r))

    def sample_input(r):
        # under fresh coefficients y0 is left to semi's link Q = -(P + A), so they cancel
        return draw(r), (None if fresh_coef else draw(r))

    run = _ecc_run(algo, curve, A, bits, params, fresh_coef, rng)
    return ExecutionOracle(run, len(bits), sample_input, readable)


def _ecc_run(algo, curve, A, bits, params, fresh_coef, rng):
    """The ECC oracle's `run`; fixed-coefficient clean runs equal fresh ones while Q = -(P + A)."""
    ops = oracle_ops(curve)
    A, leave = ops.enter(A), ops.leave

    def build(plan, x0=None, y0=None, clean=False):
        return ecc_step(algo, ops, A, params, fresh_coef and not clean, rng, x0=x0, y0=y0, plan=plan)

    resumed = _resuming_run(as_key(bits).bits, build)

    def run(x_init, y_init, plan):
        # most calls take the default input and a stuck-at alone, and enter nothing
        if x_init is not None or y_init is not None or plan is not None and plan.register_faults:
            x_init, y_init, plan = enter_run(ops, x_init, y_init, plan)
        x, y = resumed(x_init, y_init, plan)
        return leave(x), leave(y)

    return run


@dataclass(frozen=True)
class AttackReport:
    """Per-iteration recovered bits: 0, 1, or None for unknown; `evaluate_report` scores them."""

    recovered: tuple
    oracle_calls: int
    matches_true_key: tuple | None = None

    def claimed(self) -> int:
        return sum(1 for b in self.recovered if b is not None)


def evaluate_report(report: AttackReport, true_key) -> AttackReport:
    """Harness-side scoring; the only place the true key meets a report."""
    bits = as_key(true_key).bits
    matches = tuple(
        None if r is None else (r == b) for r, b in zip(report.recovered, bits)
    )
    return replace(report, matches_true_key=matches)


def _fault(target: str, iteration: int, rng: random.Random) -> RegisterFault:
    return RegisterFault(target, iteration, seed=rng.getrandbits(64))


def _probe_differs(oracle, base_plan, target, iteration, read_idx, rng):
    """True iff faulting `target` before `iteration` can change the read output.

    The no-change direction is deterministic (the fault provably never
    reaches the read register), so one clean run is compared against up to
    `RETRY_BUDGET` fresh faulted runs; any difference settles the probe.
    """
    clean = oracle.exe(plan=base_plan)
    for _ in range(RETRY_BUDGET):
        faults = base_plan.register_faults + (_fault(target, iteration, rng),)
        faulted = oracle.exe(plan=FaultPlan(faults, base_plan.key_stuckat))
        if faulted[read_idx] != clean[read_idx]:
            return True
    return False


def attack1_safe_error_nonladder(
    oracle: ExecutionOracle, rng: random.Random | None = None
) -> AttackReport:
    """Safe-error probing of the always-multiply variant: every bit leaks.

    The dummy register receives the multiplier output whenever the bit is
    0, so a fault there alters the final x only when the bit is 1.
    """
    if "x" not in oracle.readable:
        raise ValueError("this attack reads the x output")
    rng = rng or random.Random(0)
    start = oracle.calls
    recovered = []
    empty = FaultPlan()
    for i in range(1, oracle.nbits + 1):
        recovered.append(1 if _probe_differs(oracle, empty, "y", i, 0, rng) else 0)
    return AttackReport(tuple(recovered), oracle.calls - start)


def _scan_trailing(oracle, probe_target, read_idx, equal_bit, rng):
    """Scan bits from the last iteration downward while they equal `equal_bit`.

    Faulting the opposite register leaves the read output unchanged
    exactly while the bit equals `equal_bit`; the first flip is recorded
    and ends the scan, because past it the fault reaches both registers
    for either bit value.
    """
    found = {}
    empty = FaultPlan()
    for i in range(oracle.nbits, 0, -1):
        if _probe_differs(oracle, empty, probe_target, i, read_idx, rng):
            found[i] = 1 - equal_bit
            break
        found[i] = equal_bit
    return found


def attack1_trailing_bits(
    oracle: ExecutionOracle,
    readable: str = "both",
    rng: random.Random | None = None,
) -> AttackReport:
    """Safe-error probing of a half-coupled ladder: only trailing bits leak.

    Reading x supports scanning a trailing run of 0s (ended by one 1);
    reading y supports scanning a trailing run of 1s (ended by one 0).
    With both outputs the two views are merged; on a fully-coupled target
    they contradict each other at the last bit and nothing is claimed.
    """
    want = {"x": ("x",), "y": ("y",), "both": ("x", "y")}[readable]
    missing = set(want) - oracle.readable
    if missing:
        raise ValueError(f"oracle cannot read {sorted(missing)}")
    rng = rng or random.Random(0)
    start = oracle.calls
    views = []
    if "x" in want:
        # fault y, watch x: unchanged x means the fault stayed in y (bit 0)
        views.append(_scan_trailing(oracle, "y", 0, 0, rng))
    if "y" in want:
        # fault x, watch y: unchanged y means the fault stayed in x (bit 1)
        views.append(_scan_trailing(oracle, "x", 1, 1, rng))
    recovered = [None] * oracle.nbits
    for i in range(1, oracle.nbits + 1):
        values = {v[i] for v in views if i in v}
        if len(values) == 1:
            recovered[i - 1] = values.pop()
    return AttackReport(tuple(recovered), oracle.calls - start)


def attack2_semi(oracle: ExecutionOracle, rng: random.Random | None = None) -> AttackReport:
    """Descending stuck-at scan that breaks any half-coupled ladder completely.

    Walking i from the last iteration to the first, every bit after i is
    pinned to `fix`, the bit recovered last (0 at the start), and register
    "yx"[fix] is faulted before iteration i: a pinned-0 tail never moves a
    y fault into x, a pinned-1 tail never an x fault into y.  Output `fix`
    then moves exactly when bit i is not `fix`, so `fix` flips when it
    moves, and bit i is recorded as `fix`.
    """
    if not {"x", "y"} <= oracle.readable:
        raise ValueError("this attack reads both outputs")
    rng = rng or random.Random(0)
    start = oracle.calls
    recovered = [None] * oracle.nbits
    fix = 0
    for i in range(oracle.nbits, 0, -1):
        base = FaultPlan(key_stuckat=(i, fix))
        if _probe_differs(oracle, base, "yx"[fix], i, fix, rng):
            fix = 1 - fix
        recovered[i - 1] = fix
    return AttackReport(tuple(recovered), oracle.calls - start)


def attack3_stuckat(
    oracle: ExecutionOracle,
    rng: random.Random | None = None,
    pool_size: int = INPUT_POOL,
) -> AttackReport:
    """Ascending stuck-at differential: works against every ladder kind.

    Bit i+1 is read off by comparing runs whose stuck-at thresholds differ
    by one position: if pinning from i versus i+1 changes any readable
    output under the all-0 hypothesis the bit is 1, under the all-1
    hypothesis it is 0.  When both hypotheses collide the inputs are
    swapped for fresh ones; a bit no input can resolve is left unknown
    (it does not influence the result).
    """
    rng = rng or random.Random(0)
    start = oracle.calls
    recovered = [None] * oracle.nbits
    inputs = [(None, None)] + [oracle.sample_input(rng) for _ in range(pool_size - 1)]
    for i in range(oracle.nbits):
        for (x0, y0), b in product(inputs, (0, 1)):
            out_i = oracle.exe(x0, y0, FaultPlan(key_stuckat=(i, b)))
            if out_i != oracle.exe(x0, y0, FaultPlan(key_stuckat=(i + 1, b))):
                recovered[i] = 1 - b
                break
    return AttackReport(tuple(recovered), oracle.calls - start)


def fault_propagation_probe(
    traced_run,
    register: str,
    iteration: int,
    rng: random.Random | None = None,
) -> set:
    """Registers whose snapshot after `iteration` differs once `register` is faulted.

    traced_run(plan) must return a Trace.  Retries with fresh fault values
    when nothing changed downstream; raises Coincidence past the budget.
    """
    if register not in ("x", "y"):
        raise ValueError("register must be 'x' or 'y'")
    rng = rng or random.Random(0)
    clean = traced_run(None)
    for _ in range(RETRY_BUDGET):
        plan = FaultPlan(register_faults=(_fault(register, iteration, rng),))
        faulted = traced_run(plan)
        diff = set()
        if faulted.xs[iteration] != clean.xs[iteration]:
            diff.add("x")
        if faulted.ys[iteration] != clean.ys[iteration]:
            diff.add("y")
        if diff:
            return diff
    raise Coincidence(
        f"fault on {register} at iteration {iteration} never propagated in {RETRY_BUDGET} tries"
    )


EXP_TARGETS = ("sma", "montgomery", "semi", "fully")
ECC_TARGETS = ("ecc-semi", "ecc-fully")


def make_oracle_for_target(
    target: str,
    key,
    *,
    seed: int = 0,
    readable=("x", "y"),
    n: int = 1_000_003,
    curve_bundle=None,
) -> ExecutionOracle:
    """Build the standard oracle used by the CLI and the evaluation harness."""
    if target in EXP_TARGETS:
        return make_exp_oracle(target, 7, n, key, seed=seed, readable=readable)
    if target in ECC_TARGETS:
        curve, A, _ = curve_bundle or find_small_curve()
        algo = target.split("-", 1)[1]
        return make_ecc_oracle(algo, curve, A, key, seed=seed, readable=readable)
    raise ValueError(f"unknown target {target!r}")


def run_attack(
    model: int,
    target: str,
    oracle: ExecutionOracle,
    rng: random.Random,
    readable: str = "both",
) -> AttackReport:
    """Dispatch the protocol for `model`; model 1 picks its variant by target kind."""
    if model == 1:
        if target == "sma":
            return attack1_safe_error_nonladder(oracle, rng)
        return attack1_trailing_bits(oracle, readable, rng)
    if model == 2:
        return attack2_semi(oracle, rng)
    if model == 3:
        return attack3_stuckat(oracle, rng)
    raise ValueError("model must be 1, 2 or 3")
