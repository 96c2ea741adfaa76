"""Fault-injection attack protocols against the exponentiation and ECC ladders.

Three attacker capabilities are modeled:

1. Register faults only: safe-error probing.  Against the non-coupled
   always-multiply variant every key bit leaks; against half-coupled
   ladders only the trailing constant run of bits (plus the bit that ends
   it) leaks; against fully-coupled ladders a fault disturbs both outputs
   regardless of the bit, so the comparisons carry no information.
2. Register faults plus key stuck-at faults: a descending scan that pins
   every later bit to a known constant before probing, recovering the
   whole key from any half-coupled ladder.
3. Key stuck-at faults alone: differential comparison of two stuck-at
   thresholds, recovering every bit that influences the output, against
   any ladder.

Attack code sees the secret only through an ExecutionOracle; whether a
recovered bit matches the true key is computed by the evaluation harness,
never inside the attack.

The attacks make many calls that differ only in where a fault or a
stuck-at threshold starts, so the exp and ECC oracles checkpoint through
one wrapper, `_resuming_run`: on the first call for an input it keeps
the clean run's register snapshots (an internal run, not counted in
`calls`) and resumes every run at the first iteration its plan touches,
driving the step the oracle built once (`modexp.exp_step`,
`ecc.ecc_step`; sma's takes the plan's y faults, so it is built per call).
It also keeps the outputs of an input's calls without register faults,
which attack 3 repeats: such a plan keeps the link (below), so its
outputs never change.  Register faults are seeded anew on every call.
Semi under fresh masks (exp) or fresh coefficients (ECC) draws once per
iteration from the oracle's RNG.  While the registers keep the ladder's
link, y = a*x or Q = -(P + A), that draw cancels out of every clean step:
a mask multiplies (a*x - y)(x - a*y), a coefficient multiplies
P + Q + A = infinity.  Such an input keeps the snapshots of a zero-mask or
fixed-coefficient run, and each call first replays the draws of the
iterations it does not run, all of them for a call answered from memory.
An input that breaks the link runs in full, every time.  Outputs,
`calls` and the RNG stream are exactly those of full runs.  Under fresh
masks or coefficients the pool inputs attack 3 swaps in leave y0 to the
ladder's link, so the randomness cancels from every output.
"""

import random
from dataclasses import dataclass, replace
from functools import partial

from .ecc import (
    Curve,
    EccLadderParams,
    Point,
    PointOps,
    _draw_semi_coef,
    _fault_hooks,
    _require_on_curve,
    ecc_step,
    find_small_curve,
    fully_params,
    random_point,
    run_ecc_algorithm,
    semi_params,
)
from .errors import Coincidence
from .faults import FaultPlan, RegisterFault
from .ladders import Trace, as_key, drive
from .modarith import Ring
from .modexp import (
    LadderConstants, MaskPolicy, _mod_draw, exp_step, find_ladder_constant, run_exp_algorithm,
)

RETRY_BUDGET = 8
INPUT_POOL = 16


class ExecutionOracle:
    """Runs the target with attacker-chosen inputs and fault plan.

    Readability of the two outputs is an explicit capability: an
    unreadable register comes back as None.  The wrapped closure owns the
    secret key; nothing else about it is exposed.
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
    fresh = algo == "semi" and mask is not None and mask.mode == "fresh"
    ring, draw, key = Ring(n), _mod_draw(n), as_key(bits).bits
    kept = None if algo in ("sm", "sma") else exp_step(algo, a, n, ring, constants=constants,
                                                      mask=mask, rng=rng)[0]

    def run(plan=None, x0=None, y0=None, trace=None, mask=mask):
        # a closure, not a partial, which would merge its keywords anew on every short call
        return run_exp_algorithm(algo, a, bits, n, x0=x0, y0=y0, plan=plan, trace=trace,
                                 constants=constants, mask=mask, rng=rng)

    def resume(plan, i, x, y):
        step = kept
        if step is None:  # sma's step takes the plan's y faults, and sm refuses any plan
            step, _, _, plan = exp_step(algo, a, n, ring, plan=plan, i0=i)
        return drive(key, x, y, step, plan=plan, draw=draw, i0=i)

    def skip(k):  # the masks of k skipped iterations
        for _ in range(k):
            rng.randrange(n)

    return _resuming_run(len(key), run, partial(run, mask=MaskPolicy.zero()) if fresh else run,
                         resume, skip if fresh else None)


def _resuming_run(nbits, run, clean, resume, skip):
    """`run(x_init, y_init, plan)` giving a full run's outputs and RNG use.

    `run(plan=, x0=, y0=)` runs the target in full, `resume(plan, i, x, y)`
    runs it after iteration i from registers (x, y), and
    `clean(x0=, y0=, trace=)` traces a clean run that draws nothing.  `skip`
    is None for a target that draws nothing per iteration; otherwise
    `skip(k)` replays the draws of k iterations, and only an input whose
    y0 is the ladder's link (None, or what `clean` starts from for
    y0=None) resumes; any other runs in full.  A plan changes nothing
    before its first divergent iteration d, so a call resumes from
    snapshot d - 1 of the input's clean run.  A plan without register
    faults keeps the link, so its outputs are fixed: they are kept per
    input and plan, and a repeated call only replays its nbits draws.
    """
    inputs = {}

    def resumed(x_init, y_init, plan):
        key = (x_init, y_init)
        if key not in inputs:
            trace = Trace()
            clean(x0=x_init, y0=None if skip else y_init, trace=trace)
            linked = skip is None or y_init is None or y_init == trace.ys[0]
            inputs[key] = (trace.snapshots(), {}) if linked else None
        if inputs[key] is None:
            return run(plan=plan, x0=x_init, y0=y_init)
        states, outputs = inputs[key]
        keep = plan is None or not plan.register_faults  # a register fault is seeded anew per call
        if keep and plan in outputs:
            if skip is not None:
                skip(nbits)
            return outputs[plan]
        d = nbits + 1
        if plan is not None:
            plan.validate(nbits)
            d = plan.first_divergent(nbits)
        if skip is not None:
            skip(d - 1)
        out = states[nbits] if d > nbits else resume(plan, d - 1, *states[d - 1])
        if keep:
            outputs[plan] = out
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
    if fresh_coef and algo != "semi":
        raise ValueError("fresh coefficients only apply to the half-coupled ladder")
    bits = as_key(key)
    rng = random.Random(seed)
    order = curve.subgroup_order
    if params is None:
        if algo == "semi":
            params = semi_params(3, order)
        elif algo == "fully":
            params = fully_params(3, order)

    def sample_input(r):
        # under fresh coefficients y0 is left to semi's link Q = -(P + A), so they cancel
        return random_point(curve, r), (None if fresh_coef else random_point(curve, r))

    run = _ecc_run(algo, curve, A, bits, params, fresh_coef, rng)
    return ExecutionOracle(run, len(bits), sample_input, readable)


def _ecc_run(algo, curve, A, bits, params, fresh_coef, rng):
    """The ECC oracle's `run`; fixed-coefficient clean runs equal fresh ones while Q = -(P + A)."""
    run = partial(run_ecc_algorithm, algo, curve, A, bits, params=params)
    fresh = partial(run, fresh_coef=fresh_coef, rng=rng)
    key, (draw, check) = as_key(bits).bits, _fault_hooks(curve)
    kept = None
    if algo != "daa":
        _require_on_curve(curve, A)
        kept = ecc_step(algo, PointOps(curve), A, params, fresh_coef, rng)[0]

    def resume(plan, i, P, Q):
        if kept is None:  # double-and-add refuses any plan
            return fresh(plan=plan, start=(i, P, Q))
        return drive(key, P, Q, kept, plan=plan, draw=draw, check=check, i0=i)

    def skip(k):  # the coefficients of k skipped iterations
        for _ in range(k):
            _draw_semi_coef(params.order, rng)

    return _resuming_run(len(key), fresh, run, resume, skip if fresh_coef else None)


@dataclass(frozen=True)
class AttackReport:
    """Per-iteration recovered bits: 0, 1, or None for unknown.

    matches_true_key stays None inside the attacker boundary; only
    evaluate_report fills it in.
    """

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


def _probe_differs(oracle, base_plan, target, iteration, read_idx, rng, attempts):
    """True iff faulting `target` before `iteration` can change the read output.

    The no-change direction is deterministic (the fault provably never
    reaches the read register), so one clean run is compared against up to
    `attempts` fresh faulted runs; any difference settles the probe.
    """
    clean = oracle.exe(plan=base_plan)
    for _ in range(attempts):
        faults = base_plan.register_faults + (_fault(target, iteration, rng),)
        faulted = oracle.exe(plan=replace(base_plan, register_faults=faults))
        if faulted[read_idx] != clean[read_idx]:
            return True
    return False


def attack1_safe_error_nonladder(
    oracle: ExecutionOracle, rng: random.Random | None = None, attempts: int = RETRY_BUDGET
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
        recovered.append(1 if _probe_differs(oracle, empty, "y", i, 0, rng, attempts) else 0)
    return AttackReport(tuple(recovered), oracle.calls - start)


def _scan_trailing(oracle, probe_target, read_idx, equal_bit, rng, attempts):
    """Scan bits from the last iteration downward while they equal `equal_bit`.

    Faulting the opposite register leaves the read output unchanged
    exactly while the bit equals `equal_bit`; the first flip is recorded
    and ends the scan, because past it the fault reaches both registers
    for either bit value.
    """
    found = {}
    empty = FaultPlan()
    for i in range(oracle.nbits, 0, -1):
        if _probe_differs(oracle, empty, probe_target, i, read_idx, rng, attempts):
            found[i] = 1 - equal_bit
            break
        found[i] = equal_bit
    return found


def attack1_trailing_bits(
    oracle: ExecutionOracle,
    readable: str = "both",
    rng: random.Random | None = None,
    attempts: int = RETRY_BUDGET,
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
        views.append(_scan_trailing(oracle, "y", 0, 0, rng, attempts))
    if "y" in want:
        # fault x, watch y: unchanged y means the fault stayed in x (bit 1)
        views.append(_scan_trailing(oracle, "x", 1, 1, rng, attempts))
    recovered = [None] * oracle.nbits
    for i in range(1, oracle.nbits + 1):
        values = {v[i] for v in views if i in v}
        if len(values) == 1:
            recovered[i - 1] = values.pop()
    return AttackReport(tuple(recovered), oracle.calls - start)


def attack2_semi(
    oracle: ExecutionOracle, rng: random.Random | None = None, attempts: int = RETRY_BUDGET
) -> AttackReport:
    """Descending stuck-at scan that breaks any half-coupled ladder completely.

    Walking i from the last iteration to the first, all later bits are
    pinned to the value of the bit just recovered, which keeps the fault
    confined to one register: pinned-0 tails never move a y fault into x,
    pinned-1 tails never move an x fault into y.  The state machine flips
    whenever the watched output changes.
    """
    if not {"x", "y"} <= oracle.readable:
        raise ValueError("this attack reads both outputs")
    rng = rng or random.Random(0)
    start = oracle.calls
    recovered = [None] * oracle.nbits
    fix = 0  # 1 while probing inside a pinned-1 tail
    for i in range(oracle.nbits, 0, -1):
        if fix:
            base = FaultPlan(key_stuckat=(i, 1))
            if not _probe_differs(oracle, base, "x", i, 1, rng, attempts):
                recovered[i - 1] = 1
            else:
                recovered[i - 1] = 0
                fix = 0
        else:
            base = FaultPlan(key_stuckat=(i, 0))
            if not _probe_differs(oracle, base, "y", i, 0, rng, attempts):
                recovered[i - 1] = 0
            else:
                recovered[i - 1] = 1
                fix = 1
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
        for x0, y0 in inputs:
            out_i = oracle.exe(x0, y0, FaultPlan(key_stuckat=(i, 0)))
            out_next = oracle.exe(x0, y0, FaultPlan(key_stuckat=(i + 1, 0)))
            if out_i != out_next:
                recovered[i] = 1
                break
            out_i = oracle.exe(x0, y0, FaultPlan(key_stuckat=(i, 1)))
            out_next = oracle.exe(x0, y0, FaultPlan(key_stuckat=(i + 1, 1)))
            if out_i != out_next:
                recovered[i] = 0
                break
    return AttackReport(tuple(recovered), oracle.calls - start)


def fault_propagation_probe(
    traced_run,
    register: str,
    iteration: int,
    rng: random.Random | None = None,
    attempts: int = RETRY_BUDGET,
) -> set:
    """Registers whose snapshot after `iteration` differs once `register` is faulted.

    traced_run(plan) must return a Trace.  Retries with fresh fault values
    when nothing changed downstream; raises Coincidence past the budget.
    """
    if register not in ("x", "y"):
        raise ValueError("register must be 'x' or 'y'")
    rng = rng or random.Random(0)
    clean = traced_run(None)
    for _ in range(attempts):
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
        f"fault on {register} at iteration {iteration} never propagated in {attempts} tries"
    )


EXP_TARGETS = ("sma", "montgomery", "semi", "fully")
ECC_TARGETS = ("ecc-semi", "ecc-fully")


def make_oracle_for_target(
    target: str,
    key,
    *,
    seed: int = 0,
    readable=("x", "y"),
    a: int = 7,
    n: int = 1_000_003,
    curve_bundle=None,
) -> ExecutionOracle:
    """Build the standard oracle used by the CLI and the evaluation harness."""
    if target in EXP_TARGETS:
        return make_exp_oracle(target, a, n, key, seed=seed, readable=readable)
    if target in ECC_TARGETS:
        if curve_bundle is None:
            curve_bundle = find_small_curve()
        curve, A, _ = curve_bundle
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
