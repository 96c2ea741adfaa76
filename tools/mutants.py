"""Mutation gate: each listed mutant must be killed by the tests named for it.

    python tools/mutants.py

A mutant replaces one text, which must occur exactly once, in one file under
src/ladderlab/.  It is applied to a temporary copy of src/, tests/ and
pyproject.toml, never in place, and pytest runs its named node ids there with
`--hypothesis-seed=0`.  A mutant is killed when pytest exits with code 1 and
every named node id failed; exit code 2 or more means the mutant or a node id
is broken, which is no kill.  A mutant listed with `survives=True` is a known
gap: its tests must pass.

The gate fails, exit code 1, when an anchor text does not occur exactly once,
an unlisted mutant survives, a named test does not fail, a pytest run breaks,
or a listed survivor is killed.  Standard library only.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # under src/ladderlab/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids that must fail
    survives: bool = False


MUTANTS = (
    Mutant("mod-floor-quotient", "sweeps.py", "    return v - v // n * n\n", "    return v // n\n",
           ("tests/test_sweeps.py::test_mod_is_the_canonical_residue",
            "tests/test_sweeps.py::test_constant_tables_match_scalar_predicate")),
    Mutant("mod-off-by-n", "sweeps.py", "    return v - v // n * n\n", "    return v - v // n * n + n\n",
           ("tests/test_sweeps.py::test_mod_is_the_canonical_residue",)),
    Mutant("xy-coef-unreduced", "sweeps.py",
           "return (a, ell, _mod(_mod(inv[ell] * u2, n) * v3, n),",
           "return (a, ell, _mod(inv[ell] * u2, n) * v3,",
           ("tests/test_sweeps.py::test_constant_tables_match_scalar_predicate",)),
    Mutant("semi-grids-e1-twice", "sweeps.py", "    return e1, fval != theta\n", "    return e1, e1\n",
           ("tests/test_sweeps.py::test_unit_column_and_full_grid_give_the_same_lists[broken-sq-coef]",
            "tests/test_sweeps.py::test_unit_column_and_full_grid_give_the_same_lists[broken-sync-coefs]")),
    Mutant("attack2-probes-the-read-register", "attacks.py",
           '_probe_differs(oracle, base, "yx"[fix], i, fix, rng)',
           '_probe_differs(oracle, base, "xy"[fix], i, fix, rng)',
           ("tests/test_attacks.py::TestAttack2::test_full_recovery[semi]",
            "tests/test_attack_goldens.py::test_attack_matches_golden[m2-montgomery-16]")),
    Mutant("attack3-tries-one-first", "attacks.py", "product(inputs, (0, 1))", "product(inputs, (1, 0))",
           ("tests/test_attack_goldens.py::test_attack_matches_golden[m3-fully-16]",
            "tests/test_attack_goldens.py::test_attack_matches_golden[m3-ecc-semi-16]")),
    Mutant("attack3-records-the-hypothesis", "attacks.py", "recovered[i] = 1 - b", "recovered[i] = b",
           ("tests/test_attacks.py::TestAttack3::test_full_recovery[sma]",
            "tests/test_attacks.py::TestAttack3::test_single_bit_key")),
    Mutant("tallied-keeps-running-totals", "ladders.py", "per_iter.append(counts - before)",
           "per_iter.append(counts.copy())",
           ("tests/test_modexp.py::TestCostPerBit::test_reference_costs",
            "tests/test_modexp_goldens.py::test_runner_matches_golden[fully-n1000003-none]")),
    Mutant("log-order-one-too-large", "ecc.py", "        self.order = len(mults)\n",
           "        self.order = len(mults) + 1\n",
           ("tests/test_ecc.py::TestLogTable::test_every_pair",
            "tests/test_ecc.py::TestFullyLadder::test_against_oracle_with_invariant")),
    Mutant("point-ops-cmul-one-doubling-short", "ecc.py", "self.doubles += abs(c).bit_length()\n",
           "self.doubles += abs(c).bit_length() - 1\n",
           ("tests/test_ecc.py::TestLogTable::test_other_curves_take_the_affine_law[curve0]",
            "tests/test_ecc_goldens.py::test_runner_matches_golden[fully-k12-none]",
            "tests/test_cli_goldens.py::test_cli_matches_golden[readme-ecc-fully]")),
    Mutant("affine-cmul-without-negation", "ecc.py", "c, P = -c, self.neg(P)", "c, P = -c, P",
           ("tests/test_ecc.py::TestLogTable::test_other_curves_take_the_affine_law[curve0]",
            "tests/test_ecc.py::TestLogTable::test_other_curves_take_the_affine_law[curve1]",
            "tests/test_ecc.py::TestLogTable::test_largest_tabulated_field")),
    Mutant("trace-ys-left-in-the-group", "ecc.py", "map(leave, trace.ys)", "trace.ys",
           ("tests/test_ecc.py::TestMontgomeryLadder::test_against_oracle_with_invariant",
            "tests/test_differential.py::test_ecc_ladders_agree_across_group_law_routes",
            "tests/test_cli_goldens.py::test_cli_matches_golden[ecc-trace-montgomery]")),
    Mutant("constant-scan-despite-gcd", "modexp.py", "    if gcd(n, 6) > 1:\n", "    if False:\n",
           ("tests/test_modexp.py::TestFindLadderConstant::test_no_scan_when_gcd_with_six_exceeds_one[1048576]",
            "tests/test_modexp.py::TestFindLadderConstant::test_no_scan_when_gcd_with_six_exceeds_one[1048575]",
            "tests/test_modexp.py::TestFindLadderConstant::test_failed_draws_above_the_scan_limit_claim_no_absence")),
    Mutant("constant-scan-deleted", "modexp.py", "    if n <= DEFAULT_SWEEP_LIMIT:\n", "    if False:\n",
           ("tests/test_modexp.py::TestFindLadderConstant::test_failed_draws_below_the_scan_limit_fall_back_to_the_scan",)),
    Mutant("tail-replays-one-draw-short", "modexp.py", "for _ in range(k):\n                fresh()",
           "for _ in range(k - 1):\n                fresh()",
           ("tests/test_resume.py::test_checkpointed_oracle_equals_full_runs",
            "tests/test_resume.py::test_repeated_calls_equal_full_runs[semi-fresh]",
            "tests/test_resume.py::test_exp_tail_equals_driven_steps[semi-fresh]")),
    Mutant("linked-tail-off-the-link", "modexp.py",
           "        if (y - s * x) % n:\n            return unlinked(bit, k, x, y)\n", "",
           ("tests/test_resume.py::test_exp_tail_equals_driven_steps[fully-None]",
            "tests/test_resume.py::test_exp_tail_equals_driven_steps[semi-fresh]",
            "tests/test_resume.py::test_a_fault_at_the_threshold_drives_one_step_then_the_link_decides[semi]")),
    Mutant("unlinked-semi-mask-term-sign", "modexp.py", "(a * x - y)", "(a * x + y)",
           ("tests/test_resume.py::test_exp_tail_equals_driven_steps[semi-fixed:3]",
            "tests/test_resume.py::test_exp_tail_equals_driven_steps[semi-fresh]",
            "tests/test_resume.py::test_a_fault_at_the_threshold_drives_one_step_then_the_link_decides[semi]")),
    Mutant("bit-one-tail-one-multiply-too-many", "modexp.py", "pow(a, e - 1, n)", "pow(a, e, n)",
           ("tests/test_resume.py::test_exp_tail_equals_driven_steps[sma-None]",
            "tests/test_resume.py::test_exp_tail_equals_driven_steps[semi-zero]",
            "tests/test_attack_goldens.py::test_attack_matches_golden[m3-sma-16]")),
    Mutant("counted-run-gets-a-tail", "modexp.py", "tail=tail if ops is None else None)", "tail=tail)",
           ("tests/test_resume.py::test_exp_tail_is_set_only_on_straight_line_two_register_steps",)),
    Mutant("resume-from-snapshot-d", "attacks.py", "x, y = drive(key, *states[d - 1], step",
           "x, y = drive(key, *states[d], step",
           ("tests/test_resume.py::test_checkpointed_oracle_equals_full_runs",)),
    Mutant("resume-skips-one-draw-short", "attacks.py", "skip(d - 1)", "skip(d - 2)",
           ("tests/test_resume.py::test_checkpointed_oracle_equals_full_runs",)),
    Mutant("divergence-one-late", "attacks.py", "diverge[bit][t + 1], t + 1", "diverge[bit][t + 1], t + 2",
           ("tests/test_resume.py::test_checkpointed_oracle_equals_full_runs",)),
    Mutant("seen-drops-the-last-zero-bit", "modexp.py", " or f.iteration >= last)", ")",
           ("tests/test_resume.py::test_sma_fault_stops_at_the_next_zero_bit",
            "tests/test_resume.py::test_repeated_calls_equal_full_runs[sma-None]",
            "tests/test_resume.py::test_fixed_sequence_equals_full_runs[sma-None-default]",
            "tests/test_attack_goldens.py::test_attack_matches_golden[m1-sma-16]")),
    Mutant("seen-reads-the-key-bits", "modexp.py", "read = list(plan.effective_bits(bits))",
           "read = list(bits)",
           ("tests/test_resume.py::test_sma_fault_stops_at_the_next_zero_bit",
            "tests/test_resume.py::test_a_fault_at_the_threshold_drives_one_step_then_the_link_decides[sma]")),
    Mutant("sampled-frequency-without-redraw", "residues.py", "while ell == a:", "while False:",
           ("tests/test_residues.py::TestRsaProbability::test_sampled_frequency_redraws_a_constant_equal_to_the_base",)),
    Mutant("prob-moduli-as-ints", "cli.py", "**{name: str(getattr(args, name)) for name in names}",
           "**{name: getattr(args, name) for name in names}",
           ("tests/test_cli.py::test_prob_header_and_stdout_are_exact[dsa-formula-json]",
            "tests/test_cli.py::test_prob_header_and_stdout_are_exact[rsa-bound-json]")),
)

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def _copy(work: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(work, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)


def _env(work: str) -> dict:
    # the copy's package comes first on the path, and no stale bytecode outlives a mutation
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([sys.executable, "-c", "import ladderlab; print(ladderlab.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True, check=True)
    if not probe.stdout.strip().startswith(os.path.realpath(work)):
        raise SystemExit(f"the tests would import {probe.stdout.strip()}, not the copy in {work}")
    return env


def run(mutant: Mutant, work: str, env: dict) -> str | None:
    """Apply `mutant` in `work`, run its tests and restore the file; None, or why the gate fails."""
    path = os.path.join(work, "src", "ladderlab", mutant.path)
    with open(path) as f:
        source = f.read()
    found = source.count(mutant.old)
    if found != 1:
        return f"anchor occurs {found} times in src/ladderlab/{mutant.path}"
    with open(path, "w") as f:
        f.write(source.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w") as f:
            f.write(source)
    if mutant.survives:
        return None if proc.returncode == 0 else f"listed survivor was killed (pytest exit {proc.returncode})"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode != 1:
        return f"pytest exit {proc.returncode}, not a kill:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    passed = set(mutant.tests) - set(FAILED.findall(proc.stdout))
    return f"named tests did not fail: {sorted(passed)}" if passed else None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="ladderlab-mutants-") as work:
        _copy(work)
        env = _env(work)
        for mutant in MUTANTS:
            start = time.perf_counter()
            problem = run(mutant, work, env)
            verdict = "ok (survives, as listed)" if mutant.survives and problem is None else (
                "killed" if problem is None else f"FAIL: {problem}")
            print(f"{mutant.name}: {verdict} [{time.perf_counter() - start:.1f} s]", flush=True)
            failures += problem is not None
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants as listed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
