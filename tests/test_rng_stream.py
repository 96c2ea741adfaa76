"""Semi's fresh masks and coefficients and the seeded fault values stay
CPython's `randrange` stream (a log table's draws stay `random_point`'s),
the fault generator stays `random.Random`'s stream, and semi and fully
agree in both step forms at a 2,048-bit modulus.

The cases and the comparison live in .github/scripts/check_rng_stream.py,
which CI also runs, without pytest, on every supported Python.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from ladderlab.ecc import TABLE_MAX_P, AffineOps, oracle_ops

_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_rng_stream.py"
_spec = importlib.util.spec_from_file_location("check_rng_stream", _SCRIPT)
stream = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stream)


@pytest.mark.parametrize("build, reference", [case[1:] for case in stream.cases()],
                         ids=[case[0] for case in stream.cases()])
def test_draws_match_randrange(build, reference):
    assert stream.mismatch(build, reference) is None


def test_a_changed_draw_is_caught():
    def off_by_one(rng):
        below = stream._below(97, rng)
        return lambda: (below() + 1) % 97

    assert stream.mismatch(off_by_one, lambda rng: rng.randrange(97)) is not None


def test_random_point_is_checked_where_it_draws_faults():
    # without a log table a curve's seeded faults and inputs are `random_point`'s
    for curve in stream.UNTABLED:
        assert curve.p > TABLE_MAX_P
        assert type(oracle_ops(curve)) is AffineOps


@pytest.mark.parametrize("seed", stream.FAULT_SEEDS)
def test_fault_generator_is_random_random(seed):
    assert stream.fault_mismatch(seed) is None


def test_a_changed_fault_generator_is_caught():
    def one_word(seed):  # drops the second 32-bit word of the seed
        return random.Random(seed & 0xFFFFFFFF)

    assert stream.fault_mismatch(2**32, one_word) is not None
    assert stream.fault_mismatch(2**32 - 1, one_word) is None


@pytest.mark.parametrize("run", [case[1] for case in stream.form_cases()],
                         ids=[case[0] for case in stream.form_cases()])
def test_both_step_forms_agree(run):
    assert stream.form_mismatch(run) is None


def test_a_changed_form_is_caught():
    def drifted(per_iter):
        out, state = stream.form_cases()[1][1](per_iter)
        return (out if per_iter is None else (out[0] + 1, out[1])), state

    assert stream.form_mismatch(drifted) is not None
