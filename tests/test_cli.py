import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ladderlab
from ladderlab.attacks import ECC_TARGETS, EXP_TARGETS
from ladderlab.cli import main
from ladderlab.ladders import DEFAULT_SWEEP_LIMIT, INT64_SWEEP_LIMIT, spec_to_json
from ladderlab.modarith import Ring, is_probable_prime
from ladderlab.modexp import (
    ALGORITHMS, find_ladder_constant, fully_ladder_spec, ladder_constants, masked_semi_spec,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exp_montgomery_example(capsys):
    code, out, _ = run_cli(capsys, "exp", "--algo", "montgomery", "--a", "2", "--k", "5", "--n", "1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == "32"
    assert doc["y"] == "64"


def test_exp_accepts_hex_and_counts_ops(capsys):
    code, out, _ = run_cli(
        capsys, "exp", "--algo", "semi", "--a", "0x7", "--k", "0x3e8", "--n", "99991",
        "--mask", "fresh", "--count-ops",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cost_per_bit"] == {"mul": "5/1", "sq": "2/1", "add": "3/1"}


def test_exp_fully_with_explicit_constant(capsys):
    code, out, _ = run_cli(
        capsys, "exp", "--algo", "fully", "--a", "2", "--k", "5", "--n", "7", "--ell", "3", "--trace",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(out)  # parse sanity
    assert doc["x"] == "4"
    assert doc["y"] == "5"
    assert doc["constants"]["ell"] == "3"
    assert doc["trace"]["x"][0] == "1"


def test_exp_fully_rejects_bad_constant(capsys):
    code, _, err = run_cli(
        capsys, "exp", "--algo", "fully", "--a", "5", "--k", "3", "--n", "13", "--ell", "7",
    )
    assert code == 3
    assert "constraint" in err


@pytest.mark.parametrize("n", ["0", "1"])
def test_exp_fully_explicit_constant_needs_a_modulus(capsys, n):
    code, out, err = run_cli(
        capsys, "exp", "--algo", "fully", "--a", "2", "--k", "5", "--n", n, "--ell", "3",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "n >= 7" in err
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp", "--algo", "warp", "--a", "1", "--k", "1", "--n", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--format", "csv", "attack", "--model", "3", "--target", "montgomery", "--trials", "0"],
    ["attack", "--model", "1", "--target", "sma", "--trials", "-1"],
    ["prob", "--mode", "rsa-sample", "--p", "5", "--q", "7", "--samples", "0"],
    ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--Ay", "99", "--order", "0",
     "--algo", "fully", "--k", "29"],
    ["attack", "--model", "3", "--target", "montgomery", "--bits", "0"],
    ["prob", "--mode", "gauss", "--p", "13", "--r", "0"],
])
def test_count_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be >= 1" in out.err


def test_verify_roundtrip(tmp_path, capsys):
    ring = Ring(101)
    doc = spec_to_json(ring, masked_semi_spec(ring, 5, 17))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    result = json.loads(out)
    assert result == {"kind": "semi", "n": "101", "ok": True, "counterexamples": []}

    doc["f"]["c11"] = str((int(doc["f"]["c11"]) + 1) % 101)
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is False
    assert 0 < len(result["counterexamples"]) <= 16


def test_verify_reads_a_spec_from_stdin(monkeypatch, capsys):
    ring = Ring(101)
    doc = spec_to_json(ring, masked_semi_spec(ring, 5, 17))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, "verify", "--spec", "-")
    assert code == 0
    assert json.loads(out) == {"kind": "semi", "n": "101", "ok": True, "counterexamples": []}


def test_verify_checks_a_fully_coupled_spec(tmp_path, capsys):
    ring = Ring(101)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(ring, fully_ladder_spec(ring, ladder_constants(5, 3, 101)))))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    assert json.loads(out) == {"kind": "fully", "n": "101", "ok": True, "counterexamples": []}


def test_verify_refuses_int64_overflow_whatever_the_limit(tmp_path, capsys):
    ring = Ring(2**31 + 11)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(ring, masked_semi_spec(ring, 3, 4))))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path), "--limit", str(2**33))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "exceeds guard" in err


@pytest.mark.parametrize("edit, field", [
    (lambda doc: {"n": "7"}, "spec theta "),
    (lambda doc: {**doc, "theta": ["1"]}, "spec theta "),
    (lambda doc: [doc], "spec document "),
    (lambda doc: {**doc, "ell": {"l1": 1.5}}, "field ell.l1 "),
    (lambda doc: {**doc, "f": {**doc["f"], "c11": True}}, "field f.c11 "),
    (lambda doc: {**doc, "n": "0x65"}, "field n "),
    (lambda doc: {**doc, "ell": {**doc["ell"], "l1": "101"}}, "link slope must be nonzero"),
    (lambda doc: {**doc, "theta": {"c00": "3"}}, "bit1_step must depend on x"),
    (lambda doc: {**doc, "theta": {**doc["theta"], "c01": "1"}}, "bit1_step must be univariate"),
], ids=["missing-block", "list-block", "top-level-array", "float", "bool", "hex", "link-slope-zero",
        "theta-without-x", "theta-with-y"])
def test_verify_names_the_bad_field_of_a_malformed_spec(tmp_path, capsys, edit, field):
    """A malformed spec, or one no ladder follows, exits 3 with an error naming its field or step;
    spec files are base-10 only."""
    ring = Ring(101)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(edit(spec_to_json(ring, masked_semi_spec(ring, 5, 17)))))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["prob", "--mode", "dsa-exact"],
    ["prob", "--mode", "rsa-bound", "--p", "11"],
    ["prob", "--mode", "gauss"],
])
def test_prob_missing_mode_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: ladderlab prob ")
    assert "ladderlab prob: error: mode " in out.err and "requires --" in out.err


def test_dsa_census_below_the_n_guard_runs_at_once(capsys):
    # n = 65537 passes the n <= 2^20 guard; the census counts per l, not per (a, l) cell
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "prob", "--mode", "dsa-exact", "--n", "65537")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert err == ""
    assert json.loads(out)["match"] is True


def _ends_in_an_exit_code(capsys, *argv):
    """(exit code, stdout) of `argv` run in-process, which must end in exit code 0, 2 (usage)
    or 3 (refused) within 1 s, never in a traceback."""
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
    except SystemExit as exc:
        code, out, err = exc.code, *capsys.readouterr()
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
    return code, out


FIRST_PRIME_ABOVE_GUARD = next(p for p in range(DEFAULT_SWEEP_LIMIT + 1, 2 * DEFAULT_SWEEP_LIMIT)
                               if is_probable_prime(p))
# the moduli that run stay at or below 2^16, so one example takes milliseconds
CENSUS_MODULI = st.one_of(st.integers(-2**40, -1), st.integers(0, 7), st.integers(8, 256),
                          st.sampled_from([65521, 65535, DEFAULT_SWEEP_LIMIT, FIRST_PRIME_ABOVE_GUARD]))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([("gauss", "--p"), ("dsa-exact", "--n")]), CENSUS_MODULI,
       st.one_of(st.integers(0, 8), st.just(2**40 + 1)))
@example(("gauss", "--p"), 2, 2**40 + 1)  # p - 1 = 1: every exponent reduces to 0
@example(("gauss", "--p"), 65521, 2**40 + 1)  # the widest prime that runs, the widest exponent
@example(("gauss", "--p"), 13, 0)  # --r must be positive
@example(("gauss", "--p"), FIRST_PRIME_ABOVE_GUARD, 3)
@example(("dsa-exact", "--n"), 5, 3)  # n < 7
@example(("dsa-exact", "--n"), 7, 3)  # the smallest census
@example(("dsa-exact", "--n"), 65521, 3)
@example(("dsa-exact", "--n"), FIRST_PRIME_ABOVE_GUARD, 3)
def test_census_commands_end_in_an_exit_code(capsys, mode, modulus, r):
    # a census that runs must match its closed form
    name, flag = mode
    code, out = _ends_in_an_exit_code(capsys, "prob", "--mode", name, f"{flag}={modulus}", f"--r={r}")
    if code == 0 and name == "gauss":
        assert json.loads(out)["residue_count"] == (modulus - 1) // math.gcd(modulus - 1, r)
    elif code == 0:
        assert json.loads(out)["match"] is True


# negative and small values, primes and composites among them, and a few wide ones
PROB_VALUES = st.one_of(st.integers(-2**40, 1), st.integers(2, 120),
                        st.sampled_from([65521, 65535, 2**61 - 1, 2**61 + 1, 2**64]))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["rsa-bound", "rsa-sample", "dsa-formula"]), PROB_VALUES, PROB_VALUES,
       st.integers(-2, 3000))
@example("rsa-bound", 7, 7, 1)  # p = q
@example("rsa-bound", 2, 5, 1)  # pq < 11
@example("rsa-bound", 2, 7, 1)  # the smallest semiprime that runs
@example("rsa-bound", -7, 11, 1)  # a negative p is no prime
@example("rsa-sample", 5, 7, 12)  # a drawn constant equals the base and is drawn again
@example("rsa-sample", 5, 7, 0)  # --samples must be positive
@example("rsa-sample", 65535, 7, 5)  # a composite p
@example("rsa-sample", 2**61 - 1, 65521, 3000)  # the widest run
@example("dsa-formula", 5, 1, 1)  # n < 7
@example("dsa-formula", 7, 1, 1)  # the smallest prime that runs
@example("dsa-formula", 2**61 - 1, 1, 1)
def test_probability_commands_end_in_an_exit_code(capsys, mode, p, q, samples):
    # a bound that prints is the stated one, and a sampled frequency counts whole samples
    if mode == "dsa-formula":
        argv = [f"--n={p}"]
    else:
        argv = [f"--p={p}", f"--q={q}"] + [f"--samples={samples}"] * (mode == "rsa-sample")
    code, out = _ends_in_an_exit_code(capsys, "prob", "--mode", mode, *argv)
    if code == 0 and mode != "dsa-formula":
        result = json.loads(out)
        assert Fraction(result["bound"]) == 1 - Fraction(p + q + 9, p * q - 4)
        if mode == "rsa-sample":
            frequency = Fraction(result["frequency"])
            assert (frequency * samples).denominator == 1 and 0 <= frequency <= 1
            assert result["ge_bound"] == (frequency >= Fraction(result["bound"]))
    elif code == 0:
        assert 0 < Fraction(json.loads(out)["formula"]) <= 1  # 1 at n = 7, where every constant suits


# n < 2, n < 7, gcd(n, 6) > 1 at and around DEFAULT_SWEEP_LIMIT (refused after the draws), primes
EXP_MODULI = st.one_of(st.integers(-2**40, 1), st.integers(2, 300),
                       st.sampled_from([1000, 65535, 65537, DEFAULT_SWEEP_LIMIT + 2, 2**61 - 1, 2**64]))
MASKS = st.sampled_from(["zero", "fresh", "fixed:3", "fixed:0x10", "fixed:-1", "fixed:x", "warp", ""])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(ALGORITHMS), st.one_of(st.integers(-3, 300), st.just(2**64 + 1)),
       st.one_of(st.integers(-2, 2**16), st.just(2**256 - 1)), EXP_MODULI, MASKS,
       st.one_of(st.none(), st.integers(-2, 300)), st.booleans(), st.booleans())
@example("sm", 2, 5, 1, "zero", None, False, False)  # n < 2
@example("fully", 2, 5, 5, "zero", None, False, False)  # n < 7
@example("fully", 2, 5, 0, "zero", 3, False, False)  # n < 7 with an explicit constant
@example("fully", 2, 5, 1000, "zero", None, False, True)  # gcd(n, 6) > 1 below the scan guard
@example("fully", 2, 5, DEFAULT_SWEEP_LIMIT, "zero", None, False, False)  # gcd(n, 6) > 1: no scan
@example("fully", 2, 5, DEFAULT_SWEEP_LIMIT + 2, "zero", None, False, False)  # gcd(n, 6) > 1 above it
@example("fully", 5, 3, 13, "zero", 7, False, False)  # an --ell that violates a constraint
@example("semi", 7, 1000, 99991, "fixed:x", None, False, False)  # a --mask that does not parse
@example("semi", 7, 2**256 - 1, 2**61 - 1, "fresh", None, True, True)  # the widest run
def test_exp_ends_in_an_exit_code(capsys, algo, a, k, n, mask, ell, trace, count_ops):
    # a run that succeeds gives a^k mod n, whatever the ladder
    argv = ["exp", "--algo", algo, f"--a={a}", f"--k={k}", f"--n={n}", f"--mask={mask}"]
    argv += [f"--ell={ell}"] * (ell is not None) + ["--trace"] * trace + ["--count-ops"] * count_ops
    code, out = _ends_in_an_exit_code(capsys, *argv)
    if code == 0:
        assert json.loads(out)["x"] == str(pow(a, k, n))


# (p, a, b, Ax, Ay, order): the attack curve with its base point of order 97, the largest table
# curve (group order 1033, prime) and a prime-order curve past TABLE_MAX_P (1061), or any input
ECC_INPUTS = st.one_of(
    *map(st.just, [(101, 7, 4, 0, 99, 97), (101, 7, 4, 101, -2, 97), (101, 7, 4, 0, 99, 2**64),
                   (1013, 3, 5, 1, 3, 1033), (1033, 1, 1, 0, 1, 1061)]),
    st.tuples(st.sampled_from([-3, 0, 4, 5, 7, 100, 101]), st.integers(-2, 10), st.integers(-2, 10),
              st.integers(-2, 120), st.integers(-2, 120), st.integers(-1, 200)))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ECC_INPUTS, st.sampled_from(["daa", "montgomery", "semi", "fully"]),
       st.one_of(st.integers(-3, 5), st.sampled_from([96, 97, 98, 2**64])),
       st.one_of(st.integers(-2, 2**16), st.just(2**64 - 1)), st.booleans(), st.booleans())
@example((100, 7, 4, 0, 99, 97), "fully", 3, 29, False, False)  # p not prime
@example((101, 0, 0, 0, 0, 97), "fully", 3, 29, False, False)  # singular: 4a^3 + 27b^2 = 0
@example((101, 7, 4, 0, 99, 95), "fully", 3, 29, False, False)  # 95 A is not infinity
@example((101, 7, 4, 0, 99, 97), "semi", 0, 29, False, False)  # --cP 0, 1 and 2 are refused
@example((101, 7, 4, 0, 99, 97), "semi", 1, 29, True, False)
@example((101, 7, 4, 0, 99, 97), "semi", 2, 29, False, True)
@example((101, 7, 4, 0, 99, 97), "fully", 0, 29, False, False)
@example((101, 7, 4, 0, 99, 97), "fully", 1, 29, False, False)
@example((101, 7, 4, 0, 99, 97), "fully", 2, 29, False, False)
@example((1033, 1, 1, 0, 1, 1061), "semi", 3, 2**64 - 1, True, True)  # the affine law, 64 bits
def test_ecc_ends_in_an_exit_code(capsys, inputs, algo, cP, k, fresh, trace):
    # a two-register run that succeeds keeps its link at every snapshot
    p, a, b, Ax, Ay, order = inputs
    argv = ["ecc", f"--p={p}", f"--a={a}", f"--b={b}", f"--Ax={Ax}", f"--Ay={Ay}",
            f"--order={order}", "--algo", algo, f"--cP={cP}", f"--k={k}"]
    code, out = _ends_in_an_exit_code(capsys, *argv + ["--fresh-cP"] * fresh + ["--trace"] * trace)
    if code == 0:
        assert json.loads(out).get("invariant_ok", True) is True


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([1, 2, 3]), st.sampled_from(EXP_TARGETS + ECC_TARGETS),
       st.sampled_from(["x", "y", "both"]), st.integers(1, 3), st.integers(0, 2**64 - 1))
@example(2, "semi", "x", 1, 0)  # attack 2 reads both outputs
@example(1, "sma", "y", 1, 0)  # attack 1 on sma reads x
@example(3, "ecc-fully", "both", 3, 0)
def test_one_bit_attacks_end_in_an_exit_code(capsys, model, target, readable, trials, seed):
    code, out = _ends_in_an_exit_code(capsys, f"--seed={seed}", "attack", f"--model={model}",
                                      "--target", target, "--bits", "1", f"--trials={trials}",
                                      "--readable", readable)
    if code == 0:
        assert json.loads(out)["aggregate"]["bits"] == 1


DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


def _spec_text(**fields):
    """The JSON text of the semi spec a = 5, m = 17 mod 101, with `fields` ("theta", "ell.l1") replaced."""
    ring = Ring(101)
    doc = spec_to_json(ring, masked_semi_spec(ring, 5, 17))
    for path, value in fields.items():
        *outer, key = path.split(".")
        (doc[outer[0]] if outer else doc)[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_verify_refuses_json_nested_too_deeply(tmp_path, monkeypatch, capsys, source):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path) if source == "file" else "-")
    assert (code, out) == (3, "")
    assert err == "error: spec JSON is nested too deeply to parse\n"


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False),
                        st.text(max_size=6), st.integers(-2**70, 2**70).map(str))
JSON_VALUES = st.one_of(JSON_LEAVES, st.lists(JSON_LEAVES, max_size=3),
                        st.dictionaries(st.text(max_size=3), JSON_LEAVES, max_size=3))


@st.composite
def _verify_documents(draw):
    """Any text, any JSON value, or a true semi or fully spec with 0-2 blocks or fields replaced."""
    kind = draw(st.sampled_from(["text", "json", "spec"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    n = draw(st.sampled_from([7, 11, 101, 257, 65537]))
    ring, a = Ring(n), draw(st.integers(2, n - 2))
    if draw(st.booleans()):
        spec = masked_semi_spec(ring, a, draw(st.integers(0, n - 1)))
    else:
        spec = fully_ladder_spec(ring, find_ladder_constant(a, n, random.Random(draw(st.integers(0, 99)))))
    doc = spec_to_json(ring, spec)
    # residues and near-residues of n, any JSON, and moduli past the int64 guard
    values = st.one_of(st.integers(-3, 2 * n).map(str), JSON_VALUES,
                       st.sampled_from([str(INT64_SWEEP_LIMIT + 11), str(2**64)]))
    for _ in range(draw(st.integers(0, 2))):
        block = draw(st.sampled_from(sorted(doc)))
        if isinstance(doc[block], dict) and draw(st.booleans()):
            field = draw(st.sampled_from(["c20", "c11", "c02", "c10", "c01", "c00", "l1", "l0"]))
            doc[block][field] = draw(values)
        elif draw(st.booleans()):
            doc[block] = draw(values)
        else:
            del doc[block]
    return json.dumps(doc)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_verify_documents(), st.booleans(), st.sampled_from(["json", "csv", "jsonl"]), st.booleans())
@example(DEEP, True, "json", False)
@example(DEEP, False, "csv", True)
@example(_spec_text(**{"ell.l1": "202"}), False, "json", False)  # the link slope is 0 mod n
@example(_spec_text(theta={"c00": "3"}), True, "jsonl", False)  # theta has no x term
@example(_spec_text(**{"theta.c01": "1"}), False, "json", True)  # theta has a y term
@example(_spec_text(n=str(INT64_SWEEP_LIMIT + 11)), False, "json", False)
@example(json.dumps([{"n": "101"}]), True, "csv", False)
def test_verify_ends_in_an_exit_code(tmp_path, monkeypatch, capsys, text, stdin, fmt, to_file):
    # a spec that is checked reports counterexamples exactly when it fails
    path, out_path = tmp_path / "spec.json", tmp_path / "out"
    path.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = _ends_in_an_exit_code(capsys, "verify", "--spec", "-" if stdin else str(path),
                                      "--format", fmt, "--out", str(out_path) if to_file else "-")
    if code == 0 and fmt == "json":
        doc = json.loads(out_path.read_text() if to_file else out)
        assert doc["ok"] is (doc["counterexamples"] == [])


@pytest.mark.parametrize("bad", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["exp", "--algo", "sm", "--a", "2", "--k", "5", "--n", "1000"],
    ["verify", "--spec", "SPEC"],
    ["--seed", "1", "attack", "--model", "3", "--target", "sma", "--bits", "2", "--trials", "1"],
    ["prob", "--mode", "dsa-exact", "--n", "13"],
    ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--Ay", "99", "--order", "97",
     "--algo", "montgomery", "--k", "5"],
], ids=lambda argv: argv[argv[0] == "--seed" and 2])
def test_out_that_cannot_be_opened_exits_3(tmp_path, capsys, argv, bad):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_json(Ring(101), masked_semi_spec(Ring(101), 3, 0))))
    out = tmp_path / "missing" / "out.json" if bad == "missing-directory" else tmp_path
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_import_leaves_numpy_unloaded():
    # numpy costs a cold import; only the exhaustive checks and censuses load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(ladderlab.__file__)))
    code = "import sys, ladderlab, ladderlab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_attack_subcommand_full_accuracy(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "9", "attack", "--model", "2", "--target", "montgomery",
        "--bits", "8", "--trials", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregate"]["accuracy"] == 1.0
    assert len(doc["trials"]) == 3
    assert all(t["recovered"] == t["key"] for t in doc["trials"])


def test_prob_dsa_exact(capsys):
    code, out, _ = run_cli(capsys, "prob", "--mode", "dsa-exact", "--n", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == "84/90"
    assert doc["formula"] == "14/15"
    assert doc["match"] is True


def test_prob_gauss(capsys):
    code, out, _ = run_cli(capsys, "prob", "--mode", "gauss", "--p", "13", "--r", "3")
    doc = json.loads(out)
    assert doc["residue_count"] == 4
    assert doc["roots_per_residue"] == {"1": 3, "5": 3, "8": 3, "12": 3}


def test_prob_rsa_bound_and_sample(capsys):
    code, out, _ = run_cli(capsys, "prob", "--mode", "rsa-bound", "--p", "11", "--q", "13")
    assert json.loads(out)["bound"] == "106/139"
    code, out, _ = run_cli(
        capsys, "--seed", "5", "prob", "--mode", "rsa-sample", "--p", "65537", "--q", "65539",
        "--samples", "500",
    )
    doc = json.loads(out)
    assert doc["samples"] == 500


@pytest.mark.parametrize("fmt, argv, expected", [
    ("json", ["--mode", "dsa-formula", "--n", "13"],
     '{\n  "mode": "dsa-formula",\n  "n": "13",\n  "formula": "14/15"\n}\n'),
    ("csv", ["--mode", "dsa-formula", "--n", "13"], "mode,n,formula\r\ndsa-formula,13,14/15\r\n"),
    ("json", ["--mode", "rsa-bound", "--p", "11", "--q", "13"],
     '{\n  "mode": "rsa-bound",\n  "p": "11",\n  "q": "13",\n  "bound": "106/139"\n}\n'),
    ("csv", ["--mode", "rsa-bound", "--p", "11", "--q", "13"],
     "mode,p,q,bound\r\nrsa-bound,11,13,106/139\r\n"),
], ids=["dsa-formula-json", "dsa-formula-csv", "rsa-bound-json", "rsa-bound-csv"])
def test_prob_header_and_stdout_are_exact(capsys, fmt, argv, expected):
    # the header is the mode, then the moduli the mode needs, in that order, as decimal strings
    code, out, err = run_cli(capsys, "--format", fmt, "prob", *argv)
    assert (code, out, err) == (0, expected, "")


def test_ecc_subcommand(capsys, small_curve):
    curve, A, N = small_curve
    base = ["ecc", "--p", str(curve.p), "--a", str(curve.a), "--b", str(curve.b),
            "--Ax", str(A.x), "--Ay", str(A.y), "--order", str(N), "--k", "29"]
    code, out, _ = run_cli(capsys, *base, "--algo", "daa")
    want = json.loads(out)["result"]
    for algo in ("montgomery", "semi", "fully"):
        code, out, _ = run_cli(capsys, *base, "--algo", algo)
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == want
        assert doc["invariant_ok"] is True
        assert doc["point_adds"] > 0


@pytest.mark.parametrize("algo", ["daa", "montgomery", "semi", "fully"])
def test_ecc_off_curve_base_is_domain_error(capsys, algo):
    code, out, err = run_cli(capsys, "ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0",
                             "--Ay", "98", "--order", "97", "--algo", algo, "--k", "29")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "not on the curve" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("Ay", ["200", "-2"])
def test_ecc_unreduced_base_point_gives_the_reduced_output(capsys, Ay):
    base = ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--order", "97",
            "--algo", "fully", "--k", "29", "--trace"]
    code, out, err = run_cli(capsys, *base, "--Ay", Ay)
    assert code == 0 and err == ""
    assert out == run_cli(capsys, *base, "--Ay", "99")[1]


def test_ecc_base_x_equal_to_p_gives_the_reduced_output(capsys):
    base = ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ay", "99", "--order", "97",
            "--algo", "fully", "--k", "29"]
    code, out, err = run_cli(capsys, *base, "--Ax", "101")
    assert code == 0 and err == ""
    assert out == run_cli(capsys, *base, "--Ax", "0")[1]


def _decoded(fmt, out):
    """The output documents, with CSV cells that hold JSON decoded."""
    if fmt == "json":
        return [json.loads(out)]
    if fmt == "jsonl":
        return [json.loads(line) for line in out.splitlines()]
    return [{k: json.loads(v) if v[:1] in "[{" else v for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(out))]


def _pairs(doc):
    """Every list of two ints or nulls in a document: what json.dumps makes of a bare Point."""
    if isinstance(doc, dict):
        return [v for value in doc.values() for v in _pairs(value)]
    if isinstance(doc, list):
        here = [doc] if len(doc) == 2 and all(v is None or isinstance(v, int) for v in doc) else []
        return here + [v for value in doc for v in _pairs(value)]
    return []


@pytest.mark.parametrize("fmt", ["json", "jsonl", "csv"])
@pytest.mark.parametrize("argv", [
    ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--Ay", "99", "--order", "97",
     "--algo", "fully", "--k", "123456789", "--trace"],
    ["ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0", "--Ay", "99", "--order", "97",
     "--algo", "semi", "--fresh-cP", "--k", "0", "--trace"],
    ["attack", "--model", "3", "--target", "ecc-fully", "--bits", "6", "--trials", "2"],
    ["attack", "--model", "2", "--target", "ecc-semi", "--bits", "6", "--trials", "2"],
])
def test_points_serialize_as_objects_never_as_tuples(capsys, fmt, argv):
    # Point is a tuple: handed to json.dumps unconverted, it would print as [x, y]
    code, out, _ = run_cli(capsys, "--format", fmt, *argv)
    assert code == 0
    docs = _decoded(fmt, out)
    assert docs and _pairs(docs) == []
    if argv[0] == "ecc":
        doc, = docs
        for P in [doc["result"], doc["companion"], *doc["trace"]]:
            assert P == "infinity" or (list(P) == ["x", "y"] and all(isinstance(v, str) for v in P.values()))


def test_ecc_order_must_annihilate_the_base_point(capsys):
    # the base point has order 97, so 95 is not its order
    code, out, err = run_cli(capsys, "ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0",
                             "--Ay", "99", "--order", "95", "--algo", "fully", "--k", "29")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "point at infinity" in err


@pytest.mark.parametrize("algo", ["daa", "montgomery", "fully"])
def test_ecc_fresh_coefficients_only_on_the_half_coupled_ladder(capsys, algo):
    code, out, err = run_cli(capsys, "ecc", "--p", "101", "--a", "7", "--b", "4", "--Ax", "0",
                             "--Ay", "99", "--order", "97", "--algo", algo, "--k", "29", "--fresh-cP")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "only apply to the half-coupled ladder" in err


def test_byte_identical_output_for_same_seed(capsys):
    argv = ["--seed", "123", "attack", "--model", "3", "--target", "fully",
            "--bits", "6", "--trials", "2"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("LADDERLAB_SEED", "123")
    argv = ["attack", "--model", "3", "--target", "montgomery", "--bits", "6", "--trials", "1"]
    _, out1, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("LADDERLAB_SEED")
    _, out2, _ = run_cli(capsys, "--seed", "123", *argv)
    assert out1 == out2


def test_jsonl_and_csv_formats(capsys):
    argv = ["--seed", "1", "attack", "--model", "3", "--target", "montgomery",
            "--bits", "4", "--trials", "2"]
    _, out, _ = run_cli(capsys, "--format", "jsonl", *argv[2:])
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert len(lines) == 2

    _, out, _ = run_cli(capsys, "--format", "csv", *argv[2:])
    header = out.splitlines()[0]
    assert header.startswith("trial,")


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "--out", str(path), "prob", "--mode", "dsa-formula", "--n", "13")
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["formula"] == "14/15"
