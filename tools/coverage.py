"""Statement-coverage gate: tier-1 must reach every statement of src/ladderlab/ not listed here.

    python tools/coverage.py

Runs the tier-1 suite in this process under `sys.settrace`, with
`--hypothesis-seed=0`.  The tracer returns a local tracer only for frames of
src/ladderlab/, which records the lines they run.  A statement is an `ast`
statement other than a docstring; a simple statement is reached when any of
its lines runs, a compound one when its header runs or its body is reached.
The run counts only when criterion 6 is its sole failure, as
.github/scripts/check_tier1.py decides.

`UNREACHED` lists the statements tier-1 may leave unreached, each with a
reason.  An entry names a file under src/ladderlab/, the function that holds
the statement (the empty string for module level), and a text that must
occur exactly once in that function's source and start on the statement's
first line.  The gate fails, exit code 1, when a statement is unreached but
not listed, a listed statement is reached, or an entry names no statement.
Standard library only; pytest comes from the test environment.
"""

import ast
import importlib.util
import os
import sys
import tempfile
import threading
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ladderlab")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Unreached(NamedTuple):
    path: str  # under src/ladderlab/
    function: str  # the qualified name of the enclosing function, "" for module level
    text: str  # occurs once in that function's source, starting on the statement's first line
    reason: str


MISUSE = "an argument check: only a caller's misuse reaches it"
PARSER = "an argument check that the CLI's parser makes unreachable from the command line"
SUBPROCESS = "runs only in a subprocess or the installed script, which the tracer does not see"

UNREACHED = (
    Unreached("__main__.py", "", "from .cli import entrypoint", SUBPROCESS),
    Unreached("__main__.py", "", "entrypoint()", SUBPROCESS),
    Unreached("cli.py", "entrypoint", "sys.exit(main())", SUBPROCESS),
    Unreached("cli.py", "cmd_prob", 'raise ValueError(f"unknown mode', PARSER),
    Unreached("attacks.py", "attack1_trailing_bits", "raise ValueError", MISUSE),
    Unreached("attacks.py", "fault_propagation_probe", "raise ValueError", MISUSE),
    Unreached("ecc.py", "fully_params", 'raise InvalidCoefficient("coefficient must be invertible', MISUSE),
    Unreached("ecc.py", "fully_params", 'raise InvalidCoefficient("3 - 2*coef', MISUSE),
    Unreached("ecc.py", "ladder_link", "raise InvalidCoefficient", MISUSE),
    Unreached("ecc.py", "ladder_link", "raise ValueError", MISUSE),
    Unreached("ecc.py", "ecc_step", 'raise ValueError("fresh coefficients need an RNG")', MISUSE),
    Unreached("ladders.py", "run_fully_ladder", "raise ValueError", MISUSE),
    Unreached("ladders.py", "check_fully_equations", "raise ValueError", MISUSE),
    Unreached("ladders.py", "lift_semi_to_fully", "raise ValueError", MISUSE),
    Unreached("modarith.py", "eea", 'raise ValueError("modulus', MISUSE),
    Unreached("modarith.py", "modpow_reference", 'raise ValueError("modulus', MISUSE),
    Unreached("modarith.py", "random_prime", "raise ValueError", MISUSE),
    Unreached("modexp.py", "find_ladder_constant",
              "raise NoConstantExists(absent)\n    raise",
              "the scan's no-constant exit: for gcd(n, 6) = 1 each prime p | n leaves at least "
              "one suitable constant mod p, so some constant always suits (ROADMAP item 16)"),
    Unreached("modexp.py", "_fully", 'raise ValueError("fully-coupled runner', MISUSE),
    Unreached("modexp.py", "exp_step", 'raise ValueError(f"unknown algorithm', MISUSE),
    Unreached("modexp.py", "masked_semi_spec", "raise ValueError", MISUSE),
    Unreached("modexp.py", "fully_ladder_spec", 'raise ValueError("constants were built', MISUSE),
    Unreached("residues.py", "census_suitable_constants", 'raise ValueError("need n >= 7")', MISUSE),
)


def statements(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(qualified name of the enclosing function or class, statement) for every non-docstring statement."""
    out = []

    def visit(body, scope):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring or a bare string: no statement runs
            out.append((scope, node))
            inner = scope
            if isinstance(node, DEFS):
                inner = f"{scope}.{node.name}" if scope else node.name
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(tree.body, "")
    return out


def _header(node: ast.stmt) -> range:
    """The lines of a statement that run when it does: all of a simple one, the header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if not body:
        return range(first, node.end_lineno + 1)
    return range(first, body[0].lineno)


def reached(scoped: list, lines: set) -> dict:
    """{statement: whether tier-1 reached it}, for `statements` of one module."""
    out = {}
    for _, node in reversed(scoped):  # a body's statements before the statement that holds them
        hit = any(line in lines for line in _header(node))
        body = getattr(node, "body", None)
        if not hit and body and not isinstance(node, DEFS):  # a def runs without its body
            hit = out.get(body[0], False)
        out[node] = hit
    return out


def trace_tier1(junit: str) -> dict:
    """{path of a src/ladderlab/ file: the lines tier-1 ran there}."""
    import pytest

    lines = {}
    wanted = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        ours = wanted.get(filename)
        if ours is None:
            ours = wanted[filename] = os.path.realpath(filename).startswith(PACKAGE + os.sep)
            if ours:
                lines.setdefault(filename, set())
        return local if ours else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        pytest.main(["-q", "--tb=line", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--hypothesis-seed=0", f"--junitxml={junit}", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = os.path.realpath(sys.modules["ladderlab"].__file__)
    if not imported.startswith(PACKAGE + os.sep):
        raise SystemExit(f"the tests imported {imported}, not the package in {PACKAGE}")
    return {os.path.realpath(f): v for f, v in lines.items()}


def resolve(entry: Unreached, source: str, scoped: list) -> tuple[ast.stmt | None, str | None]:
    """The statement `entry` names in one module, or None and why it names none."""
    lines = source.splitlines(keepends=True)
    first, last = 1, len(lines)
    if entry.function:
        defs = [node for scope, node in scoped
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (f"{scope}.{node.name}" if scope else node.name) == entry.function]
        if len(defs) != 1:
            return None, f"{len(defs)} functions named {entry.function}"
        first, last = defs[0].lineno, defs[0].end_lineno
    segment = "".join(lines[first - 1:last])
    found = segment.count(entry.text)
    if found != 1:
        return None, f"text occurs {found} times"
    line = first + segment[:segment.index(entry.text)].count("\n")
    starting = [node for _, node in scoped if node.lineno == line]
    return (starting[0], None) if starting else (None, f"no statement starts on line {line}")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ladderlab-coverage-") as work:
        junit = os.path.join(work, "tier1.xml")
        lines = trace_tier1(junit)
        spec = importlib.util.spec_from_file_location(
            "check_tier1", os.path.join(ROOT, ".github", "scripts", "check_tier1.py"))
        check = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
        if check.main(["check_tier1.py", junit]):
            print("coverage FAIL: tier-1 must fail criterion 6 only")
            return 1
    names = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
    problems = [f"{entry.path}: no such file" for entry in UNREACHED if entry.path not in names]
    total = missed = 0
    for name in names:
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        scoped = statements(ast.parse(source))
        hits = reached(scoped, lines.get(path, set()))
        listed = set()
        for entry in (entry for entry in UNREACHED if entry.path == name):
            node, why = resolve(entry, source, scoped)
            if node is None:
                problems.append(f"{name} [{entry.function}] {entry.text!r}: {why}")
            elif hits[node]:
                problems.append(f"{name}:{node.lineno} listed but reached: {entry.text!r}")
            listed.add(node)
        for _, node in scoped:
            if not hits[node] and node not in listed:
                text = source.splitlines()[node.lineno - 1].strip()
                problems.append(f"{name}:{node.lineno} unreached but not listed: {text}")
        total += len(hits)
        missed += list(hits.values()).count(False)
    for problem in problems:
        print(f"coverage FAIL: {problem}")
    print(f"{total - missed} of {total} statements reached, {len(UNREACHED)} listed as unreached "
          f"[{time.perf_counter() - start:.1f} s]")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
