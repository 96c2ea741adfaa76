"""Every backticked name in the README and the package docstrings still names something.

A reference counts when its leading dotted name starts with a ladderlab module
(`ecc.LogOps.draw`) or with a class defined in the package (`Target.tail`).
It resolves when each later part is an attribute, a dataclass or NamedTuple
field, or an attribute a method of the class assigns on `self`; a part with a
`*` (`ladders.check_*_equations`) must match at least one attribute.
"""

import ast
import dataclasses
import fnmatch
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ladderlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
# the leading dotted name of a backticked span: `CountingRing.tallied(step, per_iter)` names
# CountingRing.tallied
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_*][\w*]*)*)[^`]*`")


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _classes(trees):
    """{class name: (module name, ClassDef)} of every class the package defines."""
    return {node.name: (module, node) for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _documents(trees):
    """(where, text) of the README and of every module, class and function docstring."""
    yield "README.md", (ROOT / "README.md").read_text()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield f"{module}.py:{getattr(node, 'name', 'module')}", doc


def _assigned_on_self(node: ast.ClassDef) -> set:
    return {target.attr for sub in ast.walk(node) for target in _targets(sub)
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self"}


def _targets(node):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from (target.elts if isinstance(target, ast.Tuple) else (target,))
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        yield node.target


def _has(obj, name: str, classdef: ast.ClassDef | None) -> bool:
    if "*" in name:
        return any(fnmatch.fnmatchcase(attr, name) for attr in dir(obj))
    if hasattr(obj, name):
        return True
    if isinstance(obj, type):
        if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
            return True
        if name in getattr(obj, "_fields", ()):
            return True
    return classdef is not None and name in _assigned_on_self(classdef)


def _resolves(name: str, classes) -> bool | None:
    """True or False for a package reference, None for any other backticked name."""
    head, *rest = name.split(".")
    if head == "ladderlab" and rest and rest[0] in MODULES:
        head, *rest = rest
    if head == "ladderlab" or head in MODULES:
        obj = importlib.import_module("ladderlab" if head == "ladderlab" else f"ladderlab.{head}")
    elif head in classes:
        module, _ = classes[head]
        obj = getattr(importlib.import_module(f"ladderlab.{module}"), head)
    else:
        return None
    for part in rest:
        classdef = classes[obj.__name__][1] if isinstance(obj, type) and obj.__name__ in classes else None
        if not _has(obj, part, classdef):
            return False
        obj = getattr(obj, part, None)
    return True


def _references():
    trees = _trees()
    classes = _classes(trees)
    found = []
    for where, text in _documents(trees):
        for name in REFERENCE.findall(text):
            ok = _resolves(name, classes)
            if ok is not None:
                found.append((where, name, ok))
    return found


def test_every_backticked_reference_resolves():
    unresolved = [(where, name) for where, name, ok in _references() if not ok]
    assert unresolved == []


def test_the_scan_finds_module_and_class_references():
    names = {name for _, name, _ in _references()}
    assert {"ladders.drive", "Target", "LogOps"} <= names
    assert len(names) >= 20
