"""Fail if a module imports a name it never uses.

    python .github/scripts/check_imports.py

Checks src/ladderlab/*.py (not __init__.py, whose imports are the
package's exports), tests/*.py, tools/*.py and .github/scripts/*.py with
the standard library's `ast`: a name bound by an import statement must be
read somewhere in the module, or be listed in its `__all__`.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bound(alias):
    # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
    return alias.asname or alias.name.split(".")[0]


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(_bound(alias), node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main():
    paths = [p for p in sorted((ROOT / "src" / "ladderlab").glob("*.py")) if p.name != "__init__.py"]
    for folder in ("tests", "tools", ".github/scripts"):
        paths += sorted((ROOT / folder).glob("*.py"))
    found = 0
    for path in paths:
        for line, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{line}: {name!r} imported but unused")
            found += 1
    if found:
        return 1
    print(f"imports ok: {len(paths)} files, no unused import")
    return 0


if __name__ == "__main__":
    sys.exit(main())
