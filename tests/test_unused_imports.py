"""No module under ``src/repro`` imports a name it never uses.

No linter ships with the project, so this is the F401 check, written
with ``ast``: every name a module imports must be read somewhere in it.
Not counted as unused are a package ``__init__.py``'s imports (those
are its re-exports), names listed in ``__all__``, imports on a line
marked ``# noqa: F401`` and ``from __future__`` imports.  A name inside
a quoted annotation (``-> "Trace"``) counts as used.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _annotation_names(node):
    """Names read by an annotation, quoted ones included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotated = [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)))]
            for ann in filter(None, (*annotated, node.returns)):
                used.update(_annotation_names(ann))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(source, where):
    """``where:line name`` for every import ``source`` never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            lineno = getattr(alias, "lineno", node.lineno)
            if any("# noqa: F401" in lines[n - 1]
                   for n in {node.lineno, lineno}):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append(f"{where}:{lineno} {bound}")
    return found


def test_no_module_imports_a_name_it_never_uses():
    found = [hit for path in sorted((SRC / "repro").rglob("*.py"))
             if path.name != "__init__.py"
             for hit in unused_imports(path.read_text(encoding="utf-8"),
                                       path.relative_to(SRC).as_posix())]
    assert found == []


def test_the_check_sees_what_it_is_for():
    """The walk flags a dead import and honours each exemption."""
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from pathlib import Path\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Optional[Dict]') -> None:\n"
        "    return None\n")
    assert unused_imports(source, "probe.py") == ["probe.py:2 os",
                                                  "probe.py:4 List"]
