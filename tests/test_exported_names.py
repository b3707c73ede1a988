"""Every name that ``flagcodes/__init__.py`` exports has a use outside the
tests: in the package beyond its definition, ``__all__`` and the export, in
``scripts/``, in ``benchmark/`` (the tracer's pinned entry points count),
or in the README.  A name that only tests reach is no public API."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flagcodes"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def used_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """The names a module reads and the attributes it takes, and with
    ``strings`` the words of its string constants (the tracer pins
    ``"Class.method"``); a definition, an import and an ``__all__`` entry
    are no use."""
    listed = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
              for node in ast.walk(assign.value)}
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in listed:
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_export_is_used_outside_the_tests():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(ast.parse(path.read_text()))
    for path in (ROOT / "scripts").glob("*.py"):
        used |= used_names(ast.parse(path.read_text()))
    for path in (ROOT / "benchmark").glob("*.py"):
        used |= used_names(ast.parse(path.read_text()), strings=True)
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"exported, but used only by tests: {unused}"
