"""Every module-level function and class of the library is reached by code.

A definition that only tests call is dead weight: it can drift from the
pipeline it claims to serve without any subcommand noticing.  This guard
parses ``src/dpmirror`` and ``scripts/`` and requires, for each module-level
``def`` or ``class`` of the library, a name or attribute that refers to it
from somewhere other than its own body.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "dpmirror"
SCRIPTS = ROOT / "scripts"

# The catalog models are written by hand; this conversion is kept as the
# independent oracle that tests/test_acceptance.py checks them against.
TEST_ONLY = {"hv_to_weierstrass"}


def _references(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _unreferenced() -> Set[str]:
    definitions: Set[str] = set()
    referenced: Set[str] = set()
    files = sorted(LIBRARY.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            own = None
            if path.parent == LIBRARY and isinstance(
                statement, (ast.FunctionDef, ast.ClassDef)
            ):
                own = statement.name
                definitions.add(own)
            referenced.update(n for n in _references(statement) if n != own)
    return definitions - referenced


def test_only_the_catalog_oracle_is_unreferenced() -> None:
    assert _unreferenced() == TEST_ONLY
