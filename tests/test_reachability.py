"""Every module-level function and class of the library, and every method
of its classes, is reached by code.

A definition that only tests call is dead weight: it can drift from the
pipeline it claims to serve without any subcommand noticing.  This guard
parses ``src/dpmirror`` and requires, for each module-level ``def`` or
``class``, a name or attribute that refers to it from somewhere other than
its own body.  A non-dunder method ``C.m`` needs an attribute ``.m``
outside its own body.  Where the receiver's class is plain from the code
(``self`` or ``cls`` in C's methods, a call of C, or a local assigned from
one, or from a module-level function annotated to return C) the reference
counts for that class only; any other receiver counts for every class that
defines ``m``.  An annotated field of a class ``C.f`` needs an attribute
read ``.f`` somewhere outside a ``__post_init__``, by any receiver.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "dpmirror"
FILES = sorted(LIBRARY.glob("*.py"))

TEST_ONLY_MEMBERS = {
    ("_Parser", "error"),  # argparse calls it
    ("MutationWord", "slots"),  # perfbench checks generated words with it
    # perfbench/tests/test_oracles.py:92 solves a sweep invariant with them;
    # a change on the benchmark side can rewrite that line and delete both
    ("CPoly", "trimmed"),
    ("ComplexModel", "invariant_scale"),
}


# Fields that no library code reads, with the reason each is kept.
UNREAD_FIELDS = {
    # inputs that __post_init__ converts into the rows the sweep reads
    ("FamilySpec", "start"),
    ("FamilySpec", "end"),
    # read by tests only: the quotient lattice they identify independently
    ("KernelDecompositionReport", "quotient_gram"),
    # read by tests only: which degree-3 rows match exactly, not up to sign
    ("MutationVerificationReport", "intermediate_exact"),
}


def _references(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _unreferenced() -> Set[str]:
    definitions: Set[str] = set()
    referenced: Set[str] = set()
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                definitions.add(own)
            referenced.update(n for n in _references(statement) if n != own)
    return definitions - referenced


def _unreferenced_members() -> Set[Tuple[str, str]]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in FILES]
    members: Dict[str, Set[str]] = {}
    returns: Dict[str, str] = {}
    for tree in trees:
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef):
                members[statement.name] = {
                    item.name
                    for item in statement.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                }
            elif isinstance(statement, ast.FunctionDef) and isinstance(
                statement.returns, ast.Name
            ):
                returns[statement.name] = statement.returns.id

    def class_of(expr: ast.AST, known: Dict[str, str]) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return known.get(expr.id)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            return name if name in members else returns.get(name)
        return None

    def reached(node: ast.AST, known: Dict[str, str]) -> Set[Tuple[str, str]]:
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                owner = class_of(child.value, known)
                if isinstance(target, ast.Name) and owner in members:
                    known[target.id] = owner
        found: Set[Tuple[str, str]] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute):
                owner = class_of(child.value, known)
                owners = [owner] if owner in members else list(members)
                found.update(
                    (c, child.attr) for c in owners if child.attr in members[c]
                )
        return found

    seen: Set[Tuple[str, str]] = set()
    for tree in trees:
        for statement in tree.body:
            if not isinstance(statement, ast.ClassDef):
                seen |= reached(statement, {})
                continue
            for item in statement.body:
                known = {}
                if isinstance(item, ast.FunctionDef) and item.args.args:
                    known[item.args.args[0].arg] = statement.name
                name = getattr(item, "name", None)
                seen |= reached(item, known) - {(statement.name, name)}
    return {(c, m) for c, names in members.items() for m in names} - seen


def _unread_fields() -> Set[Tuple[str, str]]:
    fields: Set[Tuple[str, str]] = set()
    read: Set[str] = set()
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            if isinstance(statement, ast.ClassDef):
                fields.update(
                    (statement.name, item.target.id)
                    for item in statement.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                )
        skipped = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
            for child in ast.walk(node)
        }
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped
        )
    return {(c, f) for c, f in fields if f not in read}


def test_every_definition_is_referenced_outside_its_own_body() -> None:
    """No library definition is reached by tests alone; the catalog oracle
    that tests/test_weierstrass.py and tests/test_acceptance.py check the
    hand-written models against lives in tests/hv_oracle.py."""
    assert _unreferenced() == set()


def test_every_method_is_reached_outside_its_own_body() -> None:
    assert _unreferenced_members() == TEST_ONLY_MEMBERS


def test_every_field_is_read_outside_post_init() -> None:
    assert _unread_fields() == UNREAD_FIELDS


# Every parameter default and record field default of the library, keyed
# (module, qualified owner, name), with the reason it is not a module
# constant: two values in use, a CLI flag, or data.  A new setting needs an
# entry here, and a constant needs none.
SETTINGS = {
    ("cli", "RunConfig", "d"): "CLI flag --d",
    ("cli", "RunConfig", "epsilon"): "CLI flag --epsilon",
    ("cli", "RunConfig", "order"): "CLI flag --order",
    ("cli", "RunConfig", "out"): "CLI flag --out",
    ("cli", "RunConfig", "fmt"): "CLI flag --format",
    ("cli", "RunConfig", "word"): "CLI flag --word",
    ("cli", "RunConfig", "variant"): "CLI flag --variant",
    ("cli", "main", "argv"): "two values: none from the console script",
    ("exactpoly", "UniPoly.__init__", "terms"): "data: the zero polynomial",
    ("exactpoly", "UniPoly.__init__", "var"): "data: the variable name",
    ("exactpoly", "UniPoly.constant", "var"): "data: the variable name",
    ("exactpoly", "LaurentPoly.__init__", "terms"): "data: the zero polynomial",
    ("exactpoly", "LaurentPoly.__init__", "nvars"): "data: the variable count",
    ("interfam", "FamilySpec.between_degrees", "epsilon"): "CLI flag --epsilon",
    ("pathnum", "elliptic_integral.branch_values", "ridx"): "two values: substituted",
    ("pathnum", "elliptic_integral.branch_values", "factor"): "two values: substituted",
    ("periods", "quantum_period", "order"): "CLI flag --order",
    ("periods", "classical_period", "order"): "CLI flag --order",
    ("periods", "mirror_check", "order"): "CLI flag --order",
    ("vancycles", "critical_values_ordered", "anchor"): "two values: the nodal place",
    ("vancycles", "vanishing_classes", "epsilon"): "CLI flag --epsilon",
    ("weierstrass", "FiberPlacement", "count"): "data: fibers at the place",
    ("weierstrass", "FiberPlacement", "factor"): "data: irrational places",
    ("weierstrass", "catalog", "perturbation"): "two values: exact or perturbed",
    ("weierstrass", "MinimalityReport", "violation"): "data: the failed condition",
    ("weierstrass", "classify_fiber_at.fiber", "index"): "data: the Kodaira index",
}


def _settings() -> Set[Tuple[str, str, str]]:
    found: Set[Tuple[str, str, str]] = set()

    def visit(node: ast.AST, module: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{owner}.{child.name}" if owner else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
                ]
                found.update((module, name, a.arg) for a in defaulted)
                visit(child, module, name)
            elif isinstance(child, ast.ClassDef):
                name = f"{owner}.{child.name}" if owner else child.name
                found.update(
                    (module, name, item.target.id)
                    for item in child.body
                    if isinstance(item, ast.AnnAssign)
                    and item.value is not None
                )
                visit(child, module, name)
            else:
                visit(child, module, owner)

    for path in FILES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_every_setting_is_listed_with_its_reason() -> None:
    assert _settings() == set(SETTINGS)
