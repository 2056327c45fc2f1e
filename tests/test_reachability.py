"""Every definition of the library is reached by the command line, and every
name a library module imports is used there.

A definition that only tests call is dead weight: it can drift from the
pipeline it claims to serve without any subcommand noticing.  Three guards
hold the library to that:

* Measured: a fresh interpreter installs ``sys.setprofile`` before it
  imports ``dpmirror.cli`` and runs the fixed argument lists of ``ARGV``
  through ``cli.main``; every ``def`` in ``src/dpmirror`` must be entered.
  Exempt by rule are ``__eq__``, ``__hash__`` and ``__repr__`` (the value
  protocol, which containers and debuggers call) and ``Record.__setattr__``
  and ``Record.__delattr__`` (they only raise on misuse); exempt by entry
  are the members of ``BENCHMARK_ONLY``, each with its reason.
* Static: each module-level ``def`` or ``class`` is referred to by name or
  attribute from somewhere other than its own body, and each annotated
  field of a class is read somewhere outside a ``__post_init__`` (the
  fields of ``UNREAD_FIELDS`` excepted).
* Static: each name bound by an ``import`` in a library module is loaded
  in that module; listing it in ``__all__`` does not count.

``python tests/test_reachability.py`` prints each unreached ``def`` and
each unused import as ``file:line name``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "dpmirror"
FILES = sorted(LIBRARY.glob("*.py"))

# One run of the command line: every subcommand at d = 1, 2, 3 in every
# format, the perturbed fiber tables, a non-default series order, the
# cross-degree checks, an argparse usage error, a word whose slot leaves
# the basis, and an interpolation whose sweep stops at the width floor
# (the only caller of ``interfam.chordal``).
EXTRA = {
    "fibers": [["--format", "json"], ["--format", "csv"], ["--variant", "perturbed"]],
    "mirror": [[]],
    "critvals": [["--format", "json"], ["--format", "csv"]],
    "cycles": [["--format", f] for f in ("json", "csv", "svg")],
    "verify": [[]],
    "junction": [[]],
    "ghs": [[]],
    "interpolate": [["--format", f] for f in ("json", "csv", "svg")],
    "mutate": [["--word", "L1 R3"]],
}
ARGV: List[List[str]] = [
    [command, "--d", str(d), *extra]
    for d in (1, 2, 3)
    for command, extras in EXTRA.items()
    for extra in extras
]
ARGV += [
    ["mirror", "--d", "1", "--order", "6"],
    ["check"],
    ["fibers", "--d", "1", "--order", "6"],  # fibers reads no --order
    ["mutate", "--d", "1", "--word", "L11"],
    ["interpolate", "--d", "2", "--epsilon", "200000"],
]

VALUE_PROTOCOL = {"__eq__", "__hash__", "__repr__"}
RAISE_ON_MISUSE = {"Record.__setattr__", "Record.__delattr__"}

# Members that only the benchmark's own tests reach, each with its reason.
BENCHMARK_ONLY = {
    "CPoly.trimmed": "perfbench/tests/test_oracles.py solves a sweep invariant",
    "ComplexModel.invariant_scale": "perfbench/tests/test_oracles.py solves a sweep invariant",
    "MutationWord.slots": "perfbench/tests/test_workloads.py checks drawn words",
    "MutationWord.__len__": "perfbench/tests/test_workloads.py checks drawn words",
}

_TRACER = """
import contextlib, io, json, sys
entered = {}

def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code

sys.setprofile(profile)
import dpmirror.cli as cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered.values()})))
"""


def _definitions() -> Iterator[Tuple[Path, int, int, str]]:
    """(file, line of the ``def``, first line of its code, qualified name)
    of every function in the library; a decorated function's code starts at
    its first decorator."""

    def visit(node: ast.AST, path: Path, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield path, child.lineno, first, name
                yield from visit(child, path, name)
            else:
                yield from visit(child, path, owner)

    for path in FILES:
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path, "")


def _unentered() -> Dict[str, str]:
    """``file:line`` of every ``def`` the command line never enters, to its
    qualified name, with the exemptions left out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(LIBRARY.parent), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", _TRACER, json.dumps(ARGV)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    entered = {(Path(f), line) for f, line in json.loads(run.stdout)}
    return {
        f"{path.relative_to(ROOT)}:{line} {name}": name
        for path, line, first, name in _definitions()
        if (path, first) not in entered
        and name.rsplit(".", 1)[-1] not in VALUE_PROTOCOL
        and name not in RAISE_ON_MISUSE
    }


def _unused_imports() -> Set[str]:
    """``file:line name`` of every imported name its module never loads."""
    found: Set[str] = set()
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        found.add(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_every_def_is_entered_by_the_command_line() -> None:
    """The exempt members are exactly the listed ones, and each is still
    unentered, so an entry goes once a subcommand reaches its member."""
    assert set(_unentered().values()) == set(BENCHMARK_ONLY)


def test_every_imported_name_is_used_in_its_module() -> None:
    assert _unused_imports() == set()


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


# Fields that no library code reads, with the reason each is kept.
UNREAD_FIELDS = {
    # inputs that __post_init__ converts into the rows the sweep reads
    ("FamilySpec", "start"),
    ("FamilySpec", "end"),
}


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


if __name__ == "__main__":
    for line in sorted(_unentered()) + sorted(_unused_imports()):
        print(line)
