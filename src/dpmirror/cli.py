"""Command-line front end for the del Pezzo mirror toolkit.

One subcommand per pipeline: singular-fiber tables, period mirror checks,
critical values, vanishing-cycle data, mutation verification, junction
lattice decompositions, torus-model cycle sequences, interpolation sweeps,
and direct word application, plus ``check``, which prints one verdict line
per claim across all degrees.  Each subcommand accepts only the flags it
reads, and ``--format`` only where it writes more than one format.  Exit
codes follow a CI-friendly contract: 0 when every requested check passes,
2 when a verification fails, and 1 for usage or numeric errors.  All
rational inputs cross the boundary as exact "num" or "num/den" strings;
identical configurations produce byte-identical JSON, CSV, SVG, and text
artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._record import Record
from .exactpoly import rational_to_num_den
from .homology import (
    HomologyClass,
    extended_vanishing_classes,
    infinity_cycle,
    reference_vanishing_classes,
    seifert_gram,
)
from .interfam import FamilySpec, render_svg, sweep, transposition_word
from .pathnum import NumericsError
from .periods import mirror_check
from .pseudolattice import (
    MutationWord,
    PseudolatticeError,
    _matches_up_to_sign,
    from_boundaries,
    ghs_sequences,
    ghs_target,
    mutate,
    standard_word_identity,
    verify_mutation_equivalence,
    word_identity,
)
from .rootlattice import (
    IntLattice,
    RootLatticeError,
    fundamental_weights,
    hyperbolic_model,
    kernel_decomposition,
    kuznetsov_basis,
)
from .vancycles import critical_values_ordered, render_delta_svg, vanishing_classes
from .weierstrass import FiberClassificationError, catalog, fiber_configuration

__all__ = ["RunConfig", "main", "parse_args", "run"]

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2

_FLAGS: Dict[str, Dict[str, object]] = {
    "d": dict(type=int, required=True,
              help="surface degree (interpolate: source degree)"),
    "epsilon": dict(help='perturbation as an exact rational "num/den" '
                         "(default 1/100)"),
    "order": dict(type=int, help="series truncation order, at least 2 (default 12)"),
    "variant": dict(choices=("exact", "perturbed"),
                    help="model selection (default exact)"),
    "word": dict(required=True, help='mutation word such as "L1 R3"'),
}


class UsageError(ValueError):
    """A malformed invocation: bad flag, bad value, bad combination."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed through UsageError."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as ``num`` or ``num/den``.

    Decimal points are rejected on purpose: configuration values never
    pass through floating point.
    """
    body = text.strip()
    sign = 1
    if body.startswith(("+", "-")):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    num, slash, den = body.partition("/")
    if not num.isdecimal() or (slash and not den.isdecimal()):
        raise UsageError(f"not an exact rational: {text!r}")
    try:
        numerator, denominator = int(num), int(den) if slash else 1
    except ValueError as exc:  # more digits than int() converts
        raise UsageError(f"not an exact rational: {exc}") from exc
    if denominator == 0:
        raise UsageError(f"zero denominator: {text!r}")
    return Fraction(sign * numerator, denominator)


class RunConfig(Record):
    """One fully parsed invocation; fields a subcommand does not read keep
    their defaults."""

    command: str
    d: Optional[int] = None  # surface degree (interpolate: source degree)
    epsilon: Fraction = Fraction(1, 100)  # perturbation for perturbed models
    order: int = 12  # power-series truncation order
    out: Optional[str] = None  # output path; None prints to stdout
    fmt: str = "json"  # json, csv, or svg
    word: Optional[str] = None  # mutation word for the mutate subcommand
    variant: Optional[str] = None  # exact or perturbed model selection

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.command != "check" and self.d not in (1, 2, 3):
            raise UsageError("--d must be 1, 2, or 3")
        if self.epsilon <= 0:
            raise UsageError("--epsilon must be positive")
        if self.order < 2:
            raise UsageError("--order must be at least 2")
        if self.fmt not in ("json", "csv", "svg"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.variant not in (None, "exact", "perturbed"):
            raise UsageError(f"unknown variant {self.variant!r}")


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Parse an argument vector into an exact configuration; only the named
    subcommand's parser is built, or all of them when none is named."""
    parser = _Parser(prog="dpmirror", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in named:
        command = COMMANDS[name]
        cmd = sub.add_parser(name)
        for flag in command.flags:
            cmd.add_argument(f"--{flag}", **_FLAGS[flag])
        if command.formats:
            cmd.add_argument("--format", dest="fmt", choices=command.formats,
                             help="artifact format (default json)")
        cmd.add_argument("--out", help="output path (default: stdout)")
    given = {
        key: value
        for key, value in vars(parser.parse_args(argv)).items()
        if value is not None
    }
    if "epsilon" in given:
        given["epsilon"] = parse_rational(given["epsilon"])
    return RunConfig(**given)


# ---------------------------------------------------------------------------
# serialization helpers


def _json_text(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _pair(z: complex) -> List[float]:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fibers(config: RunConfig) -> Tuple[int, str]:
    variant = config.variant or "exact"
    if variant == "exact":
        model = catalog(config.d)
    else:
        model = catalog(config.d, config.epsilon)
    table = fiber_configuration(model)
    if config.fmt == "csv":
        lines = ["place,type,count"]
        for p in table.placements:
            lines.append(f"{p.place_string()},{p.fiber.label},{p.count}")
        return EXIT_PASS, "\n".join(lines) + "\n"
    payload = {"d": config.d, "variant": variant, **table.to_json()}
    return EXIT_PASS, _json_text(payload)


def _cmd_mirror(config: RunConfig) -> Tuple[int, str]:
    report = mirror_check(config.d, config.order)
    payload = {
        "d": report.d,
        "order": report.order,
        "alpha": rational_to_num_den(report.alpha),
        "passed": report.passed,
        "first_mismatch": report.first_mismatch,
        "regularized_quantum": report.regularized.to_json(),
        "classical": report.classical.to_json(),
    }
    return (EXIT_PASS if report.passed else EXIT_FAIL), _json_text(payload)


def _cmd_critvals(config: RunConfig) -> Tuple[int, str]:
    values = critical_values_ordered(catalog(config.d, config.epsilon))
    if config.fmt == "csv":
        lines = ["index,re,im"]
        for index, z in enumerate(values):
            lines.append(f"{index},{z.real:.16e},{z.imag:.16e}")
        return EXIT_PASS, "\n".join(lines) + "\n"
    payload = {
        "d": config.d,
        "variant": "perturbed",
        "count": len(values),
        "values": [_pair(z) for z in values],
    }
    return EXIT_PASS, _json_text(payload)


def _cmd_cycles(config: RunConfig) -> Tuple[int, str]:
    data = vanishing_classes(config.d, config.epsilon)
    if config.fmt == "svg":
        return EXIT_PASS, render_delta_svg(data)
    if config.fmt == "csv":
        lines = ["index,m,n"]
        for index, cls in enumerate(data.classes):
            lines.append(f"{index},{cls.m},{cls.n}")
        return EXIT_PASS, "\n".join(lines) + "\n"
    payload = dict(data.to_json())
    payload["seifert_gram"] = seifert_gram(data.classes)
    return EXIT_PASS, _json_text(payload)


def _cmd_verify(config: RunConfig) -> Tuple[int, str]:
    report = verify_mutation_equivalence(config.d)
    code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, _json_text(dict(report.to_json()))


def _cmd_junction(config: RunConfig) -> Tuple[int, str]:
    lattice, _, charge = from_boundaries(reference_vanishing_classes(config.d))
    decomposition = kernel_decomposition(lattice, charge)
    surface = kuznetsov_basis(config.d)
    ell = 9 - config.d
    ambient = hyperbolic_model(ell)
    weights = fundamental_weights(
        IntLattice(ambient.gram), ambient.ambient_simple_roots
    )
    passed = decomposition.passed and surface.passed and ambient.passed
    payload = {
        "d": config.d,
        "ell": ell,
        "kernel_decomposition": decomposition.to_json(),
        "surface_basis": surface.to_json(),
        "hyperbolic_model": ambient.to_json(),
        "fundamental_weights": [list(w) for w in weights],
        "passed": passed,
    }
    return (EXIT_PASS if passed else EXIT_FAIL), _json_text(payload)


def _cmd_ghs(config: RunConfig) -> Tuple[int, str]:
    ell = 9 - config.d
    sequence = ghs_sequences(ell)
    target = ghs_target(ell)
    matches = _matches_up_to_sign(sequence, target) is None
    payload = {
        "d": config.d,
        "ell": ell,
        "sequence": [[c.m, c.n] for c in sequence],
        "target": [[c.m, c.n] for c in target],
        "matches_up_to_sign": matches,
    }
    return (EXIT_PASS if matches else EXIT_FAIL), _json_text(payload)


def _cmd_interpolate(config: RunConfig) -> Tuple[int, str]:
    if config.d not in (2, 3):
        raise UsageError("interpolate runs between degrees d and d-1; --d "
                         "must be 2 or 3")
    target = config.d - 1
    family = FamilySpec.between_degrees(config.d, target, config.epsilon)
    trajectories = sweep(family)
    if config.fmt == "svg":
        return EXIT_PASS, render_svg(trajectories)
    if config.fmt == "csv":
        return EXIT_PASS, trajectories.to_csv()
    warning: Optional[str] = None
    word_text: Optional[str] = None
    validated = False
    try:
        word = transposition_word(trajectories)
        word_text = str(word)
        lattice, basis, _ = from_boundaries(extended_vanishing_classes(target))
        validated = word_identity(
            lattice, basis, word, standard_word_identity(target)[0]
        )
        if not validated:
            warning = (
                "heuristic word does not reduce to the reference word under "
                "the exact mutation identities"
            )
    except NumericsError as exc:
        warning = f"braid reading failed: {exc}"
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    last = len(trajectories.parameters) - 1
    payload = {
        "from_degree": config.d,
        "to_degree": target,
        "epsilon": rational_to_num_den(config.epsilon),
        "track_count": trajectories.track_count,
        "finite_start": trajectories.finite_count(0),
        "finite_end": trajectories.finite_count(last),
        "chart_switches": [[t, s] for t, s in trajectories.chart_switches],
        "word": word_text,
        "validated": validated,
        "warning": warning,
    }
    return EXIT_PASS, _json_text(payload)


def _cmd_mutate(config: RunConfig) -> Tuple[int, str]:
    if not config.word:
        raise UsageError("mutate requires --word")
    try:
        word = MutationWord.parse(config.word)
    except PseudolatticeError as exc:
        raise UsageError(f"unparseable word {config.word!r}: {exc}") from exc
    lattice, basis, charge = from_boundaries(
        extended_vanishing_classes(config.d)
    )
    initial = [[c.m, c.n] for c in charge.charges(basis)]
    try:
        final = mutate(lattice, basis, word)
    except PseudolatticeError as exc:
        payload = {
            "d": config.d,
            "word": str(word),
            "applied": False,
            "error": str(exc),
        }
        return EXIT_FAIL, _json_text(payload)
    payload = {
        "d": config.d,
        "word": str(word),
        "applied": True,
        "boundaries_initial": initial,
        "boundaries_final": [[c.m, c.n] for c in charge.charges(final)],
        "basis_final": [list(v) for v in final.vectors],
    }
    return EXIT_PASS, _json_text(payload)


def _claims() -> List[Tuple[str, bool]]:
    """Every desk-checked claim with its verdict: the reduction words, the
    exact word identities, the junction-lattice decompositions, the surface
    basis Grams, the torus-model cycle sequences, and the monodromy at
    infinity."""
    claims = [
        (f"reduction word, degree {d}", verify_mutation_equivalence(d).passed)
        for d in (1, 2, 3)
    ]
    for d in (1, 2):
        lattice, basis, _ = from_boundaries(extended_vanishing_classes(d))
        claims.append((f"word identity, degree {d}",
                       word_identity(lattice, basis, *standard_word_identity(d))))
    for d in (1, 2, 3):
        ell = 9 - d
        lattice, _, charge = from_boundaries(reference_vanishing_classes(d))
        decomposition = kernel_decomposition(lattice, charge)
        claims.append((f"junction kernel E{ell} + radical, degree {d}",
                       decomposition.passed))
        claims.append((f"surface basis Gram, degree {d}",
                       kuznetsov_basis(d).passed))
    for ell in (6, 7, 8):
        claims.append((f"torus-model sequence, rank {ell}",
                       _matches_up_to_sign(ghs_sequences(ell), ghs_target(ell))
                       is None))
    b = HomologyClass(0, 1)
    for d in (1, 2, 3):
        cycle = infinity_cycle(reference_vanishing_classes(d), d)
        claims.append((f"infinity cycle is +/-b, degree {d}", cycle in (b, -b)))
    return claims


def _cmd_check(config: RunConfig) -> Tuple[int, str]:
    claims = _claims()
    width = max(len(label) for label, _ in claims)
    lines = [f"{label:<{width}s}  {'PASS' if ok else 'FAIL'}"
             for label, ok in claims]
    passed = sum(ok for _, ok in claims)
    lines.append(f"\n{passed}/{len(claims)} checks passed")
    code = EXIT_PASS if passed == len(claims) else EXIT_FAIL
    return code, "\n".join(lines) + "\n"


class _Command(NamedTuple):
    handler: Callable[[RunConfig], Tuple[int, str]]
    flags: Tuple[str, ...]  # the flags it reads, besides --out
    formats: Tuple[str, ...]  # --format choices; empty when it writes JSON only


# One entry per subcommand, in the order the help text lists them.
COMMANDS: Dict[str, _Command] = {
    "fibers": _Command(_cmd_fibers, ("d", "epsilon", "variant"), ("json", "csv")),
    "mirror": _Command(_cmd_mirror, ("d", "order"), ()),
    "critvals": _Command(_cmd_critvals, ("d", "epsilon"), ("json", "csv")),
    "cycles": _Command(_cmd_cycles, ("d", "epsilon"), ("json", "csv", "svg")),
    "verify": _Command(_cmd_verify, ("d",), ()),
    "junction": _Command(_cmd_junction, ("d",), ()),
    "ghs": _Command(_cmd_ghs, ("d",), ()),
    "interpolate": _Command(_cmd_interpolate, ("d", "epsilon"),
                            ("json", "csv", "svg")),
    "mutate": _Command(_cmd_mutate, ("d", "word"), ()),
    "check": _Command(_cmd_check, (), ()),
}


def run(config: RunConfig) -> int:
    """Execute one configuration and emit its artifact; returns exit code."""
    code, artifact = COMMANDS[config.command].handler(config)
    if config.out is None:
        sys.stdout.write(artifact)
    else:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(artifact)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; maps the typed errors onto exit code 1.

    Any other exception, a bare ``ValueError`` included, is a bug and
    propagates with its traceback.
    """
    try:
        config = parse_args(list(sys.argv[1:] if argv is None else argv))
        return run(config)
    except (UsageError, NumericsError, PseudolatticeError, RootLatticeError,
            FiberClassificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
