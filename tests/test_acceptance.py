"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Each test covers one numbered acceptance criterion at its stated tolerance
and time budget, so ``pytest -v tests/test_acceptance.py`` prints exactly
one line per criterion.  A heuristic braid-word miss on an interpolation
family is downgraded to a warning (criterion 11); every other divergence
is a hard failure.
"""

from __future__ import annotations

import functools
import random
import time
import warnings
from fractions import Fraction

from dpmirror.homology import (
    HomologyClass,
    dehn_twist,
    extended_vanishing_classes,
    infinity_cycle,
    reference_vanishing_classes,
    seifert_gram,
)
from dpmirror.interfam import FamilySpec, render_svg, sweep, transposition_word
from dpmirror.pathnum import (
    CPoly,
    NumericsError,
    PathPolyline,
    _horner,
    all_roots,
    elliptic_integral,
)
from dpmirror.periods import mirror_check
from dpmirror.pseudolattice import (
    MutationMove,
    MutationWord,
    from_boundaries,
    mutate,
    serre,
    sign_normalize,
    standard_word_identity,
    verify_mutation_equivalence,
    word_identity,
)
from dpmirror.rootlattice import (
    IntLattice,
    fundamental_weights,
    hyperbolic_model,
    kernel_decomposition,
    kuznetsov_basis,
)
from dpmirror.vancycles import vanishing_classes
from dpmirror.weierstrass import catalog, fiber_configuration
from hv_oracle import hv_to_weierstrass

# Frozen singular-fiber tables of the exact catalog models.
EXACT_TABLES = {
    1: {"0": "II*", "432": "I1", "inf": "I1"},
    2: {"0": "III*", "64": "I1", "inf": "I2"},
    3: {"0": "IV*", "27": "I1", "inf": "I3"},
}

# Frozen 9x9 Seifert Gram of the degree-3 class sequence (the reference
# display; the computed Gram must sign-normalize onto it).
GRAM3_REFERENCE = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1],
    [0, 1, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, -1, 0, -1, 0, -1, 0],
    [0, 0, 0, 1, 1, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, -1, 0, -1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]

ROOT_FINGERPRINTS = {6: (3, 72), 7: (2, 126), 8: (1, 240)}

ALPHAS = {1: Fraction(60), 2: Fraction(12), 3: Fraction(6)}


@functools.lru_cache(maxsize=None)
def _vanishing(d: int):
    return vanishing_classes(d)


def _report(number: int, label: str, elapsed: float, budget: float) -> None:
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.2f}s"
    print(f"ACCEPTANCE {number:02d} PASS {label} ({elapsed:.2f}s < {budget:g}s)")


def test_criterion_01_exact_fiber_tables():
    start = time.perf_counter()
    for d, expected in EXACT_TABLES.items():
        table = fiber_configuration(catalog(d))
        found = {p.place_string(): p.fiber.label for p in table.placements}
        assert found == expected, f"d={d}: {found}"
    _report(1, "exact singular-fiber tables", time.perf_counter() - start, 1.0)


def test_criterion_02_curve_presentation_reduction():
    start = time.perf_counter()
    for d in (1, 2, 3):
        reduction = hv_to_weierstrass(d)
        target = catalog(d)
        assert reduction.model.a == target.a, f"d={d}: x-coefficient differs"
        assert reduction.model.b == target.b, f"d={d}: constant differs"
        assert len(reduction.quadratic) == 3
        assert reduction.y_discriminant.terms
    _report(2, "curve-presentation reduction", time.perf_counter() - start, 1.0)


def test_criterion_03_perturbed_models_split_into_nodal_fibers():
    start = time.perf_counter()
    for d in (1, 2, 3):
        model = catalog(d, Fraction(1, 100))
        expected_finite = 12 - d  # ell + 3 with ell = 9 - d
        assert model.discriminant_scale().degree() == expected_finite
        table = fiber_configuration(model)
        finite = [p for p in table.placements if p.place_string() != "inf"]
        assert sum(p.count for p in finite) == expected_finite
        assert all(p.fiber.label == "I1" and p.count >= 1 for p in finite)
        at_inf = [p for p in table.placements if p.place_string() == "inf"]
        assert [(p.fiber.label, p.count) for p in at_inf] == [(f"I{d}", 1)]
    _report(3, "perturbed nodal-fiber counts", time.perf_counter() - start, 1.0)


def test_criterion_04_period_mirror_identity():
    start = time.perf_counter()
    for d, alpha in ALPHAS.items():
        report = mirror_check(d, order=12)
        assert report.passed, f"d={d}: first mismatch {report.first_mismatch}"
        assert report.first_mismatch is None
        assert report.alpha == alpha
    _report(4, "period mirror identity to order 12",
            time.perf_counter() - start, 5.0)


def test_criterion_05_vanishing_cycle_pipeline():
    start = time.perf_counter()
    for d in (1, 2, 3):
        data = _vanishing(d)
        reference = reference_vanishing_classes(d)
        assert len(data.classes) == len(reference)
        for got, ref in zip(data.classes, reference):
            assert got == ref or got == -ref
        assert all(r < 1e-6 for r in data.residuals)
    computed_gram = seifert_gram(list(_vanishing(3).classes))
    assert sign_normalize(computed_gram, GRAM3_REFERENCE) is not None
    _report(5, "vanishing-cycle pipeline", time.perf_counter() - start, 30.0)


def test_criterion_06_reduction_words_verify():
    start = time.perf_counter()
    for d in (1, 2, 3):
        report = verify_mutation_equivalence(d)
        assert report.passed, f"d={d}: {report.failure}"
        assert report.boundary_ok
        if d == 3:
            assert report.intermediates_ok
    _report(6, "mutation-word verification", time.perf_counter() - start, 1.0)


def test_criterion_07_word_identities():
    start = time.perf_counter()
    for d in (1, 2):
        lattice, basis, _ = from_boundaries(extended_vanishing_classes(d))
        first, second = standard_word_identity(d)
        assert word_identity(lattice, basis, first, second), f"d={d}"
    _report(7, "exact word identities", time.perf_counter() - start, 1.0)


def test_criterion_08_infinity_monodromy():
    start = time.perf_counter()
    b = HomologyClass(0, 1)
    for d in (1, 2, 3):
        cycle = infinity_cycle(reference_vanishing_classes(d), d)
        assert cycle == b or cycle == -b, f"d={d}: {cycle}"
    _report(8, "monodromy at infinity", time.perf_counter() - start, 1.0)


def test_criterion_09_junction_lattice_decomposition():
    start = time.perf_counter()
    for d in (1, 2, 3):
        ell = 9 - d
        lattice, _, charge = from_boundaries(reference_vanishing_classes(d))
        decomposition = kernel_decomposition(lattice, charge)
        assert decomposition.passed, f"d={d}: {decomposition.failure}"
        report = decomposition.root_report
        assert report.dynkin_type == f"E{ell}"
        assert (report.abs_det, report.root_count) == ROOT_FINGERPRINTS[ell]
        surface = kuznetsov_basis(d)
        assert surface.passed
        assert surface.unit_canonical == Fraction(-d, 2)
        assert surface.canonical_unit == Fraction(d, 2)
        ambient = hyperbolic_model(ell)
        assert ambient.passed
        weights = fundamental_weights(
            IntLattice(ambient.gram), ambient.ambient_simple_roots
        )
        assert len(weights) == ell
        gram = ambient.gram
        for i, w in enumerate(weights):
            for j, root in enumerate(ambient.ambient_simple_roots):
                pairing = sum(
                    w[r] * gram[r][c] * root[c]
                    for r in range(len(gram))
                    for c in range(len(gram))
                )
                assert pairing == (1 if i == j else 0)
    _report(9, "junction-lattice decomposition",
            time.perf_counter() - start, 10.0)


def test_criterion_10_torus_model_sequences():
    start = time.perf_counter()
    from dpmirror.pseudolattice import ghs_sequences, ghs_target

    for ell in (6, 7, 8):
        sequence = ghs_sequences(ell)
        target = ghs_target(ell)
        assert len(sequence) == len(target)
        for got, ref in zip(sequence, target):
            assert got == ref or got == -ref, f"ell={ell}"
    _report(10, "torus-model cycle sequences", time.perf_counter() - start, 1.0)


def test_criterion_11_interpolation_families():
    start = time.perf_counter()
    for d_from, d_to in ((3, 2), (2, 1)):
        family = FamilySpec.between_degrees(d_from, d_to)
        trajectories = sweep(family)
        assert trajectories.track_count == 12
        assert trajectories.finite_count(0) == 12 - d_from
        last = len(trajectories.parameters) - 1
        assert trajectories.finite_count(last) == 12 - d_to
        assert render_svg(trajectories) == render_svg(trajectories)
        word = transposition_word(trajectories)
        lattice, basis, _ = from_boundaries(extended_vanishing_classes(d_to))
        validated = word_identity(
            lattice, basis, word, standard_word_identity(d_to)[0]
        )
        if not validated:
            warnings.warn(
                f"heuristic braid word for the {d_from}->{d_to} family does "
                f"not reduce to the reference word (got {word}); the exact "
                "identities of criterion 7 remain the pass bar",
                stacklevel=1,
            )
    _report(11, "interpolation sweeps and braid words",
            time.perf_counter() - start, 60.0)


def test_criterion_12_property_suites():
    start = time.perf_counter()
    # Mutation inverse / exceptionality preservation, 200 random cases.
    lattice, basis, _ = from_boundaries(reference_vanishing_classes(3))
    rng = random.Random(0)
    top = len(basis.vectors) - 2
    for _ in range(200):
        slot = rng.randint(0, top)
        side = rng.choice("LR")
        other = "R" if side == "L" else "L"
        cancel = MutationWord(
            (MutationMove(other, slot), MutationMove(side, slot))
        )
        assert mutate(lattice, basis, cancel) == basis
    # Serre identity on every constructed pseudolattice.
    for d in (1, 2, 3):
        instance, inst_basis, _ = from_boundaries(
            reference_vanishing_classes(d)
        )
        gram = instance.gram
        operator = serre(instance)
        n = len(gram)
        for i in range(n):
            image = [
                sum(operator[r][c] * (1 if c == i else 0) for c in range(n))
                for r in range(n)
            ]
            for j in range(n):
                rhs = sum(gram[j][c] * image[c] for c in range(n))
                assert gram[i][j] == rhs
    # Dehn-twist symplecticity across all reference classes.
    for d in (1, 2, 3):
        for cls in reference_vanishing_classes(d):
            (a, b), (c, e) = dehn_twist(cls).rows
            assert a * e - b * c == 1
    # Period-integral path additivity at 1e-8.
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    seg12 = elliptic_integral(cubic, PathPolyline((1 + 0j, 2 + 0j)), roots)
    seg23 = elliptic_integral(cubic, PathPolyline((2 + 0j, 3 + 0j)), roots)
    seg13 = elliptic_integral(cubic, PathPolyline((1 + 0j, 3 + 0j)), roots)
    assert abs(seg12 + seg23 - seg13) < 1e-8
    # Root-residual certificates.
    invariant = CPoly.from_unipoly(catalog(3, Fraction(1, 100)).discriminant_scale())
    for root in all_roots(invariant):
        assert _horner(invariant.coeffs, root)[2] < 1e-6
    _report(12, "property suites", time.perf_counter() - start, 60.0)
