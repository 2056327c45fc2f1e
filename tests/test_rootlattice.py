"""Tests for root-system identification, surface models, and kernel splittings."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpmirror._intlin import (
    complete_unimodular,
    determinant_integer,
    integer_kernel,
    matrix_multiply,
    restricted_gram,
    transpose,
)
from dpmirror.homology import reference_vanishing_classes
from dpmirror.pseudolattice import ChargeMap, PseudolatticeError, from_boundaries
from dpmirror.rootlattice import (
    IntLattice,
    RootLatticeError,
    cartan_matrix,
    fundamental_weights,
    hyperbolic_model,
    kernel_decomposition,
    kuznetsov_basis,
    root_system_identify,
    short_vectors,
)

# Frozen radical generators of the charge kernels, in kernel coordinates.
RADICAL_GENERATORS = {
    3: (1, 0, 1, 1, 0, 1, -1),
    2: (1, -1, -1, 0, -1, -1, 1, 0),
    1: (1, -1, 0, -1, -1, 0, -1, 1, 0),
}

# (kernel rank, quotient determinant, type, root count) per degree.
KERNEL_FINGERPRINTS = {
    3: (7, 3, "E6", 72),
    2: (8, 2, "E7", 126),
    1: (9, 1, "E8", 240),
}


def _lattice_and_charge(d: int):
    lattice, _, charge = from_boundaries(reference_vanishing_classes(d))
    return lattice, charge


def _cartan_lattice(letter: str, rank: int) -> IntLattice:
    return IntLattice(tuple(tuple(r) for r in cartan_matrix(letter, rank)))


# ---------------------------------------------------------------------------
# short vectors


def test_short_vectors_rank_one() -> None:
    lattice = IntLattice(((2,),))
    assert short_vectors(lattice, 2) == [[-1], [1]]
    assert short_vectors(lattice, 1) == []


def test_short_vectors_negative_definite() -> None:
    lattice = IntLattice(((-2,),))
    assert short_vectors(lattice, 2) == [[-1], [1]]


def test_short_vectors_indefinite_rejected() -> None:
    lattice = IntLattice(((1, 0), (0, -1)))
    with pytest.raises(RootLatticeError, match="definite"):
        short_vectors(lattice, 2)


def _sympy_inertia(matrix):
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, from its characteristic polynomial: all its roots are real, so
    Descartes' rule of signs counts them exactly."""
    x = sympy.Symbol("x")
    poly = sympy.Matrix(matrix).charpoly(x)
    coeffs = poly.all_coeffs()  # highest degree first

    def sign_changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    degree = len(coeffs) - 1
    mirrored = [c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(mirrored), zero


_square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)
# Any symmetric form, and the semidefinite M M^T of either sign, which is
# degenerate whenever M is singular.
_symmetric_forms = st.one_of(
    _square.map(lambda m: [[m[min(i, j)][max(i, j)] for j in range(len(m))]
                           for i in range(len(m))]),
    _square.map(lambda m: matrix_multiply(m, transpose(m))),
    _square.map(lambda m: [[-x for x in row]
                           for row in matrix_multiply(m, transpose(m))]),
)


@settings(max_examples=200, deadline=None)
@given(_symmetric_forms)
@example([[0, 1], [1, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 0]])
@example([[-2, 1], [1, -2]])
def test_short_vectors_refuse_exactly_the_forms_that_are_not_definite(
    gram: list,
) -> None:
    """The leading Bareiss minors decide definiteness for
    ``root_system_identify``: a form is refused exactly when it is not
    definite of either sign, degenerate forms included."""
    positive, negative, zero = _sympy_inertia(gram)
    definite = zero == 0 and (positive == 0 or negative == 0)
    try:
        short_vectors(IntLattice(tuple(tuple(r) for r in gram)), 1)
    except RootLatticeError:
        assert not definite
    else:
        assert definite


def test_short_vectors_exceptional_root_counts() -> None:
    for rank, count in ((6, 72), (7, 126), (8, 240)):
        lattice = _cartan_lattice("E", rank)
        roots = [v for v in short_vectors(lattice, 2) if lattice.norm(v) == 2]
        assert len(roots) == count


def test_short_vectors_include_both_signs() -> None:
    lattice = _cartan_lattice("A", 2)
    vectors = short_vectors(lattice, 2)
    assert all([-x for x in v] in vectors for v in vectors)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.integers(1, 6),
)
def test_short_vectors_match_box_enumeration(rows: list, bound: int) -> None:
    if determinant_integer([list(r) for r in rows]) == 0:
        return
    gram = matrix_multiply(rows, transpose(rows))
    lattice = IntLattice(tuple(tuple(r) for r in gram))
    assert short_vectors(lattice, bound) == _box_vectors(lattice, bound)


def _box_vectors(lattice: IntLattice, bound: int) -> list:
    """The nonzero vectors of norm at most ``bound`` of a positive definite
    lattice, by brute force over the box that holds them all."""
    gram = [list(r) for r in lattice.gram]
    n = lattice.rank
    # v^T G v <= B bounds each coordinate exactly: v_i^2 <= B (G^-1)_ii,
    # where (G^-1)_ii is the principal cofactor C_ii over det G.
    det = determinant_integer(gram)
    radii = []
    for i in range(n):
        minor = [[g for j, g in enumerate(row) if j != i]
                 for k, row in enumerate(gram) if k != i]
        cofactor = determinant_integer(minor) if minor else 1
        radii.append(math.isqrt(bound * cofactor // det))
    return [
        list(v)
        for v in itertools.product(*(range(-r, r + 1) for r in radii))
        if any(v) and lattice.norm(list(v)) <= bound
    ]


# A skewed, non-reduced Gram, B A B^T with A = [[2, 1, 0], [1, 3, 1], [0, 1, 5]]
# and B = [[1, 0, 0], [3, 1, 0], [-2, 4, 1]]: its LDL^T multipliers 7/2 and
# 22/5 are not integers, so no enumeration level has an integral center.
SKEWED_GRAM = ((2, 7, 0), (7, 27, 11), (0, 11, 53))


@pytest.mark.parametrize("vector", [[2, -1, 0], [-5, 2, 0], [1, -1, 1],
                                    [7, -2, 1], [0, 0, 1]])
def test_short_vectors_bound_is_inclusive_and_exact(vector: list) -> None:
    """A vector whose norm equals the bound is returned, and with the bound
    one lower it is not; both lists match brute force."""
    lattice = IntLattice(SKEWED_GRAM)
    norm = lattice.norm(vector)
    at_bound = short_vectors(lattice, norm)
    below = short_vectors(lattice, norm - 1)
    assert vector in at_bound
    assert vector not in below
    assert at_bound == _box_vectors(lattice, norm)
    assert below == _box_vectors(lattice, norm - 1)
    assert short_vectors(lattice.negated(), norm) == at_bound


@pytest.mark.parametrize("d", [1, 2, 3])
def test_short_vectors_on_the_junction_quotient_lattices(d: int) -> None:
    """The quotient Grams that ``junction`` builds, rebuilt here the same
    way, are not reduced; their short vectors of norm at most 2 are the 240,
    126 and 72 roots that ``junction`` reports."""
    lattice, charge = _lattice_and_charge(d)
    kernel = integer_kernel(charge.matrix())
    restricted = restricted_gram(lattice.gram, kernel)
    (radical,) = integer_kernel(restricted)
    if next(x for x in radical if x) < 0:
        radical = [-x for x in radical]
    full = restricted_gram(restricted, transpose(complete_unimodular(radical)))
    quotient = IntLattice(tuple(tuple(row[1:]) for row in full[1:]))
    vectors = short_vectors(quotient, 2)
    assert len(vectors) == KERNEL_FINGERPRINTS[d][3]
    assert kernel_decomposition(lattice, charge).root_report.root_count == len(vectors)
    assert all(abs(quotient.norm(v)) == 2 for v in vectors)


# ---------------------------------------------------------------------------
# Cartan catalog


def test_cartan_matrix_shapes_and_determinants() -> None:
    for rank in range(1, 6):
        matrix = cartan_matrix("A", rank)
        assert determinant_integer(matrix) == rank + 1
    for rank in (4, 5, 6):
        assert determinant_integer(cartan_matrix("D", rank)) == 4
    for rank, det in ((6, 3), (7, 2), (8, 1)):
        matrix = cartan_matrix("E", rank)
        assert determinant_integer(matrix) == det
        assert all(matrix[i][j] == matrix[j][i] for i in range(rank) for j in range(rank))


def test_cartan_matrix_rejects_bad_input() -> None:
    with pytest.raises(RootLatticeError):
        cartan_matrix("B", 2)
    with pytest.raises(RootLatticeError):
        cartan_matrix("D", 3)
    with pytest.raises(RootLatticeError):
        cartan_matrix("E", 5)
    with pytest.raises(RootLatticeError):
        cartan_matrix("A", 0)


# ---------------------------------------------------------------------------
# root-system identification


def test_identify_single_node() -> None:
    report = root_system_identify(IntLattice(((2,),)))
    assert report.dynkin_type == "A1"
    assert report.root_count == 2
    assert report.edges == ()


def test_identify_direct_sum() -> None:
    gram = ((2, -1, 0), (-1, 2, 0), (0, 0, 2))
    report = root_system_identify(IntLattice(gram))
    assert report.dynkin_type == "A2+A1"
    assert report.root_count == 8
    assert report.abs_det == 6


def test_identify_d4() -> None:
    report = root_system_identify(_cartan_lattice("D", 4))
    assert report.dynkin_type == "D4"
    assert report.root_count == 24
    assert report.cartan == tuple(tuple(r) for r in cartan_matrix("D", 4))


def test_identify_exceptional_types() -> None:
    for rank, det, count in ((6, 3, 72), (7, 2, 126), (8, 1, 240)):
        report = root_system_identify(_cartan_lattice("E", rank))
        assert report.dynkin_type == f"E{rank}"
        assert report.abs_det == det
        assert report.root_count == count
        assert report.cartan == tuple(tuple(r) for r in cartan_matrix("E", rank))
        assert report.sign == 1
        # simple roots must reproduce the Cartan matrix inside the lattice
        lattice = _cartan_lattice("E", rank)
        recomputed = [
            [lattice.pairing(u, v) for v in report.simple_roots]
            for u in report.simple_roots
        ]
        assert recomputed == [list(r) for r in report.cartan]


@pytest.mark.parametrize("letter, rank", [
    ("A", 4), ("D", 4), ("E", 6), ("E", 7), ("E", 8),
])
def test_simple_roots_match_the_pairwise_definition(letter: str, rank: int) -> None:
    """The simple roots are the positive roots that are no difference of two
    positive roots, for the same generic functional as the identification."""
    lattice = _cartan_lattice(letter, rank)
    roots = [v for v in short_vectors(lattice, 2) if lattice.norm(v) == 2]
    base = 2 * max(abs(x) for v in roots for x in v) + 1
    positive = {
        tuple(v) for v in roots
        if sum(base**j * x for j, x in enumerate(v)) > 0
    }
    pairwise = {
        v for v in positive
        if not any(
            tuple(a - b for a, b in zip(v, other)) in positive
            for other in positive if other != v
        )
    }
    assert len(pairwise) == rank
    assert set(root_system_identify(lattice).simple_roots) == pairwise


def test_identify_negated_lattice() -> None:
    report = root_system_identify(_cartan_lattice("E", 6).negated())
    assert report.sign == -1
    assert report.dynkin_type == "E6"
    assert report.root_count == 72


def test_identify_rejects_radical() -> None:
    with pytest.raises(RootLatticeError, match="radical"):
        root_system_identify(IntLattice(((2, 0), (0, 0))))


def test_identify_rejects_indefinite() -> None:
    with pytest.raises(RootLatticeError, match="definite"):
        root_system_identify(IntLattice(((1, 0), (0, -1))))


def test_identify_rejects_non_spanning_roots() -> None:
    with pytest.raises(RootLatticeError, match="span"):
        root_system_identify(IntLattice(((2, 0), (0, 4))))
    with pytest.raises(RootLatticeError, match="span"):
        root_system_identify(IntLattice(((4,),)))


def test_identify_report_json() -> None:
    data = root_system_identify(_cartan_lattice("A", 2)).to_json()
    assert data["dynkin_type"] == "A2"
    assert data["root_count"] == 6
    assert data["edges"] == [[0, 1]]


def _elementary_ops(n: int, ops: list) -> list:
    """A unimodular matrix from a list of (i, j, sign) shear instructions."""
    matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, sign in ops:
        if i != j:
            for k in range(n):
                matrix[i][k] += sign * matrix[j][k]
    return matrix


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1])),
        max_size=6,
    )
)
def test_identify_invariant_under_basis_change(ops: list) -> None:
    gram = cartan_matrix("D", 4)
    u = _elementary_ops(4, ops)
    conjugated = matrix_multiply(matrix_multiply(u, gram), transpose(u))
    report = root_system_identify(IntLattice(tuple(tuple(r) for r in conjugated)))
    assert report.dynkin_type == "D4"
    assert report.root_count == 24
    assert report.abs_det == 4


# ---------------------------------------------------------------------------
# hyperbolic model and fundamental weights


def test_hyperbolic_models_pass() -> None:
    for ell, det in ((6, 3), (7, 2), (8, 1)):
        report = hyperbolic_model(ell)
        assert report.passed
        assert report.canonical_norm == 9 - ell
        assert report.orthogonal.dynkin_type == f"E{ell}"
        assert report.orthogonal.abs_det == det
        assert len(report.ambient_simple_roots) == ell


def test_hyperbolic_ambient_roots_orthogonal_to_canonical() -> None:
    report = hyperbolic_model(6)
    lattice = IntLattice(report.gram)
    for root in report.ambient_simple_roots:
        assert lattice.pairing(root, report.canonical) == 0
        assert lattice.norm(root) == -2


def test_hyperbolic_model_off_catalog_rank() -> None:
    # rank five: the orthogonal complement is D5, not an E-type system
    report = hyperbolic_model(5)
    assert not report.passed
    assert report.orthogonal.dynkin_type == "D5"


def test_fundamental_weights_are_dual_to_roots() -> None:
    for ell in (6, 7, 8):
        report = hyperbolic_model(ell)
        lattice = IntLattice(report.gram)
        weights = fundamental_weights(lattice, report.ambient_simple_roots)
        assert len(weights) == ell
        for i, w in enumerate(weights):
            for j, root in enumerate(report.ambient_simple_roots):
                assert lattice.pairing(w, root) == (1 if i == j else 0)


def test_fundamental_weights_reject_bad_roots() -> None:
    lattice = IntLattice(((2, 0), (0, 2)))
    with pytest.raises(RootLatticeError, match="duplicate"):
        fundamental_weights(lattice, [[1, 0], [1, 0]])
    with pytest.raises(RootLatticeError, match="zero"):
        fundamental_weights(lattice, [[0, 0]])
    with pytest.raises(RootLatticeError, match="primitive"):
        fundamental_weights(lattice, [[2, 0]])
    with pytest.raises(RootLatticeError, match="dependent"):
        fundamental_weights(IntLattice(((2,),)), [[1], [-1]])


def test_fundamental_weights_report_missing_solution() -> None:
    # <w, root> = 2w has no integral solution equal to 1
    with pytest.raises(RootLatticeError, match="no integral fundamental weight"):
        fundamental_weights(IntLattice(((2,),)), [[1]])


# ---------------------------------------------------------------------------
# kernel decomposition


def test_kernel_decomposition_fingerprints() -> None:
    for d, (rank, det, dynkin_type, count) in KERNEL_FINGERPRINTS.items():
        lattice, charge = _lattice_and_charge(d)
        report = kernel_decomposition(lattice, charge)
        assert report.passed, report.failure
        assert report.kernel_rank == rank
        assert report.radical_rank == 1
        assert report.radical_generator == RADICAL_GENERATORS[d]
        assert report.radical_is_point
        assert report.quotient_det == det
        assert report.root_report.dynkin_type == dynkin_type
        assert report.root_report.root_count == count
        assert report.orthogonal


def test_kernel_decomposition_json() -> None:
    lattice, charge = _lattice_and_charge(3)
    data = kernel_decomposition(lattice, charge).to_json()
    assert data["passed"] is True
    assert data["failure"] is None
    assert data["root_system"]["dynkin_type"] == "E6"


def test_kernel_decomposition_rejects_charged_point() -> None:
    lattice, _ = _lattice_and_charge(3)
    n = lattice.rank
    rows = (tuple(1 if i == 0 else 0 for i in range(n)),
            tuple(1 if i == 1 else 0 for i in range(n)))
    with pytest.raises(PseudolatticeError, match="charge"):
        kernel_decomposition(lattice, ChargeMap(rows))


# ---------------------------------------------------------------------------
# the rational surface basis


def test_surface_basis_degree_3() -> None:
    report = kuznetsov_basis(3)
    assert report.passed
    assert report.unit_canonical == Fraction(-3, 2)
    assert report.canonical_unit == Fraction(3, 2)
    assert report.canonical_self == Fraction(-3)
    assert report.corner_checks
    assert report.cross_zero
    assert report.cartan == tuple(tuple(r) for r in cartan_matrix("E", 6))
    assert len(report.basis) == 9


def test_surface_basis_all_degrees() -> None:
    for d, ell in ((3, 6), (2, 7), (1, 8)):
        report = kuznetsov_basis(d)
        assert report.passed
        assert report.unit_canonical == Fraction(-d, 2)
        assert report.canonical_unit == Fraction(d, 2)
        assert report.canonical_self == Fraction(-d)
        assert len(report.basis) == ell + 3
        # Gram corners: unit against point on both sides, and a null point
        last = len(report.basis) - 1
        assert report.gram[0][last] == 1
        assert report.gram[last][0] == 1
        assert report.gram[last][last] == 0


def test_surface_basis_json_fractions() -> None:
    data = kuznetsov_basis(3).to_json()
    assert data["unit_canonical"] == "-3/2"
    assert data["canonical_unit"] == "3/2"
    assert data["passed"] is True


def test_surface_basis_rejects_unknown_degree() -> None:
    with pytest.raises(ValueError):
        kuznetsov_basis(4)
