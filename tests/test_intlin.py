"""Tests for exact integer linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror._intlin import (
    col_hnf_transform,
    column_space_basis,
    complete_unimodular,
    determinant_integer,
    extended_gcd,
    identity_matrix,
    integer_kernel,
    matrix_multiply,
    matrix_vector,
    primitive_vector,
    rank_integer,
    solve_integer,
    transpose,
    vector_gcd,
)

small_ints = st.integers(min_value=-9, max_value=9)


def _matrix_strategy(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: _matrix_strategy(m, n)
    )
)

square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: _matrix_strategy(n, n)
)


# ---------------------------------------------------------------------------
# gcd helpers


@given(a=st.integers(-500, 500), b=st.integers(-500, 500))
def test_extended_gcd_is_bezout(a, b):
    g, s, t = extended_gcd(a, b)
    assert g >= 0
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def test_primitive_vector():
    assert primitive_vector([6, -9, 3]) == [2, -3, 1]
    assert vector_gcd([0, 0]) == 0
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


# ---------------------------------------------------------------------------
# Hermite reduction and kernels


@given(matrix=matrices)
@settings(max_examples=150, deadline=None)
def test_hnf_transform_invariants(matrix):
    h, u = col_hnf_transform(matrix)
    assert matrix_multiply(matrix, u) == h
    assert determinant_integer(u) in (1, -1)
    # echelon shape: leading rows of nonzero columns strictly increase
    leads = []
    for j in range(len(h[0])):
        col = [h[i][j] for i in range(len(h))]
        if any(col):
            leads.append(next(i for i, x in enumerate(col) if x))
    assert leads == sorted(leads) and len(set(leads)) == len(leads)


@given(matrix=matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilate(matrix):
    kernel = integer_kernel(matrix)
    n = len(matrix[0])
    assert rank_integer(matrix) + len(kernel) == n
    for v in kernel:
        assert matrix_vector(matrix, v) == [0] * len(matrix)


def test_kernel_is_saturated():
    # x + 2y = 0 over Z has primitive generator (2, -1) even when the matrix
    # carries a common factor.
    assert integer_kernel([[3, 6]]) in ([[-2, 1]], [[2, -1]])


@given(matrix=matrices, coeffs=st.lists(small_ints, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_kernel_saturation_property(matrix, coeffs):
    # every integer kernel vector must be an integer combination of the basis
    kernel = integer_kernel(matrix)
    if not kernel:
        return
    weights = (coeffs * 4)[: len(kernel)]
    combo = [
        sum(w * v[i] for w, v in zip(weights, kernel))
        for i in range(len(kernel[0]))
    ]
    stacked = transpose(kernel)
    assert solve_integer(stacked, combo) is not None


# ---------------------------------------------------------------------------
# unimodular completion


@given(vector=st.lists(small_ints, min_size=1, max_size=6).filter(lambda v: any(v)))
@settings(max_examples=150, deadline=None)
def test_complete_unimodular_round_trip(vector):
    column = primitive_vector(vector)
    v = complete_unimodular(column)
    assert [row[0] for row in v] == column
    assert determinant_integer(v) in (1, -1)


def test_complete_unimodular_rejects_imprimitive():
    with pytest.raises(ValueError):
        complete_unimodular([2, 4])


# ---------------------------------------------------------------------------
# integer solving


def test_solve_integer_divisibility():
    assert solve_integer([[2]], [3]) is None
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[1, 2], [2, 4]], [1, 3]) is None


@given(matrix=matrices, data=st.data())
@settings(max_examples=100, deadline=None)
def test_solve_integer_recovers_solutions(matrix, data):
    n = len(matrix[0])
    x = data.draw(st.lists(small_ints, min_size=n, max_size=n))
    rhs = matrix_vector(matrix, x)
    y = solve_integer(matrix, rhs)
    assert y is not None
    assert matrix_vector(matrix, y) == rhs


# ---------------------------------------------------------------------------
# determinants


def test_determinant_known_values():
    assert determinant_integer([[1, 2], [3, 4]]) == -2
    assert determinant_integer([[2, 0], [0, 3]]) == 6
    assert determinant_integer([[1, 1], [1, 1]]) == 0
    assert determinant_integer(identity_matrix(5)) == 1


@given(matrix=square_matrices)
@settings(max_examples=150, deadline=None)
def test_determinant_matches_fraction_gauss(matrix):
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            det = Fraction(0)
            break
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            work[i] = [a - factor * b for a, b in zip(work[i], work[k])]
    assert determinant_integer(matrix) == det


def test_column_space_basis_shape():
    basis = column_space_basis([[2, 4], [0, 0]])
    assert basis == [[2, 0]]
