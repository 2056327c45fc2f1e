"""Exact integer linear algebra for lattice computations.

Matrices are plain lists of rows of Python ints (arbitrary precision);
vectors are lists of ints.  Everything here is exact: Hermite column
reduction with a recorded unimodular transform, saturated integer kernels,
completion of a primitive vector to a unimodular matrix, Bareiss
determinants, exact linear solves over the integers, and the step of
fraction-free (Bareiss) symmetric elimination that short-vector enumeration
runs on.  No step leaves the integers.  ``IntegerForm`` is the part that
pseudolattices and symmetric lattices share: a Gram matrix and its pairing.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

IntMatrix = List[List[int]]
IntVector = List[int]


class IntegerForm:
    """The shared part of a record whose field ``gram`` is the Gram matrix of
    an integer bilinear form, row acting first.

    A subclass declares the field (a record's fields are those of its own
    body), calls this ``__post_init__`` first, and then checks the shape it
    needs with its own error type.
    """

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", rows)
        # the nonzero Gram entries (i, j, g_ij), which is all a pairing reads;
        # derived, so outside equality, hashing and repr
        object.__setattr__(self, "entries", tuple(
            (i, j, g) for i, row in enumerate(rows) for j, g in enumerate(row) if g
        ))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        total = 0
        for i, j, g in self.entries:
            total += u[i] * g * v[j]
        return total


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(col) for col in zip(*matrix)]


def matrix_multiply(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    width = len(b[0]) if b else 0
    product: IntMatrix = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        product.append(acc)
    return product


def restricted_gram(
    gram: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]
) -> IntMatrix:
    """``V G V^T``: the form ``gram`` on the rows of ``vectors``, entry (i, j)
    pairing vector i on the left with vector j on the right."""
    return matrix_multiply(matrix_multiply(vectors, gram), transpose(vectors))


def is_symmetric(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether the square ``matrix`` equals its transpose."""
    return all(row[j] == matrix[j][i] for i, row in enumerate(matrix) for j in range(i))


def matrix_vector(a: Sequence[Sequence[int]], v: Sequence[int]) -> IntVector:
    if a and len(a[0]) != len(v):
        raise ValueError("dimensions do not match")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b) >= 0`` and ``s*a + t*b = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive multiple")
    return [x // g for x in v]


def col_hnf_transform(matrix: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite reduction ``matrix * U = H`` with ``U`` unimodular.

    ``H`` is in column echelon form with nonnegative pivots and its zero
    columns collected at the right; the columns of ``U`` sitting over the
    zero columns of ``H`` form a saturated basis of the kernel.
    """
    a = [list(row) for row in matrix]
    if not a:
        raise ValueError("matrix must have at least one row")
    m, n = len(a), len(a[0])
    u = identity_matrix(n)

    def column_op(j1: int, j2: int, x: int, y: int, z: int, w: int) -> None:
        for mat in (a, u):
            for row in mat:
                v1, v2 = row[j1], row[j2]
                row[j1], row[j2] = x * v1 + y * v2, z * v1 + w * v2

    row, col = 0, 0
    while row < m and col < n:
        pivot = next((j for j in range(col, n) if a[row][j] != 0), None)
        if pivot is None:
            row += 1
            continue
        if pivot != col:
            column_op(col, pivot, 0, 1, 1, 0)
        for j in range(col + 1, n):
            while a[row][j] != 0:
                q = a[row][j] // a[row][col]
                column_op(j, col, 1, -q, 0, 1)
                if a[row][j] != 0:
                    column_op(col, j, 0, 1, 1, 0)
        if a[row][col] < 0:
            column_op(col, col, -1, 0, 0, 1)
        row += 1
        col += 1
    return a, u


def column_space_basis(matrix: Sequence[Sequence[int]]) -> List[IntVector]:
    """Basis of the lattice spanned by the columns (not saturated)."""
    h, _u = col_hnf_transform(matrix)
    m = len(h)
    return [
        [h[i][j] for i in range(m)]
        for j in range(len(h[0]))
        if any(h[i][j] != 0 for i in range(m))
    ]


def rank_integer(matrix: Sequence[Sequence[int]]) -> int:
    return len(column_space_basis(matrix))


def integer_kernel(matrix: Sequence[Sequence[int]]) -> List[IntVector]:
    """Saturated basis of ``{v : matrix @ v = 0}`` (kernel columns of U)."""
    h, u = col_hnf_transform(matrix)
    m, n = len(h), len(h[0])
    return [
        [u[i][j] for i in range(n)]
        for j in range(n)
        if all(h[i][j] == 0 for i in range(m))
    ]


def complete_unimodular(column: Sequence[int]) -> IntMatrix:
    """A unimodular matrix whose first column is the given primitive vector."""
    n = len(column)
    if n == 0:
        raise ValueError("empty vector")
    if vector_gcd(column) != 1:
        raise ValueError("vector must be primitive to span a unimodular column")
    # `work` is reduced to e_0 by row operations of determinant one;
    # `inverse` accumulates their inverses, so its first column is `column`.
    inverse = identity_matrix(n)
    work = list(column)
    for i in range(1, n):
        a, b = work[0], work[i]
        if b == 0:
            continue
        g, s, t = extended_gcd(a, b)
        # rows (0, i) of `work` by [[s, t], [-b/g, a/g]]: columns (0, i) of
        # `inverse` by the inverse block.
        for r in range(n):
            v0, vi = inverse[r][0], inverse[r][i]
            inverse[r][0] = (a // g) * v0 + (b // g) * vi
            inverse[r][i] = -t * v0 + s * vi
        work[0], work[i] = g, 0
    if work[0] == -1:
        for r in range(n):
            inverse[r][0] = -inverse[r][0]
    if [inverse[r][0] for r in range(n)] != list(column):
        raise AssertionError("unimodular completion failed to reproduce the column")
    return inverse


def solve_integer(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[IntVector]:
    """One integer solution of ``matrix @ x = rhs``, or None if there is none."""
    h, u = col_hnf_transform(matrix)
    m, n = len(h), len(h[0])
    if len(rhs) != m:
        raise ValueError("dimensions do not match")
    residual = list(rhs)
    y = [0] * n
    for j in range(n):
        lead = next((i for i in range(m) if h[i][j] != 0), None)
        if lead is None:
            continue
        value = residual[lead]
        if value % h[lead][j] != 0:
            return None
        y[j] = value // h[lead][j]
        for i in range(m):
            residual[i] -= y[j] * h[i][j]
    if any(residual):
        return None
    return matrix_vector(u, y)


def determinant_integer(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def symmetric_bareiss_step(m: IntMatrix, k: int, previous: int) -> None:
    """Eliminate column ``k`` of the symmetric matrix ``m`` below its pivot.

    Updates the trailing block (rows and columns after ``k``) in place, by
    ``(pivot * m_ij - m_ik * m_kj) / previous``, where ``previous`` is the
    pivot of the step before (1 at the first).  When ``m`` is ``k`` steps
    into a symmetric Bareiss elimination, every entry of the block is an
    integer minor, so the division is exact.
    """
    pivot = m[k][k]
    for i in range(k + 1, len(m)):
        f = m[i][k]
        for j in range(i, len(m)):
            m[i][j] = m[j][i] = (pivot * m[i][j] - f * m[k][j]) // previous
