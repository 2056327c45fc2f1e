"""First-homology classes of a torus fiber, twists, and reference data.

Classes are integer pairs ``(m, n)`` of coordinates with respect to a fixed
ordered basis of the fiber's first homology; the intersection pairing is
normalized so that the two basis classes pair to ``-1`` in that order.  The
module also provides the monodromy (Dehn twist) matrix attached to a class,
monodromy products, the cycle collapsing at infinity, and the frozen
reference lists of boundary classes used throughout the verification
pipeline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ._record import Record


class HomologyClass(Record):
    """An integer class ``m * first + n * second`` in fiber homology."""

    m: int  # coordinate on the first basis class
    n: int  # coordinate on the second basis class

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(-self.m, -self.n)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        return HomologyClass(self.m + other.m, self.n + other.n)

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0

    def sign_normalized(self) -> "HomologyClass":
        """The representative of {v, -v} whose first nonzero coordinate is positive."""
        if self.m < 0 or (self.m == 0 and self.n < 0):
            return -self
        return self

    def to_pair(self) -> Tuple[int, int]:
        return (self.m, self.n)


def h1_pair(u: HomologyClass, v: HomologyClass) -> int:
    """Intersection pairing with ``<first, second> = -1``."""
    return u.n * v.m - u.m * v.n


def seifert_gram(classes: Sequence[HomologyClass]) -> List[List[int]]:
    """Upper-triangular refinement of the intersection pairing.

    Diagonal entries are 1, entries above the diagonal are the pairings of
    the corresponding boundary classes, entries below vanish.
    """
    n = len(classes)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 1
        for j in range(i + 1, n):
            gram[i][j] = h1_pair(classes[i], classes[j])
    return gram


class SL2Matrix(Record):
    """A 2x2 integer matrix of determinant 1 acting on fiber homology."""

    rows: Tuple[Tuple[int, int], Tuple[int, int]]

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.rows
        if a * d - b * c != 1:
            raise ValueError(f"determinant {a * d - b * c} is not 1")

    @classmethod
    def identity(cls) -> "SL2Matrix":
        return cls(((1, 0), (0, 1)))

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return SL2Matrix(((a * e + b * g, a * f + b * h),
                          (c * e + d * g, c * f + d * h)))

    def power(self, k: int) -> "SL2Matrix":
        if k < 0:
            return self.inverse().power(-k)
        result = SL2Matrix.identity()
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def inverse(self) -> "SL2Matrix":
        (a, b), (c, d) = self.rows
        return SL2Matrix(((d, -b), (-c, a)))

    def is_identity(self) -> bool:
        return self.rows == ((1, 0), (0, 1))


def dehn_twist(cls: HomologyClass) -> SL2Matrix:
    """Monodromy of a node whose vanishing cycle has class ``(m, n)``.

    Fixes the class itself and acts on transverse classes by adding their
    pairing with it; the matrix is the same for ``(m, n)`` and ``(-m, -n)``.
    """
    m, n = cls.m, cls.n
    return SL2Matrix(((1 + m * n, -m * m), (n * n, 1 - m * n)))


def total_monodromy(classes: Sequence[HomologyClass]) -> SL2Matrix:
    """Product of the twists of the listed classes, first class acting first."""
    total = SL2Matrix.identity()
    for cls in classes:
        total = dehn_twist(cls) @ total
    return total


def infinity_cycle(
    classes: Sequence[HomologyClass], multiplicity: int
) -> HomologyClass:
    """The cycle whose ``multiplicity``-fold twist cancels the finite monodromy.

    The twist of ``c = (m, n)`` is ``I + N``, ``N = [[mn, -m^2], [n^2, -mn]]``,
    and ``N^2 = 0``, so ``twist(c)^k @ total`` is the identity exactly when
    ``total^-1 - I == k N``.  That fixes ``m^2``, ``n^2`` and the sign of
    ``mn``, so the sign-normalized class returned is unique.  Raises
    ``ValueError`` for a multiplicity below 1 or when no class solves it.
    """
    if multiplicity < 1:
        raise ValueError(f"multiplicity {multiplicity} is below 1")
    total = total_monodromy(classes)
    (a, b), (c, _) = total.inverse().rows
    m = math.isqrt(max(-b // multiplicity, 0))
    n = math.isqrt(max(c // multiplicity, 0))
    cycle = HomologyClass(m, n if a >= 1 else -n)
    cancels = (dehn_twist(cycle).power(multiplicity) @ total).is_identity()
    if cycle.is_zero() or not cancels:
        raise ValueError("no cycle cancels the monodromy")
    return cycle.sign_normalized()


# ---------------------------------------------------------------------------
# frozen reference sequences


def _cls(pairs: Sequence[Tuple[int, int]]) -> Tuple[HomologyClass, ...]:
    return tuple(HomologyClass(m, n) for m, n in pairs)


# Boundary classes of the vanishing thimbles of the catalog fibrations, in the
# nearest-critical-value-first ordering used by the whole pipeline.
_REFERENCE_CLASSES: Dict[int, Tuple[HomologyClass, ...]] = {
    3: _cls([(1, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0)]),
    2: _cls([(1, 1), (1, 0), (0, 1), (1, 0), (1, 0), (1, -1), (0, 1), (0, 1), (1, 0), (0, 1)]),
    1: _cls([(1, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1)]),
}


def reference_vanishing_classes(d: int) -> Tuple[HomologyClass, ...]:
    """Frozen boundary classes for degree ``d``; length ``(9 - d) + 3``."""
    if d not in _REFERENCE_CLASSES:
        raise ValueError(f"no reference class list for degree {d}")
    return _REFERENCE_CLASSES[d]


def extended_vanishing_classes(d: int) -> Tuple[HomologyClass, ...]:
    """The reference list padded to 12 with copies of the second basis class.

    The padding classes play the role of the extra parked thimbles used when
    comparing the three degrees inside one rank-12 ambient lattice.
    """
    base = reference_vanishing_classes(d)
    pad = 12 - len(base)
    return base + tuple(HomologyClass(0, 1) for _ in range(pad))


def target_boundary_classes(d: int) -> Tuple[HomologyClass, ...]:
    """Boundary classes of the mutated (reduced) basis, length ``(9 - d) + 3``."""
    ell = 9 - d
    head = [HomologyClass(1, 1), HomologyClass(2, -1), HomologyClass(1, -2)]
    return tuple(head + [HomologyClass(0, -1)] * ell)
