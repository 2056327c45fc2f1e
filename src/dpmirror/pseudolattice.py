"""Pseudolattices with exceptional bases, mutations, and their verification.

A pseudolattice here is a finite-rank free module with a non-degenerate (not
necessarily symmetric) integer bilinear form.  The instances of interest are
built from ordered lists of fiber homology classes through the upper
triangular refinement of the intersection pairing; their standard bases are
exceptional, and pairs of adjacent basis vectors can be mutated left or
right.  The module verifies that the frozen mutation words carry the
fibration bases onto bases whose Gram matrices match the reference
surface-category Gram, computes the point-like vector and the induced
quotient lattice that the root system analysis starts from, and builds the
vanishing-cycle sequences compared with the torus models.

All vectors stay in ambient coordinates of the fixed ambient Gram; boundary
(homology) classes of mutated vectors are always recovered through the
linear charge map, never tracked as mutable state.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._intlin import (
    IntegerForm,
    column_space_basis,
    complete_unimodular,
    determinant_integer,
    integer_kernel,
    is_symmetric,
    matrix_multiply,
    matrix_vector,
    primitive_vector,
    restricted_gram,
    solve_integer,
    transpose,
)
from ._record import Record
from .homology import (
    HomologyClass,
    extended_vanishing_classes,
    reference_vanishing_classes,
    seifert_gram,
    target_boundary_classes,
)

IntMatrix = List[List[int]]
IntVector = List[int]


class PseudolatticeError(ValueError):
    """Raised when an input violates the structural assumptions."""


# ---------------------------------------------------------------------------
# domain types


def _first_violation(cells: Iterable[Tuple[int, int, int]]) -> Optional[str]:
    """The first failed exceptionality condition among the basis Gram
    entries ``(i, j, <e_i, e_j>)``, ``j <= i``, in the order given."""
    for i, j, g in cells:
        if i == j and g != 1:
            return f"<e{i}, e{i}> = {g} != 1"
        if i != j and g != 0:
            return f"<e{i}, e{j}> = {g} != 0 below the diagonal"
    return None


class Pseudolattice(IntegerForm, Record):
    """A free module with a non-degenerate integer bilinear form."""

    gram: Tuple[Tuple[int, ...], ...]  # ambient Gram matrix, row acts first

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.rank
        if any(len(row) != n for row in self.gram):
            raise PseudolatticeError("Gram matrix must be square")
        if n == 0:
            raise PseudolatticeError("rank must be positive")
        if determinant_integer(self.gram) == 0:
            raise PseudolatticeError("bilinear form is degenerate")

    def exceptionality_violation(
        self, vectors: Sequence[Sequence[int]]
    ) -> Optional[str]:
        gram = restricted_gram(self.gram, vectors)
        return _first_violation(
            (i, j, gram[i][j]) for i in range(len(vectors)) for j in (i, *range(i))
        )


class ExceptionalBasis(Record):
    """An ordered tuple of ambient-coordinate basis vectors."""

    vectors: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vectors", tuple(tuple(int(x) for x in v) for v in self.vectors)
        )

    def as_lists(self) -> List[IntVector]:
        return [list(v) for v in self.vectors]


class ChargeMap(Record):
    """The linear map sending an ambient vector to its boundary class."""

    rows: Tuple[Tuple[int, ...], Tuple[int, ...]]  # 2 x n coordinate rows

    def charge(self, vector: Sequence[int]) -> HomologyClass:
        m = sum(c * x for c, x in zip(self.rows[0], vector))
        n = sum(c * x for c, x in zip(self.rows[1], vector))
        return HomologyClass(m, n)

    def charges(self, basis: ExceptionalBasis) -> Tuple[HomologyClass, ...]:
        return tuple(self.charge(v) for v in basis.vectors)

    def matrix(self) -> IntMatrix:
        return [list(self.rows[0]), list(self.rows[1])]


class MutationMove(Record):
    """One left or right mutation acting on slots (slot, slot + 1)."""

    side: str  # "L" or "R"
    slot: int  # 0-indexed position of the left member of the pair

    def __post_init__(self) -> None:
        if self.side not in ("L", "R"):
            raise PseudolatticeError(f"unknown mutation side {self.side!r}")
        if self.slot < 0:
            raise PseudolatticeError("slot must be nonnegative")

    def token(self) -> str:
        return f"{self.side}{self.slot}"


class MutationWord(Record):
    """A word of mutations, displayed left to right, applied right to left."""

    moves: Tuple[MutationMove, ...]

    @classmethod
    def parse(cls, text: str) -> "MutationWord":
        moves: List[MutationMove] = []
        for token in text.split():
            side, digits = token[0], token[1:]
            if side not in ("L", "R") or not digits.isdecimal():
                raise PseudolatticeError(f"cannot parse mutation token {token!r}")
            try:
                slot = int(digits)
            except ValueError as exc:  # more digits than int() converts
                raise PseudolatticeError(f"slot too long in {token[:20]!r}") from exc
            moves.append(MutationMove(side, slot))
        return cls(tuple(moves))

    def __str__(self) -> str:
        return " ".join(move.token() for move in self.moves)

    def __len__(self) -> int:
        return len(self.moves)

    def applied_order(self) -> Tuple[MutationMove, ...]:
        """Moves in the order they act (rightmost displayed move first)."""
        return tuple(reversed(self.moves))

    def slots(self) -> Tuple[int, ...]:
        return tuple(move.slot for move in self.moves)


# ---------------------------------------------------------------------------
# construction and mutation


def from_boundaries(
    classes: Sequence[HomologyClass],
) -> Tuple[Pseudolattice, ExceptionalBasis, ChargeMap]:
    """Pseudolattice, standard exceptional basis, and charge map of a class list."""
    lattice = Pseudolattice(tuple(tuple(row) for row in seifert_gram(classes)))
    n = lattice.rank
    basis = ExceptionalBasis(
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    )
    charge = ChargeMap(
        (tuple(c.m for c in classes), tuple(c.n for c in classes))
    )
    violation = lattice.exceptionality_violation(basis.vectors)
    if violation is not None:
        raise PseudolatticeError(f"construction is not exceptional: {violation}")
    return lattice, basis, charge


def _apply_move(
    lattice: Pseudolattice, vectors: List[IntVector], move: MutationMove
) -> None:
    n = len(vectors)
    if move.slot > n - 2:
        raise PseudolatticeError(
            f"slot {move.slot} out of range for a basis of length {n}"
        )
    e, f = vectors[move.slot], vectors[move.slot + 1]
    s = lattice.pairing(e, f)
    if move.side == "L":
        vectors[move.slot] = [fi - s * ei for ei, fi in zip(e, f)]
        vectors[move.slot + 1] = e
    else:
        vectors[move.slot] = f
        vectors[move.slot + 1] = [ei - s * fi for ei, fi in zip(e, f)]


def _moved_violation(
    lattice: Pseudolattice, vectors: List[IntVector], slot: int
) -> Optional[str]:
    """``exceptionality_violation`` of ``vectors`` after a move at ``slot``,
    for vectors that were exceptional before it: only the entries in the
    rows and columns of ``slot`` and ``slot + 1`` are read."""
    moved = (slot, slot + 1)
    # <e_a, v> = row[a] . v and <v, e_a> = column[a] . v for a moved slot a
    row = {a: [0] * lattice.rank for a in moved}
    column = {a: [0] * lattice.rank for a in moved}
    for i, j, g in lattice.entries:
        for a in moved:
            row[a][j] += vectors[a][i] * g
            column[a][i] += g * vectors[a][j]

    def entry(i: int, j: int) -> int:
        left, right = (row[i], vectors[j]) if i in moved else (vectors[i], column[j])
        return sum(map(mul, left, right))

    return _first_violation(
        (i, j, entry(i, j))
        for i in range(len(vectors))
        for j in ((i, *range(i)) if i in moved else [k for k in moved if k < i])
    )


def mutate(
    lattice: Pseudolattice, basis: ExceptionalBasis, word: MutationWord
) -> ExceptionalBasis:
    """Apply a mutation word (rightmost move first), checking exceptionality.

    A left move at slot i sends the pair (e, f) to (f - <e,f> e, e); a right
    move sends it to (f, e - <e,f> f).  Exceptionality is verified after
    every move; losing it indicates corrupted input and raises.  The first
    move is followed by the full check, which also catches an input basis
    that was not exceptional; a later move changes only the pairings of its
    two slots, so only those are checked, in the full check's order.
    """
    vectors = basis.as_lists()
    for count, move in enumerate(word.applied_order()):
        _apply_move(lattice, vectors, move)
        if count:
            violation = _moved_violation(lattice, vectors, move.slot)
        else:
            violation = lattice.exceptionality_violation(vectors)
        if violation is not None:
            raise PseudolatticeError(
                f"exceptionality lost after {move.token()}: {violation}"
            )
    return ExceptionalBasis(tuple(tuple(v) for v in vectors))


def word_identity(
    lattice: Pseudolattice,
    basis: ExceptionalBasis,
    first: MutationWord,
    second: MutationWord,
) -> bool:
    """Whether two words act identically on the given basis (exact vectors)."""
    return mutate(lattice, basis, first) == mutate(lattice, basis, second)


# ---------------------------------------------------------------------------
# Serre operator, point-like vector, quotient lattice


def serre(lattice: Pseudolattice) -> IntMatrix:
    """The integral operator S with <u, v> = <v, S u> for all u, v.

    That is G S = G^T for the Gram G, which must be upper unitriangular, as
    the Gram of an exceptional basis is; each column of S then follows from
    the matching row of G by back-substitution, in integers.
    """
    gram, n = lattice.gram, lattice.rank
    violation = _first_violation(
        (i, j, gram[i][j]) for i in range(n) for j in (i, *range(i))
    )
    if violation is not None:
        raise PseudolatticeError(
            f"Serre operator requires an upper unitriangular Gram: {violation}"
        )
    s = [[0] * n for _ in range(n)]
    for c in range(n):
        for i in range(n - 1, -1, -1):
            s[i][c] = gram[c][i] - sum(gram[i][j] * s[j][c] for j in range(i + 1, n))
    return s


def point_like(lattice: Pseudolattice) -> IntVector:
    """Primitive generator of the rank-one image of (I - S)^2.

    The sign is normalized so the first nonzero coordinate is positive;
    raises when the image rank differs from one.
    """
    s = serre(lattice)
    n = lattice.rank
    diff = [[(1 if i == j else 0) - s[i][j] for j in range(n)] for i in range(n)]
    squared = matrix_multiply(diff, diff)
    image = column_space_basis(squared)
    if len(image) != 1:
        raise PseudolatticeError(
            f"image of (I - S)^2 has rank {len(image)}, expected 1"
        )
    p = primitive_vector(image[0])
    lead = next(x for x in p if x != 0)
    if lead < 0:
        p = [-x for x in p]
    return p


class QuotientLattice(Record):
    """The symmetric lattice carried by (orthogonal of p) / p."""

    gram: Tuple[Tuple[int, ...], ...]  # induced symmetric form
    point: Tuple[int, ...]  # the point-like vector in ambient coordinates
    representatives: Tuple[Tuple[int, ...], ...]  # ambient lifts of the basis

    def gram_lists(self) -> IntMatrix:
        return [list(row) for row in self.gram]


def neron_severi(lattice: Pseudolattice) -> QuotientLattice:
    """Induced form on the quotient of the point-like orthogonal by the point.

    Requires the surface-like identities <p,p> = 0 and <p,v> = <v,p> for all
    v; the vanishing locus of <p, -> is computed as a saturated kernel, the
    point is completed to a basis of it, and the induced form on the
    quotient is checked to be symmetric.
    """
    p = point_like(lattice)
    if lattice.pairing(p, p) != 0:
        raise PseudolatticeError("point-like vector has nonzero self-pairing")
    gram_rows = [list(row) for row in lattice.gram]
    left = matrix_vector(transpose(gram_rows), p)  # functional <p, ->
    right = matrix_vector(gram_rows, p)  # functional <-, p>
    if left != right:
        raise PseudolatticeError("pairings against the point-like vector disagree")
    perp = integer_kernel([left])
    coords = solve_integer(transpose(perp), p)
    if coords is None:
        raise PseudolatticeError("point-like vector escapes its own orthogonal")
    completion = complete_unimodular(coords)
    ambient = matrix_multiply(transpose(completion), perp)
    if ambient[0] != p:
        raise PseudolatticeError("completion failed to place the point first")
    reps = ambient[1:]
    induced = restricted_gram(lattice.gram, reps)
    if not is_symmetric(induced):
        raise PseudolatticeError("induced form on the quotient is not symmetric")
    return QuotientLattice(
        tuple(tuple(row) for row in induced),
        tuple(p),
        tuple(tuple(r) for r in reps),
    )


# ---------------------------------------------------------------------------
# sign normalization


def sign_normalize(
    gram: Sequence[Sequence[int]], target: Sequence[Sequence[int]]
) -> Optional[Tuple[int, ...]]:
    """A diagonal D of signs with D G D = target, or None.

    Signs propagate from the first basis vector of each connected component
    along nonzero entries, and a final full verification rejects
    inconsistent assignments.  Propagation forces every sign of a component
    up to one overall flip, which leaves D G D unchanged because entries
    between components are 0; so when verification fails, no sign vector
    satisfies the target.
    """
    n = len(gram)
    if len(target) != n or any(len(r) != n for r in gram) or any(
        len(r) != n for r in target
    ):
        return None
    for i in range(n):
        for j in range(n):
            if abs(gram[i][j]) != abs(target[i][j]):
                return None

    signs = [0] * n
    for root in range(n):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if signs[j]:
                    continue
                entry = gram[i][j] if gram[i][j] else gram[j][i]
                if not entry:
                    continue
                goal = target[i][j] if gram[i][j] else target[j][i]
                signs[j] = 1 if goal == signs[i] * entry else -1
                stack.append(j)
    if all(
        signs[i] * gram[i][j] * signs[j] == target[i][j]
        for i in range(n)
        for j in range(n)
    ):
        return tuple(signs)
    return None


# ---------------------------------------------------------------------------
# reference Grams and words


def del_pezzo_gram(ell: int) -> IntMatrix:
    """Reference unitriangular Gram of rank 3 + ell for 6 <= ell <= 8.

    Top-left 3x3 block [[1,3,3],[0,1,3],[0,0,1]]; the three rows continue
    with constant values 1, 2, 1 across the remaining ell columns; the
    bottom-right block is the identity.
    """
    if not 1 <= ell:
        raise ValueError("ell must be positive")
    n = 3 + ell
    gram = [[0] * n for _ in range(n)]
    top = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    tail = [1, 2, 1]
    for i in range(3):
        for j in range(3):
            gram[i][j] = top[i][j]
        for j in range(ell):
            gram[i][3 + j] = tail[i]
    for i in range(ell):
        gram[3 + i][3 + i] = 1
    return gram


_CORE_WORD = "L1 L2 L3 L1 L3 L1 L4 L5 L6 L7 L3 L4 L5 L2 L3 L1"
_EXTRA_WORD_D2 = "R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4"
_EXTRA_WORD_D1 = "R9 R8 R7 R6 R5 R4 L6"


def reduction_word(d: int) -> MutationWord:
    """The frozen mutation word reducing the degree-``d`` fibration basis."""
    if d == 3:
        text = _CORE_WORD
    elif d == 2:
        text = f"{_CORE_WORD} {_EXTRA_WORD_D2}"
    elif d == 1:
        text = f"{_CORE_WORD} {_EXTRA_WORD_D2} {_EXTRA_WORD_D1}"
    else:
        raise ValueError(f"no reduction word for degree {d}")
    return MutationWord.parse(text)


def standard_word_identity(d: int) -> Tuple[MutationWord, MutationWord]:
    """The frozen pair of equal mutation words for degree ``d`` in {1, 2}."""
    if d == 2:
        return (
            MutationWord.parse("R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4"),
            MutationWord.parse("R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 R1"),
        )
    if d == 1:
        return (
            MutationWord.parse("R9 R8 R7 R6 R5 R4 L6"),
            MutationWord.parse("L5 R9 R8 R7 R6 R5 R4"),
        )
    raise ValueError(f"no word identity recorded for degree {d}")


# Boundary-class rows displayed for the degree-3 reduction, with the number
# of moves consumed before each row.
_D3_ROW_LENGTHS = (1, 2, 3, 4, 2, 1, 2, 1)
_D3_ROWS: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((1, 1), (1, -1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0)),
    ((1, 1), (1, -1), (1, -2), (0, 1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0)),
    ((1, 1), (1, -1), (1, -2), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1), (1, 0)),
    ((1, 1), (1, -1), (1, -2), (1, -3), (1, -4), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((1, 1), (0, -1), (1, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((1, 1), (1, -2), (0, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((1, 1), (1, -2), (1, -5), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((1, 1), (2, -1), (1, -2), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)),
)


# ---------------------------------------------------------------------------
# the main verification


class MutationVerificationReport(Record):
    """Outcome of the reduction-word verification for one degree."""

    d: int
    passed: bool
    boundary_ok: bool  # final boundary classes match the target up to sign
    first_boundary_mismatch: Optional[int]
    sign_diagonal: Optional[Tuple[int, ...]]  # normalizes the final Gram
    intermediates_ok: Optional[bool]  # degree 3 only: rows match up to sign
    final_boundaries: Tuple[Tuple[int, int], ...]
    failure: Optional[str]

    def to_json(self) -> Dict[str, object]:
        return {
            "d": self.d,
            "passed": self.passed,
            "boundary_ok": self.boundary_ok,
            "first_boundary_mismatch": self.first_boundary_mismatch,
            "sign_diagonal": list(self.sign_diagonal) if self.sign_diagonal else None,
            "intermediates_ok": self.intermediates_ok,
            "final_boundaries": [list(b) for b in self.final_boundaries],
            "failure": self.failure,
        }


def _matches_up_to_sign(
    got: Sequence[HomologyClass], expected: Sequence[HomologyClass]
) -> Optional[int]:
    """Index of the first class differing beyond an overall sign, else None.

    When one sequence is longer, its first extra position differs.
    """
    for i, (g, e) in enumerate(zip(got, expected)):
        if g != e and g != -e:
            return i
    if len(got) != len(expected):
        return min(len(got), len(expected))
    return None


def verify_mutation_equivalence(d: int) -> MutationVerificationReport:
    """Run the frozen reduction word for degree ``d`` and check every claim.

    Checks, in order: (a) for degree 3, the boundary rows after each display
    group match the frozen rows up to per-class sign; (b) the final boundary
    classes equal the reduced-basis target up to per-class sign; (c) the
    final basis Gram restricted to the first 3 + ell vectors sign-normalizes
    onto the reference Gram.  Any failure is reported with its location.
    """
    ell = 9 - d
    classes = extended_vanishing_classes(d)
    lattice, basis, charge = from_boundaries(classes)
    word = reduction_word(d)

    # Degree 3 applies its word one display group at a time and compares the
    # rows in between; every group, and the rest of the word, goes through
    # `mutate`, which re-checks exceptionality after each move.
    rows = tuple(zip(_D3_ROW_LENGTHS, _D3_ROWS)) if d == 3 else ()
    moves = word.applied_order()
    final = basis
    position = 0
    ok_flags: List[bool] = []
    failure: Optional[str] = None
    for row_index, (length, row) in enumerate(rows):
        group = moves[position : position + length]
        final = mutate(lattice, final, MutationWord(group[::-1]))
        position += length
        got = [charge.charge(v) for v in final.vectors[:9]]
        expected = [HomologyClass(m, n) for m, n in row]
        mismatch = _matches_up_to_sign(got, expected)
        ok_flags.append(mismatch is None)
        if mismatch is not None and failure is None:
            failure = f"intermediate row {row_index} differs at class {mismatch}"
    if position < len(moves):
        final = mutate(lattice, final, MutationWord(moves[position:][::-1]))
    intermediates_ok = all(ok_flags) if rows else None

    boundaries = charge.charges(final)
    target = target_boundary_classes(d)
    mismatch = _matches_up_to_sign(boundaries[: 3 + ell], target)
    boundary_ok = mismatch is None
    if not boundary_ok and failure is None:
        failure = f"final boundary class {mismatch} differs from the target"

    full_gram = restricted_gram(lattice.gram, final.vectors)
    top = [row[: 3 + ell] for row in full_gram[: 3 + ell]]
    diagonal = sign_normalize(top, del_pezzo_gram(ell))
    if diagonal is None and failure is None:
        failure = "final Gram does not sign-normalize onto the reference Gram"

    passed = (
        boundary_ok
        and diagonal is not None
        and (intermediates_ok is None or intermediates_ok)
    )
    return MutationVerificationReport(
        d=d,
        passed=passed,
        boundary_ok=boundary_ok,
        first_boundary_mismatch=mismatch,
        sign_diagonal=diagonal,
        intermediates_ok=intermediates_ok,
        final_boundaries=tuple((b.m, b.n) for b in boundaries),
        failure=failure,
    )


# ---------------------------------------------------------------------------
# boundary-level sequences for the root-system comparison


def ghs_sequences(ell: int) -> List[HomologyClass]:
    """Vanishing-cycle sequences matched against the frozen torus targets.

    Starting from the reference class list of degree ``9 - ell``, the class
    in position 0 is removed and a frozen linear change of fiber basis for
    the given rank is applied.  For rank 7 the word ``R6 L1`` (left at slot
    1, then right at slot 6) finishes the alignment: it mutates the standard
    basis of the changed classes' pseudolattice, and the charge map reads the
    classes back.
    """
    if ell == 8:
        base = list(reference_vanishing_classes(1)[1:])
        out = [HomologyClass(c.m + c.n, c.n) for c in base]
        return out
    if ell == 6:
        base = list(reference_vanishing_classes(3)[1:])
        return [HomologyClass(c.n - c.m, -c.m) for c in base]
    if ell == 7:
        base = list(reference_vanishing_classes(2)[1:])
        lattice, basis, charge = from_boundaries(
            [HomologyClass(c.m + c.n, c.n) for c in base]
        )
        return list(charge.charges(mutate(lattice, basis, MutationWord.parse("R6 L1"))))
    raise ValueError(f"no sequence for rank {ell}")


def ghs_target(ell: int) -> List[HomologyClass]:
    """Frozen torus-model cycle sequences for ranks 6, 7, 8."""
    A = HomologyClass(1, 0)
    B = HomologyClass(0, 1)
    if ell == 8:
        return [A, -(A + B)] * 5
    if ell == 7:
        return [A, B, -(A + B)] * 3
    if ell == 6:
        return [A, -(A + B)] * 4
    raise ValueError(f"no target for rank {ell}")
