"""Symmetric integer lattices: root systems, surface models, kernel splittings.

The symmetric side of the story: recognizing A/D/E root systems inside
definite integer lattices by complete short-vector enumeration, checking
that the charge kernel of a fibration pseudolattice splits as a rank-``ell``
root lattice plus the point-like radical, building the rank-one-higher
hyperbolic comparison model with its canonical vector, producing integral
fundamental-weight witnesses, and assembling the rational surface basis
whose Gram matrix exhibits the half-integer canonical-class entries and the
Cartan block.

All of it runs in integers.  Short vectors come from Fincke-Pohst
enumeration over a fraction-free (Bareiss) LDL^T with an integer budget,
and the same leading minors decide definiteness (Sylvester's criterion);
the surface basis is half-integral, so its Gram is paired from the doubled
basis and divided by 4 once, and only the reported basis and Gram are
``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._intlin import (
    IntegerForm,
    complete_unimodular,
    determinant_integer,
    integer_kernel,
    is_symmetric,
    matrix_multiply,
    matrix_vector,
    primitive_vector,
    rank_integer,
    restricted_gram,
    solve_integer,
    symmetric_bareiss_step,
    transpose,
)
from ._record import Record
from .exactpoly import rational_to_num_den
from .pseudolattice import (
    ChargeMap,
    Pseudolattice,
    PseudolatticeError,
    del_pezzo_gram,
    neron_severi,
    point_like,
    serre,
)

IntMatrix = List[List[int]]
IntVector = List[int]
FracVector = Tuple[Fraction, ...]


class RootLatticeError(ValueError):
    """Raised when an input violates a root-lattice assumption."""


class IntLattice(IntegerForm, Record):
    """A finite-rank lattice with a symmetric integer bilinear form."""

    gram: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.rank
        if n == 0 or any(len(row) != n for row in self.gram):
            raise RootLatticeError("Gram matrix must be square and nonempty")
        if not is_symmetric(self.gram):
            raise RootLatticeError("Gram matrix must be symmetric")

    def norm(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def negated(self) -> "IntLattice":
        return IntLattice(tuple(tuple(-x for x in row) for row in self.gram))


# ---------------------------------------------------------------------------
# short vectors


def _bareiss_columns(
    gram: Sequence[Sequence[int]],
) -> Optional[Tuple[List[int], List[List[Tuple[int, int]]]]]:
    """Leading principal minors and Bareiss columns of a positive definite Gram.

    Returns ``(minors, columns)`` with ``minors[k]`` the leading k-by-k minor
    (``minors[0] = 1``) and ``columns[l]`` the nonzero entries ``(j, c)``,
    j > l, of column l after l steps of fraction-free elimination.  Then
    G = L D L^T with D[l] = minors[l + 1] / minors[l] and
    L[j][l] = c / minors[l + 1].  Returns None when a minor is not positive,
    that is, when the form is not positive definite (Sylvester's criterion).
    """
    n = len(gram)
    work = [list(row) for row in gram]
    minors = [1]
    columns: List[List[Tuple[int, int]]] = []
    for k in range(n):
        if work[k][k] <= 0:
            return None
        columns.append([(j, work[j][k]) for j in range(k + 1, n) if work[j][k]])
        symmetric_bareiss_step(work, k, minors[-1])
        minors.append(work[k][k])
    return minors, columns


def short_vectors(lattice: IntLattice, bound: int) -> List[IntVector]:
    """All nonzero vectors of absolute norm at most ``bound``, both signs.

    The lattice must be definite (either sign).  Fincke-Pohst enumeration
    over a fraction-free LDL^T, all in integers: with Delta_l the leading
    minors, c_l the Bareiss columns, s = sum_j c_l[j] v_j and
    u = t Delta_(l+1) + s, the norm is sum_l u^2 / (Delta_l Delta_(l+1)).
    Scaled by Q = lcm(Delta_l Delta_(l+1)), level l costs w_l u^2 with
    w_l = Q / (Delta_l Delta_(l+1)), so the admissible t under a remaining
    budget B are exactly those with |u| <= isqrt(floor(B / w_l)).  The
    floor never rounds: the levels above l spend Q times a norm in
    Z / Delta_(l+1), by Sylvester's determinant identity, so w_l divides B.
    The enumeration is complete.  Vectors are returned sorted
    lexicographically.
    """
    decomposition = _bareiss_columns(lattice.gram)
    if decomposition is None:
        decomposition = _bareiss_columns(lattice.negated().gram)
        if decomposition is None:
            raise RootLatticeError("short vectors require a definite lattice")
    minors, columns = decomposition
    n = lattice.rank
    products = [low * high for low, high in zip(minors, minors[1:])]
    scale = math.lcm(*products)
    weights = [scale // product for product in products]
    found: List[IntVector] = []
    vector = [0] * n

    def sweep(level: int, budget: int) -> None:
        if level < 0:
            if any(vector):
                found.append(list(vector))
            return
        delta, weight = minors[level + 1], weights[level]
        s = sum(c * vector[j] for j, c in columns[level])
        reach = math.isqrt(budget // weight)
        for t in range(-((reach + s) // delta), (reach - s) // delta + 1):
            u = t * delta + s
            vector[level] = t
            sweep(level - 1, budget - weight * u * u)
        vector[level] = 0

    sweep(n - 1, bound * scale)
    return sorted(found)


# ---------------------------------------------------------------------------
# Dynkin classification


def cartan_matrix(letter: str, rank: int) -> IntMatrix:
    """Cartan matrix of a simply-laced type in the fixed node order.

    A: a chain.  D: a chain of ``rank - 2`` nodes with two extra nodes
    attached to its last member.  E: a chain of ``rank - 1`` nodes with the
    last node attached to node 2.
    """
    if rank < 1:
        raise RootLatticeError("rank must be positive")
    if letter == "A":
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif letter == "D":
        if rank < 4:
            raise RootLatticeError("type D needs rank at least 4")
        edges = [(i, i + 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    elif letter == "E":
        if rank not in (6, 7, 8):
            raise RootLatticeError("type E needs rank 6, 7, or 8")
        edges = [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    else:
        raise RootLatticeError(f"unknown type letter {letter!r}")
    cartan = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        cartan[i][i] = 2
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


def _walk_branch(start: int, origin: int, adjacency: Dict[int, set]) -> List[int]:
    branch = [start]
    previous, current = origin, start
    while True:
        onward = [v for v in adjacency[current] if v != previous]
        if not onward:
            return branch
        if len(onward) > 1:
            raise RootLatticeError("Dynkin graph has a second branch point")
        previous, current = current, onward[0]
        branch.append(current)


def _classify_component(
    nodes: List[int], adjacency: Dict[int, set], roots: Sequence[Tuple[int, ...]]
) -> Tuple[str, int, List[int]]:
    """Type letter, rank, and the canonical ordering of the component nodes."""
    n = len(nodes)
    degrees = {v: len(adjacency[v]) for v in nodes}
    if any(d > 3 for d in degrees.values()):
        raise RootLatticeError("Dynkin graph has a node of degree above 3")
    branch_points = [v for v in nodes if degrees[v] == 3]
    if len(branch_points) > 1:
        raise RootLatticeError("Dynkin graph has two branch points")
    if not branch_points:
        if n == 1:
            return "A", 1, nodes
        ends = [v for v in nodes if degrees[v] == 1]
        start = min(ends, key=lambda v: roots[v])
        other = next(v for v in adjacency[start])
        order = [start] + _walk_branch(other, start, adjacency)
        if len(order) != n:
            raise RootLatticeError("Dynkin component is not a tree")
        return "A", n, order
    center = branch_points[0]
    branches = [
        _walk_branch(neighbor, center, adjacency)
        for neighbor in sorted(
            adjacency[center], key=lambda v: (len(_walk_branch(v, center, adjacency)), roots[v])
        )
    ]
    if 1 + sum(len(b) for b in branches) != n:
        raise RootLatticeError("Dynkin component is not a tree")
    lengths = [len(b) for b in branches]
    if lengths[0] != 1:
        raise RootLatticeError("branched Dynkin graph lacks a short arm")
    if lengths[1] == 1:
        # Type D: the two short arms trail the chain through the long arm.
        long_arm = branches[2]
        order = list(reversed(long_arm)) + [center, branches[0][0], branches[1][0]]
        return "D", n, order
    if (lengths[1], lengths[2]) in ((2, 2), (2, 3), (2, 4)) and n in (6, 7, 8):
        middle, long_arm = branches[1], branches[2]
        order = [middle[1], middle[0], center] + long_arm + [branches[0][0]]
        return "E", n, order
    raise RootLatticeError("Dynkin graph is outside the A/D/E catalog")


class RootSystemReport(Record):
    """Identification of the root system of a definite lattice."""

    sign: int  # +1 if the input was positive definite, -1 if it was negated
    abs_det: int
    root_count: int
    cartan: Tuple[Tuple[int, ...], ...]  # in the canonical node order
    dynkin_type: str  # e.g. "E6" or "A2+A1"
    edges: Tuple[Tuple[int, int], ...]
    simple_roots: Tuple[Tuple[int, ...], ...]  # input coordinates, canonical order

    def to_json(self) -> Dict[str, object]:
        return {
            "sign": self.sign,
            "abs_det": self.abs_det,
            "root_count": self.root_count,
            "cartan": [list(row) for row in self.cartan],
            "dynkin_type": self.dynkin_type,
            "edges": [list(e) for e in self.edges],
            "simple_roots": [list(r) for r in self.simple_roots],
        }


def root_system_identify(lattice: IntLattice) -> RootSystemReport:
    """Identify the A/D/E root system spanned by the norm-2 vectors.

    A degenerate form is refused by its determinant, an indefinite one by
    ``short_vectors``.  The form is flipped to positive definite if
    necessary; simple roots are the positive roots (for a deterministic
    generic functional) that are not sums of two positive roots, found in
    increasing height; the resulting Dynkin graph is matched against the
    A/D/E catalog and returned in a canonical node order.
    """
    abs_det = abs(determinant_integer(lattice.gram))
    if abs_det == 0:
        raise RootLatticeError("quotient the radical before identification")
    vectors = short_vectors(lattice, 2)
    sign = 1 if vectors and lattice.norm(vectors[0]) > 0 else -1
    work = lattice if sign == 1 else lattice.negated()
    roots = [v for v in vectors if work.norm(v) == 2]
    if not roots or rank_integer(roots) < lattice.rank:
        raise RootLatticeError("norm-2 vectors do not span the lattice")
    radius = max(abs(x) for v in roots for x in v)
    base = 2 * radius + 1
    weights = [base**j for j in range(lattice.rank)]

    def height(v: Sequence[int]) -> int:
        return sum(w * x for w, x in zip(weights, v))

    positive = {tuple(v) for v in roots if height(v) > 0}
    # A positive root is simple exactly when it is not a simple root plus a
    # positive root (Humphreys, section 10.2); such a simple root is lower,
    # so in increasing height every one a root needs is already found.
    found: List[Tuple[int, ...]] = []
    for v in sorted(positive, key=height):
        if not any(
            tuple(a - b for a, b in zip(v, s)) in positive for s in found
        ):
            found.append(v)
    simple = sorted(found)
    if len(simple) != lattice.rank:
        raise RootLatticeError(
            f"extracted {len(simple)} simple roots in rank {lattice.rank}"
        )
    pairs = restricted_gram(work.gram, simple)
    adjacency: Dict[int, set] = {i: set() for i in range(len(simple))}
    for i in range(len(simple)):
        for j in range(i + 1, len(simple)):
            value = pairs[i][j]
            if value == -1:
                adjacency[i].add(j)
                adjacency[j].add(i)
            elif value != 0:
                raise RootLatticeError("simple-root pairings are not simply laced")

    # split into connected components and classify each
    seen: set = set()
    components: List[Tuple[str, int, List[int]]] = []
    for start in range(len(simple)):
        if start in seen:
            continue
        stack, nodes = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            nodes.append(v)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        local = {v: adjacency[v] & set(nodes) for v in nodes}
        components.append(_classify_component(sorted(nodes), local, simple))
    components.sort(key=lambda c: (-c[1], c[0], [simple[i] for i in c[2]]))
    order = [i for _, _, comp in components for i in comp]
    ordered = [simple[i] for i in order]
    cartan = [[pairs[i][j] for j in order] for i in order]

    expected: IntMatrix = []
    offset = 0
    for letter, rank, _ in components:
        block = cartan_matrix(letter, rank)
        for i in range(rank):
            row = [0] * offset + block[i] + [0] * (lattice.rank - offset - rank)
            expected.append(row)
        offset += rank
    if cartan != expected:
        raise RootLatticeError("canonical ordering failed to match the catalog")
    edges = tuple(
        (i, j)
        for i in range(len(cartan))
        for j in range(i + 1, len(cartan))
        if cartan[i][j] == -1
    )
    return RootSystemReport(
        sign=sign,
        abs_det=abs_det,
        root_count=len(roots),
        cartan=tuple(tuple(row) for row in cartan),
        dynkin_type="+".join(f"{letter}{rank}" for letter, rank, _ in components),
        edges=edges,
        simple_roots=tuple(tuple(r) for r in ordered),
    )


def _orthogonal_roots(
    gram: Sequence[Sequence[int]], vector: Sequence[int]
) -> Tuple[RootSystemReport, IntMatrix]:
    """The root system of the orthogonal complement of ``vector`` under the
    form ``gram``, and its simple roots in the ambient coordinates."""
    kernel = integer_kernel([matrix_vector(gram, vector)])
    report = root_system_identify(IntLattice(restricted_gram(gram, kernel)))
    return report, matrix_multiply(report.simple_roots, kernel)


# ---------------------------------------------------------------------------
# hyperbolic model


class HyperbolicModelReport(Record):
    """The rank-(ell + 1) hyperbolic lattice with its canonical vector."""

    ell: int
    gram: Tuple[Tuple[int, ...], ...]  # diag(1, -1, ..., -1)
    canonical: Tuple[int, ...]  # the vector (-3, 1, ..., 1)
    canonical_norm: int  # must equal 9 - ell
    orthogonal: RootSystemReport  # root system of the orthogonal complement
    ambient_simple_roots: Tuple[Tuple[int, ...], ...]
    passed: bool

    def to_json(self) -> Dict[str, object]:
        return {
            "ell": self.ell,
            "gram": [list(r) for r in self.gram],
            "canonical": list(self.canonical),
            "canonical_norm": self.canonical_norm,
            "orthogonal": self.orthogonal.to_json(),
            "ambient_simple_roots": [list(r) for r in self.ambient_simple_roots],
            "passed": self.passed,
        }


def hyperbolic_model(ell: int) -> HyperbolicModelReport:
    """Build diag(1, -1, ..., -1) with k = (-3, 1, ..., 1) and identify k-perp.

    The canonical vector has norm 9 - ell, and its orthogonal complement
    must identify as the rank-``ell`` exceptional root system.
    """
    n = ell + 1
    gram = [[0] * n for _ in range(n)]
    gram[0][0] = 1
    for i in range(1, n):
        gram[i][i] = -1
    k = [-3] + [1] * ell
    lattice = IntLattice(gram)
    norm = lattice.norm(k)
    report, ambient_roots = _orthogonal_roots(lattice.gram, k)
    passed = (
        norm == 9 - ell
        and report.dynkin_type == f"E{ell}"
        and report.abs_det == abs(determinant_integer(report.cartan))
    )
    return HyperbolicModelReport(
        ell=ell,
        gram=lattice.gram,
        canonical=tuple(k),
        canonical_norm=norm,
        orthogonal=report,
        ambient_simple_roots=tuple(map(tuple, ambient_roots)),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# fundamental weights


def fundamental_weights(
    ambient: IntLattice, simple_roots: Sequence[Sequence[int]]
) -> List[IntVector]:
    """Integral vectors w_i with <w_i, beta_j> = delta_ij, or a hard error.

    The roots must be primitive, distinct, and linearly independent.  A
    missing integral solution is reported as an error rather than papered
    over, since downstream claims depend on existence.
    """
    roots = [list(r) for r in simple_roots]
    if len({tuple(r) for r in roots}) != len(roots):
        raise RootLatticeError("duplicate simple roots")
    for r in roots:
        if not any(r):
            raise RootLatticeError("zero vector is not a root")
        if primitive_vector(r) not in (r, [-x for x in r]):
            raise RootLatticeError(f"root {r} is not primitive")
    if rank_integer(roots) != len(roots):
        raise RootLatticeError("simple roots are linearly dependent")
    rows = [matrix_vector([list(g) for g in ambient.gram], r) for r in roots]
    weights: List[IntVector] = []
    for i in range(len(roots)):
        rhs = [1 if j == i else 0 for j in range(len(roots))]
        solution = solve_integer(rows, rhs)
        if solution is None:
            raise RootLatticeError(
                f"no integral fundamental weight for root index {i}"
            )
        weights.append(solution)
    return weights


# ---------------------------------------------------------------------------
# kernel decomposition


class KernelDecompositionReport(Record):
    """Splitting of a charge kernel into a root factor and the radical."""

    kernel_rank: int
    radical_rank: int
    radical_generator: Tuple[int, ...]  # kernel coordinates
    radical_is_point: bool
    quotient_det: int
    root_report: RootSystemReport
    orthogonal: bool
    passed: bool
    failure: Optional[str]

    def to_json(self) -> Dict[str, object]:
        return {
            "kernel_rank": self.kernel_rank,
            "radical_rank": self.radical_rank,
            "radical_generator": list(self.radical_generator),
            "radical_is_point": self.radical_is_point,
            "quotient_det": self.quotient_det,
            "root_system": self.root_report.to_json(),
            "orthogonal": self.orthogonal,
            "passed": self.passed,
            "failure": self.failure,
        }


def kernel_decomposition(
    lattice: Pseudolattice, charge: ChargeMap
) -> KernelDecompositionReport:
    """Verify that the charge kernel splits as root system plus radical.

    Checks: the point-like vector is in the kernel and spans the radical of
    the restricted (necessarily symmetric) form; the quotient by the radical
    is a definite lattice identified as E6/E7/E8 whose determinant matches
    the Cartan determinant; the two factors pair to zero on both sides.
    """
    kernel = integer_kernel(charge.matrix())
    p = point_like(lattice)
    failure: Optional[str] = None
    if not charge.charge(p).is_zero():
        raise PseudolatticeError("point-like vector carries nonzero charge")
    restricted = restricted_gram(lattice.gram, kernel)
    if not is_symmetric(restricted):
        raise PseudolatticeError("restricted form is not symmetric")
    radical = integer_kernel(restricted)
    radical_ok = len(radical) == 1
    generator = radical[0] if radical_ok else [0] * len(kernel)
    if radical_ok and next((x for x in generator if x), 1) < 0:
        generator = [-x for x in generator]
    ambient_radical = matrix_vector(transpose(kernel), generator)
    radical_is_point = radical_ok and ambient_radical in (p, [-x for x in p])
    if not radical_ok:
        failure = f"radical has rank {len(radical)}, expected 1"
    elif not radical_is_point:
        failure = "radical generator is not the point-like vector"

    completion = complete_unimodular(generator) if radical_ok else None
    if completion is not None:
        full = restricted_gram(restricted, transpose(completion))
        quotient = [row[1:] for row in full[1:]]
    else:
        quotient = [row[1:] for row in restricted[1:]]
    quotient_det = determinant_integer(quotient)
    root_report = root_system_identify(IntLattice(quotient))
    cartan_det = abs(determinant_integer(root_report.cartan))
    if abs(quotient_det) != cartan_det and failure is None:
        failure = (
            f"quotient determinant {quotient_det} differs from the Cartan "
            f"determinant {cartan_det}"
        )
    orthogonal = all(
        lattice.pairing(p, v) == 0 and lattice.pairing(v, p) == 0 for v in kernel
    )
    if not orthogonal and failure is None:
        failure = "factors are not mutually orthogonal"
    expected_type = f"E{len(kernel) - 1}"
    if root_report.dynkin_type != expected_type and failure is None:
        failure = (
            f"quotient identified as {root_report.dynkin_type}, "
            f"expected {expected_type}"
        )
    return KernelDecompositionReport(
        kernel_rank=len(kernel),
        radical_rank=len(radical),
        radical_generator=tuple(generator),
        radical_is_point=radical_is_point,
        quotient_det=quotient_det,
        root_report=root_report,
        orthogonal=orthogonal,
        passed=failure is None,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# the rational surface basis


class SurfaceBasisReport(Record):
    """The rational basis (unit, canonical, roots, point) and its Gram."""

    d: int
    basis: Tuple[FracVector, ...]  # rows: unit, canonical lift, roots, point
    gram: Tuple[FracVector, ...]
    cartan: Tuple[Tuple[int, ...], ...]
    unit_canonical: Fraction  # must be -d/2
    canonical_unit: Fraction  # must be +d/2
    canonical_self: Fraction  # computed self-pairing of the canonical lift
    corner_checks: bool  # <unit, point> = <point, unit> = 1, <point, point> = 0
    cross_zero: bool  # root block decoupled from unit/canonical/point
    passed: bool

    def to_json(self) -> Dict[str, object]:
        return {
            "d": self.d,
            "basis": [list(map(rational_to_num_den, row)) for row in self.basis],
            "gram": [list(map(rational_to_num_den, row)) for row in self.gram],
            "cartan": [list(r) for r in self.cartan],
            "unit_canonical": rational_to_num_den(self.unit_canonical),
            "canonical_unit": rational_to_num_den(self.canonical_unit),
            "canonical_self": rational_to_num_den(self.canonical_self),
            "corner_checks": self.corner_checks,
            "cross_zero": self.cross_zero,
            "passed": self.passed,
        }


def kuznetsov_basis(d: int) -> SurfaceBasisReport:
    """Assemble the rational basis (unit, canonical, root lifts, point).

    In the reference surface model of degree ``d``: the unit class, the
    canonical-class lift k - (d/2) p, integral lifts of the simple roots of
    the canonical-orthogonal inside the quotient lattice (shifted by point
    multiples to decouple them from the unit), and the point class.  The
    Gram must show the +-d/2 canonical entries, the Cartan block, and the
    unit corner entries.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"no reference surface model for degree {d}")
    ell = 9 - d
    model = Pseudolattice(del_pezzo_gram(ell))
    n = model.rank
    s = serre(model)
    quotient = neron_severi(model)
    p = list(quotient.point)
    unit = [1] + [0] * (n - 1)
    k = [a - b for a, b in zip(matrix_vector(s, unit), unit)]

    reps = [list(r) for r in quotient.representatives]
    columns = transpose([p] + reps)
    k_coords = solve_integer(columns, k)
    if k_coords is None:
        raise RootLatticeError("canonical class escapes the point-orthogonal")

    report, ns_roots = _orthogonal_roots(quotient.gram, k_coords[1:])
    if report.dynkin_type != f"E{ell}":
        raise RootLatticeError(
            f"canonical-orthogonal identified as {report.dynkin_type}"
        )

    roots_ambient: List[IntVector] = []
    for ambient in matrix_multiply(ns_roots, reps):
        shift = model.pairing(unit, ambient)  # <unit, p> = 1, so subtract
        roots_ambient.append([a - shift * b for a, b in zip(ambient, p)])

    # The basis is half-integral: pair it doubled, in integers, and divide
    # the Gram by 4 once.
    doubled = [[2 * x for x in unit], [2 * a - d * b for a, b in zip(k, p)]]
    doubled += [[2 * x for x in r] for r in roots_ambient]
    doubled.append([2 * x for x in p])
    basis = tuple(tuple(Fraction(x, 2) for x in v) for v in doubled)
    gram = tuple(
        tuple(Fraction(x, 4) for x in row) for row in restricted_gram(model.gram, doubled)
    )
    half = Fraction(d, 2)
    last = len(basis) - 1
    unit_canonical = gram[0][1]
    canonical_unit = gram[1][0]
    canonical_self = gram[1][1]
    corner_checks = (
        gram[0][0] == 1
        and gram[0][last] == 1
        and gram[last][0] == 1
        and gram[last][last] == 0
    )
    cartan_block = [
        [gram[2 + i][2 + j] for j in range(ell)] for i in range(ell)
    ]
    cartan_ok = cartan_block == [[Fraction(x) for x in row] for row in report.cartan]
    cross = True
    for idx in range(2, 2 + ell):
        for other in (0, 1, last):
            if gram[idx][other] != 0 or gram[other][idx] != 0:
                cross = False
    passed = (
        unit_canonical == -half
        and canonical_unit == half
        and corner_checks
        and cartan_ok
        and cross
        and gram[1][last] == 0
        and gram[last][1] == 0
    )
    return SurfaceBasisReport(
        d=d,
        basis=basis,
        gram=gram,
        cartan=report.cartan,
        unit_canonical=unit_canonical,
        canonical_unit=canonical_unit,
        canonical_self=canonical_self,
        corner_checks=corner_checks,
        cross_zero=cross,
        passed=passed,
    )
