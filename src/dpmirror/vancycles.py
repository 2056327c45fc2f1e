"""The vanishing-cycle pipeline for perturbed Weierstrass fibrations.

From an explicit perturbed model: order the critical values by the
clockwise sweep, track fiber roots along straight arcs to find the
colliding pair for each, trace the vanishing arc through the collision,
integrate dx/y against the period lattice of the base fiber over a chord
path that a fan of triangles certifies homotopic to the arc
(``_quadrature_path``), and solve for the integer homology class of every
vanishing cycle.  The algebraic layer (intersection pairing, Seifert Gram
matrix, Dehn twists, monodromy, the cycle at infinity) lives in the
homology module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._record import Record
from .exactpoly import poly_gcd, rational_to_num_den
from .homology import HomologyClass
from .pathnum import (
    CPoly,
    NumericsError,
    PathPolyline,
    TrackedRoots,
    all_roots,
    continue_roots,
    elliptic_integral,
    period_lattice,
)
from .weierstrass import WeierstrassModel, catalog, reference_nodal_place

__all__ = [
    "ArcGuardError",
    "HomologyClass",
    "VanishingData",
    "critical_values_ordered",
    "render_delta_svg",
    "vanishing_classes",
]

ARC_GUARD = 1e-3  # minimal distance of other critical values from an arc
RESIDUAL_BOUND = 1e-6  # integer period solve must certify below this
RETRY_FACTOR = Fraction(18, 17)  # epsilon bump when an arc guard trips
MAX_RETRIES = 5  # epsilon bumps before the arc guard failure is final
# A quadrature chord keeps base roots this fraction of its length away
# (0.2 and 1.0 measured equally fast).
CHORD_CLEARANCE = 0.2
# A fan triangle holds a root this near it, times 1 + max |base root|, so
# rounding hides no root on an edge.
FAN_MARGIN = 1e-9


class ArcGuardError(NumericsError):
    """A straight arc passes within the guard distance of another critical
    value; a different epsilon separates them."""


def _fiber_family(model: WeierstrassModel) -> Tuple[Tuple[complex, ...], ...]:
    """The fiber cubic x^3 + a(lam) x + b(lam) as ``continue_roots`` reads
    it: for each power of x, its coefficients ascending in lam.  ``a`` and
    ``b`` are nonzero in every catalog model."""
    rows = tuple(CPoly.from_unipoly(p).coeffs for p in (model.b, model.a))
    return rows + ((0j,), (1 + 0j,))


def sweep_key(first: complex) -> Callable[[complex], Tuple[float, float]]:
    """Sort key of the clockwise sweep that starts at ``first``.

    Points sort by strictly decreasing argument taken in the half-open
    length-2pi interval below the argument of ``first``, with ties broken by
    increasing modulus.
    """
    theta = math.atan2(first.imag, first.real)

    def key(z: complex) -> Tuple[float, float]:
        turn = (theta - math.atan2(z.imag, z.real)) % (2 * math.pi)
        return (-(theta - turn), abs(z))

    return key


def svg_document(size: int, elements: Sequence[str]) -> str:
    """A square figure of ``size`` pixels: the opening ``<svg>`` tag, a white
    background, ``elements`` and the closing tag, one to a line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        *elements,
        "</svg>\n",
    ])


def critical_values_ordered(
    model: WeierstrassModel, anchor: Optional[complex] = None
) -> List[complex]:
    """Critical values of the fibration, in clockwise sweep order.

    The values are the roots of the separable invariant 4a^3 + 27b^2.  The
    root nearest ``anchor`` (largest modulus when no anchor is given) comes
    first; the rest follow in the clockwise sweep from it (``sweep_key``).
    """
    disc = model.discriminant_scale()
    if disc.degree() < 1:
        raise NumericsError("the discriminant scale is constant")
    if poly_gcd(disc, disc.derivative()).degree() > 0:
        raise NumericsError("the discriminant scale is not separable")
    roots = all_roots(CPoly.from_unipoly(disc))
    if anchor is None:
        first = max(roots, key=abs)
    else:
        first = min(roots, key=lambda z: abs(z - complex(anchor)))
    rest = [z for z in roots if z != first]
    rest.sort(key=sweep_key(first))
    return [first] + rest


def _segment_distance(point: complex, a: complex, b: complex) -> float:
    """Distance from ``point`` to the segment from ``a`` to ``b``."""
    span = b - a
    length_sq = span.real**2 + span.imag**2
    if length_sq == 0:
        return abs(point - a)
    t = ((point - a).real * span.real + (point - a).imag * span.imag) / length_sq
    t = min(1.0, max(0.0, t))
    return abs(point - (a + t * span))


def _vanishing_arc(tracked: TrackedRoots, pair: Tuple[int, int]) -> PathPolyline:
    """The arc through the collision: one track forward to the centre of the
    certified disc, the other back from it."""
    i, j = pair
    forward = [row[i] for row in tracked.roots]
    backward = [row[j] for row in tracked.roots]
    meeting = (forward[-1] + backward[-1]) / 2
    nodes: List[complex] = []
    for z in forward + [meeting] + list(reversed(backward)):
        if not nodes or nodes[-1] != z:
            nodes.append(z)
    return PathPolyline(tuple(nodes))


def _quadrature_path(
    delta: PathPolyline, base_roots: Sequence[complex]
) -> PathPolyline:
    """Some nodes of ``delta``, a path homotopic to it in the plane minus
    ``base_roots``: from each kept node a, the farthest node c whose chord
    a -> c keeps every base root except a and c ``CHORD_CLEARANCE`` times
    its length away, and whose fan triangles (a, b, b') over the nodes in
    between hold no base root except at a vertex."""
    nodes = np.array(delta.nodes)[:, None]  # rows: nodes; columns: roots
    roots = np.array(base_roots)
    margin = FAN_MARGIN * (1 + np.abs(roots).max())
    at_root = nodes == roots
    edges = nodes[1:] - nodes[:-1]
    # signed distances of the roots from the lines of the arc's edges
    steps = (edges.conjugate() * (roots - nodes[:-1])).imag / np.abs(edges)
    kept = [0]
    with np.errstate(all="ignore"):
        while kept[-1] < len(nodes) - 1:
            start = kept[-1]
            a = nodes[start]
            # chord k runs from a to node start + 1 + k; fan triangle k is
            # (a, b, c) for the heads b, c of chords k and k + 1
            chords = nodes[start + 1:] - a
            length = np.abs(chords)
            turn = chords.conjugate() * (roots - a)
            left = turn.imag / length
            sides = np.stack((left[:-1], steps[start + 1:], -left[1:]))
            # off one side of a triangle is outside it; NaN (a zero chord) is not
            outside = (sides.min(axis=0) < -margin) & (sides.max(axis=0) > margin)
            outside |= at_root[start] | at_root[start + 2:]
            blocked = ~outside.all(axis=1)
            fan = int(blocked.argmax()) if blocked.any() else len(blocked)
            along = np.clip(turn[1:fan + 1].real / length[1:fan + 1] ** 2, 0, 1)
            gaps = np.abs(roots - a - along * chords[1:fan + 1])
            clear = (gaps >= CHORD_CLEARANCE * length[1:fan + 1]) | at_root[start]
            clear |= at_root[start + 2:start + 2 + fan]
            ends = np.flatnonzero(clear.all(axis=1))
            kept.append(start + 2 + int(ends[-1]) if len(ends) else start + 1)
    return PathPolyline(tuple(delta.nodes[k] for k in kept))


class VanishingData(Record):
    """Ordered critical values with their vanishing arcs and classes."""

    d: int
    epsilon: Fraction  # the perturbation actually used (after retries)
    critical_values: Tuple[complex, ...]
    colliding_pairs: Tuple[Tuple[int, int], ...]  # track indices per arc
    deltas: Tuple[PathPolyline, ...]  # vanishing arcs through each collision
    classes: Tuple[HomologyClass, ...]
    residuals: Tuple[float, ...]  # period-solve certificates
    periods: Tuple[complex, complex]  # pair dual to the class coordinates

    def __post_init__(self) -> None:
        count = len(self.critical_values)
        records = (self.colliding_pairs, self.deltas, self.classes, self.residuals)
        if any(len(r) != count for r in records):
            raise NumericsError("per-arc records have inconsistent lengths")
        for cls in self.classes:
            if math.gcd(cls.m, cls.n) != 1:
                raise NumericsError(f"class {cls.to_pair()} is not primitive")
        for r in self.residuals:
            if not r < RESIDUAL_BOUND:
                raise NumericsError(f"period-solve residual {r:.3g} too large")

    def to_json(self) -> Dict[str, object]:
        return {
            "d": self.d,
            "epsilon": rational_to_num_den(self.epsilon),
            "critical_values": [[z.real, z.imag] for z in self.critical_values],
            "colliding_pairs": [list(p) for p in self.colliding_pairs],
            "classes": [list(c.to_pair()) for c in self.classes],
            "residuals": list(self.residuals),
            "periods": [[z.real, z.imag] for z in self.periods],
        }


def _solve_class(
    integral: complex, periods: Tuple[complex, complex]
) -> Tuple[HomologyClass, float]:
    omega_a, omega_b = periods
    matrix = np.array(
        [[omega_a.real, omega_b.real], [omega_a.imag, omega_b.imag]]
    )
    target = np.array([integral.real, integral.imag])
    m_float, n_float = np.linalg.solve(matrix, target)
    m, n = round(float(m_float)), round(float(n_float))
    residual = abs(integral - m * omega_a - n * omega_b)
    return HomologyClass(m, n), residual


def vanishing_classes(d: int, epsilon: Fraction = Fraction(1, 100)) -> VanishingData:
    """The ordered vanishing-cycle classes of the perturbed degree-d model.

    For every critical value in sweep order: roots are continued along the
    straight arc from the base point 0 until ``continue_roots`` certifies
    the pair of tracks that meet at the critical value, a discriminant root
    and so a fiber with a double root; an arc with no certified pair raises
    ``NumericsError``.  The pair defines the vanishing arc, and 2 int dx/y
    over that arc (over its chord path, which has the same integral up to
    sign) is solved against the period pair as m alpha + n beta
    with an exact-integer certificate.  The global orientation is
    calibrated so the first class is a + b; every other class is normalized
    to a positive first nonzero coordinate.  An arc passing within the
    guard distance of another critical value bumps epsilon by 18/17 and
    retries, at most ``MAX_RETRIES`` times.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"no reference model of degree {d}")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise NumericsError("epsilon must be positive")
    last_error: Optional[ArcGuardError] = None
    for _ in range(MAX_RETRIES + 1):
        try:
            return _vanishing_classes_once(d, eps)
        except ArcGuardError as error:
            last_error = error
            eps *= RETRY_FACTOR
    raise NumericsError(
        f"arc guard kept failing after {MAX_RETRIES} epsilon bumps: {last_error}"
    )


def _vanishing_classes_once(d: int, eps: Fraction) -> VanishingData:
    model = catalog(d, eps)
    family = _fiber_family(model)
    anchor = complex(float(reference_nodal_place(d)), 0.0)
    critical = critical_values_ordered(model, anchor)
    for index, lam in enumerate(critical):
        for other in critical:
            if other == lam:
                continue
            if _segment_distance(other, 0j, lam) < ARC_GUARD:
                raise ArcGuardError(
                    f"arc guard: the straight arc to critical value {index} "
                    f"passes within {ARC_GUARD} of another critical value "
                    "(a different epsilon separates them)"
                )
    omega_a, omega_b = period_lattice(float(eps))
    # Orientation convention: the second reference cycle is taken with the
    # opposite orientation to the raw period pair, so the cycle collapsing
    # at the distinguished nodal place has class a + b.  The calibration
    # check below certifies the convention on every run.
    basis = (omega_a, -omega_b)
    base_cubic = CPoly(tuple(row[0] for row in family))
    base_roots = all_roots(base_cubic)  # every arc starts on the base fiber

    pairs: List[Tuple[int, int]] = []
    deltas: List[PathPolyline] = []
    classes: List[HomologyClass] = []
    residuals: List[float] = []
    for lam in critical:
        tracked = continue_roots(family, PathPolyline((0j, lam)), roots=base_roots)
        pair = tracked.pair
        if pair is None:
            raise NumericsError(
                f"no colliding pair certified on the arc to critical value "
                f"{lam:.6g}"
            )
        delta = _vanishing_arc(tracked, pair)
        integral = 2 * elliptic_integral(
            base_cubic, _quadrature_path(delta, base_roots), roots=base_roots
        )
        cls, residual = _solve_class(integral, basis)
        if not residual < RESIDUAL_BOUND:
            raise NumericsError(
                f"period solve residual {residual:.3g} for critical value "
                f"{lam:.6g}; the integer certificate failed"
            )
        pairs.append(pair)
        deltas.append(delta)
        classes.append(cls)
        residuals.append(residual)

    first = classes[0]
    if first.sign_normalized() != HomologyClass(1, 1):
        raise NumericsError(
            f"calibration failed: the first class is {first.to_pair()}, "
            "expected a + b up to sign"
        )
    normalized = [cls.sign_normalized() for cls in classes]
    return VanishingData(
        d=d,
        epsilon=eps,
        critical_values=tuple(critical),
        colliding_pairs=tuple(pairs),
        deltas=tuple(deltas),
        classes=tuple(normalized),
        residuals=tuple(residuals),
        periods=basis,
    )


def render_delta_svg(data: VanishingData) -> str:
    """A deterministic 640-pixel SVG of the vanishing arcs over the branch
    points."""
    size = 640
    points = [z for delta in data.deltas for z in delta.nodes]
    if not points:
        raise NumericsError("nothing to draw")
    lo_re = min(z.real for z in points)
    hi_re = max(z.real for z in points)
    lo_im = min(z.imag for z in points)
    hi_im = max(z.imag for z in points)
    span = max(hi_re - lo_re, hi_im - lo_im, 1e-9)
    margin = 0.08 * span
    lo_re, lo_im = lo_re - margin, lo_im - margin
    scale = size / (span + 2 * margin)

    def place(z: complex) -> Tuple[float, float]:
        return ((z.real - lo_re) * scale, size - (z.imag - lo_im) * scale)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
              "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e", "#393b79"]
    parts = []
    for index, delta in enumerate(data.deltas):
        color = colors[index % len(colors)]
        coords = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (place(z) for z in delta.nodes)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    branch_points = {delta.nodes[0] for delta in data.deltas}
    branch_points.update(delta.nodes[-1] for delta in data.deltas)
    for z in sorted(branch_points, key=lambda w: (w.real, w.imag)):
        x, y = place(z)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>'
        )
    return svg_document(size, parts)
