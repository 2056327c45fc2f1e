"""Interpolation families between catalog fibrations.

For two perturbed catalog models the family blends the fibration
polynomials through complex coefficients, tracks every critical value on
the projective line (an escape to infinity is an ordinary chart switch),
renders the trajectory figures, and proposes a mutation word from the
braiding of the tracks around the base point.  The proposed word is a
candidate only: exact validation goes through the pseudolattice layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .pathnum import CPoly, NumericsError, all_roots, match_tracks
from .pseudolattice import MutationMove, MutationWord
from .vancycles import svg_preamble, sweep_key
from .weierstrass import WeierstrassModel, catalog

__all__ = [
    "ComplexModel",
    "FamilySpec",
    "ProjectivePoint",
    "TrajectorySet",
    "chordal",
    "family_at",
    "render_svg",
    "sweep",
    "transposition_word",
]

FINITE = "finite"  # chart coordinate is the base parameter itself
INFINITE = "infinite"  # chart coordinate is its reciprocal


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line in one of two affine charts."""

    chart: str  # FINITE or INFINITE
    coordinate: complex  # position in the named chart

    def __post_init__(self) -> None:
        if self.chart not in (FINITE, INFINITE):
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.chart == FINITE and abs(self.coordinate) > 1.0 + 1e-12:
            raise ValueError("finite-chart coordinate exceeds the chart bound")

    @property
    def parked(self) -> bool:
        """True for the point at infinity itself."""
        return self.chart == INFINITE and self.coordinate == 0

    def affine(self) -> complex:
        """The position in the finite chart; rejects the point at infinity."""
        if self.chart == FINITE:
            return self.coordinate
        if self.parked:
            raise NumericsError("the point at infinity has no affine position")
        return 1 / self.coordinate

    @classmethod
    def from_affine(cls, value: complex) -> "ProjectivePoint":
        if abs(value) <= 1.0:
            return cls(FINITE, value)
        return cls(INFINITE, 1 / value)


def chordal(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """The chordal distance on the projective line (bounded by 1)."""
    a, b = (p.coordinate, 1 + 0j) if p.chart == FINITE else (1 + 0j, p.coordinate)
    c, d = (q.coordinate, 1 + 0j) if q.chart == FINITE else (1 + 0j, q.coordinate)
    cross = abs(a * d - b * c)
    norm = math.sqrt((abs(a) ** 2 + abs(b) ** 2) * (abs(c) ** 2 + abs(d) ** 2))
    return cross / norm


def _homogeneous(points: Sequence[ProjectivePoint]) -> Tuple[np.ndarray, np.ndarray]:
    """The homogeneous coordinates (a : b) that ``chordal`` uses, per point."""
    coordinate = np.array([p.coordinate for p in points], dtype=complex)
    finite = np.array([p.chart == FINITE for p in points], dtype=bool)
    return np.where(finite, coordinate, 1), np.where(finite, 1, coordinate)


def _chordal_matrix(
    rows: Sequence[ProjectivePoint], columns: Sequence[ProjectivePoint]
) -> np.ndarray:
    """``chordal`` from every point of ``rows`` to every one of ``columns``."""
    (a, b), (c, d) = _homogeneous(rows), _homogeneous(columns)
    a, b = a[:, None], b[:, None]
    cross = np.abs(a * d - b * c)
    return cross / np.sqrt(
        (np.abs(a) ** 2 + np.abs(b) ** 2) * (np.abs(c) ** 2 + np.abs(d) ** 2)
    )


# ---------------------------------------------------------------------------
# the family


@dataclass(frozen=True)
class ComplexModel:
    """Complex-coefficient fibration data ``y^2 = x^3 + a(t) x + b(t)``."""

    a: CPoly  # coefficient of x, polynomial in the base parameter
    b: CPoly  # constant coefficient, polynomial in the base parameter

    def invariant_scale(self) -> CPoly:
        """The singular-fiber invariant 4a^3 + 27b^2."""
        return 4 * (self.a * self.a * self.a) + 27 * (self.b * self.b)

    def sphere_degree(self) -> int:
        """Upper bound for the invariant degree; root count on the sphere."""
        return max(3 * self.a.degree, 2 * self.b.degree)


@dataclass(frozen=True)
class FamilySpec:
    """Endpoint models of one interpolation family."""

    start: WeierstrassModel
    end: WeierstrassModel

    def __post_init__(self) -> None:
        if self.start.var != self.end.var:
            raise ValueError("endpoint models live on different charts")

    @classmethod
    def between_degrees(
        cls, d_from: int, d_to: int, epsilon: Fraction = Fraction(1, 100)
    ) -> "FamilySpec":
        return cls(catalog(d_from, epsilon), catalog(d_to, epsilon))


def family_at(spec: FamilySpec, s: float) -> ComplexModel:
    """The fibration of the blended family at interpolation time ``s``.

    The cubic is the unit-circle blend ``e^{i pi s} p_0 + s (p_0 + p_1)``
    of the endpoint cubics, renormalized to a monic model; at ``s = 0``
    and ``s = 1`` the phase factor is evaluated exactly, so the endpoints
    reproduce the input models without rounding.
    """
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation time {s} outside [0, 1]")
    if s == 0.0:
        phase = 1.0 + 0j
    elif s == 1.0:
        phase = -1.0 + 0j
    else:
        phase = cmath.exp(1j * math.pi * s)
    scale = phase + 2 * s
    a0 = CPoly.from_unipoly(spec.start.a)
    a1 = CPoly.from_unipoly(spec.end.a)
    b0 = CPoly.from_unipoly(spec.start.b)
    b1 = CPoly.from_unipoly(spec.end.b)
    blended_a = phase * a0 + s * (a0 + a1)
    blended_b = phase * b0 + s * (b0 + b1)
    return ComplexModel(scale * blended_a, (scale * scale) * blended_b)


# ---------------------------------------------------------------------------
# the sweep


SAMPLES = 400  # uniform grid intervals over [0, 1]
PROXIMITY = 1e-3  # chordal distance that triggers refinement
MAX_MOTION = 0.02  # largest accepted chordal step per track
WIDTH_FLOOR = 1e-6  # refinement stops below this interval width
BOUNDARY = 0.9  # chart-boundary annulus is (BOUNDARY, 1/BOUNDARY)


@dataclass(frozen=True)
class TrajectorySet:
    """Tracked critical-value positions over the interpolation interval."""

    parameters: Tuple[float, ...]  # increasing sample times in [0, 1]
    positions: Tuple[Tuple[ProjectivePoint, ...], ...]  # [sample][track]
    chart_switches: Tuple[Tuple[int, float], ...]  # (track, time) events

    def __post_init__(self) -> None:
        if len(self.parameters) != len(self.positions):
            raise NumericsError("sample times and position rows disagree")
        if self.positions:
            width = len(self.positions[0])
            if any(len(row) != width for row in self.positions):
                raise NumericsError("position rows have unequal track counts")
        if list(self.parameters) != sorted(set(self.parameters)):
            raise NumericsError("sample times must increase strictly")

    @property
    def track_count(self) -> int:
        return len(self.positions[0]) if self.positions else 0

    def finite_count(self, sample: int) -> int:
        """Number of tracks away from infinity at the given sample index."""
        return sum(1 for p in self.positions[sample] if not p.parked)

    def track(self, index: int) -> Tuple[ProjectivePoint, ...]:
        return tuple(row[index] for row in self.positions)

    def to_csv(self) -> str:
        lines = ["s,track,chart,re,im"]
        for s, row in zip(self.parameters, self.positions):
            for index, point in enumerate(row):
                lines.append(
                    f"{s:.16e},{index},{point.chart},"
                    f"{point.coordinate.real:.16e},{point.coordinate.imag:.16e}"
                )
        return "\n".join(lines) + "\n"


def _configuration(
    spec: FamilySpec, s: float, previous: Sequence[ProjectivePoint] = ()
) -> List[ProjectivePoint]:
    """All sphere positions of the invariant roots at time ``s``.

    The finite points of ``previous``, the configuration at a nearby time,
    warm-start the root solve (``all_roots`` starts cold when their count
    is not the invariant's degree).
    """
    model = family_at(spec, s)
    bound = model.sphere_degree()
    invariant = model.invariant_scale().trimmed()
    if invariant.degree < 1:
        raise NumericsError(f"the invariant degenerates at time {s}")
    tallest = max(abs(c) for c in invariant.coeffs)
    if abs(invariant(0j)) <= 1e-12 * tallest:
        raise NumericsError(f"a critical value hits the base point at time {s}")
    start = [p.affine() for p in previous if not p.parked]
    points = [
        ProjectivePoint.from_affine(z) for z in all_roots(invariant, start=start)
    ]
    points.extend(
        ProjectivePoint(INFINITE, 0j) for _ in range(bound - invariant.degree)
    )
    return points


def _in_boundary_annulus(point: ProjectivePoint) -> bool:
    return BOUNDARY < abs(point.coordinate) <= 1.0


def _interval_verdict(
    before: Sequence[ProjectivePoint], after: Sequence[ProjectivePoint]
) -> Optional[str]:
    """The reason the interval needs refinement, or None to accept."""
    motion = max(chordal(p, q) for p, q in zip(before, after))
    if motion > MAX_MOTION:
        return "motion"
    now = _chordal_matrix(after, after)
    was = _chordal_matrix(before, before)
    parked = np.array([p.parked for p in before], dtype=bool)
    pairs = np.triu(~(parked[:, None] & parked[None, :]), k=1)
    if (pairs & (now < PROXIMITY) & (now < was)).any():
        return "proximity"
    for p, q in zip(before, after):
        if _in_boundary_annulus(q) and not _in_boundary_annulus(p):
            return "boundary"
    return None


def sweep(spec: FamilySpec) -> TrajectorySet:
    """Track all critical values of the family across the interval.

    The grid has ``SAMPLES`` equal intervals, and each sample's root solve
    is warm-started from the last accepted row.  Tracks are matched between
    samples by minimal total chordal motion.  An interval is bisected, down
    to ``WIDTH_FLOOR``, when a track moves more than ``MAX_MOTION``, a pair
    closes in below ``PROXIMITY``, or a track newly enters the annulus
    ``BOUNDARY < |z| <= 1`` of its chart.  A step that still moves tracks
    too far at the floor is reported as an unresolved crossing.
    """
    start = _configuration(spec, 0.0)
    parameters = [0.0]
    rows: List[List[ProjectivePoint]] = [start]
    switches: List[Tuple[int, float]] = []
    pending = [k / SAMPLES for k in range(1, SAMPLES + 1)]
    while pending:
        target = pending[0]
        here = parameters[-1]
        points = _configuration(spec, target, rows[-1])
        cost = _chordal_matrix(rows[-1], points)
        matched = [points[j] for j in match_tracks(cost)]
        verdict = _interval_verdict(rows[-1], matched)
        if verdict is not None and target - here > WIDTH_FLOOR:
            pending.insert(0, here + (target - here) / 2)
            continue
        if verdict == "motion":
            raise NumericsError(
                f"unresolved track crossing between times {here:.8f} and "
                f"{target:.8f}; tracks moved too far at the width floor"
            )
        for index, (p, q) in enumerate(zip(rows[-1], matched)):
            if p.chart != q.chart:
                switches.append((index, target))
        parameters.append(target)
        rows.append(matched)
        pending.pop(0)
    return TrajectorySet(
        parameters=tuple(parameters),
        positions=tuple(tuple(row) for row in rows),
        chart_switches=tuple(switches),
    )


# ---------------------------------------------------------------------------
# the braiding heuristic


def _angular_slots(row: Sequence[ProjectivePoint], anchor: int) -> List[int]:
    """Finite tracks in sweep order around the base point 0, anchor first.

    Mirrors the critical-value ordering: the anchor track opens the list
    and the remaining finite tracks follow in the clockwise sweep from it.
    """
    finite = [i for i, p in enumerate(row) if not p.parked]
    offsets = {i: row[i].affine() for i in finite}
    for i, z in offsets.items():
        if abs(z) < 1e-9:
            raise NumericsError("a track passes through the base point")
    key = sweep_key(offsets[anchor])
    rest = sorted((i for i in finite if i != anchor), key=lambda i: key(offsets[i]))
    return [anchor] + rest


# Two tracks closer than this are treated as one unresolved tangle: the
# matcher cannot certify which strand is which through such a core, so
# swaps inside it carry no usable braiding information.
_TANGLE_CORE = 5e-3
# Once tangled, two tracks must separate beyond this gap before their
# mutual swaps count again; a tangle that never releases contributes no
# net moves.
_TANGLE_RELEASE = 1e-2


class _TangleLedger:
    """Union bookkeeping for track pairs inside unresolved tangles."""

    def __init__(self) -> None:
        self._groups: List[set] = []

    def _find(self, track: int) -> Optional[int]:
        for index, group in enumerate(self._groups):
            if track in group:
                return index
        return None

    def suppresses(self, a: int, b: int, gap: float) -> bool:
        """Record the pair when tangled; True when the swap is muted."""
        ga, gb = self._find(a), self._find(b)
        if gap < _TANGLE_CORE:
            if ga is None and gb is None:
                self._groups.append({a, b})
            elif ga is None and gb is not None:
                self._groups[gb].add(a)
            elif gb is None and ga is not None:
                self._groups[ga].add(b)
            elif ga is not None and gb is not None and ga != gb:
                self._groups[ga] |= self._groups[gb]
                del self._groups[gb]
            return True
        return ga is not None and ga == gb and gap < _TANGLE_RELEASE


def _is_cut_rotation(old: Sequence[int], new: Sequence[int]) -> bool:
    """True when the orders differ by one track crossing the sweep cut.

    The sweep window opens at the anchor's angle, so a track crossing
    that ray jumps between the slot beside the anchor and the last slot
    while every other track keeps its cyclic position.  Such a crossing
    is a relabeling of the cyclic order, not a braiding event, and the
    two crossings of one excursion cancel exactly.  With fewer than
    three tracks beside the anchor the pattern is indistinguishable
    from an ordinary swap, so it is never absorbed.
    """
    if len(old) != len(new) or len(old) < 4 or old[0] != new[0]:
        return False
    body, shifted = list(old[1:]), list(new[1:])
    return shifted == body[1:] + body[:1] or shifted == body[-1:] + body[:-1]


def transposition_word(trajectories: TrajectorySet) -> MutationWord:
    """A candidate mutation word read off the braiding of the tracks.

    Slots order the finite tracks by the clockwise sweep around the base
    point 0, anchored at the track that starts farthest out.  Moves are
    listed in event order, so the word composes from its right end just
    as the mutation algebra applies it backward along the family.  A
    swap of neighboring slots emits one move at that slot: a left move
    when the track that ends nearer the anchor also passes nearer the
    base point, otherwise a right move — the over/under reading of the
    arc diagrams.  A track arriving from infinity enters at the open end
    of the slot order and walks to its landing slot, one right move per
    slot; a departing track walks out symmetrically with left moves.  A
    track crossing the sweep ray of the anchor merely relabels the
    cyclic order and is absorbed silently, and swaps inside an
    unresolved tangle (tracks closer than the tangle core, until they
    release) are muted, since the matcher carries no braiding
    information through a near-collision.  The result is a proposal to
    be checked with exact mutation identities, never a certificate.
    """
    if not trajectories.positions:
        return MutationWord(())
    first_row = trajectories.positions[0]
    finite0 = [i for i, p in enumerate(first_row) if not p.parked]
    if not finite0:
        raise NumericsError("no finite tracks to order at the first sample")
    anchor = max(finite0, key=lambda i: abs(first_row[i].affine()))
    events: List[MutationMove] = []
    tangles = _TangleLedger()
    slots = _angular_slots(first_row, anchor)
    for k in range(1, len(trajectories.parameters)):
        row = trajectories.positions[k]
        finite = [i for i, p in enumerate(row) if not p.parked]
        if anchor not in finite:
            raise NumericsError("the anchor track left the finite chart")
        new_slots = _angular_slots(row, anchor)
        if new_slots == slots:
            continue
        arrivals = [i for i in new_slots if i not in slots]
        departures = [i for i in slots if i not in new_slots]
        if arrivals and departures:
            raise NumericsError(
                "ambiguous swap: tracks arrived and departed in one step"
            )
        for track in arrivals:
            landing = new_slots.index(track)
            expected = [i for i in new_slots if i != track]
            if expected != slots:
                raise NumericsError(
                    "ambiguous swap: a track arrived while others reordered"
                )
            for slot in range(len(new_slots) - 2, landing - 1, -1):
                events.append(MutationMove("R", slot))
            slots = list(new_slots)
        if arrivals:
            continue
        for track in departures:
            leaving = slots.index(track)
            expected = [i for i in slots if i != track]
            if expected != new_slots:
                raise NumericsError(
                    "ambiguous swap: a track departed while others reordered"
                )
            for slot in range(leaving, len(slots) - 1):
                events.append(MutationMove("L", slot))
            slots = list(new_slots)
        if departures:
            continue
        if _is_cut_rotation(slots, new_slots):
            slots = list(new_slots)
            continue
        # Decompose the reordering into adjacent swaps, innermost first.
        time = trajectories.parameters[k]
        position = {i: row[i].affine() for i in new_slots}
        rank = {track: index for index, track in enumerate(new_slots)}
        work = list(slots)
        rounds = 0
        while work != list(new_slots):
            rounds += 1
            if rounds > len(work) * len(work) + 1:
                raise NumericsError(
                    f"ambiguous swap near time {time:.8f}: the slot order "
                    "changed by more than one adjacent swap"
                )
            for slot in range(len(work) - 1):
                outgoing, incoming = work[slot], work[slot + 1]
                if rank[outgoing] <= rank[incoming]:
                    continue
                gap = abs(position[outgoing] - position[incoming])
                if not tangles.suppresses(outgoing, incoming, gap):
                    r_in = abs(position[incoming])
                    r_out = abs(position[outgoing])
                    if math.isclose(r_in, r_out, rel_tol=1e-9, abs_tol=1e-12):
                        raise NumericsError(
                            f"ambiguous swap near time {time:.8f}: "
                            "equal radii within tolerance"
                        )
                    side = "L" if r_in < r_out else "R"
                    events.append(MutationMove(side, slot))
                work[slot], work[slot + 1] = incoming, outgoing
        slots = list(new_slots)
    return MutationWord(tuple(events))


# ---------------------------------------------------------------------------
# rendering


_WINDOW = 1.3  # viewport padding around the endpoint markers


def _spline_path(points: Sequence[Tuple[float, float]]) -> str:
    """A cubic path through the points (Catmull-Rom converted to Bezier)."""
    if len(points) == 1:
        x, y = points[0]
        return f"M {x:.2f} {y:.2f}"
    parts = [f"M {points[0][0]:.2f} {points[0][1]:.2f}"]
    extended = [points[0], *points, points[-1]]
    for i in range(1, len(extended) - 2):
        p0, p1, p2, p3 = extended[i - 1], extended[i], extended[i + 1], extended[i + 2]
        c1 = (p1[0] + (p2[0] - p0[0]) / 6, p1[1] + (p2[1] - p0[1]) / 6)
        c2 = (p2[0] - (p3[0] - p1[0]) / 6, p2[1] - (p3[1] - p1[1]) / 6)
        parts.append(
            f"C {c1[0]:.2f} {c1[1]:.2f} {c2[0]:.2f} {c2[1]:.2f} "
            f"{p2[0]:.2f} {p2[1]:.2f}"
        )
    return " ".join(parts)


def render_svg(trajectories: TrajectorySet) -> str:
    """A deterministic 800-pixel figure of the finite-chart trajectories.

    The viewport frames the endpoint markers with padding ``_WINDOW``;
    excursions toward infinity run off the canvas.  Tracks are drawn as grey
    cubic splines, the first sample's positions as blue markers and the
    last sample's as red ones, and the axes cross at the base point.
    """
    size = 800
    markers: List[Tuple[complex, str]] = []
    if trajectories.positions:
        for point in trajectories.positions[0]:
            if not point.parked:
                markers.append((point.affine(), "#1f77b4"))
        for point in trajectories.positions[-1]:
            if not point.parked:
                markers.append((point.affine(), "#d62728"))
    if markers:
        extent = max(
            max(abs(z.real) for z, _ in markers),
            max(abs(z.imag) for z, _ in markers),
        )
        half = _WINDOW * max(extent, 1e-9)
    else:
        half = 1.0
    scale = size / (2 * half)

    def place(z: complex) -> Tuple[float, float]:
        return ((z.real + half) * scale, (half - z.imag) * scale)

    parts = svg_preamble(size) + [
        f'<line x1="0" y1="{size / 2:.2f}" x2="{size}" y2="{size / 2:.2f}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
        f'<line x1="{size / 2:.2f}" y1="0" x2="{size / 2:.2f}" y2="{size}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for index in range(trajectories.track_count):
        run: List[Tuple[float, float]] = []
        runs: List[List[Tuple[float, float]]] = []
        for point in trajectories.track(index):
            if point.parked:
                if run:
                    runs.append(run)
                    run = []
                continue
            run.append(place(point.affine()))
        if run:
            runs.append(run)
        for segment in runs:
            parts.append(
                f'<path d="{_spline_path(segment)}" fill="none" '
                'stroke="#666666" stroke-width="1.2"/>'
            )
    for z, color in markers:
        x, y = place(z)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
