"""Interpolation families between catalog fibrations.

For two perturbed catalog models the family blends the fibration
polynomials through complex coefficients, tracks every critical value on
the projective line (an escape to infinity is an ordinary chart switch),
renders the trajectory figures, and proposes a mutation word from the
braiding of the tracks around the base point.  The proposed word is a
candidate only: exact validation goes through the pseudolattice layer.

The sweep runs on arrays.  A ``FamilySpec`` converts its endpoint
coefficients to float rows once, ``family_at`` blends those rows (at one
time or at an array of times), and ``ComplexModel.invariant_rows`` forms
the invariant by convolution.  The invariants of all grid samples are
formed in blocks and their roots found by one batched Aberth run per
block and trimmed degree; only the bisection midpoints, and any grid
sample the batch leaves out, are solved one by one, warm from the last
accepted row.
Each sample is a ``_Row`` of per-track arrays (finite-chart position,
chart coordinate, finite-chart mask, homogeneous coordinates and pairwise
chordal distances), so nothing is recomputed for the next interval;
``ProjectivePoint`` rows are built once, for the returned
``TrajectorySet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exactpoly import UniPoly
from .pathnum import (
    _TRIM_TOL,
    CPoly,
    NumericsError,
    all_roots,
    batch_roots,
    match_tracks,
)
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


def _homogeneous(coordinate: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """The homogeneous coordinates (a : b) that ``chordal`` uses, as the
    columns of a ``(..., 2, points)`` array: (z : 1) in the finite chart and
    (1 : w) in the chart at infinity."""
    return np.stack(
        [np.where(finite, coordinate, 1), np.where(finite, 1, coordinate)], axis=-2
    )


def _chordal_matrix(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``chordal`` from every point of ``rows`` to every one of ``columns``,
    both given by their ``_homogeneous`` coordinates (and the same leading
    axes)."""
    a, b = rows[..., 0, :, None], rows[..., 1, :, None]
    c, d = columns[..., 0, None, :], columns[..., 1, None, :]
    cross = np.abs(a * d - b * c)
    norm, other = ((np.abs(points) ** 2).sum(axis=-2) for points in (rows, columns))
    return cross / np.sqrt(norm[..., :, None] * other[..., None, :])


# ---------------------------------------------------------------------------
# the family


def _degree(coeffs: np.ndarray) -> np.ndarray:
    """Degree of each ascending coefficient row (the last axis), -1 for a
    zero row."""
    nonzero = coeffs != 0
    top = coeffs.shape[-1] - 1 - np.argmax(nonzero[..., ::-1], axis=-1)
    return np.where(nonzero.any(axis=-1), top, -1)


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The product of ascending coefficient rows, along the last axis."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,), dtype=complex)
    for i in range(p.shape[-1]):
        out[..., i : i + q.shape[-1]] += p[..., i, None] * q
    return out


@dataclass(frozen=True, eq=False)
class ComplexModel:
    """Complex-coefficient fibration data ``y^2 = x^3 + a(t) x + b(t)``.

    ``a`` and ``b`` are ascending coefficient rows in the base parameter
    (the last axis); trailing entries may be zero.  A model of many times
    stacks its rows along leading axes.
    """

    a: np.ndarray  # coefficient of x
    b: np.ndarray  # constant coefficient

    def invariant_rows(self) -> np.ndarray:
        """The coefficient rows of the singular-fiber invariant 4a^3 + 27b^2."""
        with np.errstate(over="ignore", invalid="ignore"):
            cube = 4 * _product(_product(self.a, self.a), self.a)
            square = 27 * _product(self.b, self.b)
            width = max(cube.shape[-1], square.shape[-1])
            total = np.zeros(cube.shape[:-1] + (width,), dtype=complex)
            total[..., : cube.shape[-1]] += cube
            total[..., : square.shape[-1]] += square
        return total

    def invariant_scale(self) -> CPoly:
        """The invariant of a model of one time, as a polynomial."""
        return CPoly(tuple(self.invariant_rows().tolist()))

    def sphere_degree(self) -> np.ndarray:
        """Upper bound for the invariant degree, per time; the root count on
        the sphere."""
        return np.maximum(3 * _degree(self.a), 2 * _degree(self.b))


def _float_rows(*polys: UniPoly) -> np.ndarray:
    """The coefficients of ``polys``, ascending, as the rows of one float
    matrix; a coefficient beyond the float range raises ``NumericsError``."""
    coeffs = [CPoly.from_unipoly(p).coeffs for p in polys]
    rows = np.zeros((len(polys), max(1, *map(len, coeffs))))
    for row, values in zip(rows, coeffs):
        row[: len(values)] = np.real(values)
    return rows


@dataclass(frozen=True)
class FamilySpec:
    """Endpoint models of one interpolation family.

    ``rows`` holds the float coefficient rows a_0, a_0 + a_1, b_0 and
    b_0 + b_1 of the start (0) and end (1) models, converted once for all
    the times at which ``family_at`` blends them.
    """

    start: WeierstrassModel
    end: WeierstrassModel
    rows: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start.var != self.end.var:
            raise ValueError("endpoint models live on different charts")
        a0, a1 = _float_rows(self.start.a, self.end.a)
        b0, b1 = _float_rows(self.start.b, self.end.b)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "rows", (a0, a0 + a1, b0, b0 + b1))

    @classmethod
    def between_degrees(
        cls, d_from: int, d_to: int, epsilon: Fraction = Fraction(1, 100)
    ) -> "FamilySpec":
        return cls(catalog(d_from, epsilon), catalog(d_to, epsilon))


def family_at(spec: FamilySpec, s: "float | np.ndarray") -> ComplexModel:
    """The fibration of the blended family at interpolation time ``s``, or
    at each of an array of times.

    The cubic is the unit-circle blend ``e^{i pi s} p_0 + s (p_0 + p_1)``
    of the endpoint cubics, renormalized to a monic model; at ``s = 0``
    and ``s = 1`` the phase factor is evaluated exactly, so the endpoints
    reproduce the input models without rounding.
    """
    s = np.asarray(s, dtype=float)
    if not ((0.0 <= s) & (s <= 1.0)).all():
        raise ValueError(f"interpolation time {s} outside [0, 1]")
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.where(s == 0.0, 1, np.where(s == 1.0, -1, np.exp(1j * np.pi * s)))
        scale = (phase + 2 * s)[..., None]
        phase, s = phase[..., None], s[..., None]
        a0, a01, b0, b01 = spec.rows
        return ComplexModel(
            scale * (phase * a0 + s * a01), (scale * scale) * (phase * b0 + s * b01)
        )


# ---------------------------------------------------------------------------
# the sweep


SAMPLES = 400  # uniform grid intervals over [0, 1]
PROXIMITY = 1e-3  # chordal distance that triggers refinement
MAX_MOTION = 0.02  # largest accepted chordal step per track
WIDTH_FLOOR = 1e-6  # refinement stops below this interval width
BOUNDARY = 0.9  # chart-boundary annulus is (BOUNDARY, 1/BOUNDARY)
# Grid samples solved together.  Blocks of 32 to 100 samples run equally
# fast; with 50 the peak resident memory of `interpolate --d 3` and `--d 2`
# is 0.5 MiB above that of one-row solves, against 1 MiB with 100 and 4 MiB
# with all 400 at once.
_GRID_BLOCK = 50


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


class _Row(NamedTuple):
    """One sample of the sweep as arrays indexed by track."""

    affine: np.ndarray  # position in the finite chart, infinite when parked
    coordinate: np.ndarray  # position in the track's chart
    finite: np.ndarray  # True where that chart is FINITE
    homogeneous: np.ndarray  # the (2, tracks) array of ``_homogeneous``
    closeness: np.ndarray  # ``_chordal_matrix`` of the row with itself

    def take(self, order: Sequence[int]) -> "_Row":
        """The same positions with the tracks listed in ``order``."""
        return _Row(
            self.affine[order],
            self.coordinate[order],
            self.finite[order],
            self.homogeneous[:, order],
            self.closeness[order][:, order],
        )

    def points(self) -> Tuple[ProjectivePoint, ...]:
        """The row as ``ProjectivePoint`` values, for the result."""
        return tuple(map(ProjectivePoint.from_affine, self.affine.tolist()))


def _rows(affine: np.ndarray) -> List[_Row]:
    """The sweep rows of the finite-chart positions in the rows of
    ``affine``; an infinite position is parked at the point at infinity."""
    # The chart rule of ``ProjectivePoint.from_affine``, with the same
    # ``abs`` (numpy's may differ in the last bit), so that the charts of
    # the result's points agree with ``finite``.
    finite = np.array([abs(z) <= 1.0 for z in affine.ravel().tolist()], dtype=bool)
    finite = finite.reshape(affine.shape)
    coordinate = np.divide(1, affine, out=affine.copy(), where=~finite)
    homogeneous = _homogeneous(coordinate, finite)
    closeness = _chordal_matrix(homogeneous, homogeneous)
    return list(map(_Row, affine, coordinate, finite, homogeneous, closeness))


def _configuration(
    spec: FamilySpec, s: float, previous: Sequence[complex] = ()
) -> _Row:
    """All sphere positions of the invariant roots at time ``s``.

    ``previous``, the finite positions of the configuration at a nearby
    time, warm-starts the root solve (``all_roots`` starts cold when their
    count is not the invariant's degree).
    """
    model = family_at(spec, s)
    bound = int(model.sphere_degree())
    invariant = model.invariant_scale()
    if not np.isfinite(invariant.coeffs).all():
        raise NumericsError(f"a coefficient exceeds the float range at time {s}")
    invariant = invariant.trimmed()
    if invariant.degree < 1:
        raise NumericsError(f"the invariant degenerates at time {s}")
    tallest = max(abs(c) for c in invariant.coeffs)
    if abs(invariant(0j)) <= 1e-12 * tallest:
        raise NumericsError(f"a critical value hits the base point at time {s}")
    roots = all_roots(invariant, start=previous)
    affine = np.array([roots + [math.inf] * (bound - invariant.degree)], dtype=complex)
    return _rows(affine)[0]


def _grid(spec: FamilySpec, width: int) -> Iterator[Tuple[float, Optional[_Row]]]:
    """The grid times k / ``SAMPLES``, k = 1, ..., ``SAMPLES``, in order,
    each with its row, or with None where ``sweep`` is to solve it with
    ``_configuration``.

    The times are solved ``_GRID_BLOCK`` at a time.  The invariants of a
    block are formed together and grouped by their degree once trimmed as
    ``CPoly.trimmed`` trims; each group is solved by one ``batch_roots``
    run, and the rows are built together.  A time gets None when its
    invariant fails one of the checks of ``_configuration`` (a non-finite
    coefficient, a trimmed degree below 1, a root at the base point), when
    its sphere degree is not ``width``, or when the batch cannot certify
    its roots.
    """
    for first in range(1, SAMPLES + 1, _GRID_BLOCK):
        times = np.arange(first, min(first + _GRID_BLOCK, SAMPLES + 1)) / SAMPLES
        model = family_at(spec, times)
        invariant = model.invariant_rows()
        magnitude = np.abs(invariant)
        tallest = magnitude.max(axis=1)
        trimmed = np.where(magnitude > _TRIM_TOL * tallest[:, None], invariant, 0)
        degree = _degree(trimmed)
        solvable = (
            np.isfinite(invariant).all(axis=1)
            & (degree >= 1)
            & (magnitude[:, 0] > 1e-12 * tallest)
            & (model.sphere_degree() == width)
        )
        affine = np.full((len(times), width), math.inf, dtype=complex)
        for n in sorted(set(degree[solvable].tolist())):
            members = np.flatnonzero(solvable & (degree == n))
            affine[members, :n], certified = batch_roots(invariant[members, : n + 1])
            solvable[members[~certified]] = False
        rows = iter(_rows(affine[solvable]))
        for time, solved in zip(times.tolist(), solvable.tolist()):
            yield time, next(rows) if solved else None


def _in_boundary_annulus(coordinate: np.ndarray) -> np.ndarray:
    magnitude = np.abs(coordinate)
    return (BOUNDARY < magnitude) & (magnitude <= 1.0)


def _interval_verdict(before: _Row, after: _Row, motion: np.ndarray) -> Optional[str]:
    """The reason the interval needs refinement, or None to accept.

    ``motion`` holds each track's chordal distance from ``before`` to
    ``after``.
    """
    if motion.max() > MAX_MOTION:
        return "motion"
    parked = np.isinf(before.affine)
    pairs = ~(parked[:, None] & parked)
    now, was = after.closeness, before.closeness
    if (pairs & (now < PROXIMITY) & (now < was)).any():
        return "proximity"
    entering = _in_boundary_annulus(after.coordinate)
    if (entering & ~_in_boundary_annulus(before.coordinate)).any():
        return "boundary"
    return None


def sweep(spec: FamilySpec) -> TrajectorySet:
    """Track all critical values of the family across the interval.

    The grid has ``SAMPLES`` equal intervals, whose samples ``_grid``
    solves in batches; a bisection midpoint, or a grid sample the batch
    leaves out, is solved on its own, warm from the last accepted row.
    Tracks are matched between samples by minimal total chordal motion.
    An interval is bisected, down to ``WIDTH_FLOOR``, when a track moves
    more than ``MAX_MOTION``, a pair closes in below ``PROXIMITY``, or a
    track newly enters the annulus ``BOUNDARY < |z| <= 1`` of its chart.
    A step that still moves tracks too far at the floor is reported as an
    unresolved crossing.

    Rows are kept as arrays (``_Row``), so each sample's homogeneous
    coordinates and pairwise chordal distances are computed once; the
    ``ProjectivePoint`` rows are built only for the result.
    """
    rows = [_configuration(spec, 0.0)]
    tracks = np.arange(len(rows[0].affine))
    parameters = [0.0]
    switches: List[Tuple[int, float]] = []
    for grid_time, grid_row in _grid(spec, len(tracks)):
        pending = [grid_time]  # the times left in this interval, next one last
        while pending:
            target = pending[-1]
            here, last = parameters[-1], rows[-1]
            if target == grid_time and grid_row is not None:
                fresh = grid_row
            else:
                fresh = _configuration(
                    spec, target, last.affine[np.isfinite(last.affine)]
                )
            cost = _chordal_matrix(last.homogeneous, fresh.homogeneous)
            order = list(match_tracks(cost))
            motion = cost[tracks, order]
            matched = fresh.take(order)
            verdict = _interval_verdict(last, matched, motion)
            if verdict is not None and target - here > WIDTH_FLOOR:
                pending.append(here + (target - here) / 2)
                continue
            if verdict == "motion":
                worst = int(np.argmax(motion))
                step = chordal(last.points()[worst], matched.points()[worst])
                raise NumericsError(
                    f"unresolved track crossing between times {here:.8f} and "
                    f"{target:.8f}; track {worst} moved {step:.3g} at the width "
                    "floor"
                )
            switches.extend(
                (int(index), target)
                for index in np.flatnonzero(last.finite != matched.finite)
            )
            parameters.append(target)
            rows.append(matched)
            pending.pop()
    return TrajectorySet(
        parameters=tuple(parameters),
        positions=tuple(row.points() for row in rows),
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
