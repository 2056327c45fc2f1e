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
the invariant by convolution.  One function, ``_samples``, solves every
sample: it forms the invariants of an array of times together and finds
their roots by one batched Aberth run per trimmed degree, for the grid
in blocks and for the start and each bisection midpoint as a batch of
one.  Each sample is a ``_Row`` of per-track arrays (finite-chart
position, homogeneous coordinates and pairwise chordal distances), so
nothing is recomputed for the next interval; ``ProjectivePoint`` rows, the
only ones that carry charts, are built once, for the returned
``TrajectorySet``.  Every interval, on the grid or between bisection
midpoints, is decided by one rule: it is accepted when each track's
nearest new position is unique and taken by no other track and neither
refinement trigger fires, and bisected otherwise.  A block's grid
intervals are decided by that rule in one array pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._record import Record
from .exactpoly import UniPoly
from .pathnum import (
    _MAX_ITERATIONS,
    _TRIM_TOL,
    CPoly,
    NumericsError,
    batch_roots,
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


class ProjectivePoint(Record):
    """A point of the projective line in one of two affine charts."""

    chart: str  # FINITE or INFINITE
    coordinate: complex  # position in the named chart

    # Written out because a sweep builds thousands of points, and the generic
    # record __init__ followed by a __post_init__ takes about twice as long.
    def __init__(self, chart: str, coordinate: complex) -> None:
        if chart not in (FINITE, INFINITE):
            raise ValueError(f"unknown chart {chart!r}")
        if chart == FINITE and abs(coordinate) > 1.0 + 1e-12:
            raise ValueError("finite-chart coordinate exceeds the chart bound")
        state = self.__dict__
        state["chart"] = chart
        state["coordinate"] = coordinate

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


class ComplexModel(Record):
    """Complex-coefficient fibration data ``y^2 = x^3 + a(t) x + b(t)``.

    ``a`` and ``b`` are ascending coefficient rows in the base parameter
    (the last axis); trailing entries may be zero.  A model of many times
    stacks its rows along leading axes.
    """

    a: np.ndarray  # coefficient of x
    b: np.ndarray  # constant coefficient

    # Arrays have no exact equality, so a model is equal only to itself.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


class FamilySpec(Record):
    """Endpoint models of one interpolation family.

    ``rows``, set by ``__post_init__`` and outside equality, hashing and
    repr, holds the float coefficient rows a_0, a_0 + a_1, b_0 and b_0 + b_1
    of the start (0) and end (1) models, converted once for all the times
    at which ``family_at`` blends them.
    """

    start: WeierstrassModel
    end: WeierstrassModel

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
# Most samples one sweep solves: about 10x the most (403, `--d 2` at epsilon
# 10^-0.9) of any `interpolate` call that exits 0 at 181 log-spaced epsilons from
# 10^-3 to 10^6, at 10^k (k = -12, -10, ..., 12) and at eight more.
_MAX_SWEEP_SAMPLES = 4000
# Grid samples solved together.  Blocks of 32 to 100 samples run equally
# fast; with 50 the peak resident memory of `interpolate --d 3` and `--d 2`
# is 0.5 MiB above that of one-row solves, against 1 MiB with 100 and 4 MiB
# with all 400 at once.
_GRID_BLOCK = 50


class TrajectorySet(Record):
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
    """One sample of the sweep as arrays indexed by track (or a stack)."""

    affine: np.ndarray  # position in the finite chart, infinite when parked
    homogeneous: np.ndarray  # the (2, tracks) array of ``_homogeneous``
    closeness: np.ndarray  # ``_chordal_matrix`` of the row with itself

    def points(self, order: np.ndarray) -> Tuple[ProjectivePoint, ...]:
        """The row, tracks listed in ``order``, as ``ProjectivePoint`` values."""
        return tuple(map(ProjectivePoint.from_affine, self.affine[order].tolist()))

    def take(self, order: np.ndarray) -> "_Row":
        """The same positions with the tracks listed in ``order`` (per sample)."""
        order, along = np.asarray(order), np.take_along_axis
        rows, columns = order[..., :, None], order[..., None, :]
        return _Row(
            along(self.affine, order, -1),
            along(self.homogeneous, columns, -1),
            along(along(self.closeness, rows, -2), columns, -1),
        )


def _stack(*rows: _Row) -> _Row:
    """The rows stacked along a new leading axis."""
    return _Row(*map(np.stack, zip(*rows)))


def _rows(affine: np.ndarray) -> List[_Row]:
    """The sweep rows of the finite-chart positions in the rows of
    ``affine``; an infinite position is parked at the point at infinity."""
    finite = np.abs(affine) <= 1.0
    coordinate = np.divide(1, affine, out=affine.copy(), where=~finite)
    homogeneous = _homogeneous(coordinate, finite)
    closeness = _chordal_matrix(homogeneous, homogeneous)
    return list(map(_Row, affine, homogeneous, closeness))


def _samples(
    spec: FamilySpec, times: np.ndarray, width: int, tracks: int
) -> List[Union[_Row, str]]:
    """The sweep row of each of ``times``, or the reason it is refused.

    The invariants of all the times are formed together and grouped by
    their degree once trimmed (leading coefficients at most ``_TRIM_TOL``
    of the largest dropped); each group is solved by one ``batch_roots``
    run, and the rows are built together.  A row holds ``tracks`` points:
    the roots, then the point at infinity.  A time is refused, in this
    order, when its invariant has a coefficient beyond the float range,
    has trimmed degree below 1 or a constant term at most 1e-12 of its
    largest coefficient, when its sphere degree is not ``width``, when it
    has more than ``tracks`` roots, and when the batch cannot certify its
    roots.
    """
    model = family_at(spec, times)
    invariant = model.invariant_rows()
    magnitude = np.abs(invariant)
    tallest = magnitude.max(axis=1)
    trimmed = np.where(magnitude > _TRIM_TOL * tallest[:, None], invariant, 0)
    degree = _degree(trimmed)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = magnitude[:, 0] / tallest
    refusals = (
        (~np.isfinite(invariant).all(axis=1),
         "a coefficient exceeds the float range at time {s}"),
        (degree < 1, "the invariant degenerates at time {s}"),
        (~(ratio > 1e-12), "the invariant's constant term is {ratio:.3g} of its "
                           "largest coefficient, at most 1e-12, at time {s}"),
        (model.sphere_degree() != width, "track count changed between samples"),
        (degree > tracks, "track count changed: {n} finite roots at time {s}, "
                          f"more than the {tracks} of the end model"),
    )
    reason = np.select([failed for failed, _ in refusals], range(1, 6))
    affine = np.full((len(times), tracks), math.inf, dtype=complex)
    for n in sorted(set(degree[reason == 0].tolist())):
        members = np.flatnonzero((reason == 0) & (degree == n))
        affine[members, :n], certified = batch_roots(invariant[members, : n + 1])
        reason[members[~certified]] = 6
    texts = [text for _, text in refusals] + [
        f"root iteration failed to converge in {_MAX_ITERATIONS} steps at time {{s}}"
    ]
    rows = iter(_rows(affine[reason == 0]))
    return [
        texts[why - 1].format(s=s, ratio=r, n=n) if why else next(rows)
        for s, why, r, n in zip(times.tolist(), reason.tolist(), ratio.tolist(),
                                degree.tolist())
    ]


def _interval_verdict(before: _Row, after: _Row, motion: np.ndarray) -> np.ndarray:
    """For each interval of a stack, the reason it needs refinement ("motion"
    or "proximity", the two triggers of ``sweep``), or "".

    ``after`` is in the track order of ``before``; ``motion`` holds each step.
    """
    now, was = after.closeness, before.closeness
    flags = [
        motion.max(axis=-1) > MAX_MOTION,
        ((now < PROXIMITY) & (now < was)).any(axis=(-2, -1)),
    ]
    return np.select(flags, ["motion", "proximity"], "")


def _certified_matches(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The column at each row's minimum, for each cost matrix of a stack, and
    whether they certify the assignment: each row must attain its minimum at
    exactly one column, and no column be taken twice.  The total is then the
    sum of the row minima, below that of every other assignment."""
    hits = cost == cost.min(axis=-1, keepdims=True)
    columns = np.argmax(hits, axis=-1)
    distinct = (np.sort(columns, axis=-1) == np.arange(cost.shape[-1])).all(axis=-1)
    return columns, (hits.sum(axis=-1) == 1).all(axis=-1) & distinct


def _decided(before: _Row, after: _Row) -> Tuple[np.ndarray, ...]:
    """The sweep's one interval rule, for each interval of a stack: the
    columns of ``after`` that continue the rows of ``before``, each row's
    chordal step, and the reason to bisect the interval ("uncertified",
    "motion" or "proximity"), or "" when the interval is accepted."""
    cost = _chordal_matrix(before.homogeneous, after.homogeneous)
    columns, certified = _certified_matches(cost)
    motion = np.take_along_axis(cost, columns[..., None], -1)[..., 0]
    verdicts = _interval_verdict(before, after.take(columns), motion)
    return columns, motion, np.where(certified, verdicts, "uncertified")


def _settled(samples: Sequence[Union[_Row, str]]) -> List[Optional[np.ndarray]]:
    """The array pass: for each interval between consecutive ``samples``, its
    columns if ``_decided`` accepts it, else None.  A refused sample leaves
    every interval to the loop, which stops there."""
    if any(isinstance(sample, str) for sample in samples):
        return [None] * (len(samples) - 1)
    columns, _, verdicts = _decided(_stack(*samples[:-1]), _stack(*samples[1:]))
    return [c if not v else None for c, v in zip(columns, verdicts)]


def sweep(spec: FamilySpec) -> TrajectorySet:
    """Track all critical values of the family across the interval.

    Every sample is solved by ``_samples``, and each once: the two ends
    first, together, so that a refused end model raises ``NumericsError``
    before any other work; then the grid of ``SAMPLES`` equal intervals in
    blocks of ``_GRID_BLOCK`` times (the last block ends on the solved end);
    then each bisection midpoint alone, kept with its time until the sweep
    accepts it.  A refused grid sample or midpoint raises ``NumericsError``
    with its reason when the sweep reaches it.

    The sweep follows as many tracks as the end model has roots, and a
    sample with more roots is refused.  A track that arrives from infinity
    starts as the point at infinity, matched like any other point; the
    other points at infinity of the sphere stay parked and take no part.
    Every interval is decided by one rule, ``_decided``: it is accepted
    when each track's nearest new position (in chordal distance) is unique
    and taken by no other track (``_certified_matches``), no track moves
    more than ``MAX_MOTION`` and no pair closes in below ``PROXIMITY``.
    Any other interval is bisected; at ``WIDTH_FLOOR`` it raises
    ``NumericsError`` with the reason, and a midpoint past
    ``_MAX_SWEEP_SAMPLES`` solved samples raises one that names the time
    reached.  Grid intervals are decided a block at a time by the array
    pass ``_settled``, the others one at a time.

    Rows list every point of the sphere: tracks that start finite keep
    their numbers, the arriving track takes the highest, and the parked
    points the numbers in between.  Chart switches are read off the
    accepted samples.
    """
    width = int(family_at(spec, 0.0).sphere_degree())

    def solved(sample: Union[_Row, str]) -> _Row:
        if isinstance(sample, str):
            raise NumericsError(sample)
        return sample

    start, end = map(solved, _samples(spec, np.array([0.0, 1.0]), width, width))
    finite, tracks = (int(np.isfinite(row.affine).sum()) for row in (start, end))
    if finite > tracks:
        raise NumericsError(f"track count changed: {finite} finite roots at time "
                            f"0.0, more than the {tracks} of the end model")
    start, end = (row.take(np.arange(tracks)) for row in (start, end))
    # (time, sample as solved, the row of it that each track holds)
    accepted = [(0.0, start, np.arange(tracks))]
    count = 2  # samples solved so far
    for first in range(1, SAMPLES + 1, _GRID_BLOCK):
        times = np.arange(first, min(first + _GRID_BLOCK, SAMPLES + 1)) / SAMPLES
        block = _samples(spec, times[times < 1.0], width, tracks)
        count += len(block)
        block += [end] * (len(times) - len(block))  # the end closes the last block
        settled = _settled([accepted[-1][1], *block])
        for grid_time, grid_row, columns in zip(times.tolist(), block, settled):
            if columns is not None:
                accepted.append((grid_time, grid_row, columns[accepted[-1][2]]))
                continue
            # the samples left in this interval, each with its time, next one last
            pending = [(grid_time, solved(grid_row))]
            while pending:
                target, fresh = pending[-1]
                here, row, order = accepted[-1]
                (columns,), (motion,), (verdict,) = _decided(_stack(row), _stack(fresh))
                if not verdict:
                    accepted.append((target, fresh, columns[order]))
                    pending.pop()
                    continue
                if target - here <= WIDTH_FLOOR:
                    track = int(np.argmax(motion[order]))  # the one that moved most
                    step = chordal(*row.points(order[[track]]),
                                   *fresh.points(columns[order][[track]]))
                    label = track + (width - tracks) * (track >= finite)
                    reason = {
                        "uncertified": "no track assignment is certified",
                        "motion": f"track {label} moved {step:.3g}",
                        "proximity": f"two tracks closed in below {PROXIMITY}",
                    }[verdict]
                    raise NumericsError(
                        f"unresolved track crossing between times {here:.8f} and "
                        f"{target:.8f}; {reason} at the width floor"
                    )
                if count >= _MAX_SWEEP_SAMPLES:
                    raise NumericsError(f"the sweep solved {count} samples, its "
                                        f"budget, and reached time {here:.8f}")
                count += 1
                midpoint = here + (target - here) / 2
                (sample,) = _samples(spec, np.array([midpoint]), width, tracks)
                pending.append((midpoint, solved(sample)))
    times = tuple(time for time, _, _ in accepted)
    parked = (ProjectivePoint(INFINITE, 0j),) * (width - tracks)
    positions = tuple(
        points[:finite] + parked + points[finite:]
        for points in (row.points(order) for _, row, order in accepted)
    )
    return TrajectorySet(times, positions, chart_switches=tuple(
        (index, time)
        for before, after, time in zip(positions, positions[1:], times[1:])
        for index, (p, q) in enumerate(zip(before, after)) if p.chart != q.chart
    ))


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
    cyclic order and is absorbed silently.  The result is a proposal to
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
