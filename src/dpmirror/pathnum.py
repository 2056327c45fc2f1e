"""Certified floating-point numerics for the fibration pipeline.

Three kernels:

- complete complex root finding: a numpy Aberth-Ehrlich iteration (Bini
  1996, as in MPSolve) that starts from the circles of the Newton polygon,
  or from the roots of a nearby polynomial when ``batch_roots`` is given
  them, and certifies each root by its componentwise backward error
  |p(z)| / sum_i |c_i| |z|^i, which means the same at every scale of |z|.
  The iteration runs on a batch of polynomials of one degree:
  ``batch_roots`` solves many at once, and ``all_roots`` a batch of one;
- root continuation along polyline paths of a family given by coefficient
  arrays, each track carried by its own tangent-predicted Newton corrector,
  with steps sized by the tangent and accepted by a separation criterion.
  It stops at a certified terminal pair: inclusion discs of radius
  n |p(z)/p'(z)| that are pairwise disjoint, and a disc around the closest
  pair in which Rouche's theorem holds against the coefficient motion over
  the rest of the path (the inclusion and Rouche tests of alpha-theory,
  Blum, Cucker, Shub and Smale 1998, as in the certified univariate
  homotopy tracking of Xu, Burr and Yap, ISSAC 2018).  If the fiber at the
  end of the path is a cubic with a double root, the pair's tracks are the
  ones that make it;
- elliptic integrals ``dx / sqrt(cubic)`` whose endpoints are allowed to
  sit on branch points.

Polynomials are dense ``CPoly`` coefficient tuples.  One Horner pass,
``_horner``, gives p(z), p'(z) and the floored residual
|p(z)| / max(1, sum_i |c_i| |z|^i) that certifies each continuation step;
``CPoly.__call__`` and the Newton corrector read it.  ``CPoly`` has no
arithmetic: ``continue_roots`` evaluates its coefficient arrays, the
fibers, their lam-derivatives and the drift bounds, by the one plain
Horner evaluator ``_polyval``, and the interpolation sweep forms its
invariants by array convolution before ``batch_roots`` solves them.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._record import Record
from .exactpoly import UniPoly

__all__ = [
    "NumericsError",
    "CPoly",
    "PathPolyline",
    "TrackedRoots",
    "all_roots",
    "batch_roots",
    "continue_roots",
    "elliptic_integral",
    "period_lattice",
]


class NumericsError(ValueError):
    """Raised when a numeric kernel cannot certify its result."""


# ---------------------------------------------------------------------------
# dense complex polynomials

# Leading coefficients at most this fraction of the largest are dropped.
_TRIM_TOL = 1e-12


class CPoly(Record):
    """A dense complex polynomial; coefficients ascending, leading nonzero."""

    coeffs: Tuple[complex, ...]

    def __post_init__(self) -> None:
        values = [complex(c) for c in self.coeffs]
        while values and values[-1] == 0:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        if not self.coeffs:
            return 0j
        return self.coeffs[-1]

    @classmethod
    def from_unipoly(cls, p: UniPoly) -> "CPoly":
        coeffs = [0j] * (p.degree() + 1)
        for exp, c in p.terms.items():
            try:
                coeffs[exp] = complex(c)
            except OverflowError as exc:
                raise NumericsError("a coefficient exceeds the float range") from exc
        return cls(tuple(coeffs))

    def __call__(self, z: complex) -> complex:
        return _horner(self.coeffs, z)[0]

    def trimmed(self) -> "CPoly":
        """Drop leading coefficients below ``_TRIM_TOL`` times the largest."""
        if not self.coeffs:
            return self
        cutoff = _TRIM_TOL * max(abs(c) for c in self.coeffs)
        values = list(self.coeffs)
        while values and abs(values[-1]) <= cutoff:
            values.pop()
        return CPoly(tuple(values))


def _horner(
    coeffs: Sequence[complex], z: complex
) -> Tuple[complex, complex, float]:
    """p(z), p'(z) and the residual of ``z``, for ascending ``coeffs``.

    p and p' come from one Horner pass, p' over the coefficients i c_i; the
    residual divides |p(z)| by max(1, sum_i |c_i| |z|^i), summed in
    ascending powers.
    """
    value = slope = 0j
    for i in range(len(coeffs) - 1, -1, -1):
        value = value * z + coeffs[i]
        if i:
            slope = slope * z + i * coeffs[i]
    magnitude = abs(z)
    denom, power = 0.0, 1.0
    for c in coeffs:
        denom += abs(c) * power
        power *= magnitude
    return value, slope, abs(value) / max(1.0, denom)


def _polyval(coeffs: Sequence[complex], x: complex) -> complex:
    """p(x) by Horner's rule, for ascending ``coeffs``, in the arithmetic of
    ``x``: real for a float, complex for a complex."""
    value = x - x  # the zero of x's type, for finite x
    for c in reversed(coeffs):
        value = value * x + c
    return value


# ---------------------------------------------------------------------------
# complete root finding

# Every root, and every continuation step, is certified to this backward error.
_ROOT_TOL = 1e-10
# Most Aberth steps before a run gives up.
_MAX_ITERATIONS = 200
# Angle offset of the starting circles (Bini 1996 uses 0.7).
_START_TWIST = 0.7
# Most Aberth polish steps after the certificate holds.
_POLISH_STEPS = 4


def _newton_polygon_start(coeffs: np.ndarray) -> np.ndarray:
    """Bini's starting points: one circle per edge of the Newton polygon.

    The upper convex hull of the points (i, log|c_i|) has an edge from i to
    j for each group of j - i roots of modulus about (|c_i| / |c_j|)^(1/(j-i));
    that many points go on the circle of that radius, evenly spaced and
    twisted so that no two circles line up.  ``coeffs`` is ascending, with
    nonzero first and last entries.
    """
    n = len(coeffs) - 1
    hull: List[Tuple[int, float]] = []
    for i, c in enumerate(coeffs.tolist()):
        if c == 0:
            continue
        point = (i, math.log(abs(c)))
        while len(hull) >= 2:
            (i0, h0), (i1, h1) = hull[-2], hull[-1]
            if (h1 - h0) * (i - i0) > (point[1] - h0) * (i1 - i0):
                break
            hull.pop()
        hull.append(point)
    points = []
    for (i, hi), (j, hj) in zip(hull, hull[1:]):
        count = j - i
        radius = math.exp((hi - hj) / count)
        points += [
            cmath.rect(radius, 2 * math.pi * (k / count + i / n) + _START_TWIST)
            for k in range(count)
        ]
    return np.array(points)


def _aberth(
    coeffs: np.ndarray, z: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich iteration on a batch of polynomials of degree n.

    ``coeffs`` holds their ascending coefficients, one polynomial per row
    (shape ``(rows, n + 1)``), and ``z`` the starting points (shape
    ``(rows, n)``): row k of ``z`` starts the polynomial of row k of
    ``coeffs``.  Returns the roots and whether (per row) every
    componentwise backward error fell below ``tol`` within
    ``_MAX_ITERATIONS`` steps; a row where it did not holds no roots.

    Each step evaluates p, p' and sum_i |c_i| |z|^i at all iterates at once
    and corrects each by p / (p' - p sum_{j != k} 1 / (z_k - z_j)).  An
    iterate stops moving once its own certificate holds, and the others of
    its row keep being repelled by it; a row stops once all of its iterates
    hold.  Then up to ``_POLISH_STEPS`` steps polish the iterates above the
    rounding floor; a step is kept only where it lowers the backward error
    and stays within half the distance to the nearest other iterate of its
    row, so the polished points lie in disjoint discs and never merge.
    Rows never mix: each has its own underflow charge, convergence mask and
    polish discs, and gets the answer it gets alone.
    """
    n = z.shape[-1]
    powers = np.arange(n + 1)
    off_diagonal = ~np.eye(n, dtype=bool)
    magnitudes = np.abs(coeffs)[..., None]
    with np.errstate(all="ignore"):
        # columns: the coefficients of p, and those of p' (shifted down a power)
        weights = np.zeros(coeffs.shape + (2,), dtype=complex)
        weights[..., 0] = coeffs
        weights[..., :-1, 1] = powers[1:] * coeffs[..., 1:]
        # Rounding into the subnormal range is absolute, not relative: charge
        # each power, product and sum the most it can lose there.
        underflow = (
            4 * (n + 1) ** 2 * np.fmax(1.0, magnitudes.max(axis=-2))
            * np.finfo(float).smallest_subnormal
        )

        def evaluate(
            rows: Tuple[np.ndarray, ...], z: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """p(z), p'(z) and the backward error |p(z)| / sum_i |c_i| |z|^i
            at the iterates ``z`` of the rows with the weights, magnitudes
            and underflow charges ``rows``."""
            weights, magnitudes, underflow = rows
            table = z[..., None] ** powers
            both = table @ weights
            value = both[..., 0]
            scale = (np.abs(table) @ magnitudes)[..., 0]
            return value, both[..., 1], (np.abs(value) + underflow) / scale

        reciprocals = np.zeros(z.shape + (n,), dtype=complex)  # zero diagonal

        def step(z: np.ndarray, value: np.ndarray, slope: np.ndarray) -> np.ndarray:
            inverse = reciprocals[: len(z)]
            np.divide(1.0, z[..., :, None] - z[..., None, :], out=inverse,
                      where=off_diagonal)
            return z - value / (slope - value * inverse.sum(axis=-1))

        everyone = (weights, magnitudes, underflow)
        z = np.array(z, dtype=complex)
        value, slope, error = evaluate(everyone, z)
        for _ in range(_MAX_ITERATIONS):
            active = ~(error < tol)  # NaN counts as not converged
            if not active.any():
                break
            if (busy := active.any(axis=1)).all():
                z = np.where(active, step(z, value, slope), z)
                value, slope, error = evaluate(everyone, z)
                continue
            # Step only the rows still iterating; the others keep their roots.
            rows = np.flatnonzero(busy)
            moved = step(z[rows], value[rows], slope[rows])
            moved = np.where(active[rows], moved, z[rows])
            z[rows] = moved
            value[rows], slope[rows], error[rows] = evaluate(
                tuple(x[rows] for x in everyone), moved
            )
        converged = ~active.any(axis=-1)
        center = z
        gaps = np.abs(center[..., :, None] - center[..., None, :])
        reach = np.where(off_diagonal, gaps, np.inf).min(axis=-1) / 2
        polished = center
        floor = np.finfo(float).eps
        for _ in range(_POLISH_STEPS):
            rough = converged[..., None] & (error > floor)
            if not rough.any():
                break
            moved = step(polished, value, slope)
            new_value, new_slope, new_error = evaluate(everyone, moved)
            better = rough & (new_error < error) & (np.abs(moved - center) < reach)
            if not better.any():
                break
            polished = np.where(better, moved, polished)
            value = np.where(better, new_value, value)
            slope = np.where(better, new_slope, slope)
            error = np.where(better, new_error, error)
    return polished, converged


def all_roots(p: CPoly) -> List[complex]:
    """All roots of ``p`` by Aberth-Ehrlich iteration (Bini 1996).

    Returns exactly ``degree`` roots sorted by (re, im).  Each one is
    certified by its componentwise backward error
    |p(z)| / sum_i |c_i| |z|^i < ``_ROOT_TOL``: it is an exact root of a
    polynomial whose coefficients are within relative ``_ROOT_TOL`` of p's,
    at every scale of |z|.  A root of multiplicity m comes out as m nearby
    roots, spread about _ROOT_TOL**(1/m) times its modulus.

    Exact zero coefficients at the bottom are exact zero roots and are
    returned as such.  The others are those of the rest of p, solved by
    ``batch_roots`` as a batch of one: they start from the circles of the
    Newton polygon of |c_i|, which put roots of every modulus near their
    own scale.  A run that does not meet the certificate within
    ``_MAX_ITERATIONS`` steps raises ``NumericsError``.  So may a polynomial
    with a nonzero coefficient below ``np.finfo(float).tiny``: rounding in
    the subnormal range is absolute, so a root there may have no double
    that meets the certificate.
    """
    n = p.degree
    if n < 1:
        raise NumericsError("root finding needs degree at least 1")
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    roots = [0j] * zeros
    if zeros < n:
        found, certified = batch_roots(np.array([p.coeffs[zeros:]], dtype=complex))
        if not certified[0]:
            raise NumericsError(
                f"root iteration failed to converge in {_MAX_ITERATIONS} steps"
            )
        roots += found[0].tolist()
    return sorted(roots, key=lambda w: (w.real, w.imag))


def batch_roots(
    rows: np.ndarray, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """All roots of many polynomials of one degree n >= 1 in one batched run.

    ``rows`` holds their coefficients, ascending, one polynomial per row,
    each with a nonzero constant and leading coefficient.  Every row starts
    from the n distinct points of ``start`` when they are given (the roots
    of a nearby polynomial, a warm start), and otherwise from the circles
    of its Newton polygon; the iteration, its certificate and its polish
    are the same either way.  ``all_roots`` is this run on a batch of one.
    Returns the roots as a ``(rows, n)`` array, each row sorted by (re, im),
    and the mask of the rows whose roots all meet the certificate of
    ``all_roots``; the entries of the other rows are not roots.
    """
    if start is None:
        starts = np.array([_newton_polygon_start(row) for row in rows])
    else:
        starts = np.broadcast_to(start, (len(rows), rows.shape[1] - 1))
    roots, certified = _aberth(rows, starts, _ROOT_TOL)
    order = np.lexsort((roots.imag, roots.real), axis=1)
    return np.take_along_axis(roots, order, axis=1), certified


# ---------------------------------------------------------------------------
# polyline paths


class PathPolyline(Record):
    """An ordered polyline in the complex plane, parameterized by arclength."""

    nodes: Tuple[complex, ...]

    def __post_init__(self) -> None:
        values = tuple(complex(z) for z in self.nodes)
        object.__setattr__(self, "nodes", values)
        if len(values) < 2:
            raise NumericsError("a path needs at least two nodes")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise NumericsError("consecutive path nodes must be distinct")

    def length(self) -> float:
        return sum(abs(b - a) for a, b in zip(self.nodes, self.nodes[1:]))

    def point(self, t: float) -> complex:
        """The point at arclength fraction ``t`` in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise NumericsError(f"path parameter {t} outside [0, 1]")
        target = t * self.length()
        for a, b in zip(self.nodes, self.nodes[1:]):
            step = abs(b - a)
            if target <= step or b == self.nodes[-1]:
                return a + (b - a) * min(target / step, 1.0)
            target -= step
        return self.nodes[-1]


# ---------------------------------------------------------------------------
# root continuation

# Most Newton steps of one corrector.
_NEWTON_STEPS = 30
# First and largest continuation step, as a fraction of the path.
_INITIAL_STEP = 0.125
# Step floor; a step rejected below it means the path is singular there.
_MIN_STEP = 1e-8
# A step moves no root, by the tangent, more than the separation over this.
_PREDICTED_SHARE = 4.5
# Most evaluations of the family in one continuation: 28x the most (71)
# that any continuation of `cycles` makes over homology seeds 0-4, and 22x
# the most (89) in the runs that finish over epsilon from 10^-12 to 10^6
# at d = 1, 2, 3.
_MAX_FAMILY_EVALUATIONS = 2000


class TrackedRoots(Record):
    """Aligned root trajectories along a path, with per-step certificates."""

    parameters: Tuple[float, ...]  # accepted path parameters, from 0
    roots: Tuple[Tuple[complex, ...], ...]  # track-aligned roots per step
    residuals: Tuple[Tuple[float, ...], ...]  # backward-error residuals
    # the certified terminal pair (i < j), or None when the path ended first
    pair: Optional[Tuple[int, int]]

    def __post_init__(self) -> None:
        if not len(self.roots) == len(self.residuals) == len(self.parameters):
            raise NumericsError("per-step records have inconsistent lengths")


def _newton(coeffs: Sequence[complex], start: complex) -> Tuple[complex, float]:
    """The Newton iterate of least residual from ``start``, with its residual.

    ``coeffs`` are the polynomial's, ascending.  Stops after
    ``_NEWTON_STEPS`` steps or once the residual falls below
    ``_ROOT_TOL / 100``.
    """
    value, slope, res = _horner(coeffs, start)
    current = best = start
    best_res = res
    for _ in range(_NEWTON_STEPS):
        if slope == 0:
            break
        current = current - value / slope
        value, slope, res = _horner(coeffs, current)
        if res < best_res:
            best, best_res = current, res
        if res < _ROOT_TOL * 1e-2:
            break
    return best, best_res


def _min_pairwise(values: Sequence[complex]) -> float:
    if len(values) < 2:
        return math.inf
    return min(
        abs(values[i] - values[j])
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


def _terminal_pair(
    coeffs: Sequence[complex],
    roots: Sequence[complex],
    punctures: Sequence[complex],
    drift: Sequence[float],
) -> Optional[Tuple[int, int]]:
    """The two tracks certified to stay in one disc to the end, or None.

    ``coeffs`` are those of p, of degree n, ascending, and ``roots`` one
    approximation z of each of its roots.  ``drift[k]`` bounds how far the
    coefficient of x^k moves over the rest of the path.  The certificate:

    - each z has an inclusion disc of radius n |p(z) / p'(z)|, which holds
      a root of p (rounding in p(z) and p'(z) is charged to the radius), and
      these discs are pairwise disjoint, so each holds exactly one;
    - for the closest pair (i, j), a disc D around their midpoint holds the
      discs of i and j and meets no other disc.  By Rouche's theorem every
      fiber on the rest of the path then has exactly two roots in D, those
      of tracks i and j, as long as sum_k drift[k] |x|^k stays below a
      lower bound of |p| on the boundary of D.  The bound is |lead| times
      the product of the distances from the boundary to the discs;
    - D holds none of ``punctures``, the roots of the fiber at the start.
      A vanishing arc that turns round inside D is then homotopic to one
      that runs the tracks to the end.

    D's radius is the middle of the interval the second and third
    conditions leave.
    """
    n = len(coeffs) - 1
    if n < 2:
        return None
    slack = 2 * n * sys.float_info.epsilon
    radii = []
    for z in roots:
        # p, p' and the sums sum_k |c_k| |z|^k and sum_k k |c_k| |z|^(k-1)
        # that bound their rounding, all by one Horner pass
        size = abs(z)
        value = slope = 0j
        bound = slope_bound = 0.0
        for c in reversed(coeffs):
            slope = slope * z + value
            value = value * z + c
            slope_bound = slope_bound * size + bound
            bound = bound * size + abs(c)
        denominator = abs(slope) - slack * slope_bound
        if not denominator > 0:
            return None
        radii.append(n * (abs(value) + slack * bound) / denominator)
    pairs = sorted(
        (abs(roots[i] - roots[j]), i, j) for i in range(n) for j in range(i + 1, n)
    )
    if any(not gap > radii[i] + radii[j] for gap, i, j in pairs):
        return None
    gap, i, j = pairs[0]
    mid = (roots[i] + roots[j]) / 2
    others = [k for k in range(n) if k not in (i, j)]
    inner = gap / 2 + max(radii[i], radii[j])
    outer = min(
        [abs(roots[k] - mid) - radii[k] for k in others]
        + [abs(w - mid) for w in punctures]
    )
    if not outer > inner:
        return None
    radius = (inner + outer) / 2
    lower = abs(coeffs[-1]) * (1 - slack)
    lower *= (radius - gap / 2 - radii[i]) * (radius - gap / 2 - radii[j])
    for k in others:
        lower *= abs(roots[k] - mid) - radii[k] - radius
    reach = abs(mid) + radius
    motion = sum(d * reach**k for k, d in enumerate(drift)) * (1 + slack)
    return (i, j) if motion < lower else None


def continue_roots(
    family: Sequence[Sequence[complex]],
    path: PathPolyline,
    roots: Sequence[complex],
) -> TrackedRoots:
    """Continue the roots of p_lam along ``path`` until a pair is certified.

    ``family[k]`` holds the coefficients, ascending in lam, of the power x^k
    of p_lam(x); each fiber is evaluated from them by Horner's rule.  The
    tracks start at ``roots``, the roots of the fiber at ``path.point(0.0)``
    as ``all_roots`` returns them.

    Predictor-corrector continuation: each track advances by Newton
    correction from the tangent prediction
    z - (d_lam p)(z) / p'(z) (lam_next - lam), so track k stays track k.  A
    step moves no root, by the tangent, more than the roots' separation
    over ``_PREDICTED_SHARE``; it is at most ``_INITIAL_STEP`` of the path
    and 1.6 times the last step, at least ``_MIN_STEP``, and halves when
    rejected.  A step is accepted only when every corrected root has a
    residual below ``_ROOT_TOL``, no two corrected roots come within
    max(1e-13, 1e-6 separation) of each other (a lone track has no pair to
    test), and the previous roots' minimal pairwise distance exceeds three
    times the largest displacement.

    After every accepted step ``_terminal_pair`` tests for a certified
    terminal pair, bounding the motion of the coefficient of x^k over the
    rest of the path by its length times sum_m m |c_km| R^(m - 1), with R
    the largest modulus of the rest of the polyline.  Once it holds,
    tracking stops and ``pair`` records tracks (i, j).  The contract: every
    fiber from there to the end of the path has exactly two roots in the
    certified disc, the continuations of tracks i and j, and the disc holds
    no root of the start fiber.  So if the fiber at the end has a double
    root, and there are at most three tracks, that double root comes from
    tracks i and j.  A path that reaches its end with no certified pair
    returns ``pair`` None.

    A step rejected below ``_MIN_STEP`` raises ``NumericsError``, wherever
    it happens, and so do a change of degree and more than
    ``_MAX_FAMILY_EVALUATIONS`` evaluations of the family.
    """
    rows = [tuple(complex(c) for c in row) for row in family]
    rates = [[m * abs(c) for m, c in enumerate(row)][1:] for row in rows]
    derivatives = [[m * c for m, c in enumerate(row)][1:] for row in rows]
    total = path.length()
    nodes = path.nodes
    distances = [0.0]
    for a, b in zip(nodes, nodes[1:]):
        distances.append(distances[-1] + abs(b - a))
    evaluations = 0

    def family_at(t: float) -> Tuple[complex, Tuple[complex, ...]]:
        """The point at ``t`` and the fiber's coefficients there."""
        nonlocal evaluations
        evaluations += 1
        if evaluations > _MAX_FAMILY_EVALUATIONS:
            raise NumericsError(
                f"continuation stopped at t = {t:.6g} after "
                f"{_MAX_FAMILY_EVALUATIONS} family evaluations"
            )
        lam = path.point(t)
        coeffs = [_polyval(row, lam) for row in rows]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return lam, tuple(coeffs)

    def drift(t: float, lam: complex) -> List[float]:
        """Bounds on how far each coefficient moves from ``lam``, the point
        at ``t``, to the end of the path."""
        here = t * total
        reach = max(
            [abs(lam)] + [abs(w) for w, s in zip(nodes, distances) if s > here]
        )
        return [(total - here) * _polyval(row, reach) for row in rates]

    def tangents(lam: complex, poly: Tuple[complex, ...],
                 roots: Sequence[complex]) -> Tuple[List[complex], float]:
        """dz/dlam at ``roots`` of ``poly``, the fiber at ``lam``, and the
        step the tangent allows."""
        pulls = [_polyval(row, lam) for row in derivatives]  # d_lam p
        velocities = []
        for z in roots:
            value = slope = 0j
            for c in reversed(poly):
                slope = slope * z + value
                value = value * z + c
            velocities.append(-_polyval(pulls, z) / slope if slope else 0j)
        speed = total * max(abs(v) for v in velocities)
        if not speed:
            return velocities, math.inf
        return velocities, max(
            _min_pairwise(roots) / (_PREDICTED_SHARE * speed), _MIN_STEP
        )

    lam, poly = family_at(0.0)
    degree = len(poly) - 1
    if degree < 1:
        raise NumericsError("family must have degree at least 1")
    # steps shrink toward a fiber of lower degree, so test the end first
    _, poly_end = family_at(1.0)
    if len(poly_end) - 1 != degree:
        raise NumericsError(
            f"family degree changed from {degree} to {len(poly_end) - 1} at t = 1"
        )
    current = tuple(roots)
    steps = [(0.0, current, tuple(_horner(poly, z)[2] for z in current))]
    pair: Optional[Tuple[int, int]] = None
    t = 0.0
    velocities, limit = tangents(lam, poly, current)
    dt = min(_INITIAL_STEP, limit)
    while t < 1.0:
        t_next = min(t + dt, 1.0)
        lam_next, poly_next = family_at(t_next)
        if len(poly_next) - 1 != degree:
            raise NumericsError(
                f"family degree changed from {degree} to {len(poly_next) - 1} "
                f"at t = {t_next:.6g}"
            )
        separation = _min_pairwise(current)
        move = lam_next - lam
        predicted = [z + v * move for z, v in zip(current, velocities)]
        corrected, corrected_res = zip(*(_newton(poly_next, z) for z in predicted))
        if (
            all(r < _ROOT_TOL for r in corrected_res)
            and (degree == 1
                 or _min_pairwise(corrected) > max(1e-13, 1e-6 * separation))
            and separation > 3 * max(abs(a - b) for a, b in zip(corrected, current))
        ):
            current, t, lam = corrected, t_next, lam_next
            steps.append((t, corrected, corrected_res))
            pair = _terminal_pair(poly_next, current, roots, drift(t, lam))
            if pair is not None:
                break
            velocities, limit = tangents(lam, poly_next, current)
            dt = min(_INITIAL_STEP, dt * 1.6, limit)
            continue
        dt /= 2
        if dt < _MIN_STEP:
            raise NumericsError(
                f"step size underflow at t = {t:.6g}, {1.0 - t:.3g} before the "
                "final node; the family appears singular there (perturb and retry)"
            )
    return TrackedRoots(
        parameters=tuple(s[0] for s in steps),
        roots=tuple(s[1] for s in steps),
        residuals=tuple(s[2] for s in steps),
        pair=pair,
    )


# ---------------------------------------------------------------------------
# elliptic integrals with branch-point endpoints

# The 16-point Gauss-Legendre rule on [-1, 1], written out as
# numpy.polynomial.legendre.leggauss(16) gives it, bit for bit, so that
# importing this module does not import numpy.polynomial.
_GAUSS_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499,
])
_GAUSS_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176,
])
# Most panel doublings before the quadrature gives up.
_MAX_LEVEL = 9
# The quadrature stops once a doubling moves the whole-path total by less.
_QUADRATURE_TOL = 1e-9
# The lemniscate constant Gamma(1/4)^2 / (2 sqrt(2 pi)).
_LEMNISCATE = math.gamma(0.25) ** 2 / (2 * math.sqrt(2 * math.pi))


def _branch_signs(values: np.ndarray, anchor: complex) -> np.ndarray:
    """Signs that continue the square roots ``values`` from ``anchor``.

    Node k flips against the signed node before it (the anchor for k = 0)
    when it is farther from that value than from its negation, so the sign is
    a cumulative product of steps: -1 where |v_k - v_{k-1}| > |v_k + v_{k-1}|
    on the raw values.  On an exact tie the node keeps its raw value, so the
    product restarts at +1 there.
    """
    previous = np.concatenate(([anchor], values[:-1]))
    apart = np.abs(values - previous)
    across = np.abs(values + previous)
    signs = np.cumprod(np.where(apart > across, -1.0, 1.0))
    ties = apart == across
    if ties.any():
        # divide out the product up to the last tie at or before each node
        last_tie = np.maximum.accumulate(np.where(ties, np.arange(len(values)), 0))
        signs = np.where(np.maximum.accumulate(ties), signs * signs[last_tie], signs)
    return signs


def elliptic_integral(
    cubic: CPoly, path: PathPolyline, roots: Sequence[complex]
) -> complex:
    """The integral of dx / y along ``path``, with y^2 = cubic(x).

    Each quadrature level is one set of numpy arrays: a unit grid of 16
    Gauss-Legendre nodes on each of 2^level panels, broadcast over every
    segment of the path, in path order.  Endpoints may coincide with roots
    of the cubic: the bordering segment is integrated in the square-root
    variable x = root + s^2 (delta), which removes the endpoint singularity
    exactly.  The square root is evaluated in factored form (product over
    the three roots, with the exact factor s^2 (delta) in the substituted
    root's slot).  Its branch is continued node to node as a product of
    signs: a node flips relative to its predecessor when it is nearer the
    negated value, and an exact tie keeps the raw value.  The branch at the
    anchor -- the first node of the level-0 grid -- is the principal square
    root of the cubic there.  Panels double until the whole-path total moves
    by less than ``_QUADRATURE_TOL``, at most ``_MAX_LEVEL`` times.
    ``roots`` are the roots of ``cubic`` as ``all_roots`` returns them.
    """
    if cubic.degree != 3:
        raise NumericsError("elliptic integrals need a cubic")
    sqrt_lead = np.sqrt(complex(cubic.leading))
    scale = 1.0 + max(abs(r) for r in roots)
    snap = 1e-9 * scale

    def nearest(z: complex) -> Tuple[float, int]:
        return min((abs(z - r), i) for i, r in enumerate(roots))

    nodes = list(path.nodes)
    for w in nodes[1:-1]:
        if nearest(w)[0] < snap:
            raise NumericsError("an interior path node sits on a root")
    start_dist, start_idx = nearest(nodes[0])
    end_dist, end_idx = nearest(nodes[-1])
    start_is_root = start_dist < snap
    end_is_root = end_dist < snap
    if len(nodes) == 2 and start_is_root and end_is_root:
        nodes = [nodes[0], (nodes[0] + nodes[1]) / 2, nodes[1]]

    # path order: the substituted start segment, the plain segments, then
    # the substituted end segment
    segments = list(zip(nodes, nodes[1:]))
    start = end = None
    if start_is_root:
        start = (start_idx, segments.pop(0)[1])
    if end_is_root:
        end = (end_idx, segments.pop()[0])
    plain_a = np.array([a for a, _ in segments], dtype=complex)
    plain_delta = np.array([b - a for a, b in segments], dtype=complex)

    def branch_values(
        x: np.ndarray, ridx: int = -1, factor: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Raw factored square roots at ``x``; ``factor`` fills slot ``ridx``."""
        value = sqrt_lead
        for i, r in enumerate(roots):
            if i == ridx:
                value = value * np.sqrt(factor)
                continue
            diff = x - r
            if np.any(np.abs(diff) < snap):
                raise NumericsError("path passes too close to a root of the cubic")
            value = value * np.sqrt(diff)
        return value

    def level_values(level: int) -> Tuple[complex, np.ndarray, np.ndarray]:
        """The first node, the weights and the raw square roots of one level,
        in path order."""
        panels = 1 << level
        width = 1.0 / panels
        u = (
            np.arange(panels)[:, None] / panels
            + width * (_GAUSS_NODES + 1) / 2
        ).ravel()
        w = np.tile(_GAUSS_WEIGHTS * width / 2, panels)
        xs, weights, values = [], [], []

        def substituted(ridx: int, far: complex, s: np.ndarray,
                        ws: np.ndarray) -> None:
            delta = far - roots[ridx]  # from the root to the far node
            factor = s * s * delta
            x = roots[ridx] + factor
            xs.append(x)
            weights.append(ws * 2 * s * delta)
            values.append(branch_values(x, ridx, factor))

        if start is not None:
            substituted(start[0], start[1], u, w)
        if segments:
            x = (plain_a[:, None] + u * plain_delta[:, None]).ravel()
            xs.append(x)
            weights.append((w * plain_delta[:, None]).ravel())
            values.append(branch_values(x))
        if end is not None:
            substituted(end[0], end[1], u[::-1], -w[::-1])
        return xs[0][0], np.concatenate(weights), np.concatenate(values)

    def integrate(weights: np.ndarray, values: np.ndarray) -> complex:
        if np.any(values == 0):
            raise NumericsError("square root vanished at a quadrature node")
        signs = _branch_signs(values, anchor_value)
        return complex(np.sum(weights / (signs * values)))

    first_x, first_weights, first_values = level_values(0)
    anchor_value = first_values[0]
    reference = cmath.sqrt(cubic(first_x))
    if abs(anchor_value - reference) > abs(anchor_value + reference):
        anchor_value = -anchor_value

    previous = integrate(first_weights, first_values)
    for level in range(1, _MAX_LEVEL + 1):
        _, weights, values = level_values(level)
        current = integrate(weights, values)
        if abs(current - previous) < _QUADRATURE_TOL:
            return current
        previous = current
    raise NumericsError(
        "quadrature did not converge: branch tracking is unreliable this "
        "close to a root (refine the path or perturb)"
    )


def period_lattice(epsilon: float) -> Tuple[complex, complex]:
    """The period pair of y^2 = x^3 + epsilon x at positive real ``epsilon``.

    Twice the integrals over the segments from -i sqrt(eps) to 0 and from 0
    to +i sqrt(eps), in the branch convention of ``elliptic_integral``: the
    curve is lemniscatic, so they are 2 varpi eps^(-1/4) e^(3 pi i / 4) and
    2 varpi eps^(-1/4) e^(pi i / 4), varpi the lemniscate constant.
    """
    if not epsilon > 0:
        raise NumericsError("epsilon must be positive")
    size = 2 * _LEMNISCATE * float(epsilon) ** -0.25
    return cmath.rect(size, 3 * math.pi / 4), cmath.rect(size, math.pi / 4)
