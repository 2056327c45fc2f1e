"""Tests for root finding, root continuation, and elliptic integrals."""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from fractions import Fraction
from typing import Iterator, List, Tuple
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpmirror import pathnum
from dpmirror.exactpoly import UniPoly
from dpmirror.interfam import FamilySpec, family_at
from dpmirror.pathnum import (
    CPoly,
    NumericsError,
    PathPolyline,
    TrackedRoots,
    _aberth,
    _branch_signs,
    _horner,
    _newton_polygon_start,
    _terminal_pair,
    all_roots,
    batch_roots,
    continue_roots,
    elliptic_integral,
    period_lattice,
)
from dpmirror.vancycles import _fiber_family
from dpmirror.weierstrass import catalog

# Frozen reference periods for y^2 = x^3 + x/100.
OMEGA_A = complex(-11.7261978646281, 11.7261978646281)
OMEGA_B = complex(11.7261978646281, 11.7261978646281)
AGM_HALF_PERIOD = 8.29167402761371

# (degree, nodal place, root count) for the perturbed discriminants.
DISC_FINGERPRINTS = ((3, 27.0, 9), (2, 64.0, 10), (1, 432.0, 11))


def _perturbed_family(d: int):
    """The catalog model at epsilon 1/100 and its fiber family, as
    coefficient rows ascending in lam, one per power of x."""
    model = catalog(d, Fraction(1, 100))
    return model, _fiber_family(model)


def _fiber(family, lam: complex) -> CPoly:
    """The fiber of a coefficient-row family at ``lam``, by the same Horner
    steps as ``continue_roots``."""
    coeffs = []
    for row in family:
        value = 0j
        for c in reversed(row):
            value = value * lam + c
        coeffs.append(value)
    return CPoly(tuple(coeffs))


def residual(p: CPoly, z: complex) -> float:
    """The backward-error residual of ``z`` that certifies a root of ``p``."""
    return _horner(p.coeffs, z)[2]


# ---------------------------------------------------------------------------
# CPoly


def test_cpoly_degree_and_trim() -> None:
    assert CPoly((1, 2, 0)).degree == 1
    assert CPoly(()).degree == -1
    assert CPoly((0,)).degree == -1
    trimmed = CPoly((1, 1, 1e-15)).trimmed()
    assert trimmed.degree == 1


def test_cpoly_from_unipoly() -> None:
    p = UniPoly({0: Fraction(1, 2), 2: 3})
    cp = CPoly.from_unipoly(p)
    assert cp.degree == 2
    assert cp(2.0) == pytest.approx(0.5 + 12.0)


def _bits(x: complex) -> Tuple[str, str]:
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def _separate_evaluations(p: CPoly, z: complex) -> Tuple[complex, complex, float]:
    """p(z), p'(z) and the residual as three separate passes: p by Horner,
    p' by Horner over the trimmed coefficients i c_i, and the residual's
    denominator as an ascending power sum."""
    value = 0j
    for c in reversed(p.coeffs):
        value = value * z + c
    deriv = [i * c for i, c in enumerate(p.coeffs) if i]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    slope = 0j
    for c in reversed(deriv):
        slope = slope * z + c
    magnitude = abs(z)
    denom, power = 0.0, 1.0
    for c in p.coeffs:
        denom += abs(c) * power
        power *= magnitude
    return value, slope, abs(value) / max(1.0, denom)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        max_size=8,
    ),
    st.one_of(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.floats(-1e3, 1e3),
    ),
)
def test_horner_matches_separate_evaluations_to_the_bit(coeffs, z) -> None:
    p = CPoly(tuple(coeffs))
    value, slope, res = _horner(p.coeffs, z)
    expected_value, expected_slope, expected_res = _separate_evaluations(p, z)
    assert _bits(value) == _bits(expected_value)
    assert _bits(slope) == _bits(expected_slope)
    assert res.hex() == expected_res.hex()
    assert _bits(p(z)) == _bits(expected_value)
    assert residual(p, z).hex() == expected_res.hex()


def test_residual_vanishes_at_root() -> None:
    p = CPoly((-1, 0, 1))
    assert residual(p, 1.0) == 0.0
    assert residual(p, 1.0 + 1e-8) < 1e-7
    assert residual(p, 5.0) > 0.1


# ---------------------------------------------------------------------------
# all_roots


def test_all_roots_quadratic() -> None:
    roots = all_roots(CPoly((-1, 0, 1)))
    assert roots == [(-1 + 0j), (1 + 0j)]


def test_all_roots_rejects_constants() -> None:
    with pytest.raises(NumericsError):
        all_roots(CPoly((5,)))


def test_all_roots_triple_root_cluster() -> None:
    roots = all_roots(CPoly((0, 0, 0, 1)))
    assert len(roots) == 3
    assert max(abs(z) for z in roots) < 1e-5


def test_all_roots_discriminant_fingerprints() -> None:
    for d, place, count in DISC_FINGERPRINTS:
        model, _ = _perturbed_family(d)
        disc = CPoly.from_unipoly(model.discriminant_scale())
        roots = all_roots(disc)
        assert len(roots) == count
        assert sum(1 for z in roots if abs(z) < 1) == count - 1
        assert min(abs(z - place) for z in roots) < 1e-2
        assert max(residual(disc, z) for z in roots) < 1e-10


def test_all_roots_product_reconstruction() -> None:
    model, _ = _perturbed_family(3)
    disc = CPoly.from_unipoly(model.discriminant_scale())
    roots = all_roots(disc)
    lead = disc.leading
    for k in range(10):
        z = 1.3 * cmath.exp(2j * math.pi * (k + 0.3) / 10)
        product = lead
        for r in roots:
            product *= z - r
        direct = disc(z)
        assert abs(product - direct) <= 1e-8 * max(abs(product), abs(direct))


def _conditioned_groups(
    roots: List[complex], tol: float
) -> List[List[complex]]:
    """Split roots into groups where a group of m roots is linked by steps
    shorter than tol**(1/m) times (1 + |root|): the spread a backward error
    tol allows an m-fold root."""
    pending, groups = [list(roots)], []
    while pending:
        block = pending.pop()
        reach = tol ** (1 / len(block))
        parts: List[List[complex]] = []
        for z in block:
            near = [
                g for g in parts
                if any(abs(z - w) < reach * (1 + abs(w)) for w in g)
            ]
            for g in near:
                parts.remove(g)
            parts.append([z] + [w for g in near for w in g])
        if len(parts) == 1:
            groups.append(block)
        else:
            pending.extend(parts)
    return groups


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
        ),
        min_size=2,
        max_size=6,
    )
)
@example([0j] * 6)
@example([2.2250738585e-313 + 0j, 1 + 0j])
def test_all_roots_random_polynomials(coeffs: list) -> None:
    poly = CPoly(tuple(coeffs) + (1 + 0j,))  # monic
    tol = 1e-10
    try:
        roots = all_roots(poly)
    except NumericsError:
        # all_roots may refuse only a polynomial with a subnormal coefficient
        if any(0 < abs(c) < np.finfo(float).tiny for c in coeffs):
            return
        raise
    assert len(roots) == poly.degree
    assert max(residual(poly, z) for z in roots) < tol
    # A simple root is accurate to about tol; the m members of a cluster only
    # to its radius tol**(1/m), which bounds both the spread of the cluster
    # and the error it adds to the product reconstruction.
    clusters = []
    for group in _conditioned_groups(roots, tol):
        if len(group) > 1:
            center = sum(group) / len(group)
            radius = tol ** (1 / len(group)) * (1 + abs(center))
            assert max(abs(z - center) for z in group) <= radius
            clusters.append((center, radius, len(group)))
    for k in range(10):
        z = 7.0 * cmath.exp(2j * math.pi * (k + 0.3) / 10)
        product = poly.leading
        for r in roots:
            product *= z - r
        direct = poly(z)
        bound = 1e-8 + sum(
            (1 + 2 * radius / abs(z - center)) ** m - 1
            for center, radius, m in clusters
        )
        assert abs(product - direct) <= bound * max(abs(product), abs(direct), 1.0)


def _perfect_match(candidates: List[List[int]], width: int) -> bool:
    """Whether every row can take a distinct column from its candidate list
    (Kuhn's augmenting paths)."""
    owner = [-1] * width

    def claim(row: int, seen: set) -> bool:
        for col in candidates[row]:
            if col not in seen:
                seen.add(col)
                if owner[col] < 0 or claim(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return all(claim(row, set()) for row in range(len(candidates)))


def _roots_within_conditioning(
    poly: CPoly, prescribed: List[complex], roots: List[complex], tol: float
) -> bool:
    """Whether each prescribed root has its own computed root within the
    distance a backward error ``tol`` allows.

    The prescribed roots are grouped with ``_conditioned_groups``.  A group
    of m roots around c, with q the product of the other factors, may move
    by 4 (eta S(c) / |q(c)|)^(1/m) beyond twice its own spread, where S is
    sum_i |c_i| |z|^i and eta adds to ``tol`` the rounding of the
    coefficients built from the roots, 4 (n + 1) u prod_j (|c| + |r_j|) / S.
    """
    n = len(prescribed)
    unit = np.finfo(float).eps / 2
    reach = {}
    for group in _conditioned_groups(prescribed, tol):
        center = sum(group) / len(group)
        others = list(prescribed)
        for z in group:
            others.remove(z)
        spread = max(abs(z - center) for z in group)
        scale = sum(abs(c) * abs(center) ** i for i, c in enumerate(poly.coeffs))
        rounding = (
            4 * (n + 1) * unit * math.prod(abs(center) + abs(r) for r in prescribed)
        )
        factor = math.prod(abs(center - r) for r in others)
        conditioned = ((tol * scale + rounding) / factor) ** (1 / len(group))
        radius = 2 * spread + 4 * conditioned
        for z in group:
            reach[z] = radius
    candidates = [
        [j for j, w in enumerate(roots) if abs(w - z) <= reach[z]] for z in prescribed
    ]
    return _perfect_match(candidates, len(roots))


def _expand(lead: complex, roots: List[complex]) -> CPoly:
    """lead * prod (x - r), multiplied out one factor at a time in complex
    arithmetic, each product added to the accumulated coefficient."""
    coeffs = [complex(lead)]
    for r in roots:
        out = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] += c * complex(-r)
            out[i + 1] += c * (1 + 0j)
        coeffs = out
    return CPoly(tuple(coeffs))


@st.composite
def prescribed_roots(draw) -> List[complex]:
    """One to four parts, each a root of modulus 1e-6 to 1e3, a tight
    cluster of two or three roots about such a point, or an exact zero."""
    roots: List[complex] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["single", "single", "cluster", "zero"]))
        modulus = draw(st.floats(1, 10)) * 10.0 ** draw(st.integers(-6, 2))
        center = cmath.rect(modulus, draw(st.floats(0, 6.3)))
        if kind == "zero":
            roots.append(0j)
        elif kind == "single":
            roots.append(center)
        else:
            spread = abs(center) * 10 ** draw(st.floats(-9, -3))
            twist = draw(st.floats(0, 6.3))
            count = draw(st.integers(2, 3))
            roots += [
                center + cmath.rect(spread, twist + 2 * math.pi * k / count)
                for k in range(count)
            ]
    return roots


@settings(max_examples=150, deadline=None)
@given(prescribed_roots())
@example([r * math.sqrt(5.920174901936161e-204) for r in (1j, -1j)])
def test_all_roots_recovers_prescribed_roots(prescribed: List[complex]) -> None:
    poly = _expand(1 + 0j, prescribed)
    tol = 1e-10
    roots = all_roots(poly)
    assert len(roots) == poly.degree
    assert roots == sorted(roots, key=lambda w: (w.real, w.imag))
    for z in roots:
        scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(poly.coeffs))
        assert abs(poly(z)) < tol * scale or (z == 0 and poly.coeffs[0] == 0)
    assert _roots_within_conditioning(poly, prescribed, roots, tol)


def test_all_roots_tiny_quadratic_from_its_newton_polygon() -> None:
    c = 5.920174901936161e-204
    roots = all_roots(CPoly((c, 0, 1)))
    r = math.sqrt(c)
    assert abs(roots[0] + 1j * r) <= 1e-15 * r
    assert abs(roots[1] - 1j * r) <= 1e-15 * r


def test_all_roots_refuses_roots_no_double_certifies() -> None:
    """The roots of z^2 + 2^-1074 have modulus 2^-537, so their squares
    fall in the subnormal range, where rounding is absolute.  Counting that
    loss, no double meets the certificate, and all_roots raises instead of
    returning points whose residual merely rounds to zero."""
    with pytest.raises(NumericsError):
        all_roots(CPoly((5e-324, 0, 1)))


def test_all_roots_exact_zero_roots() -> None:
    roots = all_roots(CPoly((0, 0, -4, 0, 1)))
    assert roots[1:3] == [0j, 0j]
    assert abs(roots[0] + 2) < 1e-15 and abs(roots[3] - 2) < 1e-15
    assert all_roots(CPoly((0, 0, 3))) == [0j, 0j]


def _invariant_3_to_2(s: float) -> CPoly:
    spec = FamilySpec.between_degrees(3, 2, Fraction(1, 100))
    return family_at(spec, s).invariant_scale().trimmed()


def test_all_roots_misses_no_root_of_the_sweep_invariant() -> None:
    """At s = 0.995 the 3 -> 2 invariant has nine roots of modulus about
    0.08; a floored residual gate once returned one of them twice and
    missed its neighbour.  Each mpmath root needs exactly one computed root
    within 1e-12 (1 + |r|)."""
    poly = _invariant_3_to_2(0.995)
    roots = all_roots(poly)
    with mpmath.workdps(40):
        exact = mpmath.polyroots(
            [mpmath.mpc(c) for c in reversed(poly.coeffs)],
            maxsteps=200,
            extraprec=200,
        )
    assert len(exact) == len(roots) == poly.degree
    for r in (complex(e) for e in exact):
        near = [z for z in roots if abs(z - r) <= 1e-12 * (1 + abs(r))]
        assert len(near) == 1, (r, near)


def test_all_roots_polish_never_merges_iterates() -> None:
    """A loose gate lets iterates stop well short of their roots; an
    unconstrained Newton polish then pulls some pairs onto one root (at
    s = 0.93 and 0.95 among these).  The polish keeps them apart."""
    for s in np.linspace(0.01, 0.99, 50):
        coeffs = np.array(_invariant_3_to_2(float(s)).coeffs, dtype=complex)
        roots, converged = _aberth(coeffs, _newton_polygon_start(coeffs), 0.1)
        assert converged, s
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        assert min(gaps) > 1e-6, s


def test_all_roots_is_silent_at_the_edge_of_the_float_range() -> None:
    """The derivative weight 2 c_2 of this quadratic overflows; the kernel
    forms it under its floating-point guard, so the only outcome is the
    typed error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError):
            all_roots(CPoly((1, 0, 1e308)))


@st.composite
def root_batches(draw) -> np.ndarray:
    """One to eight polynomials of one degree, as coefficient rows: each
    has roots of modulus 1e-3 to 1e3 and one near-cluster of two roots."""
    singles = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        roots = [
            cmath.rect(10 ** draw(st.floats(-3, 3)), draw(st.floats(0, 6.3)))
            for _ in range(singles)
        ]
        center = cmath.rect(10 ** draw(st.floats(-3, 3)), draw(st.floats(0, 6.3)))
        spread = abs(center) * 10 ** draw(st.floats(-6, -2))
        roots += [center + spread, center - spread]
        coeffs = np.ones(1, dtype=complex)
        for r in roots:
            coeffs = np.convolve(coeffs, [-r, 1])
        rows.append(coeffs)
    return np.array(rows)


def _backward_error(coeffs: np.ndarray, z: complex) -> float:
    """|p(z)| / sum_i |c_i| |z|^i, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        w = mpmath.mpc(z)
        value = mpmath.polyval([mpmath.mpc(c) for c in coeffs[::-1]], w)
        scale = sum(abs(mpmath.mpc(c)) * abs(w) ** i for i, c in enumerate(coeffs))
        return float(abs(value) / scale)


def _inclusion_radius(coeffs: np.ndarray, z: complex) -> float:
    """n |p(z) / p'(z)|: the disc of this radius about z holds a root."""
    value, slope, _ = _horner(coeffs.tolist(), z)
    n = len(coeffs) - 1
    return math.inf if slope == 0 else n * abs(value / slope)


@settings(max_examples=60, deadline=None)
@given(root_batches())
def test_batch_roots_agree_with_all_roots_row_by_row(rows: np.ndarray) -> None:
    roots, certified = batch_roots(rows)
    assert roots.shape == (len(rows), rows.shape[1] - 1)
    for coeffs, found, ok in zip(rows, roots, certified):
        single = all_roots(CPoly(tuple(coeffs.tolist())))
        assert ok
        assert found.tolist() == sorted(found.tolist(), key=lambda w: (w.real, w.imag))
        for z in found.tolist():
            assert _backward_error(coeffs, z) < pathnum._ROOT_TOL + 1e-13
        reach = [_inclusion_radius(coeffs, z) for z in found.tolist()]
        own = [_inclusion_radius(coeffs, w) for w in single]
        candidates = [
            [j for j, w in enumerate(single)
             if abs(z - w) <= r + own[j] + 4e-16 * abs(z)]
            for z, r in zip(found.tolist(), reach)
        ]
        assert _perfect_match(candidates, len(single))


@settings(max_examples=30, deadline=None)
@given(root_batches(), st.integers(0, 8))
def test_batch_roots_reports_a_row_that_cannot_converge(rows, where) -> None:
    """A row with a NaN coefficient runs to the iteration cap, is reported
    as not converged, and leaves the other rows' answers as they were."""
    where = min(where, len(rows))
    spoiled = np.insert(rows, where, rows[0], axis=0)
    spoiled[where, 0] = complex("nan")
    roots, certified = batch_roots(spoiled)
    clean_roots, clean_certified = batch_roots(rows)
    assert not certified[where]
    others = np.delete(np.arange(len(spoiled)), where)
    assert np.array_equal(certified[others], clean_certified)
    assert np.array_equal(roots[others], clean_roots)


@settings(max_examples=30, deadline=None)
@given(root_batches(), st.integers(1, 20))
def test_batch_roots_under_a_low_iteration_cap_match_all_roots(rows, cap) -> None:
    """With the cap lowered, each row converges in the batch exactly when
    ``all_roots`` converges on it alone, with the same roots."""
    with mock.patch.object(pathnum, "_MAX_ITERATIONS", cap):
        roots, certified = batch_roots(rows)
        for coeffs, found, ok in zip(rows, roots, certified):
            try:
                single = all_roots(CPoly(tuple(coeffs.tolist())))
            except NumericsError:
                single = None
            assert ok == (single is not None)
            if ok:
                assert found.tolist() == single


# ---------------------------------------------------------------------------
# paths


def test_path_invariants() -> None:
    with pytest.raises(NumericsError):
        PathPolyline((1 + 0j,))
    with pytest.raises(NumericsError):
        PathPolyline((1 + 0j, 1 + 0j, 2 + 0j))
    closed = PathPolyline((0j, 1 + 0j, 1 + 1j, 0j))
    assert closed.nodes[0] == closed.nodes[-1]


def test_path_arclength_parameterization() -> None:
    path = PathPolyline((0j, 3 + 0j, 3 + 4j))  # lengths 3 and 4
    assert path.length() == pytest.approx(7.0)
    assert path.point(0.0) == 0j
    assert path.point(1.0) == 3 + 4j
    assert path.point(3 / 7) == pytest.approx(3 + 0j)
    assert path.point(5 / 7) == pytest.approx(3 + 2j)
    with pytest.raises(NumericsError):
        path.point(1.5)


# ---------------------------------------------------------------------------
# tracked roots


def test_tracked_roots_rejects_unequal_step_records() -> None:
    with pytest.raises(NumericsError, match="inconsistent lengths"):
        TrackedRoots(
            parameters=(0.0, 0.5),
            roots=((0j, 1 + 0j),),
            residuals=((0.0, 0.0),),
            pair=None,
        )


# ---------------------------------------------------------------------------
# the certified terminal pair

# x^3 - 1 with two approximations pulled off their roots 1 and e^(2 pi i/3)
# towards each other, and e^(-2 pi i/3) exact.
_PULLED_CUBIC = (-1 + 0j, 0j, 0j, 1 + 0j)
_THIRD = cmath.exp(2j * math.pi / 3)


def _pulled(shift: float) -> Tuple[complex, ...]:
    return (1 + shift * (_THIRD - 1), _THIRD + shift * (1 - _THIRD), _THIRD.conjugate())


def test_terminal_pair_needs_the_full_inclusion_radius() -> None:
    """Pulled 0.15 of the way, each approximation is about 0.26 from its
    root: the discs of radius 3 |p/p'| (0.95 each) overlap, the discs of
    radius |p/p'| (0.32 each) do not, and with them every other condition
    would hold.  The certificate must decline."""
    roots = _pulled(0.15)
    radii = [abs(_horner(_PULLED_CUBIC, z)[0] / _horner(_PULLED_CUBIC, z)[1])
             for z in roots]
    gap = abs(roots[0] - roots[1])
    assert radii[0] + radii[1] < gap < 3 * (radii[0] + radii[1])
    assert _terminal_pair(_PULLED_CUBIC, roots, (), (0.0,) * 4) is None
    # with good approximations the pair is certified at the end of a path
    exact = _pulled(0.0)
    assert _terminal_pair(_PULLED_CUBIC, exact, (), (0.0,) * 4) == (0, 1)


def test_terminal_pair_keeps_the_start_roots_out_of_its_disc() -> None:
    """The pair of x^2 - 1/100 is certified with the start roots at +-1, and
    not when a start root lies within 0.1 of the pair's midpoint, inside
    every disc that holds both of the pair's discs."""
    quadratic = (-0.01 + 0j, 0j, 1 + 0j)
    roots = (-0.1 + 0j, 0.1 + 0j)
    drift = (1e-4, 0.0, 0.0)
    assert _terminal_pair(quadratic, roots, (-1 + 0j, 1 + 0j), drift) == (0, 1)
    for puncture in (0j, 0.05j, -0.09 + 0j):
        assert _terminal_pair(quadratic, roots, (puncture,), drift) is None


def test_terminal_pair_needs_rouche_over_the_rest_of_the_path() -> None:
    """The pair of x^2 - 1/100 gets the disc of radius 0.55 about 0, midway
    between its own discs and the start roots +-1, and |p| >= 0.45^2 =
    0.2025 on its boundary, where |x| = 0.55.  Coefficient motion below that
    bound certifies the pair; motion above it does not."""
    quadratic = (-0.01 + 0j, 0j, 1 + 0j)
    roots = (-0.1 + 0j, 0.1 + 0j)
    starts = (-1 + 0j, 1 + 0j)
    assert _terminal_pair(quadratic, roots, starts, (0.2, 0.0, 0.0)) == (0, 1)
    assert _terminal_pair(quadratic, roots, starts, (0.21, 0.0, 0.0)) is None
    assert _terminal_pair(quadratic, roots, starts, (0.0, 0.0, 0.6)) == (0, 1)
    assert _terminal_pair(quadratic, roots, starts, (0.0, 0.0, 0.7)) is None


# ---------------------------------------------------------------------------
# continuation


def _continue(family, path: PathPolyline) -> TrackedRoots:
    """``continue_roots`` from the solved roots of the fiber at t = 0."""
    return continue_roots(family, path, all_roots(_fiber(family, path.point(0.0))))


# x^2 - lam, with roots +-sqrt(lam)
_SQUARE_ROOTS = ((0j, -1 + 0j), (0j,), (1 + 0j,))


def test_continuation_merging_endpoint() -> None:
    """The roots +-sqrt(lam) meet at lam = 0: the pair is certified before
    the end, in a disc that holds the double root 0 and neither start root,
    and the tracks are the square roots up to there."""
    tracked = _continue(_SQUARE_ROOTS, PathPolyline((1 + 0j, 0j)))
    assert tracked.parameters[0] == 0.0
    assert 0.5 < tracked.parameters[-1] < 1.0
    assert tracked.pair == (0, 1)
    assert all(r < 1e-10 for row in tracked.residuals for r in row)
    for t, (low, high) in zip(tracked.parameters, tracked.roots):
        root = math.sqrt(1 - t)
        assert abs(low + root) < 1e-9 and abs(high - root) < 1e-9
    low, high = tracked.roots[-1]
    assert abs((low + high) / 2) < abs(high - low) / 2 < 1.0


def test_continuation_constant_family() -> None:
    family = ((-1 + 0j,), (0j,), (1 + 0j,))
    tracked = _continue(family, PathPolyline((0j, 1 + 1j)))
    assert tracked.pair is None
    assert tracked.parameters[-1] == 1.0
    for row in tracked.roots:
        assert abs(row[0] + 1) < 1e-12 and abs(row[1] - 1) < 1e-12


def test_continuation_of_a_single_root_has_no_pair() -> None:
    family = ((0j, -1 + 0j), (1 + 0j,))  # x - lam
    tracked = _continue(family, PathPolyline((1 + 0j, 0j)))
    assert tracked.pair is None
    assert tracked.parameters[-1] == 1.0
    assert abs(tracked.roots[-1][0]) < 1e-12


def test_continuation_rejects_three_roots_meeting() -> None:
    """x^3 - lam toward 0: the three roots close in as an equilateral
    triangle, whose closest pair never has a disc the third root keeps out
    of by Rouche's margin, so no pair is certified and the step underflows
    before the triple root."""
    family = ((0j, -1 + 0j), (0j,), (0j,), (1 + 0j,))
    with pytest.raises(NumericsError, match="step size underflow"):
        _continue(family, PathPolyline((1 + 0j, 0j)))


def test_continuation_rejects_degree_change() -> None:
    family = ((-1 + 0j,), (0j,), (1 + 0j, -2 + 0j))  # (1 - 2 lam) x^2 - 1
    with pytest.raises(NumericsError, match="degree"):
        _continue(family, PathPolyline((0j, 0.5 + 0j)))


def test_continuation_stops_at_its_evaluation_budget(monkeypatch) -> None:
    calls = []
    point = PathPolyline.point

    def counted(self, t):
        calls.append(t)
        return point(self, t)

    monkeypatch.setattr(PathPolyline, "point", counted)
    monkeypatch.setattr(pathnum, "_MAX_FAMILY_EVALUATIONS", 5)
    with pytest.raises(NumericsError, match="after 5 family evaluations"):
        continue_roots(_SQUARE_ROOTS, PathPolyline((1 + 0j, 0j)), (-1 + 0j, 1 + 0j))
    assert len(calls) == 5


def test_quadrature_takes_known_roots() -> None:
    """The roots handed in are the cubic's roots as a set: in another order
    they snap the path's start to the same branch point and give the same
    integral up to rounding."""
    _, family = _perturbed_family(1)
    base = _fiber(family, 0j)
    roots = all_roots(base)
    path = PathPolyline((roots[0], roots[0] + 0.1 + 0.1j))
    value = elliptic_integral(base, path, roots)
    for order in itertools.permutations(roots):
        assert abs(elliptic_integral(base, path, order) - value) <= 1e-12 * abs(value)


def test_continuation_detects_midpath_singularity() -> None:
    model, family = _perturbed_family(3)
    disc = CPoly.from_unipoly(model.discriminant_scale())
    lam1 = min(all_roots(disc), key=abs)
    with pytest.raises(NumericsError, match="before the final node"):
        _continue(family, PathPolyline((0j, 2 * lam1)))


def test_continuation_collisions_at_critical_values() -> None:
    """Along a straight arc to a nearby critical value, the certified pair
    joins the fiber root at the origin with one of the two imaginary roots,
    conjugate critical values pick conjugate partners, and the double root
    of the fiber at the critical value is nearer the pair than the third
    track."""
    model, family = _perturbed_family(3)
    disc = CPoly.from_unipoly(model.discriminant_scale())
    critical = [z for z in all_roots(disc) if abs(z) < 1]
    assert len(critical) == 8
    partners = {}
    for lam_c in critical:
        tracked = _continue(family, PathPolyline((0j, lam_c)))
        pair = tracked.pair
        starts = [tracked.roots[0][i] for i in pair]
        origins = [z for z in starts if abs(z) < 1e-8]
        moving = [z for z in starts if abs(z) >= 1e-8]
        assert len(origins) == 1 and len(moving) == 1
        assert min(abs(moving[0] - 0.1j), abs(moving[0] + 0.1j)) < 1e-8
        partners[complex(round(lam_c.real, 9), round(lam_c.imag, 9))] = moving[0]
        b0, a0 = _fiber(family, lam_c).coeffs[:2]
        double = -3 * b0 / (2 * a0)  # the root x^3 + a0 x + b0 shares with 3x^2 + a0
        last = tracked.roots[-1]
        third = last[3 - sum(pair)]
        assert abs(double - (last[pair[0]] + last[pair[1]]) / 2) < abs(double - third)
        assert tracked.parameters[-1] < 1.0
    for lam_c, partner in partners.items():
        mirror = complex(lam_c.real, -lam_c.imag)
        assert abs(partners[mirror] - partner.conjugate()) < 1e-7


def test_continuation_residuals_match_a_recomputation() -> None:
    """Each recorded residual is that of its root in the family at its step."""
    model, family = _perturbed_family(3)
    disc = CPoly.from_unipoly(model.discriminant_scale())
    path = PathPolyline((0j, min(all_roots(disc), key=abs)))
    tracked = _continue(family, path)
    assert len(tracked.parameters) > 2
    for t, row, res in zip(tracked.parameters, tracked.roots, tracked.residuals):
        poly = _fiber(family, path.point(t))
        assert res == tuple(residual(poly, z) for z in row)


def test_continuation_has_no_path_but_the_corrector(monkeypatch) -> None:
    """With the Newton corrector unable to certify any root, every step is
    rejected and halves until it underflows: nothing else carries a track."""
    monkeypatch.setattr(pathnum, "_newton", lambda p, z: (z, math.inf))
    with pytest.raises(NumericsError, match="step size underflow at t = 0,"):
        _continue(_SQUARE_ROOTS, PathPolyline((1 + 0j, 1j)))


# ---------------------------------------------------------------------------
# elliptic integrals


def test_elliptic_integral_requires_cubic() -> None:
    quadratic = CPoly((-1, 0, 1))
    roots = all_roots(quadratic)
    with pytest.raises(NumericsError, match="cubic"):
        elliptic_integral(quadratic, PathPolyline((2 + 0j, 3 + 0j)), roots)


def test_elliptic_integral_additive_and_antisymmetric() -> None:
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    seg12 = elliptic_integral(cubic, PathPolyline((1 + 0j, 2 + 0j)), roots)
    seg23 = elliptic_integral(cubic, PathPolyline((2 + 0j, 3 + 0j)), roots)
    seg13 = elliptic_integral(cubic, PathPolyline((1 + 0j, 3 + 0j)), roots)
    assert abs(seg12 + seg23 - seg13) < 1e-8
    reverse = elliptic_integral(cubic, PathPolyline((2 + 0j, 1 + 0j)), roots)
    assert abs(seg12 + reverse) < 1e-8


def test_elliptic_integral_closed_contour_vanishes() -> None:
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    loop = PathPolyline((1 + 0j, 1 + 1j, 2 + 1j, 2 + 0j, 1 + 0j))
    assert abs(elliptic_integral(cubic, loop, roots)) < 1e-8


def test_elliptic_integral_rejects_interior_root_node() -> None:
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    with pytest.raises(NumericsError, match="interior"):
        elliptic_integral(cubic, PathPolyline((-1 + 0j, 0j, 1 + 0j)), roots)


def test_elliptic_integral_detects_root_crossing() -> None:
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    with pytest.raises(NumericsError):
        elliptic_integral(cubic, PathPolyline((-1 + 0j, 1 + 0j)), roots)


_ORACLE_NODES, _ORACLE_WEIGHTS = np.polynomial.legendre.leggauss(16)


def test_gauss_table_is_leggauss_bit_for_bit() -> None:
    for table, oracle in (
        (pathnum._GAUSS_NODES, _ORACLE_NODES),
        (pathnum._GAUSS_WEIGHTS, _ORACLE_WEIGHTS),
    ):
        assert table.dtype == oracle.dtype and table.shape == oracle.shape
        assert table.tobytes() == oracle.tobytes()


def _node_by_node_integral(cubic: CPoly, path: PathPolyline) -> complex:
    """Oracle: the scalar quadrature that ``elliptic_integral`` replaced, one
    Gauss node and one branch step at a time, with the same substitutions,
    anchor, checks and convergence test (1e-9 within 9 levels)."""
    if cubic.degree != 3:
        raise NumericsError("elliptic integrals need a cubic")
    roots = all_roots(cubic)
    lead = cubic.leading
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

    # jobs in path order: plain segments and substituted end segments
    jobs: List[Tuple[str, complex, complex, int]] = []
    for i, (w0, w1) in enumerate(zip(nodes, nodes[1:])):
        if i == 0 and start_is_root:
            jobs.append(("start", roots[start_idx], w1, start_idx))
        elif i == len(nodes) - 2 and end_is_root:
            jobs.append(("end", roots[end_idx], w0, end_idx))
        else:
            jobs.append(("plain", w0, w1, -1))

    def stream(level: int) -> Iterator[Tuple[complex, complex, int, complex]]:
        """Yield (x, d-contribution weight, substituted index, exact factor)."""
        panels = 1 << level
        for kind, a, b, ridx in jobs:
            if kind == "plain":
                delta = b - a
                for panel in range(panels):
                    lo = panel / panels
                    width = 1.0 / panels
                    for xg, wg in zip(_ORACLE_NODES, _ORACLE_WEIGHTS):
                        u = lo + width * (xg + 1) / 2
                        weight = wg * width / 2
                        yield (a + u * delta, weight * delta, -1, 0j)
            else:
                delta = b - a  # from the root to the far node
                forward = kind == "start"
                panel_order = range(panels) if forward else reversed(range(panels))
                sign = 1.0 if forward else -1.0
                for panel in panel_order:
                    lo = panel / panels
                    width = 1.0 / panels
                    gauss = (
                        zip(_ORACLE_NODES, _ORACLE_WEIGHTS)
                        if forward
                        else zip(reversed(_ORACLE_NODES), reversed(_ORACLE_WEIGHTS))
                    )
                    for xg, wg in gauss:
                        s = lo + width * (xg + 1) / 2
                        weight = wg * width / 2
                        factor = s * s * delta
                        yield (a + factor, sign * weight * 2 * s * delta,
                               ridx, factor)

    def branch_value(x: complex, ridx: int, factor: complex) -> complex:
        value = cmath.sqrt(lead)
        for i, r in enumerate(roots):
            value *= cmath.sqrt(factor if i == ridx else x - r)
        return value

    first_x, _, first_idx, first_factor = next(stream(0))
    anchor_value = branch_value(first_x, first_idx, first_factor)
    reference = cmath.sqrt(cubic(first_x))
    if abs(anchor_value - reference) > abs(anchor_value + reference):
        anchor_value = -anchor_value

    def evaluate(level: int) -> complex:
        total = 0j
        y_prev = anchor_value
        for x, weight, ridx, factor in stream(level):
            for i, r in enumerate(roots):
                if i != ridx and abs(x - r) < snap:
                    raise NumericsError(
                        "path passes too close to a root of the cubic"
                    )
            value = branch_value(x, ridx, factor)
            if value == 0:
                raise NumericsError("square root vanished at a quadrature node")
            if abs(value - y_prev) > abs(value + y_prev):
                value = -value
            y_prev = value
            total += weight / value
        return total

    previous = evaluate(0)
    for level in range(1, 10):
        current = evaluate(level)
        if abs(current - previous) < 1e-9:
            return current
        previous = current
    raise NumericsError(
        "quadrature did not converge: branch tracking is unreliable this "
        "close to a root (refine the path or perturb)"
    )


_box = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
_points = st.builds(complex, _box, _box)


@st.composite
def quadrature_cases(draw):
    """A cubic with three distinct roots and a 2-6 node polyline that may
    start or end on a root, cross a branch cut or pass a few snaps from a
    root."""
    roots = draw(st.lists(_points, min_size=3, max_size=3))
    assume(min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i)) > 0.2)
    lead = draw(st.sampled_from([1 + 0j, -2 + 0j, 0.5j, 1 - 1j]))
    cubic = _expand(lead, roots)
    snap = 1e-9 * (1.0 + max(abs(r) for r in roots))
    nodes: List[complex] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["free", "free", "cut", "near"]))
        r = draw(st.sampled_from(roots))
        if kind == "free":
            nodes.append(draw(_points))
        elif kind == "cut":  # across the cut x - r in (-inf, 0] of one factor
            left, height = draw(st.floats(0.05, 1)), draw(st.floats(0.01, 0.5))
            nodes += [r + complex(-left, height), r + complex(-left, -height)]
        else:  # a straight pass from a few snaps to 1e6 snaps from r
            reach = draw(st.floats(0.05, 0.5))
            miss = snap * 10 ** draw(st.floats(0.3, 6))
            nodes += [r + complex(-reach, miss), r + complex(reach, miss)]
    if draw(st.booleans()):
        nodes.insert(0, draw(st.sampled_from(roots)))
    if draw(st.booleans()):
        nodes.append(draw(st.sampled_from(roots)))
    assume(2 <= len(nodes) <= 6)
    try:
        path = PathPolyline(tuple(nodes))
    except NumericsError:
        assume(False)
    return cubic, path


def _outcome(integral, *args):
    try:
        return integral(*args)
    except NumericsError:
        return None


@settings(max_examples=40, deadline=None)
@given(quadrature_cases())
def test_elliptic_integral_matches_node_by_node_oracle(case) -> None:
    cubic, path = case
    oracle = _outcome(_node_by_node_integral, cubic, path)
    value = _outcome(lambda c, p: elliptic_integral(c, p, all_roots(c)), cubic, path)
    if oracle is None or value is None:
        assert oracle is None and value is None
    else:
        assert abs(value - oracle) <= 1e-12 * (1 + abs(oracle))


def test_elliptic_integral_returns_a_python_complex() -> None:
    cubic = CPoly((0j, 0.01 + 0j, 0j, 1 + 0j))
    roots = all_roots(cubic)
    value = elliptic_integral(cubic, PathPolyline((-0.1j, 0j)), roots)
    assert type(value) is complex


def _scalar_signs(values, anchor):
    """Oracle: the node-by-node branch rule -- flip a node when it is farther
    from the signed node before it than from that node's negation."""
    signs, previous = [], anchor
    for v in values:
        sign = -1.0 if abs(v - previous) > abs(v + previous) else 1.0
        signs.append(sign)
        previous = sign * v
    return signs


@pytest.mark.parametrize(
    "values, anchor, expected",
    [
        # a tie at the first node: 1j is as far from 1 as from -1
        ([1j, -1j, 1j], 1, [1, -1, 1]),
        # a flip, then a tie against the flipped node, then a flip again
        ([1, -1, 1j, -1j, 1j], 1, [1, -1, 1, -1, 1]),
        # a tie after a negative sign, then a flip
        ([-1, 2j, -2j, -2j], 1, [-1, 1, -1, -1]),
        # two ties in a row
        ([1j, 1, 1j], 1, [1, 1, 1]),
    ],
)
def test_branch_signs_restart_at_exact_ties(values, anchor, expected) -> None:
    assert _scalar_signs(values, anchor) == expected
    signs = _branch_signs(np.array(values, dtype=complex), complex(anchor))
    assert signs.tolist() == expected


# Gaussian integers: a tie |v - u| == |v + u| happens exactly when
# Re(v conj u) == 0, which is common among them and is computed exactly.
_gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda z: z != 0
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_gaussian, min_size=1, max_size=30), _gaussian)
def test_branch_signs_match_scalar_rule(values, anchor) -> None:
    signs = _branch_signs(np.array(values, dtype=complex), anchor)
    assert signs.tolist() == _scalar_signs(values, anchor)


# ---------------------------------------------------------------------------
# period lattice


def test_period_lattice_frozen_reference() -> None:
    omega_a, omega_b = period_lattice(0.01)
    assert abs(omega_a - OMEGA_A) < 1e-9
    assert abs(omega_b - OMEGA_B) < 1e-9
    assert abs(omega_a / omega_b - 1j) < 1e-12
    assert abs(abs(omega_a) / 2 - AGM_HALF_PERIOD) < 1e-9


@pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 1 / 64, 0.25, 1.0, 100.0])
def test_period_lattice_closed_form_matches_quadrature(epsilon: float) -> None:
    """The lemniscatic closed form agrees with twice the quadrature over the
    segments from -i sqrt(eps) to 0 and from 0 to +i sqrt(eps)."""
    root = math.sqrt(epsilon)
    cubic = CPoly((0j, complex(epsilon), 0j, 1 + 0j))
    roots = all_roots(cubic)
    oracle = (
        2 * elliptic_integral(cubic, PathPolyline((complex(0, -root), 0j)), roots),
        2 * elliptic_integral(cubic, PathPolyline((0j, complex(0, root))), roots),
    )
    for closed, quadrature in zip(period_lattice(epsilon), oracle):
        assert abs(closed - quadrature) < 1e-12 * abs(quadrature)


def test_period_lattice_rejects_nonpositive_epsilon() -> None:
    with pytest.raises(NumericsError):
        period_lattice(0.0)
    with pytest.raises(NumericsError):
        period_lattice(-1.0)


def test_period_lattice_weighted_scaling() -> None:
    # under eps -> t^4 eps the periods scale by 1/t
    omega_a, omega_b = period_lattice(0.01)
    scaled_a, scaled_b = period_lattice(0.16)  # t = 2
    assert abs(scaled_a - omega_a / 2) < 1e-8
    assert abs(scaled_b - omega_b / 2) < 1e-8


def test_period_lattice_other_epsilon_nondegenerate() -> None:
    omega_a, omega_b = period_lattice(0.25)
    assert abs((omega_a / omega_b).imag) > 0.1
