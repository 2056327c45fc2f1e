"""Vanishing-cycle pipeline tests: ordering, classes, certificates, exports."""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import pytest

from dpmirror.exactpoly import UniPoly
from dpmirror import pathnum, vancycles
from dpmirror.pathnum import (
    CPoly,
    NumericsError,
    PathPolyline,
    TrackedRoots,
    all_roots,
    elliptic_integral,
)
from dpmirror.homology import (
    HomologyClass,
    infinity_cycle,
    reference_vanishing_classes,
    seifert_gram,
    total_monodromy,
)
from dpmirror.vancycles import (
    ArcGuardError,
    VanishingData,
    critical_values_ordered,
    render_delta_svg,
    vanishing_classes,
)
from dpmirror.weierstrass import WeierstrassModel, catalog, reference_nodal_place

NODAL_PLACES = {3: 27.0, 2: 64.0, 1: 432.0}
VALUE_COUNTS = {3: 9, 2: 10, 1: 11}

# Frozen upper-triangular Seifert Gram of the degree-3 class sequence.
GRAM3_EXPECTED = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1],
    [0, 1, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, -1, 0, -1, 0, -1, 0],
    [0, 0, 0, 1, 1, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, -1, 0, -1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]

# Frozen classes and colliding pairs, per degree, for the perturbations of
# the `cycles` calls of the homology benchmark workload at seed 1.  The
# pairs name fiber roots by their index in the (re, im) sort of the base
# fiber's roots.
FROZEN_CYCLES = {
    1: ((45, 137, 155),
        ((1, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0),
         (0, 1), (1, 0), (0, 1)),
        ((0, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 1),
         (1, 2), (0, 1), (1, 2))),
    2: ((71, 141, 162),
        ((1, 1), (1, 0), (0, 1), (1, 0), (1, 0), (1, -1), (0, 1), (0, 1),
         (1, 0), (0, 1)),
        ((0, 2), (0, 1), (1, 2), (0, 1), (0, 1), (0, 2), (1, 2), (1, 2),
         (0, 1), (1, 2))),
    3: ((48, 98, 152),
        ((1, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1),
         (1, 0)),
        ((0, 2), (1, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 1), (1, 2),
         (0, 1))),
}


@functools.lru_cache(maxsize=None)
def _computed(d: int) -> VanishingData:
    return vanishing_classes(d)


def _ordered_values(d: int):
    model = catalog(d, Fraction(1, 100))
    anchor = complex(float(reference_nodal_place(d)), 0.0)
    return critical_values_ordered(model, anchor)


# ---------------------------------------------------------------------------
# critical value ordering


def test_critical_value_counts_and_nodal_anchor():
    for d, count in VALUE_COUNTS.items():
        values = _ordered_values(d)
        assert len(values) == count
        assert abs(values[0] - NODAL_PLACES[d]) < 1e-2


def test_critical_values_sweep_clockwise_from_the_anchor():
    values = _ordered_values(3)
    theta = math.atan2(values[0].imag, values[0].real)

    def sweep_angle(z: complex) -> float:
        return theta - ((theta - math.atan2(z.imag, z.real)) % (2 * math.pi))

    keys = [(-sweep_angle(z), abs(z)) for z in values[1:]]
    assert keys == sorted(keys)


def test_critical_values_default_anchor_takes_largest_modulus():
    model = catalog(3, Fraction(1, 100))
    values = critical_values_ordered(model)
    assert values == _ordered_values(3)


def test_critical_values_reject_degenerate_invariants():
    flat = WeierstrassModel(UniPoly({}), UniPoly({0: Fraction(1)}))
    with pytest.raises(NumericsError, match="constant"):
        critical_values_ordered(flat)
    doubled = WeierstrassModel(UniPoly({}), UniPoly({2: Fraction(1), 1: Fraction(-1)}))
    with pytest.raises(NumericsError, match="separable"):
        critical_values_ordered(doubled)


# ---------------------------------------------------------------------------
# the full pipeline


def test_classes_match_the_reference_sequences():
    for d in (3, 2, 1):
        data = _computed(d)
        assert data.epsilon == Fraction(1, 100)
        assert len(data.critical_values) == VALUE_COUNTS[d]
        assert [c.to_pair() for c in data.classes] == [
            c.to_pair() for c in reference_vanishing_classes(d)
        ]
        assert max(data.residuals) < 1e-6
        for cls in data.classes:
            assert math.gcd(cls.m, cls.n) == 1


def test_vanishing_arcs_join_roots_of_the_base_fiber():
    for d in (3, 2, 1):
        data = _computed(d)
        model = catalog(d, data.epsilon)
        a0 = complex(model.a.terms.get(0, 0))
        b0 = complex(model.b.terms.get(0, 0))
        for delta, pair in zip(data.deltas, data.colliding_pairs):
            i, j = pair
            assert 0 <= i < 3 and 0 <= j < 3 and i != j
            for endpoint in (delta.nodes[0], delta.nodes[-1]):
                assert abs(endpoint**3 + a0 * endpoint + b0) < 1e-8
            assert delta.nodes[0] != delta.nodes[-1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_classes_and_colliding_pairs_are_frozen(d):
    denominators, classes, pairs = FROZEN_CYCLES[d]
    for q in denominators:
        data = vanishing_classes(d, Fraction(1, q))
        assert data.epsilon == Fraction(1, q)
        assert tuple(c.to_pair() for c in data.classes) == classes
        assert data.colliding_pairs == pairs


def test_first_class_and_the_cycle_over_infinity():
    for d in (3, 2, 1):
        data = _computed(d)
        assert data.classes[0] == HomologyClass(1, 1)
        assert infinity_cycle(list(data.classes), d) == HomologyClass(0, 1)
        total = total_monodromy(list(data.classes))
        (p, q), (r, s) = total.rows
        assert p + s == 2
        assert total.rows != ((1, 0), (0, 1))


def test_seifert_gram_is_unimodular_and_matches_the_frozen_matrix():
    assert seifert_gram(list(_computed(3).classes)) == GRAM3_EXPECTED
    for d in (3, 2, 1):
        gram = seifert_gram(list(_computed(d).classes))
        for i, row in enumerate(gram):
            assert row[i] == 1
            assert all(entry == 0 for entry in row[:i])


# Work of `cycles --epsilon 1/64` per degree: accepted continuation steps,
# Newton solves, `all_roots` solves inside the tracker (it has none), and the
# segments of the paths handed to `elliptic_integral`.
CYCLES_WORK = {1: (155, 558, 0, 24), 2: (157, 516, 0, 23), 3: (118, 435, 0, 18)}


@pytest.mark.parametrize("d", sorted(CYCLES_WORK))
def test_cycles_work_at_one_sixty_fourth_is_pinned(d, monkeypatch):
    steps, newtons, fallbacks, segments = [], [], [], []
    newton, solve = pathnum._newton, pathnum.all_roots
    track, integrate = vancycles.continue_roots, vancycles.elliptic_integral

    def counted_newton(*args):
        newtons.append(1)
        return newton(*args)

    def counted_solve(*args, **kwargs):
        fallbacks.append(1)
        return solve(*args, **kwargs)

    def counted_track(*args, **kwargs):
        tracked = track(*args, **kwargs)
        steps.append(len(tracked.parameters) - 1)
        return tracked

    def counted_integral(cubic, path, **kwargs):
        segments.append(len(path.nodes) - 1)
        return integrate(cubic, path, **kwargs)

    monkeypatch.setattr(pathnum, "_newton", counted_newton)
    monkeypatch.setattr(pathnum, "all_roots", counted_solve)
    monkeypatch.setattr(vancycles, "continue_roots", counted_track)
    monkeypatch.setattr(vancycles, "elliptic_integral", counted_integral)
    data = vanishing_classes(d, Fraction(1, 64))
    assert len(steps) == len(segments) == VALUE_COUNTS[d]
    assert (sum(steps), len(newtons), len(fallbacks), sum(segments)) == CYCLES_WORK[d]
    assert [c.to_pair() for c in data.classes] == [
        c.to_pair() for c in reference_vanishing_classes(d)
    ]


# ---------------------------------------------------------------------------
# the quadrature path


def _base_fiber(d: int, epsilon: Fraction):
    family = vancycles._fiber_family(catalog(d, epsilon))
    cubic = CPoly(tuple(row[0] for row in family))
    return cubic, all_roots(cubic)


def _same_up_to_sign(value: complex, reference: complex) -> bool:
    gap = min(abs(value - reference), abs(value + reference))
    return gap < 1e-8 * (1 + abs(reference))


def _is_subpath(path: PathPolyline, arc: PathPolyline) -> bool:
    """Whether the nodes of ``path`` are a subsequence of those of ``arc``
    with the same first and last nodes."""
    remaining = iter(arc.nodes)
    return (
        path.nodes[0] == arc.nodes[0]
        and path.nodes[-1] == arc.nodes[-1]
        and all(any(z == w for w in remaining) for z in path.nodes)
    )


@pytest.mark.parametrize("d, q", [(1, 64), (2, 100), (3, 45)])
def test_quadrature_path_keeps_the_integral_of_every_arc(d, q):
    data = vanishing_classes(d, Fraction(1, q))
    cubic, roots = _base_fiber(d, data.epsilon)
    for delta in data.deltas:
        path = vancycles._quadrature_path(delta, roots)
        assert _is_subpath(path, delta)
        assert len(path.nodes) < len(delta.nodes)
        full = elliptic_integral(cubic, delta, roots=roots)
        assert _same_up_to_sign(elliptic_integral(cubic, path, roots=roots), full)


def test_quadrature_path_keeps_a_node_beyond_a_looped_root():
    """The arc from 0 to 1 runs above the third root, whose distance to the
    chord 0 -> 1 passes the clearance test; the fan from 0 holds that root,
    so the path keeps a node above it, and its integral is the arc's."""
    third = 0.5 + 0.25j
    roots = [0j, third, 1 + 0j]
    cubic = CPoly((0j, third, -(1 + third), 1 + 0j))  # x (x - third) (x - 1)
    arc = PathPolyline((0j, 0.2 + 0.5j, 0.8 + 0.5j, 1 + 0j))
    assert vancycles._segment_distance(third, 0j, 1 + 0j) >= vancycles.CHORD_CLEARANCE
    path = vancycles._quadrature_path(arc, roots)
    assert _is_subpath(path, arc)
    assert any(z.imag > third.imag for z in path.nodes)
    full = elliptic_integral(cubic, arc, roots=roots)
    assert _same_up_to_sign(elliptic_integral(cubic, path, roots=roots), full)
    below = elliptic_integral(cubic, PathPolyline((0j, 1 + 0j)), roots=roots)
    assert not _same_up_to_sign(below, full)


# ---------------------------------------------------------------------------
# the arc guard and input validation


def test_guard_retries_bump_epsilon_until_the_arcs_clear():
    data = vanishing_classes(2, Fraction(1, 500))
    assert data.epsilon == Fraction(1, 500) * Fraction(18, 17) ** 3
    assert [c.to_pair() for c in data.classes] == [
        c.to_pair() for c in reference_vanishing_classes(2)
    ]


def test_guard_retries_exhaust_with_a_clear_error():
    with pytest.raises(NumericsError, match="arc guard kept failing"):
        vanishing_classes(2, Fraction(1, 1000))


def test_only_arc_guard_errors_are_retried(monkeypatch):
    tried = []

    def fail(d, eps):
        tried.append(eps)
        raise NumericsError("a message that mentions the guard")

    monkeypatch.setattr(vancycles, "_vanishing_classes_once", fail)
    with pytest.raises(NumericsError, match="mentions the guard"):
        vanishing_classes(2, Fraction(1, 100))
    assert tried == [Fraction(1, 100)]


def test_an_arc_without_a_certified_pair_is_a_numeric_error(monkeypatch):
    """A continuation that reaches the critical value with no certified
    pair names no vanishing cycle."""
    continue_roots = vancycles.continue_roots

    def uncertified(*args, **kwargs):
        tracked = continue_roots(*args, **kwargs)
        return TrackedRoots(tracked.parameters, tracked.roots, tracked.residuals, None)

    monkeypatch.setattr(vancycles, "continue_roots", uncertified)
    with pytest.raises(NumericsError, match="no colliding pair certified"):
        vanishing_classes(3, Fraction(1, 100))


def test_a_tripped_arc_guard_raises_its_own_type():
    with pytest.raises(ArcGuardError, match="arc guard"):
        vancycles._vanishing_classes_once(2, Fraction(1, 1000))


def test_rejects_unknown_degree_and_bad_epsilon():
    with pytest.raises(ValueError, match="degree"):
        vanishing_classes(4)
    with pytest.raises(NumericsError, match="positive"):
        vanishing_classes(3, Fraction(0))
    with pytest.raises(NumericsError, match="positive"):
        vanishing_classes(3, Fraction(-1, 100))


def test_vanishing_data_validates_records():
    arc = PathPolyline((0j, 1 + 0j))
    fields = dict(
        d=3,
        epsilon=Fraction(1, 100),
        critical_values=(1 + 0j,),
        colliding_pairs=((0, 1),),
        deltas=(arc,),
        classes=(HomologyClass(1, 1),),
        residuals=(0.0,),
        periods=(1j, 1 + 0j),
    )
    VanishingData(**fields)
    with pytest.raises(NumericsError, match="primitive"):
        VanishingData(**{**fields, "classes": (HomologyClass(2, 2),)})
    with pytest.raises(NumericsError, match="residual"):
        VanishingData(**{**fields, "residuals": (1e-3,)})
    with pytest.raises(NumericsError, match="lengths"):
        VanishingData(**{**fields, "deltas": ()})


# ---------------------------------------------------------------------------
# exports


def test_to_json_reports_the_certified_fields():
    data = _computed(3)
    report = data.to_json()
    assert set(report) == {
        "d", "epsilon", "critical_values", "colliding_pairs",
        "classes", "residuals", "periods",
    }
    assert report["epsilon"] == "1/100"
    assert report["classes"][0] == [1, 1]
    assert len(report["critical_values"]) == 9
    again = vanishing_classes(3).to_json()
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_render_delta_svg_is_deterministic():
    data = _computed(3)
    svg = render_delta_svg(data)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 9
    assert svg.count("<circle") == 3
    assert render_delta_svg(data) == svg


def test_render_delta_svg_requires_arcs():
    empty = VanishingData(
        d=3,
        epsilon=Fraction(1, 100),
        critical_values=(),
        colliding_pairs=(),
        deltas=(),
        classes=(),
        residuals=(),
        periods=(1j, 1 + 0j),
    )
    with pytest.raises(NumericsError, match="nothing to draw"):
        render_delta_svg(empty)
