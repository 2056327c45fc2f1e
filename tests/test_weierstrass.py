"""Tests for Weierstrass models, Kodaira classification, fiber configurations."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpmirror.exactpoly import LaurentPoly, UniPoly, rational_roots
from dpmirror.interfam import FamilySpec
from dpmirror.pseudolattice import Pseudolattice
from dpmirror.rootlattice import IntLattice
from dpmirror.weierstrass import (
    FiberClassificationError,
    UncertifiedPlacesError,
    WeierstrassModel,
    catalog,
    chart_at_infinity,
    classify_fiber_at,
    fiber_configuration,
    is_globally_minimal,
    reference_nodal_place,
)
from hv_oracle import hv_to_weierstrass

FR = Fraction

# Expected singular-fiber tables of the catalog models: place -> (label, va, vb, vdisc).
EXPECTED_TABLES = {
    1: {FR(0): ("II*", 4, 5, 10), FR(432): ("I1", 0, 0, 1), "inf": ("I1", 0, 0, 1)},
    2: {FR(0): ("III*", 3, 5, 9), FR(64): ("I1", 0, 0, 1), "inf": ("I2", 0, 0, 2)},
    3: {FR(0): ("IV*", 3, 4, 8), FR(27): ("I1", 0, 0, 1), "inf": ("I3", 0, 0, 3)},
}

# Leading coefficient and zero-multiplicity of the discriminant invariant.
EXPECTED_DISC = {
    1: (-256, 10, FR(432)),
    2: (-256, 9, FR(64)),
    3: (-256, 8, FR(27)),
}

small_rationals = st.fractions(
    min_value=FR(-1, 2), max_value=FR(1, 2), max_denominator=40
).filter(lambda q: q != 0)

offsets = st.fractions(min_value=-5, max_value=5, max_denominator=6)

# Nonzero rationals whose numerator and denominator have 12 to 100 digits.
long_integers = st.integers(min_value=12, max_value=100).flatmap(
    lambda n: st.integers(min_value=10 ** (n - 1), max_value=10 ** n - 1)
)
long_rationals = st.builds(
    lambda sign, num, den: sign * FR(num, den),
    st.sampled_from([1, -1]), long_integers, long_integers,
)

IRRATIONAL_PLACES = "cannot certify fibers over irrational places"


# ---------------------------------------------------------------------------
# rational root extraction


def test_rational_roots_mixed_factors():
    # (x^2 - 1)(2x - 3)(x^2 + 1) = 2x^5 - 3x^4 - 2x + 3 has rational roots
    # -1, 1, 3/2 only.
    p = UniPoly({5: 2, 4: -3, 1: -2, 0: 3})
    assert rational_roots(p) == [FR(-1), FR(1), FR(3, 2)]


def test_rational_roots_zero_of_variable():
    assert rational_roots(UniPoly({3: 1})) == [FR(0)]
    assert rational_roots(UniPoly({2: 1, 0: 1})) == []


def test_rational_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        rational_roots(UniPoly())


# ---------------------------------------------------------------------------
# catalog models and their fiber tables


@pytest.mark.parametrize("d", [1, 2, 3])
def test_catalog_discriminant_shape(d):
    model = catalog(d)
    disc = model.discriminant_scale()
    lead, zero_mult, nodal = EXPECTED_DISC[d]
    assert disc.leading_coefficient() == lead
    assert disc.degree() == zero_mult + 1
    # disc = lead * lam^zero_mult * (lam - nodal)
    assert disc == UniPoly({zero_mult + 1: lead, zero_mult: -lead * nodal})
    assert nodal == reference_nodal_place(d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_catalog_fiber_table(d):
    config = fiber_configuration(catalog(d))
    table = {
        p.place: (p.fiber.label, p.fiber.v_a, p.fiber.v_b, p.fiber.v_disc)
        for p in config.placements
    }
    assert table == EXPECTED_TABLES[d]
    assert config.euler_total() == 12


@pytest.mark.parametrize("d,count,inf_label", [(1, 11, "I1"), (2, 10, "I2"), (3, 9, "I3")])
def test_perturbed_catalog_splits_into_nodal_fibers(d, count, inf_label):
    config = fiber_configuration(catalog(d, FR(1, 100)))
    # the finite fibers are `count` nodal ones; infinity carries the rest
    finite = [p for p in config.placements if p.place != "inf"]
    assert sum(p.count for p in finite) == count
    assert all(p.fiber.label == "I1" for p in finite)
    inf = [p for p in config.placements if p.place == "inf"]
    assert len(inf) == 1 and inf[0].fiber.label == inf_label
    assert config.euler_total() == 12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_perturbed_discriminant_is_separable(d):
    from dpmirror.exactpoly import squarefree_factorization

    disc = catalog(d, FR(1, 100)).discriminant_scale()
    _unit, factors = squarefree_factorization(disc)
    assert [m for _f, m in factors] == [1]
    assert factors[0][0].degree() == disc.degree() == (9 - d) + 3


# ---------------------------------------------------------------------------
# hyperelliptic reduction reproduces the catalog


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hv_reduction_matches_catalog(d):
    reduction = hv_to_weierstrass(d)
    assert reduction.model == catalog(d)


def lam_x(terms) -> LaurentPoly:
    """A polynomial in (lam, x), keyed by exponent pairs."""
    return LaurentPoly(terms, nvars=2)


def test_hv_reduction_intermediates_d3():
    reduction = hv_to_weierstrass(3)
    A, B, C = reduction.quadratic
    assert A == lam_x({(1, 1): -1})
    assert B == lam_x({(1, 1): 1, (0, 0): -1})
    assert C == lam_x({(1, 2): -1})
    assert reduction.y_discriminant == lam_x(
        {(2, 3): -4, (2, 2): 1, (1, 1): -2, (0, 0): 1}
    )


def test_hv_reduction_intermediates_d2():
    reduction = hv_to_weierstrass(2)
    A, B, C = reduction.quadratic
    assert A == lam_x({(1, 1): -1})
    assert B == lam_x({(1, 1): 1})
    assert C == lam_x({(1, 2): -1, (0, 0): -1})
    assert reduction.y_discriminant == lam_x({(2, 3): -4, (2, 2): 1, (1, 1): -4})


def test_hv_reduction_intermediates_d1_clears_two_x_powers():
    reduction = hv_to_weierstrass(1)
    A, B, C = reduction.quadratic
    assert A == lam_x({(1, 2): -1})
    assert B == lam_x({(1, 2): 1})
    assert C == lam_x({(1, 3): -1, (0, 0): -1})
    assert reduction.y_discriminant == lam_x({(2, 3): -4, (2, 2): 1, (1, 0): -4})


# ---------------------------------------------------------------------------
# minimality


@pytest.mark.parametrize("d", [1, 2, 3])
def test_catalog_models_are_minimal(d):
    assert is_globally_minimal(catalog(d)).is_minimal


def test_degree_bound_violations_reported():
    report = is_globally_minimal(WeierstrassModel(UniPoly({5: 1}), UniPoly()))
    assert not report.is_minimal and "deg a = 5" in report.violation
    report = is_globally_minimal(WeierstrassModel(UniPoly(), UniPoly({7: 1})))
    assert not report.is_minimal and "deg b = 7" in report.violation


def test_twelfth_power_discriminant_reported():
    model = WeierstrassModel(UniPoly({4: 1}), UniPoly({6: 1}))
    report = is_globally_minimal(model)
    assert not report.is_minimal and "twelfth power" in report.violation


def test_constant_coefficients_non_minimal_at_infinity():
    model = WeierstrassModel(UniPoly.constant(1), UniPoly.constant(1))
    report = is_globally_minimal(model)
    assert not report.is_minimal and "infinity" in report.violation


def test_identically_degenerate_invariant_reported():
    # a = -3 r^2, b = 2 r^3 with r = lam makes 4a^3 + 27b^2 vanish identically.
    model = WeierstrassModel(UniPoly({2: -3}), UniPoly({3: 2}))
    report = is_globally_minimal(model)
    assert not report.is_minimal and "identically" in report.violation


# ---------------------------------------------------------------------------
# pointwise classification table


def test_classification_table_additive_types():
    cases = [  # a and b as {exponent of lam: coefficient}
        ({1: 1}, {1: 1}, "II", 2),
        ({1: 1}, {2: 1}, "III", 3),
        ({2: 1}, {2: 1}, "IV", 4),
        ({2: 1}, {3: 1}, "I0*", 6),
        ({2: -3, 3: 1}, {3: 2}, "I1*", 7),
        ({3: 1}, {4: 1}, "IV*", 8),
        ({3: 1}, {5: 1}, "III*", 9),
        ({4: 1}, {5: 1}, "II*", 10),
    ]
    for a, b, label, euler in cases:
        fiber = classify_fiber_at(WeierstrassModel(UniPoly(a), UniPoly(b)), FR(0))
        assert fiber.label == label, (label, fiber)
        assert fiber.euler_number == euler


def test_classification_smooth_and_nonminimal():
    assert classify_fiber_at(catalog(3), FR(1)).label == "I0"
    fiber = classify_fiber_at(
        WeierstrassModel(UniPoly({4: 1}), UniPoly({6: 1})), FR(0)
    )
    assert fiber.label == "NonMinimal"
    with pytest.raises(FiberClassificationError):
        fiber.euler_number


def test_chart_at_infinity_round_trip():
    model = catalog(3)
    inf = chart_at_infinity(model)
    assert inf.var == "mu"
    assert inf.a == UniPoly({0: FR(-1, 3), 1: 8}, "mu")
    assert inf.b == UniPoly({0: FR(2, 27), 1: FR(-8, 3), 2: 16}, "mu")
    back = chart_at_infinity(inf)
    assert back == model


def test_chart_at_infinity_rejects_high_degree():
    with pytest.raises(ValueError):
        chart_at_infinity(WeierstrassModel(UniPoly({5: 1}), UniPoly()))


# ---------------------------------------------------------------------------
# grouped irrational places


LAM = sympy.Symbol("lam")


def _poly(expr: sympy.Expr) -> UniPoly:
    """The polynomial in lam that sympy expands ``expr`` to."""
    return UniPoly({
        e: Fraction(int(c.p), int(c.q)) for (e,), c in sympy.Poly(expr, LAM).terms()
    })


def _irrational_family(shift: int) -> WeierstrassModel:
    # a = -3 f^2, b = 2 f^3 + c with f = lam^2 - 2 gives invariant 27 c (4 f^3 + c).
    f = LAM**2 - 2
    return WeierstrassModel(_poly(-3 * f**2), _poly(2 * f**3 + shift))


def test_irrational_nodal_places_grouped():
    config = fiber_configuration(_irrational_family(-4))
    finite = [p for p in config.placements if p.place != "inf"]
    assert sum(p.count for p in finite) == 6
    assert all(p.fiber.label == "I1" for p in finite)
    assert [p.fiber.label for p in config.placements if p.place == "inf"] == ["I6"]


def test_mixed_rational_and_irrational_places_split():
    # With shift +4 the invariant is 432 (lam^2 - 1)(lam^4 - 5 lam^2 + 7).
    config = fiber_configuration(_irrational_family(4))
    rational_places = sorted(
        p.place for p in config.placements if isinstance(p.place, Fraction)
    )
    assert rational_places == [FR(-1), FR(1)]
    grouped = [p for p in config.placements if p.place is None]
    assert len(grouped) == 1 and grouped[0].count == 4
    assert config.euler_total() == 12


def test_rational_place_divided_out_of_an_irrational_factor():
    # b - 2 = e = (lam - 27)(lam^2 - 2), so the invariant 27 (b - 2)(b + 2) is
    # 27 e (e + 4): one square-free sextic with the rational root 27.  Its
    # quotient by lam - 27 is the quintic (lam^2 - 2)(e + 4), one irrational
    # place of five I1 fibers, named by its coefficients.
    model = WeierstrassModel(_poly(-3 + 0 * LAM), _poly(LAM**3 - 27 * LAM**2
                                                        - 2 * LAM + 56))
    quintic = (LAM**2 - 2) * (LAM**3 - 27 * LAM**2 - 2 * LAM + 58)
    config = fiber_configuration(model)
    (irrational,) = [p for p in config.placements if p.place is None]
    assert irrational.factor == _poly(quintic)
    assert config.to_json()["fibers"] == [
        {"place": "27", "type": "I1", "count": 1, "v_a": 0, "v_b": 0, "v_disc": 1},
        {"place": "roots(0:-116,1:4,2:112,3:-4,4:-27,5:1)", "type": "I1",
         "count": 5, "v_a": 0, "v_b": 0, "v_disc": 1},
        {"place": "inf", "type": "I0*", "count": 1, "v_a": 4, "v_b": 3, "v_disc": 6},
    ]


def test_additive_fiber_over_irrational_place_refused():
    # b = 3 f^3 makes the invariant 135 f^6: additive fibers over lam = ±sqrt(2).
    f = LAM**2 - 2
    model = WeierstrassModel(_poly(-3 * f**2), _poly(3 * f**3))
    with pytest.raises(FiberClassificationError, match="cannot certify"):
        fiber_configuration(model)


def test_non_minimal_model_refused():
    with pytest.raises(FiberClassificationError, match="not globally minimal"):
        fiber_configuration(WeierstrassModel(UniPoly({4: 1}), UniPoly({6: 1})))


# ---------------------------------------------------------------------------
# serialization


def test_model_json_round_trip():
    model = catalog(2, FR(1, 100))
    data = model.to_json()
    assert data == {
        "a": [[0, "1/100"], [3, "16"], [4, "-1/3"]],
        "b": [[5, "-16/3"], [6, "2/27"]],
    }
    parsed = [UniPoly({e: FR(c) for e, c in data[key]}) for key in ("a", "b")]
    assert WeierstrassModel(*parsed) == model


def test_exact_algebra_kept_on_a_model_leaves_its_identity_alone():
    used, fresh = catalog(3, FR(1, 100)), catalog(3, FR(1, 100))
    fiber_configuration(used)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and used.to_json() == fresh.to_json()
    assert used.discriminant_scale() == fresh.discriminant_scale()
    # The records that derive a cache in __post_init__ keep it out of
    # equality, hashing and repr too.
    gram = ((1, 0), (2, 1))
    for make, cache in (
        (lambda: FamilySpec.between_degrees(3, 2), "rows"),
        (lambda: Pseudolattice(gram), "entries"),
        (lambda: IntLattice(((2, -1), (-1, 2))), "entries"),
    ):
        record, twin = make(), make()
        assert getattr(record, cache)
        object.__setattr__(twin, cache, ())
        assert record == twin and hash(record) == hash(twin)
        assert repr(record) == repr(twin) and f"{cache}=" not in repr(record)


def test_configuration_json_schema():
    config = fiber_configuration(catalog(3))
    data = config.to_json()
    assert data["euler_total"] == 12
    places = [entry["place"] for entry in data["fibers"]]
    assert places == ["0", "27", "inf"]
    types = [entry["type"] for entry in data["fibers"]]
    assert types == ["IV*", "I1", "I3"]


# ---------------------------------------------------------------------------
# properties


@given(d=st.sampled_from([1, 2, 3]), eps=small_rationals)
@settings(max_examples=60, deadline=None)
def test_random_perturbations_keep_euler_total(d, eps):
    model = catalog(d, eps)
    assume(is_globally_minimal(model).is_minimal)
    try:
        config = fiber_configuration(model)
    except UncertifiedPlacesError as exc:
        if IRRATIONAL_PLACES not in str(exc):
            raise
        assume(False)
    assert config.euler_total() == 12


@given(d=st.sampled_from([1, 2, 3]), eps=long_rationals)
@settings(max_examples=40, deadline=None)
def test_long_epsilon_tables_are_complete(d, eps):
    """Every rational place is found exactly however long epsilon is, so the
    table closes with Euler total 12."""
    assert fiber_configuration(catalog(d, eps)).euler_total() == 12


def _shift(p: UniPoly, c: Fraction) -> UniPoly:
    """p(lam + c), expanded by sympy."""
    return _poly(sum(
        (sympy.Rational(coeff.numerator, coeff.denominator)
         * (LAM + sympy.Rational(c.numerator, c.denominator)) ** e
         for e, coeff in p.terms.items()),
        sympy.Integer(0),
    ))


def _labels(model: WeierstrassModel) -> list:
    config = fiber_configuration(model)
    return sorted(p.fiber.label for p in config.placements for _ in range(p.count))


@given(d=st.sampled_from([1, 2, 3]), eps=small_rationals, offset=offsets)
@settings(max_examples=40, deadline=None)
def test_fiber_labels_invariant_under_recentering(d, eps, offset):
    model = catalog(d, eps)
    shifted = WeierstrassModel(_shift(model.a, offset), _shift(model.b, offset))
    assume(is_globally_minimal(model).is_minimal)
    try:
        original = _labels(model)
        moved = _labels(shifted)
    except UncertifiedPlacesError as exc:
        if IRRATIONAL_PLACES not in str(exc):
            raise
        assume(False)
    assert original == moved
