"""Tests for period series expansion and the mirror coefficient check."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpmirror.exactpoly import LaurentPoly
from dpmirror.periods import (
    FanoWeightData,
    MirrorCheckReport,
    PowerSeries,
    classical_period,
    mirror_check,
    przyjalkowski_g,
    quantum_period,
    regularize,
    weight_data,
)

FR = Fraction

# Frozen expansions to order 12 (exact integers once regularized).
REGULARIZED = {
    1: [
        1, 0, 10260, 2021280, 618874020, 184450426560, 57876331467600,
        18570232920355200, 6075387296446904100, 2016643273329626390400,
        677241013321962402561360, 229600654240460636054275200,
        78455433542570488178245270800,
    ],
    2: [
        1, 0, 276, 6816, 314532, 12853440, 569409360, 25533244800,
        1170019563300, 54340810769280, 2553325640356176,
        121090645167972480, 5787457749281987856,
    ],
    3: [
        1, 0, 54, 492, 9882, 158760, 2879640, 51982560, 964347930,
        18091565520, 343559141604, 6582773541960, 127111745010096,
    ],
}

# The dressed (unregularized) series for degree 3, kept exact.
DRESSED_D3 = [
    FR(1), FR(0), FR(27), FR(82), FR(1647, 4), FR(1323), FR(7999, 2),
    FR(10314), FR(1530711, 64), FR(10768789, 216), FR(151481103, 1600),
    FR(26385977, 160), FR(11463901967, 43200),
]

ALPHAS = {1: FR(60), 2: FR(12), 3: FR(6)}

# Weights and constraint degree of each catalog datum (index 1 for all three).
WEIGHTS = {1: ((1, 1, 2, 3), 6), 2: ((1, 1, 1, 2), 4), 3: ((1, 1, 1, 1), 3)}


# ---------------------------------------------------------------------------
# weight data


def test_catalog_weight_data():
    assert weight_data(1).weights == (1, 1, 2, 3)
    assert weight_data(1).constraint_degree == 6
    assert weight_data(2).weights == (1, 1, 1, 2)
    assert weight_data(3).weights == (1, 1, 1, 1)
    assert all(weight_data(d).index == 1 for d in (1, 2, 3))


def test_weight_data_rejects_nonpositive_index():
    with pytest.raises(ValueError, match="index"):
        FanoWeightData((1, 1, 1, 1), 4)
    with pytest.raises(ValueError, match="index"):
        FanoWeightData((1, 1, 1, 1), 5)


def test_weight_data_rejects_unpartitionable_degree():
    with pytest.raises(ValueError, match="subset"):
        FanoWeightData((2, 2, 2, 2), 5)


def test_weight_data_accepts_higher_index():
    datum = FanoWeightData((1, 1, 1, 1), 2)
    assert datum.index == 2
    series, alpha = quantum_period(datum, 6)
    assert alpha == 0
    assert series.coefficient(0) == 1 and series.coefficient(1) == 0


# ---------------------------------------------------------------------------
# quantum period


@pytest.mark.parametrize("d", [1, 2, 3])
def test_alpha_values(d):
    _series, alpha = quantum_period(weight_data(d), 4)
    assert alpha == ALPHAS[d]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quantum_period_normalization(d):
    series, _alpha = quantum_period(weight_data(d), 6)
    assert series.coefficient(0) == 1
    assert series.coefficient(1) == 0


def test_dressed_series_d3_frozen():
    series, _alpha = quantum_period(weight_data(3), 12)
    assert list(series.coefficients) == DRESSED_D3


def test_quantum_period_requires_order_two():
    with pytest.raises(ValueError):
        quantum_period(weight_data(3), 1)


# ---------------------------------------------------------------------------
# regularization


def test_regularize_definition():
    series = PowerSeries((FR(1), FR(0), FR(5)))
    assert regularize(series).coefficients == (FR(1), FR(0), FR(10))


def test_regularize_zero_series():
    series = PowerSeries((FR(0),) * 5)
    assert regularize(series).coefficients == (FR(0),) * 5


@pytest.mark.parametrize("d", [1, 2, 3])
def test_regularized_series_frozen(d):
    series, _alpha = quantum_period(weight_data(d), 12)
    assert [c for c in regularize(series).coefficients] == REGULARIZED[d]


# ---------------------------------------------------------------------------
# Laurent potential


def test_potential_d3_monomials():
    g = przyjalkowski_g(3)
    assert len(g.terms) == 10
    assert g.terms[(0, 0)] == 6
    # leading corner monomials of (1+y3+y4)^3 / (y3 y4)
    assert g.terms[(2, -1)] == 1
    assert g.terms[(-1, -1)] == 1


def test_potential_d1_monomials():
    g = przyjalkowski_g(1)
    assert len(g.terms) == 28
    assert g.terms[(-2, -3)] == 1
    assert g.terms[(4, -3)] == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_potential_constant_term_equals_alpha(d):
    _series, alpha = quantum_period(weight_data(d), 2)
    assert przyjalkowski_g(d).terms[(0, 0)] == alpha


# ---------------------------------------------------------------------------
# classical period


def test_classical_period_central_binomials():
    y = LaurentPoly.monomial((1,))
    f = y + LaurentPoly.monomial((-1,))
    series = classical_period(f, 8)
    assert list(series.coefficients) == [1, 0, 2, 0, 6, 0, 20, 0, 70]


def test_classical_period_of_zero():
    series = classical_period(LaurentPoly({}, 2), 4)
    assert list(series.coefficients) == [1, 0, 0, 0, 0]


def _classical_period_by_powers(f, order):
    """The direct oracle: multiply out ``f^k`` and read each constant term."""
    constants = []
    power = LaurentPoly.constant(1, f.nvars)
    for _ in range(order + 1):
        constants.append(power.terms.get((0,) * f.nvars, 0))
        power = power * f
    return constants


@st.composite
def _laurent_polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    bound = draw(st.sampled_from([3, 10**6]))
    exponents = st.tuples(*[st.integers(min_value=-bound, max_value=bound)] * nvars)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return LaurentPoly(draw(st.dictionaries(exponents, coefficients, max_size=5)), nvars)


@given(f=_laurent_polys())
@example(f=LaurentPoly({}, 1))
@example(f=LaurentPoly({}, 2))
@example(f=LaurentPoly({}, 3))
# Newton polygon off the origin: every x-exponent is positive.
@example(f=LaurentPoly({(1, 0): 1, (2, -1): 3, (1, 10**6): FR(-2, 3)}, 2))
@example(f=LaurentPoly({(10**6,): 2, (-1,): FR(1, 3), (0,): -1}, 1))
# At order 9 (h = 5), x^(4E) times x^(E+1)/y is (hE + 1, -1), and y^8 times
# y^3/z is (0, hE + 1, -1) with E = 2: a stride of hE + 1 reads each as the
# origin, in the first and in the second stride.
@example(f=LaurentPoly({(10**6, 0): 1, (1, -1): 1, (0, 0): 1}, 2))
@example(f=LaurentPoly({(0, 2, 0): 1, (0, 1, -1): 1, (0, 0, 0): 1}, 3))
# At order 10 (h = 5, E = 1), x^9 times x/y is (2hE, -1): a stride of 2hE
# reads it as the origin.
@example(f=LaurentPoly({(1, 0): 1, (1, -1): 1}, 2))
@settings(max_examples=100, deadline=None)
def test_classical_period_matches_repeated_products(f):
    """Exact at every order, with exponents up to 10^6: the integer keys of
    ``classical_period`` never merge two exponent vectors."""
    expected = _classical_period_by_powers(f, 10)
    for order in range(11):
        assert list(classical_period(f, order).coefficients) == expected[: order + 1]


def test_classical_period_in_three_variables_matches_closed_form():
    """``[(x + y + z + 1/(xyz))^n]_0`` is ``n!/(k!)^4`` for ``n = 4k`` and 0
    otherwise; the key of a three-variable exponent uses two strides."""
    f = LaurentPoly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}, 3)
    expected = [
        factorial(n) // factorial(n // 4) ** 4 if n % 4 == 0 else 0 for n in range(25)
    ]
    assert list(classical_period(f, 24).coefficients) == expected


def _closed_form_classical(d, order):
    """``sum_j C(k,j) (-alpha)^(k-j) j! (d1 j)!/prod_i (a_i j)!`` for ``k <= order``.

    The ``j!`` is the regularization; it cancels one unit weight, which leaves
    the multinomial coefficient ``(d1 j)! / (j! (a3 j)! (a4 j)!)``.
    """
    weights, d1 = WEIGHTS[d]
    regularized = [
        FR(factorial(j) * factorial(d1 * j), prod(factorial(a * j) for a in weights))
        for j in range(order + 1)
    ]
    alpha = ALPHAS[d]
    assert regularized[1] == alpha
    return [
        sum(comb(k, j) * (-alpha) ** (k - j) * regularized[j] for j in range(k + 1))
        for k in range(order + 1)
    ]


@pytest.mark.parametrize("d,order", [(1, 24), (2, 28), (3, 30)])
def test_mirror_check_high_order_matches_closed_form(d, order):
    report = mirror_check(d, order)
    assert report.passed and report.first_mismatch is None
    assert list(report.classical.coefficients) == _closed_form_classical(d, order)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shifted_potential_has_vanishing_linear_constant(d):
    _series, alpha = quantum_period(weight_data(d), 2)
    shifted = przyjalkowski_g(d) - LaurentPoly.constant(alpha, 2)
    assert classical_period(shifted, 1).coefficient(1) == 0


# ---------------------------------------------------------------------------
# mirror check


@pytest.mark.parametrize("d,order", [(3, 12), (2, 10), (1, 8)])
def test_mirror_check_passes(d, order):
    report = mirror_check(d, order)
    assert isinstance(report, MirrorCheckReport)
    assert report.passed and report.first_mismatch is None
    assert report.alpha == ALPHAS[d]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mirror_check_full_order_matches_frozen(d):
    report = mirror_check(d, 12)
    assert report.passed
    assert list(report.regularized.coefficients) == REGULARIZED[d]
    assert list(report.classical.coefficients) == REGULARIZED[d]


# ---------------------------------------------------------------------------
# series type


def test_power_series_truncate_and_bounds():
    series = PowerSeries((FR(1), FR(2), FR(3)))
    assert series.order == 2
    assert series.coefficient(2) == FR(3)
    with pytest.raises(IndexError):
        series.coefficient(3)


def test_power_series_json_round_trip():
    series = PowerSeries((FR(1), FR(-3, 2), FR(0)))
    assert series.to_json() == ["1", "-3/2", "0"]
    assert PowerSeries(tuple(FR(c) for c in series.to_json())) == series


# ---------------------------------------------------------------------------
# properties


def _random_unimodular(shears) -> list:
    matrix = [[1, 0], [0, 1]]
    for kind, n in shears:
        if kind == 0:
            matrix = [
                [matrix[0][0] + n * matrix[1][0], matrix[0][1] + n * matrix[1][1]],
                matrix[1],
            ]
        else:
            matrix = [
                matrix[0],
                [matrix[1][0] + n * matrix[0][0], matrix[1][1] + n * matrix[0][1]],
            ]
    return matrix


@given(
    d=st.sampled_from([1, 2, 3]),
    shears=st.lists(
        st.tuples(st.sampled_from([0, 1]), st.integers(min_value=-2, max_value=2)),
        max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_classical_period_invariant_under_unimodular_substitution(d, shears):
    matrix = _random_unimodular(shears)
    _series, alpha = quantum_period(weight_data(d), 2)
    f = przyjalkowski_g(d) - LaurentPoly.constant(alpha, 2)
    # y_i -> prod_j z_j^matrix[i][j]
    g = LaurentPoly({}, 2)
    for (e3, e4), c in f.terms.items():
        key = tuple(e3 * matrix[0][j] + e4 * matrix[1][j] for j in range(2))
        g = g + LaurentPoly({key: c}, 2)
    assert classical_period(g, 8) == classical_period(f, 8)
