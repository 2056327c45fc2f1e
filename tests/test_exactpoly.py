"""Tests for exact sparse polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from dpmirror.exactpoly import (
    LaurentPoly,
    UniPoly,
    cofactor,
    disc_cubic,
    poly_gcd,
    rational_roots,
    squarefree_factorization,
    valuation_at,
)
from hv_oracle import depress_cubic, disc_quadratic_in_y

# Small exact rationals for property tests.
rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def unipoly_strategy(max_degree: int = 6) -> st.SearchStrategy[UniPoly]:
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(
        lambda coeffs: UniPoly(dict(enumerate(coeffs)))
    )


def value_at(p: UniPoly | LaurentPoly, x: Fraction) -> Fraction:
    """p(x) in exact ``Fraction`` arithmetic, term by term; a Laurent
    polynomial is in one variable."""
    return sum(
        (c * x ** (e if isinstance(e, int) else e[0]) for e, c in p.terms.items()),
        Fraction(0),
    )


# UniPoly is a value type: tests build its products and powers with sympy.
X = sp.Symbol("x")


def sympy_poly(p: UniPoly) -> sp.Poly:
    """``p`` as a dense sympy polynomial over QQ, built from its coefficients."""
    coeffs = [p.coefficient(e) for e in range(p.degree(), -1, -1)]
    return sp.Poly.from_list(
        [sp.QQ(c.numerator, c.denominator) for c in coeffs], X, domain=sp.QQ
    )


def from_sympy(poly: sp.Poly) -> UniPoly:
    coeffs = enumerate(reversed(poly.rep.to_list()))
    return UniPoly({e: Fraction(c.numerator, c.denominator) for e, c in coeffs})


def poly(expr: sp.Expr) -> UniPoly:
    """The polynomial in ``X`` that sympy expands ``expr`` to."""
    return from_sympy(sp.Poly(expr, X, domain=sp.QQ))


def mul(*factors: UniPoly) -> UniPoly:
    """The product of ``factors``, formed by sympy."""
    out = sp.Poly(1, X, domain=sp.QQ)
    for f in factors:
        out *= sympy_poly(f)
    return from_sympy(out)


def laurent_strategy(low: int = -2, high: int = 5) -> st.SearchStrategy[LaurentPoly]:
    """One-variable Laurent polynomials with exponents in [low, high]."""
    return st.dictionaries(st.integers(low, high), rationals, max_size=4).map(
        lambda terms: LaurentPoly({(e,): c for e, c in terms.items()}, 1)
    )


# ---------------------------------------------------------------------------
# construction and arithmetic


def test_zero_coefficients_are_dropped():
    p = UniPoly({3: 0, 1: 2})
    assert p.terms == {1: Fraction(2)}
    assert p.degree() == 1


def test_variable_tags_do_not_mix():
    p = UniPoly({1: 1}, var="lam")
    q = UniPoly({1: 1}, var="mu")
    with pytest.raises(ValueError):
        _ = p + q


def test_string_coefficients_parse_exactly():
    p = UniPoly({2: "3/7"})
    assert p.coefficient(2) == Fraction(3, 7)
    assert UniPoly({0: "-4/6"}).coefficient(0) == Fraction(-2, 3)
    assert str(UniPoly({0: "-4/6"}).coefficient(0)) == "-2/3"
    assert UniPoly({0: "-4/6", 3: 5}).to_pairs() == [[0, "-2/3"], [3, "5"]]


@given(laurent_strategy(), laurent_strategy(), laurent_strategy())
def test_multiplication_distributes_over_addition(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(laurent_strategy(), st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_product(p, n):
    expected = LaurentPoly.constant(1, 1)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(unipoly_strategy(), unipoly_strategy())
def test_derivative_is_leibniz(p, q):
    assert mul(p, q).derivative() == mul(p.derivative(), q) + mul(p, q.derivative())


def shifted(p: LaurentPoly, c: Fraction) -> LaurentPoly:
    """p(y + c), expanded with the ring operations."""
    out = LaurentPoly({}, 1)
    for e, coeff in p.terms.items():
        step = LaurentPoly({(1,): 1, (0,): c}, 1)
        out = out + step ** e[0] * LaurentPoly.constant(coeff, 1)
    return out


@given(laurent_strategy(low=0, high=4), rationals)
def test_shift_then_evaluate_agrees(p, c):
    moved = shifted(p, c)
    for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        assert value_at(moved, x) == value_at(p, x + c)


@given(unipoly_strategy(5), st.lists(rationals, max_size=3, unique=True))
def test_division_reconstructs_dividend(p, roots):
    """Dividing the linear factors of ``roots`` back out of p * prod(x - r)
    leaves the monic multiple of p."""
    if p.is_zero():
        return
    dividend = mul(p, *(UniPoly({1: 1, 0: -r}) for r in roots))
    monic = UniPoly({e: c / p.leading_coefficient() for e, c in p.terms.items()})
    assert cofactor(dividend, roots) == monic


# ---------------------------------------------------------------------------
# valuations


def test_valuation_at_origin_is_min_exponent():
    p = UniPoly({8: -256, 9: 1})
    assert valuation_at(p, 0) == 8


def test_valuation_at_shifted_point():
    p = poly((X - 3) ** 4 * (2 * X + 1))
    assert valuation_at(p, 3) == 4
    assert valuation_at(p, Fraction(-1, 2)) == 1
    assert valuation_at(p, 5) == 0


def test_valuation_of_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        valuation_at(UniPoly(), 0)


# ---------------------------------------------------------------------------
# squarefree factorization


def test_squarefree_factorization_of_known_product():
    f = UniPoly({1: 1, 0: -1})  # x - 1
    g = UniPoly({1: 1, 0: 2})  # x + 2
    p = poly(5 * (X - 1) ** 3 * (X + 2))
    unit, factors = squarefree_factorization(p)
    assert unit == Fraction(5)
    assert factors == [(g, 1), (f, 3)]


@given(st.lists(rationals, min_size=1, max_size=3),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_squarefree_reconstruction(roots, mults):
    n = min(len(roots), len(mults))
    roots, mults = roots[:n], mults[:n]
    p = mul(UniPoly.constant(3),
            *(UniPoly({1: 1, 0: -r}) for r, m in zip(roots, mults) for _ in range(m)))
    unit, factors = squarefree_factorization(p)
    assert mul(UniPoly.constant(unit), *(f for f, m in factors for _ in range(m))) == p
    for f, _ in factors:
        assert poly_gcd(f, f.derivative()).degree() == 0


# ---------------------------------------------------------------------------
# the integer algebra against sympy, at numerators and denominators up to 10^300

BIG = 10**300


def digits(n: int):
    """Integers of exactly ``n`` decimal digits; 0 is the one of 0 digits."""
    return st.integers(min_value=10 ** (n - 1) if n else 0, max_value=10**n - 1)


# The digit count is drawn before the digits, because hypothesis's integer
# draws favour small magnitudes; so the sizes spread over 1 to 300 digits.
sized_integers = st.integers(min_value=1, max_value=300).flatmap(digits)
huge_rationals = st.builds(
    lambda num, sign, den: sign * Fraction(num, den),
    st.integers(min_value=0, max_value=300).flatmap(digits),
    st.sampled_from([1, -1]), sized_integers,
)
nonzero_huge = huge_rationals.filter(bool)
# A rational factor of degree 1 or 2, with a nonzero leading coefficient.
factors = st.builds(
    lambda low, lead: UniPoly(dict(enumerate([*low, lead]))),
    st.lists(huge_rationals, min_size=1, max_size=2), nonzero_huge,
)
factor_powers = st.lists(
    st.tuples(factors, st.integers(min_value=1, max_value=4)), max_size=2
)
# Shrinking draws of this size takes minutes and hundreds of MiB, so a
# failure here reports the example as drawn.
huge_settings = settings(
    max_examples=40, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


def product(unit: Fraction, powers) -> UniPoly:
    return mul(UniPoly.constant(unit), *(f for f, m in powers for _ in range(m)))


@given(factor_powers, factor_powers, factor_powers, nonzero_huge, nonzero_huge)
@huge_settings
@example([], [], [], Fraction(1), Fraction(1))
def test_gcd_matches_sympy_over_the_rationals(shared, only_p, only_q, up, uq):
    p = product(up, shared + only_p)
    q = product(uq, shared + only_q)
    expected = from_sympy(sympy_poly(p).gcd(sympy_poly(q)))
    assert poly_gcd(p, q) == expected
    assert poly_gcd(q, p) == expected
    assert poly_gcd(p, UniPoly()) == from_sympy(sympy_poly(p).monic())
    assert poly_gcd(UniPoly(), UniPoly()) == UniPoly()


@given(factor_powers, nonzero_huge)
@huge_settings
@example([(UniPoly({0: 1, 1: 2}), 2), (UniPoly({0: 2, 1: 4}), 1)], Fraction(-3, 7))
@example([(UniPoly({0: Fraction(BIG - 1, BIG), 2: Fraction(-BIG, 7)}), 4)],
         Fraction(1, BIG))
def test_squarefree_factorization_matches_sympy_sqf_list(powers, unit):
    p = product(unit, powers)
    coeff, expected = sympy_poly(p).sqf_list()
    got_unit, got = squarefree_factorization(p)
    assert got_unit == Fraction(int(coeff.p), int(coeff.q)) == p.leading_coefficient()
    assert got == [(from_sympy(f), m) for f, m in expected]


@given(st.lists(huge_rationals, max_size=5), st.lists(huge_rationals, max_size=7))
@huge_settings
def test_disc_cubic_matches_sympy_expansion(a_coeffs, b_coeffs):
    a, b = UniPoly(dict(enumerate(a_coeffs))), UniPoly(dict(enumerate(b_coeffs)))
    expected = 4 * sympy_poly(a) ** 3 + 27 * sympy_poly(b) ** 2
    assert disc_cubic(a, b) == from_sympy(expected)


@given(nonzero_huge, huge_rationals, st.integers(min_value=0, max_value=6),
       factor_powers)
@huge_settings
def test_valuation_counts_the_linear_factor(unit, root, order, powers):
    rest = product(unit, powers)
    if value_at(rest, root) == 0:
        return
    p = mul(rest, *[UniPoly({1: 1, 0: -root})] * order)
    assert valuation_at(p, root) == order


# ---------------------------------------------------------------------------
# cubic invariants


def test_disc_cubic_of_constant_pair():
    out = disc_cubic(UniPoly(), UniPoly.constant(1))
    assert out == UniPoly.constant(27)


def test_disc_cubic_of_degree_three_family():
    # a = -lam^4/3 + 8 lam^3, b = 2 lam^6/27 - 8 lam^5/3 + 16 lam^4;
    # the invariant collapses to -256 lam^8 (lam - 27).
    a = UniPoly({4: Fraction(-1, 3), 3: 8})
    b = UniPoly({6: Fraction(2, 27), 5: Fraction(-8, 3), 4: 16})
    out = disc_cubic(a, b)
    assert out == UniPoly({9: -256, 8: 6912})
    assert valuation_at(out, 0) == 8
    assert valuation_at(out, 27) == 1


def test_perturbed_invariant_is_separable_degree_nine():
    a = UniPoly({4: Fraction(-1, 3), 3: 8, 0: Fraction(1, 100)})
    b = UniPoly({6: Fraction(2, 27), 5: Fraction(-8, 3), 4: 16})
    out = disc_cubic(a, b)
    assert out.degree() == 9
    assert poly_gcd(out, out.derivative()).degree() == 0


@given(rationals.filter(bool))
def test_disc_cubic_vanishes_on_double_roots(r):
    # (x - r)^2 (x + 2r) = x^3 - 3 r^2 x + 2 r^3 stays depressed.
    a = UniPoly.constant(-3 * r * r)
    b = UniPoly.constant(2 * r**3)
    assert disc_cubic(a, b).is_zero()


@given(rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_disc_cubic_nonzero_on_distinct_roots(u, v, w):
    if len({u, v, w}) < 3 or u + v + w != 0:
        return
    # depressed cubic with roots u, v, w
    a = UniPoly.constant(u * v + u * w + v * w)
    b = UniPoly.constant(-u * v * w)
    assert not disc_cubic(a, b).is_zero()


# ---------------------------------------------------------------------------
# quadratic-in-y discriminants


def lam_x(terms) -> LaurentPoly:
    """A polynomial in (lam, x), keyed by exponent pairs."""
    return LaurentPoly(terms, nvars=2)


def test_disc_quadratic_simple_square():
    # y^2 - c: A = 1, B = 0, C = -c
    A = lam_x({(0, 0): 1})
    B = lam_x({})
    C = lam_x({(2, 0): -1})
    out = disc_quadratic_in_y(A, B, C)
    assert out == lam_x({(2, 0): 4})


def test_disc_quadratic_degree_three_curve():
    # A = -lam x, B = lam x - 1, C = -lam x^2 gives (-lam x + 1)^2 - 4 lam^2 x^3.
    A = lam_x({(1, 1): -1})
    B = lam_x({(1, 1): 1, (0, 0): -1})
    C = lam_x({(1, 2): -1})
    out = disc_quadratic_in_y(A, B, C)
    assert out == lam_x({(2, 3): -4, (2, 2): 1, (1, 1): -2, (0, 0): 1})


def test_disc_quadratic_degree_one_curve_after_clearing():
    # A = -lam x^2, B = lam x^2, C = -lam x^3 - 1; dividing the output by x^2
    # leaves -4 lam^2 x^3 + lam^2 x^2 - 4 lam.
    A = lam_x({(1, 2): -1})
    B = lam_x({(1, 2): 1})
    C = lam_x({(1, 3): -1, (0, 0): -1})
    out = disc_quadratic_in_y(A, B, C) * LaurentPoly.monomial((0, -2))
    assert out == lam_x({(2, 3): -4, (2, 2): 1, (1, 0): -4})


# ---------------------------------------------------------------------------
# depressing general cubics


def test_depress_cubic_identity_when_already_depressed():
    one = UniPoly.constant(1)
    zero = UniPoly()
    c = UniPoly({2: 5})
    d = UniPoly({1: -7})
    assert depress_cubic(one, zero, c, d) == (c, d)


def test_depress_cubic_with_quadratic_term():
    one = UniPoly.constant(1)
    three = UniPoly.constant(3)
    zero = UniPoly()
    a, b = depress_cubic(one, three, zero, zero)
    assert a == UniPoly.constant(-3)
    assert b == UniPoly.constant(2)


def test_depress_cubic_reproduces_reference_weierstrass_data():
    lam = sp.symbols("lam")
    x = sp.symbols("x")
    cases = {
        3: ((-lam * x, lam * x - 1, -lam * x**2),
            {4: Fraction(-1, 3), 3: 8},
            {6: Fraction(2, 27), 5: Fraction(-8, 3), 4: 16}),
        2: ((-lam * x, lam * x, -lam * x**2 - 1),
            {4: Fraction(-1, 3), 3: 16},
            {6: Fraction(2, 27), 5: Fraction(-16, 3)}),
    }
    for _, ((Ay, By, Cy), a_terms, b_terms) in cases.items():
        disc = sp.expand(By**2 - 4 * Ay * Cy)
        poly = sp.Poly(disc, x)
        coeffs = poly.all_coeffs()
        coeffs = [sp.Integer(0)] * (4 - len(coeffs)) + coeffs
        unis = []
        for cexpr in coeffs:
            terms = sp.Poly(cexpr, lam).as_dict()
            unis.append(UniPoly({k[0]: Fraction(int(sp.numer(v)), int(sp.denom(v)))
                                 for k, v in terms.items()}))
        a_out, b_out = depress_cubic(*unis)
        assert a_out == UniPoly(a_terms)
        assert b_out == UniPoly(b_terms)


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_depress_cubic_scales_resultant_discriminant(coeffs):
    A, B, C, D = coeffs
    if A == 0:
        return
    a, b = depress_cubic(*(UniPoly.constant(c) for c in coeffs))
    invariant = disc_cubic(a, b).coefficient(0)
    x = sp.symbols("x")
    f = sp.Rational(A) * x**3 + sp.Rational(B) * x**2 + sp.Rational(C) * x + sp.Rational(D)
    oracle = sp.discriminant(f, x)
    # 4a^3 + 27b^2 equals -(A^2) times the discriminant of the input cubic.
    assert sp.Rational(invariant) == -sp.Rational(A) ** 2 * oracle


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_trinomial_cube_monomial_data():
    y3 = LaurentPoly.monomial((1, 0))
    y4 = LaurentPoly.monomial((0, 1))
    one = LaurentPoly.constant(1, 2)
    cube = (one + y3 + y4) ** 3
    assert len(cube.terms) == 10
    assert cube.terms[(1, 1)] == Fraction(6)
    square_of_cube = cube * cube
    assert len(square_of_cube.terms) == 28


def test_laurent_negative_exponents_multiply():
    y = LaurentPoly.monomial((1,))
    yinv = LaurentPoly.monomial((-1,))
    assert (y * yinv) == LaurentPoly.constant(1, 1)
    f = y + yinv
    assert (f * f).terms[(0,)] == Fraction(2)


# ---------------------------------------------------------------------------
# serialization round-trips


@given(unipoly_strategy())
def test_unipoly_json_round_trip(p):
    pairs = p.to_pairs()
    assert [e for e, _ in pairs] == sorted(p.terms)
    assert UniPoly({e: Fraction(c) for e, c in pairs}) == p


# ---------------------------------------------------------------------------
# rational roots


def rational_roots_by_fraction_evaluation(p: UniPoly) -> list:
    """The candidate loop of ``rational_roots`` with each candidate tested by
    ``Fraction`` evaluation, as it was before the integer tests; the oracle."""
    roots = []
    shift = min(p.terms)
    if shift > 0:
        roots.append(Fraction(0))
        p = UniPoly({e - shift: c for e, c in p.terms.items()}, p.var)
    if p.degree() == 0:
        return roots
    lcm = 1
    for c in p.terms.values():
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = {e: int(c * lcm) for e, c in p.terms.items()}
    content = 0
    for c in ints.values():
        content = gcd(content, c)
    for num in sp.divisors(ints[min(ints)] // content):
        for den in sp.divisors(ints[max(ints)] // content):
            if gcd(num, den) == 1:
                for candidate in (Fraction(num, den), Fraction(-num, den)):
                    if value_at(p, candidate) == 0:
                        roots.append(candidate)
    return sorted(set(roots))


# Roots 0, 1 and -1 (top = +-den) drawn often, beside general small rationals.
root_choices = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(root_choices, max_size=5),
    st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=3),
    st.integers(-20, 20).filter(lambda c: c != 0),
    st.integers(-20, 20).filter(lambda c: c != 0),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
@example([Fraction(0), Fraction(0)], [], 1, 1, Fraction(1))
@example([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)], [], 6, -5,
         Fraction(7, 3))
@example([], [10 ** 30, -10 ** 30], 3, 1, Fraction(1))
def test_rational_roots_match_fraction_evaluation(roots, middle, trail, lead, scale):
    """Linear factors times a cofactor with small end coefficients (so its
    divisors are cheap) and middle coefficients up to 10^30."""
    cofactor_coeffs = [trail, *middle, lead]
    p = mul(UniPoly({k: scale * c for k, c in enumerate(cofactor_coeffs) if c}),
            *(UniPoly({1: r.denominator, 0: -r.numerator}) for r in roots))
    expected = rational_roots_by_fraction_evaluation(p)
    assert rational_roots(p) == expected
    assert set(roots) <= set(expected)


# Rational roots planted with multiplicity 1 or 2, numerators and
# denominators of 1 to 300 digits, times a monic integer cofactor of
# degree <= 3.
sized_rationals = st.builds(
    lambda sign, num, den: sign * Fraction(num, den),
    st.sampled_from([1, -1]), sized_integers, sized_integers,
)
planted_roots = st.lists(
    st.tuples(sized_rationals, st.integers(min_value=1, max_value=2)), max_size=3
)
cofactors = st.lists(st.integers(min_value=-BIG, max_value=BIG), max_size=3).map(
    lambda coeffs: [*coeffs, 1]
)


@huge_settings
@given(planted_roots, cofactors, st.integers(min_value=0, max_value=2), nonzero_huge)
@example([(Fraction(2, 3), 2), (Fraction(-BIG, 7), 1)], [1], 0, Fraction(1))
@example([(Fraction(5, 2), 1)], [1], 3, Fraction(-4, 9))
@example([(Fraction(BIG - 1, 3), 1)], [-7, 0, 1], 0, Fraction(1))
@example([(Fraction(1), 1), (Fraction(4), 1)], [1], 0, Fraction(1))
def test_rational_roots_match_sympy_at_huge_roots(planted, cofactor, shift, unit):
    """Every planted root is found, and the list is the rational zero set of
    a sympy factorization over QQ.  The explicit examples are a repeated
    root, an x^k shift, the cofactor x^2 - 7 (roots 1 and 2 mod 3, which
    lift to no rational root) and roots 1 and 4, which meet mod 3."""
    p = mul(UniPoly({shift + k: unit * c for k, c in enumerate(cofactor) if c}),
            *(UniPoly({1: r.denominator, 0: -r.numerator})
              for r, m in planted for _ in range(m)))
    found = rational_roots(p)
    zeros = sympy_poly(p).ground_roots()
    expected = sorted(Fraction(int(r.p), int(r.q)) for r in zeros)
    assert found == expected
    assert {r for r, _ in planted} | ({Fraction(0)} if shift else set()) <= set(found)
