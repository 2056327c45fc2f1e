"""An independent oracle for the catalog: the hyperelliptic reduction.

The catalog models of ``dpmirror.weierstrass`` are written by hand.  This
module derives them again from the Hori--Vafa style curve presentations
``lam * (1 - x/y - y) * (x/y)^a3 * y^a4 = 1``, so that
``tests/test_weierstrass.py`` and ``tests/test_acceptance.py`` can check the
catalog against it.  No library code calls it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from dpmirror.exactpoly import LaurentPoly, UniPoly
from dpmirror.weierstrass import FiberClassificationError, WeierstrassModel

# Exponents (a3, a4) of the two non-trivial weights entering the curve
# presentation lam * (1 - x/y - y) * (x/y)^a3 * y^a4 = 1 for each degree.
_HV_EXPONENTS: Dict[int, Tuple[int, int]] = {1: (2, 3), 2: (1, 2), 3: (1, 1)}


def disc_quadratic_in_y(A: LaurentPoly, B: LaurentPoly, C: LaurentPoly) -> LaurentPoly:
    """Discriminant B^2 - 4AC of the quadratic A y^2 + B y + C."""
    return B ** 2 - A * C * LaurentPoly.constant(4, A.nvars)


def depress_cubic(A: UniPoly, B: UniPoly, C: UniPoly, D: UniPoly) -> Tuple[UniPoly, UniPoly]:
    """Reduce ``w^2 = A x^3 + B x^2 + C x + D`` to ``y^2 = X^3 + a X + b``.

    The substitution (x, w) -> ((X - B/3)/A, Y/A) clears the leading
    coefficient and the quadratic term; the exact output scaling is

        a = C*A - B^2/3,      b = D*A^2 - B*C*A/3 + 2 B^3/27.

    UniPoly is a value type, so the algebra runs on one-variable
    Laurent polynomials.
    """
    A, B, C, D = (LaurentPoly({(e,): c for e, c in p.terms.items()}) for p in (A, B, C, D))
    third = LaurentPoly.constant(Fraction(1, 3), 1)
    a = C * A - B ** 2 * third
    b = D * A ** 2 - B * C * A * third + B ** 3 * LaurentPoly.constant(Fraction(2, 27), 1)
    a_out, b_out = (UniPoly({e: c for (e,), c in f.terms.items()}) for f in (a, b))
    return a_out, b_out


class HVReduction(NamedTuple):
    """Intermediates of the curve-presentation to Weierstrass reduction."""

    # (A, B, C) with A y^2 + B y + C, each a polynomial in (lam, x)
    quadratic: Tuple[LaurentPoly, LaurentPoly, LaurentPoly]
    y_discriminant: LaurentPoly  # B^2 - 4AC, after clearing excess x powers
    model: WeierstrassModel


def hv_to_weierstrass(d: int) -> HVReduction:
    """Reduce the degree-``d`` curve presentation to Weierstrass form.

    Starting from ``lam * (1 - y3 - y4) * y3^a3 * y4^a4 = 1`` with
    ``y3 = x/y`` and ``y4 = y``, the equation is cleared to a quadratic in
    ``y``, its ``y``-discriminant is taken, excess powers of ``x`` are
    divided out, and the resulting cubic in ``x`` is depressed.
    """
    a3, a4 = _HV_EXPONENTS[d]
    # Work in Laurent variables (lam, x, y); y3 = x / y and y4 = y.
    lam = LaurentPoly.monomial((1, 0, 0))
    y4 = LaurentPoly.monomial((0, 0, 1))
    one = LaurentPoly.constant(1, 3)
    y3 = LaurentPoly.monomial((0, 1, -1))
    curve = lam * (one - y3 - y4) * y3**a3 * y4**a4 - one
    # Clear denominators in y.
    min_y = min(e[2] for e in curve.terms)
    if min_y < 0:
        curve = curve * LaurentPoly.monomial((0, 0, -min_y))
    y_deg = max(e[2] for e in curve.terms)
    if y_deg != 2:
        raise FiberClassificationError(
            f"curve presentation for d={d} is not quadratic in y (degree {y_deg})"
        )
    coeffs: List[LaurentPoly] = []
    for k in (2, 1, 0):
        terms = {(el, ex): c for (el, ex, ey), c in curve.terms.items() if ey == k}
        if any(el < 0 or ex < 0 for el, ex in terms):
            raise FiberClassificationError("unexpected pole after clearing")
        coeffs.append(LaurentPoly(terms, 2))
    A, B, C = coeffs
    disc = disc_quadratic_in_y(A, B, C)
    excess = max((ex for _, ex in disc.terms), default=-1) - 3
    if excess > 0:
        if any(ex < excess for _, ex in disc.terms):
            raise FiberClassificationError(
                f"the y-discriminant is not divisible by x^{excess}"
            )
        disc = disc * LaurentPoly.monomial((0, -excess))
    unis = [
        UniPoly({el: c for (el, ex), c in disc.terms.items() if ex == k})
        for k in (3, 2, 1, 0)
    ]
    a_out, b_out = depress_cubic(*unis)
    return HVReduction((A, B, C), disc, WeierstrassModel(a_out, b_out))
