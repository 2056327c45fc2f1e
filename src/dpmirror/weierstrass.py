"""Weierstrass models of rational elliptic fibrations over the affine line.

A model is a pair of univariate polynomials ``(a, b)`` standing for the
fibration ``y^2 = x^3 + a(lam) x + b(lam)``.  The module provides

* a small catalog of reference fibrations indexed by an integer degree
  ``d in {1, 2, 3}``, together with their standard perturbations,
* exact Kodaira fiber classification from coefficient valuations, and
* full fiber configurations over the projective line, with the Euler-number
  count certifying completeness.

Places are rational numbers (serialized ``"num/den"``) or ``"inf"``; groups
of Galois-conjugate irrational places are reported through their common
minimal polynomial factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from ._record import Record
from .exactpoly import (
    Rational,
    UniPoly,
    cofactor,
    disc_cubic,
    poly_gcd,
    rational_roots,
    squarefree_factorization,
    valuation_at,
)

# A place on the projective line: a rational base point or the point at
# infinity (represented by the string "inf").
Place = Union[Fraction, str]

# Euler numbers of the Kodaira types handled here (I_n and I_n* carry their
# index separately).
_EULER: Dict[str, int] = {
    "I0": 0, "II": 2, "III": 3, "IV": 4,
    "IV*": 8, "III*": 9, "II*": 10,
}


class FiberClassificationError(ValueError):
    """Raised when a fiber configuration cannot be certified exactly."""


class UncertifiedPlacesError(FiberClassificationError):
    """Raised when a discriminant factor leaves, after its rational roots are
    divided out, a factor over irrational places that is not certifiably
    nodal."""


class WeierstrassModel(Record):
    """Coefficients of ``y^2 = x^3 + a(t) x + b(t)`` over one affine chart."""

    a: UniPoly  # quartic-bounded coefficient of x
    b: UniPoly  # sextic-bounded constant coefficient

    def __post_init__(self) -> None:
        if self.a.var != self.b.var:
            raise ValueError("coefficients live on different charts")

    @property
    def var(self) -> str:
        return self.a.var

    # Formed once per model object and kept in its instance dict; equality,
    # hashing and repr read only (a, b).
    _invariant = cached_property(lambda self: disc_cubic(self.a, self.b))
    _factors = cached_property(lambda self: squarefree_factorization(self._invariant))
    _at_infinity = cached_property(lambda self: chart_at_infinity(self))

    def discriminant_scale(self) -> UniPoly:
        """The invariant 4a^3 + 27b^2 governing singular fibers."""
        return self._invariant

    def to_json(self) -> Dict[str, object]:
        return {"a": self.a.to_pairs(), "b": self.b.to_pairs()}


class KodairaFiber(Record):
    """A classified singular fiber."""

    type_name: str  # "I0", "In", "In*", "II", ..., "II*", or "NonMinimal"
    index: int  # n for "In"/"In*", else 0
    v_a: int  # valuation of a at the place
    v_b: int  # valuation of b at the place
    v_disc: int  # valuation of 4a^3 + 27b^2 at the place

    @property
    def label(self) -> str:
        if self.type_name == "In":
            return f"I{self.index}"
        if self.type_name == "In*":
            return f"I{self.index}*"
        return self.type_name

    @property
    def euler_number(self) -> int:
        if self.type_name == "In":
            return self.index
        if self.type_name == "In*":
            return 6 + self.index
        if self.type_name == "NonMinimal":
            raise FiberClassificationError("non-minimal fiber has no Euler number here")
        return _EULER[self.type_name]


class FiberPlacement(Record):
    """A fiber (or group of conjugate fibers) at a place of the base."""

    place: Optional[Place]  # rational place, "inf", or None for a group
    fiber: KodairaFiber
    count: int = 1  # number of conjugate places sharing this fiber
    factor: Optional[UniPoly] = None  # minimal polynomial of a grouped place

    def place_string(self) -> str:
        if self.place == "inf":
            return "inf"
        if self.place is not None:
            return str(self.place)
        return "roots(" + ",".join(
            f"{e}:{c}" for e, c in sorted(self.factor.terms.items())
        ) + ")"


class FiberConfiguration(Record):
    """All singular fibers of a model over the projective line."""

    model: WeierstrassModel
    placements: Tuple[FiberPlacement, ...]

    def euler_total(self) -> int:
        return sum(p.count * p.fiber.euler_number for p in self.placements)

    def to_json(self) -> Dict[str, object]:
        return {
            "model": self.model.to_json(),
            "fibers": [
                {
                    "place": p.place_string(),
                    "type": p.fiber.label,
                    "count": p.count,
                    "v_a": p.fiber.v_a,
                    "v_b": p.fiber.v_b,
                    "v_disc": p.fiber.v_disc,
                }
                for p in self.placements
            ],
            "euler_total": self.euler_total(),
        }


# ---------------------------------------------------------------------------
# catalog


def catalog(d: int, perturbation: Rational | None = None) -> WeierstrassModel:
    """Reference Weierstrass data for degree ``d`` in {1, 2, 3}.

    With ``perturbation`` epsilon, returns the standard deformation
    ``(a + epsilon, b)`` used to split degenerate fibers into nodal ones.
    """
    if d == 1:
        a = UniPoly({4: Fraction(-1, 3)})
        b = UniPoly({6: Fraction(2, 27), 5: -64})
    elif d == 2:
        a = UniPoly({4: Fraction(-1, 3), 3: 16})
        b = UniPoly({6: Fraction(2, 27), 5: Fraction(-16, 3)})
    elif d == 3:
        a = UniPoly({4: Fraction(-1, 3), 3: 8})
        b = UniPoly({6: Fraction(2, 27), 5: Fraction(-8, 3), 4: 16})
    else:
        raise ValueError(f"no catalog entry for degree {d}")
    if perturbation is not None:
        a = a + UniPoly.constant(perturbation)
    return WeierstrassModel(a, b)


def reference_nodal_place(d: int) -> Fraction:
    """The unique nonzero rational place carrying a nodal fiber, per degree."""
    return {1: Fraction(432), 2: Fraction(64), 3: Fraction(27)}[d]


# ---------------------------------------------------------------------------
# minimality


def chart_at_infinity(model: WeierstrassModel) -> WeierstrassModel:
    """The same fibration in the coordinate at infinity ``mu = 1/lam``.

    The substitution (x, y) -> (x/mu^2, y/mu^3) turns coefficients into
    ``mu^4 a(1/mu)`` and ``mu^6 b(1/mu)``; degrees above (4, 6) would leave
    poles and are rejected.
    """
    if model.a.degree() > 4 or model.b.degree() > 6:
        raise ValueError("coefficients exceed degrees (4, 6); no smooth chart at infinity")
    other = "mu" if model.var == "lam" else "lam"
    a = UniPoly({4 - e: c for e, c in model.a.terms.items()}, other)
    b = UniPoly({6 - e: c for e, c in model.b.terms.items()}, other)
    return WeierstrassModel(a, b)


class MinimalityReport(Record):
    """Outcome of the global minimality test."""

    is_minimal: bool
    violation: Optional[str] = None  # human-readable first violation


def is_globally_minimal(model: WeierstrassModel) -> MinimalityReport:
    """Check that the model is a relatively minimal rational elliptic surface.

    Tested in order: degree bounds deg a <= 4 and deg b <= 6; a not
    identically-degenerate discriminant invariant; the invariant not a pure
    twelfth power ``const * (lam - r)^12`` of a linear form; and at every
    rational zero of the invariant (and at infinity) the valuation bound
    ``v(a) < 4 or v(b) < 6``.  Returns the first violation found.
    """
    if model.a.degree() > 4:
        return MinimalityReport(False, f"deg a = {model.a.degree()} exceeds 4")
    if model.b.degree() > 6:
        return MinimalityReport(False, f"deg b = {model.b.degree()} exceeds 6")
    disc = model.discriminant_scale()
    if disc.is_zero():
        return MinimalityReport(False, "discriminant invariant vanishes identically")
    _unit, factors = model._factors
    if len(factors) == 1 and factors[0][1] == 12 and factors[0][0].degree() == 1:
        root = -factors[0][0].coefficient(0) / factors[0][0].coefficient(1)
        return MinimalityReport(
            False, f"discriminant invariant is a twelfth power at lam = {root}"
        )
    for factor, _multiplicity in factors:
        if factor.degree() != 1:
            continue
        root = -factor.coefficient(0) / factor.coefficient(1)
        v_a = valuation_at(model.a, root) if not model.a.is_zero() else 12
        v_b = valuation_at(model.b, root) if not model.b.is_zero() else 12
        if v_a >= 4 and v_b >= 6:
            return MinimalityReport(
                False, f"non-minimal at lam = {root}"
            )
    inf = model._at_infinity
    disc_inf = inf.discriminant_scale()
    if not disc_inf.is_zero() and valuation_at(disc_inf, 0) > 0:
        v_a = valuation_at(inf.a, 0) if not inf.a.is_zero() else 12
        v_b = valuation_at(inf.b, 0) if not inf.b.is_zero() else 12
        if v_a >= 4 and v_b >= 6:
            return MinimalityReport(False, "non-minimal at infinity")
    return MinimalityReport(True)


# ---------------------------------------------------------------------------
# fiber classification


def classify_fiber_at(model: WeierstrassModel, place: Place) -> KodairaFiber:
    """Kodaira type at one place from exact coefficient valuations."""
    if place == "inf":
        return classify_fiber_at(model._at_infinity, Fraction(0))
    point = place if isinstance(place, Fraction) else Fraction(str(place))
    disc = model.discriminant_scale()
    v_disc = valuation_at(disc, point)
    big = v_disc + 12  # stand-in for "infinite" valuation of a zero polynomial
    v_a = valuation_at(model.a, point) if not model.a.is_zero() else big
    v_b = valuation_at(model.b, point) if not model.b.is_zero() else big

    def fiber(name: str, index: int = 0) -> KodairaFiber:
        return KodairaFiber(name, index, min(v_a, big), min(v_b, big), v_disc)

    if v_disc == 0:
        return fiber("I0")
    if v_a == 0:
        return fiber("In", v_disc)
    if v_a >= 1 and v_b == 1:
        return fiber("II")
    if v_a == 1 and v_b >= 2:
        return fiber("III")
    if v_a >= 2 and v_b == 2:
        return fiber("IV")
    if v_a >= 2 and v_b >= 3 and v_disc == 6:
        return fiber("In*", 0)
    if v_a == 2 and v_b == 3 and v_disc > 6:
        return fiber("In*", v_disc - 6)
    if v_a >= 3 and v_b == 4:
        return fiber("IV*")
    if v_a == 3 and v_b >= 5:
        return fiber("III*")
    if v_a >= 4 and v_b == 5:
        return fiber("II*")
    if v_a >= 4 and v_b >= 6:
        return fiber("NonMinimal")
    raise FiberClassificationError(
        f"valuation triple (v_a, v_b, v_disc) = ({v_a}, {v_b}, {v_disc}) "
        "escaped the classification table"
    )


def fiber_configuration(model: WeierstrassModel) -> FiberConfiguration:
    """Classify every singular fiber over the projective line.

    Rational zeros of the discriminant invariant, all of them found exactly
    by ``rational_roots``, are classified one by one.  What is left of a
    factor once they are divided out lies over irrational places; it is
    accepted only when it is simple and coprime to both coefficients, which
    certifies a nodal fiber at each of its conjugate roots, and otherwise
    raises ``UncertifiedPlacesError``, reporting the factor, rather than
    guessing.  The Euler numbers must add up to 12.
    """
    report = is_globally_minimal(model)
    if not report.is_minimal:
        raise FiberClassificationError(f"model not globally minimal: {report.violation}")
    _unit, factors = model._factors
    placements: List[FiberPlacement] = []
    for factor, multiplicity in factors:
        roots = rational_roots(factor)
        for root in roots:
            placements.append(FiberPlacement(root, classify_fiber_at(model, root)))
        remainder = cofactor(factor, roots)
        if remainder.degree() == 0:
            continue
        coprime_a = (
            not model.a.is_zero() and poly_gcd(remainder, model.a).degree() == 0
        )
        coprime_b = (
            not model.b.is_zero() and poly_gcd(remainder, model.b).degree() == 0
        )
        if multiplicity == 1 and coprime_a and coprime_b:
            nodal = KodairaFiber("In", 1, 0, 0, 1)
            placements.append(
                FiberPlacement(None, nodal, count=remainder.degree(), factor=remainder)
            )
            continue
        raise UncertifiedPlacesError(
            "cannot certify fibers over irrational places: factor "
            f"{remainder.to_pairs()} has multiplicity {multiplicity}, "
            f"gcd with a {'constant' if coprime_a else 'non-constant'}, "
            f"gcd with b {'constant' if coprime_b else 'non-constant'}"
        )
    inf_fiber = classify_fiber_at(model, "inf")
    if inf_fiber.type_name != "I0":
        placements.append(FiberPlacement("inf", inf_fiber))

    def sort_key(p: FiberPlacement):
        if p.place == "inf":
            return (2, Fraction(0))
        if p.place is None:
            return (1, Fraction(p.factor.degree()))
        return (0, p.place)

    placements.sort(key=sort_key)
    config = FiberConfiguration(model, tuple(placements))
    total = config.euler_total()
    if total != 12:
        raise FiberClassificationError(
            f"Euler numbers sum to {total}, not 12; classification incomplete"
        )
    return config
