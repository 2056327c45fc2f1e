"""Quantum and classical period series, and the mirror coefficient check.

One side of the check expands the hypergeometric-style generating series

    sum_j (d1*j)! / prod_i (a_i*j)!  *  t^(iota*j),

attached to a weighted hypersurface datum with weights ``(a_1..a_4)`` and
constraint degree ``d1``, dressed by ``exp(-alpha*t)`` with ``alpha`` chosen
so the linear coefficient vanishes, then regularized term-by-term with a
factorial.  The other side expands a two-variable Laurent polynomial (the
weighted potential assigned to each degree) and collects the constant terms
of its successive powers.  It works in integers: with ``D`` the lcm of the
coefficient denominators and ``g = D*f``, it forms the half powers
``g^0 .. g^h`` with ``h = ceil(order/2)`` and reads each constant term from
one pairing of two of them,

    [f^k]_0 = sum_m [g^a]_m * [g^b]_(-m) / D^k,   a = floor(k/2),  b = k - a.

The half powers stay sparse dictionaries, but each exponent vector is keyed
by one integer (Kronecker substitution on the keys only; von zur Gathen and
Gerhard, *Modern Computer Algebra*, §8.4): ``key(e) = sum_i e_i * R^i``
with stride ``R = 2*h*E + 1``, where ``E`` is the largest ``|exponent|``
among the terms of ``f``.  Each coordinate of a monomial of ``g^j``,
``j <= h``, lies in ``[-hE, hE]``, which is one full set of balanced
residues modulo ``R``; so the signed digits of a key are unique, and
``key(a) + key(b) = key(a + b)``.  A term product adds two keys and the
pairing looks up ``-key(m)``.  This differs from dense Kronecker
substitution, which packs a whole polynomial, coefficients included, into
one big integer and multiplies those big integers: a prototype of that was
slower at every degree.  Here the dictionaries stay sparse and only their
keys are packed.

The two coefficient lists agree exactly; the check reports the first
mismatch if they ever do not.

All arithmetic is exact; every series carries its truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .exactpoly import LaurentPoly

# The three catalog degrees and their weighted hypersurface data: the degree-d
# surface is a hypersurface of degree ``d1`` in the weighted projective space
# with the listed weights.
_WEIGHT_CATALOG: Dict[int, Tuple[Tuple[int, int, int, int], int]] = {
    1: ((1, 1, 2, 3), 6),
    2: ((1, 1, 1, 2), 4),
    3: ((1, 1, 1, 1), 3),
}


class PowerSeries(Record):
    """A truncated power series with exact rational coefficients."""

    coefficients: Tuple[Fraction, ...]  # c_0 .. c_N inclusive

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )
        if not self.coefficients:
            raise ValueError("a series must carry at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, j: int) -> Fraction:
        if not 0 <= j <= self.order:
            raise IndexError(f"coefficient {j} beyond truncation order {self.order}")
        return self.coefficients[j]

    def to_json(self) -> List[str]:
        return [str(c) for c in self.coefficients]


class FanoWeightData(Record):
    """Weights and constraint degree of a weighted hypersurface surface."""

    weights: Tuple[int, int, int, int]  # ambient weights a_1..a_4
    constraint_degree: int  # degree d1 of the single defining equation

    def __post_init__(self) -> None:
        if any(a <= 0 for a in self.weights) or self.constraint_degree <= 0:
            raise ValueError("weights and constraint degree must be positive")
        if self.index <= 0:
            raise ValueError(
                f"index {self.index} is not positive; datum is not of the required type"
            )
        if not self._has_constraint_partition():
            raise ValueError(
                "no subset of the weights sums to the constraint degree; "
                "the toric mirror construction does not apply"
            )

    @property
    def index(self) -> int:
        """The (Fano) index: total weight minus constraint degree."""
        return sum(self.weights) - self.constraint_degree

    def _has_constraint_partition(self) -> bool:
        indices = range(len(self.weights))
        return any(
            sum(self.weights[i] for i in subset) == self.constraint_degree
            for size in range(1, len(self.weights) + 1)
            for subset in combinations(indices, size)
        )


def weight_data(d: int) -> FanoWeightData:
    """Catalog weighted hypersurface datum for degree ``d`` in {1, 2, 3}."""
    if d not in _WEIGHT_CATALOG:
        raise ValueError(f"no weight datum for degree {d}")
    weights, degree = _WEIGHT_CATALOG[d]
    return FanoWeightData(weights, degree)


def quantum_period(data: FanoWeightData, order: int = 12) -> Tuple[PowerSeries, Fraction]:
    """The normalized quantum period series and its linear-term shift.

    Expands ``sum_j (d1*j)!/prod_i (a_i*j)! t^(iota*j)`` to the requested
    order, multiplies by ``exp(-alpha*t)`` with ``alpha`` equal to the raw
    linear coefficient (so the product has vanishing linear term), and
    returns both the dressed series and ``alpha``.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    d1 = data.constraint_degree
    iota = data.index
    raw = [Fraction(0)] * (order + 1)
    j = 0
    while iota * j <= order:
        numerator = factorial(d1 * j)
        denominator = 1
        for a in data.weights:
            denominator *= factorial(a * j)
        raw[iota * j] = Fraction(numerator, denominator)
        j += 1
    alpha = raw[1]
    exp_coeffs = [Fraction((-alpha) ** k, factorial(k)) for k in range(order + 1)]
    dressed = [
        sum((exp_coeffs[k] * raw[n - k] for k in range(n + 1)), Fraction(0))
        for n in range(order + 1)
    ]
    return PowerSeries(tuple(dressed)), alpha


def regularize(series: PowerSeries) -> PowerSeries:
    """Multiply the ``j``-th coefficient by ``j!``."""
    return PowerSeries(
        tuple(c * factorial(j) for j, c in enumerate(series.coefficients))
    )


def przyjalkowski_g(d: int) -> LaurentPoly:
    """The two-variable Laurent potential assigned to degree ``d``.

    Expands ``(1 + y3 + y4)^d1 / (y3^a3 * y4^a4)`` exactly, where ``(a3, a4)``
    are the last two catalog weights and ``d1`` the constraint degree.
    """
    data = weight_data(d)
    a3, a4 = data.weights[2], data.weights[3]
    one = LaurentPoly.constant(1, 2)
    y3 = LaurentPoly.monomial((1, 0))
    y4 = LaurentPoly.monomial((0, 1))
    return (one + y3 + y4) ** data.constraint_degree * LaurentPoly.monomial((-a3, -a4))


def classical_period(f: LaurentPoly, order: int = 12) -> PowerSeries:
    """Constant terms of successive powers ``f^k`` for ``k = 0..order``.

    Clears denominators once: ``g = D*f`` has integer coefficients, with
    ``D`` the lcm of the coefficient denominators of ``f``.  Forms the half
    powers ``g^0 .. g^h``, ``h = ceil(order/2)``, by repeated sparse products
    with ``g``, and takes each ``[f^k]_0`` from one pairing,
    ``sum_m [g^a]_m [g^b]_(-m) / D^k`` with ``a = floor(k/2)``, ``b = k - a``.

    The half powers are dictionaries keyed by one integer per exponent
    vector: ``key(e) = sum_i e_i * R^i`` with stride ``R = 2*h*E + 1``,
    where ``E`` is the largest ``|exponent|`` among the terms of ``f`` (0
    for the zero polynomial).  Every monomial of ``g^j``, ``j <= h``, has
    each coordinate in ``[-hE, hE]``, a full set of balanced residues
    modulo ``R``, so the digits of a key are unique and
    ``key(a) + key(b) = key(a + b)``.  A term product is then one integer
    addition, and the pairing looks up ``-key(m)``.  A stride of ``2hE``
    would already merge ``(2hE, -1)`` with the origin.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    denominator = lcm(*(c.denominator for c in f.terms.values()))
    h = (order + 1) // 2
    stride = 2 * h * max((abs(x) for e in f.terms for x in e), default=0) + 1
    g = [
        (sum(x * stride**i for i, x in enumerate(e)), int(c * denominator))
        for e, c in f.terms.items()
    ]
    halves: List[Dict[int, int]] = [{0: 1}]
    for _ in range(h):
        product: Dict[int, int] = {}
        for k1, c1 in halves[-1].items():
            for k2, c2 in g:
                key = k1 + k2
                product[key] = product.get(key, 0) + c1 * c2
        halves.append({k: c for k, c in product.items() if c})
    constants: List[Fraction] = []
    for k in range(order + 1):
        left, right = halves[k // 2], halves[k - k // 2]
        paired = sum(c * right.get(-key, 0) for key, c in left.items())
        constants.append(Fraction(paired, denominator**k))
    return PowerSeries(tuple(constants))


class MirrorCheckReport(Record):
    """Outcome of the coefficient-by-coefficient mirror comparison."""

    d: int
    order: int
    alpha: Fraction
    passed: bool
    first_mismatch: Optional[int]  # smallest order where the sides differ
    regularized: PowerSeries
    classical: PowerSeries


def mirror_check(d: int, order: int = 12) -> MirrorCheckReport:
    """Compare the regularized quantum period against the classical period.

    Both sides are expanded exactly to the given order; the classical side
    uses the potential shifted by ``-alpha``.  Returns a report carrying the
    first mismatching order, if any.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    series, alpha = quantum_period(weight_data(d), order)
    regularized = regularize(series)
    shifted = przyjalkowski_g(d) - LaurentPoly.constant(alpha, 2)
    classical = classical_period(shifted, order)
    first_mismatch: Optional[int] = None
    for j in range(order + 1):
        if regularized.coefficient(j) != classical.coefficient(j):
            first_mismatch = j
            break
    return MirrorCheckReport(
        d=d,
        order=order,
        alpha=alpha,
        passed=first_mismatch is None,
        first_mismatch=first_mismatch,
        regularized=regularized,
        classical=classical,
    )
