"""Exact sparse polynomial arithmetic over the rationals.

Two representations are provided, both backed by dictionaries with
:class:`fractions.Fraction` coefficients and with zero coefficients never
stored:

* :class:`UniPoly` — univariate polynomials, keyed by integer exponent.
  Each polynomial carries a variable tag (``"lam"`` for the base coordinate,
  ``"mu"`` for the coordinate at infinity) so that chart mix-ups fail loudly.
  It is a value type with sum and derivative; the rest of its algebra runs
  on integer rows (below).
* :class:`LaurentPoly` — Laurent polynomials in several variables, keyed by
  integer exponent vectors (negative exponents allowed), with the ring
  arithmetic of the period series.

JSON artifacts store a univariate polynomial as a sorted list of
``[exponent, "num/den"]`` pairs, an integral coefficient as ``"num"`` (for
example ``[5, "-64"]``): the text of ``str(Fraction)``.  The gcd, the
square-free factorization, valuations, the division by rational roots and
the cubic invariant clear denominators once and run fraction-free on dense
integer rows (primitive remainder sequences).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

# Sparse coefficient maps. Values are always nonzero.
UniTerms = Dict[int, Fraction]
LaurentTerms = Dict[Tuple[int, ...], Fraction]


def rational_to_num_den(value: Fraction) -> str:
    """Render a Fraction as ``"num/den"``, keeping a denominator of 1."""
    return f"{value.numerator}/{value.denominator}"


class UniPoly:
    """A sparse univariate polynomial with exact rational coefficients."""

    __slots__ = ("terms", "var")

    def __init__(self, terms: Mapping[int, RationalLike] | None = None,
                 var: str = "lam") -> None:
        clean: UniTerms = {}
        for exp, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                if exp < 0:
                    raise ValueError("UniPoly exponents must be non-negative")
                clean[int(exp)] = c
        self.terms = clean
        self.var = var

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike, var: str = "lam") -> "UniPoly":
        return cls({0: value}, var)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return max(self.terms) if self.terms else -1

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[max(self.terms)]

    def coefficient(self, exp: int) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return f"UniPoly(0, var={self.var!r})"
        parts = [f"{c}*{self.var}^{e}"
                 for e, c in sorted(self.terms.items())]
        return f"UniPoly({' + '.join(parts)})"

    def _check_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check_var(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            c = terms.get(exp, Fraction(0)) + coeff
            if c:
                terms[exp] = c
            else:
                terms.pop(exp, None)
        return UniPoly(terms, self.var)

    def derivative(self) -> "UniPoly":
        return UniPoly({e - 1: c * e for e, c in self.terms.items() if e > 0},
                       self.var)

    # -- serialization -------------------------------------------------------

    def to_pairs(self) -> List[List[object]]:
        return [[e, str(c)] for e, c in sorted(self.terms.items())]


class LaurentPoly:
    """A sparse Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Tuple[int, ...], RationalLike] | None = None,
                 nvars: int = 1) -> None:
        clean: LaurentTerms = {}
        for key, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                if len(key) != nvars:
                    raise ValueError("exponent vector length mismatch")
                clean[tuple(int(e) for e in key)] = c
        self.terms = clean
        self.nvars = nvars

    @classmethod
    def constant(cls, value: RationalLike, nvars: int) -> "LaurentPoly":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def monomial(cls, exponents: Sequence[int]) -> "LaurentPoly":
        exps = tuple(int(e) for e in exponents)
        return cls({exps: 1}, len(exps))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return f"LaurentPoly(0, nvars={self.nvars})"
        parts = [f"{c}*y^{list(e)}"
                 for e, c in sorted(self.terms.items())]
        return f"LaurentPoly({' + '.join(parts)})"

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("Laurent polynomials in different variable counts")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            c = terms.get(key, Fraction(0)) + coeff
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return LaurentPoly(terms, self.nvars)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()}, self.nvars)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: LaurentTerms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                c = c1 * c2
                terms[key] = terms[key] + c if key in terms else c
        return LaurentPoly(terms, self.nvars)  # the constructor drops zero terms

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# operations


def valuation_at(p: UniPoly, point: RationalLike) -> int:
    """Order of vanishing of ``p`` at a rational point top/den: how often the
    primitive row of den*x - top divides the cleared integer row of ``p``.

    Raises ``ValueError`` for the zero polynomial, whose order is undefined.
    """
    if p.is_zero():
        raise ValueError("valuation of the zero polynomial is undefined")
    top, den = Fraction(point).as_integer_ratio()
    row, order = _cleared(p)[0], 0
    while _vanishes_at(row, top, den):
        row, order = _quotient(row, [-top, den]), order + 1
    return order


def cofactor(p: UniPoly, roots: Sequence[Fraction]) -> UniPoly:
    """The monic quotient of ``p`` by the product of x - r over ``roots``,
    distinct roots of ``p``: the primitive row of den*x - top is divided out
    of the cleared integer row of ``p`` once per root top/den, as
    ``valuation_at`` does."""
    row = _cleared(p)[0]
    for root in roots:
        top, den = root.as_integer_ratio()
        row = _quotient(row, [-top, den])
    return _monic(row, p.var)


# Dense integer rows: index k holds the coefficient of x^k, with no
# trailing zero, so the empty row is the zero polynomial.
Row = List[int]


def _cleared(p: UniPoly) -> Tuple[Row, int]:
    """The row of ``den * p`` with ``den`` the least common denominator."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    row = [0] * (p.degree() + 1)
    for e, c in p.terms.items():
        row[e] = c.numerator * (den // c.denominator)
    return row, den


def _primitive(row: Row) -> Row:
    """``row`` divided by its content; the sign is kept."""
    content = gcd(*row)
    return [c // content for c in row] if content > 1 else row


def _vanishes_at(row: Row, top: int, den: int) -> bool:
    """Whether sum_k row_k top^k den^(n-k) is 0, that is, whether the row
    vanishes at top/den; Horner's rule from the leading coefficient."""
    acc, den_power = 0, 1
    for c in reversed(row):
        acc = acc * top + c * den_power
        den_power *= den
    return acc == 0


def _monic(row: Row, var: str) -> UniPoly:
    """The monic multiple of ``row``; the empty row gives the zero polynomial."""
    return UniPoly({e: Fraction(c, row[-1]) for e, c in enumerate(row) if c}, var)


def _derivative(row: Row) -> Row:
    return [e * c for e, c in enumerate(row)][1:]


def _difference(x: Row, y: Row) -> Row:
    out = [c - d for c, d in zip(x, y)] + x[len(y):] + [-d for d in y[len(x):]]
    while out and not out[-1]:
        out.pop()
    return out


def _quotient(num: Row, den: Row) -> Row:
    """``num / den`` for a primitive ``den`` dividing ``num`` (Gauss's lemma)."""
    num, n = list(num), len(den) - 1
    out = [0] * max(len(num) - n, 0)
    for k in range(len(out) - 1, -1, -1):
        out[k] = q = num[k + n] // den[-1]
        for j in range(n):
            num[k + j] -= q * den[j]
    return out


def _row_gcd(x: Row, y: Row) -> Row:
    """A primitive gcd by the primitive remainder sequence: each
    pseudo-remainder is divided by its content before the next step."""
    x = _primitive(x)
    while y:
        r, x = list(x), _primitive(y)
        n, lead = len(x) - 1, x[-1]
        while len(r) > n:  # pseudo-division, scaled by lead / gcd each step
            top = r.pop()
            g = gcd(top, lead)
            r = _difference([c * (lead // g) for c in r],
                            [0] * (len(r) - n) + [top // g * c for c in x[:-1]])
        y = r
    return x


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor, from the primitive remainder sequence
    of the cleared integer rows (Brown 1971; Knuth, TAOCP 2, 4.6.1)."""
    p._check_var(q)
    return _monic(_row_gcd(_cleared(p)[0], _cleared(q)[0]), p.var)


def squarefree_factorization(p: UniPoly) -> Tuple[Fraction, List[Tuple[UniPoly, int]]]:
    """Yun decomposition ``p = unit * prod f_i^i`` with squarefree monic f_i.

    Returns ``(unit, [(f_i, i), ...])`` listing only non-constant factors,
    ordered by multiplicity.  Yun's steps run on primitive integer rows,
    where every division is exact; the step of multiplicity 0 divides out
    gcd(f, f').
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    b = _primitive(_cleared(p)[0])
    d = _derivative(b)
    factors: List[Tuple[UniPoly, int]] = []
    multiplicity = 0
    while len(b) > 1:
        g = _row_gcd(b, d)
        if multiplicity and len(g) > 1:
            factors.append((_monic(g, p.var), multiplicity))
        b = _quotient(b, g)
        d = _difference(_quotient(d, g), _derivative(b))
        multiplicity += 1
    return p.leading_coefficient(), factors


def rational_roots(p: UniPoly) -> List[Fraction]:
    """All rational roots of ``p``, each listed once, in ascending order.

    p-adic root finding (Loos 1983; von zur Gathen and Gerhard, *Modern
    Computer Algebra*, 15.4), with no factorization of coefficients.  After
    x^k is shifted out, let f be the primitive square-free part, of degree n
    and leading coefficient L.  A root x of f makes y = L x an integer root
    of the monic g(y) = L^(n-1) f(y/L), with |y| <= B = sum_k |f_k|
    (Cauchy's bound).  At the least odd prime p where every root of g mod p
    is simple, which exists because g is square-free, each root mod p is
    Newton-lifted to a modulus above 2B.  Its symmetric residue is the only
    candidate for y, and each candidate is confirmed by exact evaluation,
    so the returned list is complete.  Raises ValueError for the zero
    polynomial.
    """
    if p.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    shift = min(p.terms)
    roots = [Fraction(0)] if shift else []
    row = _primitive(_cleared(p)[0][shift:])
    if len(row) == 1:
        return roots
    f = _quotient(row, _row_gcd(row, _derivative(row)))
    n, lead, bound = len(f) - 1, f[-1], sum(map(abs, f))
    g = [c * lead ** (n - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    dg = _derivative(g)

    def residue(row: Row, y: int, m: int) -> int:
        acc = 0
        for c in reversed(row):
            acc = (acc * y + c) % m
        return acc

    prime = 3
    while True:
        if all(prime % q for q in range(3, isqrt(prime) + 1, 2)):
            zeros = [r for r in range(prime) if not residue(g, r, prime)]
            if all(residue(dg, r, prime) for r in zeros):
                break
        prime += 2
    for y in zeros:
        m = prime
        while m <= 2 * bound:
            m *= m
            y = (y - residue(g, y, m) * pow(residue(dg, y, m), -1, m)) % m
        y = y - m if 2 * y > m else y
        if _vanishes_at(f, y, lead):
            roots.append(Fraction(y, lead))
    return sorted(roots)


def _product(x: Row, y: Row) -> Row:
    out = [0] * max(len(x) + len(y) - 1, 0)
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            out[i + j] += c * d
    return out


def disc_cubic(a: UniPoly, b: UniPoly) -> UniPoly:
    """Discriminant-scale invariant 4a^3 + 27b^2 of y^2 = x^3 + a x + b,
    formed in integers as (4 A^3 db^2 + 27 B^2 da^3) / (da^3 db^2) from the
    cleared a = A/da and b = B/db."""
    a._check_var(b)
    (A, da), (B, db) = _cleared(a), _cleared(b)
    cube = [4 * db * db * c for c in _product(_product(A, A), A)]
    square = [-27 * da ** 3 * c for c in _product(B, B)]
    den = da ** 3 * db * db
    terms = _difference(cube, square)
    return UniPoly(dict(enumerate(Fraction(c, den) for c in terms)), a.var)
