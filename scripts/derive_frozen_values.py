"""Derive and print the frozen constants used by the test suite.

Every non-trivial expected value that appears frozen in ``tests/`` was computed
by this script using independent tools (sympy exact algebra, brute-force
enumeration, numpy.roots, mpmath quadrature) *before* the package itself was
implemented.  Re-running the script reproduces those values.

Usage::

    python scripts/derive_frozen_values.py [section ...]

with sections among: algebra, series, lattice, numeric (default: all).
"""

from __future__ import annotations

import itertools
import sys

import sympy as sp

LAM = sp.symbols("lam")
X = sp.symbols("x")
EPS = sp.Rational(1, 100)

# Weierstrass coefficient pairs (a(lam), b(lam)) for the three fibration
# degrees, written with exact rational coefficients.
CATALOG = {
    1: (-sp.Rational(1, 3) * LAM**4,
        sp.Rational(2, 27) * LAM**6 - 64 * LAM**5),
    2: (-sp.Rational(1, 3) * LAM**4 + 16 * LAM**3,
        sp.Rational(2, 27) * LAM**6 - sp.Rational(16, 3) * LAM**5),
    3: (-sp.Rational(1, 3) * LAM**4 + 8 * LAM**3,
        sp.Rational(2, 27) * LAM**6 - sp.Rational(8, 3) * LAM**5 + 16 * LAM**4),
}

# Toric weight data (d1; a1..a4) and the linear-term constant alpha for the
# three quantum periods.
WEIGHTS = {
    1: (6, (1, 1, 2, 3), 60),
    2: (4, (1, 1, 1, 2), 12),
    3: (3, (1, 1, 1, 1), 6),
}


def section_algebra() -> None:
    print("=" * 72)
    print("SECTION algebra: discriminants, minimal forms, separability")
    print("=" * 72)
    for d, (a, b) in sorted(CATALOG.items()):
        disc = sp.expand(4 * a**3 + 27 * b**2)
        fact = sp.factor(disc)
        print(f"d={d}: disc = {fact}")
        roots = sp.roots(sp.Poly(disc, LAM))
        print(f"      roots with multiplicity: {dict(roots)}")
        # perturbed family: a -> a + eps
        disc_p = sp.expand(4 * (a + EPS) ** 3 + 27 * b**2)
        poly_p = sp.Poly(disc_p, LAM)
        g = sp.gcd(poly_p, poly_p.diff(LAM))
        print(f"      perturbed (eps=1/100): degree {poly_p.degree()}, "
              f"gcd(D,D')={g.as_expr()}, separable={g.degree() == 0}")
        print(f"      perturbed lead coeff = {poly_p.LC()}, "
              f"trailing coeff = {poly_p.all_coeffs()[-1]}")

    print()
    print("-- hyperelliptic-to-Weierstrass intermediates --")
    # Quadratic-in-y coefficient triples (A, B, C) after clearing, per degree.
    hv_quadratics = {
        3: (-LAM * X, LAM * X - 1, -LAM * X**2),
        2: (-LAM * X, LAM * X, -LAM * X**2 - 1),
        1: (-LAM * X**2, LAM * X**2, -LAM * X**3 - 1),
    }
    for d, (A, B, C) in sorted(hv_quadratics.items()):
        disc_y = sp.expand(B**2 - 4 * A * C)
        if d == 1:
            disc_y = sp.expand(sp.cancel(disc_y / X**2))
        print(f"d={d}: y-discriminant{' / x^2' if d == 1 else ''} = {sp.collect(disc_y, X)}")
        # Depress the cubic-in-x curve  w^2 = disc_y  to Weierstrass form.
        p = sp.Poly(disc_y, X)
        A3, B2, C1, D0 = ([0] * (4 - len(p.all_coeffs())) + p.all_coeffs())
        a_out = sp.expand(C1 * A3 - B2**2 / 3)
        b_out = sp.expand(D0 * A3**2 - B2 * C1 * A3 / 3 + 2 * B2**3 / 27)
        ref_a, ref_b = CATALOG[d]
        print(f"      depressed a = {a_out}")
        print(f"      depressed b = {b_out}")
        print(f"      matches catalog: {sp.expand(a_out - ref_a) == 0 and sp.expand(b_out - ref_b) == 0}")

    print()
    print("-- depress examples --")
    c0, d0 = sp.symbols("c0 d0")
    p = sp.Poly([1, 0, c0, d0], X)
    print(f"(1,0,c,d) -> a={c0}, b={d0} (shift-free case)")
    # cubic y^2 = x^3 + 3x^2: A=1,B=3,C=0,D=0
    a_out = sp.Rational(0) * 1 - sp.Rational(9, 3)
    b_out = 0 - 0 + sp.Rational(2 * 27, 27)
    print(f"(1,3,0,0) -> a={a_out}, b={b_out}")

    print()
    print("-- Kodaira types from valuations (expected tables) --")
    for d, (a, b) in sorted(CATALOG.items()):
        disc = sp.expand(4 * a**3 + 27 * b**2)
        for point in [sp.Integer(0)] + [r for r in sp.roots(sp.Poly(disc, LAM)) if r != 0]:
            va = sp.Poly(a, LAM).eval(point) == 0 and min(
                m for m, c in enumerate(sp.Poly(a.subs(LAM, LAM + point), LAM).all_coeffs()[::-1]) if c != 0
            ) or 0
            # simple valuation of a, b, disc at the point
            def val(expr):
                q = sp.Poly(sp.expand(expr.subs(LAM, LAM + point)), LAM)
                cs = q.all_coeffs()[::-1]
                return next(i for i, c in enumerate(cs) if c != 0)
            print(f"d={d} at lam={point}: v(a)={val(a)}, v(b)={val(b)}, v(disc)={val(disc)}")
        # chart at infinity: mu^4 a(1/mu), mu^6 b(1/mu)
        mu = sp.symbols("mu")
        a_inf = sp.expand(mu**4 * a.subs(LAM, 1 / mu))
        b_inf = sp.expand(mu**6 * b.subs(LAM, 1 / mu))
        disc_inf = sp.expand(4 * a_inf**3 + 27 * b_inf**2)
        def val0(expr):
            q = sp.Poly(expr, mu)
            cs = q.all_coeffs()[::-1]
            return next(i for i, c in enumerate(cs) if c != 0)
        print(f"d={d} at infinity: v(a)={val0(a_inf)}, v(b)={val0(b_inf)}, v(disc)={val0(disc_inf)}")


def section_series() -> None:
    print("=" * 72)
    print("SECTION series: period sequences to order 12")
    print("=" * 72)
    t = sp.symbols("t")
    N = 12
    for d, (d1, aa, alpha) in sorted(WEIGHTS.items()):
        raw = sum(
            sp.Rational(sp.factorial(d1 * j), sp.prod([sp.factorial(ai * j) for ai in aa])) * t**j
            for j in range(N + 1)
        )
        g = sp.series(sp.exp(-alpha * t) * raw, t, 0, N + 1).removeO()
        coeffs = [sp.nsimplify(g.coeff(t, k)) for k in range(N + 1)]
        reg = [sp.factorial(k) * coeffs[k] for k in range(N + 1)]
        print(f"d={d}: alpha={alpha}")
        print(f"   plain coeffs   : {coeffs}")
        print(f"   regularized    : {reg}")

        # Independent route: constant terms of powers of the Laurent mirror
        # polynomial g - alpha where g = (1+y3+y4)^d1 / (y3^a3 y4^a4).
        y3, y4 = sp.symbols("y3 y4")
        a3, a4 = aa[2], aa[3]
        gL = sp.expand((1 + y3 + y4) ** d1) / (y3**a3 * y4**a4) - alpha
        cur = sp.Integer(1)
        consts = []
        for k in range(N + 1):
            if k:
                cur = sp.expand(cur * gL)
            c = cur
            # constant term: coefficient of y3^0 y4^0
            cpoly = sp.Poly(sp.expand(c * y3**(a3 * k) * y4**(a4 * k)), y3, y4)
            target = (a3 * k, a4 * k)
            const = cpoly.coeff_monomial(y3**target[0] * y4**target[1])
            consts.append(const)
        print(f"   laurent consts : {consts}")
        print(f"   mirror match   : {consts == reg}")

    print()
    print("-- trinomial monomial data for d=3 --")
    y3, y4 = sp.symbols("y3 y4")
    gl = sp.expand((1 + y3 + y4) ** 3)
    print(f"(1+y3+y4)^3 monomial count = {len(gl.as_ordered_terms())}")
    print(f"coefficient of y3*y4 = {gl.coeff(y3, 1).coeff(y4, 1)}")
    sq = sp.expand(gl * gl)
    print(f"((1+y3+y4)^3)^2 monomial count = {len(sq.as_ordered_terms())}")
    print()
    print("-- central binomial check (f = y + 1/y) --")
    y = sp.symbols("y")
    vals = []
    for k in range(9):
        e = sp.expand((y + 1 / y) ** k * y**k)
        vals.append(sp.Poly(e, y).coeff_monomial(y**k))
    print(f"constant terms of (y+1/y)^k, k=0..8: {vals}")


# ---------------------------------------------------------------------------
# lattice section helpers (plain integer matrices as tuples of tuples)


def h1_pair(u, v):
    return u[1] * v[0] - u[0] * v[1]


def gram_from_classes(classes):
    n = len(classes)
    return [[1 if i == j else (h1_pair(classes[i], classes[j]) if i < j else 0)
             for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def pairing(G, u, v):
    return sum(u[i] * G[i][j] * v[j] for i in range(len(u)) for j in range(len(u)))


def mutate_basis(G, basis, kind, slot):
    """Ambient mutation of the adjacent pair (slot, slot+1) of basis vectors."""
    e, f = basis[slot], basis[slot + 1]
    if kind == "L":
        new = [x - pairing(G, e, f) * y for x, y in zip(f, e)]
        basis[slot], basis[slot + 1] = new, e
    else:
        new = [x - pairing(G, e, f) * y for x, y in zip(e, f)]
        basis[slot], basis[slot + 1] = f, new


def parse_word(word):
    """Split a mutation word into (kind, slot) pairs in application order."""
    toks = word.split()
    return [(tok[0], int(tok[1:])) for tok in reversed(toks)]


def charges_of(basis, classes):
    return [(sum(v[i] * classes[i][0] for i in range(len(v))),
             sum(v[i] * classes[i][1] for i in range(len(v)))) for v in basis]


def m_ell(ell):
    n = 3 + ell
    M = [[0] * n for _ in range(n)]
    top = [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    right = [[1] * ell, [2] * ell, [1] * ell]
    for i in range(3):
        for j in range(3):
            M[i][j] = top[i][j]
        for j in range(ell):
            M[i][3 + j] = right[i][j]
    for i in range(ell):
        M[3 + i][3 + i] = 1
    return M


def sign_normalize(G, T):
    """Search a sign diagonal D with D G D == T; return D or None."""
    n = len(G)
    for bits in itertools.product([1, -1], repeat=n - 1):
        D = (1,) + bits
        if all(D[i] * G[i][j] * D[j] == T[i][j] for i in range(n) for j in range(n)):
            return D
    return None


PROP35 = {
    3: [(1, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0)],
    2: [(1, 1), (1, 0), (0, 1), (1, 0), (1, 0), (1, -1), (0, 1), (0, 1), (1, 0), (0, 1)],
    1: [(1, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1)],
}

WORDS = {
    3: "L1 L2 L3 L1 L3 L1 L4 L5 L6 L7 L3 L4 L5 L2 L3 L1",
    2: "R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4",
    1: "R9 R8 R7 R6 R5 R4 L6",
}

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

D3_ROWS = [
    ("L1", [(1, 1), (1, -1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0)]),
    ("L2 L3", [(1, 1), (1, -1), (1, -2), (0, 1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0)]),
    ("L3 L4 L5", [(1, 1), (1, -1), (1, -2), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1), (1, 0)]),
    ("L4 L5 L6 L7", [(1, 1), (1, -1), (1, -2), (1, -3), (1, -4), (0, 1), (0, 1), (0, 1), (0, 1)]),
    ("L3 L1", [(1, 1), (0, -1), (1, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)]),
    ("L1", [(1, 1), (1, -2), (0, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)]),
    ("L2 L3", [(1, 1), (1, -2), (1, -5), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)]),
    ("L1", [(1, 1), (2, -1), (1, -2), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)]),
]


def section_lattice() -> None:
    print("=" * 72)
    print("SECTION lattice: mutation traces, Serre data, root systems")
    print("=" * 72)

    # --- d=3 nine-class trace -------------------------------------------------
    classes = PROP35[3]
    G = gram_from_classes(classes)
    print(f"nine-class Seifert Gram matches expected: {G == GRAM3_EXPECTED}")

    basis = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    steps = parse_word(WORDS[3])
    # group boundaries after each display row
    row_lengths = [1, 2, 3, 4, 2, 1, 2, 1]
    pos = 0
    all_ok = True
    for (label, expected), k in zip(D3_ROWS, row_lengths):
        for kind, slot in steps[pos:pos + k]:
            mutate_basis(G, basis, kind, slot)
        pos += k
        got = charges_of(basis, classes)
        exact = got == expected
        upsign = all(g == e or (g[0] == -e[0] and g[1] == -e[1]) for g, e in zip(got, expected))
        all_ok &= upsign
        print(f"after {label:12s}: exact={exact} upsign={upsign} {got if not exact else ''}")
    BT = [[pairing(G, basis[i], basis[j]) for j in range(9)] for i in range(9)]
    D = sign_normalize(BT, m_ell(6))
    print(f"final Gram sign-normalizes to M_6 with D = {D}")
    print(f"negative positions = {[i for i, s in enumerate(D)] if D is None else [i for i, s in enumerate(D) if s < 0]}")

    # --- d=2 and d=1 extended traces -----------------------------------------
    for d, ell in ((2, 7), (1, 8)):
        classes = PROP35[d] + [(0, 1)] * (12 - len(PROP35[d]))
        G = gram_from_classes(classes)
        basis = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
        word = (WORDS[2] if d == 2 else " ".join([WORDS[2], WORDS[1]]))
        full = WORDS[3] + " " + word if d == 2 else WORDS[3] + " " + WORDS[2] + " " + WORDS[1]
        for kind, slot in parse_word(full):
            mutate_basis(G, basis, kind, slot)
        got = charges_of(basis, classes)
        target = [(1, 1), (2, -1), (1, -2)] + [(0, -1)] * ell
        upsign = all(g == e or (g[0] == -e[0] and g[1] == -e[1])
                     for g, e in zip(got[:3 + ell], target))
        print(f"d={d}: boundaries (first {3+ell}) match target upsign: {upsign}")
        BT = [[pairing(G, basis[i], basis[j]) for j in range(3 + ell)] for i in range(3 + ell)]
        D = sign_normalize(BT, m_ell(ell))
        print(f"d={d}: top-left Gram sign-normalizes to M_{ell}: {D is not None}")

    # intermediate display for d=2 after R8 R7 L4
    classes = PROP35[2] + [(0, 1)] * 2
    G = gram_from_classes(classes)
    basis = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
    for kind, slot in parse_word("R8 R7 L4"):
        mutate_basis(G, basis, kind, slot)
    got = charges_of(basis, classes)
    expected = [(1, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (0, 1)]
    upsign = all(g == e or (g[0] == -e[0] and g[1] == -e[1]) for g, e in zip(got, expected))
    print(f"d=2 intermediate after R8 R7 L4 upsign: {upsign} got={got}")

    # --- word identities -------------------------------------------------------
    for lhs, rhs, n in (("R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4", "R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 R1", 12),
                        ("R9 R8 R7 R6 R5 R4 L6", "L5 R9 R8 R7 R6 R5 R4", 12)):
        classes = PROP35[2 if n == 12 else 1]
        classes = (classes + [(0, 1)] * 12)[:12]
        G = gram_from_classes(classes)
        b1 = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
        b2 = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
        for kind, slot in parse_word(lhs):
            mutate_basis(G, b1, kind, slot)
        for kind, slot in parse_word(rhs):
            mutate_basis(G, b2, kind, slot)
        print(f"word identity {lhs!r} == {rhs!r}: {b1 == b2}")

    # --- integer linear algebra helper (column-style HNF with transform) ------
    def col_hnf_transform(A):
        """Return (H, U) with A*U = H, U unimodular, zero columns of H last."""
        A = [list(row) for row in A]
        m, n = len(A), len(A[0])
        U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        def colop(j1, j2, x, y, z, w):
            for M2 in (A, U):
                for i in range(len(M2)):
                    a1, a2 = M2[i][j1], M2[i][j2]
                    M2[i][j1], M2[i][j2] = x * a1 + y * a2, z * a1 + w * a2

        row, col = 0, 0
        while row < m and col < n:
            piv = None
            for j in range(col, n):
                if A[row][j] != 0:
                    piv = j
                    break
            if piv is None:
                row += 1
                continue
            if piv != col:
                colop(col, piv, 0, 1, 1, 0)
            for j in range(col + 1, n):
                while A[row][j] != 0:
                    q = A[row][j] // A[row][col]
                    colop(j, col, 1, -q, 0, 1)
                    if A[row][j] != 0:
                        colop(col, j, 0, 1, 1, 0)
            if A[row][col] < 0:
                colop(col, col, -1, 0, 0, 1)
            row += 1
            col += 1
        return A, U

    def integer_kernel(A):
        """Saturated basis (list of columns) of {v : A v = 0}."""
        H, U = col_hnf_transform(A)
        n = len(A[0])
        out = []
        for j in range(n):
            if all(H[i][j] == 0 for i in range(len(H))):
                out.append([U[i][j] for i in range(n)])
        return out

    def igcdex(a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_r, old_s, old_t

    def complete_unimodular(c):
        """Unimodular V (as rows-of-columns list) whose first column is c."""
        n = len(c)
        U = sp.eye(n)
        v = list(c)
        for i in range(1, n):
            a0, b0 = v[0], v[i]
            if b0 == 0:
                continue
            g, x0, y0 = igcdex(a0, b0)
            for j in range(n):
                U[0, j], U[i, j] = (x0 * U[0, j] + y0 * U[i, j],
                                    -(b0 // g) * U[0, j] + (a0 // g) * U[i, j])
            v[0], v[i] = g, 0
        V = U.inv()
        assert list(V[:, 0]) in ([sp.Integer(x) for x in c], [-sp.Integer(x) for x in c])
        if list(V[:, 0]) == [-sp.Integer(x) for x in c]:
            V = -V
        return V.applyfunc(int)

    def describe_lattice(Q):
        evs = [sp.re(sp.N(e)) for e in sp.Matrix(Q).eigenvals(multiple=True)]
        pos = sum(1 for e in evs if e > 1e-9)
        neg = sum(1 for e in evs if e < -1e-9)
        zero = len(evs) - pos - neg
        return sp.Matrix(Q).det(), (pos, neg, zero)

    # --- Serre operator / point-like / NS for both d=3 models ----------------
    for name, G in (("fibration(d=3)", GRAM3_EXPECTED), ("M_6 model", m_ell(6))):
        M = sp.Matrix(G)
        n = M.rows
        S = M.inv() * M.T
        assert all(e.q == 1 for e in S), "Serre operator not integral"
        N = (sp.eye(n) - S) ** 2
        Ni = [[int(x) for x in N.row(i)] for i in range(n)]
        H, U = col_hnf_transform(Ni)
        nonzero_cols = [j for j in range(n) if any(H[i][j] != 0 for i in range(n))]
        print(f"{name}: rank (I-S)^2 = {len(nonzero_cols)}")
        p = [H[i][nonzero_cols[0]] for i in range(n)]
        from math import gcd as _gcd0
        g0 = 0
        for x in p:
            g0 = _gcd0(g0, abs(x))
        p = [x // g0 for x in p]
        if next(x for x in p if x != 0) < 0:
            p = [-x for x in p]
        pv = sp.Matrix(p)
        print(f"{name}: point-like p = {p} (image = {g0} * p)")
        print(f"{name}: <p,p> = {(pv.T * M * pv)[0]}, Sp == p: {list(S * pv) == list(pv)}")
        sym = all((pv.T * M)[j] == (M * pv)[j] for j in range(n))
        print(f"{name}: <p,v> == <v,p> for all v: {sym}")
        ranks = [(pv.T * M)[j] for j in range(n)]
        print(f"{name}: ranks of basis vectors = {ranks}")

        # NS lattice: p-perp / p
        row = [[int((pv.T * M)[j]) for j in range(n)]]
        K = integer_kernel(row)  # list of columns, saturated
        Km = sp.Matrix([k for k in K]).T if False else sp.Matrix([[K[j][i] for j in range(len(K))] for i in range(n)])
        sol = Km.solve(pv)
        assert all(e.q == 1 for e in sol), "p not integral in p-perp basis"
        c = [int(e) for e in sol]
        from math import gcd as _gcd
        gg = 0
        for x in c:
            gg = _gcd(gg, abs(x))
        print(f"{name}: p in p-perp coords = {c} (primitive: {gg == 1})")
        V = complete_unimodular(c)
        GK = Km.T * M * Km
        print(f"{name}: p-perp Gram symmetric: {GK == GK.T}")
        Vm = sp.Matrix(n - 1, n - 1, lambda i, j: V[i, j])
        full = Vm.T * GK * Vm
        NS = full[1:, 1:]
        det, sig = describe_lattice(NS)
        print(f"{name}: NS Gram = {NS.tolist()}")
        print(f"{name}: NS det = {det}, signature (+,-,0) = {sig}")

    # --- Kuznetsov-style Gram from the M_6 model -------------------------------
    print()
    print("-- canonical-class data in the M_6 model --")
    M = sp.Matrix(m_ell(6))
    S = M.inv() * M.T
    e0 = sp.Matrix([1] + [0] * 8)
    kvec = S * e0 - e0
    print(f"S e0 - e0 = {list(kvec)}")
    N = (sp.eye(9) - S) ** 2
    Ni = [[int(x) for x in N.row(i)] for i in range(9)]
    H, U = col_hnf_transform(Ni)
    j0 = next(j for j in range(9) if any(H[i][j] != 0 for i in range(9)))
    p = [H[i][j0] for i in range(9)]
    from math import gcd as _gcd1
    g1 = 0
    for x in p:
        g1 = _gcd1(g1, abs(x))
    p = [x // g1 for x in p]
    if next(x for x in p if x != 0) < 0:
        p = [-x for x in p]
    pv = sp.Matrix(p)
    print(f"p = {p}, chi(e0, p) = {(e0.T * M * pv)[0]}, chi(p, e0) = {(pv.T * M * e0)[0]}")
    print(f"chi(k, k) = {(kvec.T * M * kvec)[0]}")
    print(f"chi(e0, k) = {(e0.T * M * kvec)[0]}, chi(k, e0) = {(kvec.T * M * e0)[0]}")
    print(f"S k - k = {list(S * kvec - kvec)} (multiple of p?)")

    # --- root-system fingerprints ---------------------------------------------
    print()
    print("-- root-system fingerprints --")
    cartans = {
        "A2": [[2, -1], [-1, 2]],
        "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    }
    for name, C in cartans.items():
        nn = len(C)
        count = 0
        Cm = sp.Matrix(C)
        for v in itertools.product(range(-6, 7), repeat=nn):
            vv = sp.Matrix(v)
            if (vv.T * Cm * vv)[0] == 2:
                count += 1
        print(f"{name}: brute-force root count (box 6) = {count}, det = {Cm.det()}")

    def cartan_e(ell):
        # chain 0-1-2-...-(ell-2) with node (ell-1) attached to node 2
        C = sp.eye(ell) * 2
        edges = [(i, i + 1) for i in range(ell - 2)] + [(2, ell - 1)]
        for i, j in edges:
            C[i, j] = C[j, i] = -1
        return C

    expected_det = {6: 3, 7: 2, 8: 1}
    for ell in (6, 7, 8):
        C = cartan_e(ell)
        print(f"E{ell}: det = {C.det()} (expected {expected_det[ell]})")

    # charge-kernel ranks
    for d in (3, 2, 1):
        classes = PROP35[d]
        C = sp.Matrix([[c[0] for c in classes], [c[1] for c in classes]])
        print(f"d={d}: charge matrix rank = {C.rank()}, kernel rank = {len(classes) - C.rank()}")

    # kernel decomposition fingerprints per d (restricted Gram, radical, quotient)
    for d in (3, 2, 1):
        classes = PROP35[d]
        n = len(classes)
        G = sp.Matrix(gram_from_classes(classes))
        Crows = [[c[0] for c in classes], [c[1] for c in classes]]
        K = integer_kernel(Crows)
        Km = sp.Matrix([[K[j][i] for j in range(len(K))] for i in range(n)])
        GK = Km.T * G * Km
        print(f"d={d}: kernel rank = {len(K)}, kernel Gram symmetric = {GK == GK.T}")
        GKi = [[int(x) for x in GK.row(i)] for i in range(GK.rows)]
        rad = integer_kernel(GKi)
        print(f"d={d}: radical rank = {len(rad)}")
        radgen = rad[0]
        if next(x for x in radgen if x != 0) < 0:
            radgen = [-x for x in radgen]
        # p in kernel coords
        pamb = sp.Matrix([cl for cl in ([1, 0, 1, 0, 1, 0, 1, 0, 1] ,)][0]) if False else None
        print(f"d={d}: radical gen (kernel coords) = {radgen}")
        V = complete_unimodular(radgen)
        Vm = sp.Matrix(len(K), len(K), lambda i, j: V[i, j])
        Q = (Vm.T * GK * Vm)[1:, 1:]
        det, sig = describe_lattice(Q)
        print(f"d={d}: quotient det = {det}, signature = {sig}")
        ell = 9 - d
        flip = Q if sig[0] == Q.rows else -Q
        # root count via brute-force box (coefficients of E_ell roots in an
        # arbitrary basis may be large; use box 8 for ell=6 only, else skip)
        if ell == 6:
            count = 0
            for vv in itertools.product(range(-4, 5), repeat=Q.rows):
                m2 = sp.Matrix(vv)
                if (m2.T * flip * m2)[0] == 2:
                    count += 1
            print(f"d={d}: quotient norm-2 vectors in box 4 = {count} (E6 expects 72)")

    # --- monodromy products ----------------------------------------------------
    print()
    print("-- monodromy products --")

    def twist(l):
        m, n = l
        return sp.Matrix([[1 + m * n, -m * m], [n * n, 1 - m * n]])

    for d in (3, 2, 1):
        P = sp.eye(2)
        for cl in PROP35[d]:
            P = twist(cl) * P
        Tb = twist((0, 1))
        print(f"d={d}: total = {P.tolist()}, twist_b^d * total = {(Tb**d * P).tolist()}")

    # --- boundary-level helper sequences ---------------------------------------
    print()
    print("-- reduced root-basis sequences (drop leading class, change basis) --")
    seq = PROP35[1][1:]
    to_ab8 = lambda c: (c[0] + c[1], c[1])
    s8 = [to_ab8(c) for c in seq]
    print(f"ell=8: {s8}")
    seq = PROP35[3][1:]
    to_ab6 = lambda c: (-c[0] + c[1], -c[0])
    s6 = [to_ab6(c) for c in seq]
    print(f"ell=6: {s6}")
    seq = [to_ab8(c) for c in PROP35[2][1:]]

    def bl_mutate(s, kind, slot):
        u, v = s[slot], s[slot + 1]
        if kind == "L":
            w = (v[0] - h1_pair(u, v) * u[0], v[1] - h1_pair(u, v) * u[1])
            s[slot], s[slot + 1] = w, u
        else:
            w = (u[0] - h1_pair(u, v) * v[0], u[1] - h1_pair(u, v) * v[1])
            s[slot], s[slot + 1] = v, w

    bl_mutate(seq, "L", 1)
    bl_mutate(seq, "R", 6)
    print(f"ell=7: {seq}")


def section_numeric() -> None:
    print("=" * 72)
    print("SECTION numeric: roots, reference periods, interpolation counts")
    print("=" * 72)
    import numpy as np
    import mpmath as mp

    for d, (a, b) in sorted(CATALOG.items()):
        disc_p = sp.expand(4 * (a + EPS) ** 3 + 27 * b**2)
        cs = [complex(c) for c in sp.Poly(disc_p, LAM).all_coeffs()]
        rts = np.roots(cs)
        lam0 = {1: 432.0, 2: 64.0, 3: 27.0}[d]
        near = min(abs(rts - lam0))
        small = sum(1 for r in rts if abs(r) < 1)
        print(f"d={d}: {len(rts)} roots, {small} with |z|<1, min|z-lam0| = {near:.6g}")
        print(f"      sorted |roots| = {sorted(round(abs(r), 6) for r in rts)}")

    # reference half-period integrals for y^2 = x^3 + eps*x, eps = 1/100.
    mp.mp.dps = 40
    eps = mp.mpf(1) / 100
    r = mp.sqrt(eps)  # roots: 0, +i r, -i r

    # omega_b: doubled integral over [0, i r]; x = i r u, u in [0,1]
    # x^3 + eps x = i eps^{3/2} u (1 - u^2)  -> principal branch continuous
    def f_b(u):
        val = mp.mpc(0, 1) * eps**mp.mpf(1.5) * u * (1 - u**2)
        return mp.mpc(0, 1) * r / mp.sqrt(val)

    omega_b = 2 * mp.quad(f_b, [0, 1])
    # omega_a: doubled integral over [-i r, 0]; x = -i r (1-u), u in [0,1]
    def f_a(u):
        x = mp.mpc(0, -1) * r * (1 - u)
        val = x**3 + eps * x
        return mp.mpc(0, 1) * r / mp.sqrt(val)

    omega_a = 2 * mp.quad(f_a, [0, 1])
    print(f"omega_a (principal-branch seed) = {mp.nstr(omega_a, 15)}")
    print(f"omega_b (principal-branch seed) = {mp.nstr(omega_b, 15)}")
    print(f"ratio tau = omega_a/omega_b = {mp.nstr(omega_a / omega_b, 15)}")
    # AGM magnitude cross-check: periods of y^2 = x(x - ir)(x + ir)
    # real period via AGM: omega = pi / agm(sqrt(e3-e1) ...) using standard formulas
    e1, e2, e3 = mp.mpc(0, 1) * r, mp.mpf(0), mp.mpc(0, -1) * r
    agm = mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
    omega_agm = mp.pi / agm
    print(f"AGM-based period = {mp.nstr(omega_agm, 15)} |.| = {mp.nstr(abs(omega_agm), 15)}")
    print(f"|omega_a| = {mp.nstr(abs(omega_a), 15)}, |omega_b| = {mp.nstr(abs(omega_b), 15)}")

    # interpolation family finite-root counts
    def poly_coeffs(expr):
        return [complex(c) for c in reversed(sp.Poly(expr, LAM).all_coeffs())]

    pert = {d: (CATALOG[d][0] + EPS, CATALOG[d][1]) for d in (1, 2, 3)}

    for (d_from, d_to) in ((3, 2), (2, 1)):
        a0, b0 = pert[d_from]
        a1, b1 = pert[d_to]
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            E = complex(mp.e**(1j * mp.pi * s))
            A = E + 2 * s
            C = sp.expand(E * a0 + s * (a0 + a1))
            Dd = sp.expand(E * b0 + s * (b0 + b1))
            a_s = sp.expand(C * A)
            b_s = sp.expand(Dd * A**2)
            disc = sp.expand(4 * a_s**3 + 27 * b_s**2)
            cs = sp.Poly(disc, LAM).all_coeffs()
            cs = [complex(c) for c in cs]
            # strip numerically-zero leading coefficients
            tol = max(abs(c) for c in cs) * 1e-12
            k = 0
            while k < len(cs) and abs(cs[k]) <= tol:
                k += 1
            deg = len(cs) - 1 - k
            print(f"{d_from}->{d_to} s={s:4.2f}: formal deg 12, finite roots = {deg}")


SECTIONS = {
    "algebra": section_algebra,
    "series": section_series,
    "lattice": section_lattice,
    "numeric": section_numeric,
}


def main() -> None:
    names = sys.argv[1:] or list(SECTIONS)
    for nm in names:
        SECTIONS[nm]()
        print()


if __name__ == "__main__":
    main()
