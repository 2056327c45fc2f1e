"""Checks of dpmirror's artifacts against independent computations.

Each check takes the argv of one call and the artifact it wrote, and returns
the list of problems found (empty when the output is right).  Nothing here
compares against a stored copy of an earlier output: periods come from the
closed form of the constant terms, critical values from ``numpy.roots`` of a
discriminant formed here, monodromies from a Dehn-twist product formed here,
and braid words from a mutation routine written here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from workloads import epsilon_of

# Weighted hypersurface data (weights, constraint degree) of the degree-d
# del Pezzo surfaces: X_6 in P(1,1,2,3), X_4 in P(1,1,1,2), X_3 in P^3.
WEIGHTS = {1: ((1, 1, 2, 3), 6), 2: ((1, 1, 1, 2), 4), 3: ((1, 1, 1, 1), 3)}
ALPHA = {1: 60, 2: 12, 3: 6}
ROOT_COUNT = {"E8": 240, "E7": 126, "E6": 72}
RESIDUAL_BOUND = 1e-6
ROOT_TOLERANCE = 1e-6  # relative agreement of critical values with numpy.roots

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# periods


@lru_cache(maxsize=None)
def classical_closed_form(d: int, order: int) -> Tuple[int, ...]:
    """Constant terms of (f - alpha)^k, k = 0..order, in closed form.

    f = (1 + y3 + y4)^d1 / (y3^a3 y4^a4), so the constant term of f^j is the
    multinomial (d1 j)! / ((a3 j)! (a4 j)! ((d1 - a3 - a4) j)!), and the
    binomial theorem gives the shifted powers.
    """
    (_, _, a3, a4), d1 = WEIGHTS[d]
    f = math.factorial
    m = [f(d1 * j) // (f(a3 * j) * f(a4 * j) * f((d1 - a3 - a4) * j))
         for j in range(order + 1)]
    alpha = ALPHA[d]
    return tuple(
        sum(math.comb(k, j) * (-alpha) ** (k - j) * m[j] for j in range(k + 1))
        for k in range(order + 1)
    )


def check_mirror(d: int, order: int, artifact: Dict) -> List[str]:
    problems = []
    if artifact.get("passed") is not True:
        problems.append("mirror check did not pass")
    if Fraction(artifact["alpha"]) != ALPHA[d]:
        problems.append(f"alpha {artifact['alpha']} != {ALPHA[d]}")
    series = [Fraction(c) for c in artifact["classical"]]
    expected = classical_closed_form(d, order)
    if len(series) != len(expected):
        problems.append(f"{len(series)} classical coefficients, expected {len(expected)}")
    for k, (got, want) in enumerate(zip(series, expected)):
        if got != want:
            problems.append(f"classical c_{k} = {got}, closed form gives {want}")
            break
    return problems


# ---------------------------------------------------------------------------
# critical values


@lru_cache(maxsize=None)
def discriminant_roots(d: int, eps: Optional[Fraction]) -> Tuple[complex, ...]:
    """numpy.roots of 4a^3 + 27b^2 for the catalog model, formed exactly here."""
    from dpmirror.weierstrass import catalog

    model = catalog(d, eps)
    a = [model.a.coefficient(k) for k in range(model.a.degree() + 1)]
    b = [model.b.coefficient(k) for k in range(model.b.degree() + 1)]
    disc = _poly_add(_poly_scale(_poly_mul(_poly_mul(a, a), a), 4),
                     _poly_scale(_poly_mul(b, b), 27))
    while disc and disc[-1] == 0:
        disc.pop()
    return tuple(complex(z) for z in np.roots([float(c) for c in reversed(disc)]))


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_scale(p: Sequence[Fraction], k: int) -> List[Fraction]:
    return [k * c for c in p]


def match_roots(values: Sequence[complex], roots: Sequence[complex]) -> List[str]:
    """Problems unless ``values`` and ``roots`` agree as multisets."""
    if len(values) != len(roots):
        return [f"{len(values)} critical values, numpy.roots gives {len(roots)}"]
    left = list(roots)
    for z in values:
        k = min(range(len(left)), key=lambda i: abs(z - left[i]))
        if abs(z - left[k]) > ROOT_TOLERANCE * max(1.0, abs(left[k])):
            return [f"critical value {z:.6g} is {abs(z - left[k]):.3g} from every numpy root"]
        left.pop(k)
    return []


def check_critvals(d: int, eps: Fraction, artifact: Dict) -> List[str]:
    values = [complex(re_, im) for re_, im in artifact["values"]]
    problems = []
    if artifact.get("count") != 12 - d:
        problems.append(f"{artifact.get('count')} critical values, expected {12 - d}")
    return problems + match_roots(values, discriminant_roots(d, eps))


# ---------------------------------------------------------------------------
# monodromy


def dehn_twist(c: Pair) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Picard-Lefschetz v -> v + <v, c> c, <(p, q), (m, n)> = pn - qm, as a matrix."""
    m, n = c
    return ((1 + m * n, -m * m), (n * n, 1 - m * n))


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def monodromy(classes: Sequence[Pair]):
    """The product of the twists, the first class acting first."""
    total = ((1, 0), (0, 1))
    for c in classes:
        total = _mat_mul(dehn_twist(c), total)
    return total


def check_classes(d: int, classes: Sequence[Pair], residuals: Sequence[float]) -> List[str]:
    """12 - d primitive classes whose twists multiply to an I_d monodromy."""
    problems = []
    if len(classes) != 12 - d:
        problems.append(f"{len(classes)} classes, expected {12 - d}")
    if any(math.gcd(m, n) != 1 for m, n in classes):
        problems.append("a class is not primitive")
    if not all(r < RESIDUAL_BOUND for r in residuals):
        problems.append(f"a residual is not below {RESIDUAL_BOUND}")
    total = monodromy(classes)
    trace = total[0][0] + total[1][1]
    if trace != 2:
        problems.append(f"total monodromy has trace {trace}, expected 2")
    gap = math.gcd(total[0][0] - 1, total[0][1], total[1][0], total[1][1] - 1)
    if gap != d:
        problems.append(f"entries of M - I have gcd {gap}, expected {d} (I_{d} at infinity)")
    return problems


def check_cycles(d: int, artifact: Dict) -> List[str]:
    classes = [tuple(c) for c in artifact["classes"]]
    eps = Fraction(artifact["epsilon"])
    values = [complex(re_, im) for re_, im in artifact["critical_values"]]
    return (check_classes(d, classes, artifact["residuals"])
            + match_roots(values, discriminant_roots(d, eps)))


def check_mutate(artifact: Dict) -> List[str]:
    if artifact.get("applied") is not True:
        return ["mutation word was not applied"]
    before = monodromy([tuple(c) for c in artifact["boundaries_initial"]])
    after = monodromy([tuple(c) for c in artifact["boundaries_final"]])
    return [] if before == after else ["mutation changed the total monodromy"]


# ---------------------------------------------------------------------------
# fibers, lattices


_KODAIRA = re.compile(r"^(I(\d+)(\*?)|II\*?|III\*?|IV\*?)$")
_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def euler_number(label: str) -> int:
    """Euler number of a Kodaira fiber from its label."""
    match = _KODAIRA.match(label)
    if match is None:
        raise ValueError(f"not a Kodaira label: {label!r}")
    if match.group(2) is not None:
        return int(match.group(2)) + (6 if match.group(3) else 0)
    return _EULER[label]


def check_fibers(d: int, perturbed: bool, artifact: Dict) -> List[str]:
    fibers = artifact["fibers"]
    total = sum(f["count"] * euler_number(f["type"]) for f in fibers)
    problems = []
    if total != 12 or artifact.get("euler_total") != 12:
        problems.append(f"Euler numbers sum to {total}, expected 12")
    if perturbed:
        finite = [f for f in fibers if f["place"] != "inf"]
        at_infinity = [f["type"] for f in fibers if f["place"] == "inf"]
        if any(f["type"] != "I1" for f in finite) or sum(f["count"] for f in finite) != 12 - d:
            problems.append(f"perturbed model is not {12 - d} finite I1 fibers")
        if at_infinity != [f"I{d}"]:
            problems.append(f"fiber at infinity is {at_infinity}, expected I{d}")
    return problems


def check_junction(d: int, artifact: Dict) -> List[str]:
    problems = [] if artifact.get("passed") is True else ["junction check did not pass"]
    system = artifact["kernel_decomposition"]["root_system"]
    letter = f"E{9 - d}"
    if system.get("dynkin_type") != letter or system.get("root_count") != ROOT_COUNT[letter]:
        problems.append(f"root system {system.get('dynkin_type')} with "
                        f"{system.get('root_count')} roots, expected {letter}")
    return problems


def check_ghs(artifact: Dict) -> List[str]:
    sequence, target = artifact["sequence"], artifact["target"]
    same = len(sequence) == len(target) and all(
        s == t or s == [-x for x in t] for s, t in zip(sequence, target)
    )
    if artifact.get("matches_up_to_sign") is not True or not same:
        return ["torus-model sequence does not match its target up to sign"]
    return []


# ---------------------------------------------------------------------------
# braid words


def seifert_gram(classes: Sequence[Pair]) -> List[List[int]]:
    """1 on the diagonal, <c_i, c_j> = n_i m_j - m_i n_j above it."""
    n = len(classes)
    return [
        [1 if i == j else (classes[i][1] * classes[j][0] - classes[i][0] * classes[j][1]
                           if i < j else 0)
         for j in range(n)]
        for i in range(n)
    ]


def apply_word(gram: List[List[int]], word: str) -> List[List[int]]:
    """The standard basis after the word's moves, rightmost move first.

    L at slot i sends (e, f) to (f - <e,f> e, e); R sends it to
    (f, e - <e,f> f).
    """
    n = len(gram)
    vectors = [[int(i == j) for j in range(n)] for i in range(n)]

    def pairing(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    for token in reversed(word.split()):
        side, slot = token[0], int(token[1:])
        e, f = vectors[slot], vectors[slot + 1]
        s = pairing(e, f)
        if side == "L":
            vectors[slot], vectors[slot + 1] = [y - s * x for x, y in zip(e, f)], e
        else:
            vectors[slot], vectors[slot + 1] = f, [x - s * y for x, y in zip(e, f)]
    return vectors


def word_reduces(target: int, word: str) -> bool:
    """Whether ``word`` acts on the degree-``target`` basis like the reference word."""
    from dpmirror.homology import extended_vanishing_classes
    from dpmirror.pseudolattice import standard_word_identity

    classes = [c.to_pair() for c in extended_vanishing_classes(target)]
    gram = seifert_gram(classes)
    reference = str(standard_word_identity(target)[0])
    return apply_word(gram, word) == apply_word(gram, reference)


def check_interpolate(d: int, artifact: Dict, endpoints: Optional[Dict]) -> List[str]:
    problems = []
    if artifact.get("track_count") != 12:
        problems.append(f"{artifact.get('track_count')} tracks, expected 12")
    if artifact.get("finite_start") != 12 - d or artifact.get("finite_end") != 13 - d:
        problems.append(f"finite tracks {artifact.get('finite_start')} -> "
                        f"{artifact.get('finite_end')}, expected {12 - d} -> {13 - d}")
    eps = Fraction(artifact["epsilon"])
    if endpoints is None:
        problems.append("the sweep's endpoint values were not captured")
    else:
        for key, degree in (("start", d), ("end", d - 1)):
            values = [complex(re_, im) for re_, im in endpoints[key]]
            problems += match_roots(values, discriminant_roots(degree, eps))
    word = artifact.get("word")
    if word is None or not artifact.get("validated") or not word_reduces(d - 1, word):
        problems.append(f"braid word {word!r} does not reduce to the reference word")
    return problems


# ---------------------------------------------------------------------------


def check(argv: Sequence[str], artifact: Dict, endpoints: Optional[Dict] = None) -> List[str]:
    """Problems with the artifact one CLI call wrote; empty when it is right."""
    command = argv[0]
    d = int(argv[argv.index("--d") + 1])
    if command == "mirror":
        return check_mirror(d, int(argv[argv.index("--order") + 1]), artifact)
    if command == "fibers":
        return check_fibers(d, "perturbed" in argv, artifact)
    if command == "critvals":
        return check_critvals(d, epsilon_of(list(argv)), artifact)
    if command == "cycles":
        return check_cycles(d, artifact)
    if command == "verify":
        return [] if artifact.get("passed") is True else ["verify did not pass"]
    if command == "junction":
        return check_junction(d, artifact)
    if command == "ghs":
        return check_ghs(artifact)
    if command == "mutate":
        return check_mutate(artifact)
    if command == "interpolate":
        return check_interpolate(d, artifact, endpoints)
    return [f"no check for {command!r}"]
