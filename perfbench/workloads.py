"""The calls one pass makes, as the argv a user would type, made from a seed.

Every workload runs whole passes, and every pass of a run makes the same
calls, so a run's failed share is the same however many passes fit in it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

WORKLOADS = ("periods", "homology", "interpolate")

# Orders at which each `mirror` call takes one to three seconds; the exact
# Laurent arithmetic dominates and grows roughly as order^3.5.
PERIOD_ORDERS = {1: 14, 2: 18, 3: 20}

# Perturbations for the homology pipeline are drawn as 1/q, one q from each
# of these ranges, which split [1/200, 1/30]; every value there reproduces
# the reference vanishing classes.  The quadrature cost of `cycles --d 1`
# steps by up to 2x below q = 87, so one draw per degree would let the seed
# move a pass's quadrature work by up to 42%; three spread draws hold it
# within 11%.
EPSILON_DENOMINATORS = ((30, 86), (87, 143), (144, 200))

# Basis length of the extended (rank-12) pseudolattice that `mutate` acts on.
MUTATE_RANK = 12


def calls(workload: str, seed: int) -> List[List[str]]:
    """The argv vectors of one pass of ``workload`` (without ``--out``)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "periods":
        degrees = [1, 2, 3]
        rng.shuffle(degrees)
        return [
            ["mirror", "--d", str(d), "--order", str(PERIOD_ORDERS[d])]
            for d in degrees
        ]
    if workload == "homology":
        argvs: List[List[str]] = []
        for d in (1, 2, 3):
            deg = ["--d", str(d)]
            argvs.append(["fibers", *deg, "--variant", "exact"])
            for low, high in EPSILON_DENOMINATORS:
                eps = f"1/{rng.randint(low, high)}"
                argvs += [
                    ["fibers", *deg, "--variant", "perturbed", "--epsilon", eps],
                    ["critvals", *deg, "--epsilon", eps],
                    ["cycles", *deg, "--epsilon", eps],
                ]
            word = random_word(rng)
            argvs += [
                ["verify", *deg],
                ["junction", *deg],
                ["ghs", *deg],
                ["mutate", *deg, "--word", word],
            ]
        return argvs
    if workload == "interpolate":
        # Epsilon stays at the default 1/100: the braid word the sweep reads
        # depends on it, so a seeded epsilon would change what is measured.
        degrees = [3, 2]
        rng.shuffle(degrees)
        return [["interpolate", "--d", str(d)] for d in degrees]
    raise ValueError(f"unknown workload {workload!r}")


def random_word(rng: random.Random) -> str:
    """A mutation word of 3 to 6 moves on slots valid for the rank-12 basis."""
    return " ".join(
        f"{rng.choice('LR')}{rng.randrange(MUTATE_RANK - 1)}"
        for _ in range(rng.randint(3, 6))
    )


def epsilon_of(argv: List[str]) -> Fraction:
    """The perturbation an argv asks for (the CLI default when absent)."""
    if "--epsilon" in argv:
        return Fraction(argv[argv.index("--epsilon") + 1])
    return Fraction(1, 100)
