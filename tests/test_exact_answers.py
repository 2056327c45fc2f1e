"""Exact answers of a fixed corpus of CLI calls, checked against recorded digests.

``tests/data/exact_answers.json`` holds, for each argv of the corpus, the
exit code, the text of a typed error (what ``main`` prints after "error: ",
or null), and the sha256 of the artifact's exact projection.  The
projection of a subcommand keeps the keys that are exact answers and drops
numeric samples; ``PROJECTIONS`` names one per subcommand in the corpus.
The fiber tables, the period series and the lattice subcommands write no
floats, and the JSON of ``interpolate`` holds its word, verdict, track
counts and chart-switch times but no samples, so their whole artifact is
the projection.  The JSON of ``cycles`` is projected to its classes,
colliding pairs, Seifert Gram and the epsilon it used; its critical
values, residuals and periods are samples.  The ``interpolate`` and
``cycles`` calls, which run the numeric layers, are corpora of their own,
each with a test and a time budget of its own.

Every call runs in process.  A changed answer fails with the list of argv
whose exit code, error or digest moved.  To record new digests after an
intended change of exact answers, run ``python tests/test_exact_answers.py``
and list the change with its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from dpmirror.cli import main

DATA = Path(__file__).resolve().parent / "data" / "exact_answers.json"


def _whole(artifact: str) -> str:
    return artifact


def _cycles(artifact: str) -> str:
    """The exact keys of a ``cycles`` JSON artifact; empty on an error."""
    if not artifact:
        return artifact
    payload = json.loads(artifact)
    keys = ("classes", "colliding_pairs", "seifert_gram", "epsilon")
    return json.dumps({key: payload[key] for key in keys}, sort_keys=True)


# subcommand -> the exact projection of its artifact
PROJECTIONS: Dict[str, Callable[[str], str]] = {
    "fibers": _whole,
    "mirror": _whole,
    "junction": _whole,
    "verify": _whole,
    "ghs": _whole,
    "mutate": _whole,
    "check": _whole,
    "interpolate": _whole,
    "cycles": _cycles,
}

# Fixed mutation words per degree.  The last slot of a basis of 12 is 10, so
# "L11" is out of range and exits 2 with the error in the artifact; "X2"
# does not parse and exits 1 with a usage error.
MUTATE_WORDS = (
    "L1",
    "R10 L0",
    "L1 L2 L3 L1 L3 L1 L4 L5 L6 L7 L3 L4 L5 L2 L3 L1",
    "R9 R8 R7 R6 R5 R4 L6 R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4",
    "L3 L11",
    "L1 X2",
)


# Perturbations of the fiber tables: two small ones and one with a 40-digit
# denominator, whose discriminant coefficients run to about 120 digits.
FIBER_EPSILONS = ("1/90", "1/7", "7/1234567890123456789012345678901234567891")


def corpus() -> List[List[str]]:
    argvs: List[List[str]] = []
    for d in ("1", "2", "3"):
        for fmt in ("json", "csv"):
            argvs.append(["fibers", "--d", d, "--variant", "exact", "--format", fmt])
            argvs += [
                ["fibers", "--d", d, "--variant", "perturbed", "--epsilon", epsilon,
                 "--format", fmt]
                for epsilon in FIBER_EPSILONS
            ]
        argvs += [["mirror", "--d", d, "--order", order] for order in ("6", "20")]
        argvs += [[command, "--d", d] for command in ("junction", "verify", "ghs")]
        argvs += [["mutate", "--d", d, "--word", word] for word in MUTATE_WORDS]
    argvs.append(["check"])
    return argvs


# The twelve epsilons at which the 3 -> 2 word is pinned in
# tests/test_interfam.py, then 10^k for k = -12, -10, ..., 12 (the default
# 1/100 and 1 are listed once).  The sweep refuses the base point at
# epsilon <= 10^-4 and bisects at 10^4 and above.
INTERPOLATE_EPSILONS = (
    "1/100", "1/200", "1/50", "3/100", "1/80", "1/250", "1/300", "1/400",
    "1/500", "3/10", "1", "3",
    *(f"1/{10 ** -k}" for k in range(-12, -2, 2)),
    *(str(10 ** k) for k in range(2, 14, 2)),
)


def interpolate_corpus() -> List[List[str]]:
    return [["interpolate", "--d", d, "--epsilon", epsilon]
            for d in ("3", "2") for epsilon in INTERPOLATE_EPSILONS]


# The distinct `cycles` epsilons, 1/q, of the homology workload of
# perfbench seeds 0-4, per degree.
CYCLES_DENOMINATORS = {
    "1": (83, 131, 194, 45, 137, 155, 50, 96, 164, 79, 134, 149, 35, 111, 163),
    "2": (65, 143, 186, 71, 141, 162, 82, 112, 188, 46, 136, 158, 72, 97, 177),
    "3": (63, 104, 200, 48, 98, 152, 49, 113, 181, 70, 95, 183, 40, 94),
}


def cycles_corpus() -> List[List[str]]:
    """The seeded calls, then 10^k for k = -12, -10, ..., 12 at each degree;
    the arc guard, the evaluation budget and the calibration refuse about
    half of the decades with a typed error."""
    decades = [f"1/{10 ** -k}" for k in range(-12, 0, 2)]
    decades += [str(10 ** k) for k in range(0, 14, 2)]
    return [["cycles", "--d", d, "--epsilon", epsilon]
            for d, denominators in CYCLES_DENOMINATORS.items()
            for epsilon in [f"1/{q}" for q in denominators] + decades]


def answer(argv: List[str]) -> Dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    error: Optional[str] = None
    if err.getvalue().startswith("error: "):
        error = err.getvalue()[len("error: "):].rstrip("\n")
    projected = PROJECTIONS[argv[0]](out.getvalue())
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "sha256": hashlib.sha256(projected.encode("utf-8")).hexdigest(),
    }


def _changed(key: str, argvs: List[List[str]], budget: float) -> None:
    """Run the recorded calls under ``key`` and check that they are the
    corpus ``argvs``, that no answer moved, and that they end within
    ``budget`` seconds."""
    recorded = json.loads(DATA.read_text(encoding="utf-8"))[key]
    assert [call["argv"] for call in recorded] == argvs
    start = time.perf_counter()
    changed = [
        (call["argv"], field)
        for call in recorded
        for field, value in answer(call["argv"]).items()
        if call[field] != value
    ]
    elapsed = time.perf_counter() - start
    assert changed == []
    assert elapsed < budget


def test_exact_answers_match_the_recorded_digests():
    _changed("calls", corpus(), 2.0)


def test_interpolate_answers_match_the_recorded_digests():
    _changed("interpolate_calls", interpolate_corpus(), 5.0)


def test_cycles_answers_match_the_recorded_digests():
    _changed("cycles_calls", cycles_corpus(), 5.0)


if __name__ == "__main__":
    blocks = []
    for key, argvs in (("calls", corpus()), ("interpolate_calls", interpolate_corpus()),
                       ("cycles_calls", cycles_corpus())):
        rows = ",\n".join(json.dumps(answer(argv)) for argv in argvs)
        blocks.append(f'"{key}": [\n{rows}\n]')
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{" + ",\n".join(blocks) + "}\n", encoding="utf-8")
