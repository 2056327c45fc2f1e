"""Exact answers of a fixed corpus of CLI calls, checked against recorded digests.

``tests/data/exact_answers.json`` holds, for each argv of the corpus, the
exit code, the text of a typed error (what ``main`` prints after "error: ",
or null), and the sha256 of the artifact's exact projection.  The
projection of a subcommand keeps the keys that are exact answers and drops
numeric samples; ``PROJECTIONS`` names one per subcommand in the corpus.
The fiber tables, the period series and the lattice subcommands write no
floats, so their whole artifact is the projection.

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


# subcommand -> the exact projection of its artifact
PROJECTIONS: Dict[str, Callable[[str], str]] = {
    "fibers": _whole,
    "mirror": _whole,
    "junction": _whole,
    "verify": _whole,
    "ghs": _whole,
    "mutate": _whole,
    "check": _whole,
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


def test_exact_answers_match_the_recorded_digests():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))["calls"]
    assert [call["argv"] for call in recorded] == corpus()
    start = time.perf_counter()
    changed = [
        (call["argv"], key)
        for call in recorded
        for key, value in answer(call["argv"]).items()
        if call[key] != value
    ]
    elapsed = time.perf_counter() - start
    assert changed == []
    assert elapsed < 2.0


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(answer(argv)) for argv in corpus())
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(f'{{"calls": [\n{rows}\n]}}\n', encoding="utf-8")
