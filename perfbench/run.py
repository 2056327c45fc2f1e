"""The dpmirror benchmark: fresh-process passes over one workload.

    python3 perfbench/run.py --workload periods --seed 1 --seconds 38 --trace 0

Run from the repository root.  A single generator process (this one) runs
passes one at a time, closed loop: each pass is a fresh interpreter
(``child.py``) that imports ``dpmirror.cli`` and makes every call of the
workload through ``dpmirror.cli.main``, as a user's command line would, with
BLAS threads capped at 1.  After each pass, outside its timing, every
artifact is checked against the independent computations in ``oracles.py``;
a call that exits non-zero or fails a check is a failed operation.  Passes
start while half a pass still fits in ``--seconds`` (at least three run), and the
end-to-end metrics are medians over them.  The machine's speed drifts, so a
fixed calibration is timed between passes and each pass's times are scaled
to the machine's reference speed (see ``calibrate`` and ``speed_factor``).  With ``--trace 1`` one more pass
runs with spans around each layer (``spans.py``), and the per-layer metrics
come from it alone.

The last line of standard output is the result object; the full record of
the run (every pass, the calibrations, the trace summary) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")

# One BLAS thread in every process, so a pass never competes with itself
# for the machine's two cores.
THREAD_CAPS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB"))

_EIGEN_MATRIX = (np.arange(144).reshape(12, 12) % 7) + 1j * (np.arange(144).reshape(12, 12) % 5)


def _integer_loop() -> None:
    total = 0
    for i in range(600_000):
        total += (i * i) % 7
    if total != 1_199_997:
        raise RuntimeError("calibration loop computed the wrong total")


def _fraction_sum() -> None:
    total = Fraction(0)
    for i in range(1, 5001):
        total += Fraction(i % 97 + 1, i) * Fraction(3, i % 13 + 1)
    if total.numerator % 1_000_003 != 684_733:
        raise RuntimeError("calibration sum computed the wrong total")


def _eigen_solves() -> None:
    for _ in range(800):
        np.linalg.eigvals(_EIGEN_MATRIX)


# The calibration: fixed pieces of the kinds of work the workloads do (pure
# Python integers, exact rationals, small dense numpy solves), each with its
# time at the reference speed: its median over the 104 calibrations of
# fifteen runs on the machine where README.md's figures were taken.
CALIBRATION = (
    ("integer_loop", _integer_loop, 0.063),
    ("fraction_sum", _fraction_sum, 0.056),
    ("eigen_solves", _eigen_solves, 0.084),
)


def calibrate() -> Dict[str, float]:
    """Seconds for each calibration piece.  The pieces never change, so when
    they slow down the machine did, not the program."""
    times = {}
    for name, piece, _ in CALIBRATION:
        begin = time.perf_counter()
        piece()
        times[name] = time.perf_counter() - begin
    return times


def speed_factor(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Reference seconds per second of wall time around one pass.

    Each piece's time is averaged over the calibrations just before and just
    after the pass; the factor is the geometric mean, over the pieces, of the
    reference time over that average.  Below 1 the machine ran slow.
    """
    logs = [math.log(reference / ((before[name] + after[name]) / 2))
            for name, _, reference in CALIBRATION]
    return math.exp(sum(logs) / len(logs))


def scale_to_reference(result: Dict, before: Dict[str, float],
                       after: Dict[str, float]) -> None:
    """Scale a pass's set-up and pass time to the reference speed, keeping
    the measured wall times beside them."""
    factor = speed_factor(before, after)
    result["speed_factor"] = factor
    for name in ("setup_s", "pass_s"):
        result[f"wall_{name}"] = result[name]
        result[name] *= factor


def run_child(calls: List[List[str]], out_dir: str, env: Dict[str, str],
              trace_path: Optional[str] = None) -> Dict:
    """Run one pass in a fresh interpreter; its result, or an error record."""
    os.makedirs(out_dir, exist_ok=True)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"calls": calls, "out_dir": out_dir, "src": SRC,
                   "trace_path": trace_path}, handle)
    begin = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {CHILD_TIMEOUT_S} s"}
    wall_s = time.perf_counter() - begin
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall_s
    return result


def check_pass(calls: List[List[str]], result: Dict) -> List[Dict]:
    """One record per call: its argv, exit code and the problems found."""
    import oracles

    if "error" in result:
        return [{"argv": argv, "code": None, "problems": [result["error"]]}
                for argv in calls]
    endpoints = iter(result["endpoints"])
    records = []
    for argv, code, path in zip(calls, result["codes"], result["artifacts"]):
        problems: List[str] = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            with open(path, encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"artifact unreadable: {exc}")
        else:
            sweep_ends = next(endpoints, None) if argv[0] == "interpolate" else None
            problems += oracles.check(argv, artifact, sweep_ends)
        records.append({"argv": argv, "code": code, "problems": problems})
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpmirror", "cli.py")):
        print(f"error: no dpmirror sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    # The generator and every pass share one CPU, so the calibrations time
    # the CPU the passes ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Imported before the deadline starts, so the first checks do not spend
    # the run's time on imports.
    import oracles  # noqa: F401
    import dpmirror.cli  # noqa: F401

    # A fixed hash seed keeps set and dict iteration, and so the work done,
    # the same in every pass.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    calls = workloads.calls(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(RESULTS, f"scratch-{tag}")
    shutil.rmtree(scratch, ignore_errors=True)

    # Untimed: fills the byte-code and file caches a user's repeated calls see.
    warm = run_child([], os.path.join(scratch, "warm"), env)
    if "error" in warm:
        print(f"error: warm-up failed: {warm['error']}", file=sys.stderr)
        return 2

    passes: List[Dict] = []
    records: List[Dict] = []
    crashed = False
    deadline = time.perf_counter() + args.seconds
    # One calibration before the first pass and one after every pass, so
    # each pass is bracketed by the two nearest it.
    calibration = [calibrate()]
    # A pass starts when at least half of it fits before the deadline, so
    # runs end within half a pass of --seconds on either side.
    while len(passes) < MIN_PASSES or (
            time.perf_counter() + statistics.median(p["wall_s"] for p in passes) / 2
            <= deadline):
        result = run_child(calls, os.path.join(scratch, f"pass{len(passes)}"), env)
        calibration.append(calibrate())
        records += check_pass(calls, result)
        if "error" in result:
            crashed = True
            break
        scale_to_reference(result, calibration[-2], calibration[-1])
        passes.append(result)

    crashed = crashed or len(passes) < MIN_PASSES
    summary: Dict = {}
    if not crashed:
        summary = {name: statistics.median(p[name] for p in passes)
                   for name in [n for n, _ in END_TO_END]
                   + ["wall_setup_s", "wall_pass_s", "speed_factor"]}
    metrics = {name: {"value": summary.get(name), "unit": unit}
               for name, unit in END_TO_END}

    traced = None
    if args.trace and not crashed:
        import spans

        trace_path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
        traced = run_child(calls, os.path.join(scratch, "traced"), env, trace_path)
        calibration.append(calibrate())
        records += check_pass(calls, traced)
        crashed = "error" in traced
        if not crashed:
            scale_to_reference(traced, calibration[-2], calibration[-1])
            with open(trace_path, encoding="utf-8") as handle:
                trace = json.load(handle)
            layers = spans.layer_metrics(trace)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in spans.METRICS}
            traced["overhead_s"] = traced["pass_s"] - summary["pass_s"]
            traced["layer_shares"] = spans.layer_shares(trace)
            traced["missing"] = trace["missing"]

    failed = [r for r in records if r["problems"]]
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "calls": calls, "passes": passes, "calibration_s": calibration,
                   "calibration_reference_s": {name: reference
                                               for name, _, reference in CALIBRATION},
                   "traced": traced, "summary": summary,
                   "failures": failed}, handle, indent=1)

    for line in sorted({f"dpmirror {' '.join(r['argv'])}: {'; '.join(r['problems'])}"
                        for r in failed}):
        print(f"failed: {line}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(calls)} calls; "
          + ", ".join(f"{k} {v:.4g}" for k, v in summary.items()))
    if traced is not None and not crashed:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in list(traced["layer_shares"].items())[:6])
        print(f"traced pass {traced['pass_s']:.4g} s (overhead {traced['overhead_s']:+.3g} s); "
              f"self-time shares: {shares}")
    print(json.dumps({
        "correct": not crashed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
