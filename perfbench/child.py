"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds the argv vectors of the pass, the directory for the artifacts,
and, for a traced pass, the path of the span file.  The child times its
set-up (importing ``dpmirror.cli`` and building the argv it will run), then
the pass (every call through ``dpmirror.cli.main``, one after another), and
prints one JSON line: set-up and pass time, peak resident memory, the exit
code of every call, and the sweep endpoints the interpolation checks need.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _timed_import(name: str) -> float:
    begin = time.perf_counter()
    __import__(name)
    return time.perf_counter() - begin


def _endpoint_capture(cli, ends: list):
    """Wrap ``cli.sweep`` to keep the finite critical values at both ends.

    The JSON artifact of ``interpolate`` carries counts and the braid word
    but not the values, and re-running the sweep for them would double the
    pass; keeping two rows of the returned trajectories adds microseconds.
    """
    sweep = cli.sweep

    def capture(*args, **kwargs):
        result = sweep(*args, **kwargs)
        ends.append({
            key: [[p.affine().real, p.affine().imag] for p in result.positions[row]
                  if not p.parked]
            for key, row in (("start", 0), ("end", -1))
        })
        return result

    return capture


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    imports = {}
    if spec.get("trace_path"):
        for name in ("numpy", "scipy.optimize", "dpmirror.cli"):
            imports[name] = _timed_import(name)
    import dpmirror.cli as cli

    expected = os.path.join(spec["src"], "dpmirror", "cli.py")
    if os.path.realpath(cli.__file__) != os.path.realpath(expected):
        print(f"imported {cli.__file__}, expected {expected}", file=sys.stderr)
        return 2
    os.makedirs(spec["out_dir"], exist_ok=True)
    argvs = [
        list(argv) + ["--out", os.path.join(spec["out_dir"], f"call{index}.json")]
        for index, argv in enumerate(spec["calls"])
    ]
    setup_s = time.perf_counter() - START

    recorder = None
    if spec.get("trace_path"):
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    endpoints: list = []
    cli.sweep = _endpoint_capture(cli, endpoints)
    run = cli.main  # after install, so a traced pass enters through the wrapper

    begin = time.perf_counter()
    codes = [run(argv) for argv in argvs]
    pass_s = time.perf_counter() - begin

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        with open(spec["trace_path"], "w", encoding="utf-8") as handle:
            json.dump({"imports": imports, **recorder.to_json()}, handle)
    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "artifacts": [argv[-1] for argv in argvs],
        "endpoints": endpoints,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
