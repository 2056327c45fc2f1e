"""Spans and counts around dpmirror's public functions, installed from outside.

``install`` replaces each listed function with a wrapper, in its own module
and in every dpmirror module that imported it by name, so calls made through
any of those names are recorded.  A span holds its name, start, end and
parent; spans stay in memory and are written out once, after the pass.
Very frequent small functions are counted without spans.  A target that no
longer exists is reported as missing instead of failing the pass.

``layer_metrics`` turns the spans into the per-layer figures of the
benchmark: inclusive times (outermost span of a name, so recursion is not
counted twice), call counts, and counts read off return values.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute, span name).  An attribute "Class.method" wraps a method.
SPANNED = (
    ("dpmirror.cli", "main", "cli.main"),
    ("dpmirror.periods", "classical_period", "periods.classical_period"),
    ("dpmirror.periods", "quantum_period", "periods.quantum_period"),
    ("dpmirror.exactpoly", "LaurentPoly.__mul__", "exactpoly.laurent_mul"),
    ("dpmirror.pathnum", "all_roots", "pathnum.all_roots"),
    ("dpmirror.pathnum", "continue_roots", "pathnum.continue_roots"),
    ("dpmirror.pathnum", "elliptic_integral", "pathnum.elliptic_integral"),
    ("dpmirror.interfam", "sweep", "interfam.sweep"),
    ("dpmirror.interfam", "transposition_word", "interfam.transposition_word"),
    ("dpmirror.vancycles", "vanishing_classes", "vancycles.vanishing_classes"),
    ("dpmirror.vancycles", "critical_values_ordered", "vancycles.critical_values_ordered"),
    ("dpmirror.weierstrass", "fiber_configuration", "weierstrass.fiber_configuration"),
    ("dpmirror.pseudolattice", "verify_mutation_equivalence", "pseudolattice.verify"),
    ("dpmirror.pseudolattice", "mutate", "pseudolattice.mutate"),
    ("dpmirror.pseudolattice", "word_identity", "pseudolattice.word_identity"),
    ("dpmirror.rootlattice", "kernel_decomposition", "rootlattice.kernel_decomposition"),
    ("dpmirror.rootlattice", "short_vectors", "rootlattice.short_vectors"),
)
COUNTED = (("dpmirror.interfam", "chordal", "interfam.chordal"),)
INTLIN = "dpmirror._intlin"


def _epsilon_retries(result: Any, args: tuple, kwargs: dict) -> int:
    """18/17 bumps between the requested epsilon and the one returned."""
    eps = Fraction(kwargs.get("epsilon", args[1] if len(args) > 1 else Fraction(1, 100)))
    retries = 0
    while eps < result.epsilon:
        eps *= Fraction(18, 17)
        retries += 1
    return retries


# What each span keeps of its call's result.
RESULT_READERS: Dict[str, Callable[[Any, tuple, dict], Any]] = {
    "exactpoly.laurent_mul": lambda r, a, k: len(r.terms),
    "pathnum.continue_roots": lambda r, a, k: len(r.parameters) - 1,
    "interfam.sweep": lambda r, a, k: len(r.parameters),
    "vancycles.vanishing_classes": _epsilon_retries,
}


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # [name, parent index or -1, start, end, value read off the result]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []

    def spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        reader = RESULT_READERS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if reader is not None:
                record[4] = reader(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> Dict[str, Any]:
        return {
            "fields": ["name", "parent", "start", "end", "value"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def _dpmirror_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dpmirror" or n.startswith("dpmirror."))]


def _replace(module_name: str, attribute: str, make: Callable[[Callable], Callable],
             recorder: Recorder, name: str) -> Optional[Callable]:
    """Wrap ``module.attribute`` and every name bound to the same object."""
    try:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
    except (ImportError, AttributeError):
        recorder.missing.append(name)
        return None
    wrapper = make(original)
    if inspect.isclass(owner):
        for key, value in list(vars(owner).items()):
            if value is original:  # also aliases such as __rmul__ = __mul__
                setattr(owner, key, wrapper)
    else:
        for module in _dpmirror_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every listed function, every public ``_intlin`` function, and the
    remaining library functions ``cli`` calls (so ``cli.main``'s self time
    excludes all library work)."""
    for module_name, attribute, name in SPANNED:
        _replace(module_name, attribute, lambda f, n=name: recorder.spanned(n, f),
                 recorder, name)
    for module_name, attribute, name in COUNTED:
        _replace(module_name, attribute, lambda f, n=name: recorder.counted(n, f),
                 recorder, name)
    intlin = importlib.import_module(INTLIN)
    for attribute, value in list(vars(intlin).items()):
        if (inspect.isfunction(value) and not attribute.startswith("_")
                and value.__module__ == INTLIN):
            name = f"_intlin.{attribute}"
            _replace(INTLIN, attribute, lambda f, n=name: recorder.spanned(n, f),
                     recorder, name)
    cli = importlib.import_module("dpmirror.cli")
    for attribute, value in list(vars(cli).items()):
        if (inspect.isfunction(value) and not hasattr(value, "__wrapped__")
                and value.__module__.startswith("dpmirror.")
                and value.__module__ != "dpmirror.cli"):
            layer = value.__module__.rpartition(".")[2]
            setattr(cli, attribute, recorder.spanned(f"{layer}.{attribute}", value))


# ---------------------------------------------------------------------------
# per-layer figures


METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.import_numpy_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.import_dpmirror_s", "s"),
    ("cli.main_self_s", "s"),
    ("periods.classical_period_s", "s"),
    ("periods.quantum_period_s", "s"),
    ("exactpoly.laurent_mul_calls", "count"),
    ("exactpoly.laurent_mul_s", "s"),
    ("exactpoly.laurent_terms_max", "count"),
    ("exactpoly.laurent_terms_total", "count"),
    ("pathnum.all_roots_calls", "count"),
    ("pathnum.all_roots_s", "s"),
    ("pathnum.continue_roots_calls", "count"),
    ("pathnum.continue_roots_s", "s"),
    ("pathnum.continue_roots_steps", "count"),
    ("pathnum.continue_fallback_solves", "count"),
    ("pathnum.elliptic_integral_calls", "count"),
    ("pathnum.elliptic_integral_s", "s"),
    ("interfam.sweep_s", "s"),
    ("interfam.sweep_solves", "count"),
    ("interfam.sweep_accept_ratio", "ratio"),
    ("interfam.chordal_calls", "count"),
    ("interfam.transposition_word_s", "s"),
    ("vancycles.vanishing_classes_s", "s"),
    ("vancycles.critical_values_ordered_s", "s"),
    ("vancycles.epsilon_retries", "count"),
    ("weierstrass.fiber_configuration_s", "s"),
    ("pseudolattice.verify_s", "s"),
    ("pseudolattice.mutate_s", "s"),
    ("pseudolattice.word_identity_s", "s"),
    ("rootlattice.kernel_decomposition_s", "s"),
    ("rootlattice.short_vectors_calls", "count"),
    ("rootlattice.short_vectors_s", "s"),
    ("intlin.calls", "count"),
    ("intlin.s", "s"),
)

# Which wrap target each metric needs; a missing target makes it missing.
_NEEDS = {
    "cli.main_self_s": "cli.main",
    "exactpoly.laurent_terms_max": "exactpoly.laurent_mul",
    "exactpoly.laurent_terms_total": "exactpoly.laurent_mul",
    "pathnum.continue_roots_steps": "pathnum.continue_roots",
    "pathnum.continue_fallback_solves": "pathnum.continue_roots",
    "interfam.sweep_solves": "interfam.sweep",
    "interfam.sweep_accept_ratio": "interfam.sweep",
    "interfam.chordal_calls": "interfam.chordal",
    "vancycles.epsilon_retries": "vancycles.vanishing_classes",
    "pseudolattice.verify_s": "pseudolattice.verify",
}


class SpanTree:
    """Index over a recorded span list."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.children: List[List[int]] = [[] for _ in spans]
        for index, (_, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(index)

    def duration(self, index: int) -> float:
        return self.spans[index][3] - self.spans[index][2]

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(self.duration(c) for c in self.children[index])

    def _has_ancestor(self, index: int, match: Callable[[str], bool]) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if match(self.spans[parent][0]):
                return True
            parent = self.spans[parent][1]
        return False

    def matching(self, match: Callable[[str], bool]) -> List[int]:
        return [i for i, span in enumerate(self.spans) if match(span[0])]

    def inclusive(self, match: Callable[[str], bool]) -> float:
        """Time in matching spans, counting nested matches once."""
        return sum(self.duration(i) for i in self.matching(match)
                   if not self._has_ancestor(i, match))

    def descendants(self, index: int, name: str) -> int:
        found, todo = 0, list(self.children[index])
        while todo:
            child = todo.pop()
            found += self.spans[child][0] == name
            todo.extend(self.children[child])
        return found


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass; None where a target is missing."""
    tree = SpanTree(trace["spans"])
    imports, counts = trace["imports"], trace["counts"]
    missing = set(trace["missing"])

    def named(name: str) -> Callable[[str], bool]:
        return lambda n: n == name

    def values(name: str) -> List[Any]:
        return [tree.spans[i][4] for i in tree.matching(named(name))]

    roots = tree.matching(named("pathnum.continue_roots"))
    sweeps = tree.matching(named("interfam.sweep"))
    solves = sum(tree.descendants(i, "pathnum.all_roots") for i in sweeps)
    terms = values("exactpoly.laurent_mul")
    out: Dict[str, Optional[float]] = {
        "cli.import_numpy_s": imports["numpy"],
        "cli.import_scipy_s": imports["scipy.optimize"],
        "cli.import_dpmirror_s": imports["dpmirror.cli"],
        "cli.main_self_s": sum(tree.self_time(i) for i in tree.matching(named("cli.main"))),
        "exactpoly.laurent_terms_max": max(terms, default=0),
        "exactpoly.laurent_terms_total": sum(terms),
        "pathnum.continue_roots_steps": sum(values("pathnum.continue_roots")),
        "pathnum.continue_fallback_solves": sum(
            max(0, tree.descendants(i, "pathnum.all_roots") - 1) for i in roots),
        "interfam.sweep_solves": solves,
        "interfam.sweep_accept_ratio": (sum(values("interfam.sweep")) / solves
                                        if solves else 0.0),
        "interfam.chordal_calls": counts.get("interfam.chordal", 0),
        "vancycles.epsilon_retries": sum(values("vancycles.vanishing_classes")),
        "pseudolattice.verify_s": tree.inclusive(named("pseudolattice.verify")),
        "intlin.calls": len(tree.matching(lambda n: n.startswith("_intlin."))),
        "intlin.s": tree.inclusive(lambda n: n.startswith("_intlin.")),
    }
    for metric, _unit in METRICS:
        if metric in out:
            continue
        base, _, kind = metric.rpartition("_")
        if kind == "calls":
            out[metric] = len(tree.matching(named(base)))
        else:  # "<layer>.<function>_s"
            out[metric] = tree.inclusive(named(base))
    for metric, _unit in METRICS:
        target = _NEEDS.get(metric, metric.rpartition("_")[0])
        if target in missing:
            out[metric] = None
    return out


def layer_shares(trace: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer (module) as a share of all time under ``cli.main``."""
    tree = SpanTree(trace["spans"])
    total = tree.inclusive(lambda n: n == "cli.main")
    shares: Counter = Counter()
    for index, span in enumerate(tree.spans):
        shares[span[0].split(".")[0]] += tree.self_time(index)
    return {layer: t / total for layer, t in shares.most_common()} if total else {}
