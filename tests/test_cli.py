"""Command-line interface tests: parsing, subcommands, exit codes, artifacts."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpmirror import cli
from dpmirror.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    parse_args,
    parse_rational,
)
from dpmirror.homology import HomologyClass

# Frozen singular-fiber tables of the exact catalog models.
EXACT_TABLES = {
    1: {"0": "II*", "432": "I1", "inf": "I1"},
    2: {"0": "III*", "64": "I1", "inf": "I2"},
    3: {"0": "IV*", "27": "I1", "inf": "I3"},
}

# Frozen output of `dpmirror check`: one verdict line per claim.
CHECK_REPORT = """\
reduction word, degree 1                PASS
reduction word, degree 2                PASS
reduction word, degree 3                PASS
word identity, degree 1                 PASS
word identity, degree 2                 PASS
junction kernel E8 + radical, degree 1  PASS
surface basis Gram, degree 1            PASS
junction kernel E7 + radical, degree 2  PASS
surface basis Gram, degree 2            PASS
junction kernel E6 + radical, degree 3  PASS
surface basis Gram, degree 3            PASS
torus-model sequence, rank 6            PASS
torus-model sequence, rank 7            PASS
torus-model sequence, rank 8            PASS
infinity cycle is +/-b, degree 1        PASS
infinity cycle is +/-b, degree 2        PASS
infinity cycle is +/-b, degree 3        PASS

17/17 checks passed
"""


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_rational_accepts_exact_forms():
    assert parse_rational("1/100") == Fraction(1, 100)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7") == Fraction(7)
    assert parse_rational(" 12 ") == Fraction(12)


def test_parse_rational_rejects_inexact_forms():
    for bad in ("0.01", "1e-2", "1/0", "a/b", "", "1//2", "--3", "²", "1/²"):
        with pytest.raises(UsageError):
            parse_rational(bad)


_RATIONAL_CHARS = "0123456789+-/ .e\u00b2\u0663\u0664"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_RATIONAL_CHARS, max_size=12)))
@example("9" * 5000)
@example("1/" + "7" * 5000)
def test_parse_rational_returns_fraction_or_usage_error(text):
    try:
        value = parse_rational(text)
    except UsageError:
        return
    assert isinstance(value, Fraction)


def test_parse_args_defaults():
    config = parse_args(["verify", "--d", "3"])
    assert config.command == "verify"
    assert config.d == 3
    assert config.epsilon == Fraction(1, 100)
    assert config.order == 12
    assert config.fmt == "json"
    assert config.out is None


def test_config_validation_rejects_bad_fields():
    base = dict(
        command="verify", d=3, epsilon=Fraction(1, 100), order=12,
        out=None, fmt="json", word=None, variant=None,
    )
    for patch in (
        {"command": "bogus"},
        {"d": 4},
        {"epsilon": Fraction(0)},
        {"order": 0},
        {"order": 1},
        {"fmt": "png"},
        {"variant": "fancy"},
    ):
        with pytest.raises(UsageError):
            RunConfig(**{**base, **patch})


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "verify")[0] == EXIT_USAGE  # missing --d
    assert run_cli(capsys, "nonsense", "--d", "3")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--d", "3", "--epsilon", "0.01")[0] \
        == EXIT_USAGE
    assert run_cli(capsys, "mirror", "--d", "3", "--format", "csv")[0] \
        == EXIT_USAGE
    code, _, err = run_cli(capsys, "fibers", "--d", "1", "--epsilon", "²")
    assert code == EXIT_USAGE
    assert "not an exact rational" in err
    code, _, err = run_cli(capsys, "mirror", "--d", "3", "--order", "1")
    assert code == EXIT_USAGE
    assert "--order must be at least 2" in err


def test_subcommands_refuse_flags_they_do_not_read(capsys):
    for argv in (
        ("mirror", "--d", "1", "--word", "L1"),
        ("verify", "--d", "1", "--order", "4"),
        ("ghs", "--d", "1", "--seed", "1"),
        ("junction", "--d", "1", "--tol", "1/3"),
        ("mirror", "--d", "1", "--variant", "perturbed"),
        ("cycles", "--d", "3", "--variant", "exact"),
        ("fibers", "--d", "3", "--format", "svg"),
        ("check", "--d", "3"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "error:" in err


# ---------------------------------------------------------------------------
# fiber tables and critical values


def test_fibers_exact_tables(capsys):
    for d, expected in EXACT_TABLES.items():
        code, out, _ = run_cli(capsys, "fibers", "--d", str(d),
                               "--variant", "exact")
        assert code == EXIT_PASS
        table = {f["place"]: f["type"] for f in json.loads(out)["fibers"]}
        assert table == expected


def test_fibers_perturbed_csv(capsys):
    code, out, _ = run_cli(capsys, "fibers", "--d", "3",
                           "--variant", "perturbed", "--format", "csv")
    assert code == EXIT_PASS
    lines = out.strip().split("\n")
    assert lines[0] == "place,type,count"
    counted = {}
    for line in lines[1:]:
        _, label, count = line.rsplit(",", 2)
        counted[label] = counted.get(label, 0) + int(count)
    assert counted["I1"] == 9
    assert counted["I3"] == 1


def test_critvals_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "critvals", "--d", "3", "--format", "csv")
    assert code == EXIT_PASS
    lines = out.strip().split("\n")
    assert lines[0] == "index,re,im"
    assert len(lines) == 1 + 9


def test_critvals_exact_model_is_a_numeric_error(capsys):
    code, _, err = run_cli(capsys, "critvals", "--d", "3",
                           "--variant", "exact")
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# verification subcommands


def test_mirror_passes(capsys):
    code, out, _ = run_cli(capsys, "mirror", "--d", "2", "--order", "8")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["first_mismatch"] is None
    assert payload["alpha"] == "12/1"


def test_verify_passes_for_all_degrees(capsys):
    for d in (1, 2, 3):
        code, out, _ = run_cli(capsys, "verify", "--d", str(d))
        assert code == EXIT_PASS
        assert json.loads(out)["passed"] is True


def test_cycles_reports_classes_and_gram(capsys):
    code, out, _ = run_cli(capsys, "cycles", "--d", "3")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert len(payload["classes"]) == 9
    gram = payload["seifert_gram"]
    assert len(gram) == 9 and all(len(row) == 9 for row in gram)
    assert all(gram[i][i] == 1 for i in range(9))


def test_junction_passes(capsys):
    code, out, _ = run_cli(capsys, "junction", "--d", "3")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["kernel_decomposition"]["root_system"]["dynkin_type"] \
        == "E6"
    assert len(payload["fundamental_weights"]) == 6


def test_ghs_matches_for_all_degrees(capsys):
    for d in (1, 2, 3):
        code, out, _ = run_cli(capsys, "ghs", "--d", str(d))
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["matches_up_to_sign"] is True
        assert payload["ell"] == 9 - d


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_validates_the_descending_family(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--d", "3")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert (payload["finite_start"], payload["finite_end"]) == (9, 10)
    assert payload["track_count"] == 12
    assert payload["validated"] is True
    assert payload["warning"] is None
    assert "warning" not in err


def test_interpolate_downgrades_heuristic_failure_to_warning(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--d", "2")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert (payload["finite_start"], payload["finite_end"]) == (10, 11)
    assert payload["validated"] is False
    assert payload["warning"]
    assert "warning:" in err


def test_interpolate_rejects_bottom_degree(capsys):
    assert run_cli(capsys, "interpolate", "--d", "1")[0] == EXIT_USAGE


def test_interpolate_svg_artifact(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--d", "3",
                           "--format", "svg")
    assert code == EXIT_PASS
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")


# ---------------------------------------------------------------------------
# mutate


def test_mutate_inverse_pair_returns_to_start(capsys):
    code, out, _ = run_cli(capsys, "mutate", "--d", "2", "--word", "L4 R4")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["applied"] is True
    assert payload["boundaries_final"] == payload["boundaries_initial"]


def test_mutate_reports_word_errors(capsys):
    assert run_cli(capsys, "mutate", "--d", "2", "--word", "Q1")[0] \
        == EXIT_USAGE
    assert run_cli(capsys, "mutate", "--d", "2")[0] == EXIT_USAGE
    code, out, _ = run_cli(capsys, "mutate", "--d", "2", "--word", "R11")
    assert code == EXIT_FAIL
    assert json.loads(out)["applied"] is False


# ---------------------------------------------------------------------------
# artifacts


def test_out_flag_writes_the_artifact(capsys, tmp_path):
    path = tmp_path / "fibers.json"
    code, out, _ = run_cli(capsys, "fibers", "--d", "1", "--variant", "exact",
                           "--out", str(path))
    assert code == EXIT_PASS
    assert out == ""
    table = {f["place"]: f["type"] for f in json.loads(path.read_text())["fibers"]}
    assert table == EXACT_TABLES[1]


def test_identical_configs_produce_identical_bytes(capsys):
    first = run_cli(capsys, "fibers", "--d", "2", "--variant", "exact")[1]
    second = run_cli(capsys, "fibers", "--d", "2", "--variant", "exact")[1]
    assert first == second
    third = run_cli(capsys, "ghs", "--d", "2")[1]
    fourth = run_cli(capsys, "ghs", "--d", "2")[1]
    assert third == fourth


# ---------------------------------------------------------------------------
# check


def test_check_prints_one_verdict_per_claim(capsys):
    code, out, _ = run_cli(capsys, "check")
    assert code == EXIT_PASS
    assert out == CHECK_REPORT


def test_library_value_error_propagates(capsys, monkeypatch):
    """A bare ValueError from a library layer is a bug, not a usage error:
    it leaves ``main`` with its traceback instead of printing ``error:``."""
    def broken(d):
        raise ValueError("library bug")

    monkeypatch.setattr(cli, "verify_mutation_equivalence", broken)
    with pytest.raises(ValueError, match="library bug"):
        main(["verify", "--d", "3"])
    assert "error:" not in capsys.readouterr().err


_EPSILON_COMMANDS = (("fibers", "--variant", "perturbed"), ("critvals",))


@st.composite
def _epsilons(draw):
    """An exact positive rational n/m * 10^k, as the --epsilon text."""
    value = Fraction(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 10 ** 4)))
    value *= Fraction(10) ** draw(st.integers(-12, 12))
    return f"{value.numerator}/{value.denominator}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EPSILON_COMMANDS), st.sampled_from("123"), _epsilons())
@example(("critvals",), "1", "1" + "0" * 400)  # beyond the float range
@example(("critvals",), "3", "1" + "0" * 300)  # the root solve cannot certify
@example(("fibers", "--variant", "perturbed"), "1", "1/1234577")  # uncertified
def test_epsilon_exits_zero_or_with_a_typed_error(command, d, epsilon):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command[0], "--d", d, "--epsilon", epsilon,
                     "--out", os.devnull, *command[1:]])
    assert code in (EXIT_PASS, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("epsilon, message", [
    ("1" + "0" * 400, "a coefficient exceeds the float range"),
    ("1" + "0" * 308, "a coefficient exceeds the float range"),  # a0 + a1 overflows
    ("6" + "0" * 307, "a coefficient exceeds the float range"),
    ("1" + "0" * 300, "a coefficient exceeds the float range"),
    ("4" + "0" * 102, "a coefficient exceeds the float range"),  # 4 a^3 overflows
    ("1" + "0" * 50, "the invariant degenerates"),
    ("1/1000000", "a critical value hits the base point"),
])
def test_interpolate_at_extreme_epsilon_fails_with_a_typed_error(epsilon, message):
    """Float overflow stays silent, as in Python arithmetic: the only output
    is the typed error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["interpolate", "--d", "3", "--epsilon", epsilon,
                     "--out", os.devnull])
    assert code == EXIT_USAGE
    assert err.getvalue().startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ("fibers", "--d", "1", "--variant", "perturbed", "--epsilon", "1" + "0" * 300),
    ("cycles", "--d", "1", "--epsilon", "1" + "0" * 50),
    ("interpolate", "--d", "3", "--epsilon", "1" + "0" * 300),
])
def test_extreme_epsilon_finishes_within_five_seconds(argv):
    """The candidate-pair cap of ``rational_roots`` and the step budget of
    ``continue_roots`` bound the work at extreme perturbations."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root)
    result = subprocess.run(
        [sys.executable, "-m", "dpmirror.cli", *argv, "--out", os.devnull],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert result.returncode in (EXIT_PASS, EXIT_USAGE)
    if result.returncode == EXIT_USAGE:
        assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("d", ["1", "3"])
def test_small_epsilon_cycles_stay_within_the_step_budget(d):
    """At epsilon 10^-6, the smallest power of ten whose arcs still pass the
    arc guard for d = 1 and 3, the longest continuation takes 122 family
    evaluations, far below ``continue_roots``'s budget."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["cycles", "--d", d, "--epsilon", "1/1000000",
                     "--out", os.devnull])
    assert code == EXIT_PASS, err.getvalue()


def test_check_fails_when_a_claim_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "infinity_cycle",
                        lambda classes, d: HomologyClass(1, 0))
    code, out, _ = run_cli(capsys, "check")
    assert code == EXIT_FAIL
    assert "infinity cycle is +/-b, degree 2        FAIL" in out
    assert out.endswith("\n14/17 checks passed\n")


# ---------------------------------------------------------------------------
# imports


def test_importing_the_cli_loads_no_scipy():
    """A fresh interpreter imports ``dpmirror.cli`` without any scipy module."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root)
    code = ("import sys, dpmirror.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
