"""Each oracle agrees with the program on small inputs and rejects a
deliberately corrupted output."""

import copy
import json
import random
from fractions import Fraction

import pytest

import oracles
import workloads
from dpmirror.cli import main as cli_main
from dpmirror.homology import extended_vanishing_classes, reference_vanishing_classes
from dpmirror.interfam import FamilySpec, family_at
from dpmirror.pathnum import all_roots
from dpmirror.periods import mirror_check
from dpmirror.pseudolattice import MutationWord, from_boundaries, mutate
from dpmirror.vancycles import critical_values_ordered
from dpmirror.weierstrass import catalog


def artifact(tmp_path, *argv):
    path = tmp_path / "out.json"
    assert cli_main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_matches_program_at_order_10(d):
    report = mirror_check(d, 10)
    assert report.alpha == oracles.ALPHA[d]
    assert list(report.classical.coefficients) == list(oracles.classical_closed_form(d, 10))


def test_mirror_check_rejects_a_corrupted_series(tmp_path):
    good = artifact(tmp_path, "mirror", "--d", "2", "--order", "8")
    assert oracles.check(["mirror", "--d", "2", "--order", "8"], good) == []
    bad = copy.deepcopy(good)
    bad["classical"][5] = str(Fraction(bad["classical"][5]) + 1)
    assert oracles.check(["mirror", "--d", "2", "--order", "8"], bad)
    short = copy.deepcopy(good)
    short["classical"].pop()
    assert oracles.check(["mirror", "--d", "2", "--order", "8"], short)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reference_classes_give_an_I_d_monodromy(d):
    classes = [c.to_pair() for c in reference_vanishing_classes(d)]
    assert oracles.check_classes(d, classes, [0.0] * len(classes)) == []


def test_class_oracle_rejects_corrupted_class_lists():
    classes = [c.to_pair() for c in reference_vanishing_classes(3)]
    zeros = [0.0] * len(classes)
    assert oracles.check_classes(3, classes[:-1], zeros[:-1])
    changed = list(classes)
    changed[4] = (1, 1)
    assert oracles.check_classes(3, changed, zeros)
    assert oracles.check_classes(3, classes, [0.0] * 8 + [1e-3])
    assert oracles.check_classes(2, classes, zeros)


def test_cycles_artifact_passes_and_corruption_fails(tmp_path):
    argv = ["cycles", "--d", "3", "--epsilon", "1/64"]
    good = artifact(tmp_path, *argv)
    assert oracles.check(argv, good) == []
    bad = copy.deepcopy(good)
    bad["classes"][2], bad["classes"][3] = bad["classes"][3], bad["classes"][2]
    bad["classes"][0] = [2, 1]
    assert oracles.check(argv, bad)
    moved = copy.deepcopy(good)
    moved["critical_values"][1][0] += 1e-3
    assert oracles.check(argv, moved)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_numpy_roots_agree_with_program_critical_values(d):
    eps = Fraction(1, 77)
    values = critical_values_ordered(catalog(d, eps))
    roots = oracles.discriminant_roots(d, eps)
    assert oracles.match_roots(values, roots) == []
    values[0] += 1e-4 * (1 + abs(values[0]))
    assert oracles.match_roots(values, roots)
    assert oracles.match_roots(values[1:], roots)


def test_sweep_endpoints_agree_with_numpy_roots():
    eps = Fraction(1, 100)
    spec = FamilySpec.between_degrees(3, 2, eps)
    for s, degree in ((0.0, 3), (1.0, 2)):
        roots = all_roots(family_at(spec, s).invariant_scale().trimmed())
        assert oracles.match_roots(roots, oracles.discriminant_roots(degree, eps)) == []


def test_word_oracle_agrees_with_program_mutate():
    rng = random.Random(5)
    for d in (1, 2, 3):
        classes = extended_vanishing_classes(d)
        lattice, basis, _ = from_boundaries(classes)
        gram = oracles.seifert_gram([c.to_pair() for c in classes])
        assert [list(row) for row in lattice.gram] == gram
        for _ in range(10):
            word = workloads.random_word(rng)
            mutated = mutate(lattice, basis, MutationWord.parse(word))
            assert [list(v) for v in mutated.vectors] == oracles.apply_word(gram, word)


def test_word_oracle_accepts_equal_words_and_rejects_a_corrupted_one():
    assert oracles.word_reduces(2, "R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 R1")
    assert not oracles.word_reduces(2, "R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 L1")
    assert oracles.word_reduces(1, "L5 R9 R8 R7 R6 R5 R4")
    assert not oracles.word_reduces(1, "R9 R8 R7 R6 R5 R4 L6 L1 R3 R2 R1 L3")


def test_interpolate_check_needs_counts_endpoints_and_a_reducing_word():
    eps = Fraction(1, 100)
    ends = {key: [[z.real, z.imag] for z in oracles.discriminant_roots(deg, eps)]
            for key, deg in (("start", 3), ("end", 2))}
    good = {"track_count": 12, "finite_start": 9, "finite_end": 10, "epsilon": "1/100",
            "word": "R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 R1", "validated": True}
    argv = ["interpolate", "--d", "3"]
    assert oracles.check(argv, good, ends) == []
    assert oracles.check(argv, dict(good, word="R7 R6 L3 R8 R7 R6 R5 R4 R3 R2 L1"), ends)
    assert oracles.check(argv, dict(good, finite_end=9), ends)
    assert oracles.check(argv, good, None)
    assert oracles.check(argv, good, dict(ends, end=ends["end"][1:]))


def test_mutate_oracle_rejects_a_changed_boundary(tmp_path):
    argv = ["mutate", "--d", "2", "--word", "L4 R7 L0"]
    good = artifact(tmp_path, *argv)
    assert oracles.check(argv, good) == []
    bad = copy.deepcopy(good)
    bad["boundaries_final"][3] = [1, 2]
    assert oracles.check(argv, bad)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fiber_tables_pass_and_a_changed_type_fails(tmp_path, d):
    for variant in ("exact", "perturbed"):
        argv = ["fibers", "--d", str(d), "--variant", variant, "--epsilon", "1/90"]
        good = artifact(tmp_path, *argv)
        assert oracles.check(argv, good) == []
        bad = copy.deepcopy(good)
        bad["fibers"][-1]["type"] = "I5"
        assert oracles.check(argv, bad)


def test_kodaira_euler_numbers():
    labels = {"I1": 1, "I9": 9, "I0*": 6, "I2*": 8, "II": 2, "III": 3, "IV": 4,
              "IV*": 8, "III*": 9, "II*": 10}
    assert {label: oracles.euler_number(label) for label in labels} == labels
    with pytest.raises(ValueError):
        oracles.euler_number("V")


def test_lattice_checks_reject_wrong_root_counts(tmp_path):
    junction = artifact(tmp_path, "junction", "--d", "3")
    assert oracles.check(["junction", "--d", "3"], junction) == []
    bad = copy.deepcopy(junction)
    bad["kernel_decomposition"]["root_system"]["root_count"] = 70
    assert oracles.check(["junction", "--d", "3"], bad)
    ghs = artifact(tmp_path, "ghs", "--d", "2")
    assert oracles.check(["ghs", "--d", "2"], ghs) == []
    bad = copy.deepcopy(ghs)
    bad["sequence"][1] = [5, 5]
    assert oracles.check(["ghs", "--d", "2"], bad)
