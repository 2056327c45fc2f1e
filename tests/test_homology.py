"""Tests for fiber homology classes, twists, and monodromy bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror.homology import (
    HomologyClass,
    SL2Matrix,
    dehn_twist,
    extended_vanishing_classes,
    h1_pair,
    infinity_cycle,
    reference_vanishing_classes,
    seifert_gram,
    target_boundary_classes,
    total_monodromy,
)

A = HomologyClass(1, 0)
B = HomologyClass(0, 1)

REFERENCE_LENGTHS = {1: 11, 2: 10, 3: 9}


# ---------------------------------------------------------------------------
# classes and pairing


def test_class_arithmetic():
    assert A + B == HomologyClass(1, 1)
    assert A + -B == HomologyClass(1, -1)
    assert -A == HomologyClass(-1, 0)
    assert HomologyClass(0, 0).is_zero()
    assert not A.is_zero()
    assert A.to_pair() == (1, 0)


def test_sign_normalized_makes_first_nonzero_positive():
    assert HomologyClass(-1, 2).sign_normalized() == HomologyClass(1, -2)
    assert HomologyClass(0, -3).sign_normalized() == HomologyClass(0, 3)
    assert HomologyClass(2, -1).sign_normalized() == HomologyClass(2, -1)


def test_pairing_calibration():
    assert h1_pair(A, B) == -1
    assert h1_pair(B, A) == 1
    assert h1_pair(A, A) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_pairing_is_antisymmetric(m1, n1, m2, n2):
    u, v = HomologyClass(m1, n1), HomologyClass(m2, n2)
    assert h1_pair(u, v) == -h1_pair(v, u)
    assert h1_pair(u, u) == 0


def test_seifert_gram_is_unitriangular():
    classes = reference_vanishing_classes(3)
    gram = seifert_gram(classes)
    n = len(classes)
    for i in range(n):
        assert gram[i][i] == 1
        for j in range(i):
            assert gram[i][j] == 0
        for j in range(i + 1, n):
            assert gram[i][j] == h1_pair(classes[i], classes[j])


# ---------------------------------------------------------------------------
# matrices and twists


def test_sl2_requires_unit_determinant():
    with pytest.raises(ValueError):
        SL2Matrix(((1, 0), (0, 2)))


def test_sl2_power_and_inverse():
    t = dehn_twist(B)  # ((1, 0), (d, 1)) pattern in the n-direction
    assert (t @ t.inverse()).is_identity()
    assert t.power(3) @ t.power(-3) == SL2Matrix.identity()
    assert t.power(0).is_identity()


def test_dehn_twist_calibration():
    assert dehn_twist(A).rows == ((1, -1), (0, 1))
    assert dehn_twist(B).rows == ((1, 0), (1, 1))


def _act(matrix: SL2Matrix, v: HomologyClass) -> HomologyClass:
    (a, b), (c, d) = matrix.rows
    return HomologyClass(a * v.m + b * v.n, c * v.m + d * v.n)


def test_dehn_twist_fixes_its_class_and_ignores_sign():
    for cls in (A, B, HomologyClass(2, -3)):
        twist = dehn_twist(cls)
        assert _act(twist, cls) == cls
        assert dehn_twist(-cls).rows == twist.rows


@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_dehn_twist_action_formula(m1, n1, m2, n2):
    cls, other = HomologyClass(m1, n1), HomologyClass(m2, n2)
    moved = _act(dehn_twist(cls), other)
    k = h1_pair(cls, other)
    assert moved == other + HomologyClass(k * cls.m, k * cls.n)


# ---------------------------------------------------------------------------
# reference class lists and global monodromy


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reference_class_counts(d):
    classes = reference_vanishing_classes(d)
    assert len(classes) == REFERENCE_LENGTHS[d]
    assert classes[0] == HomologyClass(1, 1)
    extended = extended_vanishing_classes(d)
    assert len(extended) == 12
    assert extended[: len(classes)] == classes
    assert all(c == B for c in extended[len(classes) :])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_target_boundary_classes(d):
    target = target_boundary_classes(d)
    assert len(target) == 12 - d
    assert [c.to_pair() for c in target[:3]] == [(1, 1), (2, -1), (1, -2)]
    assert all(c.to_pair() == (0, -1) for c in target[3:])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_total_monodromy_is_cancelled_by_infinity_twists(d):
    classes = reference_vanishing_classes(d)
    monodromy = total_monodromy(classes)
    assert monodromy.rows == ((1, 0), (-d, 1))
    cycle = infinity_cycle(classes, multiplicity=d)
    assert cycle == B
    assert (dehn_twist(cycle).power(d) @ monodromy).is_identity()


def test_total_monodromy_applies_first_class_first():
    classes = [A, B]
    got = total_monodromy(classes)
    assert got == dehn_twist(B) @ dehn_twist(A)


def test_infinity_cycle_reports_when_nothing_cancels():
    with pytest.raises(ValueError):
        infinity_cycle([A], multiplicity=5)


def test_infinity_cycle_rejects_a_multiplicity_below_one():
    for multiplicity in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            infinity_cycle([], multiplicity)


def test_infinity_cycle_finds_a_cycle_with_large_coordinates():
    classes = [HomologyClass(m, n) for m, n in
               [(1, 2), (1, 1), (1, 2), (0, -1), (2, 1), (1, 1), (0, 1), (1, 2)]]
    cycle = infinity_cycle(classes, multiplicity=4)
    assert cycle == HomologyClass(3, 5)
    assert (dehn_twist(cycle).power(4) @ total_monodromy(classes)).is_identity()
