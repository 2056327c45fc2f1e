"""Tests for pseudolattices, mutations, and the reduction-word verification."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpmirror import pseudolattice
from dpmirror._intlin import (
    determinant_integer,
    integer_kernel,
    matrix_multiply,
    matrix_vector,
    restricted_gram,
    transpose,
)
from dpmirror.homology import (
    HomologyClass,
    extended_vanishing_classes,
    reference_vanishing_classes,
)
from dpmirror.pseudolattice import (
    ExceptionalBasis,
    MutationMove,
    MutationWord,
    Pseudolattice,
    PseudolatticeError,
    _D3_ROWS,
    _matches_up_to_sign,
    del_pezzo_gram,
    from_boundaries,
    ghs_sequences,
    ghs_target,
    mutate,
    neron_severi,
    point_like,
    reduction_word,
    serre,
    sign_normalize,
    standard_word_identity,
    verify_mutation_equivalence,
    word_identity,
)

# Frozen Gram of the nine-class degree-3 fibration basis.
GRAM3_EXPECTED = [
    [1, -1, 1, -1, 1, -1, 1, -1, 1],
    [0, 1, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, -1, 0, -1, 0, -1, 0],
    [0, 0, 0, 1, 1, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, -1, 0, -1, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]

# The displayed boundary-class rows of the degree-3 reduction, each after the
# given number of moves of its word (applied right to left).  The computed
# classes match the first seven rows exactly and the last up to sign.
D3_ROWS = [
    (1, [(1, 1), (1, -1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0)]),
    (3, [(1, 1), (1, -1), (1, -2), (0, 1), (0, 1), (0, 1), (1, 0), (0, 1), (1, 0)]),
    (6, [(1, 1), (1, -1), (1, -2), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1), (1, 0)]),
    (10, [(1, 1), (1, -1), (1, -2), (1, -3), (1, -4), (0, 1), (0, 1), (0, 1), (0, 1)]),
    (12, [(1, 1), (0, -1), (1, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)]),
    (13, [(1, 1), (1, -2), (0, -1), (0, -1), (1, -3), (0, 1), (0, 1), (0, 1), (0, 1)]),
    (15, [(1, 1), (1, -2), (1, -5), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)]),
    (16, [(1, 1), (2, -1), (1, -2), (0, -1), (0, -1), (0, 1), (0, 1), (0, 1), (0, 1)]),
]

# Boundary classes (up to per-class sign) after the three extra moves that
# the degree-2 word appends, applied to the extended degree-2 basis.
D2_INTERMEDIATE = [
    (1, 1), (1, 0), (0, 1), (1, 0), (0, 1), (1, 0),
    (0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (0, 1),
]

# The torus-model sequences, with the signs that `dpmirror ghs` reports.
GHS_SEQUENCES = {
    6: [(1, 0), (-1, -1)] * 4,
    7: [(1, 0), (0, -1), (1, 1)] * 2 + [(1, 0), (0, 1), (1, 1)],
    8: [(1, 0), (1, 1)] * 5,
}

FIBRATION_POINT = [1, 1, -1, 0, -1, -1, 0, -1, 1]
M6_POINT = [1, -1, 1, 0, 0, 0, 0, 0, 0]
D3_SIGN_DIAGONAL = (1, -1, 1, 1, 1, -1, -1, -1, -1)


def classes(pairs):
    return [HomologyClass(m, n) for m, n in pairs]


def m6_lattice():
    return Pseudolattice(tuple(tuple(row) for row in del_pezzo_gram(6)))


# ---------------------------------------------------------------------------
# construction


def test_from_boundaries_reproduces_frozen_gram():
    lattice, basis, charge = from_boundaries(reference_vanishing_classes(3))
    assert [list(row) for row in lattice.gram] == GRAM3_EXPECTED
    assert charge.charges(basis) == tuple(reference_vanishing_classes(3))


def test_from_boundaries_two_classes():
    lattice, _, _ = from_boundaries(classes([(1, 0), (0, 1)]))
    assert lattice.gram == ((1, -1), (0, 1))


def test_pseudolattice_rejects_degenerate_and_non_square():
    with pytest.raises(PseudolatticeError):
        Pseudolattice(((0, 0), (0, 0)))
    with pytest.raises(PseudolatticeError):
        Pseudolattice(((1, 0, 0), (0, 1, 0)))


def test_pairing_uses_row_acts_first_convention():
    lattice, _, _ = from_boundaries(classes([(1, 0), (0, 1)]))
    assert lattice.pairing([1, 0], [0, 1]) == -1
    assert lattice.pairing([0, 1], [1, 0]) == 0


# ---------------------------------------------------------------------------
# mutation words


def test_word_parse_and_str_round_trip():
    word = MutationWord.parse("L1 R8 L4")
    assert str(word) == "L1 R8 L4"
    assert word.moves == (
        MutationMove("L", 1), MutationMove("R", 8), MutationMove("L", 4),
    )
    assert word.applied_order() == (
        MutationMove("L", 4), MutationMove("R", 8), MutationMove("L", 1),
    )


@pytest.mark.parametrize(
    "bad",
    ["X1", "L", "1L", "Lx", "L-1", "L\u00b2",
     pytest.param("L" + "9" * 5000, id="L-5000-digits")],
)
def test_word_parse_rejects_bad_tokens(bad):
    with pytest.raises(PseudolatticeError):
        MutationWord.parse(bad)


def test_reduction_words_have_frozen_lengths():
    assert len(reduction_word(3)) == 16
    assert len(reduction_word(2)) == 27
    assert len(reduction_word(1)) == 34
    with pytest.raises(ValueError):
        reduction_word(4)


def test_reduction_words_never_touch_slot_zero():
    for d in (1, 2, 3):
        assert min(reduction_word(d).slots()) >= 1


# ---------------------------------------------------------------------------
# mutation action


@pytest.mark.parametrize("row", range(len(D3_ROWS)))
def test_degree_3_trace_matches_the_displayed_rows(row):
    """The library's rows are the displayed ones, and the reduction word's
    suffixes carry the fibration basis through them."""
    moves, expected = D3_ROWS[row]
    assert list(_D3_ROWS[row]) == expected
    lattice, basis, charge = from_boundaries(reference_vanishing_classes(3))
    word = reduction_word(3)
    mutated = mutate(lattice, basis, MutationWord(word.moves[len(word) - moves:]))
    got = charge.charges(mutated)
    if row < 7:
        assert [c.to_pair() for c in got] == expected
    assert _matches_up_to_sign(got, classes(expected)) is None


def test_left_mutation_on_degree_2_extension_creates_negative_fiber_class():
    lattice, basis, charge = from_boundaries(extended_vanishing_classes(2))
    mutated = mutate(lattice, basis, MutationWord.parse("L4"))
    assert charge.charges(mutated)[4].to_pair() == (0, -1)


def test_degree_2_intermediate_row_up_to_sign():
    lattice, basis, charge = from_boundaries(extended_vanishing_classes(2))
    mutated = mutate(lattice, basis, MutationWord.parse("R8 R7 L4"))
    got = charge.charges(mutated)
    for c, expected in zip(got, D2_INTERMEDIATE):
        assert c.to_pair() == expected or (-c).to_pair() == expected


def test_mutate_rejects_out_of_range_slot():
    lattice, basis, _ = from_boundaries(classes([(1, 0), (0, 1)]))
    with pytest.raises(PseudolatticeError):
        mutate(lattice, basis, MutationWord.parse("L1"))


def test_mutate_rejects_non_exceptional_input():
    lattice, _, _ = from_boundaries(classes([(1, 0), (0, 1)]))
    broken = ExceptionalBasis(((1, 0), (1, 0)))
    with pytest.raises(PseudolatticeError):
        mutate(lattice, broken, MutationWord.parse("L0"))


@pytest.mark.parametrize("word, moved, added, expected", [
    ("R5 L2", 1, 3, "after R5: <e6, e3> = 1 != 0 below the diagonal"),
    ("L5 L2", 0, 7, "after L5: <e7, e5> = 1 != 0 below the diagonal"),
    ("R5 L2", 1, 0, "after R5: <e6, e6> = 0 != 1"),
])
def test_a_corrupted_later_move_is_reported_as_the_full_check_reports_it(
    monkeypatch, word, moved, added, expected
):
    """After the first move ``mutate`` reads only the two moved slots' rows
    and columns of the basis Gram; corrupting one moved vector after the
    second move (adding basis vector ``added`` to it) must still name the
    same first failed entry as the full scan of every entry does."""
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(3))
    apply_move = pseudolattice._apply_move
    moves = []

    def corrupted(lattice, vectors, move):
        apply_move(lattice, vectors, move)
        moves.append(move)
        if len(moves) == 2:
            slot = move.slot + moved
            vectors[slot] = [x + y for x, y in zip(vectors[slot], vectors[added])]
            full = lattice.exceptionality_violation(vectors)
            assert expected == f"after {move.token()}: {full}"

    monkeypatch.setattr(pseudolattice, "_apply_move", corrupted)
    with pytest.raises(PseudolatticeError) as caught:
        mutate(lattice, basis, MutationWord.parse(word))
    assert str(caught.value) == f"exceptionality lost {expected}"
    assert len(moves) == 2


# ---------------------------------------------------------------------------
# the reduction-word verification


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_mutation_equivalence_passes(d):
    report = verify_mutation_equivalence(d)
    assert report.passed
    assert report.boundary_ok
    assert report.first_boundary_mismatch is None
    assert report.sign_diagonal is not None
    assert report.failure is None


def test_degree_3_verification_details():
    report = verify_mutation_equivalence(3)
    assert report.sign_diagonal == D3_SIGN_DIAGONAL
    assert report.intermediates_ok is True
    # Applied one display group at a time, the first seven rows match the
    # frozen rows exactly; the last only up to sign.
    lattice, basis, charge = from_boundaries(extended_vanishing_classes(3))
    moves = reduction_word(3).applied_order()
    exact = []
    for length, row in zip(pseudolattice._D3_ROW_LENGTHS, pseudolattice._D3_ROWS):
        group, moves = moves[:length], moves[length:]
        basis = mutate(lattice, basis, MutationWord(group[::-1]))
        got = list(charge.charges(basis)[:9])
        expected = [HomologyClass(m, n) for m, n in row]
        assert _matches_up_to_sign(got, expected) is None
        exact.append(got == expected)
    assert exact == [True] * 7 + [False]
    # Raw charges; slot 1 differs from the target (2, -1) by a global sign.
    assert report.final_boundaries[0] == (1, 1)
    assert report.final_boundaries[1] == (-2, 1)
    assert report.final_boundaries[2] == (1, -2)


def test_degree_2_and_1_verifications_have_no_intermediate_trace():
    for d in (1, 2):
        report = verify_mutation_equivalence(d)
        assert report.intermediates_ok is None


def test_verification_report_json_round_trip_fields():
    data = verify_mutation_equivalence(3).to_json()
    assert data["d"] == 3
    assert data["passed"] is True
    assert data["sign_diagonal"] == list(D3_SIGN_DIAGONAL)
    assert data["final_boundaries"][0] == [1, 1]


# ---------------------------------------------------------------------------
# word identities


@pytest.mark.parametrize("d", [1, 2])
def test_standard_word_identities_hold(d):
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(d))
    first, second = standard_word_identity(d)
    assert word_identity(lattice, basis, first, second)


def test_unequal_words_are_detected():
    lattice, basis, _ = from_boundaries(reference_vanishing_classes(3))
    assert not word_identity(
        lattice, basis, MutationWord.parse("L1"), MutationWord.parse("R1")
    )


# ---------------------------------------------------------------------------
# Serre operator and point-like vector


def test_serre_rank_two_example():
    lattice, _, _ = from_boundaries(classes([(1, 0), (0, 1)]))
    assert serre(lattice) == [[0, 1], [-1, 1]]
    with pytest.raises(PseudolatticeError):
        point_like(lattice)


def _unitriangular(n, above):
    """The rank-``n`` upper unitriangular matrix with the entries ``above``
    the diagonal, row by row."""
    cells = iter(above)
    return [[int(i == j) if j <= i else next(cells) for j in range(n)]
            for i in range(n)]


unitriangular_grams = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.integers(-9, 9), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
    ).map(lambda above: _unitriangular(n, above))
)


@settings(max_examples=100, deadline=None)
@given(unitriangular_grams)
def test_serre_solves_the_unitriangular_gram(gram):
    assert matrix_multiply(gram, serre(Pseudolattice(gram))) == transpose(gram)


@settings(max_examples=100, deadline=None)
@given(unitriangular_grams, st.integers(0, 7), st.integers(0, 7),
       st.integers(-9, 9).filter(bool))
def test_serre_refuses_a_gram_that_is_not_unitriangular(gram, i, j, shift):
    # one entry on or below the diagonal moves off its unitriangular value
    n = len(gram)
    i, j = max(i % n, j % n), min(i % n, j % n)
    gram[i][j] += shift
    assume(determinant_integer(gram) != 0)
    lattice = Pseudolattice(gram)
    with pytest.raises(PseudolatticeError, match="unitriangular"):
        serre(lattice)


def test_serre_identity_on_fibration_lattice():
    lattice, _, _ = from_boundaries(reference_vanishing_classes(3))
    s = serre(lattice)
    vectors = [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, -2, 0, 3, 0, 0, 0, 1],
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
    ]
    for u in vectors:
        for v in vectors:
            assert lattice.pairing(u, v) == lattice.pairing(v, matrix_vector(s, u))


def test_point_like_fibration_and_reference_models():
    lattice, _, _ = from_boundaries(reference_vanishing_classes(3))
    assert point_like(lattice) == FIBRATION_POINT
    assert point_like(m6_lattice()) == M6_POINT


def test_serre_fixes_the_point_like_vector():
    for lattice in (from_boundaries(reference_vanishing_classes(3))[0], m6_lattice()):
        p = point_like(lattice)
        assert matrix_vector(serre(lattice), p) == p


# ---------------------------------------------------------------------------
# quotient lattice and charge kernel


def test_neron_severi_of_fibration_model():
    lattice, _, _ = from_boundaries(reference_vanishing_classes(3))
    quotient = neron_severi(lattice)
    assert len(quotient.gram) == 7
    assert quotient.point == tuple(FIBRATION_POINT)
    assert determinant_integer(quotient.gram_lists()) == -1
    gram = quotient.gram_lists()
    assert all(gram[i][j] == gram[j][i] for i in range(7) for j in range(7))


def test_neron_severi_of_reference_model_is_diagonal():
    quotient = neron_severi(m6_lattice())
    expected = [[0] * 7 for _ in range(7)]
    expected[0][0] = -1
    for i in range(1, 7):
        expected[i][i] = 1
    assert quotient.gram_lists() == expected


@pytest.mark.parametrize("d,expected_rank", [(3, 7), (2, 8), (1, 9)])
def test_charge_kernel_ranks(d, expected_rank):
    # the charge kernel that rootlattice.kernel_decomposition splits
    lattice, _, charge = from_boundaries(reference_vanishing_classes(d))
    kernel = integer_kernel(charge.matrix())
    assert len(kernel) == expected_rank
    for v in kernel + [point_like(lattice)]:
        assert charge.charge(v).is_zero()


# ---------------------------------------------------------------------------
# sign normalization


def test_sign_normalize_identity_and_flip():
    gram = [[1, 2], [0, 1]]
    assert sign_normalize(gram, gram) == (1, 1)
    flipped = [[1, -2], [0, 1]]
    assert sign_normalize(gram, flipped) == (1, -1)


def test_sign_normalize_detects_impossible_targets():
    gram = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    bad = [[1, 1, 1], [0, 1, -1], [0, 0, 1]]
    assert sign_normalize(gram, bad) is None
    assert sign_normalize(gram, [[1, 2, 1], [0, 1, 1], [0, 0, 1]]) is None


def test_sign_normalize_handles_disconnected_blocks():
    gram = [[1, 0], [0, 1]]
    assert sign_normalize(gram, gram) == (1, 1)


@st.composite
def _sign_problems(draw):
    """A square integer Gram (sparse, so it often splits into blocks) and a
    target: the Gram conjugated by random signs, sometimes with one entry
    negated or replaced."""
    n = draw(st.integers(1, 6))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    gram = [[draw(entries) for _ in range(n)] for _ in range(n)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    target = [[signs[i] * gram[i][j] * signs[j] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        target[i][j] = draw(st.sampled_from([-target[i][j], target[i][j] + 1]))
    return gram, target


@settings(max_examples=300, deadline=None)
@given(_sign_problems())
def test_sign_normalize_agrees_with_every_sign_vector(problem):
    gram, target = problem
    n = len(gram)

    def conjugates(signs):
        return all(
            signs[i] * gram[i][j] * signs[j] == target[i][j]
            for i in range(n)
            for j in range(n)
        )

    exists = any(conjugates(signs) for signs in itertools.product((1, -1), repeat=n))
    found = sign_normalize(gram, target)
    assert (found is not None) == exists
    if found is not None:
        assert conjugates(found)


# ---------------------------------------------------------------------------
# reference Grams, torus sequences


def test_del_pezzo_gram_shape():
    gram = del_pezzo_gram(6)
    assert len(gram) == 9
    assert [row[:3] for row in gram[:3]] == [[1, 3, 3], [0, 1, 3], [0, 0, 1]]
    assert gram[0][3:] == [1] * 6
    assert gram[1][3:] == [2] * 6
    assert gram[2][3:] == [1] * 6
    assert determinant_integer(gram) == 1


@pytest.mark.parametrize("ell", [6, 7, 8])
def test_ghs_sequences_match_targets_up_to_sign(ell):
    sequence = ghs_sequences(ell)
    assert [c.to_pair() for c in sequence] == GHS_SEQUENCES[ell]
    target = ghs_target(ell)
    assert len(sequence) == len(target)
    for got, expected in zip(sequence, target):
        assert got.to_pair() == expected.to_pair() or (
            (-got).to_pair() == expected.to_pair()
        )


def test_ghs_rejects_unknown_rank():
    with pytest.raises(ValueError):
        ghs_sequences(5)
    with pytest.raises(ValueError):
        ghs_target(9)


def test_matches_up_to_sign_reports_first_difference():
    got = classes([(1, 0), (0, -1), (2, 1)])
    assert _matches_up_to_sign(got, classes([(-1, 0), (0, 1), (2, 1)])) is None
    assert _matches_up_to_sign(got, classes([(1, 0), (0, 1), (2, -1)])) == 2
    assert _matches_up_to_sign(got, classes([(1, 1), (0, 1), (3, 3)])) == 0
    assert _matches_up_to_sign(got, got[:2]) == 2
    assert _matches_up_to_sign(got[:1], got) == 1
    assert _matches_up_to_sign([], []) is None


# ---------------------------------------------------------------------------
# properties


class_list = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=6
)
move_list = st.lists(
    st.tuples(st.sampled_from(["L", "R"]), st.integers(0, 4)),
    min_size=1,
    max_size=6,
)


def build_word(moves, rank):
    return MutationWord(
        tuple(MutationMove(side, slot % (rank - 1)) for side, slot in moves)
    )


def inverse_word(word):
    swapped = [
        MutationMove("R" if move.side == "L" else "L", move.slot)
        for move in word.moves
    ]
    return MutationWord(tuple(reversed(swapped)))


@settings(max_examples=200, deadline=None)
@given(class_list, move_list)
def test_mutations_are_invertible_and_preserve_exceptionality(pairs, moves):
    lattice, basis, _ = from_boundaries(classes(pairs))
    word = build_word(moves, lattice.rank)
    mutated = mutate(lattice, basis, word)  # raises if exceptionality breaks
    assert mutate(lattice, mutated, inverse_word(word)) == basis


@settings(max_examples=100, deadline=None)
@given(class_list, move_list)
def test_mutations_preserve_gram_determinant(pairs, moves):
    lattice, basis, _ = from_boundaries(classes(pairs))
    word = build_word(moves, lattice.rank)
    mutated = mutate(lattice, basis, word)
    before = determinant_integer(restricted_gram(lattice.gram, basis.vectors))
    after = determinant_integer(restricted_gram(lattice.gram, mutated.vectors))
    assert before == after == 1


@settings(max_examples=100, deadline=None)
@given(class_list, st.sampled_from(["L", "R"]), st.integers(0, 4))
def test_mutation_charges_transform_linearly(pairs, side, slot):
    lattice, basis, charge = from_boundaries(classes(pairs))
    slot %= lattice.rank - 1
    before = charge.charges(basis)
    word = MutationWord((MutationMove(side, slot),))
    after = charge.charges(mutate(lattice, basis, word))
    e, f = list(basis.vectors[slot]), list(basis.vectors[slot + 1])
    s = lattice.pairing(e, f)
    u, v = before[slot], before[slot + 1]
    if side == "L":
        assert after[slot] == HomologyClass(v.m - s * u.m, v.n - s * u.n)
        assert after[slot + 1] == u
    else:
        assert after[slot] == v
        assert after[slot + 1] == HomologyClass(u.m - s * v.m, u.n - s * v.n)


@settings(max_examples=100, deadline=None)
@given(class_list)
def test_charge_map_is_linear(pairs):
    _, _, charge = from_boundaries(classes(pairs))
    n = len(pairs)
    u = [1] * n
    v = list(range(n))
    combined = [a + b for a, b in zip(u, v)]
    assert charge.charge(combined) == charge.charge(u) + charge.charge(v)
