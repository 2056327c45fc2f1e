"""Interpolation-family tests: blending, sweeps, braid words, figures."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror import interfam, pathnum
from dpmirror.exactpoly import UniPoly
from dpmirror.homology import extended_vanishing_classes
from dpmirror.interfam import (
    MAX_MOTION,
    PROXIMITY,
    FamilySpec,
    ProjectivePoint,
    TrajectorySet,
    _certified_matches,
    _chordal_matrix,
    _homogeneous,
    _interval_verdict,
    _rows,
    _samples,
    _stack,
    chordal,
    family_at,
    render_svg,
    sweep,
    transposition_word,
)
from dpmirror.pathnum import NumericsError, all_roots, batch_roots
from dpmirror.pseudolattice import (
    MutationWord,
    from_boundaries,
    standard_word_identity,
    word_identity,
)
from dpmirror.weierstrass import catalog

# Finite critical-value counts of the catalog surfaces, keyed by degree.
FINITE_COUNTS = {3: 9, 2: 10, 1: 11}

# Frozen braid words extracted from the default sweeps.  The first reduces
# to the reference word of the target degree under the exact mutation
# identities; the second does not — the family performs one extra
# far-field crossing of the descending track, and the validation layer is
# the component that flags it.
WORD_3_TO_2 = "R8 R7 R6 R5 R4 R3 R2 R1 R8 R7 L4"
WORD_2_TO_1 = "R9 R8 R7 R6 R5 R4 L6 L1 R3 R2 R1 L3"
# The 2 -> 1 word at larger epsilon, where the extra crossing is gone and the
# word reduces to the reference word.
WORD_2_TO_1_REDUCING = "R9 R8 R7 R6 R5 R4 L6"


@functools.lru_cache(maxsize=None)
def _swept(
    d_from: int, d_to: int, epsilon: Fraction = Fraction(1, 100)
) -> TrajectorySet:
    return sweep(FamilySpec.between_degrees(d_from, d_to, epsilon))


def _point(z: complex) -> ProjectivePoint:
    return ProjectivePoint.from_affine(z)


def _parked() -> ProjectivePoint:
    return ProjectivePoint("infinite", 0j)


def _rows_to_set(rows) -> TrajectorySet:
    times = tuple(i / max(len(rows) - 1, 1) for i in range(len(rows)))
    return TrajectorySet(
        parameters=times,
        positions=tuple(tuple(row) for row in rows),
        chart_switches=(),
    )


# ---------------------------------------------------------------------------
# the blended family


def test_family_endpoints_match_catalog_exactly():
    for d_from, d_to in ((3, 2), (2, 1)):
        spec = FamilySpec.between_degrees(d_from, d_to)
        for s, model in ((0.0, spec.start), (1.0, spec.end)):
            blended = family_at(spec, s)
            for ours, theirs in ((blended.a, model.a), (blended.b, model.b)):
                width = max(len(ours), max(theirs.terms, default=0) + 1)
                for exp in range(width):
                    mine = ours[exp] if exp < len(ours) else 0j
                    ref = complex(theirs.terms.get(exp, Fraction(0)))
                    assert abs(mine - ref) <= 1e-14 * max(1.0, abs(ref))


def _assert_close(ours, reference, tol, relative):
    """Coefficientwise agreement within ``tol`` of the largest reference
    coefficient or, when ``relative``, of each nonzero one."""
    tallest = max(abs(c) for c in reference)
    for k in range(max(len(ours), len(reference))):
        mine = ours[k] if k < len(ours) else 0j
        ref = reference[k] if k < len(reference) else 0j
        scale = (relative and abs(ref)) or tallest
        assert abs(mine - ref) <= tol * scale, (k, mine, ref)


def test_invariant_at_the_endpoints_is_the_exact_discriminant():
    for d_from, d_to in ((3, 2), (2, 1)):
        spec = FamilySpec.between_degrees(d_from, d_to)
        for s, model in ((0.0, spec.start), (1.0, spec.end)):
            exact = model.discriminant_scale()
            reference = [complex(exact.terms.get(k, 0))
                         for k in range(exact.degree() + 1)]
            ours = family_at(spec, s).invariant_scale().coeffs
            _assert_close(ours, reference, 1e-14, relative=True)


def _mp_invariant(spec: FamilySpec, s: float):
    """4a^3 + 27b^2 of the blended family at time ``s``, from the exact
    endpoint coefficients in 40-digit arithmetic."""

    def coeffs(p, width):
        exact = [p.terms.get(k, Fraction(0)) for k in range(width)]
        return [mpmath.mpf(c.numerator) / c.denominator for c in exact]

    def times(p, q):
        out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    with mpmath.workdps(40):
        phase = mpmath.expjpi(mpmath.mpf(s))
        scale = phase + 2 * mpmath.mpf(s)
        blended = []
        for start, end, power in (
            (spec.start.a, spec.end.a, 1), (spec.start.b, spec.end.b, 2)
        ):
            width = max(start.degree(), end.degree()) + 1
            blended.append([
                scale ** power * (phase * x + s * (x + y))
                for x, y in zip(coeffs(start, width), coeffs(end, width))
            ])
        a, b = blended
        cube, square = times(times(a, a), a), times(b, b)
        total = [4 * c for c in cube] + [0] * max(0, len(square) - len(cube))
        for k, c in enumerate(square):
            total[k] += 27 * c
        return [complex(c) for c in total]


@given(
    st.sampled_from([(3, 2), (2, 1)]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_invariant_inside_the_interval_matches_a_multiprecision_reference(pair, s):
    spec = FamilySpec.between_degrees(*pair)
    ours = family_at(spec, s).invariant_scale().coeffs
    _assert_close(ours, _mp_invariant(spec, s), 1e-13, relative=False)


def test_family_midpoint_keeps_top_coefficient():
    spec = FamilySpec.between_degrees(3, 2)
    model = family_at(spec, 0.5)
    invariant = model.invariant_scale().trimmed()
    assert invariant.degree >= 1
    assert abs(invariant.coeffs[-1]) > 1e-12


def test_family_rejects_out_of_range_times():
    spec = FamilySpec.between_degrees(3, 2)
    for bad in (-0.25, 1.0001, 2.0):
        with pytest.raises(ValueError):
            family_at(spec, bad)


def test_family_requires_matching_charts():
    left = catalog(3, Fraction(1, 100))
    relabeled = type(left)(
        a=UniPoly(left.a.terms, var="w"), b=UniPoly(left.b.terms, var="w")
    )
    with pytest.raises(ValueError):
        FamilySpec(left, relabeled)


# ---------------------------------------------------------------------------
# the sweep


def test_sweep_endpoint_counts_and_track_total():
    for d_from, d_to in ((3, 2), (2, 1)):
        traj = _swept(d_from, d_to)
        assert traj.track_count == 12
        assert traj.finite_count(0) == FINITE_COUNTS[d_from]
        # one track arrives from infinity at once and none leaves again
        assert {traj.finite_count(k) for k in range(1, len(traj.parameters))} \
            == {FINITE_COUNTS[d_to]}


def test_sweep_exactly_one_track_leaves_infinity():
    for d_from, d_to in ((3, 2), (2, 1)):
        traj = _swept(d_from, d_to)
        first, last = traj.positions[0], traj.positions[-1]
        descended = [
            i
            for i in range(traj.track_count)
            if first[i].parked and not last[i].parked
        ]
        ascended = [
            i
            for i in range(traj.track_count)
            if not first[i].parked and last[i].parked
        ]
        assert len(descended) == 1
        assert not ascended


# The sweeps' work, by family and epsilon: accepted samples, rows solved by
# the batch (every sample once: the ends, the grid and any bisection
# midpoints), one-row `all_roots` solves, and chart switches.  None of these
# sweeps bisects an interval.
SWEEP_WORK = {
    ((3, 2), "1/100"): (401, 401, 0, ((11, 0.595),)),
    ((2, 1), "1/100"): (401, 401, 0, ((11, 0.35),)),
    ((3, 2), "3"): (401, 401, 0, ((2, 0.26), (2, 0.5525), (11, 0.735))),
    ((2, 1), "3"): (401, 401, 0, ((11, 0.425),)),
    ((3, 2), "30"): (401, 401, 0, ()),
    ((2, 1), "30"): (401, 401, 0, (
        (1, 0.555), (4, 0.6275), (6, 0.64), (8, 0.7375), (0, 0.845), (11, 0.9425),
        (7, 0.9825), (3, 0.985), (2, 0.99), (0, 1.0), (6, 1.0), (11, 1.0),
    )),
}
PAIRS = [(2, 1), (3, 2)]


def _assert_sweep_work(pair, epsilon, monkeypatch):
    solves, batched = [], []

    def counted(*args, **kwargs):
        solves.append(1)
        return all_roots(*args, **kwargs)

    def counted_batch(rows):
        batched.append(len(rows))
        return batch_roots(rows)

    monkeypatch.setattr(pathnum, "all_roots", counted)
    monkeypatch.setattr(interfam, "batch_roots", counted_batch)
    traj = sweep(FamilySpec.between_degrees(*pair, Fraction(epsilon)))
    samples, expected_batched, expected_solves, switches = SWEEP_WORK[pair, epsilon]
    assert len(traj.parameters) == samples
    assert sum(batched) == expected_batched
    assert len(solves) == expected_solves
    assert traj.chart_switches == switches


@pytest.mark.parametrize("pair", PAIRS)
def test_sweep_work_at_the_default_epsilon_is_pinned(pair, monkeypatch):
    _assert_sweep_work(pair, "1/100", monkeypatch)


@pytest.mark.parametrize("epsilon", ["3", "30"])
@pytest.mark.parametrize("pair", PAIRS)
def test_sweep_work_at_larger_epsilon_is_pinned(pair, epsilon, monkeypatch):
    _assert_sweep_work(pair, epsilon, monkeypatch)


def test_sweep_stops_at_its_sample_budget(monkeypatch):
    """Past its budget of solved samples the sweep raises a typed error that
    names the time it has reached, instead of bisecting on.  With no allowed
    motion it bisects the first interval, after the two ends and the first
    block of 50 grid samples; eight midpoints reach 60 samples, and the
    ninth is refused."""
    monkeypatch.setattr(interfam, "_MAX_SWEEP_SAMPLES", 60)
    monkeypatch.setattr(interfam, "MAX_MOTION", 0.0)
    with pytest.raises(NumericsError, match=r"^the sweep solved 60 samples, its "
                       r"budget, and reached time 0\.00000000$"):
        sweep(FamilySpec.between_degrees(3, 2))


@pytest.mark.parametrize("pair", PAIRS)
def test_sweep_solves_the_ends_first_and_each_time_once(pair, monkeypatch):
    """The ends are solved before the grid, and a bisection midpoint is kept
    with its time, not solved again when the sweep comes back to it."""
    solved = []

    def counted(spec, times, width, tracks):
        solved.extend(times.tolist())
        return _samples(spec, times, width, tracks)

    monkeypatch.setattr(interfam, "_samples", counted)
    traj = sweep(FamilySpec.between_degrees(*pair))
    assert solved[:2] == [0.0, 1.0]
    assert sorted(solved) == list(traj.parameters)


def test_sweep_refuses_a_sample_the_batch_cannot_certify(monkeypatch):
    """A grid sample whose roots the batch leaves uncertified is not solved
    another way: the sweep stops with a typed error that names its time."""

    def failing_first_grid_row(rows):
        roots, certified = batch_roots(rows)
        if len(rows) > 1:
            certified[0] = False
        return roots, certified

    monkeypatch.setattr(interfam, "batch_roots", failing_first_grid_row)
    with pytest.raises(NumericsError, match=r"^root iteration failed to converge "
                       r"in 200 steps at time 0\.0025$"):
        sweep(FamilySpec.between_degrees(3, 2))


def test_sweep_refuses_a_non_finite_invariant(monkeypatch):
    """A grid time whose invariant is not finite is kept out of the batch,
    which sees only finite rows, and the sweep names the overflow when it
    reaches that time."""
    spec = FamilySpec.between_degrees(3, 2)
    spoiled = 7 / interfam.SAMPLES

    def overflowing(spec, s):
        model = family_at(spec, s)
        np.asarray(model.a)[np.asarray(s) == spoiled, -1] = np.inf
        return model

    batches = []

    def checked(rows):
        batches.append(np.isfinite(rows).all())
        return batch_roots(rows)

    monkeypatch.setattr(interfam, "family_at", overflowing)
    monkeypatch.setattr(interfam, "batch_roots", checked)
    with pytest.raises(NumericsError, match=r"^a coefficient exceeds the float "
                       r"range at time 0\.0175$"):
        sweep(spec)
    assert batches and all(batches)


def test_sweep_reports_an_unresolved_crossing(monkeypatch):
    # No bisection and no allowed motion: the first interval is at the floor.
    monkeypatch.setattr(interfam, "WIDTH_FLOOR", 1.0)
    monkeypatch.setattr(interfam, "MAX_MOTION", 0.0)
    with pytest.raises(NumericsError, match=r"unresolved track crossing .* track "
                       r"\d+ moved [0-9.e-]+ at the width floor"):
        sweep(FamilySpec.between_degrees(3, 2))


@pytest.mark.parametrize("epsilon", ["1/100", "1/50", "3/10"])
@pytest.mark.parametrize("pair", PAIRS)
def test_sweep_without_the_array_pass_is_the_same(pair, epsilon, monkeypatch):
    """The array pass settles grid intervals exactly as the loop would: with
    a pass that settles nothing the sweep gives the same rows, times, chart
    switches and track order."""
    spec = FamilySpec.between_degrees(*pair, Fraction(epsilon))
    ours = sweep(spec)
    monkeypatch.setattr(interfam, "_settled", lambda rows: [None] * (len(rows) - 1))
    loop = sweep(spec)
    assert ours.to_csv() == loop.to_csv()
    assert ours.parameters == loop.parameters
    assert ours.chart_switches == loop.chart_switches


@pytest.mark.parametrize("detail, patch", [
    (r"no track assignment is certified",
     ("_certified_matches", lambda cost: (np.argmax(cost, axis=-1),
                                          np.zeros(cost.shape[:-2], dtype=bool)))),
    (r"two tracks closed in below 2\.0", ("PROXIMITY", 2.0)),
], ids=["uncertified", "proximity"])
def test_sweep_bisects_down_to_the_floor_and_names_the_reason(detail, patch,
                                                              monkeypatch):
    """An interval the rule refuses for any reason is bisected, not matched
    another way, and at the width floor the sweep raises with that reason:
    twelve midpoints take the first grid interval below 1e-6."""
    solved = []

    def counted(spec, times, width, tracks):
        solved.extend(times.tolist())
        return _samples(spec, times, width, tracks)

    monkeypatch.setattr(interfam, "_samples", counted)
    monkeypatch.setattr(interfam, *patch)
    with pytest.raises(NumericsError, match=r"^unresolved track crossing between "
                       r"times 0\.00000000 and 0\.00000061; " + detail +
                       " at the width floor$"):
        sweep(FamilySpec.between_degrees(3, 2))
    assert solved[-12:] == [interfam.SAMPLES ** -1 / 2 ** k for k in range(1, 13)]


def test_sweep_steps_stay_bounded():
    traj = _swept(3, 2)
    for before, after in zip(traj.positions, traj.positions[1:]):
        worst = max(chordal(p, q) for p, q in zip(before, after))
        assert worst <= MAX_MOTION + 1e-12


def test_sweep_constant_family_is_stationary():
    model = catalog(3, Fraction(1, 100))
    traj = sweep(FamilySpec(model, model))
    start = traj.positions[0]
    for row in traj.positions:
        assert max(chordal(p, q) for p, q in zip(start, row)) < 1e-9
    assert str(transposition_word(traj)) == ""


def test_sweep_is_deterministic():
    one = sweep(FamilySpec.between_degrees(3, 2))
    two = sweep(FamilySpec.between_degrees(3, 2))
    assert one.to_csv() == two.to_csv()


def test_trajectory_set_validation():
    good = _point(0.5)
    with pytest.raises(NumericsError):
        TrajectorySet(
            parameters=(0.0, 1.0),
            positions=((good,),),
            chart_switches=(),
        )
    with pytest.raises(NumericsError):
        TrajectorySet(
            parameters=(0.0, 1.0),
            positions=((good,), (good, good)),
            chart_switches=(),
        )
    with pytest.raises(NumericsError):
        TrajectorySet(
            parameters=(1.0, 0.0),
            positions=((good,), (good,)),
            chart_switches=(),
        )


def test_csv_header_and_shape():
    traj = _swept(3, 2)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "s,track,chart,re,im"
    assert len(lines) == 1 + len(traj.parameters) * traj.track_count
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] in ("finite", "infinite")


# ---------------------------------------------------------------------------
# braid words: the real families


# The default epsilon, four nearby values, smaller values whose sweeps
# pass tracks within a few thousandths of each other, and three large values
# at which the 2 -> 1 word reduces as well.
WORD_EPSILONS = ("1/100", "1/200", "1/50", "3/100", "1/80",
                 "1/250", "1/300", "1/400", "1/500")
BOTH_WORDS_EPSILONS = ("3/10", "1", "3")

# Chart switches (track, time) of the sweeps whose words are pinned.
CHART_SWITCHES = {
    **{((3, 2), eps): ((11, 0.595),) for eps in ("1/100", "1/200", "1/50", "1/80",
                                                 "1/250", "1/300", "1/400", "1/500")},
    ((3, 2), "3/100"): ((11, 0.5975),),
    ((3, 2), "3/10"): ((11, 0.6125),),
    ((3, 2), "1"): ((11, 0.655),),
    ((3, 2), "3"): ((2, 0.26), (2, 0.5525), (11, 0.735)),
    ((2, 1), "1/100"): ((11, 0.35),),
    ((2, 1), "3/10"): ((11, 0.3525),),
    ((2, 1), "1"): ((11, 0.3675),),
    ((2, 1), "3"): ((11, 0.425),),
}


@pytest.mark.parametrize("epsilon", WORD_EPSILONS + BOTH_WORDS_EPSILONS)
def test_word_3_to_2_reduces_to_the_reference_word(epsilon):
    traj = _swept(3, 2, Fraction(epsilon))
    assert traj.chart_switches == CHART_SWITCHES[(3, 2), epsilon]
    word = transposition_word(traj)
    assert str(word) == WORD_3_TO_2
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(2))
    assert word_identity(lattice, basis, word, standard_word_identity(2)[0])


@pytest.mark.parametrize("epsilon", BOTH_WORDS_EPSILONS)
def test_word_2_to_1_reduces_to_the_reference_word(epsilon):
    traj = _swept(2, 1, Fraction(epsilon))
    assert traj.chart_switches == CHART_SWITCHES[(2, 1), epsilon]
    word = transposition_word(traj)
    assert str(word) == WORD_2_TO_1_REDUCING
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(1))
    assert word_identity(lattice, basis, word, standard_word_identity(1)[0])


def test_word_2_to_1_is_frozen_and_flagged_by_validation():
    traj = _swept(2, 1)
    assert traj.chart_switches == CHART_SWITCHES[(2, 1), "1/100"]
    word = transposition_word(traj)
    assert str(word) == WORD_2_TO_1
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(1))
    assert not word_identity(lattice, basis, word, standard_word_identity(1)[0])


def test_word_is_deterministic():
    first = transposition_word(_swept(3, 2))
    second = transposition_word(sweep(FamilySpec.between_degrees(3, 2)))
    assert str(first) == str(second)


def test_word_rejects_basepoint_on_a_track():
    traj = TrajectorySet(
        parameters=(0.0, 1.0),
        positions=((_point(0.5), _point(0.5j)), (_point(0.5), _point(0j))),
        chart_switches=(),
    )
    with pytest.raises(NumericsError, match="base point"):
        transposition_word(traj)


# ---------------------------------------------------------------------------
# braid words: synthetic configurations


def _anchor() -> ProjectivePoint:
    return _point(0.9 + 0j)


def test_synthetic_arrival_walks_in_with_right_moves():
    rows = [
        [_anchor(), _point(0.2 * cmath.exp(-0.5j)), _parked()],
        [
            _anchor(),
            _point(0.2 * cmath.exp(-0.5j)),
            _point(0.1 * cmath.exp(-0.25j)),
        ],
    ]
    assert str(transposition_word(_rows_to_set(rows))) == "R1"


def test_synthetic_departure_walks_out_with_left_moves():
    rows = [
        [
            _anchor(),
            _point(0.2 * cmath.exp(-0.5j)),
            _point(0.1 * cmath.exp(-0.25j)),
        ],
        [_anchor(), _point(0.2 * cmath.exp(-0.5j)), _parked()],
    ]
    assert str(transposition_word(_rows_to_set(rows))) == "L1"


def test_synthetic_swap_sides_follow_the_nearer_strand():
    # Tracks exchange angular slots; the second track ends beside the
    # anchor.  When it ends there passing nearer the base point: L.
    rows = [
        [_anchor(), _point(0.2 * cmath.exp(-0.4j)), _point(0.3 * cmath.exp(-0.8j))],
        [_anchor(), _point(0.3 * cmath.exp(-0.8j)), _point(0.1 * cmath.exp(-0.4j))],
    ]
    assert str(transposition_word(_rows_to_set(rows))) == "L1"
    # When it ends beside the anchor while staying farther out: R.
    rows = [
        [_anchor(), _point(0.2 * cmath.exp(-0.4j)), _point(0.1 * cmath.exp(-0.8j))],
        [_anchor(), _point(0.1 * cmath.exp(-0.8j)), _point(0.3 * cmath.exp(-0.4j))],
    ]
    assert str(transposition_word(_rows_to_set(rows))) == "R1"


def test_synthetic_multi_swap_decomposes_innermost_first():
    before = [
        _anchor(),
        _point(0.2 * cmath.exp(-0.5j)),
        _point(0.25 * cmath.exp(-1.0j)),
        _point(0.3 * cmath.exp(-1.5j)),
    ]
    after = [
        _anchor(),
        _point(0.2 * cmath.exp(-1.5j)),
        _point(0.25 * cmath.exp(-1.0j)),
        _point(0.3 * cmath.exp(-0.5j)),
    ]
    assert str(transposition_word(_rows_to_set([before, after]))) == "R1 R2 R1"


def test_synthetic_cut_crossing_is_absorbed():
    body = [0.2 * cmath.exp(-0.5j), 0.25 * cmath.exp(-1.0j), 0.3 * cmath.exp(-1.5j)]
    before = [_anchor()] + [_point(z) for z in body]
    rotated = [_anchor()] + [_point(z) for z in (body[1], body[2], body[0])]
    assert str(transposition_word(_rows_to_set([before, rotated]))) == ""
    reverse = [_anchor()] + [_point(z) for z in (body[2], body[0], body[1])]
    assert str(transposition_word(_rows_to_set([before, reverse]))) == ""


def test_synthetic_close_swap_and_swap_back_cancel_exactly():
    # The inner track passes the outer one, 2e-3 away, and passes back.
    # Each swap emits a move, and the mutation algebra cancels the pair.
    inner, passed = 0.2 * cmath.exp(-0.40j), 0.2 * cmath.exp(-0.42j)
    outer = 0.201 * cmath.exp(-0.41j)
    rows = [
        [_anchor(), _point(inner), _point(outer)],
        [_anchor(), _point(passed), _point(outer)],
        [_anchor(), _point(inner), _point(outer)],
    ]
    assert max(abs(inner - outer), abs(passed - outer)) < 5e-3
    word = transposition_word(_rows_to_set(rows))
    assert str(word) == "R1 L1"
    lattice, basis, _ = from_boundaries(extended_vanishing_classes(2))
    assert word_identity(lattice, basis, word, MutationWord(()))


def test_synthetic_close_equal_radii_raise():
    tight_a = 0.2 * cmath.exp(-0.40j)
    tight_b = 0.2 * cmath.exp(-0.41j)
    rows = [
        [_anchor(), _point(tight_a), _point(tight_b)],
        [_anchor(), _point(tight_b), _point(tight_a)],
    ]
    assert abs(tight_a - tight_b) < 5e-3
    with pytest.raises(NumericsError, match="equal radii"):
        transposition_word(_rows_to_set(rows))


def test_synthetic_equal_radii_raise():
    rows = [
        [_anchor(), _point(0.2 * cmath.exp(-0.4j)), _point(0.2 * cmath.exp(-0.8j))],
        [_anchor(), _point(0.2 * cmath.exp(-0.8j)), _point(0.2 * cmath.exp(-0.4j))],
    ]
    with pytest.raises(NumericsError, match="equal radii"):
        transposition_word(_rows_to_set(rows))


def test_empty_trajectories_give_the_empty_word():
    empty = TrajectorySet(parameters=(), positions=(), chart_switches=())
    assert str(transposition_word(empty)) == ""


# ---------------------------------------------------------------------------
# rendering


def test_render_is_deterministic_and_counts_markers():
    traj = _swept(3, 2)
    drawing = render_svg(traj)
    assert drawing == render_svg(traj)
    assert drawing.count("<circle") == FINITE_COUNTS[3] + FINITE_COUNTS[2]
    assert drawing.startswith("<svg ")
    assert drawing.rstrip().endswith("</svg>")


def test_render_empty_set_draws_axes_only():
    empty = TrajectorySet(parameters=(), positions=(), chart_switches=())
    drawing = render_svg(empty)
    assert drawing.count("<line") == 2
    assert "<circle" not in drawing and "<path" not in drawing


# ---------------------------------------------------------------------------
# chart geometry


@given(
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False)
)
def test_projective_round_trip(z: complex):
    point = ProjectivePoint.from_affine(z)
    assert cmath.isclose(point.affine(), z, rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False),
)
def test_chordal_is_symmetric_and_bounded(a: complex, b: complex):
    p, q = ProjectivePoint.from_affine(a), ProjectivePoint.from_affine(b)
    d = chordal(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert math.isclose(d, chordal(q, p), rel_tol=0, abs_tol=1e-12)
    assert chordal(p, p) <= 1e-12


_sphere_points = st.one_of(
    st.just(ProjectivePoint("infinite", 0j)),
    st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False).map(
        ProjectivePoint.from_affine
    ),
)


def _homogeneous_of(points) -> np.ndarray:
    return _homogeneous(*_arrays(points))


def _arrays(points):
    """The chart coordinates and finite-chart mask of a list of points."""
    coordinate = np.array([p.coordinate for p in points], dtype=complex)
    finite = np.array([p.chart == "finite" for p in points], dtype=bool)
    return coordinate, finite


@given(
    st.lists(_sphere_points, min_size=1, max_size=6),
    st.lists(_sphere_points, min_size=1, max_size=6),
)
def test_chordal_matrix_is_chordal_entrywise(rows, columns):
    matrix = _chordal_matrix(_homogeneous_of(rows), _homogeneous_of(columns))
    assert matrix.shape == (len(rows), len(columns))
    for i, p in enumerate(rows):
        for j, q in enumerate(columns):
            assert abs(matrix[i, j] - chordal(p, q)) <= 1e-15


def _scalar_verdict(before, after):
    """Oracle: the interval verdict one chordal distance at a time."""
    if max(chordal(p, q) for p, q in zip(before, after)) > MAX_MOTION:
        return "motion"
    n = len(after)
    for i in range(n):
        for j in range(i + 1, n):
            now = chordal(after[i], after[j])
            if now < PROXIMITY and now < chordal(before[i], before[j]):
                return "proximity"
    return None


@st.composite
def _intervals(draw, n=None):
    """A row of points and a nearby row, some tracks parked at infinity,
    some pairs closing in on each other; ``n`` points, or 2 to 8."""
    n = draw(st.integers(2, 8)) if n is None else n
    before = draw(st.lists(_sphere_points, min_size=n, max_size=n))
    after = []
    for p in before:
        if p.parked and draw(st.booleans()):
            after.append(p)
            continue
        z = 50.0 if p.parked else p.affine()
        step = cmath.rect(10 ** draw(st.floats(-5, -1)), draw(st.floats(0, 6.3)))
        after.append(ProjectivePoint.from_affine(z + step))
    if draw(st.booleans()):  # bring one pair within the proximity distance
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        i, j = draw(st.sampled_from(pairs))
        if not after[i].parked:
            after[j] = ProjectivePoint.from_affine(after[i].affine() + 1e-4)
    return before, after


def _affine(points) -> np.ndarray:
    """Finite-chart positions of a list of points, infinite where parked."""
    return np.array([np.inf if p.parked else p.affine() for p in points], dtype=complex)


@given(st.integers(2, 8).flatmap(lambda n: st.lists(_intervals(n), min_size=1,
                                                    max_size=6)))
def test_interval_verdict_matches_the_scalar_reading(intervals):
    """A stack of intervals gets the scalar verdict interval by interval."""
    rows = _rows(np.stack([_affine(points) for pair in intervals for points in pair]))
    before, after = _stack(*rows[::2]), _stack(*rows[1::2])
    motion = np.diagonal(
        _chordal_matrix(before.homogeneous, after.homogeneous), axis1=-2, axis2=-1
    )
    verdicts = _interval_verdict(before, after, motion).tolist()
    assert [verdict or None for verdict in verdicts] == [
        _scalar_verdict(*interval) for interval in intervals
    ]


def _square(n: int, entries: st.SearchStrategy[int]) -> st.SearchStrategy:
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


# Small integer costs: exact ties are common and sums compare exactly.
small_integer_costs = st.integers(1, 7).flatmap(
    lambda n: _square(n, st.integers(0, 6))
)


@st.composite
def certified_costs(draw):
    """Costs whose row minima sit, each strictly, on a permutation."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    lows = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    rows = draw(_square(n, st.integers(1, 6)))
    return [
        [lows[i] if j == perm[i] else lows[i] + rows[i][j] for j in range(n)]
        for i in range(n)
    ], list(perm)


@st.composite
def contested_costs(draw):
    """Costs where rows 0 and 1 have their only minimum in the same column."""
    n = draw(st.integers(2, 7))
    rows = draw(_square(n, st.integers(1, 6)))
    column = draw(st.integers(0, n - 1))
    for i in (0, 1):
        rows[i][column] = 0
    return rows


def _least_total(rows, excluded=None):
    """The least total cost of an assignment other than ``excluded``."""
    return min((
        sum(row[j] for row, j in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows))) if perm != excluded
    ), default=math.inf)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_integer_costs, certified_costs().map(lambda c: c[0]),
                 contested_costs()), st.data())
def test_certified_matches_are_the_unique_least_cost_assignment(rows, data):
    """Brute force over every permutation, n <= 7: wherever the certificate
    holds, its assignment is the one of least total cost and every other
    costs more, and the certificate reads the same with the rows and the
    columns in any order (a tied row minimum would make it depend on them)."""
    cost = np.array(rows, dtype=float)
    (columns,), (certified,) = _certified_matches(cost[None])
    n = len(rows)
    order, shuffle = (np.array(data.draw(st.permutations(range(n)))) for _ in "rc")
    (moved,), (still,) = _certified_matches(cost[order][:, shuffle][None])
    assert still == certified
    if certified:
        assignment = tuple(columns.tolist())
        total = sum(row[j] for row, j in zip(rows, assignment))
        assert total == _least_total(rows) < _least_total(rows, assignment)
        assert (shuffle[moved] == columns[order]).all()


@settings(max_examples=60, deadline=None)
@given(certified_costs())
def test_certified_matches_certify_strict_row_minima(case):
    rows, perm = case
    (columns,), (certified,) = _certified_matches(np.array([rows], dtype=float))
    assert certified
    assert columns.tolist() == perm


def test_certified_matches_refuse_a_non_finite_cost():
    """A NaN anywhere in a row leaves its minimum unattained, so no matrix
    with one is certified."""
    cost = np.array([[0.0, 0.7, 0.5], [0.7, 0.0, 0.5], [0.5, 0.6, 0.1]])
    spoiled = np.stack([cost, cost])
    spoiled[0, 2, 0] = spoiled[1, 0, 2] = np.nan
    assert _certified_matches(cost[None])[1].tolist() == [True]
    assert _certified_matches(spoiled)[1].tolist() == [False, False]
