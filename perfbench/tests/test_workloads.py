from fractions import Fraction

import pytest

import workloads
from dpmirror.cli import parse_args
from dpmirror.pseudolattice import MutationWord


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.calls(name, 7) == workloads.calls(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_call_parses_as_a_command_line(name):
    for seed in range(5):
        for argv in workloads.calls(name, seed):
            parse_args(argv)


def test_homology_inputs_follow_the_seed_and_stay_in_range():
    runs = [workloads.calls("homology", seed) for seed in range(20)]
    assert len({str(r) for r in runs}) == 20
    for calls in runs:
        assert len(calls) == 42
        for argv in calls:
            if argv[0] == "cycles":
                assert Fraction(1, 200) <= workloads.epsilon_of(argv) <= Fraction(1, 30)
            if argv[0] == "mutate":
                word = MutationWord.parse(argv[argv.index("--word") + 1])
                assert 3 <= len(word) <= 6
                assert max(word.slots()) <= workloads.MUTATE_RANK - 2


def test_periods_and_interpolate_make_the_same_calls_for_every_seed():
    for name in ("periods", "interpolate"):
        shapes = {tuple(sorted(map(tuple, workloads.calls(name, s)))) for s in range(10)}
        assert len(shapes) == 1


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.calls("nope", 1)
