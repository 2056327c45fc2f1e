"""Tests for ``dpmirror._record``: the frozen record base of the library."""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from dpmirror import interfam
from dpmirror._record import Record
from dpmirror.homology import HomologyClass
from dpmirror.interfam import FINITE, ComplexModel, ProjectivePoint


class Sample(Record):
    name: str
    size: int
    note: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        object.__setattr__(self, "derived", 2 * self.size)


class Other(Record):
    name: str
    size: int
    note: Optional[str] = None
    weight: float = 1.0


def test_fields_are_taken_by_position_or_name_and_defaults_apply():
    record = Sample("a", 3, weight=2.5)
    assert (record.name, record.size, record.note, record.weight) == ("a", 3, None, 2.5)
    assert Sample(size=3, name="a") == Sample("a", 3, None, 1.0)


def test_post_init_runs_after_the_fields_are_set():
    assert Sample("a", 3).derived == 6
    with pytest.raises(ValueError, match="nonnegative"):
        Sample("a", -1)


@pytest.mark.parametrize("args, kwargs, message", [
    (("a", 3, None, 1.0, "extra"), {}, "takes 4 arguments but 5 were given"),
    (("a",), {}, "missing argument 'size'"),
    ((), {"size": 3}, "missing argument 'name'"),
    (("a", 3), {"colour": "red"}, "unknown or repeated argument 'colour'"),
    (("a", 3), {"name": "b"}, "unknown or repeated argument 'name'"),
])
def test_bad_arguments_raise_a_type_error_naming_the_class(args, kwargs, message):
    with pytest.raises(TypeError, match=rf"^Sample\(\) .*{message}"):
        Sample(*args, **kwargs)


def test_setting_or_deleting_any_attribute_raises():
    record = Sample("a", 3)
    for name in ("name", "derived", "unknown"):
        with pytest.raises(AttributeError, match="frozen record"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match="frozen record"):
            delattr(record, name)
    assert record == Sample("a", 3)


def test_equality_needs_the_same_class_and_reads_declared_fields_only():
    record, twin = Sample("a", 3), Sample("a", 3)
    object.__setattr__(twin, "derived", -1)
    assert record == twin and not record != twin
    assert record != Sample("a", 3, "noted")
    assert record != Other("a", 3) and Other("a", 3) != record
    assert record != ("a", 3, None, 1.0)


def test_hash_agrees_with_equality():
    record, twin = Sample("a", 3), Sample("a", 3)
    object.__setattr__(twin, "derived", -1)
    assert hash(record) == hash(twin) == hash(("a", 3, None, 1.0))
    assert len({record, twin, Sample("b", 3)}) == 2
    assert hash(HomologyClass(1, -2)) == hash((1, -2))


def test_repr_lists_the_declared_fields_in_order():
    assert repr(Sample("a", 3)) == "Sample(name='a', size=3, note=None, weight=1.0)"
    assert repr(HomologyClass(1, -2)) == "HomologyClass(m=1, n=-2)"


def test_a_required_field_after_a_default_is_refused():
    with pytest.raises(TypeError, match="without a default follows a default"):
        class Broken(Record):
            first: int = 0
            second: int


def test_a_method_the_class_defines_itself_is_kept():
    own = ProjectivePoint.__dict__["__init__"]
    assert own.__code__.co_filename == interfam.__file__
    assert ProjectivePoint(FINITE, 0.5j) == ProjectivePoint(chart=FINITE, coordinate=0.5j)
    with pytest.raises(ValueError, match="chart bound"):
        ProjectivePoint(FINITE, 2.0)
    with pytest.raises(AttributeError):
        ProjectivePoint(FINITE, 0.5j).chart = "infinite"
    rows = np.zeros((1, 3))
    model, twin = ComplexModel(rows, rows), ComplexModel(rows, rows)
    assert model == model and model != twin
    assert hash(model) == object.__hash__(model)
    assert repr(model).startswith("ComplexModel(a=array(")
