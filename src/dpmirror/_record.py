"""Immutable records: the one way the library declares a value type.

A subclass of ``Record`` declares its fields as annotations in its own
body, in order; a field with a value there has that value as its default.
When the class is created, ``__init_subclass__`` reads the fields once and
installs, as closures over them, every one of these the class does not
define itself:

* ``__init__``, which takes the fields by position or by name, fills the
  defaults, and then calls the class's ``__post_init__``, if it has one;
* ``__eq__``, true for a record of the same class with equal fields, and
  ``__hash__``, the hash of the tuple of fields, so the two agree;
* ``__repr__``, ``Name(field=value, ...)``.

Records are frozen: setting or deleting an attribute raises
``AttributeError``.  A ``__post_init__`` that normalizes a field, or keeps a
derived value that equality, hashing and repr ignore, writes it with
``object.__setattr__``.  Nothing here generates source code, so creating a
record class costs a few closures, not a compilation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Tuple

__all__ = ["Record"]


class Record:
    """Base class of the library's frozen records (see the module docstring)."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names: Tuple[str, ...] = tuple(cls.__dict__.get("__annotations__", {}))
        defaults: Dict[str, Any] = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        required = names[: len(names) - len(defaults)]
        if any(n in defaults for n in required):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        count = len(names)
        post_init = getattr(cls, "__post_init__", None)
        get = attrgetter(*names)
        key: Callable[[Any], tuple] = get if count > 1 else lambda record: (get(record),)

        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            state = self.__dict__
            state.update(zip(names, args))
            if len(args) != count or kwargs:
                if len(args) > count:
                    raise TypeError(
                        f"{cls.__name__}() takes {count} arguments but {len(args)} were given"
                    )
                for name in kwargs:
                    if name not in names or name in state:
                        raise TypeError(
                            f"{cls.__name__}() got an unknown or repeated argument {name!r}"
                        )
                state.update(kwargs)
                for name in names:
                    if name not in state:
                        if name not in defaults:
                            raise TypeError(f"{cls.__name__}() is missing argument {name!r}")
                        state[name] = defaults[name]
            if post_init is not None:
                post_init(self)

        def __eq__(self: Any, other: Any) -> Any:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Any) -> int:
            return hash(key(self))

        def __repr__(self: Any) -> str:
            shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, key(self)))
            return f"{self.__class__.__qualname__}({shown})"

        for method in (__init__, __eq__, __hash__, __repr__):
            if method.__name__ not in cls.__dict__:
                method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
                setattr(cls, method.__name__, method)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a frozen record")
