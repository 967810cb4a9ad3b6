"""Records: the subset of :mod:`dataclasses` that ``repro`` uses, compiling no code.

The standard library compiles 3–6 methods per class with ``exec`` at every
import, 0.25–0.9 ms a class on CPython 3.11; for the 47–60 record classes a
``hexcc`` request creates, that was about half of ``import repro.cli``, and
``dataclasses`` loads ``inspect``, ``ast`` and ``dis``.  Here a class gets its
field tuple and closures over it, ~0.02 ms.  The behaviour is the standard
library's, which ``tests/test_record.py`` holds it to; a method the class body
defines is kept, and instances keep their ``__dict__``, so they pickle to the
same bytes.  Other options, ``ClassVar`` and ``InitVar`` raise ``TypeError``.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import attrgetter, eq, ge, gt, le, lt
from reprlib import recursive_repr
from typing import TYPE_CHECKING, Any, TypeVar

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:

    def dataclass_transform(**_specification):
        """PEP 681's marker, read by type checkers only."""
        return lambda decorator: decorator


T = TypeVar("T")
#: A field without a default; in a class's defaults, a field with a factory.
_MISSING: Any = object()
_FACTORY: Any = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    """A field's name, default or ``default_factory``, and where it takes part."""

    __slots__ = ("name", "default", "default_factory", "compare", "repr")

    def __init__(self, default: Any, default_factory: Any, compare: bool, repr: bool):
        if default is not _MISSING and default_factory is not _MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = ""
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr = compare, repr


def field(
    *,
    default: Any = _MISSING,
    default_factory: Callable[[], Any] = _MISSING,
    compare: bool = True,
    repr: bool = True,
) -> Any:
    """A field with a default or default factory, or left out of ``==`` or ``repr``."""
    return Field(default, default_factory, compare, repr)


def fields(record: Any) -> tuple[Field, ...]:
    """The fields of a record class or instance, in ``__init__`` order."""
    try:
        return record.__record_fields__
    except AttributeError:
        raise TypeError("must be called with a dataclass type or instance") from None


def replace(record: T, /, **changes: Any) -> T:
    """A new record like ``record`` but for ``changes``, built by ``__init__``."""
    values = [changes.pop(f.name, getattr(record, f.name)) for f in fields(record)]
    return record.__class__(*values, **changes)  # __init__ refuses a non-field


@dataclass_transform(field_specifiers=(field,))
def dataclass(cls: Any = None, /, *, frozen: bool = False, order: bool = False) -> Any:
    """Make ``cls`` a record: ``@dataclass`` or ``@dataclass(frozen=, order=)``."""
    if cls is None:
        return lambda cls: _process(cls, frozen, order)
    return _process(cls, frozen, order)


def _process(cls: Any, frozen: bool, order: bool) -> Any:
    by_name = {
        item.name: item
        for base in cls.__mro__[-1:0:-1]
        for item in getattr(base, "__record_fields__", ())
    }
    annotations = cls.__dict__.get("__annotations__", {})
    for name, annotation in annotations.items():
        if "ClassVar" in str(annotation) or "InitVar" in str(annotation):
            raise TypeError(f"field {name!r}: ClassVar and InitVar are not supported")
        item = getattr(cls, name, _MISSING)
        if isinstance(item, Field):
            if item.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, item.default)
        else:
            item = Field(item, _MISSING, True, True)
        if item.default.__class__.__hash__ is None:
            raise ValueError(
                f"mutable default {type(item.default)} for field {name} is not "
                "allowed: use default_factory"
            )
        item.name = name
        by_name[name] = item
    for name, value in cls.__dict__.items():
        if isinstance(value, Field) and name not in annotations:
            raise TypeError(f"{name!r} is a field but has no type annotation")
    record_fields = cls.__record_fields__ = tuple(by_name.values())
    seen_default = False
    for item in record_fields:
        if item.default is not _MISSING or item.default_factory is not _MISSING:
            seen_default = True
        elif seen_default:
            raise TypeError(f"non-default argument {item.name!r} follows a default")

    names = tuple(by_name)
    key = _values([item.name for item in record_fields if item.compare])
    _set(cls, "__init__", _init(cls, record_fields, frozen))
    _set(cls, "__repr__", _repr([item.name for item in record_fields if item.repr]))
    _set(cls, "__eq__", _compare(key, eq))
    class_hash = cls.__dict__.get("__hash__", _MISSING)
    if class_hash is _MISSING or (class_hash is None and "__eq__" in cls.__dict__):
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    orderings = {"__lt__": lt, "__le__": le, "__gt__": gt, "__ge__": ge}
    for name, operator in orderings.items() if order else ():
        if _set(cls, name, _compare(key, operator)):
            raise TypeError(f"cannot overwrite {cls.__name__}.{name}")
    if frozen:

        def __setattr__(self: Any, name: str, value: Any) -> None:
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot assign to field {name!r}")
            super(cls, self).__setattr__(name, value)

        def __delattr__(self: Any, name: str) -> None:
            if type(self) is cls or name in names:
                raise FrozenInstanceError(f"cannot delete field {name!r}")
            super(cls, self).__delattr__(name)

        for method in (__setattr__, __delattr__):
            if _set(cls, method.__name__, method):
                raise TypeError(f"cannot overwrite {cls.__name__}.{method.__name__}")
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = names
    return cls


def _set(cls: type, name: str, method: Any) -> bool:
    """Install ``method`` unless the class body defines ``name``; True if it does."""
    if name in cls.__dict__:
        return True
    method.__name__, method.__qualname__ = name, f"{cls.__qualname__}.{name}"
    setattr(cls, name, method)
    return False


def _values(names: list[str]) -> Callable[[Any], tuple]:
    """An instance's ``names`` values as a tuple: what ``==``, ``<``, ``hash`` see."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return attrgetter(*names) if names else lambda record: ()


def _compare(key: Callable[[Any], tuple], operator: Callable[[Any, Any], Any]) -> Any:
    def method(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return operator(key(self), key(other))
        return NotImplemented

    return method


def _repr(names: list[str]) -> Callable[[Any], str]:
    @recursive_repr()
    def __repr__(self: Any) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    return __repr__


def _init(cls: type, record_fields: tuple[Field, ...], frozen: bool) -> Any:
    names = tuple(item.name for item in record_fields)
    assign = object.__setattr__ if frozen else setattr
    index = {name: position for position, name in enumerate(names)}
    defaults = tuple(
        _FACTORY if item.default_factory is not _MISSING else item.default
        for item in record_fields
    )
    # Required fields and default factories: bind() settles these.
    unset = [p for p, item in enumerate(record_fields) if item.default is _MISSING]
    where = f"{cls.__qualname__}.__init__()"
    post_init = hasattr(cls, "__post_init__")

    def bind(args: tuple, kwargs: dict) -> list:
        """Positional, then keyword arguments, then defaults, in field order."""
        given = len(args)
        if given > len(names):
            raise TypeError(f"{where} takes {len(names)} arguments, not {given}")
        values = [*args, *defaults[given:]]
        for name, value in kwargs.items():
            position = index.get(name, -1)
            if position < given:
                problem = "multiple values for" if position >= 0 else "an unexpected"
                raise TypeError(f"{where} got {problem} argument {name!r}")
            values[position] = value
        for position in unset:
            if values[position] is _FACTORY:
                values[position] = record_fields[position].default_factory()
            elif values[position] is _MISSING:
                raise TypeError(f"{where} missing argument {names[position]!r}")
        return values

    def __init__(self: Any, /, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            assign(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__
