"""``repro._record`` against its reference, the standard library's ``dataclasses``.

Every synthetic record below is declared twice, once with each decorator, and
the pairs must agree on construction, ``repr``, ``==``, ``hash``, ordering,
fields, ``replace`` and the exceptions raised.  The stage artefacts of the
library compiles, which are records, must survive a pickle round trip.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from types import SimpleNamespace

import pytest

from repro import _record
from repro.api import Session
from repro.api.artifacts import STAGES
from repro.gpu.device import get_device
from repro.stencils import get_stencil, list_stencils

LIBRARIES = {"stdlib": dataclasses, "record": _record}


def _declare(lib):
    """One set of synthetic records, declared with ``lib``'s decorator."""
    dataclass, field = lib.dataclass, lib.field

    @dataclass(frozen=True)
    class Point:
        x: int
        y: int = 0

    @dataclass(frozen=True)
    class Point3(Point):
        y: int = 5
        z: int = 0

    @dataclass(frozen=True)
    class Point4(Point3):
        w: int = 0

    @dataclass
    class Bag:
        name: str
        items: list = field(default_factory=list)
        note: str = field(default="", compare=False)
        secret: str = field(default="hidden", repr=False)

    @dataclass(frozen=True, order=True)
    class Key:
        major: int
        minor: tuple = ()
        label: str = field(default="", compare=False)

    @dataclass(frozen=True)
    class Checked:
        value: int

        def __post_init__(self):
            if self.value < 0:
                raise ValueError("negative")
            object.__setattr__(self, "double", 2 * self.value)

    @dataclass(frozen=True)
    class Named:
        label: str

        def __str__(self):
            return f"<{self.label}>"

        def __eq__(self, other):
            return isinstance(other, Named) and hash(self) == hash(other)

        def __hash__(self):
            return hash(self.label.lower())

    @dataclass(frozen=True)
    class Unit:
        pass

    return SimpleNamespace(
        Point=Point, Point3=Point3, Point4=Point4, Bag=Bag, Key=Key, Checked=Checked,
        Named=Named, Unit=Unit,
    )


STDLIB, RECORD = _declare(dataclasses), _declare(_record)

#: (class name, args, kwargs): positional, keyword, mixed and default-only calls.
CALLS = [
    ("Point", (1, 2), {}),
    ("Point", (1,), {}),
    ("Point", (), {"y": 5, "x": 4}),
    ("Point3", (1, 2, 3), {}),
    ("Point3", (1,), {"z": 9}),
    ("Point4", (1,), {"w": 2}),
    ("Bag", ("a",), {}),
    ("Bag", ("a", [1, 2]), {"note": "n", "secret": "s"}),
    ("Key", (2,), {}),
    ("Key", (1, (3, 4)), {"label": "x"}),
    ("Checked", (3,), {}),
    ("Named", ("Abc",), {}),
    ("Unit", (), {}),
]


def _both(name, args, kwargs):
    return (
        getattr(STDLIB, name)(*args, **kwargs),
        getattr(RECORD, name)(*args, **kwargs),
    )


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name, args, kwargs", CALLS)
def test_instances_agree(name, args, kwargs):
    reference, record = _both(name, args, kwargs)
    assert repr(record) == repr(reference)
    assert str(record) == str(reference)
    assert list(vars(record).items()) == list(vars(reference).items())
    assert _hash_or_error(record) == _hash_or_error(reference)
    twin_reference, twin = _both(name, args, kwargs)
    assert (record == twin) == (reference == twin_reference)
    assert (record != twin) == (reference != twin_reference)
    assert record.__match_args__ == reference.__match_args__


@pytest.mark.parametrize("name", sorted(vars(STDLIB)))
def test_fields_agree(name):
    reference, record = getattr(STDLIB, name), getattr(RECORD, name)
    assert [f.name for f in _record.fields(record)] == [
        f.name for f in dataclasses.fields(reference)
    ]
    for attribute in ("__eq__", "__hash__", "__str__", "__post_init__"):
        assert (attribute in vars(record)) == (attribute in vars(reference)), attribute
    assert (record.__hash__ is None) == (reference.__hash__ is None)


def test_compare_false_and_repr_false_fields():
    for lib in (STDLIB, RECORD):
        assert lib.Bag("a", note="x") == lib.Bag("a", note="y")
        assert lib.Bag("a", secret="x") != lib.Bag("a", secret="y")
        assert "hidden" not in repr(lib.Bag("a"))
        assert hash(lib.Key(1, label="x")) == hash(lib.Key(1, label="y"))


def test_default_factory_gives_a_fresh_object_each_time():
    first, second = RECORD.Bag("a"), RECORD.Bag("a")
    assert first.items == second.items == []
    assert first.items is not second.items
    first.items.append(1)
    assert RECORD.Bag("b").items == []


def test_ordering_agrees():
    keys = [(3,), (1, (2,)), (1,), (2, (0, 1)), (1, (1, 5))]
    assert [(k.major, k.minor) for k in sorted(RECORD.Key(*a) for a in keys)] == [
        (k.major, k.minor) for k in sorted(STDLIB.Key(*a) for a in keys)
    ]
    for lib in (STDLIB, RECORD):
        low, high = lib.Key(1), lib.Key(2)
        assert (low < high, low <= high, low > high, low >= high) == (
            True, True, False, False,
        )
        with pytest.raises(TypeError):
            _ = lib.Key(1) < lib.Point(1)
        with pytest.raises(TypeError):
            _ = lib.Point(1) < lib.Point(2)


def test_equality_needs_the_same_class():
    for lib in (STDLIB, RECORD):
        assert lib.Point(1, 2) != lib.Point3(1, 2)
        assert lib.Point(1, 2) != (1, 2)


def test_body_defined_methods_are_kept():
    for lib in (STDLIB, RECORD):
        assert lib.Named("ABC") == lib.Named("abc")
        assert hash(lib.Named("ABC")) == hash(lib.Named("abc"))
        assert str(lib.Named("x")) == "<x>"


def test_post_init_runs_after_the_fields_are_set():
    assert RECORD.Checked(4).double == STDLIB.Checked(4).double == 8
    for lib in (STDLIB, RECORD):
        with pytest.raises(ValueError, match="negative"):
            lib.Checked(-1)


@pytest.mark.parametrize("name, args, kwargs", CALLS)
def test_replace_agrees(name, args, kwargs):
    reference, record = _both(name, args, kwargs)
    changes = {f.name: 7 for f in dataclasses.fields(reference)[:1]}
    replaced = _record.replace(record, **changes)
    assert type(replaced) is type(record) and replaced is not record
    assert repr(replaced) == repr(dataclasses.replace(reference, **changes))


@pytest.mark.parametrize("lib", sorted(LIBRARIES))
def test_replace_refuses_a_change_that_is_not_a_field(lib):
    with pytest.raises(TypeError):
        LIBRARIES[lib].replace(_declare(LIBRARIES[lib]).Point(1), z=2)


@pytest.mark.parametrize("lib", sorted(LIBRARIES))
def test_frozen_records_raise_frozen_instance_error(lib):
    module, point = LIBRARIES[lib], _declare(LIBRARIES[lib]).Point(1)
    assert issubclass(module.FrozenInstanceError, AttributeError)
    with pytest.raises(module.FrozenInstanceError):
        point.x = 2
    with pytest.raises(module.FrozenInstanceError):
        del point.y
    with pytest.raises(module.FrozenInstanceError):
        point.extra = 3


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),
        ((1, 2, 3), {}),
        ((1,), {"z": 2}),
        ((), {"x": 1, "z": 2}),
        ((1,), {"x": 2}),
    ],
    ids=["missing", "extra", "unexpected", "unexpected-keyword-only", "duplicate"],
)
@pytest.mark.parametrize("lib", sorted(LIBRARIES))
def test_argument_errors_are_type_errors(lib, args, kwargs):
    with pytest.raises(TypeError):
        _declare(LIBRARIES[lib]).Point(*args, **kwargs)


def _non_default_after_default(lib):
    @lib.dataclass
    class Broken:
        a: int = 0
        b: int


def _mutable_default(lib):
    @lib.dataclass
    class Broken:
        a: list = []


def _field_without_annotation(lib):
    @lib.dataclass
    class Broken:
        a = lib.field(default=0)


@pytest.mark.parametrize(
    "declare", [_non_default_after_default, _mutable_default, _field_without_annotation]
)
def test_class_creation_errors_agree(declare):
    with pytest.raises((TypeError, ValueError)) as reference:
        declare(dataclasses)
    with pytest.raises((TypeError, ValueError)) as record:
        declare(_record)
    assert type(record.value) is type(reference.value)


def test_options_outside_the_subset_are_refused():
    with pytest.raises(TypeError):
        _record.dataclass(slots=True)
    with pytest.raises(TypeError):
        _record.field(init=False)
    with pytest.raises(TypeError):
        _record.fields(object())


def _unshared(value) -> bytes:
    """``value`` pickled without the memo.

    Pickle writes a string or object it has seen once as a back-reference, so
    the bytes depend on which equal strings happen to be one object; with
    the memo off they depend on the values alone.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer)
    pickler.fast = True
    pickler.dump(value)
    return buffer.getvalue()


#: Stages whose artefact holds an object compared by identity (the
#: ``StencilProgram``, and the tiling a ``TilingPlan`` wraps): an unpickled
#: copy equals the original in its pickled bytes only.
BY_IDENTITY = {"parse", "canonicalize", "tiling"}


@pytest.mark.parametrize("device", ["gtx470", "nvs5200m"])
@pytest.mark.parametrize("stencil", list_stencils())
def test_stage_artefacts_survive_a_pickle_round_trip(stencil, device):
    session = Session(device=get_device(device))
    run = session.run(get_stencil(stencil), stop_after="verify")
    for stage in STAGES:
        artifact = run.artifact(stage)
        copy = pickle.loads(pickle.dumps(artifact))
        assert type(copy) is type(artifact)
        if stage not in BY_IDENTITY:
            assert copy == artifact, stage
        assert _unshared(copy) == _unshared(artifact), stage
