"""The record classes behave as the frozen dataclasses they replace: each is
checked against a ``dataclasses`` twin built here from the same class body."""

import dataclasses
import math

import pytest

from cfts._record import keep_last
from cfts.config import Scenario
from cfts.fractional import CFOrder
from cfts.linear import LinearCFProblem
from cfts.nonlinear import NonlinearCFProblem, PicardResult
from cfts.signals import Closure, Sampled, constant
from cfts.timescale import ContinuousInterval, IsolatedPoint, TimeScale, UniformGrid

_TS = TimeScale.of(ContinuousInterval(0.0, 1.0), UniformGrid(2.0, 0.5, 3))
_GRID = TimeScale.grid(0.0, 1.0, 4)
_U = constant(1.0)
_SAMPLES = Sampled((0.0, 1.0), (2.0, 3.0))


def _rhs(t, x):
    return 0.2 * x


#: class -> two valid argument tuples that differ in one field
CASES = {
    ContinuousInterval: ((0.0, 1.0), (0.0, 2.0)),
    UniformGrid: ((0.0, 0.5, 3), (0.0, 0.5, 4)),
    IsolatedPoint: ((2.0,), (3.0,)),
    TimeScale: ((_TS.segments,), (_GRID.segments,)),
    Closure: ((math.sin, math.cos, None), (math.sin, None, None)),
    Sampled: (((0.0, 1.0), (2.0, 3.0)), ((0.0, 1.0), (2.0, 4.0))),
    CFOrder: ((0.5,), (0.25,)),
    LinearCFProblem: ((_TS, -0.5, _U, 0.0, CFOrder(0.5)),
                      (_TS, -0.5, _U, 1.0, CFOrder(0.5))),
    NonlinearCFProblem: ((_GRID, _rhs, 0.2, 0.0, 3.0, 1.0, CFOrder(0.25)),
                         (_GRID, _rhs, 0.2, 0.0, 2.0, 1.0, CFOrder(0.25))),
    PicardResult: ((_SAMPLES, 3, 1e-12, 0.4), (_SAMPLES, 4, 1e-12, 0.4)),
    Scenario: (("s", _TS, "linear", 0.0, (0.5,), ("trajectory",), -0.5,
                ("constant", "1"), None, None, None, 1.0, None),
               ("s", _TS, "linear", 0.0, (0.5,), ("trajectory",), -0.5,
                ("constant", "1"), None, None, None, None, 3)),
}

_GENERATED = {"__dict__", "__weakref__", "__init__", "__eq__", "__hash__", "__repr__",
              "__setattr__", "__delattr__"}


def _twin(cls):
    """The frozen dataclass of cls's own body (its annotations, defaults,
    methods and __post_init__)."""
    body = {k: v for k, v in vars(cls).items() if k not in _GENERATED}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def _required(cls):
    return [f for f in dataclasses.fields(_twin(cls))
            if f.default is dataclasses.MISSING]


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
class TestRecordParity:
    def test_repr_eq_and_hash(self, cls):
        twin = _twin(cls)
        args, other = CASES[cls]
        a, b, c = cls(*args), cls(*args), cls(*other)
        ta, tc = twin(*args), twin(*other)
        assert repr(a) == repr(ta)
        assert repr(c) == repr(tc)
        assert (a == b, a == c, a != c) == (ta == twin(*args), ta == tc, ta != tc)
        assert hash(a) == hash(ta) and hash(c) == hash(tc)
        assert a != ta and a != args  # another class is never equal

    def test_keywords_and_defaults(self, cls):
        twin = _twin(cls)
        args, _ = CASES[cls]
        names = [f.name for f in dataclasses.fields(twin)]
        assert cls(**dict(zip(names, args))) == cls(*args)
        required = args[:len(_required(cls))]
        assert repr(cls(*required)) == repr(twin(*required))

    def test_frozen(self, cls):
        args, _ = CASES[cls]
        rec = cls(*args)
        for name in [f.name for f in dataclasses.fields(_twin(cls))]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_missing_or_extra_argument(self, cls):
        twin = _twin(cls)
        args, _ = CASES[cls]
        required = args[:len(_required(cls))]
        for bad in (required[:-1], (*args, None)):
            with pytest.raises(TypeError):
                twin(*bad)
            with pytest.raises(TypeError):
                cls(*bad)
        with pytest.raises(TypeError):
            cls(*args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args[:1], **{dataclasses.fields(twin)[0].name: args[0]})


def test_post_init_still_validates_and_normalizes():
    with pytest.raises(ValueError):
        ContinuousInterval(1.0, 0.0)
    prob = NonlinearCFProblem(_GRID, _rhs, 0.2, 1e-14, 3.0, 1.0, CFOrder(0.25))
    assert prob.a == 0.0  # snapped to the scale by __post_init__
    assert _TS._los == (0.0, 2.0)  # cached_property still writes the instance


def test_keep_last_serves_the_same_objects_only():
    # the last result lives on the first argument and is served again only
    # to the very same argument objects: an equal mesh whose zero has the
    # other sign is walked anew, and each scale keeps its own walk
    calls = []

    @keep_last
    def walk(ts, mesh):
        calls.append(mesh)
        return tuple(ts.cells(mesh))

    ts, twin = TimeScale.interval(-1.0, 1.0), TimeScale.interval(-1.0, 1.0)
    mesh, signed = (0.0, 1.0), (-0.0, 1.0)
    first = walk(ts, mesh)
    assert walk(ts, mesh) is first and len(calls) == 1
    assert math.copysign(1.0, walk(ts, signed)[0][0]) == -1.0 and len(calls) == 2
    assert walk(twin, mesh) == first and len(calls) == 3
    assert walk(ts, mesh) == first and len(calls) == 4  # signed was ts's last
