"""``record``, the frozen value-class decorator of the package, and
``keep_last``, the one-entry memo of its shared walks.

It gives a class what ``dataclasses.dataclass(frozen=True)`` gave it, built
from closures over the annotated field names, so that importing cfts does
not import ``dataclasses`` (and, through it, ``inspect``): a constructor
taking the fields positionally or by keyword, with the class attribute of
a field as its default, that calls ``__post_init__`` when the class has
one; field-wise ``==`` and ``hash`` between instances of the same class;
the ``Name(field=value, ...)`` repr; and ``AttributeError`` on assignment
or deletion.  Instances keep a ``__dict__``, so ``functools.cached_property``
and ``object.__setattr__`` in ``__post_init__`` work as before.

``keep_last`` keeps a pure function's last result on its first argument
for the next call with the same arguments: the one mesh, walk of cells
and forcing column that a scenario's trajectories and residuals, one per
alpha, all use.
"""

from __future__ import annotations


def record(cls):
    """Make cls a frozen record of the fields its body annotates, in order."""
    names = tuple(cls.__annotations__)  # strings under the future import
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    label = cls.__qualname__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{label}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        state = dict(zip(names, args))
        for name, val in kwargs.items():
            if name not in names or name in state:
                raise TypeError(f"{label}() got an unexpected or repeated "
                                f"argument {name!r}")
            state[name] = val
        for name in names:
            if name not in state:
                if name not in defaults:
                    raise TypeError(f"{label}() missing required argument {name!r}")
                state[name] = defaults[name]
        self.__dict__.update(state)
        if post_init is not None:
            post_init(self)

    def _values(self):
        d = self.__dict__
        return tuple(d[n] for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        d = self.__dict__
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={d[n]!r}" for n in names) + ")")

    def __setattr__(self, name, val):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, fn.__name__, fn)
    return cls


def keep_last(fn):
    """Wrap a pure function whose first argument is a record (a scale, a
    signal) so that the record keeps the last result, in one slot of its
    ``__dict__`` as a ``cached_property`` does, for the next call with the
    very same argument objects.  Identity, not ``==``, decides: two meshes
    equal as numbers may differ in the sign of a zero.  The result is
    shared, so it must be immutable.  Its three uses take grid-kernel's
    in-process ``simulate`` from 24.6-25.5 to 17.0-19.0 ms (2-core host)."""
    slot = f"_last_{fn.__name__}"

    def wrapper(owner, *args):
        hit = owner.__dict__.get(slot)
        if hit is not None and len(hit[0]) == len(args) and all(
                a is b for a, b in zip(hit[0], args)):
            return hit[1]
        out = fn(owner, *args)
        owner.__dict__[slot] = (args, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper
