"""Records: classes whose instances hold a fixed list of declared fields.

A record class declares its fields once, as annotations in order, with a
default as the class attribute where there is one.  ``Record`` builds
instances from that declaration; ``dataclasses`` would compile several
methods per class on every import.
"""

from __future__ import annotations


def _refuse(record, name, *value):
    raise AttributeError(f"cannot change {name!r} of a frozen {type(record).__name__}")


class _Signature:
    """The fields as call parameters, for ``inspect.signature``; built only when asked for."""

    def __get__(self, record, cls):
        from inspect import Parameter, Signature

        kind = Parameter.KEYWORD_ONLY if cls._keyword_only else Parameter.POSITIONAL_OR_KEYWORD
        return Signature([Parameter(name, kind, annotation=annotation,
                                    default=cls._field_defaults.get(name, Parameter.empty))
                          for name, annotation in cls._fields.items()])


class Record:
    """Base of the package's records.

    ``_fields`` maps each field to its annotation text and
    ``_field_defaults`` the defaulted ones to their defaults.  Every record
    is frozen; ``__post_init__`` validates a new one.  A record with an
    ``np.ndarray`` field compares and hashes by identity, since an array has
    no single truth value, and its repr leaves the array out.
    """

    _fields = {}  # not annotated: the base declares no fields
    _field_defaults = {}
    _keyword_only = False
    __signature__ = _Signature()
    __setattr__ = __delattr__ = _refuse

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = {**cls._fields, **own}
        cls._field_defaults = {**cls._field_defaults,
                               **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        if "np.ndarray" in cls._fields.values():
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        required = fields.keys() - self._field_defaults.keys()
        if (len(args) > (0 if self._keyword_only else len(fields))
                or len(values) < len(args) + len(kwargs)  # a field given twice
                or not required <= values.keys() <= fields.keys()):
            raise TypeError(f"{type(self).__name__}: bad arguments, {len(args)} positional "
                            f"and {sorted(kwargs)}")
        vars(self).update(self._field_defaults, **values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}"
                 for name, kind in self._fields.items() if kind != "np.ndarray")
        return f"{type(self).__qualname__}({', '.join(shown)})"


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes`` to its fields, validated again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
