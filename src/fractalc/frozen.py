"""The one base of the package's immutable value types.

Plain slotted classes rather than `@dataclass(frozen=True)`: the decorator
writes and compiles each class's methods when its module is imported, and
`dataclasses` imports `inspect`; in a CLI process both cost more than the
analytic commands compute.
"""


class Frozen:
    """Immutable value over the fields named in `_fields`, in constructor order.

    A subclass lists its fields, and any attribute derived from them, in
    `__slots__`, and its `__init__` passes the field values, in order, to
    `Frozen.__init__`. repr is dataclass-style, `Name(field=value, ...)`; ==
    and hash compare the tuple of the fields in `_compared` (by default all of
    them), and == only between instances of one class. Assigning or deleting
    any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" in cls.__dict__ and "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: slot state would be
        # restored by assignment, which __setattr__ refuses
        return type(self), tuple([getattr(self, name) for name in self._fields])
