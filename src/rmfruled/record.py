"""Plain value classes for the package's data records.

A :class:`Record` subclass names its fields in ``__slots__``.  It is built
positionally in field order or by keyword, with trailing fields defaulting
to ``_defaults``; it compares and hashes by class and field values, matches
class patterns positionally (``__match_args__``) and refuses assignment.
Nothing is generated at class creation, so defining one costs microseconds.
"""


class Record:
    __slots__ = ()
    _defaults = {}  # field name -> default value (immutable values only)

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            try:
                args += tuple(kwargs[n] if n in kwargs else self._defaults[n]
                              for n in rest)
            except KeyError as err:
                raise TypeError(f"{type(self).__name__} missing field {err}") from None
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(tuple(fields(self).values()))

    def __reduce__(self):  # for copy and pickle, which would assign fields
        return type(self), tuple(fields(self).values())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in fields(self).items())
        return f"{type(self).__name__}({args})"


def fields(record) -> dict | None:
    """{field name: value} of a :class:`Record` in field order; None for any
    other object."""
    if not isinstance(record, Record):
        return None
    return {name: getattr(record, name) for name in record.__slots__}
