"""Frozen value records, the package's value classes.

A subclass of `Record` lists its fields as annotations, in order; a
class-level value is that field's default.  An instance takes the fields
positionally or by keyword, then runs the class's ``__post_init__``.
Assigning or deleting an attribute raises `FrozenInstanceError`, an
AttributeError.  Records compare and hash by their field tuple, and only
within one class; ``class C(Record, eq=False)`` keeps identity equality
and hashing instead.  The repr is ``Name(field=value, ...)`` unless the
class writes its own.

This is all the package used of the standard library's frozen-class
decorator, which cost every start-up about 20 ms: its module imports
`inspect`, `ast`, `dis` and `tokenize` (about 6 ms), and it compiles each
class's generated methods with `exec` (about 0.6 ms a class).
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


class Record:
    """Base class of the package's frozen value classes."""

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations, in order, never a base's; the
        # package's modules postpone annotations, so these are strings
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}
        # the field values, a tuple when there are two or more
        cls._key = attrgetter(*cls._fields)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call that is not all fields positionally."""
        fields = cls._fields
        name = cls.__qualname__ + "()"
        if len(args) > len(fields):
            raise TypeError("%s takes at most %d arguments (%d given)"
                            % (name, len(fields), len(args)))
        values = dict(cls._defaults)
        values.update(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError("%s got an unexpected keyword argument %r"
                                % (name, key))
            if key in fields[:len(args)]:
                raise TypeError("%s got multiple values for argument %r"
                                % (name, key))
        values.update(kwargs)
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError("%s missing required argument(s): %s"
                            % (name, ", ".join(map(repr, missing))))
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))
