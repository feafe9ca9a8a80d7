"""Frozen value records, the package's value classes.

A subclass of `Record` lists its fields as annotations, in order; a
class-level value is that field's default.  Each subclass gets its own
``__init__(self, field, ..., field=default)``, compiled once by one small
`exec`, as `collections.namedtuple` builds its ``__new__``: Python itself
binds the arguments, positionally or by keyword, and raises its own
TypeError for a missing, repeated or unknown one.  The ``__init__`` fills
the instance's ``__dict__``, then runs the class's ``__post_init__``.
Assigning or deleting an attribute raises `FrozenInstanceError`, an
AttributeError.  Records compare and hash by their field tuple, and only
within one class; ``class C(Record, eq=False)`` keeps identity equality
and hashing instead, as every record holding numpy arrays does.  The
repr is ``Name(field=value, ...)`` unless the class writes its own.

This is all the package used of the standard library's frozen-class
decorator, which cost every start-up about 20 ms: its module imports
`inspect`, `ast`, `dis` and `tokenize` (about 6 ms), and it compiles each
class's generated methods with `exec` (about 0.6 ms a class).  The one
`exec` a class here costs about 0.09 ms, 2 ms of start-up for the
package's 22 classes (2-vCPU x86 VM).
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
        cls._fields = fields = tuple(cls.__annotations__)
        # the field values, a tuple when there are two or more
        cls._key = attrgetter(*fields)
        # a default names its class-level value in the exec's namespace;
        # _self and _dict leave every public name free for a field
        namespace = {f: cls.__dict__[f] for f in fields
                     if f in cls.__dict__}
        params = ", ".join(f + "=" + f if f in namespace else f
                           for f in fields)
        stores = "".join("\n _dict[%r] = %s" % (f, f) for f in fields)
        exec("def __init__(_self, %s):\n _dict = _self.__dict__%s\n"
             " _self.__post_init__()" % (params, stores), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

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
