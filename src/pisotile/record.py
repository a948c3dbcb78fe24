"""Records: classes whose _fields, in constructor order, make their value, equal
only to records of their own class with equal fields.  A record is immutable, made
by one __dict__ update, and hashed by its fields (unhashable when one is a list or dict)."""

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))  # the value; one field: itself

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
