"""One reader for the JSON documents the CLI loads.

A Cursor is a JSON value with its path from the document root: keys joined
by dots, array indices in brackets (`levels[2].sigma`, `instance.mul`), and
"" for the whole document.  Each getter checks one value's JSON type, so each
rule "this value must be X" is written once, here; a JSON boolean is never an
integer.  A tensor of scalars is checked one depth at a time, its path below
built only once a check has failed, and decoded by one vec_from_json call.
"""

from __future__ import annotations

import contextlib
from itertools import accumulate, chain

_NOUNS = {dict: "a JSON object", list: "a JSON array", str: "a string", int: "an integer"}


class InputError(ValueError):
    """A malformed input; .path locates the value at fault, None if nothing does."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


def _is(value, kind):
    return isinstance(value, kind) and not isinstance(value, bool)


def cursor(value):
    """value if it is a Cursor, else a Cursor at the root of the document value."""
    return value if isinstance(value, Cursor) else Cursor(value)


class Cursor:
    __slots__ = ("value", "path")

    def __init__(self, value, path=""):
        self.value = value
        self.path = path

    def error(self, message):
        """An InputError at this path; its message starts with the path."""
        return InputError(f"{self.path or 'the document'} {message}", self.path)

    @contextlib.contextmanager
    def blame(self):
        """Give a ValueError raised inside, which has no path yet, this one."""
        try:
            yield self
        except ValueError as exc:
            if getattr(exc, "path", None) is None:
                exc.path = self.path
            raise

    def _at(self, step, value):
        if isinstance(step, int):
            return Cursor(value, f"{self.path}[{step}]")
        return Cursor(value, f"{self.path}.{step}" if self.path else step)

    def _not(self, kind):
        nouns = " or ".join(map(_NOUNS.get, kind if isinstance(kind, tuple) else (kind,)))
        shown = "" if isinstance(self.value, (dict, list)) else f", not {self.value!r}"
        return self.error(f"must be {nouns}{shown}")

    def of(self, kind):
        """The value, which must be of the JSON type kind (dict, list, str or int)."""
        if not _is(self.value, kind):
            raise self._not(kind)
        return self.value

    def key(self, name):
        """The value at key name of this object, which must have it."""
        if name not in self.of(dict):
            raise self.error(f"has no key {name!r}")
        return self._at(name, self.value[name])

    def get(self, name, default):
        """The value at key name of this object, or default where it has none."""
        return self._at(name, self.of(dict).get(name, default))

    def array(self, item=None, length=None):
        """The value, a JSON array (of length entries of the JSON type item, a
        type or a tuple of types, where given)."""
        value = self.value
        if not isinstance(value, list) or (length is not None and len(value) != length):
            raise self.error("must be a JSON array"
                             + ("" if length is None else f" of {length} entries"))
        if item is not None and not all(_is(x, item) for x in value):
            i = next(i for i, x in enumerate(value) if not _is(x, item))
            raise self._at(i, value[i])._not(item)
        return value

    def each(self, item=dict):
        """A Cursor at each entry of this array, whose entries must be of type item."""
        return [self._at(i, x) for i, x in enumerate(self.array(item))]

    def scalars(self, field, *shape):
        """The value as nested JSON arrays with the lengths in shape (None:
        any), each row a new list; every innermost cell, in document order,
        goes to one field.vec_from_json call, whose error names the value."""
        levels = [[self.value]]
        for n in shape:
            level = levels[-1]
            if not ({*map(type, level)} <= {list} and (n is None or {*map(len, level)} <= {n})):
                self._check_shape(shape)
            levels.append([*chain.from_iterable(level)])
        try:
            out = field.vec_from_json(levels.pop())
        except (TypeError, ValueError, KeyError) as exc:
            raise self.error(f"holds an invalid scalar for its base field ({exc})") from None
        for level in levels[:0:-1]:
            ends = [*accumulate(map(len, level))]
            out = [out[a:b] for a, b in zip([0, *ends], ends)]
        return out

    def _check_shape(self, shape):
        """Raise at the first value under this one that breaks the shape."""
        self.array(length=shape[0])
        for i, v in enumerate(self.value if shape[1:] else ()):
            self._at(i, v)._check_shape(shape[1:])
