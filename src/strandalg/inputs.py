"""Input files: the one coded error every rejected input raises, the reader
of UTF-8 input files, and the JSON field readers the surface, diagram, domain
and module parsers share.

Every rejected input raises an InputError, or a subclass naming the kind of
input, whose ``code`` identifies the reason.  The readers are classmethods, so
``DiagramError.int_field(p, "alpha", "point 0")`` raises a DiagramError; each
message names the object being read (``where``) and the field.  A wrong value
is rejected, not converted.  A rejected conversion is chained from its cause; a
missing field has none.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

_REQUIRED = object()


def as_int(value) -> int:
    """A JSON integer as an int; TypeError for any other value, bools too."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean")
    return operator.index(value)


class InputError(ValueError):
    """Malformed or rejected input; ``code`` identifies the reason."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    @classmethod
    def read_text(cls, path, prefix: str = "") -> str:
        """The text of the UTF-8 file at path."""
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            raise cls("syntax", f"{prefix}cannot read {path}: {e.strerror}") from e
        try:
            return data.decode()
        except UnicodeDecodeError as e:
            raise cls("syntax", f"{prefix}{path} is not UTF-8 text: {e}") from e

    @classmethod
    def json(cls, text: str, prefix: str = ""):
        """The decoded JSON text.  ValueError covers JSONDecodeError and an
        integer past int()'s digit limit."""
        try:
            return json.loads(text)
        except ValueError as e:
            raise cls("syntax", f"{prefix}not valid JSON: {e}") from e

    @classmethod
    def field(cls, obj, key: str, where: str, default=_REQUIRED):
        """obj[key]; default where the key is absent, if one is given."""
        if not isinstance(obj, dict):
            raise cls("syntax", f"{where} is not an object")
        if key in obj:
            return obj[key]
        if default is _REQUIRED:
            raise cls("syntax", f"{where} lacks field {key!r}")
        return default

    @classmethod
    def list_field(cls, obj, key: str, where: str, default=_REQUIRED) -> list:
        value = cls.field(obj, key, where, default)
        if not isinstance(value, (list, tuple)):
            raise cls("syntax", f"{where}: field {key!r} is not a list")
        return value

    @classmethod
    def int_field(cls, obj, key: str, where: str, default=_REQUIRED) -> int:
        value = cls.field(obj, key, where, default)
        try:
            return as_int(value)
        except TypeError as e:
            raise cls("syntax", f"{where}: field {key!r} is not an integer: {value!r}") from e

    @classmethod
    def bool_field(cls, obj, key: str, where: str, default=_REQUIRED) -> bool:
        value = cls.field(obj, key, where, default)
        if not isinstance(value, bool):
            raise cls("syntax", f"{where}: field {key!r} is not a boolean: {value!r}")
        return value
