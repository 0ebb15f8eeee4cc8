"""`Record`: the base of every immutable value type in the package,
`RequestError`: the one refusal of a malformed input, and the readers of
the input grammars that refuse with it.

A subclass lists its fields as class annotations, in order; a class
attribute of the same name is that field's default.  Records keep the
contract of a frozen data class (`frozen=True`, other options at their
defaults):

- the constructor takes the fields by position or keyword, applies the
  defaults, raises `TypeError` on a missing, repeated or unexpected field,
  and then runs `__post_init__`;
- assigning or deleting an attribute raises `AttributeError`;
- two records are equal when they are of the same class and their field
  tuples are equal; against any other class `__eq__` is `NotImplemented`;
- the hash is the hash of the field tuple, so a record with an unhashable
  field is unhashable;
- the repr is `Name(field=value, ...)`.

Unlike the standard library's data class decorator, this generates no code
and imports nothing, so defining the value types costs a cold process
almost nothing.  Instances keep a `__dict__`: `functools.cached_property`
works on them, and `__post_init__` may store a cache outside the fields
with `self.__dict__[name] = value`; such an attribute is not a field and
takes no part in equality, hashing or the repr.

`RequestError` classifies a refusal by what failed: an input that names
nothing the package builds raises it wherever it is checked, and `cli.main`
maps it to exit 2; a failed certificate raises its module's own error.

So is an input past a size limit, by the function that reads it, before
anything is built: `MAX_DIM` bounds the dimension of a table, `MAX_PERIOD`
the twist period lcm(|pi|, m).  README ("Requests are bounded") times the
slowest requests they admit.

Each input grammar has one reader, whichever module reads the input:
`read_int` for an integer in text, `is_int` for a JSON integer, `read_json`
for a JSON document.
"""

__all__ = ["Record", "RequestError"]

MAX_DIM = 700
MAX_PERIOD = 24


class RequestError(ValueError):
    """A malformed input: the request names nothing to build (exit 2)."""


def read_int(text: str) -> int | None:
    """The integer text spells as -?[0-9]+ in ASCII digits, else None; a
    numeral past the interpreter's digit limit is refused by its length."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise RequestError(f"an integer of {len(digits)} digits is past the digit limit") from None


def is_int(x: object) -> bool:
    """x is a JSON integer, not a bool (a subclass of int) or a float."""
    return type(x) is int


def read_json(raw: str | bytes, source: str) -> object:
    """The JSON document raw (UTF-8 bytes, or text); text that does not
    decode, an integer past the digit limit or nesting past the recursion
    limit is refused, naming source."""
    import json

    try:
        return json.loads(raw if type(raw) is str else raw.decode("utf-8"))
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or the digit limit
        raise RequestError(f"{source} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise RequestError(f"{source} nests too deeply to read") from None


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        required = [name for name in cls._fields if name not in cls._defaults]
        if cls._fields[: len(required)] != tuple(required):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} fields but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {min(kwargs)!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
