"""Input reading: the rules that read a scenario file, an attack's params and
a campaign's settings.  A field is taken by `take`, read by a converter built
from the ones here, and named by its path in one message form,
`<path>: <reason>`.  Input numbers are read by exact type, never coerced.
This module imports no other srpsim module.
"""

from __future__ import annotations


class ScenarioError(ValueError):
    """A scenario failed validation; the message names the rule."""


class FieldError(ScenarioError):
    """A field of a scenario file, of an attack's params or of a campaign's
    settings that cannot be read.  `path` names it from the outermost object
    in, by key and array index; the message is the path, then the reason."""

    def __init__(self, path: tuple, reason: str):
        where = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
        super().__init__(f"{where.removeprefix('.') or 'scenario'}: {reason}")
        self.path, self.reason = path, reason


_REQUIRED = object()


def read_at(path: tuple, convert, value):
    """`convert(value)`, its error named by `path`: a TypeError, ValueError or
    OverflowError gives the reason, and a FieldError from a nested field is
    moved under `path`."""
    try:
        return convert(value)
    except FieldError as e:
        raise FieldError(path + e.path, e.reason) from None
    except (TypeError, ValueError, OverflowError) as e:
        raise FieldError(path, str(e)) from None


def take(obj: dict, key, convert, default=_REQUIRED):
    """Field `key` taken out of `obj`, a reader's copy of an object, and read
    through `convert`; an absent or null field takes `default` as is, or is
    an error when there is none.  A key no reader takes is an error (see
    `fields`)."""
    value = obj.pop(key, None)
    if value is None:
        if default is _REQUIRED:
            raise FieldError((key,), "is required")
        return default
    return read_at((key,), convert, value)


def read_object(value) -> dict:
    """A copy of `value` if it is a JSON object."""
    if type(value) is not dict:
        raise TypeError(f"expected an object, not {value!r}")
    return dict(value)


def fields(read, nullable=None):
    """A converter for a JSON object: `read` takes its fields out of a copy,
    and a key it leaves is an error.  Only the fields named in `nullable`
    (any field, when it is None) may be null."""
    def convert(value):
        obj = read_object(value)
        for key, v in obj.items():
            if v is None and nullable is not None and key not in nullable:
                raise FieldError((key,), "expected a value, not null")
        out = read(obj)
        if obj:
            raise FieldError((), f"has no key {next(iter(obj))!r}")
        return out
    return convert


def read_node(value) -> str:
    """A node id: a non-empty string of UTF-8 text with no whitespace and no
    ','.  The fields of a trace line are space-separated, routes comma-joined,
    and a stored trace is UTF-8, which cannot encode a lone surrogate."""
    if not (isinstance(value, str) and value.split() == [value] and "," not in value
            and (value.isascii() or not any("\ud800" <= c <= "\udfff" for c in value))):
        raise TypeError(f"expected a node id (a non-empty string of UTF-8 text "
                        f"with no whitespace and no ','), not {value!r}")
    return value


def read_list(*converts, least=0):
    """A converter for a list: with one converter, of `least` or more items,
    each read by it; with more, of one item per converter, in order.  The
    items are read in one pass; only a failed read walks them again through
    `read_at`, which names the failing item's index."""
    def read(value) -> tuple:
        if not isinstance(value, (list, tuple)) or len(converts) not in (1, len(value)):
            items = "" if len(converts) == 1 else f" of {len(converts)} items"
            raise TypeError(f"expected a list{items}, not {value!r}")
        if len(value) < least:
            raise ValueError(f"expected {least} or more items, not {value!r}")
        try:
            if len(converts) == 1:
                return tuple(map(converts[0], value))
            return tuple([c(v) for c, v in zip(converts, value)])
        except (TypeError, ValueError, OverflowError):
            pass  # the converters are pure, so the walk below fails at the same item
        items = converts * len(value) if len(converts) == 1 else converts
        return tuple(read_at((i,), c, v) for i, (c, v) in enumerate(zip(items, value)))
    return read


def exact_int(value) -> int:
    """`value` if it is an int and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def exact_number(value) -> float:
    """`value` as a float if it is an int or a float and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    return float(value)


def read_int(least=0, most=None):
    """A converter for an integer of at least `least` and, when `most` is
    given, at most `most`."""
    def read(value) -> int:
        n = exact_int(value)
        if n < least:
            raise ValueError(f"expected an integer >= {least}, not {value!r}")
        if most is not None and n > most:
            raise ValueError(f"expected at most {most}, not {n}")
        return n
    return read


read_count = read_int()


def read_choice(*choices):
    """A converter that admits only one of the string `choices` (or of a
    string enum's members), and gives the choice that equals the value."""
    def read(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, not {value!r}")
        return choices[choices.index(value)]
    return read
