"""Keyed authenticator: determinism, key access enforcement, injective field
encoding, and collision-freeness over random field samples."""

import random

import pytest
from hypothesis import given, strategies as st

from srpsim import KeyAccessError, KeyTable, encode_fields, identity


def test_same_key_same_fields_equal_digests():
    t = KeyTable()
    t.grant("S", "T")
    a = t.ring("S").mac("T", ("S", "T", 1))
    b = t.ring("T").mac("S", ("S", "T", 1))
    assert a == b  # the pair key is shared, either holder computes it


def test_different_query_ids_differ():
    t = KeyTable()
    t.grant("S", "T")
    r = t.ring("S")
    assert r.mac("T", ("S", "T", 1)) != r.mac("T", ("S", "T", 2))


def test_missing_key_is_an_access_violation():
    t = KeyTable()
    t.grant("S", "T")
    with pytest.raises(KeyAccessError):
        t.ring("M").mac("T", ("S", "T", 1))
    with pytest.raises(KeyAccessError):
        t.ring("M").mac("S", ("S", "T", 1))


def test_no_collisions_over_random_samples():
    rng = random.Random(1234)
    t = KeyTable()
    t.grant("S", "T")
    ring = t.ring("S")
    seen = {}
    for i in range(10_000):
        fields = ("S", "T", rng.randrange(2 ** 32),
                  tuple(f"n{rng.randrange(50)}" for _ in range(rng.randrange(5))))
        d = ring.mac("T", fields)
        if fields in seen:
            continue
        assert d not in seen.values() or fields in seen
        seen[fields] = d
    assert len(set(seen.values())) == len(seen)


field_value = st.recursive(
    st.one_of(st.text(max_size=8), st.integers(-2**40, 2**40), st.none()),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=10,
)


@given(st.tuples(field_value, field_value), st.tuples(field_value, field_value))
def test_encoding_is_injective(a, b):
    if a != b:
        assert encode_fields(a) != encode_fields(b)
    else:
        assert encode_fields(a) == encode_fields(b)


def test_list_nesting_is_length_prefixed():
    # flattening or re-chunking nested lists must change the encoding
    assert encode_fields((("a", "b"),)) != encode_fields(("a", "b"))
    assert encode_fields((("a",), ("b",))) != encode_fields((("a", "b"),))
    assert encode_fields(("1",)) != encode_fields((1,))
    assert encode_fields(((),)) != encode_fields(())


# -- the encoder against a plain recursive reference --------------------------

def _reference_encode(obj, out: bytearray) -> None:
    # the item-by-item encoder that the memoised one replaced
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += b"s"
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif isinstance(obj, bool):
        out += b"b1" if obj else b"b0"
    elif isinstance(obj, int):
        raw = str(obj).encode("ascii")
        out += b"i"
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif obj is None:
        out += b"n"
    elif isinstance(obj, (tuple, list)):
        out += b"l"
        out += len(obj).to_bytes(4, "big")
        for item in obj:
            _reference_encode(item, out)
    else:
        raise TypeError(f"unencodable field type: {type(obj).__name__}")


def _reference_encode_fields(fields) -> bytes:
    out = bytearray()
    _reference_encode(tuple(fields), out)
    return bytes(out)


class _Text(str):
    pass


class _Count(int):
    pass


_short_text = st.text(max_size=5)  # any code point but surrogates
_leaf = st.one_of(
    _short_text,
    st.integers(),
    st.integers(-2**100, -2**64) | st.integers(2**64, 2**100),
    st.booleans(),
    st.none(),
    _short_text.map(_Text),
    st.integers().map(_Count),
)
_any_int = st.one_of(st.integers(-2**20, 2**20),
                     st.integers(-2**100, -2**64) | st.integers(2**64, 2**100))
# a str first, then what the one-join path must hand to the item loop
_str_led = st.builds(
    lambda head, rest: [head] + rest,
    _short_text,
    st.lists(st.one_of(_short_text, st.booleans(), st.integers(),
                       st.lists(_short_text, max_size=2),
                       st.tuples(_short_text, st.integers())), max_size=4),
)
# an int first: lists led by an int go through the item loop, where a bool or
# an int subclass among the items must take _encode_other's typed path
_int_led = st.builds(
    lambda head, rest: [head] + rest,
    _any_int,
    st.lists(st.one_of(_any_int, st.booleans(), _any_int.map(_Count),
                       _short_text, st.none()), max_size=6),
)
_any_value = st.recursive(
    st.one_of(_leaf, _str_led, _str_led.map(tuple), _int_led, _int_led.map(tuple),
               st.lists(_any_int, max_size=6).map(tuple)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple)),
    max_leaves=16,
)


@given(st.lists(_any_value, max_size=6))
def test_encoding_equals_the_recursive_reference(fields):
    expected = _reference_encode_fields(fields)
    # twice: the second pass finds every string in the memo
    assert encode_fields(fields) == expected
    assert encode_fields(tuple(fields)) == expected


def test_string_memo_never_exceeds_its_cap():
    most = 0
    for i in range(identity.STR_MEMO_CAP + 100):
        encode_fields((f"cap-{i}", [f"cap-{i}", "cap-0"]))
        most = max(most, len(identity._STR_BYTES))
    assert most == identity.STR_MEMO_CAP


def test_a_list_holding_a_bool_encodes_apart_from_its_int_twin():
    assert encode_fields(([1, True],)) != encode_fields(([1, 1],))
