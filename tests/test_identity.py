"""Keyed authenticator: determinism, key access enforcement, injective field
encoding, and collision-freeness over random field samples."""

import random

import pytest
from hypothesis import given, strategies as st

from srpsim import KeyAccessError, encode_fields, identity, rings_for


def test_same_key_same_fields_equal_digests():
    t = rings_for(("S", "T"), (("S", "T"),))
    a = t["S"].mac("T", ("S", "T", 1))
    b = t["T"].mac("S", ("S", "T", 1))
    assert a == b  # the pair key is shared, either holder computes it


def test_different_query_ids_differ():
    r = rings_for(("S", "T"), (("S", "T"),))["S"]
    assert r.mac("T", ("S", "T", 1)) != r.mac("T", ("S", "T", 2))


def test_missing_key_is_an_access_violation():
    t = rings_for(("S", "T", "M"), (("S", "T"),))
    with pytest.raises(KeyAccessError, match="^M holds no key shared with T$"):
        t["M"].mac("T", ("S", "T", 1))
    with pytest.raises(KeyAccessError):
        t["M"].mac("S", ("S", "T", 1))


def test_no_collisions_over_random_samples():
    rng = random.Random(1234)
    ring = rings_for(("S", "T"), (("S", "T"),))["S"]
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
    elif isinstance(obj, int):
        raw = str(obj).encode("ascii")
        out += b"i"
        out += len(raw).to_bytes(4, "big")
        out += raw
    elif obj is None:
        out += b"n"
    elif isinstance(obj, tuple):
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


_short_text = st.text(max_size=5)  # any code point but surrogates
_any_int = st.one_of(st.integers(-2**20, 2**20),
                     st.integers(-2**100, -2**64) | st.integers(2**64, 2**100))
_leaf = st.one_of(_short_text, st.integers(), _any_int, st.none())
# a str first, then what the one-join path must hand to the item loop
_str_led = st.builds(
    lambda head, rest: (head, *rest),
    _short_text,
    st.lists(st.one_of(_short_text, st.integers(), st.none(),
                       st.lists(_short_text, max_size=2).map(tuple),
                       st.tuples(_short_text, st.integers())), max_size=4),
)
# an int first: tuples led by an int go through the item loop
_int_led = st.builds(
    lambda head, rest: (head, *rest),
    _any_int,
    st.lists(st.one_of(_any_int, _short_text, st.none()), max_size=6),
)
_any_value = st.recursive(
    st.one_of(_leaf, _str_led, _int_led, st.lists(_any_int, max_size=6).map(tuple)),
    lambda children: st.lists(children, max_size=4).map(tuple),
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
        encode_fields((f"cap-{i}", (f"cap-{i}", "cap-0")))
        most = max(most, len(identity._STR_BYTES))
    assert most == identity.STR_MEMO_CAP


class _Text(str):
    pass


class _Count(int):
    pass


class _Pair(tuple):
    pass


@pytest.mark.parametrize("value, name", [
    (True, "bool"),
    (1.5, "float"),
    (["a"], "list"),
    (_Text("a str subclass, never memoised"), "_Text"),
    (_Count(7), "_Count"),
    (_Pair(("S", 1)), "_Pair"),
], ids=["bool", "float", "list", "str-subclass", "int-subclass", "tuple-subclass"])
@pytest.mark.parametrize("place", [
    lambda v: (v,),
    lambda v: (("S", v),),
    lambda v: ((7, v),),
], ids=["top-level", "str-led", "int-led"])
def test_a_field_of_another_type(value, name, place):
    # only exact str, int, None and tuple values encode: a str-led tuple
    # leaves the one-join path for the item loop, which refuses the same way
    with pytest.raises(TypeError, match=f"^unencodable field type: {name}$"):
        encode_fields(place(value))
