"""Node identities, pairwise end-node keys, and the keyed authenticator.

The authenticator is a keyed 64-bit digest over a canonical, injective
serialization of message fields.  Security is a *model* property: a node can
only produce digests for key pairs it actually holds, which is enforced by
KeyRing rather than by computational hardness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

DIGEST_BYTES = 8


class KeyAccessError(Exception):
    """A node invoked the authenticator with a key it does not hold."""


# every process-wide memo, in the order made; `clear_memos` empties them
_MEMOS: list[dict] = []


def new_memo() -> dict:
    """A new process-wide memo, filled only through `remember` and emptied
    by `clear_memos`."""
    memo = {}
    _MEMOS.append(memo)
    return memo


def remember(memo: dict, cap: int, key, value):
    """Store `value` under `key` in a process-wide memo, emptying the memo
    first when it holds `cap` entries; return `value`.  Called on a miss."""
    if len(memo) >= cap:
        memo.clear()
    memo[key] = value
    return value


def clear_memos() -> None:
    """Empty every process-wide memo, as in a new process.  No digest
    depends on what the memos hold."""
    for memo in _MEMOS:
        memo.clear()


# str -> its encoding; emptied when it reaches STR_MEMO_CAP entries.  Only
# exact `str` keys.
STR_MEMO_CAP = 1 << 16
_STR_BYTES: dict[str, bytes] = new_memo()
_str_bytes = _STR_BYTES.__getitem__


def _encode_str(obj: str) -> bytes:
    raw = obj.encode("utf-8")
    enc = b"s" + len(raw).to_bytes(4, "big") + raw
    if type(obj) is str:
        remember(_STR_BYTES, STR_MEMO_CAP, obj, enc)
    return enc


def _encode_int(obj: int) -> bytes:
    raw = str(obj).encode("ascii")
    return b"i" + len(raw).to_bytes(4, "big") + raw


def _encode_each(items, out: bytearray) -> None:
    # Type-tagged, length-prefixed encoding; injective over nested
    # str/int/None/tuple-or-list values.  Exact types are handled here, the
    # one dispatch site, which recurses only into lists; _encode_other
    # serves subclasses and bool.
    for item in items:
        t = type(item)
        if t is str:
            enc = _STR_BYTES.get(item)
            out += enc if enc is not None else _encode_str(item)
        elif t is int:
            out += _encode_int(item)
        elif item is None:
            out += b"n"
        elif t is tuple or t is list:
            _encode_items(item, out)
        else:
            _encode_other(item, out)


def _encode_other(obj, out: bytearray) -> None:
    if isinstance(obj, str):
        out += _encode_str(obj)
    elif isinstance(obj, bool):  # bool before int: bool is an int subclass
        out += b"b1" if obj else b"b0"
    elif isinstance(obj, int):
        out += _encode_int(obj)
    elif isinstance(obj, (tuple, list)):
        _encode_items(obj, out)
    else:
        raise TypeError(f"unencodable field type: {type(obj).__name__}")


def _encode_items(obj, out: bytearray) -> None:
    out += b"l"
    out += len(obj).to_bytes(4, "big")
    if not obj:
        return
    if type(obj[0]) is str:
        # a node list: one join over memoised encodings; any item that is
        # not an already-seen str sends the list through the item loop,
        # which memoises its strings
        try:
            out += b"".join(map(_str_bytes, obj))
            return
        except (KeyError, TypeError):
            pass
    _encode_each(obj, out)


def encode_fields(fields: Sequence) -> bytes:
    """Canonical wire encoding of an ordered field list.

    Distinct field lists never encode identically (length prefixes make the
    encoding injective), so digests over this encoding commit to the exact
    field values, including empty lists vs. missing entries.
    """
    fields = tuple(fields)
    out = bytearray(b"l")
    out += len(fields).to_bytes(4, "big")
    _encode_each(fields, out)
    return bytes(out)


# (key, fields) -> f_k(key, fields), shared by every run in the process;
# emptied when it reaches MAC_MEMO_CAP entries.  Exact because every MAC
# input is an exact str, int or None, or a tuple of these (see AttackScript),
# so equal keys encode identically: a bool or a float would find the entry of
# an equal int.
MAC_MEMO_CAP = 1 << 10
_MACS: dict[tuple, int] = new_memo()


def _keyed_digest(key: bytes, fields: Sequence) -> int:
    h = hashlib.blake2b(encode_fields(fields), digest_size=DIGEST_BYTES, key=key)
    return int.from_bytes(h.digest(), "big")


def f_k(key: bytes, fields: Sequence) -> int:
    """Keyed digest over the canonical serialization of `fields`."""
    memo_key = (key, tuple(fields))
    try:
        mac = _MACS.get(memo_key)
    except TypeError:  # a list among the fields: not a key
        return _keyed_digest(key, fields)
    if mac is None:
        mac = remember(_MACS, MAC_MEMO_CAP, memo_key, _keyed_digest(key, fields))
    return mac


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class KeyTable:
    """Scenario-wide registry of pairwise symmetric keys.

    Key material is derived deterministically from the node pair so that runs
    are reproducible.  Read-only once its rings exist: `Scenario.key_rings`
    shares one table among every scenario of the same roster and key pairs.
    """

    _keys: dict[tuple[str, str], bytes] = field(default_factory=dict)

    def grant(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError("a node cannot share a key with itself")
        p = _pair(a, b)
        self._keys.setdefault(
            p, hashlib.blake2b(f"pairkey|{p[0]}|{p[1]}".encode(), digest_size=32).digest()
        )

    def shares_key(self, a: str, b: str) -> bool:
        return _pair(a, b) in self._keys

    def ring(self, holder: str) -> "KeyRing":
        return KeyRing(self, holder)

    def _mac(self, holder: str, peer: str, fields: Sequence) -> int:
        key = self._keys.get(_pair(holder, peer))
        if key is None:
            raise KeyAccessError(f"{holder} holds no key shared with {peer}")
        return f_k(key, fields)


@dataclass(frozen=True)
class KeyRing:
    """A single node's view of the key table.

    mac() models the authenticator function: it succeeds only for peers the
    holder genuinely shares a key with, which is how forgery infeasibility is
    represented in the simulation.
    """

    table: KeyTable
    holder: str

    def holds(self, peer: str) -> bool:
        return self.table.shares_key(self.holder, peer)

    def mac(self, peer: str, fields: Sequence) -> int:
        return self.table._mac(self.holder, peer, fields)
