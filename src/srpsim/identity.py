"""Node identities, pairwise end-node keys, and the keyed authenticator.

The authenticator is a keyed 64-bit digest over a canonical, injective
serialization of message fields.  Security is a *model* property: a node can
only produce digests for key pairs it actually holds, which is enforced by
KeyRing rather than by computational hardness.  `rings_for` gives each node of
a roster its ring over a scenario's key pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    return remember(_STR_BYTES, STR_MEMO_CAP, obj, b"s" + len(raw).to_bytes(4, "big") + raw)


def _encode_int(obj: int) -> bytes:
    raw = str(obj).encode("ascii")
    return b"i" + len(raw).to_bytes(4, "big") + raw


def _encode_each(items, out: bytearray) -> None:
    # Type-tagged, length-prefixed encoding; injective over nested
    # str/int/None/tuple values.  This, the one dispatch site, decides what
    # can be encoded: only exact types, so that equal memo keys encode
    # identically (`True == 1`, `1.0 == 1`); any other value is refused.
    for item in items:
        t = type(item)
        if t is str:
            enc = _STR_BYTES.get(item)
            out += enc if enc is not None else _encode_str(item)
        elif t is int:
            out += _encode_int(item)
        elif item is None:
            out += b"n"
        elif t is tuple:
            _encode_items(item, out)
        else:
            raise TypeError(f"unencodable field type: {t.__name__}")


def _encode_items(obj, out: bytearray) -> None:
    out += b"l"
    out += len(obj).to_bytes(4, "big")
    if not obj:
        return
    if type(obj[0]) is str:
        # a node list: one join over memoised encodings; any item that is
        # not an already-seen str sends the list through the item loop,
        # which memoises its strings and refuses what it cannot encode
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
# emptied when it reaches MAC_MEMO_CAP entries.  Exact because the encoder
# takes exact values only (see _encode_each).
MAC_MEMO_CAP = 1 << 10
_MACS: dict[tuple, int] = new_memo()


def _keyed_digest(key: bytes, fields: Sequence) -> int:
    h = hashlib.blake2b(encode_fields(fields), digest_size=DIGEST_BYTES, key=key)
    return int.from_bytes(h.digest(), "big")


def f_k(key: bytes, fields: Sequence) -> int:
    """Keyed digest over the canonical serialization of `fields`."""
    memo_key = (key, tuple(fields))
    mac = _MACS.get(memo_key)
    if mac is None:
        mac = remember(_MACS, MAC_MEMO_CAP, memo_key, _keyed_digest(key, fields))
    return mac


@dataclass(frozen=True)
class KeyRing:
    """One node's pairwise keys, by peer, read-only.

    mac() models the authenticator function: it succeeds only for peers the
    holder genuinely shares a key with, which is how forgery infeasibility is
    represented in the simulation.
    """

    holder: str
    keys: Mapping[str, bytes]

    def holds(self, peer: str) -> bool:
        return peer in self.keys

    def mac(self, peer: str, fields: Sequence) -> int:
        key = self.keys.get(peer)
        if key is None:
            raise KeyAccessError(f"{self.holder} holds no key shared with {peer}")
        return f_k(key, fields)


def rings_for(nodes: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Mapping[str, KeyRing]:
    """Each of `nodes` mapped, read-only, to its KeyRing over the keys of
    `pairs`; a node in no pair gets an empty ring.  A pair's key is derived
    from the pair, so that runs are reproducible."""
    keys = {node: {} for node in nodes}
    for a, b in pairs:
        if a == b:
            raise ValueError("a node cannot share a key with itself")
        lo, hi = sorted((a, b))
        key = hashlib.blake2b(f"pairkey|{lo}|{hi}".encode(), digest_size=32).digest()
        keys.setdefault(a, {})[b] = keys.setdefault(b, {})[a] = key
    return MappingProxyType({node: KeyRing(node, MappingProxyType(keys[node]))
                             for node in nodes})
