"""The one canonical byte form: what is on the wire is what is signed.

``encode(obj)`` returns the binary wire body of ``obj`` (tag-byte layout:
docs/WIRE.md) and that same byte string is what :mod:`repro.crypto`
digests, MACs and signs.  The form is canonical — equal objects give
identical bytes on every host:

* scalars have one encoding each (an int that fits ``>q`` never takes the
  big-int tag);
* set items and dict entries are ordered by their *encoded* bytes, so the
  order neither depends on insertion history nor needs comparable items;
* a dataclass is its u16 type id plus positional fields.  Ids are indexes
  into the registration-order table below, so digests — like frames —
  depend on every host registering application types in the same order.

A dataclass that is not registered still has a canonical form (a
name-tagged header), so simulated deployments can digest and sign
application types nobody put on a wire; ``encode`` reports the class and
:func:`repro.env.wire.encode` refuses it.

**The memo.**  The bytes of a frozen dataclass are kept on the object
itself (``obj.__dict__``), at every nesting depth: a batch is walked once
for its MAC vector and all its links, and ``digest(proposal.batch)`` is a
concatenation of the requests' memos.  :func:`repro.env.wire.decode` seeds
the memo of every dataclass it builds with a read-only ``memoryview`` of
the slice it was decoded from, so a receiver authenticates what arrived
without walking it again — which is why decoding rejects every
non-canonical encoding — and a decoded batch holds its bytes once, in the
frame body all its memos view.  A memo is therefore *bytes-like*:
:func:`encode` returns it as it is, and every caller uses it as a buffer
(concatenated after ``bytes``, joined, hashed, MACed, written to a
socket), never as ``bytes`` (no ``startswith``, no ordering).  A memo dies
with its object; there is nothing to size or evict — but a view keeps its
whole frame alive, so state kept past the message that carried it goes
through :func:`detach`.  Bytes that contain a name-tagged header are never
memoised, so a memo is always a valid wire body.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import CryptoError, NetworkError

U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
I64 = struct.Struct(">q")
F64 = struct.Struct(">d")
#: tag byte + u32 length/count, and tag byte + int64, packed in one call
_HEAD = struct.Struct(">BI").pack
_INT = struct.Struct(">Bq").pack

NONE = 0x00
FALSE = 0x01
TRUE = 0x02
INT64 = 0x03
INTBIG = 0x04
FLOAT = 0x05
STR = 0x06
BYTES = 0x07
TUPLE = 0x08
LIST = 0x09
FROZENSET = 0x0A
DICT = 0x0B
DATACLASS = 0x0C
#: unregistered dataclass: u32 name length + name + u32 field count, then
#: the fields; digestable, never decodable
NAMED = 0x0D

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

#: ``__dict__`` keys of the per-object memos (bytes here, digest in
#: :mod:`repro.crypto.digest`)
MEMO = "_canonical"
DIGEST_MEMO = "_digest"
_NO_MEMO: Dict[str, Any] = {}

#: subclasses of these encode as the base type
_BASES = (int, float, str, bytes, tuple, list, frozenset, set, dict)


class UnencodableError(NetworkError, CryptoError):
    """A value with no canonical byte form.

    The codec's callers expect a :class:`NetworkError` and the digest's a
    :class:`CryptoError`; it is both.
    """


class MemoStats:
    """Lookup counters of one memo; its length is the memos written."""

    __slots__ = ("hits", "misses", "written")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.hits = self.misses = self.written = 0

    def __len__(self) -> int:
        return self.written


#: switched by :func:`repro.crypto.cache.configure`
memo_on = True
canonical_stats = MemoStats()
digest_stats = MemoStats()


# -- the type-id registry ---------------------------------------------------------

_REGISTRY: Dict[str, Type] = {}
#: by type id; None at a retired type's id
_TYPES_BY_ID: List[Optional[Type]] = []
#: class -> (header bytes, fields getter, memoisable, class if unregistered)
_META: Dict[Type, tuple] = {}


def register_wire_type(cls: Type) -> Type:
    """Register a frozen dataclass for wire encoding; returns ``cls``.

    Usable as a decorator on application-defined command types.  The
    class is identified by its registration index — on the wire and in
    every digest — so application types must register in the same order on
    every host (module-import order suffices: registration happens at
    import time).
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    name = cls.__name__
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing is not cls:
            raise NetworkError(f"wire type name collision: {name!r}")
        return cls
    _REGISTRY[name] = cls
    _TYPES_BY_ID.append(cls)
    _META.pop(cls, None)    # it may have been met unregistered
    return cls


def _register_builtin_types() -> None:
    from repro.bcast import messages as bmsg
    from repro.bcast.reconfig import Reconfig, View
    from repro.core import messages as cmsg
    from repro.crypto.signatures import Signature
    from repro.types import MessageId, MulticastMessage

    for cls in (
        bmsg.Request, bmsg.Propose, bmsg.Write, bmsg.Accept, bmsg.Reply,
        bmsg.Stop, bmsg.StopData, bmsg.Sync, bmsg.Heartbeat, bmsg.CertReport,
        bmsg.StateRequest, bmsg.StateResponse,
        cmsg.WireMulticast, cmsg.MulticastReply,
        Reconfig, View, Signature, MessageId, MulticastMessage,
        # 19 was an a-delivery record; the id stays reserved, so every
        # later id, and every digest that names one, keeps its bytes.
        None,
        # Admin commands ride inside Request.command over neighbour links,
        # so they need wire ids too.  Appended after the original table —
        # type ids are registration-order indexes.
        cmsg.MembershipUpdate, cmsg.TreeUpdate,
        bmsg.AuthenticatedPropose,
        cmsg.RelayBatch,
        cmsg.DeliveryQuery,
        cmsg.RelayCertificate,
        cmsg.RelayAck,
        # A StateResponse behind the truncation horizon carries one.
        bmsg.CheckpointData,
    ):
        if cls is None:
            _TYPES_BY_ID.append(None)
        else:
            register_wire_type(cls)


def ensure_registered() -> None:
    """Register the built-in protocol message types (idempotent)."""
    if not _REGISTRY:
        _register_builtin_types()


def is_registered(cls: Type) -> bool:
    ensure_registered()
    return _REGISTRY.get(cls.__name__) is cls


def registered_type(name: str) -> Type:
    """The registered dataclass called ``name`` (raises on unknown)."""
    ensure_registered()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise NetworkError(f"unknown wire type {name!r}")
    return cls


def wire_type_by_id(type_id: int) -> Type:
    """The class registered under ``type_id`` (raises on unknown ids)."""
    ensure_registered()
    cls = (_TYPES_BY_ID[type_id] if 0 <= type_id < len(_TYPES_BY_ID)
           else None)
    if cls is not None:
        return cls
    raise NetworkError(f"unknown wire type id {type_id}")


def memoisable(cls: Type) -> bool:
    """Whether instances may carry memos: frozen, and with a ``__dict__``."""
    return (cls.__dataclass_params__.frozen
            and cls.__dictoffset__ != 0)


def _meta(value: Any) -> tuple:
    cls = type(value)
    if not dataclasses.is_dataclass(cls):
        raise UnencodableError(
            f"cannot encode value of type {cls.__name__!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    if is_registered(cls):
        head = bytes((DATACLASS,)) + U16.pack(_TYPES_BY_ID.index(cls))
        unregistered = None
    else:
        raw = cls.__name__.encode("utf-8")
        head = _HEAD(NAMED, len(raw)) + raw + U32.pack(len(names))
        unregistered = cls
    if len(names) > 1:
        getter = attrgetter(*names)     # one C call for all fields
    else:
        getter = lambda obj: [getattr(obj, name) for name in names]  # noqa: E731
    meta = _META[cls] = (head, getter, memoisable(cls), unregistered)
    return meta


# -- the encoder ------------------------------------------------------------------

def encode_into(out: bytearray, value: Any) -> Optional[Type]:
    """Append the canonical encoding of ``value`` to ``out``.

    Returns ``None``, or the first unregistered dataclass met (whose
    name-tagged header makes the bytes digestable but not decodable).
    """
    kind = type(value)
    if kind is tuple:
        out += _HEAD(TUPLE, len(value))
        return _encode_items(out, value)
    if kind is str or kind is int or kind is bytes:
        return _encode_items(out, (value,))
    if value is None:
        out.append(NONE)
    elif value is True:
        out.append(TRUE)
    elif value is False:
        out.append(FALSE)
    elif kind is float:
        out.append(FLOAT)
        out += F64.pack(value)
    elif kind is list:
        out += _HEAD(LIST, len(value))
        return _encode_items(out, value)
    elif kind is frozenset or kind is set:
        # Ordered by encoded bytes: canonical without comparable items.
        parts, unregistered = _encode_each(value)
        out += _HEAD(FROZENSET, len(parts))
        out += b"".join(sorted(parts))
        return unregistered
    elif kind is dict:
        keys, in_keys = _encode_each(value)
        values, in_values = _encode_each(value.values())
        out += _HEAD(DICT, len(keys))
        for key, item in sorted(zip(keys, values)):
            out += key
            out += item
        return in_keys or in_values
    else:
        meta = _META.get(kind)
        if meta is None:
            # Subclasses (IntEnum, namedtuples, ...) encode as their base.
            for base in _BASES:
                if isinstance(value, base):
                    return encode_into(out, base(value))
            meta = _meta(value)
        head, getter, memoise, unregistered = meta
        attrs = value.__dict__ if memoise and memo_on else None
        if attrs is not None:
            cached = attrs.get(MEMO)
            if cached is not None:
                canonical_stats.hits += 1
                out += cached
                return None
            canonical_stats.misses += 1
        start = len(out)
        out += head
        unregistered = _encode_items(out, getter(value)) or unregistered
        if attrs is not None and unregistered is None:
            canonical_stats.written += 1
            attrs[MEMO] = bytes(out[start:])
        return unregistered
    return None


def _encode_items(out: bytearray, items: Any) -> Optional[Type]:
    # The container loop, with the leaves that dominate protocol messages
    # (str, int, bytes) encoded inline: a call per leaf would otherwise be
    # the single largest cost of the encoder.
    unregistered = None
    for item in items:
        kind = type(item)
        if kind is str:
            raw = item.encode("utf-8")
            out += _HEAD(STR, len(raw))
            out += raw
        elif kind is int:
            try:
                out += _INT(INT64, item)
            except struct.error:
                raw = item.to_bytes((item.bit_length() + 8) // 8,
                                    "big", signed=True)
                out += _HEAD(INTBIG, len(raw))
                out += raw
        elif kind is bytes:
            out += _HEAD(BYTES, len(item))
            out += item
        else:
            found = encode_into(out, item)
            if found is not None and unregistered is None:
                unregistered = found
    return unregistered


def _encode_each(items: Any) -> Tuple[List[bytes], Optional[Type]]:
    """Every item encoded on its own (set members, dict keys and values)."""
    parts = []
    unregistered = None
    for item in items:
        part = bytearray()
        unregistered = encode_into(part, item) or unregistered
        parts.append(bytes(part))
    return parts, unregistered


def encode(obj: Any) -> Tuple[bytes, Optional[Type]]:
    """``(canonical bytes of obj, first unregistered dataclass in it)``.

    The second item is ``None`` when the bytes are a decodable wire body.
    The first is ``bytes``, or the ``memoryview`` memo of a decoded object.
    """
    attrs = getattr(obj, "__dict__", _NO_MEMO) if memo_on else _NO_MEMO
    cached = attrs.get(MEMO)
    if cached is not None:
        canonical_stats.hits += 1
        return cached, None
    out = bytearray()
    unregistered = encode_into(out, obj)
    # A memoisable ``obj`` now carries these bytes: hand out its copy.
    return attrs.get(MEMO) or bytes(out), unregistered


def detach(value: Any) -> Any:
    """``value`` without any view of a decoded frame.

    Every dataclass whose memo is a ``memoryview`` (one
    :func:`repro.env.wire.decode` built) is rebuilt through its
    constructor without a memo, and every container around one is rebuilt
    around the copies; the rest is returned as it is — so on a backend
    that never decodes, ``detach(value) is value``.  For a decoded object
    that outlives its message (a peer's checkpoint taken over, say): its
    memo would keep the whole frame alive, and the frame may hold far more
    than the object.
    """
    kind = type(value)
    if kind is tuple or kind is list or kind is frozenset:
        items = [detach(item) for item in value]
        changed = any(new is not old for new, old in zip(items, value))
        return kind(items) if changed else value
    if kind is dict:
        pairs = [(detach(key), detach(item)) for key, item in value.items()]
        changed = any(new is not old or copy is not item for (new, copy),
                      (old, item) in zip(pairs, value.items()))
        return dict(pairs) if changed else value
    if dataclasses.is_dataclass(kind):
        fields = [getattr(value, field.name)
                  for field in dataclasses.fields(kind)]
        copies = [detach(field) for field in fields]
        memo = getattr(value, "__dict__", _NO_MEMO).get(MEMO)
        if type(memo) is memoryview or any(
                new is not old for new, old in zip(copies, fields)):
            return kind(*copies)
    return value
