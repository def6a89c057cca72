"""Binary wire codec: struct-packed frames for the real-time fast path.

Drop-in alternative to the JSON codec (:mod:`repro.env.codec`) with the
same API surface — ``encode`` / ``decode`` / ``frame`` / ``frame_route`` /
``frame_route_parts`` / ``read_frames`` / ``drain_frames`` — and the same
``>I`` length-prefixed framing, but a tag-byte body format instead of
tagged JSON (full layout: docs/WIRE.md):

====  =========================================================
tag   payload
====  =========================================================
0x00  ``None``
0x01  ``False``
0x02  ``True``
0x03  int, 8-byte signed big-endian (``>q``)
0x04  int outside ``>q`` range: u32 length + signed two's complement
0x05  float, IEEE-754 double (``>d``)
0x06  str: u32 byte length + UTF-8
0x07  bytes: u32 length
0x08  tuple: u32 count + items
0x09  list: u32 count + items
0x0A  frozenset: u32 count + items ordered by their encoded bytes
0x0B  dict: u32 count + alternating key, value, ordered by encoded key
0x0C  registered dataclass: u16 type id + fields in declaration order
====  =========================================================

The body is the codebase's one canonical byte form
(:mod:`repro.canonical`, which holds the encoder): the bytes put on a
socket are the bytes :mod:`repro.crypto` digests, MACs and signs, and the
encoding of every frozen dataclass is memoised on the object, at every
nesting depth — a broadcast to ``n - 1`` peers walks the object graph
once, however the message is wrapped.

:func:`decode` seeds that memo on every dataclass it builds with a
read-only ``memoryview`` of the slice it was decoded from — a view into
the one frame body, not a copy, so a decoded batch holds its bytes once —
and so it accepts canonical encodings only: a
big-int tag on a value that fits ``>q``, set items or dict keys out of
order or repeated, unknown tags and type ids, truncated payloads,
trailing bytes and fields the dataclass's own constructor rejects all
raise :class:`~repro.errors.NetworkError` — the transport counts
``net.bad_frame`` and skips the frame rather than crashing the reader.
``encode(decode(b)) == b`` for every ``b`` that decodes.

For a decoded object, :func:`encode` (like :func:`repro.canonical.encode`
and :func:`repro.crypto.digest.canonical_bytes`) therefore returns that
view: a bytes-like body, not necessarily ``bytes``.  Every consumer takes
a buffer — ``bytes + body``, ``b"".join``, hashing, MACs, a transport's
``writelines`` — and a view keeps its whole frame alive, so an object kept
in long-lived state is stored through :func:`repro.canonical.detach`
(docs/WIRE.md, "Memo seeding").
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Tuple

from repro import canonical as _canonical
from repro.canonical import (
    BYTES, DATACLASS, DICT, FALSE, FLOAT, FROZENSET, I64_MAX, I64_MIN,
    INT64, INTBIG, LIST, MEMO, NONE, STR, TRUE, TUPLE,
)
from repro.env import codec as _codec
from repro.env.codec import MAX_FRAME, _LENGTH  # shared framing
from repro.errors import NetworkError, ReproError

# type id -> (class, field count, memoisable); the registry is append-only,
# so entries never go stale
_DC_BY_ID: dict = {}


def _dc_decode_meta(type_id: int) -> Tuple[type, int, bool]:
    cls = _canonical.wire_type_by_id(type_id)
    meta = (cls, len(dataclasses.fields(cls)), _canonical.memoisable(cls))
    _DC_BY_ID[type_id] = meta
    return meta


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` to a binary frame body (no length prefix).

    The body is bytes-like: a decoded object's memo is a view of its frame.
    """
    body, unregistered = _canonical.encode(obj)
    if unregistered is not None:
        name = unregistered.__name__
        raise NetworkError(
            f"cannot encode unregistered dataclass {name!r}; "
            f"call repro.env.codec.register_wire_type({name})")
    return body


def _decode_from(data: bytes, offset: int, limit: int, view: memoryview,
                 _unpack_i64=_canonical.I64.unpack_from,
                 _unpack_u32=_canonical.U32.unpack_from,
                 _unpack_u16=_canonical.U16.unpack_from,
                 _unpack_f64=_canonical.F64.unpack_from) -> Tuple[Any, int]:
    # Bounds are enforced lazily: ``data[offset]`` past the end raises
    # IndexError and ``unpack_from`` raises struct.error, both translated
    # to NetworkError by :func:`decode`.  Only slice reads (str/bytes/
    # bigint payloads) need an explicit check, because Python slicing
    # silently truncates instead of raising.  The tag dispatch is ordered
    # by frequency in protocol traffic: str > int > tuple > dataclass.
    start = offset
    tag = data[offset]
    offset += 1
    if tag == STR:
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        if end > limit:
            raise NetworkError(
                f"truncated binary frame: need {length} byte(s) "
                f"at offset {offset}")
        return data[offset:end].decode("utf-8"), end
    if tag == INT64:
        return _unpack_i64(data, offset)[0], offset + 8
    if tag == TUPLE or tag == DATACLASS:
        # The two container tags that dominate protocol frames share one
        # loop with the leaf tags (str/int/bytes) decoded inline — the
        # recursive call per leaf would otherwise be the single largest
        # cost in the decoder.
        if tag == TUPLE:
            (count,) = _unpack_u32(data, offset)
            offset += 4
            cls = None
        else:
            (type_id,) = _unpack_u16(data, offset)
            offset += 2
            meta = _DC_BY_ID.get(type_id)
            if meta is None:
                meta = _dc_decode_meta(type_id)
            cls, count, memoise = meta
        items = []
        append = items.append
        for _ in range(count):
            leaf = data[offset]
            if leaf == STR:
                (length,) = _unpack_u32(data, offset + 1)
                offset += 5
                end = offset + length
                if end > limit:
                    raise NetworkError(
                        f"truncated binary frame: need {length} byte(s) "
                        f"at offset {offset}")
                append(data[offset:end].decode("utf-8"))
                offset = end
            elif leaf == INT64:
                append(_unpack_i64(data, offset + 1)[0])
                offset += 9
            elif leaf == BYTES:
                (length,) = _unpack_u32(data, offset + 1)
                offset += 5
                end = offset + length
                if end > limit:
                    raise NetworkError(
                        f"truncated binary frame: need {length} byte(s) "
                        f"at offset {offset}")
                append(data[offset:end])
                offset = end
            else:
                item, offset = _decode_from(data, offset, limit, view)
                append(item)
        if cls is None:
            return tuple(items), offset
        try:
            value = cls(*items)
        except (TypeError, ValueError, ReproError) as exc:
            # ReproError: the class's own validation (a View that is not
            # 3f+1 wide) — a frame a correct peer could not have sent.
            raise NetworkError(
                f"cannot rebuild {cls.__name__} from frame: {exc}") from exc
        if memoise and _canonical.memo_on:
            # Only canonical encodings get this far, so the slice is what
            # encoding ``value`` would produce; a view of the frame body,
            # so the batch's bytes are held once, however deep it nests.
            value.__dict__[MEMO] = view[start:offset]
        return value, offset
    if tag == BYTES:
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        if end > limit:
            raise NetworkError(
                f"truncated binary frame: need {length} byte(s) "
                f"at offset {offset}")
        return data[offset:end], end
    if tag == FROZENSET or tag == DICT:
        # Canonical order is strictly ascending encoded items (set) or
        # keys (dict); values equal under ``==`` but encoded differently
        # (1, True, 1.0) would collapse on rebuild, hence the size check.
        (count,) = _unpack_u32(data, offset)
        offset += 4
        keys = []
        values = []
        previous = None
        for _ in range(count):
            at = offset
            key, offset = _decode_from(data, offset, limit, view)
            raw = data[at:offset]
            if previous is not None and raw <= previous:
                raise NetworkError(
                    f"non-canonical binary frame: set items or dict keys "
                    f"out of order at offset {at}")
            previous = raw
            keys.append(key)
            if tag == DICT:
                value, offset = _decode_from(data, offset, limit, view)
                values.append(value)
        built = dict(zip(keys, values)) if tag == DICT else frozenset(keys)
        if len(built) != count:
            raise NetworkError(
                "non-canonical binary frame: equal set items or dict keys")
        return built, offset
    if tag == NONE:
        return None, offset
    if tag == FALSE:
        return False, offset
    if tag == TRUE:
        return True, offset
    if tag == FLOAT:
        return _unpack_f64(data, offset)[0], offset + 8
    if tag == LIST:
        (count,) = _unpack_u32(data, offset)
        offset += 4
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_from(data, offset, limit, view)
            append(item)
        return items, offset
    if tag == INTBIG:
        (length,) = _unpack_u32(data, offset)
        offset += 4
        end = offset + length
        if end > limit:
            raise NetworkError(
                f"truncated binary frame: need {length} byte(s) "
                f"at offset {offset}")
        value = int.from_bytes(data[offset:end], "big", signed=True)
        if (I64_MIN <= value <= I64_MAX
                or length != (value.bit_length() + 8) // 8):
            raise NetworkError(
                f"non-canonical binary frame: big-int encoding of {value}")
        return value, end
    raise NetworkError(f"unknown binary wire tag 0x{tag:02x}")


def decode(body) -> Any:
    """Inverse of :func:`encode`; accepts canonical encodings only.

    The memos it seeds are views of ``body`` (copied to ``bytes`` first
    when it is not), passed down the recursion rather than kept anywhere.
    """
    if type(body) is not bytes:
        body = bytes(body)   # memoryview / bytearray input
    try:
        value, offset = _decode_from(body, 0, len(body), memoryview(body))
    except IndexError:
        raise NetworkError(
            "truncated binary frame: ran out of bytes") from None
    except struct.error as exc:
        raise NetworkError(f"truncated binary frame: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise NetworkError(f"invalid UTF-8 in binary frame: {exc}") from exc
    except RecursionError:
        raise NetworkError("binary frame nests too deeply") from None
    except TypeError as exc:     # unhashable set item or dict key
        raise NetworkError(f"malformed binary frame: {exc}") from exc
    if offset != len(body):
        raise NetworkError(
            f"{len(body) - offset} trailing byte(s) after binary frame body")
    return value


def frame(obj: Any) -> bytes:
    """Encode ``obj`` as one length-prefixed binary frame ready to write."""
    body = encode(obj)
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def _route_head(src: str, dst: str) -> bytes:
    head = bytearray(struct.pack(">BI", TUPLE, 3))
    _canonical.encode_into(head, src)
    _canonical.encode_into(head, dst)
    return bytes(head)


def frame_route_parts(src: str, dst: str, payload: Any) -> Tuple[bytes, ...]:
    """The buffers of one framed ``(src, dst, payload)`` routing tuple.

    ``b"".join(parts)`` is byte-identical to ``frame((src, dst, payload))``;
    the payload body is the memoised :func:`encode` result spliced in by
    reference for the transport's ``writelines`` zero-copy write path — for
    a decoded payload being forwarded, a view of the frame it arrived in.
    """
    body = encode(payload)
    head = _route_head(src, dst)
    total = len(head) + len(body)
    if total > MAX_FRAME:
        raise NetworkError(f"frame too large: {total} bytes")
    return (_LENGTH.pack(total) + head, body)


def frame_route(src: str, dst: str, payload: Any) -> bytes:
    """One framed ``(src, dst, payload)`` routing tuple, payload encoded once."""
    return b"".join(frame_route_parts(src, dst, payload))


def read_frames(buffer: bytes) -> Tuple[list, bytes]:
    """Split ``buffer`` into complete decoded frames + unconsumed remainder."""
    frames, consumed, ok = _codec.split_frames(buffer, decode)
    if not ok:
        raise NetworkError(f"frame length exceeds limit at offset {consumed}")
    return frames, bytes(buffer[consumed:])


def drain_frames(buffer: bytearray,
                 on_bad: Callable[[NetworkError], None] = None,
                 ) -> Tuple[list, bool]:
    """Consume complete frames from ``buffer`` in place (see JSON codec)."""
    frames, consumed, ok = _codec.split_frames(buffer, decode, on_bad)
    if consumed:
        del buffer[:consumed]
    return frames, ok
