"""Wire codecs: protocol messages ⇄ length-prefixed frames.

The real-time TCP transport needs a serialization for the protocol's frozen
dataclasses (requests, votes, multicasts, signatures).  Two codecs share
one framing (a ``>I`` length prefix) and one registered-type table:

* **json** (this module, the strict-back-compat default) — the frame body
  is JSON with a small tagging scheme for the Python types JSON cannot
  express:

  * ``{"!b": "<base64>"}`` — ``bytes`` (digests, signature tags);
  * ``{"!t": [...]}`` — ``tuple``;
  * ``{"!fs": [...]}`` — ``frozenset`` (destination sets);
  * ``{"!m": [[k, v], ...]}`` — ``dict`` with arbitrary keys;
  * ``{"!d": "<TypeName>", "f": {...}}`` — a registered frozen dataclass.

* **binary** (:mod:`repro.env.wire`) — a struct-packed tag-byte format
  with positional dataclass fields keyed by small type ids
  (docs/WIRE.md); ~2-4x cheaper to encode/decode and several times
  smaller on the wire.

Every message type of the broadcast and multicast layers is pre-registered;
applications with custom command dataclasses call :func:`register_wire_type`
once at startup — **in the same order on every host**, because the binary
codec derives its per-type ids from registration order.  Select a codec by
name with :func:`get_codec` (``TcpTransport(wire="binary")``, or the
scenario knob ``protocol.wire``, docs/SCENARIOS.md).
"""

from __future__ import annotations

import base64
import dataclasses
import json
import struct
from typing import Any, Callable, Tuple

from repro.canonical import (   # the type table both codecs share
    ensure_registered, is_registered, registered_type,
    register_wire_type as register_wire_type,  # re-exported for apps
)
from repro.crypto import cache as _cache
from repro.errors import NetworkError, ReproError

_LENGTH = struct.Struct(">I")
#: refuse to decode frames above this size (corrupt length prefix guard)
MAX_FRAME = 64 * 1024 * 1024

#: codec names accepted by :func:`get_codec` (and ``protocol.wire``)
CODEC_NAMES = ("json", "binary")


def _to_jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"!b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"!t": [_to_jsonable(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        # Sort for a canonical frame; protocol sets hold comparable strings.
        return {"!fs": [_to_jsonable(v) for v in sorted(value)]}
    if isinstance(value, list):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {"!m": [[_to_jsonable(k), _to_jsonable(v)] for k, v in value.items()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if not is_registered(type(value)):
            raise NetworkError(
                f"cannot encode unregistered dataclass {name!r}; "
                f"call repro.env.codec.register_wire_type({name})"
            )
        fields = {
            f.name: _to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"!d": name, "f": fields}
    raise NetworkError(f"cannot encode value of type {type(value).__name__!r}")


def _from_jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    if isinstance(value, dict):
        if "!b" in value:
            return base64.b64decode(value["!b"])
        if "!t" in value:
            return tuple(_from_jsonable(v) for v in value["!t"])
        if "!fs" in value:
            return frozenset(_from_jsonable(v) for v in value["!fs"])
        if "!m" in value:
            return {_from_jsonable(k): _from_jsonable(v) for k, v in value["!m"]}
        if "!d" in value:
            cls = registered_type(value["!d"])
            fields = {k: _from_jsonable(v) for k, v in value["f"].items()}
            try:
                return cls(**fields)
            except (TypeError, ReproError) as exc:
                # wrong field names, or the class's own validation
                raise NetworkError(
                    f"cannot rebuild {cls.__name__} from frame: {exc}") from exc
    raise NetworkError(f"malformed wire value: {value!r}")


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` to a JSON frame body (no length prefix).

    Encodings of registered dataclass messages are memoised by object
    identity: a broadcast sends the identical Propose/Write/Accept object to
    every peer, and without the cache each send re-walks the object graph.
    """
    ensure_registered()
    cacheable = (
        _cache.enabled()
        and dataclasses.is_dataclass(obj)
        and not isinstance(obj, type)
    )
    if cacheable:
        cached = _cache.encode_cache.get(obj)
        if cached is not None:
            return cached
    body = json.dumps(_to_jsonable(obj), separators=(",", ":")).encode("utf-8")
    if cacheable:
        _cache.encode_cache.put(obj, body)
    return body


def decode(body: bytes) -> Any:
    """Inverse of :func:`encode`."""
    ensure_registered()
    try:
        return _from_jsonable(json.loads(bytes(body).decode("utf-8")))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable JSON frame body: {exc}") from exc


def frame(obj: Any) -> bytes:
    """Encode ``obj`` as one length-prefixed frame ready to write."""
    body = encode(obj)
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def frame_route_parts(src: str, dst: str, payload: Any) -> Tuple[bytes, ...]:
    """The buffers of one framed ``(src, dst, payload)`` routing tuple.

    ``b"".join(parts)`` is byte-identical to ``frame((src, dst, payload))``,
    but the payload body is the memoised :func:`encode` result spliced in
    *by reference*: a broadcast to ``n - 1`` peers pays the payload encoding
    once, and the transport can hand the buffers to ``writelines`` without
    ever concatenating them (the zero-copy write path of
    :class:`repro.env.tcp.TcpTransport`).
    """
    body = encode(payload)
    head = (b'{"!t":[' + json.dumps(src).encode("utf-8") + b","
            + json.dumps(dst).encode("utf-8") + b",")
    total = len(head) + len(body) + 2
    if total > MAX_FRAME:
        raise NetworkError(f"frame too large: {total} bytes")
    return (_LENGTH.pack(total) + head, body, b"]}")


def frame_route(src: str, dst: str, payload: Any) -> bytes:
    """One framed ``(src, dst, payload)`` routing tuple, payload encoded once.

    Byte-identical to ``frame((src, dst, payload))`` but splices the two
    route strings around the memoised payload body instead of re-walking the
    payload object graph — a broadcast to ``n - 1`` peers pays the payload
    encoding once instead of once per recipient.
    """
    return b"".join(frame_route_parts(src, dst, payload))


def split_frames(buffer, decode_body: Callable[[Any], Any],
                 on_bad: Callable[[NetworkError], None] = None,
                 ) -> Tuple[list, int, bool]:
    """Offset-based frame splitter shared by both codecs.

    Walks ``buffer`` (any bytes-like: ``bytes``, ``bytearray``,
    ``memoryview``) without re-slicing the tail per frame and returns
    ``(decoded_frames, consumed_bytes, ok)``.  ``ok`` is ``False`` when a
    length prefix exceeds :data:`MAX_FRAME` — the stream cannot be resynced
    past a corrupt prefix, so the caller must drop the connection.  A frame
    *body* that fails to decode is isolated when ``on_bad`` is given: the
    handler is called with the :class:`NetworkError`, the bad frame is
    skipped (its framing is intact, so the stream resyncs at the next
    prefix) and splitting continues.  Without ``on_bad`` the error
    propagates.
    """
    out: list = []
    view = memoryview(buffer)
    offset = 0
    size = len(view)
    ok = True
    try:
        while size - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(view, offset)
            if length > MAX_FRAME:
                ok = False
                break
            end = offset + _LENGTH.size + length
            if size < end:
                break
            # Materialize the body: decoders want bytes, and a memoryview
            # slice escaping into an exception traceback would pin the
            # buffer against the caller's in-place compaction.
            body = bytes(view[offset + _LENGTH.size:end])
            try:
                out.append(decode_body(body))
            except NetworkError as exc:
                if on_bad is None:
                    raise
                on_bad(exc)
            offset = end
    finally:
        view.release()
    return out, offset, ok


def read_frames(buffer: bytes) -> Tuple[list, bytes]:
    """Split ``buffer`` into complete decoded frames + unconsumed remainder.

    Parses by offset (one tail slice at the end) instead of re-slicing the
    buffer per frame — O(n) in the buffer size.  Raises
    :class:`NetworkError` on a corrupt length prefix or frame body.
    """
    frames, consumed, ok = split_frames(buffer, decode)
    if not ok:
        raise NetworkError(f"frame length exceeds limit at offset {consumed}")
    return frames, bytes(buffer[consumed:])


def drain_frames(buffer: bytearray,
                 on_bad: Callable[[NetworkError], None] = None,
                 ) -> Tuple[list, bool]:
    """Consume complete frames from ``buffer`` in place.

    The transport's streaming entry point: ``buffer`` is a ``bytearray``
    that grows by ``+=`` (amortised O(1)) and is compacted exactly once per
    call (``del buffer[:consumed]``), so bursty links cost O(n) instead of
    the old per-frame re-slicing O(n²).  Returns ``(frames, ok)`` with
    ``ok = False`` on a corrupt length prefix (drop the connection); frames
    with undecodable bodies are skipped via ``on_bad`` (see
    :func:`split_frames`).
    """
    frames, consumed, ok = split_frames(buffer, decode, on_bad)
    if consumed:
        del buffer[:consumed]
    return frames, ok


def get_codec(name: str):
    """The codec module registered under ``name`` (``json`` or ``binary``).

    Both codecs expose the same API surface: ``encode`` / ``decode`` /
    ``frame`` / ``frame_route`` / ``frame_route_parts`` / ``read_frames`` /
    ``drain_frames``.
    """
    import sys

    if name == "json":
        return sys.modules[__name__]
    if name == "binary":
        from repro.env import wire

        return wire
    raise NetworkError(
        f"unknown wire codec {name!r}; choose one of {list(CODEC_NAMES)}")
