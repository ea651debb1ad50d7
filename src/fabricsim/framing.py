"""Length-prefixed binary wire format for the remote-append protocol.

Frame layout, all integers little-endian:

    u32  body length
    u8   message type (0x01 SizeRequest, 0x02 SizeReply,
                       0x03 AppendRequest, 0x04 AppendReply)
    ...  type-specific fields

Strings are u16 length + UTF-8 bytes; payloads are u32 length + bytes.
Every request carries a u64 request id, reused by its retries and its reply.
Each layout is one precompiled `struct.Struct`: a reply encodes with one
`pack` and decodes with one `unpack`; a request reads its fixed head with
`unpack_from` and slices out the name and the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import FrameError

TYPE_SIZE_REQUEST = 0x01
TYPE_SIZE_REPLY = 0x02
TYPE_APPEND_REQUEST = 0x03
TYPE_APPEND_REPLY = 0x04

STATUS_OK = 0
STATUS_UNKNOWN_LOG = 1
STATUS_PAYLOAD_TOO_LARGE = 2
STATUS_SIZE_MISMATCH = 3
STATUS_STORAGE_FAILURE = 4

STATUS_NAMES = {
    STATUS_OK: "ok",
    STATUS_UNKNOWN_LOG: "unknown-log",
    STATUS_PAYLOAD_TOO_LARGE: "payload-too-large",
    STATUS_SIZE_MISMATCH: "size-mismatch",
    STATUS_STORAGE_FAILURE: "storage-failure",
}

MAX_FRAME_BODY = 16 * 1024 * 1024

# One message is built per frame sent or decoded. They are slotted, not frozen,
# dataclasses: a frozen dataclass's `__init__` costs about four times as much.
# No code changes a message once it is built.


@dataclass(slots=True)
class SizeRequest:
    request_id: int
    log_name: str


@dataclass(slots=True)
class SizeReply:
    request_id: int
    status: int
    element_size: int


@dataclass(slots=True)
class AppendRequest:
    request_id: int
    log_name: str
    message_id: bytes
    expected_element_size: int
    payload: bytes


@dataclass(slots=True)
class AppendReply:
    request_id: int
    status: int
    seq: int  # 0 means "no sequence assigned"


Message = SizeRequest | SizeReply | AppendRequest | AppendReply


# One precompiled layout per message; the u32 body length leads each frame.
_HEADER = struct.Struct("<IB")              # body length, type
_REQUEST_HEAD = struct.Struct("<IBQH")      # ... request id, log name length
_APPEND_TAIL = struct.Struct("<16sII")      # message id, expected size, payload length
_SIZE_REPLY = struct.Struct("<IBQBI")       # ... request id, status, element size
_APPEND_REPLY = struct.Struct("<IBQBQ")     # ... request id, status, seq
_HEAD_LEN = _REQUEST_HEAD.size
_TAIL_LEN = _APPEND_TAIL.size
# the largest payload an append frame carries under MAX_FRAME_BODY, whatever its log name
MAX_PAYLOAD = MAX_FRAME_BODY - (_HEAD_LEN - 4) - 0xFFFF - _TAIL_LEN
_REPLY_LAYOUTS = {TYPE_SIZE_REPLY: (_SIZE_REPLY, SizeReply),
                  TYPE_APPEND_REPLY: (_APPEND_REPLY, AppendReply)}


def _name_bytes(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FrameError("string field too long")
    return raw


def encode(msg: Message) -> bytes:
    if isinstance(msg, AppendRequest):
        if len(msg.message_id) != 16:
            raise FrameError("message_id must be 16 bytes")
        name, payload = _name_bytes(msg.log_name), msg.payload
        head = _REQUEST_HEAD.pack(_HEAD_LEN - 4 + len(name) + _TAIL_LEN + len(payload),
                                  TYPE_APPEND_REQUEST, msg.request_id, len(name))
        tail = _APPEND_TAIL.pack(msg.message_id, msg.expected_element_size, len(payload))
        return b"".join((head, name, tail, payload))
    if isinstance(msg, AppendReply):
        return _APPEND_REPLY.pack(_APPEND_REPLY.size - 4, TYPE_APPEND_REPLY,
                                  msg.request_id, msg.status, msg.seq)
    if isinstance(msg, SizeRequest):
        name = _name_bytes(msg.log_name)
        return _REQUEST_HEAD.pack(_HEAD_LEN - 4 + len(name), TYPE_SIZE_REQUEST,
                                  msg.request_id, len(name)) + name
    if isinstance(msg, SizeReply):
        return _SIZE_REPLY.pack(_SIZE_REPLY.size - 4, TYPE_SIZE_REPLY,
                                msg.request_id, msg.status, msg.element_size)
    raise FrameError(f"cannot encode {type(msg).__name__}")


def _check_end(end: int, size: int) -> None:
    if end > size:
        raise FrameError("truncated frame body")
    if end < size:
        raise FrameError(f"{size - end} trailing bytes in frame")


def decode(frame: bytes) -> Message:
    size = len(frame)
    if size < 5:
        raise FrameError("frame shorter than header")
    body_len, mtype = _HEADER.unpack_from(frame)
    if body_len > MAX_FRAME_BODY:
        raise FrameError(f"frame body {body_len} exceeds limit")
    if size != 4 + body_len:
        raise FrameError(f"frame length mismatch: header says {body_len}, got {size - 4}")
    reply = _REPLY_LAYOUTS.get(mtype)
    if reply is not None:
        layout, cls = reply
        _check_end(layout.size, size)
        _, _, request_id, status, value = layout.unpack(frame)
        return cls(request_id, status, value)
    if mtype != TYPE_APPEND_REQUEST and mtype != TYPE_SIZE_REQUEST:
        raise FrameError(f"unknown message type 0x{mtype:02x}")
    if size < _HEAD_LEN:
        raise FrameError("truncated frame body")
    _, _, request_id, name_len = _REQUEST_HEAD.unpack_from(frame)
    end = _HEAD_LEN + name_len
    if mtype == TYPE_APPEND_REQUEST:
        if end + _TAIL_LEN > size:
            raise FrameError("truncated frame body")
        message_id, expected, payload_len = _APPEND_TAIL.unpack_from(frame, end)
        _check_end(end + _TAIL_LEN + payload_len, size)
    else:
        _check_end(end, size)
    try:
        name = frame[_HEAD_LEN:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError("invalid UTF-8 in string field") from exc
    if mtype == TYPE_SIZE_REQUEST:
        return SizeRequest(request_id, name)
    return AppendRequest(request_id, name, message_id, expected, frame[end + _TAIL_LEN:])
