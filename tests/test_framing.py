import random

import pytest

from fabricsim import framing
from fabricsim.errors import FrameError
from fabricsim.framing import (
    AppendReply,
    AppendRequest,
    SizeReply,
    SizeRequest,
    decode,
    encode,
)

from . import oracles


def test_size_request_round_trip():
    msg = SizeRequest(7, "telemetry")
    assert decode(encode(msg)) == msg


def test_append_request_round_trip():
    msg = AppendRequest(99, "alerts", bytes(range(16)), 1024, b"\x01\x02payload")
    assert decode(encode(msg)) == msg


def test_replies_round_trip():
    assert decode(encode(SizeReply(3, 0, 4096))) == SizeReply(3, 0, 4096)
    assert decode(encode(AppendReply(4, 1, 0))) == AppendReply(4, 1, 0)


def test_golden_bytes_size_request():
    # layout frozen: u32 len | u8 type | u64 request id | u16 name len | name
    raw = encode(SizeRequest(1, "ab"))
    assert raw == bytes([13, 0, 0, 0]) + bytes([0x01]) + \
        (1).to_bytes(8, "little") + bytes([2, 0]) + b"ab"


def test_golden_bytes_append_reply():
    raw = encode(AppendReply(2, 0, 41))
    assert raw == bytes([18, 0, 0, 0]) + bytes([0x04]) + \
        (2).to_bytes(8, "little") + bytes([0]) + (41).to_bytes(8, "little")


def test_ok_reply_seq_zero_is_reserved_for_errors():
    # seq 0 means "no sequence"; an ok reply always carries seq >= 1
    reply = AppendReply(5, framing.STATUS_OK, 1)
    assert decode(encode(reply)).seq >= 1


def test_unknown_type_rejected():
    raw = bytearray(encode(SizeRequest(1, "x")))
    raw[4] = 0x7F
    with pytest.raises(FrameError):
        decode(bytes(raw))


def test_truncated_frame_rejected():
    raw = encode(AppendRequest(1, "log", bytes(16), 8, b"payload"))
    with pytest.raises(FrameError):
        decode(raw[:-3])


def test_trailing_garbage_rejected():
    raw = encode(SizeReply(1, 0, 8)) + b"junk"
    with pytest.raises(FrameError):
        decode(raw)


def test_length_header_mismatch_rejected():
    raw = bytearray(encode(SizeReply(1, 0, 8)))
    raw[0] += 1
    with pytest.raises(FrameError):
        decode(bytes(raw))


def test_random_round_trips():
    rng = random.Random(2024)
    for _ in range(200):
        kind = rng.randrange(4)
        rid = rng.randrange(2**63)
        if kind == 0:
            msg = SizeRequest(rid, "log-" + str(rng.randrange(1000)))
        elif kind == 1:
            msg = SizeReply(rid, rng.randrange(5), rng.randrange(2**31))
        elif kind == 2:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            msg = AppendRequest(rid, "l" * rng.randrange(1, 40),
                                bytes(rng.randrange(256) for _ in range(16)),
                                rng.randrange(2**31), payload)
        else:
            msg = AppendReply(rid, rng.randrange(5), rng.randrange(2**63))
        assert decode(encode(msg)) == msg


def test_fuzzed_bytes_never_crash_decoder():
    rng = random.Random(7)
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        try:
            decode(blob)
        except FrameError:
            pass


# -- differential check against the field-at-a-time reference decoder ----------------

def _random_message(rng):
    rid = rng.randrange(2**64)
    name = "".join(rng.choice("ab_-é€") for _ in range(rng.randrange(12)))
    kind = rng.randrange(4)
    if kind == 0:
        return SizeRequest(rid, name)
    if kind == 1:
        return SizeReply(rid, rng.randrange(256), rng.randrange(2**32))
    if kind == 2:
        return AppendRequest(rid, name, rng.randbytes(16), rng.randrange(2**32),
                             rng.randbytes(rng.randrange(40)))
    return AppendReply(rid, rng.randrange(256), rng.randrange(2**64))


def _with_length(body: bytes) -> bytes:
    return len(body).to_bytes(4, "little") + body


def _mangled(frame: bytes, rng):
    """The frame, each truncation of it, a one-byte extension, and frames with
    a changed type byte, a corrupted length header or an invalid UTF-8 name.
    Cut or extended bodies also come with their length header fixed up, so
    they reach the body-level checks."""
    body = frame[4:]
    yield frame
    for cut in range(len(frame)):
        yield frame[:cut]
    for cut in range(len(body)):
        yield _with_length(body[:cut])
    extra = bytes([rng.randrange(256)])
    yield frame + extra
    yield _with_length(body + extra)
    for mtype in (0x00, 0x01, 0x02, 0x03, 0x04, 0x05, rng.randrange(256)):
        yield frame[:4] + bytes([mtype]) + body[1:]
    for length in (len(body) - 1, len(body) + 1, rng.randrange(2**32),
                   framing.MAX_FRAME_BODY + 1):
        yield length.to_bytes(4, "little") + body
    if body[0] in (framing.TYPE_SIZE_REQUEST, framing.TYPE_APPEND_REQUEST) \
            and frame[13:15] != bytes(2):  # a non-empty name: spoil its first byte
        yield frame[:15] + b"\xff" + frame[16:]


def _outcome(decoder, frame):
    try:
        return decoder(frame)
    except FrameError:
        return FrameError


def test_decode_matches_reference_decoder_on_valid_and_mangled_frames():
    rng = random.Random(6)
    outcomes = {"message": 0, "error": 0}
    for _ in range(1000):
        frame = encode(_random_message(rng))
        for variant in _mangled(frame, rng):
            expected = _outcome(oracles.reference_decode, variant)
            assert _outcome(decode, variant) == expected, variant
            outcomes["error" if expected is FrameError else "message"] += 1
    assert min(outcomes.values()) >= 1000
