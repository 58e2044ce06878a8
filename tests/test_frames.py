import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinksim.frames import (
    MAX_ADDRESS_COUNT,
    MAX_FRAME_BYTES,
    BadChecksum,
    BadMagic,
    BadPreambleType,
    DataPayload,
    Frame,
    FrameError,
    FrameKind,
    ListOverflow,
    PayloadTooLarge,
    PreambleKind,
    RemainingOverflow,
    Truncated,
    ack_frame,
    crc16,
    data_frame,
    decode_data_payload,
    decode_frame,
    encode_data_payload,
    encode_frame,
    micro_frame,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def crc16_reference(data: bytes) -> int:
    """Bit-by-bit CRC-16/CCITT-FALSE, independent of the table-driven codec."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def load_golden(name: str) -> bytes:
    return bytes.fromhex((GOLDEN_DIR / f"{name}.hex").read_text().strip())


@given(st.binary(max_size=64))
def test_crc_matches_bitwise_reference(data):
    assert crc16(data) == crc16_reference(data)


def test_golden_micro_frame_drp():
    golden = load_golden("microframe_drp")
    assert encode_frame(micro_frame(PreambleKind.DRP, 5, 0x0003, 0x07)) == golden
    assert golden[:8] == bytes([0x62, 0x22, 0x05, 0xFF, 0xFF, 0x00, 0x03, 0x07])
    frame = decode_frame(golden)
    assert frame.kind is FrameKind.MICRO_FRAME
    assert frame.preamble_kind() is PreambleKind.DRP
    assert frame.remaining() == 5
    assert frame.src == 3
    assert frame.dest == 0xFFFF


def test_golden_ack():
    golden = load_golden("ack")
    assert len(golden) == 9
    assert encode_frame(ack_frame(0x0001)) == golden
    assert golden[:7] == bytes([0x42, 0x22, 0x00, 0xFF, 0xFF, 0x00, 0x01])


@pytest.mark.parametrize(
    "name,builder",
    [
        ("data_trace", lambda: data_frame(0, DataPayload([0, 7], [7, 8]))),
        ("data_min", lambda: data_frame(0, DataPayload([], []))),
        ("microframe_brp", lambda: micro_frame(PreambleKind.BRP, 63, 0x00FF, 0x2A)),
        ("microframe_rrp", lambda: micro_frame(PreambleKind.RRP, 0, 0x0010, 0x00)),
    ],
)
def test_golden_vectors_round_trip(name, builder):
    golden = load_golden(name)
    frame = builder()
    assert encode_frame(frame) == golden
    assert decode_frame(golden) == frame


def test_encoded_sizes():
    assert len(encode_frame(micro_frame(PreambleKind.DRP, 0, 1, 0))) == 10
    assert len(encode_frame(ack_frame(1))) == 9
    payload = DataPayload([1, 2, 3], [4])
    encoded = encode_frame(data_frame(1, payload))
    assert len(encoded) == 9 + len(encode_data_payload(payload))


frames_strategy = st.one_of(
    st.builds(
        micro_frame,
        st.sampled_from(list(PreambleKind)),
        st.integers(0, 63),
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFF),
    ),
    st.builds(ack_frame, st.integers(0, 0xFFFF), st.integers(0, 0xFF)),
    st.builds(
        data_frame,
        st.integers(0, 0xFFFF),
        st.builds(
            DataPayload,
            st.lists(st.integers(0, 255), max_size=50, unique=True),
            st.lists(st.integers(0, 255), max_size=50),
        ),
    ),
)


@given(frames_strategy)
def test_round_trip_identity(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(frames_strategy, st.randoms())
def test_single_byte_corruption_is_detected(frame, rnd):
    encoded = bytearray(encode_frame(frame))
    pos = rnd.randrange(len(encoded))
    old = encoded[pos]
    encoded[pos] = rnd.choice([b for b in range(256) if b != old])
    with pytest.raises(FrameError):
        decode_frame(bytes(encoded))


def test_data_payload_layout_example():
    assert encode_data_payload(DataPayload([0, 7], [7, 8])) == bytes(
        [0x02, 0x00, 0x07, 0x02, 0x07, 0x08]
    )
    assert encode_data_payload(DataPayload([], [])) == bytes([0x00, 0x00])


@given(
    st.lists(st.integers(0, 255), max_size=60, unique=True),
    st.lists(st.integers(0, 255), max_size=58),
)
def test_data_payload_round_trip(traversed, neighbors):
    payload = DataPayload(traversed, neighbors)
    assert decode_data_payload(encode_data_payload(payload)) == payload


def test_address_list_bound():
    # 118 addresses total is the last legal count ("less than 119")
    encode_data_payload(DataPayload(list(range(118)), []))
    with pytest.raises(ListOverflow):
        encode_data_payload(DataPayload(list(range(118)), [200]))


def test_frame_byte_budget():
    # 9 byte frame overhead + 2 length bytes + 117 ids = 128 bytes exactly
    encoded = encode_frame(data_frame(1, DataPayload(list(range(117)), [])))
    assert len(encoded) == MAX_FRAME_BYTES
    with pytest.raises(PayloadTooLarge):
        encode_frame(data_frame(1, DataPayload(list(range(118)), [])))


@pytest.mark.parametrize(
    "payload, message",
    [
        (DataPayload([70000], []), "traversed id 70000"),
        (DataPayload([1, -1], []), "traversed id -1"),
        (DataPayload([], [3, 256]), "neighbor id 256"),
    ],
)
def test_data_payload_rejects_ids_beyond_one_byte(payload, message):
    with pytest.raises(FrameError, match=message):
        encode_data_payload(payload)


@pytest.mark.parametrize("payload_byte", [-1, 0x100, 0x10000])
def test_micro_frame_rejects_a_payload_beyond_one_byte(payload_byte):
    with pytest.raises(FrameError, match=f"payload byte {payload_byte} "):
        micro_frame(PreambleKind.DRP, 0, 1, payload_byte)


@pytest.mark.parametrize(
    "frame, message",
    [
        # once encoded as its low byte: decoded, the seq read 44
        (ack_frame(1, 300), "seq 300 does not fit one byte"),
        (ack_frame(1, -1), "seq -1 does not fit one byte"),
        # once a bare OverflowError
        (ack_frame(0x10000), "src 65536 does not fit two bytes"),
        (ack_frame(-1), "src -1 does not fit two bytes"),
        (Frame(FrameKind.ACK, dest=0x10000), "dest 65536 does not fit two bytes"),
        (Frame(FrameKind.ACK, dest=-1), "dest -1 does not fit two bytes"),
    ],
)
def test_header_fields_beyond_their_bytes_are_rejected(frame, message):
    with pytest.raises(FrameError, match=message):
        encode_frame(frame)


def test_remaining_overflow():
    with pytest.raises(RemainingOverflow):
        micro_frame(PreambleKind.DRP, 64, 1, 0)


def test_decode_bad_magic():
    with pytest.raises(BadMagic):
        decode_frame(bytes([0x12, 0x34] + [0] * 7))


def test_decode_bad_checksum():
    encoded = bytearray(encode_frame(ack_frame(7)))
    encoded[-1] ^= 0xFF
    with pytest.raises(BadChecksum):
        decode_frame(bytes(encoded))


def test_decode_truncated():
    with pytest.raises(Truncated):
        decode_frame(encode_frame(ack_frame(7))[:5])


def test_decode_reserved_preamble_code():
    body = bytes([0x62, 0x22, 0xC0, 0xFF, 0xFF, 0x00, 0x01, 0x00])
    wire = body + crc16_reference(body).to_bytes(2, "big")
    with pytest.raises(BadPreambleType):
        decode_frame(wire)


def test_micro_frame_payload_is_one_byte():
    frame = Frame(FrameKind.MICRO_FRAME, seq=0, src=1, payload=b"")
    with pytest.raises(PayloadTooLarge):
        encode_frame(frame)


def test_default_destination_is_broadcast():
    assert micro_frame(PreambleKind.DRP, 1, 2, 0).dest == 0xFFFF
    assert ack_frame(2).dest == 0xFFFF
    assert data_frame(2, DataPayload([], [])).dest == 0xFFFF


def test_randomized_corruption_batch():
    # the 16-bit check sequence must catch better than 1 - 2**-16 of these
    rnd = random.Random(2024)
    trials = 4000
    undetected = 0
    for _ in range(trials):
        frame = micro_frame(
            PreambleKind(rnd.randrange(3)), rnd.randrange(64), rnd.randrange(65536), rnd.randrange(256)
        )
        encoded = bytearray(encode_frame(frame))
        pos = rnd.randrange(len(encoded))
        encoded[pos] ^= rnd.randrange(1, 256)
        try:
            if decode_frame(bytes(encoded)) != frame:
                continue
            undetected += 1
        except FrameError:
            continue
    assert undetected / trials <= 2**-16
