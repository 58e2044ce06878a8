"""Bit-exact encoder/decoder for the three MAC-level packet families.

Layout (all frames): magic(2) | seq(1) | dest(2) | src(2) | payload | fcs(2).
Micro-frames carry exactly one payload byte, ACK frames none, DATA frames a
variable payload.  Multi-byte fields are serialized most significant byte
first, matching the printed hex literals (0x6222 -> 0x62 0x22).

The check sequence is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over all
preceding bytes.  The radio hardware is 802.15.4-class and the on-air check
field is not otherwise pinned down, so this choice is frozen by golden byte
vectors in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import List

MAX_FRAME_BYTES = 128      # transmission queue limit, caps encoded DATA size
MAX_ADDRESS_COUNT = 118    # traversed + neighbors must total less than 119
BROADCAST_ADDR = 0xFFFF    # hardware legacy: destination is always broadcast

_HEADER_BYTES = 7          # magic + seq + dest + src
_FCS_BYTES = 2


class FrameError(ValueError):
    """Base class for encode/decode failures."""


class RemainingOverflow(FrameError):
    """Micro-frame countdown does not fit the 6-bit field."""


class PayloadTooLarge(FrameError):
    """Encoded frame would exceed the 128-byte queue limit."""


class ListOverflow(FrameError):
    """Traversed + neighbor addresses reach the 119 bound."""


class BadMagic(FrameError):
    pass


class BadChecksum(FrameError):
    pass


class Truncated(FrameError):
    pass


class BadPreambleType(FrameError):
    """Micro-frame seq top bits are the reserved 11 pattern."""


class FrameKind(Enum):
    MICRO_FRAME = "micro-frame"
    ACK = "ack"
    DATA = "data"


class PreambleKind(IntEnum):
    """2-bit preamble type code carried in a micro-frame seq field."""

    DRP = 0
    BRP = 1
    RRP = 2


MAGIC = {
    FrameKind.MICRO_FRAME: 0x6222,
    FrameKind.ACK: 0x4222,
    FrameKind.DATA: 0x2222,
}
_KIND_BY_MAGIC = {v: k for k, v in MAGIC.items()}


@dataclass
class Frame:
    kind: FrameKind
    seq: int = 0
    src: int = 0
    dest: int = BROADCAST_ADDR
    payload: bytes = b""

    def preamble_kind(self) -> PreambleKind:
        code = (self.seq >> 6) & 0x3
        if code == 0x3:
            raise BadPreambleType("seq top bits 11 are reserved")
        return PreambleKind(code)

    def remaining(self) -> int:
        """Remaining micro-frame countdown (low 6 bits of seq)."""
        return self.seq & 0x3F


@dataclass
class DataPayload:
    """Payload of a DATA frame: routing trace plus the source's neighbors."""

    traversed: List[int] = field(default_factory=list)
    neighbors: List[int] = field(default_factory=list)


def micro_frame(preamble: PreambleKind, remaining: int, src: int, payload_byte: int = 0) -> Frame:
    """Build a micro-frame; `remaining` is the countdown to the preamble end.

    The simulators track countdowns as unbounded integers; only frames put on
    the (modeled) air are bounded by the 6-bit field.
    """
    if not 0 <= remaining <= 0x3F:
        raise RemainingOverflow(f"remaining count {remaining} does not fit 6 bits")
    if not 0 <= payload_byte <= 0xFF:
        raise FrameError(f"payload byte {payload_byte} does not fit one byte")
    seq = (int(preamble) << 6) | remaining
    return Frame(FrameKind.MICRO_FRAME, seq=seq, src=src, payload=bytes([payload_byte]))


def ack_frame(src: int, seq: int = 0) -> Frame:
    return Frame(FrameKind.ACK, seq=seq, src=src)


def data_frame(src: int, payload: DataPayload, seq: int = 0) -> Frame:
    return Frame(FrameKind.DATA, seq=seq, src=src, payload=encode_data_payload(payload))


_CRC_TABLE = []
for _byte in range(256):
    _crc = _byte << 8
    for _ in range(8):
        _crc = ((_crc << 1) ^ 0x1021) & 0xFFFF if _crc & 0x8000 else (_crc << 1) & 0xFFFF
    _CRC_TABLE.append(_crc)


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over `data`."""
    crc = 0xFFFF
    for b in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[((crc >> 8) ^ b) & 0xFF]
    return crc


def encode_frame(f: Frame) -> bytes:
    """Serialize a frame, appending the check sequence.

    A header field that does not fit its bytes is an error, not its low bytes.
    """
    if not 0 <= f.seq <= 0xFF:
        raise FrameError(f"seq {f.seq} does not fit one byte")
    for name, value in (("dest", f.dest), ("src", f.src)):
        if not 0 <= value <= 0xFFFF:
            raise FrameError(f"{name} {value} does not fit two bytes")
    if f.kind is FrameKind.MICRO_FRAME:
        if len(f.payload) != 1:
            raise PayloadTooLarge("micro-frame payload is exactly one byte")
        f.preamble_kind()  # rejects the reserved 11 code
    elif f.kind is FrameKind.ACK:
        if f.payload:
            raise PayloadTooLarge("ACK frames carry no payload")
    body = bytearray()
    body += MAGIC[f.kind].to_bytes(2, "big")
    body.append(f.seq)
    body += f.dest.to_bytes(2, "big")
    body += f.src.to_bytes(2, "big")
    body += f.payload
    encoded = bytes(body) + crc16(bytes(body)).to_bytes(2, "big")
    if len(encoded) > MAX_FRAME_BYTES:
        raise PayloadTooLarge(f"encoded frame is {len(encoded)} bytes, limit {MAX_FRAME_BYTES}")
    return encoded


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame`; verifies magic, length and fcs."""
    if len(data) < _HEADER_BYTES + _FCS_BYTES:
        raise Truncated(f"frame is {len(data)} bytes, minimum 9")
    if len(data) > MAX_FRAME_BYTES:
        raise PayloadTooLarge(f"frame is {len(data)} bytes, limit {MAX_FRAME_BYTES}")
    magic = int.from_bytes(data[0:2], "big")
    kind = _KIND_BY_MAGIC.get(magic)
    if kind is None:
        raise BadMagic(f"unknown magic 0x{magic:04x}")
    payload = data[_HEADER_BYTES:-_FCS_BYTES]
    if kind is FrameKind.MICRO_FRAME and len(payload) != 1:
        raise Truncated("micro-frame must be exactly 10 bytes")
    if kind is FrameKind.ACK and payload:
        raise Truncated("ACK must be exactly 9 bytes")
    fcs = int.from_bytes(data[-_FCS_BYTES:], "big")
    if crc16(data[:-_FCS_BYTES]) != fcs:
        raise BadChecksum(f"fcs mismatch (got 0x{fcs:04x})")
    frame = Frame(
        kind,
        seq=data[2],
        dest=int.from_bytes(data[3:5], "big"),
        src=int.from_bytes(data[5:7], "big"),
        payload=bytes(payload),
    )
    if kind is FrameKind.MICRO_FRAME:
        frame.preamble_kind()  # raises BadPreambleType on the 11 code
    return frame


def encode_data_payload(p: DataPayload) -> bytes:
    """length(1) | traversed ids | length(1) | neighbor ids, one byte each."""
    if len(p.traversed) + len(p.neighbors) > MAX_ADDRESS_COUNT:
        raise ListOverflow(
            f"{len(p.traversed)} traversed + {len(p.neighbors)} neighbors "
            f"reaches the 119-address bound"
        )
    out = bytearray([len(p.traversed)])
    out += _id_bytes(p.traversed, "traversed")
    out.append(len(p.neighbors))
    out += _id_bytes(p.neighbors, "neighbor")
    return bytes(out)


def _id_bytes(ids: List[int], name: str) -> bytes:
    """One byte per id; an id outside 0..255 is an error, not its low byte."""
    try:
        return bytes(ids)
    except ValueError:
        bad = next(nid for nid in ids if not 0 <= nid <= 0xFF)
        raise FrameError(f"{name} id {bad} does not fit one byte") from None


def decode_data_payload(data: bytes) -> DataPayload:
    if len(data) < 2:
        raise Truncated("data payload needs two length bytes")
    n_trav = data[0]
    if len(data) < 1 + n_trav + 1:
        raise Truncated("traversed list runs past the payload")
    traversed = list(data[1 : 1 + n_trav])
    n_nbr = data[1 + n_trav]
    expected = 2 + n_trav + n_nbr
    if len(data) != expected:
        raise Truncated(f"payload is {len(data)} bytes, lengths say {expected}")
    neighbors = list(data[2 + n_trav :])
    if n_trav + n_nbr > MAX_ADDRESS_COUNT:
        raise ListOverflow("address lists reach the 119 bound")
    return DataPayload(traversed, neighbors)
