"""Binary frame encoding for every server/client exchange.

Layout (all integers little-endian):

    frame_type  u8      1=MASKS 2=UPLOAD 3=GLOBALS
    round       u32
    n_records   u32
    records     n_records x [class_id u32][count u32][count x f64]
    crc32       u32     over every preceding byte

In memory a frame is one block: a ``(n,)`` class-id vector and an ``(n, w)``
float64 matrix, so every record has the same count w, and one structured
dtype encodes or decodes the whole frame.  Mask records carry the d bits as
0.0/1.0 values; prototype records carry the payload vector.
decode(encode(frame)) is bit-exact (a frame without records decodes to
width 0), and decoding rejects truncation, trailing bytes, unknown frame
types, checksum mismatches, and records that differ in width.  Parameter
counts for traffic accounting are simply ``values.size``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "FrameError",
    "FrameType",
    "Frame",
    "encode_frame",
    "decode_frame",
    "frame_param_count",
]

_HEADER = struct.Struct("<BII")
_RECORD_HEADER = struct.Struct("<II")
_CRC = struct.Struct("<I")
_U32_MAX = 0xFFFFFFFF


class FrameError(ValueError):
    """Malformed frame bytes or an unencodable frame."""


class FrameType(IntEnum):
    MASKS = 1
    UPLOAD = 2
    GLOBALS = 3


@dataclass(frozen=True)
class Frame:
    """One frame: ``values[i]`` is the record of class ``class_ids[i]``."""

    frame_type: FrameType
    round: int
    class_ids: np.ndarray
    values: np.ndarray


def _record_dtype(width: int) -> np.dtype:
    return np.dtype([("cid", "<u4"), ("cnt", "<u4"), ("v", "<f8", (width,))])


def encode_frame(frame: Frame) -> bytes:
    if frame.round < 0 or frame.round > _U32_MAX:
        raise FrameError(f"round {frame.round} does not fit u32")
    values = np.asarray(frame.values, dtype=np.float64)
    if values.ndim != 2:
        raise FrameError(f"values must be an (n, w) array, got shape {values.shape}")
    n, width = values.shape
    if width > _U32_MAX:
        raise FrameError("record too long for u32 count")
    ids = np.asarray(frame.class_ids)
    if ids.shape != (n,) or ids.dtype.kind not in "iu":
        raise FrameError(f"need {n} integer class ids, got {ids.dtype} of shape {ids.shape}")
    if n and (ids.min() < 0 or ids.max() > _U32_MAX):
        raise FrameError("class id does not fit u32")
    records = np.empty(n, dtype=_record_dtype(width))
    records["cid"] = ids
    records["cnt"] = width
    records["v"] = values
    header = _HEADER.pack(int(frame.frame_type), frame.round, n)
    crc = zlib.crc32(records, zlib.crc32(header))
    return b"".join((header, records, _CRC.pack(crc)))


def decode_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size + _CRC.size:
        raise FrameError("frame truncated: shorter than header plus checksum")
    # a view: slicing the bytes would copy the whole frame
    body, (crc,) = memoryview(data)[: -_CRC.size], _CRC.unpack(data[-_CRC.size :])
    if zlib.crc32(body) != crc:
        raise FrameError("crc mismatch")
    raw_type, round_no, n_records = _HEADER.unpack_from(body, 0)
    try:
        frame_type = FrameType(raw_type)
    except ValueError:
        raise FrameError(f"unknown frame type {raw_type}") from None
    width = 0
    if n_records:
        if len(body) < _HEADER.size + _RECORD_HEADER.size:
            raise FrameError("frame truncated inside a record header")
        _, width = _RECORD_HEADER.unpack_from(body, _HEADER.size)
    dtype = _record_dtype(width)
    have, need = len(body) - _HEADER.size, n_records * dtype.itemsize
    if have < need:
        raise FrameError(
            f"frame truncated: {n_records} records of width {width} need {need} bytes, "
            f"got {have}"
        )
    if have > need:
        raise FrameError(
            f"{have - need} unexpected trailing bytes after {n_records} records "
            f"of width {width}"
        )
    records = np.frombuffer(body, dtype=dtype, count=n_records, offset=_HEADER.size)
    if np.any(records["cnt"] != width):
        raise FrameError(f"records differ in width: the first has {width} values")
    class_ids = records["cid"].astype(np.int64)  # signed, so differences cannot wrap
    return Frame(frame_type, round_no, class_ids, records["v"].copy())


def frame_param_count(frame: Frame) -> int:
    """Number of transmitted values, the unit of all traffic accounting."""
    return frame.values.size
