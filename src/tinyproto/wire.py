"""Binary frame encoding for every server/client exchange.

A frame is one block, in memory and on the wire: a ``(n,)`` class-id vector
and an ``(n, w)`` float64 matrix whose row i is the record of class id i.
Layout (all integers little-endian):

    frame_type  u8      1=MASKS 2=UPLOAD 3=GLOBALS
    round       u32
    n           u32     number of records
    width       u32     values per record
    class_ids   n x u32
    values      n*w x f64, row-major
    crc32       u32     over every preceding byte

Mask records carry the d bits as 0.0/1.0 values; prototype records carry the
payload vector.  decode(encode(frame)) is bit-exact, a frame without records
included, and decoding rejects truncation, trailing bytes, unknown frame
types and checksum mismatches.  Encoding refuses what would not read back as
written: an unknown frame type, a round that is not an integer (a bool
included) or does not fit u32, and values that are not real numbers.
Parameter counts for traffic accounting are simply ``values.size``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .config import as_int

__all__ = [
    "FrameError",
    "FrameType",
    "Frame",
    "encode_frame",
    "decode_frame",
    "frame_param_count",
]

_HEADER = struct.Struct("<BIII")
_CRC = struct.Struct("<I")
_U32_MAX = 0xFFFFFFFF


class FrameError(ValueError):
    """Malformed frame bytes or an unencodable frame."""


class FrameType(IntEnum):
    MASKS = 1
    UPLOAD = 2
    GLOBALS = 3


@dataclass(frozen=True, eq=False)
class Frame:
    """One frame: ``values[i]`` is the record of class ``class_ids[i]``.

    Equality is identity, and the hash is the identity's.
    """

    frame_type: FrameType
    round: int
    class_ids: np.ndarray
    values: np.ndarray


def encode_frame(frame: Frame) -> bytes:
    """The frame's bytes; a frame that :func:`decode_frame` would refuse or
    read back differently is refused, as a :class:`FrameError` naming the
    field."""
    try:
        frame_type = FrameType(frame.frame_type)
    except ValueError:
        raise FrameError(f"unknown frame type {frame.frame_type!r}") from None
    try:
        round_no = as_int("round", frame.round)
    except ValueError as exc:
        raise FrameError(str(exc)) from None
    if round_no < 0 or round_no > _U32_MAX:
        raise FrameError(f"round {round_no} does not fit u32")
    values = np.asarray(frame.values)
    # complex parts, strings and objects have no f64 record, or only a lossy one
    if values.dtype.kind not in "biuf":
        raise FrameError(f"values must be real numbers, got {values.dtype}")
    if values.ndim != 2:
        raise FrameError(f"values must be an (n, w) array, got shape {values.shape}")
    n, width = values.shape
    if width > _U32_MAX:
        raise FrameError(f"width {width} does not fit u32")
    ids = np.asarray(frame.class_ids)
    if ids.shape != (n,) or ids.dtype.kind not in "iu":
        raise FrameError(f"need {n} integer class ids, got {ids.dtype} of shape {ids.shape}")
    if n and (ids.min() < 0 or ids.max() > _U32_MAX):
        raise FrameError("class id does not fit u32")
    parts = [
        _HEADER.pack(frame_type, round_no, n, width),
        ids.astype("<u4").tobytes(),
        values.astype("<f8", copy=False).tobytes(),
    ]
    # the CRC is taken part by part, so the joined frame is the one copy of the body
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, _CRC.pack(crc)])


def decode_frame(data: bytes) -> Frame:
    if len(data) < _HEADER.size + _CRC.size:
        raise FrameError("frame truncated: shorter than header plus checksum")
    # a view: slicing the bytes would copy the whole frame
    body, (crc,) = memoryview(data)[: -_CRC.size], _CRC.unpack(data[-_CRC.size :])
    if zlib.crc32(body) != crc:
        raise FrameError("crc mismatch")
    raw_type, round_no, n, width = _HEADER.unpack_from(body, 0)
    try:
        frame_type = FrameType(raw_type)
    except ValueError:
        raise FrameError(f"unknown frame type {raw_type}") from None
    have, need = len(body) - _HEADER.size, n * (4 + 8 * width)
    if have < need:
        raise FrameError(
            f"frame truncated: {n} records of width {width} need {need} bytes, got {have}"
        )
    if have > need:
        raise FrameError(
            f"{have - need} unexpected trailing bytes after {n} records of width {width}"
        )
    # signed ids, so differences cannot wrap; a copied, aligned value matrix
    class_ids = np.frombuffer(body, "<u4", n, _HEADER.size).astype(np.int64)
    values = np.frombuffer(body, "<f8", n * width, _HEADER.size + 4 * n).reshape(n, width)
    return Frame(frame_type, round_no, class_ids, values.copy())


def frame_param_count(frame: Frame) -> int:
    """Number of transmitted values, the unit of all traffic accounting."""
    return frame.values.size
