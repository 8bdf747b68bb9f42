#!/usr/bin/env python3
"""Poke at the binary frame format used for every exchange.

Frames carry length-prefixed per-class records (u32 class id, u32 count,
count float64 values) behind a 9-byte header, with a crc32 trailer.  In
memory a frame is one block: a class-id vector plus one value row per class,
so every record of a frame has the same width.  The simulator encodes and
decodes real bytes on every exchange, so its traffic numbers are
measurements, not estimates.
"""
import numpy as np

from tinyproto import Frame, FrameError, FrameType, decode_frame, encode_frame, frame_param_count

frame = Frame(
    frame_type=FrameType.UPLOAD,
    round=3,
    class_ids=np.array([0, 2]),
    values=np.array([[4.0, 6.0], [1.5, -0.5]]),
)
data = encode_frame(frame)
print(f"encoded {frame_param_count(frame)} values into {len(data)} bytes:")
print(" ", data.hex(" "))

back = decode_frame(data)
print("decoded:", back.frame_type.name, "round", back.round)
for cls, row in zip(back.class_ids, back.values):
    print(f"  class {cls}: {row}")

# flip one payload byte: the crc catches it
corrupt = bytearray(data)
corrupt[12] ^= 0x01
try:
    decode_frame(bytes(corrupt))
except FrameError as exc:
    print("corrupted frame rejected:", exc)

# chop the tail off: length checks catch it
try:
    decode_frame(data[: len(data) // 2])
except FrameError as exc:
    print("truncated frame rejected:", exc)

# values must be an (n, w) block, one row per class id: a flat vector is refused
try:
    encode_frame(Frame(FrameType.UPLOAD, 3, np.array([0, 2]), np.array([4.0, 6.0])))
except FrameError as exc:
    print("frame without a 2-D value block rejected:", exc)
