"""Frame codec: bit-exact round-trips, the per-record byte layout, and
corruption rejection."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyproto.wire import (
    Frame,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
    frame_param_count,
)


def _reference_encode(frame_type, round_no, class_ids, rows) -> bytes:
    """One struct pack per record: the layout the block codec must reproduce.

    ``rows`` may differ in length, which no block frame can express.
    """
    parts = [struct.pack("<BII", int(frame_type), round_no, len(class_ids))]
    for cid, row in zip(class_ids, rows):
        row = np.asarray(row, dtype=np.float64)
        parts.append(struct.pack("<II", int(cid), row.shape[0]))
        parts.append(row.astype("<f8").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _assert_frames_equal(a: Frame, b: Frame):
    assert a.frame_type == b.frame_type
    assert a.round == b.round
    np.testing.assert_array_equal(a.class_ids, b.class_ids)
    if len(b.class_ids):
        np.testing.assert_array_equal(a.values, b.values, strict=True)
    else:  # no record carries the width of an empty frame
        assert a.values.size == b.values.size == 0


def _assert_codec_matches_reference(frame: Frame):
    data = encode_frame(frame)
    reference = _reference_encode(frame.frame_type, frame.round, frame.class_ids, frame.values)
    assert data == reference
    _assert_frames_equal(decode_frame(reference), frame)


class TestRoundTrip:
    def test_empty_globals_frame(self):
        frame = Frame(FrameType.GLOBALS, 3, np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
        _assert_frames_equal(decode_frame(encode_frame(frame)), frame)

    def test_single_record(self):
        frame = Frame(FrameType.UPLOAD, 1, np.array([7]), np.array([[4.0, 6.0]]))
        _assert_frames_equal(decode_frame(encode_frame(frame)), frame)

    def test_random_frames_1000(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            n_records = int(rng.integers(0, 6))
            width = int(rng.integers(0, 9))
            frame = Frame(
                FrameType(int(rng.integers(1, 4))),
                int(rng.integers(0, 10000)),
                rng.integers(0, 1000, size=n_records),
                rng.normal(size=(n_records, width)),
            )
            _assert_frames_equal(decode_frame(encode_frame(frame)), frame)
            _assert_codec_matches_reference(frame)

    @given(
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.integers(0, 6).flatmap(
            lambda width: st.lists(
                st.tuples(
                    st.integers(0, 2**32 - 1),
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False),
                        min_size=width,
                        max_size=width,
                    ),
                ),
                max_size=4,
            ).map(lambda records: (width, records))
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, ftype, round_no, drawn):
        width, raw_records = drawn
        ids = np.array([cid for cid, _ in raw_records], dtype=np.int64)
        values = np.array([vals for _, vals in raw_records], dtype=np.float64)
        frame = Frame(FrameType(ftype), round_no, ids, values.reshape(len(ids), width))
        _assert_frames_equal(decode_frame(encode_frame(frame)), frame)
        _assert_codec_matches_reference(frame)


class TestRejection:
    def _sample(self):
        return encode_frame(
            Frame(FrameType.GLOBALS, 2, np.array([0]), np.array([[1.0, 2.0, 3.0]]))
        )

    def test_corrupt_crc(self):
        data = bytearray(self._sample())
        data[-1] ^= 0xFF
        with pytest.raises(FrameError, match="crc"):
            decode_frame(bytes(data))

    def test_corrupt_body(self):
        data = bytearray(self._sample())
        data[10] ^= 0x01
        with pytest.raises(FrameError, match="crc"):
            decode_frame(bytes(data))

    def test_truncation(self):
        data = self._sample()
        for cut in (0, 5, len(data) - 9):
            with pytest.raises(FrameError):
                decode_frame(data[:cut])

    def test_unknown_frame_type(self):
        body = struct.pack("<BII", 9, 0, 0)
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(data)

    def test_trailing_garbage(self):
        body = struct.pack("<BII", 1, 0, 0) + b"\x00" * 3
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(data)

    @pytest.mark.parametrize(
        "widths", [(2, 1, 3), (1, 3), (3, 1), (2, 2, 0)], ids=["same-length", "long", "short", "zero"]
    )
    def test_mixed_widths_rejected(self, widths):
        # (2, 1, 3) fills exactly the bytes of three width-2 records, so only
        # the per-record counts can tell it apart
        rows = [np.arange(w, dtype=np.float64) for w in widths]
        data = _reference_encode(FrameType.UPLOAD, 1, range(len(rows)), rows)
        with pytest.raises(FrameError, match="width"):
            decode_frame(data)

    def test_encode_rejects_values_not_2d(self):
        for values in (np.zeros(3), np.zeros((1, 2, 3)), np.float64(1.0)):
            with pytest.raises(FrameError, match="shape"):
                encode_frame(Frame(FrameType.UPLOAD, 0, np.arange(3), values))

    def test_encode_rejects_id_count_mismatch(self):
        for ids in (np.arange(2), np.arange(4), np.arange(6).reshape(3, 2)):
            with pytest.raises(FrameError, match="class ids"):
                encode_frame(Frame(FrameType.UPLOAD, 0, ids, np.zeros((3, 2))))

    def test_encode_rejects_ids_outside_u32(self):
        for bad in (-1, 2**32):
            ids = np.array([0, bad], dtype=np.int64)
            with pytest.raises(FrameError, match="u32"):
                encode_frame(Frame(FrameType.UPLOAD, 0, ids, np.zeros((2, 1))))


class TestParamCount:
    def test_counts_values_across_records(self):
        frame = Frame(FrameType.UPLOAD, 0, np.array([0, 1, 2]), np.zeros((3, 5)))
        assert frame_param_count(frame) == 15
        empty = Frame(FrameType.UPLOAD, 0, np.array([0, 1, 2]), np.zeros((3, 0)))
        assert frame_param_count(empty) == 0
