"""Frame codec: bit-exact round-trips, the block byte layout, and
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


def _reference_encode(frame_type, round_no, n, width, class_ids, values) -> bytes:
    """One struct pack per field: the layout the block codec must reproduce.

    ``n`` and ``width`` go into the header as given, so a test can make the
    header disagree with the ids and values that follow it.
    """
    parts = [
        struct.pack("<B", int(frame_type)),
        struct.pack("<I", round_no),
        struct.pack("<I", n),
        struct.pack("<I", width),
    ]
    parts += [struct.pack("<I", int(cid)) for cid in class_ids]
    parts += [struct.pack("<d", float(v)) for row in values for v in row]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def _assert_frames_equal(decoded: Frame, original: Frame):
    assert decoded.frame_type == original.frame_type
    assert decoded.round == original.round
    assert decoded.class_ids.dtype == np.int64
    np.testing.assert_array_equal(decoded.class_ids, original.class_ids)
    np.testing.assert_array_equal(decoded.values, original.values, strict=True)
    assert decoded.values.flags.writeable


def _assert_codec_matches_reference(frame: Frame):
    data = encode_frame(frame)
    reference = _reference_encode(
        frame.frame_type, frame.round, *frame.values.shape, frame.class_ids, frame.values
    )
    assert data == reference
    assert data[0] == frame.frame_type
    _assert_frames_equal(decode_frame(reference), frame)


class TestRoundTrip:
    def test_empty_globals_frame(self):
        # the header carries the width, so even an empty block keeps its shape
        frame = Frame(FrameType.GLOBALS, 3, np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
        _assert_frames_equal(decode_frame(encode_frame(frame)), frame)
        _assert_codec_matches_reference(frame)

    def test_single_record(self):
        frame = Frame(FrameType.UPLOAD, 1, np.array([7]), np.array([[4.0, 6.0]]))
        _assert_frames_equal(decode_frame(encode_frame(frame)), frame)
        _assert_codec_matches_reference(frame)

    def test_random_frames_1000(self):
        rng = np.random.default_rng(40)
        for i in range(1000):
            n_records = int(rng.integers(0, 6))
            width = int(rng.integers(0, 9))
            values = rng.normal(size=(n_records, width))
            if i % 3 == 1:
                values = np.asfortranarray(values)
            elif i % 3 == 2:  # every other column of a block twice as wide
                values = np.repeat(values, 2, axis=1)[:, ::2]
            id_type = (np.int64, np.int32, np.uint32)[i // 3 % 3]
            frame = Frame(
                FrameType(int(rng.integers(1, 4))),
                int(rng.integers(0, 10000)),
                rng.integers(0, 1000, size=n_records).astype(id_type),
                values,
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
        data = _reference_encode(9, 0, 0, 0, [], [])
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_frame(data)

    def test_trailing_garbage(self):
        body = struct.pack("<BIII", 1, 0, 0, 0) + b"\x00" * 3
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FrameError, match="trailing"):
            decode_frame(data)

    @pytest.mark.parametrize(
        "n, width, match",
        [(3, 2, "truncated"), (2, 3, "truncated"), (1, 2, "trailing"), (2, 1, "trailing")],
        ids=["n-long", "width-long", "n-short", "width-short"],
    )
    def test_header_disagrees_with_body(self, n, width, match):
        # the body holds 2 ids and a (2, 2) block; the crc covers the bad header
        data = _reference_encode(FrameType.UPLOAD, 1, n, width, [0, 1], np.ones((2, 2)))
        with pytest.raises(FrameError, match=match):
            decode_frame(data)

    def test_encode_rejects_round_outside_u32(self):
        for bad in (-1, 2**32):
            with pytest.raises(FrameError, match="u32"):
                encode_frame(Frame(FrameType.UPLOAD, bad, np.arange(1), np.zeros((1, 1))))

    def test_encode_rejects_width_outside_u32(self):
        values = np.empty((0, 2**32))  # no rows, so nothing is allocated
        with pytest.raises(FrameError, match=f"^width {2**32} does not fit u32$"):
            encode_frame(Frame(FrameType.UPLOAD, 0, np.arange(0), values))

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
