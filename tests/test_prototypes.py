"""Sparsify / compress / reconstruct operator algebra and dead-unit stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyproto.masking import MaskSet
from tinyproto.prototypes import (
    compress,
    dead_unit_fraction,
    reconstruct,
    sparsify,
)


def _random_case(rng, max_dim=64):
    dim = int(rng.integers(1, max_dim + 1))
    ones = int(rng.integers(0, dim + 1))
    bits = np.zeros(dim, dtype=np.uint8)
    bits[rng.choice(dim, size=ones, replace=False)] = 1
    return rng.normal(size=dim), bits


class TestSparsify:
    def test_hadamard_example(self):
        out = sparsify([3.0, -1.0, 2.0], [1, 0, 1])
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [3.0, 0.0, 2.0])

    def test_all_ones_mask_is_identity(self):
        values = np.array([0.5, -2.0, 7.0])
        out = sparsify(values, [1, 1, 1])
        np.testing.assert_array_equal(out, values)

    def test_single_leading_bit_zeroes_the_rest(self):
        out = sparsify([1.0, 2.0, 3.0, 4.0, 5.0], [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_class_mismatch_rejected(self):
        # a block needs one mask row per class row
        with pytest.raises(ValueError, match="class"):
            sparsify(np.ones((1, 1)), np.ones((2, 1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sparsify([1.0, 2.0], [1])


class TestCompress:
    def test_basic_example(self):
        out = compress([3.0, -1.0, 2.0], [1, 0, 1])
        np.testing.assert_array_equal(out, [3.0, 2.0])

    def test_all_ones_mask_keeps_everything(self):
        out = compress([1.0, 2.0, 3.0], [1, 1, 1])
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_interior_bits_in_ascending_order(self):
        out = compress([7.0, 8.0, 9.0, 10.0], [0, 1, 1, 0])
        np.testing.assert_array_equal(out, [8.0, 9.0])


class TestReconstruct:
    def test_inverse_of_compress_example(self):
        out = reconstruct([3.0, 2.0], [1, 0, 1])
        np.testing.assert_array_equal(out, [3.0, 0.0, 2.0])

    def test_empty_mask_gives_zero_vector(self):
        out = reconstruct([], [0, 0, 0])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            reconstruct([1.0], [1, 1, 0])

    def test_roundtrip_equals_sparsify_1000_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            values, bits = _random_case(rng)
            via_wire = reconstruct(compress(values, bits), bits)
            direct = sparsify(values, bits)
            np.testing.assert_array_equal(via_wire, direct)


def _reference_compress(block, bits):
    """Per-row loop: each row's masked entries in ascending index order."""
    return [[v for v, b in zip(row, brow) if b == 1] for row, brow in zip(block, bits)]


def _reference_reconstruct(comp, bits):
    """Per-row loop: the i-th payload value goes to the i-th set bit."""
    full = np.zeros(bits.shape)
    for out, row, brow in zip(full, comp, bits):
        positions = [j for j, b in enumerate(brow) if b == 1]
        for value, j in zip(row, positions):
            out[j] = value
    return full


def _random_block(rng, n, d, s, overlap):
    """``n`` rows with ``s`` set bits each, disjoint blocks unless ``overlap``."""
    bits = np.zeros((n, d), dtype=np.uint8)
    for i in range(n):
        if overlap:
            bits[i, rng.choice(d, size=s, replace=False)] = 1
        else:
            bits[i, (i * s) % d : (i * s) % d + s] = 1
    return rng.normal(size=(n, d)), bits


class TestBlocks:
    """An (n, d) block with one mask row per row equals a per-row loop."""

    @pytest.mark.parametrize(
        "n, d, s, overlap",
        [(5, 12, 3, True), (4, 12, 3, False), (30, 8, 5, True), (3, 6, 6, True),
         (1, 9, 2, True), (0, 7, 3, True)],
        ids=["overlapping", "disjoint", "crowded", "s-equals-d", "one-row", "empty"],
    )
    def test_block_operators_match_per_row_loop(self, n, d, s, overlap):
        rng = np.random.default_rng(16)
        for _ in range(20):
            block, bits = _random_block(rng, n, d, s, overlap)
            comp = compress(block, bits)
            assert comp.shape == (n, s if n else 0)
            np.testing.assert_array_equal(comp, np.reshape(_reference_compress(block, bits), comp.shape))
            np.testing.assert_array_equal(
                reconstruct(comp, bits), _reference_reconstruct(comp, bits)
            )
            np.testing.assert_array_equal(sparsify(block, bits), np.where(bits == 1, block, 0.0))
            np.testing.assert_array_equal(reconstruct(comp, bits), sparsify(block, bits))

    def test_uneven_rows_rejected(self):
        bits = np.array([[1, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="length mismatch in row 1: mask selects 1 entries, row 0 selects 2"):
            compress(np.ones((2, 3)), bits)

    def test_reconstruct_length_mismatch_names_the_row(self):
        bits = np.array([[1, 1, 0], [0, 1, 1]])
        with pytest.raises(ValueError, match="length mismatch in row 0: mask selects 2 entries, payload has 3"):
            reconstruct(np.ones((2, 3)), bits)

    @pytest.mark.parametrize("op", [sparsify, compress, reconstruct])
    def test_row_against_block_rejected(self, op):
        with pytest.raises(ValueError, match="expected a row"):
            op(np.ones(3), np.ones((1, 3)))

    def test_dead_unit_fraction_per_row(self):
        block = np.array([[0.0, 0.5, 0.0, 1.2], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(dead_unit_fraction(block), [0.5, 1.0, 0.0])


class TestOperatorProperties:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fixed_support(self, data):
        dim = data.draw(st.integers(1, 32))
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)), dtype=np.uint8)
        vals = np.array(
            data.draw(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False), min_size=dim, max_size=dim
                )
            )
        )
        out = sparsify(vals, bits)
        assert np.all(out[bits == 0] == 0)

    def test_non_expansive(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, bits = _random_case(rng, max_dim=32)
            b = rng.normal(size=len(a))
            lhs = np.linalg.norm(sparsify(a, bits) - sparsify(b, bits))
            rhs = np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-12

    def test_linearity_with_fixed_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            dim = int(rng.integers(1, 33))
            bits = (rng.random(dim) < 0.5).astype(np.uint8)
            weights = rng.normal(size=3)
            protos = [rng.normal(size=dim) for _ in range(3)]
            mixed = sparsify(sum(w * p for w, p in zip(weights, protos)), bits)
            parts = sum(w * sparsify(p, bits) for w, p in zip(weights, protos))
            np.testing.assert_allclose(mixed, parts, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            values, bits = _random_case(rng, max_dim=32)
            once = sparsify(values, bits)
            twice = sparsify(once, bits)
            np.testing.assert_array_equal(once, twice)


class TestDeadUnitFraction:
    def test_half_dead_example(self):
        assert dead_unit_fraction([0.0, 0.5, 0.0, 1.2]) == 0.5

    def test_all_zero_prototype(self):
        assert dead_unit_fraction(np.zeros(8)) == 1.0


class TestValueTypes:
    def test_mask_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            MaskSet(np.array([[0, 2]]), s=1)
