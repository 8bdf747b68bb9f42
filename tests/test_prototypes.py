"""Sparsify / compress / reconstruct operator algebra and dead-unit stats.

The operators take a mask set, one class id per block row, and the block; a
single vector is a one-row block of class 0 under a one-mask set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyproto.masking import MaskSet, generate_masks
from tinyproto.prototypes import (
    compress,
    dead_unit_fraction,
    reconstruct,
    sparsify,
)


ROW = np.arange(1)  # the class id of a one-row block under a one-mask set


def _one(bits) -> MaskSet:
    """A set of one mask, class 0."""
    return MaskSet(np.array([bits]))


def _random_case(rng, max_dim=64):
    """A one-row block and a one-mask set; the mask may be empty."""
    dim = int(rng.integers(1, max_dim + 1))
    ones = int(rng.integers(0, dim + 1))
    bits = np.zeros(dim, dtype=np.uint8)
    bits[rng.choice(dim, size=ones, replace=False)] = 1
    return rng.normal(size=(1, dim)), _one(bits)


class TestSparsify:
    def test_hadamard_example(self):
        out = sparsify(_one([1, 0, 1]), ROW, [[3.0, -1.0, 2.0]])
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [[3.0, 0.0, 2.0]])

    def test_all_ones_mask_is_identity(self):
        values = np.array([[0.5, -2.0, 7.0]])
        out = sparsify(_one([1, 1, 1]), ROW, values)
        np.testing.assert_array_equal(out, values)

    def test_single_leading_bit_zeroes_the_rest(self):
        out = sparsify(_one([1, 0, 0, 0, 0]), ROW, [[1.0, 2.0, 3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0, 0.0, 0.0]])

    def test_class_mismatch_rejected(self):
        # a block needs one class id per row
        with pytest.raises(ValueError, match=r"ids int64 \(2,\) and values \(1, 1\)"):
            sparsify(_one([1]), np.zeros(2, dtype=np.int64), np.ones((1, 1)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"an \(n, 1\) values block"):
            sparsify(_one([1]), ROW, [[1.0, 2.0]])


class TestCompress:
    def test_basic_example(self):
        out = compress(_one([1, 0, 1]), ROW, [[3.0, -1.0, 2.0]])
        np.testing.assert_array_equal(out, [[3.0, 2.0]])

    def test_all_ones_mask_keeps_everything(self):
        out = compress(_one([1, 1, 1]), ROW, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_interior_bits_in_ascending_order(self):
        out = compress(_one([0, 1, 1, 0]), ROW, [[7.0, 8.0, 9.0, 10.0]])
        np.testing.assert_array_equal(out, [[8.0, 9.0]])


class TestReconstruct:
    def test_inverse_of_compress_example(self):
        out = reconstruct(_one([1, 0, 1]), ROW, [[3.0, 2.0]])
        np.testing.assert_array_equal(out, [[3.0, 0.0, 2.0]])

    def test_empty_mask_gives_zero_vector(self):
        out = reconstruct(_one([0, 0, 0]), ROW, np.empty((1, 0)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"an \(n, 2\) payload block"):
            reconstruct(_one([1, 1, 0]), ROW, [[1.0]])

    def test_roundtrip_equals_sparsify_1000_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            values, masks = _random_case(rng)
            via_wire = reconstruct(masks, ROW, compress(masks, ROW, values))
            direct = sparsify(masks, ROW, values)
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
    """A set of ``max(n, 1)`` masks with ``s`` set bits each, disjoint blocks
    unless ``overlap``, and ``n`` rows of random classes of it, repeats allowed."""
    k = max(n, 1)
    bits = np.zeros((k, d), dtype=np.uint8)
    for i in range(k):
        if overlap:
            bits[i, rng.choice(d, size=s, replace=False)] = 1
        else:
            bits[i, (i * s) % d : (i * s) % d + s] = 1
    return MaskSet(bits), rng.integers(0, k, size=n), rng.normal(size=(n, d))


class TestBlocks:
    """An (n, d) block with one class id per row equals a per-row loop."""

    @pytest.mark.parametrize(
        "n, d, s, overlap",
        [(5, 12, 3, True), (4, 12, 3, False), (30, 8, 5, True), (3, 6, 6, True),
         (1, 9, 2, True), (0, 7, 3, True)],
        ids=["overlapping", "disjoint", "crowded", "s-equals-d", "one-row", "empty"],
    )
    def test_block_operators_match_per_row_loop(self, n, d, s, overlap):
        rng = np.random.default_rng(16)
        for _ in range(20):
            masks, ids, block = _random_block(rng, n, d, s, overlap)
            bits = masks.bits[ids]
            comp = compress(masks, ids, block)
            assert comp.shape == (n, s)  # empty ids give (0, s)
            np.testing.assert_array_equal(comp, np.reshape(_reference_compress(block, bits), comp.shape))
            np.testing.assert_array_equal(
                reconstruct(masks, ids, comp), _reference_reconstruct(comp, bits)
            )
            np.testing.assert_array_equal(
                sparsify(masks, ids, block), np.where(bits == 1, block, 0.0)
            )
            np.testing.assert_array_equal(
                reconstruct(masks, ids, comp), sparsify(masks, ids, block)
            )

    @pytest.mark.parametrize("op", [sparsify, compress, reconstruct])
    def test_row_against_block_rejected(self, op):
        # one vector is passed as a one-row block
        with pytest.raises(ValueError, match=r"expected n integer class ids"):
            op(_one([1, 1, 1]), ROW, np.ones(3))

    @pytest.mark.parametrize("op", [sparsify, compress, reconstruct])
    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "K"])
    def test_class_id_outside_range_rejected(self, op, bad):
        # a negative id would otherwise wrap to the last class
        masks = generate_masks(3, 6, 2, seed=0)
        width = 6 if op is not reconstruct else 2
        with pytest.raises(ValueError, match=rf"class id {bad} outside \[0, K\) for K=3"):
            op(masks, np.array([0, bad]), np.ones((2, width)))

    @pytest.mark.parametrize(
        "ids", [np.array([True, False]), np.array([0.0, 1.0]), np.zeros((2, 1), dtype=np.int64)],
        ids=["bool", "float", "two-dimensional"],
    )
    def test_ids_not_integer_vector_rejected(self, ids):
        # a bool array would select rows by mask, not by class id
        with pytest.raises(ValueError, match=r"expected n integer class ids \(1-D\)"):
            compress(generate_masks(2, 4, 2, seed=0), ids, np.ones((2, 4)))

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
        (out,) = sparsify(_one(bits), ROW, vals[None])
        assert np.all(out[bits == 0] == 0)

    def test_non_expansive(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, masks = _random_case(rng, max_dim=32)
            b = rng.normal(size=a.shape)
            lhs = np.linalg.norm(sparsify(masks, ROW, a) - sparsify(masks, ROW, b))
            rhs = np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-12

    def test_linearity_with_fixed_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            dim = int(rng.integers(1, 33))
            masks = _one((rng.random(dim) < 0.5).astype(np.uint8))
            weights = rng.normal(size=3)
            protos = [rng.normal(size=(1, dim)) for _ in range(3)]
            mixed = sparsify(masks, ROW, sum(w * p for w, p in zip(weights, protos)))
            parts = sum(w * sparsify(masks, ROW, p) for w, p in zip(weights, protos))
            np.testing.assert_allclose(mixed, parts, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            values, masks = _random_case(rng, max_dim=32)
            once = sparsify(masks, ROW, values)
            twice = sparsify(masks, ROW, once)
            np.testing.assert_array_equal(once, twice)


class TestDeadUnitFraction:
    def test_half_dead_example(self):
        assert dead_unit_fraction([0.0, 0.5, 0.0, 1.2]) == 0.5

    def test_all_zero_prototype(self):
        assert dead_unit_fraction(np.zeros(8)) == 1.0


class TestValueTypes:
    def test_mask_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            MaskSet(np.array([[0, 2]]))
