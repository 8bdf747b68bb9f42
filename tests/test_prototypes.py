"""Sparsify / compress / reconstruct operator algebra and dead-unit stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyproto.prototypes import (
    Mask,
    Prototype,
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
    proto = Prototype(0, rng.normal(size=dim))
    return proto, Mask(0, bits)


class TestSparsify:
    def test_hadamard_example(self):
        out = sparsify(Prototype(0, [3.0, -1.0, 2.0]), Mask(0, [1, 0, 1]))
        assert isinstance(out, Prototype)
        np.testing.assert_array_equal(out.values, [3.0, 0.0, 2.0])

    def test_all_ones_mask_is_identity(self):
        proto = Prototype(1, [0.5, -2.0, 7.0])
        out = sparsify(proto, Mask(1, [1, 1, 1]))
        np.testing.assert_array_equal(out.values, proto.values)

    def test_single_leading_bit_zeroes_the_rest(self):
        out = sparsify(Prototype(0, [1.0, 2.0, 3.0, 4.0, 5.0]), Mask(0, [1, 0, 0, 0, 0]))
        np.testing.assert_array_equal(out.values, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_class_mismatch_rejected(self):
        with pytest.raises(ValueError, match="class"):
            sparsify(Prototype(0, [1.0]), Mask(1, [1]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sparsify(Prototype(0, [1.0, 2.0]), Mask(0, [1]))


class TestCompress:
    def test_basic_example(self):
        out = compress(Prototype(0, [3.0, -1.0, 2.0]), Mask(0, [1, 0, 1]))
        np.testing.assert_array_equal(out.values, [3.0, 2.0])

    def test_all_ones_mask_keeps_everything(self):
        out = compress(Prototype(0, [1.0, 2.0, 3.0]), Mask(0, [1, 1, 1]))
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_interior_bits_in_ascending_order(self):
        out = compress(Prototype(0, [7.0, 8.0, 9.0, 10.0]), Mask(0, [0, 1, 1, 0]))
        np.testing.assert_array_equal(out.values, [8.0, 9.0])


class TestReconstruct:
    def test_inverse_of_compress_example(self):
        out = reconstruct(Prototype(0, [3.0, 2.0]), Mask(0, [1, 0, 1]))
        np.testing.assert_array_equal(out.values, [3.0, 0.0, 2.0])

    def test_empty_mask_gives_zero_vector(self):
        out = reconstruct(Prototype(0, []), Mask(0, [0, 0, 0]))
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            reconstruct(Prototype(0, [1.0]), Mask(0, [1, 1, 0]))

    def test_roundtrip_equals_sparsify_1000_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            proto, mask = _random_case(rng)
            via_wire = reconstruct(compress(proto, mask), mask)
            direct = sparsify(proto, mask)
            np.testing.assert_array_equal(via_wire.values, direct.values)


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
        out = sparsify(Prototype(0, vals), Mask(0, bits))
        assert np.all(out.values[bits == 0] == 0)

    def test_non_expansive(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, mask = _random_case(rng, max_dim=32)
            b = Prototype(0, rng.normal(size=a.dim))
            lhs = np.linalg.norm(sparsify(a, mask).values - sparsify(b, mask).values)
            rhs = np.linalg.norm(a.values - b.values)
            assert lhs <= rhs + 1e-12

    def test_linearity_with_fixed_mask(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            dim = int(rng.integers(1, 33))
            bits = (rng.random(dim) < 0.5).astype(np.uint8)
            mask = Mask(0, bits)
            weights = rng.normal(size=3)
            protos = [rng.normal(size=dim) for _ in range(3)]
            mixed = sparsify(Prototype(0, sum(w * p for w, p in zip(weights, protos))), mask)
            parts = sum(
                w * sparsify(Prototype(0, p), mask).values for w, p in zip(weights, protos)
            )
            np.testing.assert_allclose(mixed.values, parts, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            proto, mask = _random_case(rng, max_dim=32)
            once = sparsify(proto, mask)
            twice = sparsify(Prototype(0, once.values), mask)
            np.testing.assert_array_equal(once.values, twice.values)


class TestDeadUnitFraction:
    def test_half_dead_example(self):
        assert dead_unit_fraction(Prototype(0, [0.0, 0.5, 0.0, 1.2]), tol=0.0) == 0.5

    def test_all_zero_prototype(self):
        assert dead_unit_fraction(Prototype(0, np.zeros(8))) == 1.0

    def test_tolerance_absorbs_drift(self):
        proto = Prototype(0, [1e-9, 0.5])
        assert dead_unit_fraction(proto, tol=0.0) == 0.0
        assert dead_unit_fraction(proto, tol=1e-8) == 0.5

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            dead_unit_fraction(Prototype(0, [1.0]), tol=-1.0)


class TestValueTypes:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Prototype(0, [np.nan])
        with pytest.raises(ValueError):
            Prototype(0, [np.inf])

    def test_mask_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            Mask(0, [0, 2])

    def test_values_are_immutable(self):
        proto = Prototype(0, [1.0, 2.0])
        with pytest.raises(ValueError):
            proto.values[0] = 5.0
