"""Per-class aggregation variants against hand and brute-force oracles."""

import numpy as np
import pytest

from tinyproto.aggregation import AggregationError, aggregate_mean, aggregate_weighted
from tinyproto.masking import generate_masks
from tinyproto.prototypes import compress


def _rows(*vectors):
    """One row per contributing client, in ascending client order."""
    return np.array(vectors, dtype=np.float64)


class TestWeighted:
    def test_single_client_is_identity(self):
        out = aggregate_weighted(_rows([2.0, 5.0]), [7])
        np.testing.assert_array_equal(out, [2.0, 5.0])

    def test_equal_counts_hand_value(self):
        out = aggregate_weighted(_rows([2.0, 0.0], [4.0, 0.0]), [4, 4])
        np.testing.assert_allclose(out, [1.5, 0.0])

    def test_unequal_counts_hand_value(self):
        out = aggregate_weighted(_rows([4.0, 0.0], [8.0, 0.0]), [3, 1])
        np.testing.assert_allclose(out, [2.5, 0.0])

    def test_all_zero_counts_rejected(self):
        with pytest.raises(AggregationError, match="positive"):
            aggregate_weighted(_rows([1.0]), [0])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_weighted(np.zeros((0, 2)), [])


class TestSimple:
    def test_single_client_is_identity(self):
        out = aggregate_mean(_rows([1.0, -1.0]))
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_arithmetic_mean(self):
        out = aggregate_mean(_rows([2.0, 0.0], [4.0, 0.0]))
        np.testing.assert_array_equal(out, [3.0, 0.0])

    def test_matches_weighted_only_for_single_contributor(self):
        # the weighted formula carries an extra 1/N factor, so the two
        # variants agree only when exactly one client contributes
        single = _rows([2.0, 6.0])
        np.testing.assert_array_equal(aggregate_mean(single), aggregate_weighted(single, [5]))
        pair = _rows([2.0, 0.0], [4.0, 0.0])
        assert not np.allclose(aggregate_mean(pair), aggregate_weighted(pair, [3, 3]))

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_mean(np.zeros((0, 2)))


class TestScaled:
    def test_single_client_count_one_is_identity(self):
        out = aggregate_mean(_rows([1.0, 2.0]))  # payload = 1 * (1, 2)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_hand_value(self):
        out = aggregate_mean(_rows([3.0, 6.0], [5.0, 6.0]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_all_zero_payloads_stay_zero(self):
        out = aggregate_mean(_rows([0.0, 0.0], [0.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestOracleEquivalence:
    """Direct formula recomputation on random small instances."""

    def test_all_variants_match_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n_clients = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 7))
            vectors = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 9)) for _ in range(n_clients)]

            weighted = aggregate_weighted(_rows(*vectors), counts)
            total = sum(counts)
            expect = sum((n / total) * v for v, n in zip(vectors, counts)) / n_clients
            np.testing.assert_allclose(weighted, expect, atol=1e-12)

            simple = aggregate_mean(_rows(*vectors))
            np.testing.assert_allclose(simple, sum(vectors) / n_clients, atol=1e-12)

            scaled = aggregate_mean(_rows(*(n * v for v, n in zip(vectors, counts))))
            np.testing.assert_allclose(
                scaled, sum(n * v for v, n in zip(vectors, counts)) / n_clients,
                atol=1e-12,
            )


class TestCompressionCommutes:
    def test_compress_then_aggregate_equals_aggregate_then_compress(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(2, 12))
            ones = int(rng.integers(1, dim + 1))
            mask_set = generate_masks(1, dim, ones, seed=int(rng.integers(0, 1000)))
            mask = mask_set.for_class(0)
            n_clients = int(rng.integers(1, 5))
            protos = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 6)) for _ in range(n_clients)]

            dense_mean = sum(n * p for p, n in zip(protos, counts)) / n_clients
            via_dense = compress(dense_mean, mask.bits)

            via_wire = aggregate_mean(
                _rows(*(n * compress(p, mask.bits) for p, n in zip(protos, counts)))
            )
            np.testing.assert_allclose(via_wire, via_dense, atol=1e-10)
