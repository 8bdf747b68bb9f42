"""Per-class aggregation variants against hand and brute-force oracles."""

import numpy as np
import pytest

from dataclasses import replace

from tinyproto.aggregation import (
    AggregationError,
    ClassContribution,
    aggregate_mean,
    aggregate_weighted,
)
from tinyproto.masking import generate_masks
from tinyproto.prototypes import Prototype, compress


def _contrib(client, cls, values, count=None):
    return ClassContribution(client, cls, Prototype(cls, values), count)


def _without_counts(contribs):
    return [replace(c, sample_count=None) for c in contribs]


class TestWeighted:
    def test_single_client_is_identity(self):
        out = aggregate_weighted([_contrib(0, 1, [2.0, 5.0], count=7)])
        np.testing.assert_array_equal(out.values, [2.0, 5.0])

    def test_equal_counts_hand_value(self):
        out = aggregate_weighted(
            [_contrib(0, 0, [2.0, 0.0], count=4), _contrib(1, 0, [4.0, 0.0], count=4)]
        )
        np.testing.assert_allclose(out.values, [1.5, 0.0])

    def test_unequal_counts_hand_value(self):
        out = aggregate_weighted(
            [_contrib(0, 0, [4.0, 0.0], count=3), _contrib(1, 0, [8.0, 0.0], count=1)]
        )
        np.testing.assert_allclose(out.values, [2.5, 0.0])

    def test_missing_count_rejected(self):
        with pytest.raises(AggregationError, match="sample_count"):
            aggregate_weighted([_contrib(0, 0, [1.0])])

    def test_all_zero_counts_rejected(self):
        with pytest.raises(AggregationError, match="positive"):
            aggregate_weighted([_contrib(0, 0, [1.0], count=0)])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_weighted([])


class TestSimple:
    def test_single_client_is_identity(self):
        out = aggregate_mean([_contrib(3, 2, [1.0, -1.0])])
        np.testing.assert_array_equal(out.values, [1.0, -1.0])

    def test_arithmetic_mean(self):
        out = aggregate_mean([_contrib(0, 0, [2.0, 0.0]), _contrib(1, 0, [4.0, 0.0])])
        np.testing.assert_array_equal(out.values, [3.0, 0.0])

    def test_matches_weighted_only_for_single_contributor(self):
        # the weighted formula carries an extra 1/N factor, so the two
        # variants agree only when exactly one client contributes
        single = [_contrib(0, 0, [2.0, 6.0], count=5)]
        np.testing.assert_array_equal(
            aggregate_mean(_without_counts(single)).values,
            aggregate_weighted(single).values,
        )
        pair = [_contrib(0, 0, [2.0, 0.0], count=3), _contrib(1, 0, [4.0, 0.0], count=3)]
        assert not np.allclose(
            aggregate_mean(_without_counts(pair)).values,
            aggregate_weighted(pair).values,
        )

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_mean([])


class TestScaled:
    def test_single_client_count_one_is_identity(self):
        out = aggregate_mean([_contrib(0, 0, [1.0, 2.0])])  # payload = 1 * (1, 2)
        np.testing.assert_array_equal(out.values, [1.0, 2.0])

    def test_hand_value(self):
        out = aggregate_mean([_contrib(0, 0, [3.0, 6.0]), _contrib(1, 0, [5.0, 6.0])])
        np.testing.assert_array_equal(out.values, [4.0, 6.0])

    def test_all_zero_payloads_stay_zero(self):
        out = aggregate_mean([_contrib(0, 0, [0.0, 0.0]), _contrib(1, 0, [0.0, 0.0])])
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_standalone_count_rejected(self):
        with pytest.raises(AggregationError, match="sample counts"):
            aggregate_mean([_contrib(0, 0, [1.0], count=3)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(AggregationError, match="length"):
            aggregate_mean([_contrib(0, 0, [1.0]), _contrib(1, 0, [1.0, 2.0])])

    def test_mixed_classes_rejected(self):
        with pytest.raises(AggregationError, match="classes"):
            aggregate_mean([_contrib(0, 0, [1.0]), _contrib(1, 1, [1.0])])


class TestOracleEquivalence:
    """Direct formula recomputation on random small instances."""

    def test_all_variants_match_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n_clients = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 7))
            vectors = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 9)) for _ in range(n_clients)]

            weighted = aggregate_weighted(
                [_contrib(i, 0, v, count=n) for i, (v, n) in enumerate(zip(vectors, counts))]
            )
            total = sum(counts)
            expect = sum((n / total) * v for v, n in zip(vectors, counts)) / n_clients
            np.testing.assert_allclose(weighted.values, expect, atol=1e-12)

            simple = aggregate_mean([_contrib(i, 0, v) for i, v in enumerate(vectors)])
            np.testing.assert_allclose(
                simple.values, sum(vectors) / n_clients, atol=1e-12
            )

            scaled = aggregate_mean(
                [_contrib(i, 0, n * v) for i, (v, n) in enumerate(zip(vectors, counts))]
            )
            np.testing.assert_allclose(
                scaled.values, sum(n * v for v, n in zip(vectors, counts)) / n_clients,
                atol=1e-12,
            )

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(21)
        vectors = [rng.normal(size=4) for _ in range(5)]
        contribs = [_contrib(i, 0, v) for i, v in enumerate(vectors)]
        forward = aggregate_mean(contribs)
        backward = aggregate_mean(list(reversed(contribs)))
        np.testing.assert_array_equal(forward.values, backward.values)


class TestCompressionCommutes:
    def test_compress_then_aggregate_equals_aggregate_then_compress(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(2, 12))
            ones = int(rng.integers(1, dim + 1))
            mask_set = generate_masks(1, dim, ones, seed=int(rng.integers(0, 1000)))
            mask = mask_set.for_class(0)
            n_clients = int(rng.integers(1, 5))
            protos = [Prototype(0, rng.normal(size=dim)) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 6)) for _ in range(n_clients)]

            dense_mean = sum(n * p.values for p, n in zip(protos, counts)) / n_clients
            via_dense = compress(Prototype(0, dense_mean), mask)

            via_wire = aggregate_mean(
                [
                    _contrib(i, 0, n * compress(p, mask).values)
                    for i, (p, n) in enumerate(zip(protos, counts))
                ]
            )
            np.testing.assert_allclose(via_wire.values, via_dense.values, atol=1e-10)
