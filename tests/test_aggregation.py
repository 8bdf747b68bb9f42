"""Round-level aggregation variants against hand and brute-force oracles."""

import numpy as np
import pytest

from tinyproto.aggregation import AggregationError, aggregate_mean
from tinyproto.masking import generate_masks
from tinyproto.prototypes import compress


def _rows(*vectors):
    """One row per contributing client, in ascending client order."""
    return np.array(vectors, dtype=np.float64)


def _one_class(aggregate, rows):
    """Fold a block whose rows all belong to class 0; return that class's row."""
    classes, combined = aggregate(np.zeros(len(rows), dtype=np.int64), rows)
    assert classes.tolist() == [0]
    return combined[0]


def _per_class_loop(ids, rows):
    """The per-class reference: each class's rows in the order given, summed
    onto zeros one at a time, then divided by the number of rows."""
    classes = sorted(set(ids.tolist()))
    combined = []
    for cls in classes:
        group = rows[ids == cls]
        acc = np.zeros(rows.shape[1])
        for row in group:
            acc += row
        acc /= len(group)
        combined.append(acc)
    return classes, np.array(combined)


class TestSimple:
    def test_single_client_is_identity(self):
        out = _one_class(aggregate_mean, _rows([1.0, -1.0]))
        np.testing.assert_array_equal(out, [1.0, -1.0])

    def test_arithmetic_mean(self):
        out = _one_class(aggregate_mean, _rows([2.0, 0.0], [4.0, 0.0]))
        np.testing.assert_array_equal(out, [3.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_mean([], np.zeros((0, 2)))


class TestScaled:
    def test_single_client_count_one_is_identity(self):
        out = _one_class(aggregate_mean, _rows([1.0, 2.0]))  # payload = 1 * (1, 2)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_hand_value(self):
        out = _one_class(aggregate_mean, _rows([3.0, 6.0], [5.0, 6.0]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_all_zero_payloads_stay_zero(self):
        out = _one_class(aggregate_mean, _rows([0.0, 0.0], [0.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestRoundFold:
    def test_classes_ascend_and_skip_classes_without_rows(self):
        ids = np.array([3, 1, 3, 5])
        rows = _rows([1.0, 0.0], [2.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        classes, combined = aggregate_mean(ids, rows)
        assert classes.tolist() == [1, 3, 5]
        np.testing.assert_array_equal(combined, [[2.0, 2.0], [2.0, 2.0], [5.0, 6.0]])

    @pytest.mark.parametrize(
        "ids, rows",
        [([0, 1], np.zeros((3, 2))), ([0], np.zeros(2)), ([[0]], np.zeros((1, 2)))],
        ids=["ids-too-short", "rows-one-dimensional", "ids-two-dimensional"],
    )
    def test_mismatched_shapes_rejected(self, ids, rows):
        with pytest.raises(AggregationError, match="need n >= 1 ids"):
            aggregate_mean(ids, rows)


class TestOracleEquivalence:
    """Direct formula recomputation on random small instances."""

    def test_all_variants_match_brute_force(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n_clients = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 7))
            vectors = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 9)) for _ in range(n_clients)]

            simple = _one_class(aggregate_mean, _rows(*vectors))
            np.testing.assert_allclose(simple, sum(vectors) / n_clients, atol=1e-12)

            scaled = _one_class(aggregate_mean, _rows(*(n * v for v, n in zip(vectors, counts))))
            np.testing.assert_allclose(
                scaled, sum(n * v for v, n in zip(vectors, counts)) / n_clients,
                atol=1e-12,
            )

        # interleaved blocks of several classes, bit-identical to the per-class loop
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_rows = int(rng.integers(1, 16))
            ids = rng.integers(0, int(rng.integers(1, 7)), size=n_rows)
            rows = rng.normal(size=(n_rows, int(rng.integers(1, 7))))
            got, expect = aggregate_mean(ids, rows), _per_class_loop(ids, rows)
            assert got[0].tolist() == expect[0]
            np.testing.assert_array_equal(got[1], expect[1])


class TestCompressionCommutes:
    def test_compress_then_aggregate_equals_aggregate_then_compress(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            dim = int(rng.integers(2, 12))
            ones = int(rng.integers(1, dim + 1))
            mask_set = generate_masks(1, dim, ones, seed=int(rng.integers(0, 1000)))
            n_clients = int(rng.integers(1, 5))
            protos = [rng.normal(size=dim) for _ in range(n_clients)]
            counts = [int(rng.integers(1, 6)) for _ in range(n_clients)]

            dense_mean = sum(n * p for p, n in zip(protos, counts)) / n_clients
            (via_dense,) = compress(mask_set, np.arange(1), dense_mean[None])

            rows = compress(mask_set, np.zeros(n_clients, dtype=np.int64), _rows(*protos))
            via_wire = _one_class(aggregate_mean, rows * np.array(counts)[:, None])
            np.testing.assert_allclose(via_wire, via_dense, atol=1e-10)
