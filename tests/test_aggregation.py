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
    """The per-class reference: each class's rows in the order given,
    reduced by numpy's ``mean(axis=0)``."""
    classes = sorted(set(ids.tolist()))
    return classes, np.array([rows[ids == cls].mean(axis=0) for cls in classes])


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

    @pytest.mark.parametrize(
        "ids, message",
        [
            (np.array([True, True]), "got bool .first id True"),
            (np.array([0.0, 1.0]), "got float64 .first id 0.0"),
            (np.array([0, -1]), "class id -1 is negative"),
        ],
        ids=["bool", "float", "negative"],
    )
    def test_ids_it_would_misread_rejected(self, ids, message):
        with pytest.raises(AggregationError, match=message):
            aggregate_mean(ids, np.ones((2, 2)))

    def test_width_one_long_class_is_numpys_mean(self):
        # numpy sums one contiguous column pairwise from 9 rows on; an
        # in-order fold onto zeros differs from it in the last bit
        rng = np.random.default_rng(23)
        for n_rows in (9, 10, 17, 40, 300):
            ids = rng.permutation(np.repeat([0, 2, 5], [n_rows, 1, 3]))
            rows = rng.normal(size=(len(ids), 1))
            classes, combined = aggregate_mean(ids, rows)
            assert classes.tolist() == [0, 2, 5]
            expect = np.array([rows[ids == c].mean(axis=0) for c in (0, 2, 5)])
            assert combined.tobytes() == expect.tobytes()


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

        # ids already in class order, as a client's class-sorted shard gives
        # them, over C-ordered, Fortran-ordered and strided blocks; long
        # enough for a width-1 class to be summed pairwise
        rng = np.random.default_rng(23)
        for case in range(300):
            n_rows = int(rng.integers(1, 30))
            ids = np.sort(rng.integers(0, int(rng.integers(1, 7)), size=n_rows))
            block = rng.normal(size=(n_rows, 2 * int(rng.integers(1, 7))))
            block *= 10.0 ** rng.integers(-3, 4, size=(n_rows, 1))
            rows = [block, np.asfortranarray(block), block[:, ::2]][case % 3]
            before = rows.copy()
            got, expect = aggregate_mean(ids, rows), _per_class_loop(ids, rows)
            assert got[0].tolist() == expect[0]
            assert got[1].tobytes() == expect[1].tobytes()
            np.testing.assert_array_equal(rows, before)  # the input is never written


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
