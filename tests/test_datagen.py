"""Blob generation, Dirichlet partitioning, and train/test splits."""

import re

import numpy as np
import pytest

from tinyproto.datagen import (
    Dataset,
    dirichlet_partition,
    make_blobs,
    split_train_test,
)


def _blobs_by_concatenation(n_classes, input_dim, per_class, sigma, seed):
    """make_blobs as per-class pieces joined at the end: the reference form."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, input_dim))
    centers = 4.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    xs, ys = [], []
    for cls in range(n_classes):
        xs.append(centers[cls] + rng.normal(scale=sigma, size=(per_class, input_dim)))
        ys.append(np.full(per_class, cls, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def _largest_remainder(quotas, total):
    """One class's deal: the floors of its quotas, then one more sample each
    to the clients with the largest fractional parts, lowest client first
    among ties, until the counts sum to total."""
    base = np.floor(quotas).astype(np.int64)
    remainder = total - int(base.sum())
    if remainder > 0:
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def _partition_by_client_lists(ds, n_clients, alpha, seed):
    """dirichlet_partition as one list of row pieces per client, each
    concatenated and sorted at the end, with one Dirichlet draw and one
    largest-remainder deal per class: the reference form.  Returns each
    client's parent rows, or None."""
    rng = np.random.default_rng(seed)
    assigned = [[] for _ in range(n_clients)]
    for cls in range(ds.n_classes):
        cls_idx = np.flatnonzero(ds.y == cls)
        if len(cls_idx) == 0:
            continue
        props = rng.dirichlet(np.full(n_clients, alpha))
        per_client = _largest_remainder(props * len(cls_idx), len(cls_idx))
        start = 0
        for client, n in enumerate(per_client):
            if n > 0:
                assigned[client].append(cls_idx[start : start + n])
            start += n
    return [np.sort(np.concatenate(a)) if a else None for a in assigned]


class TestMakeBlobs:
    def test_tiny_sigma_sits_on_centers(self):
        ds = make_blobs(3, 4, per_class=1, sigma=1e-12, seed=2)
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(3, 4))
        centers = 4.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
        np.testing.assert_allclose(ds.x, centers, atol=1e-10)

    def test_label_histogram_uniform(self):
        ds = make_blobs(5, 3, per_class=17, sigma=0.5, seed=3)
        np.testing.assert_array_equal(ds.class_histogram(), [17] * 5)

    def test_nearest_center_classifier_is_perfect_at_low_noise(self):
        ds = make_blobs(3, 4, per_class=50, sigma=0.1, seed=2)
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(3, 4))
        centers = 4.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
        dists = np.linalg.norm(ds.x[:, None, :] - centers[None], axis=2)
        assert np.mean(np.argmin(dists, axis=1) == ds.y) == 1.0

    def test_seed_determinism(self):
        a = make_blobs(4, 6, 10, 0.3, seed=9)
        b = make_blobs(4, 6, 10, 0.3, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(0, 4, 10, 0.3, seed=0)
        with pytest.raises(ValueError):
            make_blobs(3, 4, 10, 0.0, seed=0)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_equals_per_class_concatenation_bit_for_bit(self, seed):
        ds = make_blobs(5, 6, per_class=11, sigma=0.4, seed=seed)
        x, y = _blobs_by_concatenation(5, 6, 11, 0.4, seed)
        assert ds.x.tobytes() == x.tobytes() and ds.x.shape == x.shape
        assert ds.y.dtype == y.dtype and np.array_equal(ds.y, y)


class TestDirichletPartition:
    @pytest.mark.parametrize(
        "n_classes, n_clients, alpha, seed",
        [(3, 4, 0.1, 5), (10, 30, 0.5, 1), (6, 12, 0.01, 2), (4, 3, 100.0, 9), (1, 5, 0.3, 4)],
        ids=["golden-shape", "many-clients", "tiny-alpha", "huge-alpha", "one-class"],
    )
    @pytest.mark.parametrize("empty_class", [False, True], ids=["full", "class-1-empty"])
    def test_equals_per_client_reference(self, n_classes, n_clients, alpha, seed, empty_class):
        ds = make_blobs(n_classes, 3, per_class=13, sigma=0.3, seed=seed)
        if empty_class:
            # relabel class 1 as class 0, so class 1 has no samples
            ds = Dataset(ds.x, np.where(ds.y == 1, 0, ds.y), n_classes)
        expected = _partition_by_client_lists(ds, n_clients, alpha, seed)
        shards = dirichlet_partition(ds, n_clients, alpha, seed)
        assert len(shards) == n_clients
        for shard, rows in zip(shards, expected):
            assert (shard is None) == (rows is None)
            if rows is not None:
                assert shard.x.tobytes() == ds.x[rows].tobytes()
                np.testing.assert_array_equal(shard.y, ds.y[rows])

    def test_tiny_alpha_leaves_some_client_empty(self):
        """So the tiny-alpha reference comparison above includes a None shard."""
        ds = make_blobs(6, 3, per_class=13, sigma=0.3, seed=2)
        assert None in dirichlet_partition(ds, 12, 0.01, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shards_and_splits_are_class_sorted(self, seed):
        """The invariant behind class-sorted shards: each shard holds its
        parent's rows in ascending order, and so does each train and test
        split; since make_blobs emits rows in class order, every shard's
        labels are non-decreasing."""
        ds = make_blobs(6, 4, per_class=20, sigma=0.3, seed=seed)
        assert np.all(np.diff(ds.y) >= 0)
        for shard in dirichlet_partition(ds, 7, alpha=0.5, seed=seed):
            if shard is None:
                continue
            # rows are distinct, so each shard row names its parent row
            rows = [int(np.flatnonzero((ds.x == row).all(axis=1))[0]) for row in shard.x]
            assert rows == sorted(rows)
            assert np.all(np.diff(shard.y) >= 0)
            if len(shard) >= 2:
                for side in split_train_test(shard, seed=seed):
                    assert np.all(np.diff(side.y) >= 0)

    def test_huge_alpha_is_nearly_uniform(self):
        ds = make_blobs(3, 4, per_class=40, sigma=0.2, seed=0)
        shards = dirichlet_partition(ds, 4, alpha=1e6, seed=1)
        for shard in shards:
            assert np.all(np.abs(shard.class_histogram() - 40 / 4) <= 1)

    def test_single_client_takes_everything(self):
        ds = make_blobs(3, 4, per_class=10, sigma=0.2, seed=0)
        shards = dirichlet_partition(ds, 1, alpha=0.1, seed=1)
        assert len(shards[0]) == len(ds)

    def test_golden_seeded_draw(self):
        """Frozen from a recorded draw: alpha=0.1, four clients."""
        ds = make_blobs(3, 4, per_class=40, sigma=0.2, seed=11)
        shards = dirichlet_partition(ds, 4, alpha=0.1, seed=5)
        sizes = [0 if s is None else len(s) for s in shards]
        assert sizes == [58, 3, 59, 0]
        counts = [None if s is None else s.class_histogram().tolist() for s in shards]
        assert counts == [[40, 0, 18], [0, 0, 3], [0, 40, 19], None]

    def test_conservation_and_recount(self):
        ds = make_blobs(4, 5, per_class=33, sigma=0.4, seed=6)
        shards = dirichlet_partition(ds, 5, alpha=0.3, seed=7)
        total = sum(len(s) for s in shards if s is not None)
        assert total == len(ds)
        hist = np.zeros(4, dtype=int)
        for shard in shards:
            if shard is not None:
                hist += np.bincount(shard.y, minlength=4)
        np.testing.assert_array_equal(hist, ds.class_histogram())

    @pytest.mark.parametrize(
        "n_clients, alpha, what",
        [(0, 0.5, "n_clients must be >= 1"), (3, 0.0, "alpha must be > 0"), (3, -1.0, "alpha")],
        ids=["no-clients", "zero-alpha", "negative-alpha"],
    )
    def test_bad_args_rejected(self, n_clients, alpha, what):
        ds = make_blobs(3, 4, per_class=10, sigma=0.2, seed=0)
        with pytest.raises(ValueError, match=what):
            dirichlet_partition(ds, n_clients, alpha=alpha, seed=1)

    def test_seed_determinism(self):
        ds = make_blobs(3, 4, per_class=20, sigma=0.2, seed=1)
        first = dirichlet_partition(ds, 3, alpha=0.2, seed=4)
        second = dirichlet_partition(ds, 3, alpha=0.2, seed=4)
        assert [s is None for s in first] == [s is None for s in second]
        for a, b in zip(first, second):
            if a is not None:
                np.testing.assert_array_equal(a.x, b.x)
                np.testing.assert_array_equal(a.y, b.y)


class TestSplitTrainTest:
    def test_four_samples_three_one(self):
        ds = make_blobs(2, 3, per_class=2, sigma=0.2, seed=0)
        train, test = split_train_test(ds, seed=1)
        assert (len(train), len(test)) == (3, 1)

    def test_union_is_input_multiset(self):
        ds = make_blobs(3, 2, per_class=9, sigma=0.2, seed=0)
        train, test = split_train_test(ds, seed=2)
        merged = np.sort(np.concatenate([train.x[:, 0], test.x[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(ds.x[:, 0]))
        assert len(train) + len(test) == len(ds)

    def test_seed_reproducibility(self):
        ds = make_blobs(3, 2, per_class=9, sigma=0.2, seed=0)
        a_train, a_test = split_train_test(ds, seed=3)
        b_train, b_test = split_train_test(ds, seed=3)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_test.x, b_test.x)

    def test_degenerate_shard_rejected(self):
        ds = make_blobs(1, 2, per_class=1, sigma=0.2, seed=0)
        with pytest.raises(ValueError, match="split"):
            split_train_test(ds, seed=0)

    def test_both_sides_stay_non_empty(self):
        ds = make_blobs(1, 2, per_class=2, sigma=0.2, seed=0)
        train, test = split_train_test(ds, seed=0)
        assert len(train) == 1 and len(test) == 1


class TestDatasetInvariants:
    def test_labels_validated(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0]], ids=["too-high", "negative"])
    def test_out_of_range_labels_refused(self, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            Dataset(np.zeros((2, 2)), np.array(labels), 3)

    @pytest.mark.parametrize(
        "labels, dtype",
        [([0.5, 1.7, 2.9], "float64"), ([0.0, 1.0, 2.0], "float64"),
         ([True, False, True], "bool"), (np.array([0, 1, 2], dtype=np.uint64), "uint64")],
        ids=["fractional", "whole-floats", "bool", "uint64"],
    )
    def test_non_integer_labels_refused(self, labels, dtype):
        # an int64 cast would truncate them: [0.5, 1.7, 2.9] read as [0, 1, 2]
        with pytest.raises(ValueError, match=rf"^labels must be integers, got {dtype}$"):
            Dataset(np.zeros((3, 2)), labels, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint32, np.int64])
    def test_integer_labels_of_any_width_accepted(self, dtype):
        ds = Dataset(np.zeros((3, 2)), np.array([2, 0, 1], dtype=dtype), 3)
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("labels", [[], np.zeros(0)], ids=["list", "float-array"])
    def test_no_labels_reported_as_empty(self, labels):
        with pytest.raises(ValueError, match="^dataset must be non-empty$"):
            Dataset(np.zeros((0, 2)), labels, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        x = np.zeros((2, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x, np.array([0, 1]), 3)

    @pytest.mark.parametrize(
        "n_classes, message",
        [(2.5, "n_classes must be an integer, got 2.5"),
         (np.float64(3.0), f"n_classes must be an integer, got {np.float64(3.0)!r}"),
         (True, "n_classes must be an integer, got the bool True"),
         (0, "n_classes must be >= 1, got 0"),
         (-2, "n_classes must be >= 1, got -2")],
        ids=["fractional", "whole-float", "bool", "zero", "negative"],
    )
    def test_class_count_not_a_positive_integer_refused(self, n_classes, message):
        # 2.5 once built a dataset whose class_histogram raised TypeError, and
        # True read as one class: "labels must lie in [0, True)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(np.zeros((2, 2)), np.array([0, 0]), n_classes)

    def test_numpy_integer_class_count_stored_as_int(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), np.int64(2))
        assert type(ds.n_classes) is int and ds.class_histogram().tolist() == [1, 1]

    @pytest.mark.parametrize(
        "indices",
        [np.array([], dtype=np.int64), np.zeros(4, dtype=bool), slice(2, 2)],
        ids=["no-indices", "all-false", "empty-slice"],
    )
    def test_subset_refuses_an_empty_selection(self, indices):
        ds = make_blobs(2, 3, per_class=2, sigma=0.2, seed=0)
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            ds.subset(indices)

    def test_subset_keeps_the_selected_rows_and_classes(self):
        ds = make_blobs(3, 2, per_class=4, sigma=0.2, seed=0)
        sub = ds.subset(np.array([1, 5, 10]))
        np.testing.assert_array_equal(sub.x, ds.x[[1, 5, 10]])
        np.testing.assert_array_equal(sub.y, [0, 1, 2])
        assert sub.n_classes == 3
