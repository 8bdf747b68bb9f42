"""Blob generation, Dirichlet partitioning, and train/test splits."""

import numpy as np
import pytest

from tinyproto.datagen import Dataset, dirichlet_partition, make_blobs, split_train_test


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


class TestDirichletPartition:
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
        train, test = split_train_test(ds, 0.75, seed=1)
        assert (len(train), len(test)) == (3, 1)

    def test_union_is_input_multiset(self):
        ds = make_blobs(3, 2, per_class=9, sigma=0.2, seed=0)
        train, test = split_train_test(ds, 0.6, seed=2)
        merged = np.sort(np.concatenate([train.x[:, 0], test.x[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(ds.x[:, 0]))
        assert len(train) + len(test) == len(ds)

    def test_seed_reproducibility(self):
        ds = make_blobs(3, 2, per_class=9, sigma=0.2, seed=0)
        a_train, a_test = split_train_test(ds, 0.75, seed=3)
        b_train, b_test = split_train_test(ds, 0.75, seed=3)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_test.x, b_test.x)

    def test_degenerate_shard_rejected(self):
        ds = make_blobs(1, 2, per_class=1, sigma=0.2, seed=0)
        with pytest.raises(ValueError, match="split"):
            split_train_test(ds, 0.75, seed=0)

    def test_both_sides_stay_non_empty(self):
        ds = make_blobs(1, 2, per_class=2, sigma=0.2, seed=0)
        train, test = split_train_test(ds, 0.99, seed=0)
        assert len(train) == 1 and len(test) == 1


class TestDatasetInvariants:
    def test_labels_validated(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
