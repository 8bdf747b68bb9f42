"""Synthetic blob datasets and label-skewed partitioning across clients.

Class clusters are isotropic Gaussians around seeded random centers on a
radius-4 sphere, which keeps classes well separated at small noise levels.
Partitioning draws, per class, client proportions from a Dirichlet
distribution and assigns that class's samples by largest-remainder rounding,
so label skew grows as the concentration alpha shrinks.  A client's shard
splits by a seeded shuffle: ``TRAIN_FRACTION`` (75%) trains, the rest tests.

Per-class counts are never stored beside a dataset: ``class_histogram()``
derives the one ``(K,)`` count vector from the labels whenever it is asked,
so no copy of the counts can disagree with the shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "make_blobs",
    "dirichlet_partition",
    "split_train_test",
    "TRAIN_FRACTION",
]

# share of each client's shard it trains on; the rest is its test split
TRAIN_FRACTION = 0.75


@dataclass(eq=False)
class Dataset:
    """Feature matrix x (N, D), integer labels y (N,), and the class count.

    Equality is identity.
    """

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must have one label per row of x")
        if len(self.y) == 0:
            raise ValueError("dataset must be non-empty")
        if np.any(self.y < 0) or np.any(self.y >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features contain non-finite entries")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.n_classes)

    def class_histogram(self) -> np.ndarray:
        """(K,) samples per class, 0 for a class the dataset lacks."""
        return np.bincount(self.y, minlength=self.n_classes)


def make_blobs(
    n_classes: int, input_dim: int, per_class: int, sigma: float, seed: int
) -> Dataset:
    """Gaussian clusters around seeded random unit-sphere centers scaled by 4."""
    if n_classes < 1 or input_dim < 1 or per_class < 1:
        raise ValueError("n_classes, input_dim and per_class must all be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, input_dim))
    centers = 4.0 * centers / np.linalg.norm(centers, axis=1, keepdims=True)
    xs = []
    ys = []
    for cls in range(n_classes):
        noise = rng.normal(scale=sigma, size=(per_class, input_dim))
        xs.append(centers[cls] + noise)
        ys.append(np.full(per_class, cls, dtype=np.int64))
    return Dataset(np.concatenate(xs), np.concatenate(ys), n_classes)


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, closest to the fractional quotas."""
    base = np.floor(quotas).astype(np.int64)
    remainder = total - int(base.sum())
    if remainder > 0:
        # stable sort keeps the lowest client index first among ties
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def dirichlet_partition(
    ds: Dataset, n_clients: int, alpha: float, seed: int
) -> list[Dataset | None]:
    """Split a dataset into per-client shards with Dirichlet label skew.

    Per class, client proportions are drawn from Dir(alpha * ones(M)) and the
    class's samples are dealt out by largest-remainder rounding, so every
    sample lands on exactly one client.  A client that receives nothing gets
    a None shard, and the caller reports it.  A shard's per-class counts are
    its :meth:`Dataset.class_histogram`.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    rng = np.random.default_rng(seed)
    assigned: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
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
    shards: list[Dataset | None] = []
    for client in range(n_clients):
        if not assigned[client]:
            shards.append(None)
            continue
        idx = np.sort(np.concatenate(assigned[client]))
        shards.append(ds.subset(idx))
    return shards


def split_train_test(shard: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then ``TRAIN_FRACTION`` of the shard (rounded) to
    train and the rest to test; both sides stay non-empty."""
    n = len(shard)
    if n < 2:
        raise ValueError(f"cannot split a shard of {n} samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * TRAIN_FRACTION))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return shard.subset(train_idx), shard.subset(test_idx)

